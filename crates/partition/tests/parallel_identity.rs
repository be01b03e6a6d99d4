//! The determinism contract of the parallel partitioner, property-tested:
//! for any thread count, the result is **byte-identical** to the
//! sequential run — same seed, same part vector, regardless of how the
//! recursion tree was forked or how the heavy loops were chunked.
//!
//! Thread counts are driven through `GpConfig::threads` /
//! `MondriaanConfig::threads` rather than `SF2D_THREADS` so test cases
//! can't race on the process environment.

use proptest::prelude::*;
use sf2d_gen::{chung_lu, powerlaw_degrees, rmat, RmatConfig};
use sf2d_graph::{CsrMatrix, Graph};
use sf2d_partition::{
    mondriaan, partition_graph, partition_graph_multiconstraint,
    partition_graph_multiconstraint_report, partition_graph_report, GpConfig, MondriaanConfig,
};

/// Scale-free test inputs from both generator families: R-MAT (Graph500
/// parameters) and Chung–Lu over power-law degrees.
fn scale_free_matrix() -> impl Strategy<Value = CsrMatrix> {
    (proptest::bool::ANY, 0u32..2, 0u64..20).prop_map(|(use_rmat, size, seed)| {
        if use_rmat {
            rmat(&RmatConfig::graph500(7 + size), seed)
        } else {
            let n = 150 + 200 * size as usize;
            let degs = powerlaw_degrees(n, 2.2, 1, n / 4, seed);
            chung_lu(&degs, 4 * n, 0, 0.0, seed ^ 0x5EED)
        }
    })
}

proptest! {
    // Each case runs up to eight full multilevel partitioner calls, so
    // keep the case count modest; the k × threads × ncon grid inside each
    // case does the real sweeping.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// parallel == sequential for every k in {2,4,16,64}, every thread
    /// count in {1,2,4,8}, single-constraint and multiconstraint.
    #[test]
    fn gp_parallel_matches_sequential(
        a in scale_free_matrix(),
        k_idx in 0usize..4,
        seed in 0u64..1000,
        multiconstraint in proptest::bool::ANY,
    ) {
        let k = [2usize, 4, 16, 64][k_idx];
        let g = Graph::from_symmetric_matrix(&a);
        let run = |threads: usize| {
            let cfg = GpConfig { seed, threads, ..GpConfig::default() };
            if multiconstraint {
                partition_graph_multiconstraint(&g, k, &cfg)
            } else {
                partition_graph(&g, k, &cfg)
            }
        };
        let seq = run(1);
        prop_assert!(seq.part.iter().all(|&x| (x as usize) < k));
        for threads in [2usize, 4, 8] {
            let par = run(threads);
            prop_assert_eq!(
                &par.part, &seq.part,
                "threads {} diverged (k {}, ncon {})",
                threads, k, if multiconstraint { 2 } else { 1 }
            );
        }
    }

    /// Observability is behavior-free: the part vector with the tracing
    /// facade enabled (which also switches on the worker pool's
    /// per-worker span emission) is byte-identical to the untraced run,
    /// for sequential and parallel thread budgets alike.
    #[test]
    fn tracing_on_vs_off_is_byte_identical(
        a in scale_free_matrix(),
        k_idx in 0usize..4,
        seed in 0u64..1000,
        multiconstraint in proptest::bool::ANY,
    ) {
        let k = [2usize, 4, 16, 64][k_idx];
        let g = Graph::from_symmetric_matrix(&a);
        for threads in [1usize, 4] {
            let cfg = GpConfig { seed, threads, ..GpConfig::default() };
            let run = || if multiconstraint {
                partition_graph_multiconstraint(&g, k, &cfg)
            } else {
                partition_graph(&g, k, &cfg)
            };
            let plain = run();
            sf2d_obs::enable();
            let traced = run();
            sf2d_obs::disable();
            // Drain the thread-local buffers so cases stay hermetic.
            let events = sf2d_obs::take_events();
            let _ = sf2d_obs::take_registry();
            prop_assert!(!events.is_empty(), "traced run recorded nothing");
            prop_assert_eq!(
                &traced.part, &plain.part,
                "tracing changed the partition (threads {}, k {})", threads, k
            );
        }
    }

    /// The work counters are part of the contract too — the coarsest-graph
    /// sizes and the stall count included, which are what say from emitted
    /// data how much of a call was the sequential initial partition.
    #[test]
    fn gp_stats_match_sequential(
        a in scale_free_matrix(),
        k_idx in 0usize..4,
        seed in 0u64..1000,
        multiconstraint in proptest::bool::ANY,
    ) {
        let k = [2usize, 4, 16, 64][k_idx];
        let g = Graph::from_symmetric_matrix(&a);
        let run = |threads: usize| {
            let cfg = GpConfig { seed, threads, ..GpConfig::default() };
            if multiconstraint {
                partition_graph_multiconstraint_report(&g, k, &cfg).stats
            } else {
                partition_graph_report(&g, k, &cfg).stats
            }
        };
        let seq = run(1);
        prop_assert!(seq.stalled_bisections <= seq.bisections, "{:?}", seq);
        prop_assert!(seq.coarsest_vertices >= seq.bisections, "{:?}", seq);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(run(threads), seq, "threads {} diverged (k {})", threads, k);
        }
    }

    /// The nonzero-level Mondriaan partitioner honours the same contract.
    #[test]
    fn mondriaan_parallel_matches_sequential(
        a in scale_free_matrix(),
        p_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let p = [2usize, 8, 16][p_idx];
        let run = |threads: usize| {
            let cfg = MondriaanConfig { seed, threads, ..MondriaanConfig::default() };
            mondriaan(&a, p, &cfg)
        };
        let seq = run(1);
        for threads in [2usize, 4, 8] {
            let par = run(threads);
            prop_assert_eq!(par.owners(), seq.owners(), "threads {} diverged (p {})", threads, p);
        }
    }
}
