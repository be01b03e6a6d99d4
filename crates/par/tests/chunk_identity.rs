//! Property tests for the chunked helpers' determinism contract, swept
//! over **both** axes that could reorder work: the thread count *and* the
//! chunk shape (grain / alignment). The partitioner's byte-identity
//! guarantee rests on these primitives being bit-identical to the
//! sequential loop no matter how the index space was diced.

use proptest::prelude::*;
use sf2d_par::{chunk_ranges_aligned, tree_fold, Par, Pool};

/// A mixing function whose value depends on the index in a way that makes
/// any misrouted index visible.
fn mix(i: usize, salt: u64) -> u64 {
    (i as u64 ^ salt)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .rotate_left(17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Par::fill` is byte-identical to the sequential loop for every
    /// (threads, grain) combination — grain changes the chunk count,
    /// threads change the schedule, neither may change the bytes.
    #[test]
    fn fill_identical_across_threads_and_grains(
        len in 0usize..3000,
        salt in 0u64..u64::MAX,
        grain in 1usize..2048,
        threads in 1usize..9,
    ) {
        let mut expect = vec![0u64; len];
        Par::seq().fill(&mut expect, 1, |i| mix(i, salt));
        let pool = Pool::new(threads);
        let mut got = vec![0u64; len];
        Par::new(threads, Some(&pool)).fill(&mut got, grain, |i| mix(i, salt));
        prop_assert_eq!(got, expect);
    }

    /// Chunk-order merges of `map_chunks` reproduce the sequential
    /// concatenation for any chunk shape.
    #[test]
    fn map_chunks_merge_identical(
        len in 0usize..3000,
        salt in 0u64..u64::MAX,
        grain in 1usize..2048,
        threads in 1usize..9,
    ) {
        let expect: Vec<u64> = (0..len).map(|i| mix(i, salt)).collect();
        let pool = Pool::new(threads);
        let got: Vec<u64> = Par::new(threads, Some(&pool))
            .map_chunks(len, grain, |_, r| r.map(|i| mix(i, salt)).collect::<Vec<u64>>())
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// Chunked exact-integer reductions (the fixed-shape tree fold) equal
    /// the sequential sum for any chunk shape and thread count.
    #[test]
    fn reduce_identical_across_chunkings(
        len in 0usize..3000,
        salt in 0u64..u64::MAX,
        grain in 1usize..2048,
        threads in 1usize..9,
    ) {
        let expect = (0..len).fold(0u64, |a, i| a.wrapping_add(mix(i, salt)));
        let pool = Pool::new(threads);
        let got = Par::new(threads, Some(&pool))
            .reduce(
                len,
                grain,
                |_, r| r.fold(0u64, |a, i| a.wrapping_add(mix(i, salt))),
                u64::wrapping_add,
            )
            .unwrap_or(0);
        prop_assert_eq!(got, expect);
    }

    /// Observability must be free of behavioral effect: running the same
    /// fill with pool tracing enabled produces byte-identical output, and
    /// the spans it emits account for every chunk that ran on the pool.
    #[test]
    fn fill_identical_with_pool_tracing_enabled(
        len in 0usize..3000,
        salt in 0u64..u64::MAX,
        grain in 1usize..2048,
        threads in 1usize..9,
    ) {
        let mut expect = vec![0u64; len];
        Par::seq().fill(&mut expect, 1, |i| mix(i, salt));
        let pool = Pool::new(threads);
        pool.enable_tracing(0.0);
        let mut got = vec![0u64; len];
        Par::new(threads, Some(&pool)).fill(&mut got, grain, |i| mix(i, salt));
        pool.disable_tracing();
        let events = pool.drain_trace_events();
        prop_assert_eq!(got, expect);
        // Whatever ran through the pool is attributed to a worker span.
        let total_jobs = pool.stats().total_jobs;
        let span_jobs: u64 = events
            .iter()
            .map(|e| match e {
                sf2d_obs::TraceEvent::WorkerSpan { jobs, .. } => *jobs,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(span_jobs, total_jobs);
    }

    /// The aligned chunk shape is a pure function of (parts, len): ranges
    /// tile `0..len` exactly, boundaries are aligned, and the shape never
    /// depends on anything else.
    #[test]
    fn aligned_ranges_tile_exactly(parts in 1usize..64, len in 0usize..10_000, align in 1usize..256) {
        let ranges = chunk_ranges_aligned(parts, len, align);
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            if r.end != len {
                prop_assert_eq!(r.end % align, 0);
            }
            next = r.end;
        }
        prop_assert_eq!(next, len);
        prop_assert!(ranges.len() <= parts);
    }

    /// tree_fold of an associative op equals the linear fold regardless of
    /// how many leaves the chunking produced.
    #[test]
    fn tree_fold_matches_linear(
        raw in proptest::collection::vec(0i64..8_000_000_000_000, 0..200),
    ) {
        // Center on zero so both signs are exercised.
        let items: Vec<i64> = raw.iter().map(|&v| v - 4_000_000_000_000).collect();
        let linear = items.iter().fold(0i64, |a, &b| a.wrapping_add(b));
        let tree = tree_fold(items, i64::wrapping_add).unwrap_or(0);
        prop_assert_eq!(tree, linear);
    }
}
