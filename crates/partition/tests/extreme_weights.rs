//! Edge values a Matrix Market or METIS file can carry — `Inf`, `1e300`,
//! NaN — reach the partitioner as integer edge weights. Each must convert
//! to a weight whose sums cannot overflow (tests build with debug
//! overflow checks, so an overflow panics here), and the partition must
//! still not depend on the thread count.

use sf2d_gen::{rmat, RmatConfig};
use sf2d_graph::{CooMatrix, CsrMatrix, Graph};
use sf2d_partition::{partition_graph, partition_graph_multiconstraint, GpConfig};

/// An R-MAT pattern whose edges carry, in turn, `Inf`, `1e300`, NaN and
/// an ordinary weight (the same value in both directions).
fn extreme_graph() -> Graph {
    let a = rmat(&RmatConfig::graph500(8), 3);
    let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for (k, (i, j, _)) in a.iter().filter(|&(i, j, _)| i < j).enumerate() {
        coo.push_sym(i, j, [f64::INFINITY, 1e300, f64::NAN, 3.0][k % 4]);
    }
    Graph::from_symmetric_matrix(&CsrMatrix::from_coo(&coo))
}

#[test]
fn extreme_edge_values_partition_without_overflow_at_any_thread_count() {
    let g = extreme_graph();
    for k in [2usize, 16] {
        for multiconstraint in [false, true] {
            let run = |threads: usize| {
                let cfg = GpConfig {
                    threads,
                    ..GpConfig::default()
                };
                if multiconstraint {
                    partition_graph_multiconstraint(&g, k, &cfg).part
                } else {
                    partition_graph(&g, k, &cfg).part
                }
            };
            let seq = run(1);
            assert!(seq.iter().all(|&part| (part as usize) < k), "k {k}");
            for threads in [2usize, 4] {
                assert_eq!(run(threads), seq, "k {k}, threads {threads}");
            }
        }
    }
}
