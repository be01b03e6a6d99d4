//! Serial multilevel graph partitioning — the ParMETIS stand-in.
//!
//! Classic three-phase multilevel scheme (Karypis & Kumar), the algorithm
//! family behind the paper's 1D-GP / 2D-GP layouts:
//!
//! 1. **Coarsening** ([`matching`], [`coarsen`]) — heavy-edge matching
//!    contracts the graph until it is small;
//! 2. **Initial partitioning** ([`initpart`]) — greedy graph growing
//!    bisects the coarsest graph, best of several tries;
//! 3. **Uncoarsening** ([`refine`]) — the partition is projected back up
//!    and improved at every level with Fiduccia–Mattheyses boundary
//!    refinement.
//!
//! k-way partitions come from recursive bisection ([`rb`]). Vertex weights
//! carry up to two balance constraints: the paper's default balances
//! nonzeros (`ncon = 1`); the multiconstraint mode of §5.3 (`GP-MC`)
//! balances rows *and* nonzeros simultaneously (`ncon = 2`).

pub mod coarsen;
pub mod initpart;
pub mod kway;
pub mod matching;
pub mod rb;
pub mod refine;
pub mod tune;
pub mod work;

use sf2d_graph::Graph;
use sf2d_par::{BatchTag, Par, Pool, PoolStats};

use crate::types::Partition;
use rb::PhaseNanos;
use work::WorkGraph;

/// A partition together with its work counters, per-phase wall-time
/// attribution, and the worker-pool utilization snapshot — everything the
/// benchmark harness needs to explain where a thread budget went without
/// re-instrumenting the pipeline.
#[derive(Debug, Clone)]
pub struct GpReport {
    /// The k-way partition.
    pub partition: Partition,
    /// Aggregated work counters (deterministic; equal across thread counts).
    pub stats: rb::GpStats,
    /// Per-phase wall time (not deterministic; sums overlap under forks).
    pub phases: PhaseNanos,
    /// Utilization snapshot of the recursive-bisection worker pool:
    /// per-worker busy/idle/park time, jobs claimed, epoch-mismatch
    /// backoffs. `None` when the run was sequential (threads <= 1).
    pub pool: Option<PoolStats>,
}

/// Tuning knobs for the multilevel partitioner.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct GpConfig {
    /// RNG seed (matching order, initial-partition seeds).
    pub seed: u64,
    /// Allowed imbalance per bisection, e.g. 1.05 = 5% — compounds across
    /// recursive-bisection levels, so the k-way imbalance is larger (the
    /// achieved figure is reported via [`crate::metrics::PartitionQuality`]).
    pub ub: f64,
    /// Stop coarsening when at most this many vertices remain.
    pub coarsen_to: usize,
    /// Number of greedy-graph-growing attempts at the coarsest level.
    pub init_tries: usize,
    /// Maximum FM passes per uncoarsening level.
    pub fm_passes: usize,
    /// Scoped-thread budget for the parallel partitioner; `0` (the
    /// default) resolves the shared `SF2D_THREADS` environment variable at
    /// partition time. Any value produces a byte-identical part vector.
    pub threads: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            seed: 0,
            ub: 1.05,
            coarsen_to: 160,
            init_tries: 8,
            fm_passes: 6,
            threads: 0,
        }
    }
}

/// Shared entry-point body: recursive bisection + k-way polish, with
/// `sf2d-obs` spans, work counters, and achieved-quality reporting.
/// `tag` distinguishes the single-constraint (`gp`) and multiconstraint
/// (`gp-mc`) streams in traces.
fn partition_workgraph(wg: &WorkGraph, tag: &str, k: usize, cfg: &GpConfig) -> GpReport {
    let threads = sf2d_par::resolve_threads(cfg.threads);
    let (mut part, stats, phases, pool_stats) = sf2d_obs::trace_span!(
        sf2d_obs::PhaseKind::Partition,
        &format!("{tag}:recursive-bisection"),
        rb::recursive_bisection_report(wg, k, cfg)
    );
    // Direct k-way polish on the assembled partition: repairs the cut and
    // the imbalance that compound across recursive-bisection levels. Its
    // part-weight init reuses one short-lived pool (the rb pool is scoped
    // to the recursion); its batches are tagged "kway" so the per-worker
    // trace tracks distinguish polish work from the bisection phases.
    let kway_moves = {
        let pool = (threads > 1).then(|| Pool::new(threads));
        if let Some(p) = &pool {
            if sf2d_obs::enabled() {
                p.enable_tracing(sf2d_obs::wall_now());
            }
        }
        let par = Par::new(threads, pool.as_ref()).tagged(BatchTag {
            label: "kway",
            kind: sf2d_obs::PhaseKind::Partition,
        });
        let moves = sf2d_obs::trace_span!(
            sf2d_obs::PhaseKind::Partition,
            &format!("{tag}:kway-refine"),
            kway::kway_refine(wg, &mut part.part, k, cfg.ub.max(1.03), 4, cfg.seed, &par)
        );
        if let Some(p) = &pool {
            if sf2d_obs::enabled() {
                p.disable_tracing();
                sf2d_obs::record_all(p.drain_trace_events());
            }
        }
        moves
    };
    if sf2d_obs::enabled() {
        for (name, value) in [
            ("bisections", stats.bisections),
            ("coarsen_levels", stats.coarsen_levels),
            ("coarsest_vertices", stats.coarsest_vertices),
            ("stalled_bisections", stats.stalled_bisections),
            ("fm_moves", stats.fm_moves),
            ("kway_moves", kway_moves as u64),
        ] {
            sf2d_obs::counter!(&format!("partition.{tag}.{name}"), 0, value);
        }
        sf2d_obs::histogram!(
            &format!("partition.{tag}.match_rate_pct"),
            (stats.match_rate() * 100.0).round()
        );
        // Achieved k-way quality — the per-bisection `ub` is not the k-way
        // figure, so report what actually came out (satellite: imbalance
        // compounding must be observable, not hidden behind the knob).
        let q = quality_of(wg, &part, cfg.ub);
        for (c, imb) in q.imbalance.iter().enumerate() {
            sf2d_obs::histogram!(
                &format!("partition.{tag}.achieved_imbalance_c{c}_pct"),
                (imb * 100.0).round()
            );
        }
        sf2d_obs::histogram!(&format!("partition.{tag}.edge_cut"), q.edge_cut);
    }
    GpReport {
        partition: part,
        stats,
        phases,
        pool: pool_stats,
    }
}

/// Measures the achieved k-way quality of `part` on `wg`: per-constraint
/// max/avg imbalance and the weighted edge cut, against tolerance `ub`.
pub fn quality_of(wg: &WorkGraph, part: &Partition, ub: f64) -> crate::metrics::PartitionQuality {
    let nv = wg.nv();
    let weights: Vec<Vec<i64>> = (0..wg.ncon)
        .map(|c| (0..nv).map(|v| wg.vw(v, c)).collect())
        .collect();
    let mut cut2 = 0i64;
    for v in 0..nv {
        let (nbrs, wgts) = wg.neighbors(v);
        for (&u, &w) in nbrs.iter().zip(wgts) {
            if part.part[v] != part.part[u as usize] {
                cut2 += w;
            }
        }
    }
    crate::metrics::PartitionQuality::measure(part, &weights, cut2 / 2, ub)
}

/// Partitions a graph into `k` parts, balancing the graph's vertex weights
/// (by default the per-row nonzero counts — the paper's "we will always
/// balance the nonzeros").
pub fn partition_graph(g: &Graph, k: usize, cfg: &GpConfig) -> Partition {
    partition_graph_report(g, k, cfg).partition
}

/// As [`partition_graph`], also returning work counters and per-phase wall
/// times (for the benchmark harness's speedup attribution).
pub fn partition_graph_report(g: &Graph, k: usize, cfg: &GpConfig) -> GpReport {
    let wg = WorkGraph::from_graph(g);
    partition_workgraph(&wg, "gp", k, cfg)
}

/// Multiconstraint variant (the paper's GP-MC): balances both a unit
/// weight per row (vector work) and the nonzero count (SpMV work), as done
/// with ParMETIS' multiconstraint partitioner in §5.3.
pub fn partition_graph_multiconstraint(g: &Graph, k: usize, cfg: &GpConfig) -> Partition {
    partition_graph_multiconstraint_report(g, k, cfg).partition
}

/// As [`partition_graph_multiconstraint`], with counters and phase times.
pub fn partition_graph_multiconstraint_report(g: &Graph, k: usize, cfg: &GpConfig) -> GpReport {
    let wg = WorkGraph::from_graph_mc(g);
    partition_workgraph(&wg, "gp-mc", k, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::Graph;

    #[test]
    fn partitions_a_grid_with_low_cut() {
        let a = grid_2d(24, 24);
        let g = Graph::from_symmetric_matrix(&a);
        let p = partition_graph(&g, 4, &GpConfig::default());
        assert_eq!(p.k, 4);
        assert_eq!(p.len(), 576);
        // All parts used.
        let w = p.part_weights(&vec![1i64; 576]);
        assert!(w.iter().all(|&x| x > 0), "{w:?}");
        // A good 4-way cut of a 24x24 grid is ~2*24=48 edges; random would
        // cut ~3/4 of all 1104 edges. Accept anything below 4x optimal.
        assert!(p.edge_cut(&g) <= 200.0, "cut {}", p.edge_cut(&g));
        // Balanced in nnz weight.
        assert!(
            p.imbalance(&g.vwgt) < 1.25,
            "imbalance {}",
            p.imbalance(&g.vwgt)
        );
    }

    #[test]
    fn beats_random_on_scale_free_graphs() {
        // The paper's observation: even on scale-free graphs, GP finds
        // structure. Compare cut vs a random balanced partition.
        let a = rmat(&RmatConfig::graph500(10), 3);
        let g = Graph::from_symmetric_matrix(&a);
        let p = partition_graph(&g, 8, &GpConfig::default());
        let rand_part = crate::dist::MatrixDist::random_1d(g.nv(), 8, 1);
        let rp = Partition::new(rand_part.rpart().to_vec(), 8);
        assert!(
            p.comm_volume(&g) < rp.comm_volume(&g),
            "gp volume {} not below random volume {}",
            p.comm_volume(&g),
            rp.comm_volume(&g)
        );
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let a = grid_2d(4, 4);
        let g = Graph::from_symmetric_matrix(&a);
        let p = partition_graph(&g, 1, &GpConfig::default());
        assert!(p.part.iter().all(|&x| x == 0));
    }

    #[test]
    fn non_power_of_two_parts() {
        let a = grid_2d(20, 20);
        let g = Graph::from_symmetric_matrix(&a);
        let p = partition_graph(&g, 6, &GpConfig::default());
        assert_eq!(p.k, 6);
        let w = p.part_weights(&g.vwgt);
        assert!(w.iter().all(|&x| x > 0), "{w:?}");
        assert!(
            p.imbalance(&g.vwgt) < 1.35,
            "imbalance {}",
            p.imbalance(&g.vwgt)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = rmat(&RmatConfig::graph500(8), 5);
        let g = Graph::from_symmetric_matrix(&a);
        let cfg = GpConfig::default();
        assert_eq!(
            partition_graph(&g, 4, &cfg).part,
            partition_graph(&g, 4, &cfg).part
        );
    }

    #[test]
    fn multiconstraint_balances_rows_and_nnz() {
        let a = rmat(&RmatConfig::graph500(10), 7);
        let g = Graph::from_symmetric_matrix(&a);
        let p = partition_graph_multiconstraint(&g, 8, &GpConfig::default());
        let rows: Vec<i64> = vec![1; g.nv()];
        let row_imb = p.imbalance(&rows);
        let nnz_imb = p.imbalance(&g.vwgt);
        assert!(row_imb < 1.5, "row imbalance {row_imb}");
        assert!(nnz_imb < 1.8, "nnz imbalance {nnz_imb}");
    }

    #[test]
    fn single_constraint_can_leave_rows_unbalanced_on_skewed_graphs() {
        // Sanity check that MC is actually doing something: a star graph
        // has one hub with huge nnz weight; single-constraint nnz balancing
        // piles many leaves opposite the hub, skewing row counts.
        let mut edges = Vec::new();
        for leaf in 1..1000u32 {
            edges.push((0u32, leaf));
        }
        let g = Graph::from_edges(1000, &edges);
        let p1 = partition_graph(&g, 2, &GpConfig::default());
        let pm = partition_graph_multiconstraint(&g, 2, &GpConfig::default());
        let rows = vec![1i64; 1000];
        assert!(
            pm.imbalance(&rows) <= p1.imbalance(&rows) + 1e-9,
            "mc rows {} vs sc rows {}",
            pm.imbalance(&rows),
            p1.imbalance(&rows)
        );
        assert!(
            pm.imbalance(&rows) < 1.3,
            "mc row imbalance {}",
            pm.imbalance(&rows)
        );
    }
}
