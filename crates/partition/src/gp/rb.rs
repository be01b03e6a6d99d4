//! Recursive bisection driver: multilevel bisect, split, recurse.
//!
//! The two children of every bisection are independent: they partition
//! disjoint vertex-induced subgraphs and write disjoint entries of the
//! output part vector. They therefore run as fork-join tasks on scoped
//! threads (`sf2d_par::join`), with the thread budget split between them
//! proportionally to subgraph size.
//!
//! **Determinism:** every subtree's RNG stream is derived from its tree
//! path, not from any shared mutable state — the root bisection uses salt
//! 1 and the children of salt `s` use `2s` and `2s + 1`, hashed into the
//! seed as `cfg.seed ^ salt * 0x9E3779B97F4A7C15` (see
//! [`multilevel_bisect`]). Combined with the order-independent parallel
//! loops inside one level (coarsening scatter, FM initialization,
//! projection), the part vector is byte-identical to the sequential
//! execution for any thread count and any schedule; this is
//! property-tested in `tests/parallel_identity.rs`.

use std::time::Instant;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sf2d_obs::PhaseKind;
use sf2d_par::{BatchTag, Par, Pool, PoolStats, SharedSlice};

use super::coarsen::contract;
use super::initpart::gggp;
use super::matching::{heavy_edge_matching, matched_fraction, UNMATCHED};
use super::refine::fm_refine;
use super::tune::{GP_FORK_CUTOFF, VERTEX_GRAIN};
use super::work::{WorkGraph, MAX_CON};
use super::GpConfig;
use crate::types::Partition;

/// Per-phase wall time, in nanoseconds, accumulated across every level of
/// every bisection in a (sub)tree. Kept **separate** from [`GpStats`]:
/// stats are part of the determinism contract (equality-checked in tests),
/// timings are not. When sibling subtrees run concurrently their phase
/// times overlap on the clock, so sums are closer to CPU time than elapsed
/// time — which is exactly the right denominator for attributing where a
/// thread budget goes.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseNanos {
    /// Heavy-edge matching rounds.
    pub matching: u64,
    /// Coarse-graph contraction.
    pub contract: u64,
    /// Coarsest-level GGGP (+ its first FM polish).
    pub initpart: u64,
    /// FM refinement during uncoarsening.
    pub refine: u64,
    /// Projection of the side vector through `cmap`.
    pub project: u64,
}

impl PhaseNanos {
    /// Accumulates another subtree's timings.
    pub fn absorb(&mut self, o: PhaseNanos) {
        self.matching += o.matching;
        self.contract += o.contract;
        self.initpart += o.initpart;
        self.refine += o.refine;
        self.project += o.project;
    }

    /// Sum over all attributed phases.
    pub fn total(&self) -> u64 {
        self.matching + self.contract + self.initpart + self.refine + self.project
    }
}

/// Aggregated work counters from a (sub)tree of recursive bisections,
/// merged deterministically (left child before right) on the
/// orchestrating thread — worker threads never touch the thread-local
/// tracer, so stats travel back through return values instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GpStats {
    /// Multilevel bisections performed (internal tree nodes).
    pub bisections: u64,
    /// Total coarsening levels built across all bisections.
    pub coarsen_levels: u64,
    /// Vertices matched (i.e. in a pair), summed over all matchings.
    pub matched_vertices: u64,
    /// Vertices offered to the matcher, summed over all matchings.
    pub matchable_vertices: u64,
    /// FM moves kept across all refinement passes.
    pub fm_moves: u64,
    /// Coarsest-graph vertices (the initial partition's input), summed.
    pub coarsest_vertices: u64,
    /// Bisections whose coarsening stalled above `coarsen_to`.
    pub stalled_bisections: u64,
}

impl GpStats {
    /// Accumulates another subtree's counters.
    pub fn absorb(&mut self, o: GpStats) {
        self.bisections += o.bisections;
        self.coarsen_levels += o.coarsen_levels;
        self.matched_vertices += o.matched_vertices;
        self.matchable_vertices += o.matchable_vertices;
        self.fm_moves += o.fm_moves;
        self.coarsest_vertices += o.coarsest_vertices;
        self.stalled_bisections += o.stalled_bisections;
    }

    /// Fraction of offered vertices the matcher paired, in [0, 1].
    pub fn match_rate(&self) -> f64 {
        if self.matchable_vertices == 0 {
            0.0
        } else {
            self.matched_vertices as f64 / self.matchable_vertices as f64
        }
    }
}

/// Partitions `wg` into `k` parts by recursive multilevel bisection.
pub fn recursive_bisection(wg: &WorkGraph, k: usize, cfg: &GpConfig) -> Partition {
    recursive_bisection_report(wg, k, cfg).0
}

/// As [`recursive_bisection`], also returning the aggregated work
/// counters (for `sf2d-obs` reporting by the caller).
pub fn recursive_bisection_with_stats(
    wg: &WorkGraph,
    k: usize,
    cfg: &GpConfig,
) -> (Partition, GpStats) {
    let (p, s, _, _) = recursive_bisection_report(wg, k, cfg);
    (p, s)
}

/// As [`recursive_bisection_with_stats`], also returning per-phase wall
/// time attribution and, when a worker pool ran, its [`PoolStats`]
/// snapshot. One worker [`Pool`] is created here and reused by every
/// chunked loop of every level of every bisection — pool workers park
/// between batches instead of being respawned per loop, which is where
/// the pre-pool implementation lost its speedup.
///
/// When the thread-local tracer is enabled (`sf2d_obs::enabled()`), pool
/// tracing is switched on for the recursion with the orchestrator's clock
/// as the base, and the per-worker batch spans are merged into the
/// thread-local event stream at quiescence — one `SF2D_TRACE` run then
/// shows both the phase spans and the per-worker pool tracks.
pub fn recursive_bisection_report(
    wg: &WorkGraph,
    k: usize,
    cfg: &GpConfig,
) -> (Partition, GpStats, PhaseNanos, Option<PoolStats>) {
    assert!(k >= 1);
    let threads = sf2d_par::resolve_threads(cfg.threads);
    let nv = wg.nv();
    let mut part = vec![0u32; nv];
    let mut stats = GpStats::default();
    let mut phases = PhaseNanos::default();
    let mut pool_stats = None;
    if k > 1 {
        let pool = (threads > 1).then(|| Pool::new(threads));
        if let Some(p) = &pool {
            if sf2d_obs::enabled() {
                p.enable_tracing(sf2d_obs::wall_now());
            }
        }
        let par = Par::new(threads, pool.as_ref());
        let ids: Vec<u32> = (0..nv as u32).collect();
        let out = SharedSlice::new(&mut part);
        (stats, phases) = rec(wg, &ids, k, 0, cfg, &out, 1, &par);
        if let Some(p) = &pool {
            if sf2d_obs::enabled() {
                p.disable_tracing();
                sf2d_obs::record_all(p.drain_trace_events());
            }
            pool_stats = Some(p.stats());
        }
    }
    (Partition::new(part, k), stats, phases, pool_stats)
}

/// Recursive worker. Writes `out[map[local]] = part id` for every local
/// vertex; sibling calls receive disjoint `map`s, which is the
/// [`SharedSlice`] disjointness contract.
#[allow(clippy::too_many_arguments)]
fn rec(
    wg: &WorkGraph,
    map: &[u32],
    k: usize,
    offset: u32,
    cfg: &GpConfig,
    out: &SharedSlice<u32>,
    depth_seed: u64,
    par: &Par,
) -> (GpStats, PhaseNanos) {
    if k == 1 {
        for &orig in map {
            // SAFETY: `map` entries are disjoint across sibling subtrees.
            unsafe { out.write(orig as usize, offset) };
        }
        return (GpStats::default(), PhaseNanos::default());
    }
    let k1 = k / 2;
    let k2 = k - k1;
    let frac = k1 as f64 / k as f64;
    let (side, mut stats, mut phases) = multilevel_bisect(wg, frac, cfg, depth_seed, par);
    stats.bisections += 1;

    let mut keep0: Vec<u32> = Vec::new();
    let mut keep1: Vec<u32> = Vec::new();
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            keep0.push(v as u32);
        } else {
            keep1.push(v as u32);
        }
    }

    // Recurse on the two vertex-induced subgraphs, translating local ids
    // back through `map`. Child tasks are independent (disjoint keeps ->
    // disjoint out writes) and carry path-derived salts, so running them
    // on sibling threads cannot change the result.
    let child = |keep: Vec<u32>, kk: usize, off: u32, salt: u64, p: Par| -> (GpStats, PhaseNanos) {
        if kk == 1 {
            for &local in &keep {
                // SAFETY: sibling keeps are disjoint subsets of `map`.
                unsafe { out.write(map[local as usize] as usize, off) };
            }
            (GpStats::default(), PhaseNanos::default())
        } else if keep.is_empty() {
            // Degenerate: a side lost every vertex (tiny graphs). Nothing to
            // assign; the empty parts simply stay empty.
            (GpStats::default(), PhaseNanos::default())
        } else {
            let (sub, submap) = wg.subgraph(&keep);
            let orig_map: Vec<u32> = submap.iter().map(|&l| map[l as usize]).collect();
            rec(&sub, &orig_map, kk, off, cfg, out, salt, &p)
        }
    };

    // With intra-bisection parallelism the loops inside one child already
    // use the whole budget, so forking is only worth its scoped-thread
    // spawn for genuinely large sibling pairs (see `tune::GP_FORK_CUTOFF`).
    // Both forked children keep the shared pool; their concurrent batch
    // submissions serialize inside `Pool::run`.
    let fork =
        par.threads() >= 2 && k1 > 1 && k2 > 1 && keep0.len().min(keep1.len()) >= GP_FORK_CUTOFF;
    let (p0, p1) = if fork {
        par.split(keep0.len(), keep1.len())
    } else {
        // Sequential children may each use the full budget for their own
        // inner loops and deeper forks.
        (*par, *par)
    };
    let off1 = offset + k1 as u32;
    let ((s0, ph0), (s1, ph1)) = sf2d_par::join(
        fork,
        || child(keep0, k1, offset, 2 * depth_seed, p0),
        || child(keep1, k2, off1, 2 * depth_seed + 1, p1),
    );
    stats.absorb(s0);
    stats.absorb(s1);
    phases.absorb(ph0);
    phases.absorb(ph1);
    (stats, phases)
}

/// One multilevel bisection: coarsen, GGGP, uncoarsen + FM. `salt` selects
/// the subtree's RNG stream (`cfg.seed ^ salt * φ64`); `par` bounds the
/// fan-out of the order-independent inner loops (matching rounds,
/// coarse-graph construction, FM initialization, the starting cut sum,
/// projection) — GGGP and the FM move loops stay sequential per subgraph.
pub fn multilevel_bisect(
    wg: &WorkGraph,
    frac: f64,
    cfg: &GpConfig,
    salt: u64,
    par: &Par,
) -> (Vec<u8>, GpStats, PhaseNanos) {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
    let mut stats = GpStats::default();
    let mut phases = PhaseNanos::default();

    // Tag every pool batch this bisection submits with the gp phase it
    // belongs to, so the per-worker trace tracks read "match"/"refine"/…
    // instead of an anonymous "batch". Tags ride on the `Par` handle and
    // cost nothing when tracing is off.
    let tag = |label: &'static str| {
        par.tagged(BatchTag {
            label,
            kind: PhaseKind::Partition,
        })
    };

    // Targets per side and constraint.
    let tot = wg.total_wgt();
    let mut targets = [[0.0f64; MAX_CON]; 2];
    for c in 0..wg.ncon {
        targets[0][c] = frac * tot[c] as f64;
        targets[1][c] = (1.0 - frac) * tot[c] as f64;
    }

    // Matching weight cap: no coarse vertex may exceed a modest fraction of
    // the smaller side's allowance, or balance becomes unreachable.
    let mut max_vwgt = [i64::MAX; MAX_CON];
    for c in 0..wg.ncon {
        let cap = (targets[0][c].min(targets[1][c]) / 4.0).max(1.0) as i64;
        max_vwgt[c] = cap;
    }

    // Coarsening. Graph 0 is `wg`, borrowed; `levels[i]` is the cmap from
    // graph `i` to graph `i + 1`, and graph `i + 1` itself.
    let mut levels: Vec<(Vec<u32>, WorkGraph)> = Vec::new();
    loop {
        let cur = levels.last().map_or(wg, |(_, g)| g);
        if cur.nv() <= cfg.coarsen_to {
            break;
        }
        let level = levels.len();
        // The matching salt is drawn from the subtree RNG, so every level
        // gets fresh tie-breaks (the determinism-preserving stand-in for
        // the old random visit order).
        let match_salt: u64 = rng.gen();
        let t = Instant::now();
        let mate = sf2d_obs::trace_span!(
            sf2d_obs::PhaseKind::Partition,
            &format!("gp:match:l{level}"),
            heavy_edge_matching(cur, &max_vwgt, match_salt, &tag("match"))
        );
        phases.matching += t.elapsed().as_nanos() as u64;
        stats.matchable_vertices += mate.len() as u64;
        stats.matched_vertices += mate.iter().filter(|&&m| m != UNMATCHED).count() as u64;
        if matched_fraction(&mate) < 0.1 {
            break; // coarsening stalled (e.g. star graphs with capped hubs)
        }
        let t = Instant::now();
        let (coarse, cmap) = sf2d_obs::trace_span!(
            sf2d_obs::PhaseKind::Partition,
            &format!("gp:contract:l{level}"),
            contract(cur, &mate, &tag("contract"))
        );
        phases.contract += t.elapsed().as_nanos() as u64;
        if coarse.nv() as f64 > 0.97 * cur.nv() as f64 {
            break;
        }
        levels.push((cmap, coarse));
    }
    stats.coarsen_levels += levels.len() as u64;
    let cur = levels.last().map_or(wg, |(_, g)| g);
    stats.coarsest_vertices += cur.nv() as u64;
    stats.stalled_bisections += u64::from(cur.nv() > cfg.coarsen_to);

    // Initial partition at the coarsest level.
    let t = Instant::now();
    let mut side = if cur.nv() == 0 {
        Vec::new()
    } else {
        gggp(cur, &targets, cfg.ub, cfg.init_tries, &mut rng)
    };
    let (_, moves) = fm_refine(
        cur,
        &mut side,
        &targets,
        cfg.ub,
        cfg.fm_passes,
        &tag("initpart"),
    );
    phases.initpart += t.elapsed().as_nanos() as u64;
    stats.fm_moves += moves as u64;

    // Uncoarsening with refinement at each level.
    while let Some((cmap, _coarser)) = levels.pop() {
        let finer = levels.last().map_or(wg, |(_, g)| g);
        let level = levels.len();
        // Projection is a pure per-vertex gather through cmap — parallel
        // fill is byte-identical to the sequential loop.
        let t = Instant::now();
        let mut fine_side = vec![0u8; finer.nv()];
        let side_ro: &[u8] = &side;
        tag("project").fill(&mut fine_side, VERTEX_GRAIN, |v| side_ro[cmap[v] as usize]);
        phases.project += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let (_, moves) = sf2d_obs::trace_span!(
            sf2d_obs::PhaseKind::Partition,
            &format!("gp:refine:l{level}"),
            fm_refine(
                finer,
                &mut fine_side,
                &targets,
                cfg.ub,
                cfg.fm_passes,
                &tag("refine")
            )
        );
        phases.refine += t.elapsed().as_nanos() as u64;
        stats.fm_moves += moves as u64;
        side = fine_side;
    }
    (side, stats, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::grid_2d;
    use sf2d_graph::Graph;

    #[test]
    fn all_vertices_assigned_in_range() {
        let g = Graph::from_symmetric_matrix(&grid_2d(16, 16));
        let wg = WorkGraph::from_graph(&g);
        for k in [2usize, 3, 5, 8] {
            let p = recursive_bisection(&wg, k, &GpConfig::default());
            assert_eq!(p.len(), 256);
            assert!(p.part.iter().all(|&x| (x as usize) < k));
            let counts = p.part_weights(&vec![1i64; 256]);
            assert!(counts.iter().all(|&c| c > 0), "k={k}: {counts:?}");
        }
    }

    #[test]
    fn bisect_balances_weighted_vertices() {
        // One heavy vertex (weight 50) + 50 light ones in a star.
        let mut edges = Vec::new();
        for leaf in 1..51u32 {
            edges.push((0, leaf));
        }
        let g = Graph::from_edges(51, &edges);
        let wg = WorkGraph::from_graph(&g);
        let (side, _, _) = multilevel_bisect(&wg, 0.5, &GpConfig::default(), 1, &Par::seq());
        let w = crate::gp::initpart::side_weights(&wg, &side);
        let tot = wg.total_wgt()[0] as f64;
        // Hub weight is half the total; a feasible bisection puts the hub
        // alone-ish on one side.
        assert!(
            w[0][0] as f64 > 0.25 * tot && (w[1][0] as f64) > 0.25 * tot,
            "{w:?}"
        );
    }

    #[test]
    fn multilevel_beats_no_refinement_grid_cut() {
        let g = Graph::from_symmetric_matrix(&grid_2d(32, 32));
        let wg = WorkGraph::from_graph(&g);
        let (side, stats, _) = multilevel_bisect(&wg, 0.5, &GpConfig::default(), 0, &Par::seq());
        let cut = crate::gp::initpart::cut_of(&wg, &side);
        // Optimal is 32; allow 3x.
        assert!(cut <= 96, "cut {cut}");
        // A 1024-vertex grid must coarsen several levels and match well.
        assert!(stats.coarsen_levels >= 2, "{stats:?}");
        assert!(stats.match_rate() > 0.5, "{stats:?}");
    }

    #[test]
    fn stall_counters_tell_a_stalled_coarsening_from_a_finished_one() {
        let cfg = GpConfig::default();
        // A 32x32 grid coarsens all the way down.
        let wg = WorkGraph::from_graph(&Graph::from_symmetric_matrix(&grid_2d(32, 32)));
        let (_, stats, _) = multilevel_bisect(&wg, 0.5, &cfg, 0, &Par::seq());
        assert_eq!(stats.stalled_bisections, 0, "{stats:?}");
        assert!(
            (1..=cfg.coarsen_to as u64).contains(&stats.coarsest_vertices),
            "{stats:?}"
        );
        // A 1000-leaf star: the weight cap keeps the hub single, the leaves
        // have nobody else, so matching stalls on the input graph itself.
        let edges: Vec<(u32, u32)> = (1..=1000u32).map(|leaf| (0, leaf)).collect();
        let wg = WorkGraph::from_graph(&Graph::from_edges(1001, &edges));
        let (_, stats, _) = multilevel_bisect(&wg, 0.5, &cfg, 0, &Par::seq());
        assert_eq!(
            (
                stats.stalled_bisections,
                stats.coarsest_vertices,
                stats.coarsen_levels
            ),
            (1, 1001, 0)
        );
    }

    #[test]
    fn tiny_graphs_do_not_crash() {
        for n in 1..6usize {
            let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32)
                .map(|i| (i, i + 1))
                .collect();
            let g = Graph::from_edges(n, &edges);
            let wg = WorkGraph::from_graph(&g);
            let p = recursive_bisection(&wg, 4, &GpConfig::default());
            assert_eq!(p.len(), n);
        }
    }

    #[test]
    fn explicit_thread_counts_agree_with_sequential() {
        // Direct rb-level identity check (the broad property test lives in
        // tests/parallel_identity.rs): an 80x80 grid is big enough that the
        // first split's sides (~3200 vertices) cross GP_FORK_CUTOFF with
        // k=8, so the forked path really runs.
        let g = Graph::from_symmetric_matrix(&grid_2d(80, 80));
        let wg = WorkGraph::from_graph(&g);
        let mut cfg = GpConfig {
            threads: 1,
            ..GpConfig::default()
        };
        let (seq, seq_stats) = recursive_bisection_with_stats(&wg, 8, &cfg);
        for threads in [2, 4, 8] {
            cfg.threads = threads;
            let (par, par_stats) = recursive_bisection_with_stats(&wg, 8, &cfg);
            assert_eq!(par.part, seq.part, "threads {threads}");
            assert_eq!(par_stats, seq_stats, "threads {threads}");
        }
    }
}
