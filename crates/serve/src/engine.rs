//! The resident serving engine.
//!
//! [`Engine`] owns one dynamic symmetric matrix, its current layout, and
//! every piece of compiled/pooled state the one-shot binaries rebuild per
//! run: the [`DistCsrMatrix`] (whose `CompiledSpmv` plans are the
//! expensive part), a budgetable [`SpmvWorkspace`], and the
//! [`SpgemmWorkspace`]/[`SummaWorkspace`] pair for repeated multiplies.
//!
//! ## Epochs and the resident plan
//!
//! The engine state is versioned by a monotonic **epoch**: every
//! effective edge insert/delete bumps it, and a repartition (drift-
//! triggered or forced) bumps it again. One plan is resident, stamped
//! with the epoch it reflects. A mutation only records its entry deltas;
//! the first batch that finds the plan behind brings it up to date with
//! [`DistCsrMatrix::apply_delta`] — in place, at a cost proportional to
//! the ranks the deltas dirty (two for an edge), folding every mutation
//! since the last batch into one application. The patched plan is
//! equal (`==`) to a from-scratch `FillComplete` of the mutated
//! matrix, so replies and the ledger cannot tell the difference. Only
//! construction and repartition run the full `FillComplete`. The plan
//! lives behind an `Arc` and is patched through `Arc::make_mut`: a
//! holder of the old `Arc` keeps its generation, and the swap to a new
//! one is a single `Arc` store.
//!
//! ## Batching
//!
//! [`Engine::submit`] only queues; [`Engine::flush`] coalesces the queue
//! into SpMM batches of at most `max_batch` columns — one expand gather
//! per batch instead of one per query (PR 1 made spmm a single strided
//! gather; batching is the multiplier). Per-column results are bitwise
//! equal to a one-shot [`sf2d_spmv::spmv`] of that query, because SpMM
//! *is* column-wise SpMV down to the per-element fold order.
//!
//! ## Mutations are epoch barriers
//!
//! A queued query always answers against the engine state at the moment
//! it executes. To keep that moment well-defined, every mutating call
//! first drains the pending queue against the *current* epoch (replies
//! park in an internal buffer until the next `flush`), then applies the
//! change. The differential and property suites in
//! `tests/tests/serve_{differential,property}.rs` pin all of this
//! bitwise against from-scratch oracles.

use std::collections::BTreeMap;
use std::sync::Arc;

use sf2d_core::{LayoutBuilder, Method};
use sf2d_graph::CsrMatrix;
use sf2d_par::Pool;
use sf2d_partition::MatrixDist;
use sf2d_sim::{ChaosRuntime, CostLedger, Machine, Phase, PhaseCost};
use sf2d_spgemm::{
    spgemm_with, summa_with, DistSpgemm, SpgemmWorkspace, SummaSpgemm, SummaWorkspace,
};
use sf2d_spmv::{
    spmm_chaos_with, spmm_with, DistCsrMatrix, DistMultiVector, EntryDelta, SpmvWorkspace,
};

use crate::metrics::EngineMetrics;

/// Engine construction knobs. `method`/`p`/`seed` fix the layout
/// deterministically — two engines with equal config and equal mutation
/// history hold bitwise-equal state.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Partitioning method for the resident layout.
    pub method: Method,
    /// Rank count.
    pub p: usize,
    /// Seed for every layout decision (random layouts, gp tie-breaks).
    pub seed: u64,
    /// OS threads for kernels, plan compiles (via an `sf2d-par` pool),
    /// and chaos routing. Bit-identical for any value.
    pub threads: usize,
    /// Maximum SpMM width a flush coalesces into one batch.
    pub max_batch: usize,
    /// Repartition when `max/avg` per-rank nonzeros exceeds this.
    pub drift_threshold: f64,
    /// Whether drift may trigger a repartition on its own (only
    /// meaningful for partitioned methods — block/random layouts don't
    /// depend on the matrix, so re-deriving them cannot fix drift).
    pub auto_repartition: bool,
    /// Optional live-memory budget for the SpMM workspace
    /// ([`SpmvWorkspace::with_budget`] semantics: wave-scheduled,
    /// bit-identical).
    pub scratch_budget: Option<u64>,
    /// Cost model for the engine's ledger.
    pub machine: Machine,
}

impl EngineConfig {
    /// Defaults: seed 0, single-threaded, batches of 16, drift threshold
    /// 1.5, auto-repartition on, unbudgeted, cab cost model.
    pub fn new(method: Method, p: usize) -> EngineConfig {
        EngineConfig {
            method,
            p,
            seed: 0,
            threads: 1,
            max_batch: 16,
            drift_threshold: 1.5,
            auto_repartition: true,
            scratch_budget: None,
            machine: Machine::cab(),
        }
    }

    /// Sets the layout seed.
    pub fn with_seed(mut self, seed: u64) -> EngineConfig {
        self.seed = seed;
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Sets the maximum batch width.
    pub fn with_max_batch(mut self, max_batch: usize) -> EngineConfig {
        self.max_batch = max_batch;
        self
    }

    /// Sets the drift threshold.
    pub fn with_drift_threshold(mut self, t: f64) -> EngineConfig {
        self.drift_threshold = t;
        self
    }

    /// Enables/disables drift-triggered repartitioning.
    pub fn with_auto_repartition(mut self, on: bool) -> EngineConfig {
        self.auto_repartition = on;
        self
    }

    /// Sets the workspace live-memory budget.
    pub fn with_budget(mut self, bytes: u64) -> EngineConfig {
        self.scratch_budget = Some(bytes);
        self
    }
}

/// One answered query: the submitted id and the global result vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// Ticket returned by [`Engine::submit`].
    pub id: u64,
    /// `y = A x` assembled to global indexing.
    pub y: Vec<f64>,
}

/// One plan generation: the swap unit. Holding the `Arc` keeps a batch's
/// matrix alive and unchanged even if the engine moves on mid-flight.
#[derive(Clone)]
struct EnginePlan {
    /// The epoch `matrix` reflects.
    epoch: u64,
    matrix: DistCsrMatrix,
}

/// A resident, batch-coalescing SpMM frontend over one
/// dynamic graph. See the [module docs](self) for the contract.
pub struct Engine {
    cfg: EngineConfig,
    n: usize,
    /// Both orientations of every nonzero, row-major ordered — the
    /// canonical dynamic state. `BTreeMap` iteration order makes the
    /// CSR rebuild deterministic.
    edges: BTreeMap<(u32, u32), f64>,
    epoch: u64,
    /// Current layout; replaced (and the epoch bumped) on repartition.
    dist: Arc<MatrixDist>,
    /// The plan serving batches — patched in place while this is the
    /// only `Arc`, swapped by a single `Arc` store otherwise.
    active: Arc<EnginePlan>,
    /// Entry changes since `active.epoch`, coalesced by entry: only the
    /// last change to `(i, j)` is kept — the one `apply_delta` would let
    /// win — so mutations with no query in between cannot grow this
    /// beyond the distinct entries they touch.
    pending: BTreeMap<(u32, u32), Option<f64>>,
    pool: Option<Pool>,
    ws: SpmvWorkspace,
    spgemm_ws: SpgemmWorkspace,
    summa_ws: SummaWorkspace,
    /// Pending `(id, x)` queries, submission-ordered.
    queue: Vec<(u64, Vec<f64>)>,
    /// Computed replies awaiting the next `flush`.
    ready: Vec<ServeReply>,
    next_id: u64,
    /// Crash-epoch counter for chaos-mode batches.
    chaos_batches: u64,
    /// Per-rank nonzero counts under `dist`, maintained in O(1) per
    /// mutation — the drift signal.
    nnz_per_rank: Vec<u64>,
    /// The imbalance `dist` had when it was derived: a layout that is
    /// born above the drift threshold has not drifted.
    partition_imbalance: f64,
    /// Simulated cost of everything the engine has executed.
    pub ledger: CostLedger,
    /// Request-level counters and distributions.
    pub metrics: EngineMetrics,
}

impl Engine {
    /// Builds a warm engine: the layout is derived from `(a, seed)` via
    /// [`LayoutBuilder`] and the epoch-0 plan is compiled eagerly, so the
    /// first query finds a current plan.
    ///
    /// # Panics
    /// Panics if `a` is not square and structurally symmetric — the
    /// engine maintains symmetry under mutation, so it requires it at
    /// the start (symmetrize directed inputs first).
    pub fn new(a: &CsrMatrix, cfg: EngineConfig) -> Engine {
        assert!(cfg.p >= 1, "need at least one rank");
        assert!(cfg.max_batch >= 1, "need a positive batch width");
        assert_eq!(a.nrows(), a.ncols(), "serving requires a square matrix");
        assert!(
            a.is_structurally_symmetric(),
            "the engine maintains symmetric dynamic graphs; symmetrize first"
        );
        let n = a.nrows();
        let mut edges = BTreeMap::new();
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (j, v) in cols.iter().zip(vals) {
                edges.insert((i as u32, *j), *v);
            }
        }
        let dist = Arc::new(Self::build_dist(a, &cfg));
        let nnz_per_rank = Self::count_nnz(&edges, &dist);
        let pool = (cfg.threads > 1).then(|| Pool::new(cfg.threads));
        let matrix = DistCsrMatrix::from_global_with(a, &*dist, cfg.threads, pool.as_ref());
        let active = Arc::new(EnginePlan { epoch: 0, matrix });
        let mut ws = SpmvWorkspace::with_threads(cfg.threads);
        ws.set_budget(cfg.scratch_budget);
        let metrics = EngineMetrics {
            cache_misses: 1, // the warm-start compile
            full_compiles: 1,
            ..EngineMetrics::default()
        };
        let ledger = CostLedger::new(cfg.machine);
        Engine {
            n,
            edges,
            epoch: 0,
            dist,
            active,
            pending: BTreeMap::new(),
            pool,
            ws,
            spgemm_ws: SpgemmWorkspace::with_threads(cfg.threads),
            summa_ws: SummaWorkspace::with_threads(cfg.threads),
            queue: Vec::new(),
            ready: Vec::new(),
            next_id: 0,
            chaos_batches: 0,
            partition_imbalance: Self::imbalance_of(&nnz_per_rank),
            nnz_per_rank,
            ledger,
            metrics,
            cfg,
        }
    }

    fn build_dist(a: &CsrMatrix, cfg: &EngineConfig) -> MatrixDist {
        LayoutBuilder::new(a, cfg.seed).dist(cfg.method, cfg.p)
    }

    fn count_nnz(edges: &BTreeMap<(u32, u32), f64>, dist: &MatrixDist) -> Vec<u64> {
        let mut counts = vec![0u64; dist.nprocs()];
        for &(i, j) in edges.keys() {
            counts[dist.nonzero_owner(i, j) as usize] += 1;
        }
        counts
    }

    // -- queries ----------------------------------------------------------

    /// Queues `x` for the next flush and returns its reply ticket.
    ///
    /// # Panics
    /// Panics if `x` is not an `n`-vector.
    pub fn submit(&mut self, x: Vec<f64>) -> u64 {
        assert_eq!(x.len(), self.n, "query dimension mismatch");
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push((id, x));
        let depth = self.queue.len() as u64;
        self.metrics.queue_depth_peak = self.metrics.queue_depth_peak.max(depth);
        id
    }

    /// Coalesces the pending queue into SpMM batches of at most
    /// `max_batch` columns, executes them against the current epoch's
    /// plan, and returns every reply computed since the last flush
    /// (including replies parked by mutation barriers), in execution
    /// order.
    pub fn flush(&mut self) -> Vec<ServeReply> {
        self.drain_queue(None);
        std::mem::take(&mut self.ready)
    }

    /// [`Engine::flush`] with every batch's expand/fold exchange routed
    /// through the chaos wire, and crash-restart at batch granularity:
    /// when `rt` declares a crash for a batch (crash epochs number the
    /// chaos-mode batches 0, 1, …), the attempt's results are discarded
    /// before commit, a `Recovery` superstep bills each rank's re-read
    /// of its slice of the retained inputs, and the batch replays. The
    /// replies are bitwise equal to a fault-free flush in all cases.
    pub fn flush_chaos(&mut self, rt: &mut ChaosRuntime) -> Vec<ServeReply> {
        self.drain_queue(Some(rt));
        std::mem::take(&mut self.ready)
    }

    /// One-shot convenience for an idle engine: submit + flush + return
    /// the single answer.
    ///
    /// # Panics
    /// Panics (debug) if queries are already pending or replies unread —
    /// use [`Engine::submit`]/[`Engine::flush`] for streams.
    pub fn query(&mut self, x: &[f64]) -> Vec<f64> {
        debug_assert!(
            self.queue.is_empty() && self.ready.is_empty(),
            "query() on a busy engine would discard pending replies"
        );
        let id = self.submit(x.to_vec());
        let replies = self.flush();
        replies
            .into_iter()
            .find(|r| r.id == id)
            .expect("flush answers every queued query")
            .y
    }

    fn drain_queue(&mut self, mut chaos: Option<&mut ChaosRuntime>) {
        while !self.queue.is_empty() {
            let take = self.queue.len().min(self.cfg.max_batch);
            let batch: Vec<(u64, Vec<f64>)> = self.queue.drain(..take).collect();
            self.run_batch(batch, chaos.as_deref_mut());
        }
    }

    fn run_batch(&mut self, batch: Vec<(u64, Vec<f64>)>, chaos: Option<&mut ChaosRuntime>) {
        let plan = self.resolve_plan();
        let m = batch.len();
        self.metrics.batches += 1;
        self.metrics.queries += m as u64;
        self.metrics.batch_sizes.observe(m as u64);
        let vmap = Arc::clone(&plan.matrix.vmap);
        let (ids, cols): (Vec<u64>, Vec<Vec<f64>>) = batch.into_iter().unzip();
        let x = DistMultiVector::from_columns(Arc::clone(&vmap), &cols);
        let mut y = DistMultiVector::zeros(Arc::clone(&vmap), m);
        match chaos {
            None => spmm_with(&plan.matrix, &x, &mut y, &mut self.ledger, &mut self.ws),
            Some(rt) => {
                let seq = self.chaos_batches;
                self.chaos_batches += 1;
                spmm_chaos_with(&plan.matrix, &x, &mut y, &mut self.ledger, &mut self.ws, rt);
                if rt.take_crash(seq) {
                    // The attempt died before committing: the queue entry
                    // is the checkpoint. Bill each rank's restore read of
                    // its slice of the m retained input columns, replay.
                    let restore: Vec<PhaseCost> = (0..plan.matrix.nprocs())
                        .map(|r| PhaseCost::comm(1, (8 * m * vmap.nlocal(r)) as u64))
                        .collect();
                    self.ledger.superstep(Phase::Recovery, &restore);
                    self.metrics.crash_replays += 1;
                    y = DistMultiVector::zeros(Arc::clone(&vmap), m);
                    spmm_chaos_with(&plan.matrix, &x, &mut y, &mut self.ledger, &mut self.ws, rt);
                }
            }
        }
        for (c, &id) in ids.iter().enumerate() {
            self.ready.push(ServeReply {
                id,
                y: y.col_to_global(c),
            });
        }
    }

    /// The plan at the current epoch. A plan that is behind is brought
    /// up to date by applying the pending deltas — in place when this is
    /// the only `Arc`, on a private copy otherwise, so a batch still
    /// holding the old `Arc` finishes on its own generation. The returned
    /// `Arc` pins the plan for the caller the same way.
    fn resolve_plan(&mut self) -> Arc<EnginePlan> {
        if self.active.epoch == self.epoch {
            self.metrics.cache_hits += 1;
        } else {
            self.metrics.cache_misses += 1;
            let plan = Arc::make_mut(&mut self.active);
            let deltas: Vec<EntryDelta> = std::mem::take(&mut self.pending)
                .into_iter()
                .map(|((i, j), value)| EntryDelta { i, j, value })
                .collect();
            let report = plan.matrix.apply_delta(&*self.dist, &deltas);
            plan.epoch = self.epoch;
            self.metrics.plan_patches += 1;
            self.metrics.dirty_ranks.observe(report.dirty_ranks as u64);
        }
        Arc::clone(&self.active)
    }

    // -- mutations --------------------------------------------------------

    /// Sets the weight of edge `(i, j)` — and `(j, i)`, keeping the
    /// graph symmetric — inserting it if absent. Returns whether the
    /// matrix changed (an identical re-insert is a no-op and does *not*
    /// bump the epoch). An effective change first drains pending queries
    /// against the pre-mutation epoch, then bumps the epoch; the plan is
    /// patched lazily at the next batch.
    pub fn insert_edge(&mut self, i: u32, j: u32, w: f64) -> bool {
        self.check_vertex(i);
        self.check_vertex(j);
        let unchanged = self
            .edges
            .get(&(i, j))
            .is_some_and(|old| old.to_bits() == w.to_bits());
        if unchanged {
            return false;
        }
        self.drain_queue(None);
        for (u, v) in Self::orientations(i, j) {
            if self.edges.insert((u, v), w).is_none() {
                self.nnz_per_rank[self.dist.nonzero_owner(u, v) as usize] += 1;
            }
            self.pending.insert((u, v), Some(w));
        }
        self.bump_epoch();
        self.maybe_repartition();
        true
    }

    /// Removes edge `(i, j)` (both orientations). Returns whether it
    /// existed. Same barrier/epoch semantics as [`Engine::insert_edge`].
    pub fn remove_edge(&mut self, i: u32, j: u32) -> bool {
        self.check_vertex(i);
        self.check_vertex(j);
        if !self.edges.contains_key(&(i, j)) {
            return false;
        }
        self.drain_queue(None);
        for (u, v) in Self::orientations(i, j) {
            if self.edges.remove(&(u, v)).is_some() {
                self.nnz_per_rank[self.dist.nonzero_owner(u, v) as usize] -= 1;
            }
            self.pending.insert((u, v), None);
        }
        self.bump_epoch();
        self.maybe_repartition();
        true
    }

    /// Forces a repartition now: drains pending queries, re-derives the
    /// layout from the current matrix (deterministically, from the
    /// configured seed), starts a new epoch, runs the full `FillComplete`
    /// under the new layout (on the pool when threaded — the "background"
    /// compile), and swaps the new generation in atomically.
    pub fn repartition_now(&mut self) {
        self.drain_queue(None);
        let a = self.global_matrix();
        let dist = Arc::new(Self::build_dist(&a, &self.cfg));
        self.nnz_per_rank = Self::count_nnz(&self.edges, &dist);
        self.dist = dist;
        self.partition_imbalance = self.imbalance();
        self.bump_epoch();
        self.metrics.repartitions += 1;
        self.metrics.cache_misses += 1;
        self.metrics.full_compiles += 1;
        let matrix =
            DistCsrMatrix::from_global_with(&a, &*self.dist, self.cfg.threads, self.pool.as_ref());
        // The new generation is built from the edge map: it already
        // holds every pending delta.
        self.pending.clear();
        self.active = Arc::new(EnginePlan {
            epoch: self.epoch,
            matrix,
        });
    }

    fn orientations(i: u32, j: u32) -> Vec<(u32, u32)> {
        if i == j {
            vec![(i, j)]
        } else {
            vec![(i, j), (j, i)]
        }
    }

    fn check_vertex(&self, v: u32) {
        assert!(
            (v as usize) < self.n,
            "vertex {v} out of range (n = {})",
            self.n
        );
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.metrics.epoch_bumps += 1;
    }

    /// Drift is imbalance beyond both the configured threshold and what
    /// the partitioner itself achieved: a fresh 1D-HP layout at p = 256
    /// sits at 2.0, and re-deriving it on every mutation would buy
    /// nothing.
    fn maybe_repartition(&mut self) {
        let tolerated = self.cfg.drift_threshold.max(self.partition_imbalance);
        if self.cfg.auto_repartition
            && self.cfg.method.is_partitioned()
            && self.imbalance() > tolerated
        {
            self.repartition_now();
        }
    }

    // -- repeated multiplies ----------------------------------------------

    /// `C = A·Aᵀ` of the resident matrix through the resident plan and the
    /// pooled expand/fold [`SpgemmWorkspace`], billed to the engine
    /// ledger.
    pub fn multiply(&mut self) -> DistSpgemm {
        let plan = self.resolve_plan();
        let b = self.global_matrix().transpose();
        spgemm_with(&plan.matrix, &b, &mut self.ledger, &mut self.spgemm_ws)
    }

    /// `C = A·Aᵀ` via Sparse SUMMA through the pooled
    /// [`SummaWorkspace`].
    pub fn multiply_summa(&mut self) -> SummaSpgemm {
        let plan = self.resolve_plan();
        let b = self.global_matrix().transpose();
        summa_with(
            &plan.matrix,
            &self.dist,
            &b,
            &mut self.ledger,
            &mut self.summa_ws,
        )
    }

    // -- introspection ----------------------------------------------------

    /// Current epoch (0 at construction; bumped per effective mutation
    /// and per repartition).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The matrix generation currently serving batches.
    pub fn active(&self) -> &DistCsrMatrix {
        &self.active.matrix
    }

    /// Whether the active plan is stale (a mutation happened since it was
    /// brought up to date; the next batch will patch it).
    pub fn active_is_stale(&self) -> bool {
        self.active.epoch != self.epoch
    }

    /// The current layout.
    pub fn dist(&self) -> &MatrixDist {
        &self.dist
    }

    /// Max-over-avg per-rank nonzero counts under the current layout —
    /// the drift signal (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        Self::imbalance_of(&self.nnz_per_rank)
    }

    fn imbalance_of(nnz_per_rank: &[u64]) -> f64 {
        let total: u64 = nnz_per_rank.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let avg = total as f64 / nnz_per_rank.len() as f64;
        let max = *nnz_per_rank.iter().max().unwrap() as f64;
        max / avg
    }

    /// Rebuilds the resident matrix to global CSR. The edge map iterates
    /// row-major, which is CSR order: one streaming pass, no sort.
    pub fn global_matrix(&self) -> CsrMatrix {
        let mut rowptr = vec![0usize; self.n + 1];
        let mut colidx = Vec::with_capacity(self.edges.len());
        let mut values = Vec::with_capacity(self.edges.len());
        for (&(i, j), &w) in &self.edges {
            rowptr[i as usize + 1] += 1;
            colidx.push(j);
            values.push(w);
        }
        for i in 0..self.n {
            rowptr[i + 1] += rowptr[i];
        }
        CsrMatrix::from_parts(self.n, self.n, rowptr, colidx, values)
            .expect("the edge map is row-major ordered and duplicate-free")
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored nonzero count (both orientations).
    pub fn nnz(&self) -> usize {
        self.edges.len()
    }

    /// Whether edge `(i, j)` is present.
    pub fn has_edge(&self, i: u32, j: u32) -> bool {
        self.edges.contains_key(&(i, j))
    }

    /// Pending (unexecuted) query count.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The construction config.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{rmat, RmatConfig};
    use sf2d_spmv::{spmv, DistVector};

    fn fixture() -> (CsrMatrix, Vec<Vec<f64>>) {
        let a = rmat(&RmatConfig::graph500(7), 19);
        let n = a.nrows();
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|q| {
                (0..n)
                    .map(|i| ((i * (q + 2) + q) % 9) as f64 - 4.0)
                    .collect()
            })
            .collect();
        (a, queries)
    }

    fn oracle(a: &CsrMatrix, cfg: &EngineConfig, x: &[f64]) -> Vec<f64> {
        let dist = LayoutBuilder::new(a, cfg.seed).dist(cfg.method, cfg.p);
        let dm = DistCsrMatrix::from_global(a, &dist);
        let xd = DistVector::from_global(Arc::clone(&dm.vmap), x);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        spmv(&dm, &xd, &mut y, &mut CostLedger::new(Machine::cab()));
        y.to_global()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "{what}");
    }

    #[test]
    fn batched_answers_match_one_shot_spmv_bitwise() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDBlock, 6).with_max_batch(3);
        let mut engine = Engine::new(&a, cfg.clone());
        let ids: Vec<u64> = queries.iter().map(|q| engine.submit(q.clone())).collect();
        let replies = engine.flush();
        assert_eq!(replies.len(), queries.len());
        // 7 queries at max_batch 3 -> batches of 3, 3, 1.
        assert_eq!(engine.metrics.batches, 3);
        assert_eq!(engine.metrics.cache_misses, 1, "warm plan serves all");
        assert_eq!(engine.metrics.cache_hits, 3);
        for (reply, (id, q)) in replies.iter().zip(ids.iter().zip(&queries)) {
            assert_eq!(reply.id, *id, "submission order preserved");
            assert_bits_eq(&reply.y, &oracle(&a, &cfg, q), "batched vs one-shot");
        }
    }

    #[test]
    fn mutation_bumps_epoch_patches_the_plan_and_stays_bitwise_correct() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::OneDRandom, 4)
            .with_max_batch(4)
            .with_auto_repartition(false);
        let mut engine = Engine::new(&a, cfg.clone());
        assert_bits_eq(
            &engine.query(&queries[0]),
            &oracle(&a, &cfg, &queries[0]),
            "pre-mutation",
        );
        assert_eq!(engine.epoch(), 0);

        // Pick an absent edge deterministically.
        let (mut i, mut j) = (0u32, 1u32);
        while engine.has_edge(i, j) {
            j += 1;
        }
        assert!(engine.insert_edge(i, j, 2.5));
        assert!(engine.has_edge(j, i), "symmetry is maintained");
        assert_eq!(engine.epoch(), 1);
        assert!(engine.active_is_stale());
        // Identical re-insert is a no-op.
        assert!(!engine.insert_edge(i, j, 2.5));
        assert_eq!(engine.epoch(), 1);

        let misses_before = engine.metrics.cache_misses;
        let got = engine.query(&queries[1]);
        assert_eq!(engine.metrics.cache_misses, misses_before + 1);
        assert!(!engine.active_is_stale());
        let mutated = engine.global_matrix();
        assert_bits_eq(&got, &oracle(&mutated, &cfg, &queries[1]), "post-insert");

        assert!(engine.remove_edge(i, j));
        assert!(!engine.remove_edge(i, j), "double delete is a no-op");
        assert_eq!(engine.epoch(), 2);
        // Removing the only mutation restores the seed matrix, but the
        // epoch is monotonic: the plan is patched again, not reused.
        let got = engine.query(&queries[2]);
        assert_bits_eq(&got, &oracle(&a, &cfg, &queries[2]), "post-delete");

        // One plan update per epoch that is queried, none in between.
        let misses_before = engine.metrics.cache_misses;
        for k in 0..12u32 {
            // A fresh weight each round: an effective change whether or
            // not the edge already exists.
            assert!(engine.insert_edge(0, 5 + k, 2.0 + k as f64));
            let _ = engine.query(&queries[3]);
            let _ = engine.query(&queries[4]);
        }
        assert_eq!(engine.metrics.cache_misses, misses_before + 12);
        assert_eq!(engine.metrics.plan_patches, 2 + 12);
        assert_eq!(engine.metrics.full_compiles, 1, "no epoch recompiled");
        i = 0;
        j = 0;
        let _ = (i, j);
    }

    #[test]
    fn mutation_drains_pending_queries_against_the_old_epoch() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDRandom, 4).with_max_batch(16);
        let mut engine = Engine::new(&a, cfg.clone());
        let id0 = engine.submit(queries[0].clone());
        // The barrier executes the queued query against the pre-mutation
        // matrix ...
        let (mut i, mut j) = (0u32, 1u32);
        while engine.has_edge(i, j) {
            j += 1;
        }
        assert!(engine.insert_edge(i, j, -1.0));
        let id1 = engine.submit(queries[1].clone());
        let replies = engine.flush();
        assert_eq!(replies.len(), 2);
        assert_bits_eq(
            &replies[0].y,
            &oracle(&a, &cfg, &queries[0]),
            "pre-mutation epoch",
        );
        assert_eq!(replies[0].id, id0);
        // ... while the later submit sees the mutated matrix.
        let mutated = engine.global_matrix();
        assert_bits_eq(
            &replies[1].y,
            &oracle(&mutated, &cfg, &queries[1]),
            "post-mutation epoch",
        );
        assert_eq!(replies[1].id, id1);
        i = 0;
        let _ = (i, j);
    }

    #[test]
    fn mutations_without_a_read_coalesce_to_the_entries_they_touch() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDRandom, 4);
        let mut engine = Engine::new(&a, cfg.clone());
        let (i, j, _) = a.iter().find(|&(i, j, _)| i != j).unwrap();
        for k in 0..100_000u32 {
            assert!(engine.insert_edge(i, j, 2.0 + k as f64));
        }
        assert_eq!(engine.epoch(), 100_000);
        // One delta per orientation of the one edge.
        assert_eq!(engine.pending.len(), 2);
        // An insert taken back before anyone read it stays one (no-op)
        // removal per orientation.
        let absent = (0..a.nrows() as u32)
            .find(|&v| v != i && !engine.has_edge(i, v))
            .unwrap();
        assert!(engine.insert_edge(i, absent, 1.0));
        assert!(engine.remove_edge(i, absent));
        assert_eq!(engine.pending.len(), 4);

        let y = engine.query(&queries[0]);
        assert!(engine.pending.is_empty());
        assert_eq!(engine.metrics.plan_patches, 1);
        let rebuilt = engine.global_matrix();
        assert_eq!(rebuilt.get(i as usize, j), Some(100_001.0));
        assert_bits_eq(&y, &oracle(&rebuilt, &cfg, &queries[0]), "rebuild oracle");
    }

    #[test]
    fn drift_triggers_auto_repartition_and_forced_repartition_works() {
        let (a, queries) = fixture();
        // Threshold 1.0 is below what any partition achieves, so drift is
        // measured against the fresh layout's own imbalance.
        let cfg = EngineConfig::new(Method::OneDGp, 4)
            .with_max_batch(2)
            .with_drift_threshold(1.0);
        let mut engine = Engine::new(&a, cfg.clone());
        assert!(engine.imbalance() >= 1.0);

        // 1D: both orientations of an edge inside one rank's rows land on
        // that rank. Loading the lightest rank evens the layout out ...
        let insert_within = |engine: &mut Engine, rank: usize| {
            let rows: Vec<u32> = (0..engine.n() as u32)
                .filter(|&v| engine.dist().vector_owner(v) as usize == rank)
                .collect();
            let (i, j) = (rows.iter())
                .flat_map(|&i| rows.iter().map(move |&j| (i, j)))
                .find(|&(i, j)| i < j && !engine.has_edge(i, j))
                .expect("an absent pair inside the rank");
            assert!(engine.insert_edge(i, j, 1.0));
        };
        let nnz = engine.active().nnz_per_rank();
        let lightest = (0..4).min_by_key(|&r| nnz[r]).unwrap();
        let heaviest = (0..4).max_by_key(|&r| nnz[r]).unwrap();
        insert_within(&mut engine, lightest);
        assert_eq!(engine.metrics.repartitions, 0, "no drift, no repartition");
        // ... loading the heaviest one is drift past what the partitioner
        // achieved.
        insert_within(&mut engine, heaviest);
        assert_eq!(engine.metrics.repartitions, 1, "drift tripped");
        assert!(!engine.active_is_stale(), "repartition pre-compiles");
        let mutated = engine.global_matrix();
        // After a repartition the layout is re-derived from the mutated
        // matrix — exactly what a from-scratch oracle does.
        assert_bits_eq(
            &engine.query(&queries[0]),
            &oracle(&mutated, &cfg, &queries[0]),
            "post-repartition",
        );

        let reparts = engine.metrics.repartitions;
        engine.repartition_now();
        assert_eq!(engine.metrics.repartitions, reparts + 1);
        assert_eq!(
            engine.metrics.full_compiles,
            1 + engine.metrics.repartitions
        );
        assert_bits_eq(
            &engine.query(&queries[1]),
            &oracle(&mutated, &cfg, &queries[1]),
            "forced repartition is deterministic",
        );
    }

    #[test]
    fn a_layout_born_above_the_threshold_does_not_repartition_forever() {
        let (a, _) = fixture();
        for method in [Method::OneDGp, Method::OneDHp] {
            // No partition of this graph reaches imbalance 1.0, as 1D-HP
            // at p = 256 never reaches the default 1.5 (fig8: 2.02).
            let cfg = EngineConfig::new(method, 4).with_drift_threshold(1.0);
            let mut engine = Engine::new(&a, cfg);
            assert!(engine.imbalance() > 1.0);
            let n = engine.n() as u32;
            let mut effective = 0;
            let mut k = 0u32;
            while effective < 50 {
                k += 1;
                let (i, j) = ((k * 37) % n, (k * 91 + 5) % n);
                if i != j && !engine.has_edge(i, j) {
                    assert!(engine.insert_edge(i, j, 1.0));
                    effective += 1;
                }
            }
            // Comparing against the threshold alone gave 50 of 50.
            assert!(
                engine.metrics.repartitions <= 5,
                "{}: {} repartitions over 50 mutations",
                method.name(),
                engine.metrics.repartitions
            );
        }
    }

    #[test]
    fn global_matrix_streams_the_edge_map_into_the_csr_a_coo_build_gives() {
        let (a, _) = fixture();
        let cfg = EngineConfig::new(Method::TwoDBlock, 4).with_auto_repartition(false);
        let mut engine = Engine::new(&a, cfg);
        assert_eq!(engine.global_matrix(), a);
        let n = engine.n() as u32;
        for k in 0..40u32 {
            let (i, j) = ((k * 29) % n, (k * 53 + 1) % n);
            match k % 3 {
                0 => engine.insert_edge(i, j, 1.0 + k as f64),
                1 => engine.insert_edge(i, i, 0.5),
                _ => engine.remove_edge((k - 2) * 29 % n, ((k - 2) * 53 + 1) % n),
            };
        }
        let mut coo = sf2d_graph::CooMatrix::new(engine.n(), engine.n());
        for (&(i, j), &w) in &engine.edges {
            coo.push(i, j, w);
        }
        assert_eq!(engine.global_matrix(), CsrMatrix::from_coo(&coo));
        assert_ne!(engine.global_matrix(), a);
    }

    #[test]
    fn a_patch_accounts_for_the_ranks_it_dirtied() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDBlock, 4).with_auto_repartition(false);
        let mut engine = Engine::new(&a, cfg);
        let m = |e: &Engine| {
            let m = &e.metrics;
            let d = &m.dirty_ranks;
            (m.plan_patches, m.full_compiles, d.count, d.sum)
        };
        assert_eq!(m(&engine), (0, 1, 0, 0));

        // Re-weight of a stored off-diagonal edge: its two owner blocks
        // get one value each; the schedule keeps its bytes.
        let (i, j, _) = (a.iter())
            .find(|&(i, j, _)| {
                i != j && engine.dist().nonzero_owner(i, j) != engine.dist().nonzero_owner(j, i)
            })
            .unwrap();
        let before = engine.active().compiled.clone();
        assert!(engine.insert_edge(i, j, 7.0));
        assert_eq!(m(&engine), (0, 1, 0, 0), "mutations only record deltas");
        let _ = engine.query(&queries[0]);
        assert_eq!(m(&engine), (1, 1, 1, 2));
        assert_eq!(engine.active().compiled, before, "0 schedule-dirty ranks");

        // A new edge inside rows and columns its owners already map: the
        // blocks and their compute costs change, no message does (a
        // lengthened row may move in its block's stored order, which
        // re-indexes that rank's own fold lists and nothing else).
        let mapped = |e: &Engine, i: u32, j: u32| {
            let block = &e.active().blocks[e.dist().nonzero_owner(i, j) as usize];
            block.rowmap.binary_search(&i).is_ok() && block.colmap.binary_search(&j).is_ok()
        };
        let n = engine.n() as u32;
        let (i, j) = (0..n)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .find(|&(i, j)| {
                !engine.has_edge(i, j) && mapped(&engine, i, j) && mapped(&engine, j, i)
            })
            .expect("an absent edge inside mapped rows and columns");
        let (import, export) = (
            engine.active().import.clone(),
            engine.active().export.clone(),
        );
        assert!(engine.insert_edge(i, j, 1.0));
        let _ = engine.query(&queries[1]);
        let after = &engine.active().compiled;
        assert_eq!(engine.metrics.plan_patches, 2);
        assert_eq!(after.expand, before.expand);
        assert_eq!(engine.active().import, import);
        assert_eq!(engine.active().export, export);
        assert_eq!(after.fold_costs, before.fold_costs);
        assert_ne!(after.compute_costs, before.compute_costs);
        assert_eq!(engine.metrics.full_compiles, 1);

        // Several mutations before one batch fold into one patch.
        assert!(engine.remove_edge(i, j));
        assert!(engine.insert_edge(i, j, 2.0));
        assert!(engine.insert_edge(0, 0, 1.5));
        let _ = engine.query(&queries[2]);
        assert_eq!(engine.metrics.plan_patches, 3);
        assert_eq!(engine.metrics.dirty_ranks.count, 3);

        let mut reg = sf2d_obs::MetricsRegistry::default();
        engine.metrics.publish(&mut reg, 0);
        assert_eq!(reg.counter("serve_plan_patches", 0), 3);
        assert_eq!(reg.counter("serve_full_compiles", 0), 1);
        assert_eq!(
            reg.histogram("serve_dirty_ranks").expect("histogram").count,
            3
        );
    }

    #[test]
    fn two_thousand_epochs_keep_the_plan_bounded_and_the_replies_exact() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDGp, 16).with_auto_repartition(false);
        let mut engine = Engine::new(&a, cfg.clone());
        let n = engine.n() as u32;
        // A sliding window of 24 extra edges: once it is full, epochs
        // alternate between inserting a new edge and removing the oldest,
        // so the structure keeps moving and never returns to an earlier
        // plan.
        let mut window = std::collections::VecDeque::new();
        let mut lcg = 12345u32;
        for epoch in 0..2000u32 {
            if epoch % 2 == 0 || window.len() < 24 {
                let (i, j) = loop {
                    lcg = lcg.wrapping_mul(1664525).wrapping_add(1013904223);
                    let (i, j) = ((lcg >> 8) % n, (lcg >> 20) % n);
                    if i != j && !engine.has_edge(i, j) {
                        break (i, j);
                    }
                };
                assert!(engine.insert_edge(i, j, 1.0 + (epoch % 7) as f64));
                window.push_back((i, j));
            } else {
                let (i, j) = window.pop_front().unwrap();
                assert!(engine.remove_edge(i, j));
            }
            let got = engine.query(&queries[epoch as usize % queries.len()]);
            // The rebuild oracle is slow: check a sparse sample of epochs.
            if epoch % 97 == 0 {
                let mutated = engine.global_matrix();
                let q = &queries[epoch as usize % queries.len()];
                assert_bits_eq(&got, &oracle(&mutated, &cfg, q), "patched vs rebuilt");
                let fresh = DistCsrMatrix::from_global(&mutated, engine.dist());
                let patched = &engine.active().compiled;
                assert!(*patched == fresh.compiled, "epoch {epoch}");
                assert_eq!(patched.plan_bytes(), fresh.compiled.plan_bytes());
            }
        }
        assert_eq!(engine.metrics.plan_patches, 2000);
        assert_eq!(engine.metrics.full_compiles, 1);
    }

    #[test]
    fn threaded_engine_is_bitwise_equal_and_multiplies_match_oracles() {
        let (a, queries) = fixture();
        let base = EngineConfig::new(Method::TwoDGp, 9).with_max_batch(4);
        let mut gold: Option<Vec<ServeReply>> = None;
        for threads in [1usize, 4] {
            let mut engine = Engine::new(&a, base.clone().with_threads(threads));
            for q in &queries {
                engine.submit(q.clone());
            }
            let replies = engine.flush();
            match &gold {
                None => gold = Some(replies),
                Some(g) => {
                    for (gr, tr) in g.iter().zip(&replies) {
                        assert_eq!(gr.id, tr.id);
                        assert_bits_eq(&tr.y, &gr.y, "threads must not change bits");
                    }
                }
            }
        }

        // The pooled spgemm/summa workspaces answer repeated multiplies.
        let mut engine = Engine::new(&a, base);
        let b = a.transpose();
        let dm = engine.active();
        let mut l = CostLedger::new(Machine::cab());
        let want = sf2d_spgemm::spgemm_dist(dm, &b, &mut l);
        let got = engine.multiply();
        assert_eq!(want.locals, got.locals);
        let got2 = engine.multiply();
        assert_eq!(want.locals, got2.locals, "workspace reuse is clean");
        let summa = engine.multiply_summa();
        assert_eq!(want.locals, summa.locals, "summa agrees with expand/fold");
    }

    #[test]
    fn chaos_flush_heals_and_rate_zero_is_byte_identical() {
        let (a, queries) = fixture();
        let cfg = EngineConfig::new(Method::TwoDBlock, 6).with_max_batch(3);

        let mut plain = Engine::new(&a, cfg.clone());
        for q in &queries {
            plain.submit(q.clone());
        }
        let want = plain.flush();

        // Rate 0: byte-identical, ledger included.
        let mut engine = Engine::new(&a, cfg.clone());
        let mut rt = ChaosRuntime::seeded(11, 0.0);
        for q in &queries {
            engine.submit(q.clone());
        }
        let got = engine.flush_chaos(&mut rt);
        assert_eq!(got, want);
        assert_eq!(engine.ledger.history, plain.ledger.history);
        assert_eq!(engine.ledger.total.to_bits(), plain.ledger.total.to_bits());
        assert!(!rt.stats.any());

        // Seeded faults: healed bits, extra cost.
        let mut engine = Engine::new(&a, cfg);
        let mut rt = ChaosRuntime::seeded(11, 0.4);
        for q in &queries {
            engine.submit(q.clone());
        }
        let got = engine.flush_chaos(&mut rt);
        assert_eq!(got, want);
        assert!(rt.stats.any());
        assert!(engine.ledger.total > plain.ledger.total);
    }
}
