//! The distributed SpGEMM kernel: row-wise Gustavson locally, with the
//! remote B rows fetched through the matrix's **existing** expand plan and
//! the partial C rows returned through its fold plan.
//!
//! ```text
//! 1. Expand:   ship B row j to every rank holding a nonzero a_ij   (import plan)
//! 2. Multiply: C_partial = A_loc · B_rows (Gustavson + SPA, per rank)
//! 3. Fold:     ship partial C rows to their row owners              (export plan)
//! 4. Merge:    owner merges own + received partials per row (SPA)
//! 5. nnz(C):   allreduce of the per-rank output sizes              (collective)
//! ```
//!
//! Steps 2 and 4 accumulate each row in, and emit it sorted from, the one
//! `Spa` of `workspace.rs`, which picks per row between a bitmap walk and
//! a sort.
//!
//! Steps 2–4 run one wave of fold groups at a time: sets of ranks no fold
//! message leaves (a grid row under 2D-GP, one rank under 1D), packed
//! until a wave holds `threads` ranks. A wave multiplies into reused slots
//! and merges its owners while every partial row they read is there. The
//! ledger is charged after the last wave, superstep for superstep as one
//! pass would; step 5 moves the final rows into the output.
//!
//! The communication *pattern* is exactly the SpMV's — the set of B rows a
//! rank needs equals the set of x entries it imports (its column map), and
//! the set of C rows it contributes equals the set of y partials it
//! exports (its row map) — so the compiled local-index schedules of
//! [`CompiledSpmv`](sf2d_spmv::compiled::CompiledSpmv) drive both
//! exchanges unchanged, and the paper's 2D message bound (≤ pr + pc − 2
//! sends per rank across the two exchanges) carries over verbatim.
//!
//! Transport is zero-copy, as in the SpMV. The multiply reads B row
//! `colmap[lj]` where it lives, and an owner merges each partial row it is
//! sent in its sender's partial rows, at the stored row the sender's pack
//! list names ([`PhasePlan::sent`]). Only the bill differs from the SpMV's:
//! a message carries a variable-length `[nnz, cols…, vals…]` row per
//! planned gid instead of one double, so each exchange is billed per call
//! off the row lengths ([`framed_len`]), at both endpoints, rather than
//! read from the frozen SpMV cost vectors.
//!
//! Fault injection is an argument: [`spgemm_with`] and [`spgemm_chaos`]
//! are two entry points over one driver that takes
//! `Option<&mut ChaosRuntime>` and, with a runtime, frames each exchange
//! the old way — sends through the pack lists, receive views through each
//! receiver's remote columns grouped by owner (expand) or its unpack
//! entries' [`PhasePlan::sent`] rows (fold) — for
//! [`ChaosRuntime::mirror_exchange`] right after the exchange's superstep
//! is charged (routing step 0 for the expand, 1 for the fold).
//!
//! Determinism: every rank multiplies its A-block rows in ascending
//! column order and every owner merges per-row contributions in a fixed
//! rank order (own partial first, then sources ascending — the order the
//! fold plan already delivers), so results are bitwise reproducible for
//! any `threads` setting, and bitwise equal to the serial Gustavson
//! oracle ([`sf2d_graph::spgemm`]) whenever the products sum exactly
//! (e.g. the unit-pattern generator matrices, whose A·Aᵀ entries are
//! small integers).

use std::sync::Arc;

use sf2d_graph::CsrMatrix;
use sf2d_obs::{trace_span, PhaseKind};
use sf2d_sim::collective::{allreduce_cost, allreduce_sum_u64};
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::ChaosRuntime;
use sf2d_spmv::compiled::PhasePlan;
use sf2d_spmv::distmat::{DistCsrMatrix, RankBlock};
use sf2d_spmv::map::VectorMap;

use crate::wire::{framed_len, mirror, Framed};
use crate::workspace::{
    par_workers, publish_drain_arms, RankSpgemmScratch, RowBuf, Spa, SpgemmWorkspace, Worker,
};

/// Per-rank traffic of one exchange phase (expand or fold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Messages sent by each rank (one per compiled pack entry).
    pub send_msgs: Vec<u64>,
    /// Doubles sent by each rank: framed lengths, computed from row
    /// lengths.
    pub send_doubles: Vec<u64>,
    /// Billed per-rank cost — latency and bytes charged at **both**
    /// endpoints, the same convention as the SpMV's compiled cost vectors.
    pub costs: Vec<PhaseCost>,
}

impl ExchangeStats {
    /// Max messages sent by any rank in this exchange.
    pub fn max_send_msgs(&self) -> u64 {
        self.send_msgs.iter().copied().max().unwrap_or(0)
    }

    /// Total doubles moved by this exchange.
    pub fn total_volume(&self) -> u64 {
        self.send_doubles.iter().sum()
    }
}

/// The distributed product `C = A·B`: per-rank owned row blocks plus the
/// measured per-phase traffic and work.
#[derive(Debug, Clone)]
pub struct DistSpgemm {
    /// Row distribution of C (shared with A's vector map).
    pub vmap: Arc<VectorMap>,
    /// Global column count of C (= B's).
    pub ncols: usize,
    /// Owned rows per rank: `locals[r]` is `nlocal(r) × ncols`, row `lid`
    /// holding global row `vmap.gids(r)[lid]`.
    pub locals: Vec<CsrMatrix>,
    /// Global `nnz(C)`, closed by the allreduce.
    pub nnz: u64,
    /// Expand-phase traffic (B-row fetch).
    pub expand: ExchangeStats,
    /// Fold-phase traffic (partial C rows to owners).
    pub fold: ExchangeStats,
    /// Per-rank multiply flops (2 per product term).
    pub multiply_flops: Vec<u64>,
    /// Per-rank merge flops (1 per merged-in entry).
    pub merge_flops: Vec<u64>,
}

impl DistSpgemm {
    /// Reassembles the global C (test oracle). Rows come out in global
    /// order with sorted columns, so the result compares bitwise against
    /// the serial [`sf2d_graph::spgemm`] when the sums are exact.
    pub fn to_global(&self) -> CsrMatrix {
        to_global(&self.vmap, self.ncols, &self.locals)
    }
}

/// The global matrix whose rows `locals` hold under `vmap`.
pub(crate) fn to_global(vmap: &VectorMap, ncols: usize, locals: &[CsrMatrix]) -> CsrMatrix {
    let n = vmap.n();
    let mut rowptr = Vec::with_capacity(n + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    for gid in 0..n as u32 {
        let (cols, vals) = locals[vmap.owner(gid) as usize].row(vmap.lid(gid));
        colidx.extend_from_slice(cols);
        values.extend_from_slice(vals);
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_parts(n, ncols, rowptr, colidx, values)
        .expect("per-rank blocks satisfy CSR invariants")
}

/// Moves each rank's final rows (in rank order) into its owned block of C
/// and closes the global `nnz(C)` allreduce (one [`Phase::Collective`]
/// superstep).
pub(crate) fn close_output(
    vmap: &VectorMap,
    bcols: usize,
    rows: impl Iterator<Item = RowBuf>,
    ledger: &mut CostLedger,
) -> (Vec<CsrMatrix>, u64) {
    let locals: Vec<CsrMatrix> = rows
        .enumerate()
        .map(|(r, o)| {
            CsrMatrix::from_parts(vmap.nlocal(r), bcols, o.ptr, o.cols, o.vals)
                .expect("final rows satisfy CSR invariants")
        })
        .collect();
    let partials: Vec<u64> = locals.iter().map(|c| c.nnz() as u64).collect();
    let p = locals.len();
    ledger.superstep_uniform(Phase::Collective, allreduce_cost(p, 1), p);
    (locals, allreduce_sum_u64(&partials))
}

/// One sparse row: its columns and values.
pub(crate) type Row<'a> = (&'a [u32], &'a [f64]);

/// Bills rank `r`'s sends of one exchange off row lengths: each pack
/// message carries one framed row per index of its pack list — `nnz(i)`
/// entries for index `i`.
fn bill_sends(stats: &mut ExchangeStats, phase: &PhasePlan, r: usize, nnz: impl Fn(u32) -> usize) {
    for (dst, idxs, _) in phase.rank(r).packs() {
        let doubles = idxs.iter().map(|&i| framed_len(nnz(i), false)).sum();
        stats.bill(r, dst as usize, doubles);
    }
}

/// One exchange framed for [`mirror`]: what the senders seal and what
/// the receivers read.
type Wire = (Framed, Framed);

/// Under chaos only: frames rank `r`'s side of one exchange — its sends
/// through its pack lists (`sent(i)` is the row it sends for its index
/// `i`) and its receive views (`read` frames the rows it reads and seals
/// each message). A rank's messages may be framed in any rank order.
fn frame_rank<'a>(
    (sends, views): &mut Wire,
    phase: &PhasePlan,
    r: usize,
    sent: impl Fn(u32) -> Row<'a>,
    read: impl FnOnce(&mut Framed),
) {
    for (dst, idxs, _) in phase.rank(r).packs() {
        for &i in idxs {
            sends.row(None, sent(i));
        }
        sends.seal(r, dst);
    }
    read(views);
}

/// Row-wise Gustavson over the rank's local A block: one SPA pass per
/// local row, visiting A entries in ascending column order (the local CSR
/// is colmap-lid sorted and the column map is gid-ascending) and reading
/// each B row where it lives. Rows are taken in the block's stored order,
/// so partial row `s` belongs to stored row `s` — what the compiled fold
/// lists index. Fills `part` and returns the number of product terms.
fn gustavson(spa: &mut Spa, part: &mut RowBuf, block: &RankBlock, b: &CsrMatrix) -> u64 {
    part.reset();
    let mut terms = 0u64;
    for (acols, avals) in block.stored_rows() {
        for (&lj, &aij) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(block.colmap[lj as usize] as usize);
            for (&k, &bjk) in bcols.iter().zip(bvals) {
                spa.add(k, aij * bjk);
            }
            terms += bcols.len() as u64;
        }
        spa.drain(&mut part.cols, &mut part.vals);
        part.close_row();
    }
    terms
}

/// Merges each of rank `r`'s owned C rows out of its own partial plus the
/// partial rows it is sent, read where their senders wrote them
/// (`part(src, i)` is rank `src`'s partial row `i`), in fixed order (own
/// first, then sources ascending), emitting sorted final rows. Returns the
/// number of entries merged (1 flop each, the SpGEMM analogue of the SpMV
/// sum phase).
fn merge_rank<'a>(
    w: &mut Worker,
    s: &mut RankSpgemmScratch,
    (r, nlocal): (u32, usize),
    fold: &PhasePlan,
    part: impl Fn(u32, u32) -> Row<'a>,
) -> u64 {
    let Worker {
        spa,
        own_part,
        incoming,
        ..
    } = w;
    let plan = fold.rank(r as usize);
    own_part.clear();
    own_part.resize(nlocal, u32::MAX);
    for (pi, y_lid) in plan.owned_pairs() {
        own_part[y_lid as usize] = pi;
    }
    incoming.clear();
    for (src, _, off, y_lids) in plan.unpacks() {
        let rows = fold.sent(src, off, y_lids.len());
        incoming.extend(y_lids.iter().zip(rows).map(|(&y, &i)| (y, src, i)));
    }
    // Stable by y lid: within a row, contributions stay in receive order
    // (sources ascending) — the fixed rank-order reduction.
    incoming.sort_by_key(|e| e.0);

    let out = &mut s.out;
    out.reset();
    spa.counting(&mut s.arms, |spa| {
        let mut merged = 0u64;
        let mut cursor = 0usize;
        for (y, &pi) in own_part.iter().enumerate() {
            if pi != u32::MAX {
                merged += accumulate(spa, part(r, pi));
            }
            while cursor < incoming.len() && incoming[cursor].0 as usize == y {
                let (_, src, i) = incoming[cursor];
                merged += accumulate(spa, part(src, i));
                cursor += 1;
            }
            spa.drain(&mut out.cols, &mut out.vals);
            out.close_row();
        }
        merged
    })
}

/// Per-rank compute costs of `flops` each.
pub(crate) fn compute_costs(flops: impl Iterator<Item = u64>) -> Vec<PhaseCost> {
    flops.map(PhaseCost::compute).collect()
}

/// Adds one row into the accumulator; returns its length.
pub(crate) fn accumulate(spa: &mut Spa, (cols, vals): Row<'_>) -> u64 {
    for (&k, &v) in cols.iter().zip(vals) {
        spa.add(k, v);
    }
    cols.len() as u64
}

fn assert_conformal(a: &DistCsrMatrix, b: &CsrMatrix) {
    assert_eq!(
        a.n,
        b.nrows(),
        "spgemm: A is {}x{} but B has {} rows",
        a.n,
        a.n,
        b.nrows()
    );
}

/// Distributed `C = A·B`, charging Expand / Multiply / Fold / Merge /
/// Collective supersteps to the ledger.
///
/// `b` is held globally by the simulator but accessed with distributed
/// discipline: rank `r` reads the B rows its column map names, and every
/// row it does not own is billed to the expand exchange.
///
/// Convenience wrapper over [`spgemm_with`] with a throwaway sequential
/// workspace; iterative callers should hold a [`SpgemmWorkspace`].
pub fn spgemm_dist(a: &DistCsrMatrix, b: &CsrMatrix, ledger: &mut CostLedger) -> DistSpgemm {
    spgemm_with(a, b, ledger, &mut SpgemmWorkspace::new())
}

/// [`spgemm_dist`] through a reusable workspace: scratch buffers and
/// partial rows are borrowed from `ws` and the per-rank phase work fans
/// out across `ws.threads` OS threads (bit-identical for any count).
pub fn spgemm_with(
    a: &DistCsrMatrix,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    ws: &mut SpgemmWorkspace,
) -> DistSpgemm {
    spgemm_inner(a, b, ledger, ws, None)
}

/// Distributed `C = A·B` under fault injection: [`spgemm_with`] on an
/// internal workspace sized to `rt.threads`, with both exchanges also
/// mirrored onto the chaos wire. The billed Expand / Multiply / Fold /
/// Merge / Collective supersteps are the plain run's; each mirrored
/// exchange appends a `Retransmit` superstep when (and only when) faults
/// cost something, so C is always bit-identical to a plain run and at
/// rate 0 the ledger is too. Chaos superstep indices (for
/// [`FaultScript`](sf2d_sim::fault) targeting): the expand exchange is
/// routing step 0, the fold exchange step 1.
pub fn spgemm_chaos(
    a: &DistCsrMatrix,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    rt: &mut ChaosRuntime,
) -> DistSpgemm {
    let mut ws = SpgemmWorkspace::with_threads(rt.threads);
    spgemm_inner(a, b, ledger, &mut ws, Some(rt))
}

/// The shared expand/fold driver: plain when `chaos` is `None`, otherwise
/// each exchange is also framed and handed to
/// [`ChaosRuntime::mirror_exchange`] right after its superstep is charged
/// (faults never reach the multiply or the merge: the kernel reads rows
/// where they live, and the mirror asserts the healed deliveries carry the
/// same bits).
fn spgemm_inner(
    a: &DistCsrMatrix,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    ws: &mut SpgemmWorkspace,
    mut chaos: Option<&mut ChaosRuntime>,
) -> DistSpgemm {
    assert_conformal(a, b);
    let (vmap, expand, fold) = (&a.vmap, &a.compiled.expand, &a.compiled.fold);
    ws.ensure(fold, b.ncols());
    let SpgemmWorkspace {
        threads,
        workers,
        ranks,
        groups,
        slots,
    } = ws;
    let (threads, p) = (*threads, a.blocks.len());

    // Phase 1 — expand: the multiply reads each B row where it lives, so
    // only the bill is built here, one framed row per planned gid.
    let b_row = |r: usize, lid: u32| b.row(vmap.gids(r)[lid as usize] as usize);
    let mut expand_stats = ExchangeStats::zero(p);
    for r in 0..p {
        bill_sends(&mut expand_stats, expand, r, |lid| b_row(r, lid).0.len());
    }
    ledger.superstep(Phase::Expand, &expand_stats.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        let mut wire = (Framed::new(p), Framed::new(p));
        for d in 0..p {
            // A receiver's messages are its remote columns by owner.
            let read = |views: &mut Framed| {
                let colmap = &a.blocks[d].colmap;
                for g in vmap.remote_by_owner(d, colmap).chunk_by(|x, y| x.0 == y.0) {
                    for &(_, lj) in g {
                        views.row(None, b.row(colmap[lj as usize] as usize));
                    }
                    views.seal(d, g[0].0);
                }
            };
            frame_rank(&mut wire, expand, d, |lid| b_row(d, lid), read);
        }
        mirror(rt, ledger, "spgemm expand", &wire.0, &wire.1);
    }

    // Phases 2–4, one wave of fold groups at a time: the local Gustavson
    // pass into the wave's slots, the bill of their fold sends (zero-copy
    // like the expand: an owner reads each partial row it is sent at the
    // stored row its sender's pack list names), then the merge at the
    // wave's owners in fixed rank order per row.
    let mut fold_stats = ExchangeStats::zero(p);
    let mut fold_wire = chaos.is_some().then(|| (Framed::new(p), Framed::new(p)));
    for (lo, hi) in groups.spans() {
        let wave = &groups.order[lo..hi];
        let slots = &mut slots[..hi - lo];
        trace_span!(PhaseKind::Multiply, "spgemm:multiply", {
            par_workers(threads, workers, slots, |w, j, slot| {
                let (block, mut arms) = (&a.blocks[wave[j] as usize], [0; 2]);
                slot.terms = w
                    .spa
                    .counting(&mut arms, |spa| gustavson(spa, &mut slot.part, block, b));
                slot.arms = arms;
            })
        });
        let slots = &*slots;
        let part = |r: u32, i: u32| {
            slots[groups.pos[r as usize] as usize - lo]
                .part
                .row(i as usize)
        };
        for (j, &r) in wave.iter().enumerate() {
            (ranks[lo + j].terms, ranks[lo + j].arms) = (slots[j].terms, slots[j].arms);
            bill_sends(&mut fold_stats, fold, r as usize, |i| part(r, i).0.len());
            if let Some(wire) = fold_wire.as_mut() {
                let read = |views: &mut Framed| {
                    for (src, _, off, lids) in fold.rank(r as usize).unpacks() {
                        for &i in fold.sent(src, off, lids.len()) {
                            views.row(None, part(src, i));
                        }
                        views.seal(r as usize, src);
                    }
                };
                frame_rank(wire, fold, r as usize, |i| part(r, i), read);
            }
        }
        trace_span!(PhaseKind::Merge, "spgemm:merge", {
            par_workers(threads, workers, &mut ranks[lo..hi], |w, j, s| {
                let r = wave[j];
                s.merged = merge_rank(w, s, (r, vmap.nlocal(r as usize)), fold, part);
            })
        });
    }

    // The ledger, in rank order: what the waves did, superstep by
    // superstep.
    let rank = |r: usize| &ranks[groups.pos[r] as usize];
    let multiply_flops: Vec<u64> = (0..p).map(|r| 2 * rank(r).terms).collect();
    let merge_flops: Vec<u64> = (0..p).map(|r| rank(r).merged).collect();
    ledger.superstep(
        Phase::Multiply,
        &compute_costs(multiply_flops.iter().copied()),
    );
    ledger.superstep(Phase::Fold, &fold_stats.costs);
    if let (Some(rt), Some((sends, views))) = (chaos, &fold_wire) {
        mirror(rt, ledger, "spgemm fold", sends, views);
    }
    ledger.superstep(Phase::Merge, &compute_costs(merge_flops.iter().copied()));
    publish_drain_arms("ef", (0..p).map(|r| rank(r).arms));

    // Phase 5 — close nnz(C) and move the final rows into the output.
    let pos = &groups.pos;
    let rows = (0..p).map(|r| ranks[pos[r] as usize].out.take());
    let (locals, nnz) = close_output(vmap, b.ncols(), rows, ledger);
    DistSpgemm {
        vmap: Arc::clone(vmap),
        ncols: b.ncols(),
        locals,
        nnz,
        expand: expand_stats,
        fold: fold_stats,
        multiply_flops,
        merge_flops,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::{spgemm, Graph};
    use sf2d_partition::{grid_shape, partition_graph, GpConfig, MatrixDist};
    use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
    use sf2d_sim::Machine;
    use sf2d_spmv::compiled::UnpackEntry;

    fn check_layout(a: &CsrMatrix, b: &CsrMatrix, dist: &MatrixDist) {
        let dm = DistCsrMatrix::from_global(a, dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, b, &mut ledger);
        let want = spgemm(a, b);
        let got = c.to_global();
        assert_eq!(got, want);
        assert_eq!(c.nnz, want.nnz() as u64);
        assert!(ledger.total > 0.0);
    }

    #[test]
    fn all_basic_layouts_match_the_serial_oracle() {
        let a = rmat(&RmatConfig::graph500(6), 11);
        let b = a.transpose();
        let n = a.nrows();
        for p in [1usize, 4, 6] {
            let (pr, pc) = grid_shape(p);
            check_layout(&a, &b, &MatrixDist::block_1d(n, p));
            check_layout(&a, &b, &MatrixDist::random_1d(n, p, 5));
            check_layout(&a, &b, &MatrixDist::block_2d(n, pr, pc));
            check_layout(&a, &b, &MatrixDist::random_2d(n, pr, pc, 6));
        }
    }

    #[test]
    fn rectangular_b_is_supported() {
        // B with a different (smaller) column space than A's dimension.
        let a = grid_2d(4, 4);
        let mut coo = sf2d_graph::CooMatrix::new(16, 3);
        for i in 0..16u32 {
            coo.push(i, i % 3, 1.0 + i as f64);
        }
        let b = CsrMatrix::from_coo(&coo);
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(16, 2, 2));
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, &b, &mut ledger);
        assert_eq!(c.to_global(), spgemm(&a, &b));
        assert_eq!(c.ncols, 3);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_calls_and_threads() {
        let a = rmat(&RmatConfig::graph500(6), 3);
        let b = a.transpose();
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 2, 2));
        let mut l0 = CostLedger::new(Machine::cab());
        let gold = spgemm_dist(&dm, &b, &mut l0);
        let mut ws = SpgemmWorkspace::with_threads(4);
        for _ in 0..2 {
            let mut l = CostLedger::new(Machine::cab());
            let c = spgemm_with(&dm, &b, &mut l, &mut ws);
            for (cl, gl) in c.locals.iter().zip(&gold.locals) {
                assert_eq!(cl, gl);
                let cb: Vec<u64> = cl.values().iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u64> = gl.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(cb, gb);
            }
            assert_eq!(l.total.to_bits(), l0.total.to_bits());
            assert_eq!(l.history, l0.history);
        }
    }

    #[test]
    fn message_counts_equal_the_spmv_plans() {
        // One routed exchange per phase: the SpGEMM sends exactly the
        // plan's messages, so the paper's 2D bound carries over.
        let a = rmat(&RmatConfig::graph500(7), 9);
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 4, 4));
        let b = a.transpose();
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, &b, &mut ledger);
        let plans = &dm.compiled;
        for r in 0..dm.nprocs() {
            let (expand, fold) = (plans.expand.pack_entries(r), plans.fold.pack_entries(r));
            assert_eq!(c.expand.send_msgs[r], expand.len() as u64);
            assert_eq!(c.fold.send_msgs[r], fold.len() as u64);
        }
        assert!(c.expand.max_send_msgs() <= 3);
        assert!(c.fold.max_send_msgs() <= 3);
    }

    #[test]
    fn one_d_layouts_have_an_empty_fold() {
        let a = rmat(&RmatConfig::graph500(6), 2);
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::random_1d(a.nrows(), 4, 7));
        let b = a.transpose();
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, &b, &mut ledger);
        assert_eq!(c.fold.total_volume(), 0);
        assert_eq!(
            ledger.by_phase.get(&Phase::Fold).copied().unwrap_or(0.0),
            0.0
        );
        assert!(c.expand.total_volume() > 0);
        // Merge still runs (owned partials become the final rows).
        assert_eq!(c.to_global(), spgemm(&a, &b));
    }

    #[test]
    fn flops_sum_to_the_serial_count() {
        // Distributed multiply work partitions the serial product terms.
        let a = rmat(&RmatConfig::graph500(6), 13);
        let b = a.transpose();
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 2, 3));
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, &b, &mut ledger);
        let total: u64 = c.multiply_flops.iter().sum();
        assert_eq!(total, sf2d_graph::spgemm_flops(&a, &b));
    }

    #[test]
    #[should_panic(expected = "B has")]
    fn dimension_mismatch_is_rejected() {
        let a = grid_2d(3, 3);
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_1d(9, 2));
        let b = grid_2d(2, 2);
        spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab()));
    }

    fn chaos_fixture() -> (CsrMatrix, CsrMatrix, DistCsrMatrix) {
        let a = rmat(&RmatConfig::graph500(6), 17);
        let b = a.transpose();
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 2, 2));
        (a, b, dm)
    }

    #[test]
    fn chaos_rate_zero_is_byte_identical_to_plain() {
        let (_a, b, dm) = chaos_fixture();
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = spgemm_dist(&dm, &b, &mut l0);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(42, 0.0);
        let chaotic = spgemm_chaos(&dm, &b, &mut l1, &mut rt);
        assert_eq!(plain.locals, chaotic.locals);
        assert_eq!(l0.history, l1.history);
        assert_eq!(l0.total.to_bits(), l1.total.to_bits());
    }

    #[test]
    fn chaos_seeded_faults_recover_the_fault_free_bits_at_extra_cost() {
        let (_a, b, dm) = chaos_fixture();
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = spgemm_dist(&dm, &b, &mut l0);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(7, 0.4);
        let chaotic = spgemm_chaos(&dm, &b, &mut l1, &mut rt);
        assert_eq!(plain.locals, chaotic.locals);
        assert!(rt.stats.any(), "rate 0.4 injected nothing");
        assert!(l1.total > l0.total, "faults should cost extra");
    }

    #[test]
    fn chaos_scripted_expand_drop_is_healed() {
        let (_a, b, dm) = chaos_fixture();
        // Drop the first real expand message (routing step 0), whichever
        // pair the layout produces.
        let (src, dst) = (0..dm.nprocs())
            .find_map(|r| (dm.compiled.expand.pack_entries(r).first()).map(|e| (r as u32, e.peer)))
            .expect("2x2 block layout always has expand traffic");
        let script = FaultScript::default().fault(0, src, dst, 0, FaultKind::Drop);
        let mut rt = ChaosRuntime::scripted(script);
        let mut l = CostLedger::new(Machine::cab());
        let chaotic = spgemm_chaos(&dm, &b, &mut l, &mut rt);
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = spgemm_dist(&dm, &b, &mut l0);
        assert_eq!(plain.locals, chaotic.locals);
        assert_eq!(rt.stats.drops, 1);
        assert!(
            l.history.iter().any(|(ph, _)| *ph == Phase::Retransmit),
            "drop should bill a retransmit superstep"
        );
    }

    #[test]
    fn chaos_matches_across_thread_counts() {
        let (_a, b, dm) = chaos_fixture();
        let mut gold: Option<DistSpgemm> = None;
        for threads in [1usize, 2, 8] {
            let mut rt = ChaosRuntime::seeded(99, 0.2).with_threads(threads);
            let mut l = CostLedger::new(Machine::cab());
            let c = spgemm_chaos(&dm, &b, &mut l, &mut rt);
            match &gold {
                None => gold = Some(c),
                Some(g) => {
                    assert_eq!(g.locals, c.locals);
                    for (gl, cl) in g.locals.iter().zip(&c.locals) {
                        let gb: Vec<u64> = gl.values().iter().map(|v| v.to_bits()).collect();
                        let cb: Vec<u64> = cl.values().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(gb, cb);
                    }
                }
            }
        }
    }

    /// The six layouts of the SpMV study on `p` ranks: 1D and 2D Block,
    /// Random and GP (the last two sharing one graph partition).
    pub(crate) fn six_layouts(a: &CsrMatrix, p: usize) -> Vec<MatrixDist> {
        let (n, (pr, pc)) = (a.nrows(), grid_shape(p));
        let part = partition_graph(&Graph::from_symmetric_matrix(a), p, &GpConfig::default());
        vec![
            MatrixDist::block_1d(n, p),
            MatrixDist::random_1d(n, p, 5),
            MatrixDist::from_partition_1d(&part),
            MatrixDist::block_2d(n, pr, pc),
            MatrixDist::random_2d(n, pr, pc, 6),
            MatrixDist::cartesian_2d(&part, pr, pc, false),
        ]
    }

    /// The exchange framing before rows were read in place, kept as the
    /// billing oracle: every pack message serialized `[nnz, cols…,
    /// vals…]` per row (`row(r, i)` for rank `r`'s index `i`), and the
    /// stats measured off those bytes — send side from each rank's own
    /// messages, receive side through the `(src, slot)` of each message
    /// `inbound(r)` names.
    fn framed_stats<'a>(
        phase: &PhasePlan,
        row: impl Fn(usize, u32) -> Row<'a>,
        inbound: impl Fn(usize) -> Vec<(u32, u32)>,
    ) -> ExchangeStats {
        let p = phase.nranks();
        let msgs: Vec<Vec<Vec<f64>>> = (0..p)
            .map(|r| {
                let packs = phase.rank(r).packs();
                packs
                    .map(|(_, idxs, _)| {
                        let mut msg = Vec::new();
                        for &i in idxs {
                            let (cols, vals) = row(r, i);
                            msg.push(cols.len() as f64);
                            msg.extend(cols.iter().map(|&c| c as f64));
                            msg.extend_from_slice(vals);
                        }
                        msg
                    })
                    .collect()
            })
            .collect();
        let send_msgs: Vec<u64> = msgs.iter().map(|m| m.len() as u64).collect();
        let send_doubles: Vec<u64> = (msgs.iter())
            .map(|m| m.iter().map(|d| d.len() as u64).sum())
            .collect();
        let mut costs: Vec<PhaseCost> = (0..p)
            .map(|r| PhaseCost::comm(send_msgs[r], 8 * send_doubles[r]))
            .collect();
        for (r, cost) in costs.iter_mut().enumerate() {
            for (src, slot) in inbound(r) {
                let doubles = msgs[src as usize][slot as usize].len() as u64;
                *cost = cost.add(&PhaseCost::comm(1, 8 * doubles));
            }
        }
        ExchangeStats {
            send_msgs,
            send_doubles,
            costs,
        }
    }

    /// Every rank's partial C rows, each multiplied on its own.
    fn partial_rows(dm: &DistCsrMatrix, b: &CsrMatrix) -> Vec<RowBuf> {
        let mut spa = Spa::default();
        spa.resize(b.ncols());
        let multiply = |block| {
            let mut part = RowBuf::default();
            gustavson(&mut spa, &mut part, block, b);
            part
        };
        dm.blocks.iter().map(multiply).collect()
    }

    #[test]
    fn billing_matches_the_framed_bytes_on_every_layout() {
        let a = rmat(&RmatConfig::graph500(8), 23);
        let b = a.transpose();
        for p in [1usize, 4, 16, 64] {
            for dist in six_layouts(&a, p) {
                let dm = DistCsrMatrix::from_global(&a, &dist);
                let c = spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab()));
                let gids = |r: usize, lid: u32| b.row(dm.vmap.gids(r)[lid as usize] as usize);
                let parts = partial_rows(&dm, &b);
                let part = |r: usize, i: u32| parts[r].row(i as usize);
                let at = format!("p={p} {:?}", dist.mode());
                // The expand keeps no receive side: its messages in are
                // the oracle's gid plan's, at the sender's slot for `r`.
                let (import, _) = sf2d_spmv::reference::gid_plans(&dm);
                let imports = |r: usize| -> Vec<(u32, u32)> {
                    let slot = |src: &u32| {
                        import.sends[*src as usize].binary_search_by_key(&(r as u32), |m| m.0)
                    };
                    (import.recvs[r].iter())
                        .map(|(src, _)| (*src, slot(src).expect("plan symmetry") as u32))
                        .collect()
                };
                let folds = |r: usize| -> Vec<(u32, u32)> {
                    let entries = dm.compiled.fold.unpack_entries(r).iter();
                    entries.map(|e| (e.src, e.slot)).collect()
                };
                let expand = framed_stats(&dm.compiled.expand, gids, imports);
                assert_eq!(c.expand, expand, "{at}");
                assert_eq!(c.fold, framed_stats(&dm.compiled.fold, part, folds), "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "spgemm fold: source mismatch")]
    fn chaos_mirror_checks_the_fold_link_against_the_sender() {
        let a = rmat(&RmatConfig::graph500(7), 29);
        let b = a.transpose();
        let mut dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 2, 3));
        let want = spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab()));
        // Relink an owner's shorter fold message to its other sender: the
        // owner then reads rows of the wrong peer, which that peer sent to
        // it for other rows.
        let owner = (0..dm.nprocs())
            .find(|&r| dm.compiled.fold_rank(r).nunpacks() == 2)
            .expect("a 2x3 block layout has owners with two fold senders");
        let lens: Vec<usize> = (dm.compiled.fold_rank(owner).unpacks())
            .map(|(_, _, _, lids)| lids.len())
            .collect();
        let (short, long) = if lens[0] <= lens[1] { (0, 1) } else { (1, 0) };
        let inbound = dm.compiled.fold.unpack_entries_mut(owner);
        let to = inbound[long];
        inbound[short] = UnpackEntry {
            start: inbound[short].start,
            ..to
        };

        let got = spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab()));
        assert_ne!(got.locals, want.locals, "a wrong plan gives a wrong C");
        spgemm_chaos(
            &dm,
            &b,
            &mut CostLedger::new(Machine::cab()),
            &mut ChaosRuntime::seeded(1, 0.0),
        );
    }
}
