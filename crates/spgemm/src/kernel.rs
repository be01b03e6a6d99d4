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
//! The communication *pattern* is exactly the SpMV's — the set of B rows a
//! rank needs equals the set of x entries it imports (its column map), and
//! the set of C rows it contributes equals the set of y partials it
//! exports (its row map) — so the compiled local-index pack/unpack
//! schedules of [`CompiledSpmv`](sf2d_spmv::compiled::CompiledSpmv) drive
//! both exchanges unchanged, and the paper's 2D message bound
//! (≤ pr + pc − 2 sends per rank across the two exchanges) carries over
//! verbatim. Only the payloads differ: messages carry variable-length
//! serialized rows (`[nnz, cols..., vals...]` per planned gid) instead of
//! one double per gid, so the per-phase costs are measured off the actual
//! payload lengths at both endpoints rather than read from the frozen
//! SpMV cost vectors.
//!
//! Fault injection is an argument: [`spgemm_with`] and [`spgemm_chaos`]
//! are two entry points over one driver that takes
//! `Option<&mut ChaosRuntime>` and, with a runtime, hands each exchange's
//! resident payloads — send side from the pack entries, receive side from
//! the `(src, slot)` unpack entries — to
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
use sf2d_sim::fault::{ChaosRuntime, PeerPayloads};
use sf2d_sim::runtime::par_ranks;
use sf2d_spmv::compiled::{PhasePlan, RankPlan};
use sf2d_spmv::distmat::{DistCsrMatrix, RankBlock};
use sf2d_spmv::map::VectorMap;

use crate::workspace::{
    publish_drain_arms, BRowRef, MsgBufs, RankSpgemmScratch, RowBuf, SpgemmWorkspace,
};

/// Per-rank traffic of one exchange phase (expand or fold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Messages sent by each rank (one per compiled pack entry).
    pub send_msgs: Vec<u64>,
    /// Doubles sent by each rank (serialized payload lengths).
    pub send_doubles: Vec<u64>,
    /// Billed per-rank cost — latency and bytes charged at **both**
    /// endpoints, the same convention as
    /// [`CommPlan::phase_costs`](sf2d_spmv::plan::CommPlan::phase_costs).
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

/// Copies each rank's final rows out as its owned block of C and closes
/// the global `nnz(C)` allreduce (one [`Phase::Collective`] superstep).
pub(crate) fn close_output<'a>(
    vmap: &VectorMap,
    bcols: usize,
    rows: impl Iterator<Item = &'a RowBuf>,
    ledger: &mut CostLedger,
) -> (Vec<CsrMatrix>, u64) {
    let locals: Vec<CsrMatrix> = rows
        .enumerate()
        .map(|(r, o)| {
            let (ptr, cols, vals) = (o.ptr.clone(), o.cols.clone(), o.vals.clone());
            CsrMatrix::from_parts(vmap.nlocal(r), bcols, ptr, cols, vals)
                .expect("final rows satisfy CSR invariants")
        })
        .collect();
    let partials: Vec<u64> = locals.iter().map(|c| c.nnz() as u64).collect();
    let p = locals.len();
    ledger.superstep_uniform(Phase::Collective, allreduce_cost(p, 1), p);
    (locals, allreduce_sum_u64(&partials))
}

/// Serializes one sparse row onto a message payload:
/// `[nnz, cols..., vals...]`, columns as (exactly representable) doubles.
#[inline]
pub(crate) fn push_row(buf: &mut Vec<f64>, row: (&[u32], &[f64])) {
    let (cols, vals) = row;
    buf.push(cols.len() as f64);
    buf.extend(cols.iter().map(|&c| c as f64));
    buf.extend_from_slice(vals);
}

/// The sender half of an exchange's stats, off each rank's resident
/// payload buffers; the receive halves differ per exchange kind.
pub(crate) fn send_stats<'a>(bufs: impl Iterator<Item = &'a MsgBufs>) -> ExchangeStats {
    let (send_msgs, send_doubles): (Vec<u64>, Vec<u64>) = bufs
        .map(|out| (out.nmsgs() as u64, out.data.len() as u64))
        .unzip();
    let sends = send_msgs.iter().zip(&send_doubles);
    let costs = sends.map(|(&m, &d)| PhaseCost::comm(m, 8 * d)).collect();
    ExchangeStats {
        send_msgs,
        send_doubles,
        costs,
    }
}

/// Measures one exchange: send side from each rank's own pack buffers,
/// receive side mirrored through the compiled `(src, slot)` unpack entries.
fn exchange_stats(bufs: &[MsgBufs], plan: &PhasePlan) -> ExchangeStats {
    let mut stats = send_stats(bufs.iter());
    for (r, cost) in stats.costs.iter_mut().enumerate() {
        for e in plan.unpack_entries(r) {
            let doubles = bufs[e.src as usize].msg(e.slot as usize).len() as u64;
            *cost = cost.add(&PhaseCost::comm(1, 8 * doubles));
        }
    }
    stats
}

/// One exchange's resident payloads as
/// [`ChaosRuntime::mirror_exchange`] takes them: per source rank its
/// sealed `(dst, payload)` slots in pack order, per destination rank the
/// `(src, payload)` slots its compiled `(src, slot)` unpack entries read
/// in place.
fn payload_views<'a>(
    bufs: &'a [MsgBufs],
    plan: &PhasePlan,
) -> (Vec<PeerPayloads<'a>>, Vec<PeerPayloads<'a>>) {
    let sends = (0..bufs.len())
        .map(|r| {
            let packs = plan.pack_entries(r).iter().enumerate();
            packs.map(|(slot, e)| (e.peer, bufs[r].msg(slot))).collect()
        })
        .collect();
    let views = (0..bufs.len())
        .map(|r| {
            let unpacks = plan.unpack_entries(r).iter();
            unpacks
                .map(|e| (e.src, bufs[e.src as usize].msg(e.slot as usize)))
                .collect()
        })
        .collect();
    (sends, views)
}

/// Packs one rank's expand payloads: the B rows named by the compiled
/// pack lids (which index the sender's owned gid list).
fn pack_expand(buf: &mut MsgBufs, plan: RankPlan<'_>, gids: &[u32], b: &CsrMatrix) {
    buf.reset();
    for (_dst, lids, _off) in plan.packs() {
        for &lid in lids {
            push_row(&mut buf.data, b.row(gids[lid as usize] as usize));
        }
        buf.seal();
    }
}

/// Builds the rank's B-row directory: owned slots point at `b` directly,
/// remote slots are decoded out of the senders' payloads into the
/// scratch's `rcols` / `rvals` arrays.
fn decode_expand(
    scratch: &mut RankSpgemmScratch,
    block: &RankBlock,
    plan: RankPlan<'_>,
    ebufs: &[MsgBufs],
) {
    for (_src_lid, xcols_lid) in plan.owned_pairs() {
        scratch.brows[xcols_lid as usize] = BRowRef::Local {
            gid: block.colmap[xcols_lid as usize],
        };
    }
    scratch.rcols.clear();
    scratch.rvals.clear();
    for (src, slot, _payload_off, lids) in plan.unpacks() {
        let data = ebufs[src as usize].msg(slot as usize);
        let mut off = 0usize;
        for &lid in lids {
            let nnz = data[off] as usize;
            off += 1;
            let start = scratch.rcols.len() as u32;
            scratch
                .rcols
                .extend(data[off..off + nnz].iter().map(|&c| c as u32));
            scratch
                .rvals
                .extend_from_slice(&data[off + nnz..off + 2 * nnz]);
            off += 2 * nnz;
            scratch.brows[lid as usize] = BRowRef::Remote {
                off: start,
                len: nnz as u32,
            };
        }
        debug_assert_eq!(off, data.len(), "expand payload framing mismatch");
    }
}

/// Row-wise Gustavson over the rank's local A block: one SPA pass per
/// local row, visiting A entries in ascending column order (the local CSR
/// is colmap-lid sorted and the column map is gid-ascending). Rows are
/// taken in the block's stored order, so partial row `s` belongs to
/// stored row `s` — what the compiled fold lists index. Fills the
/// partial-row buffers and returns the number of product terms.
fn gustavson(scratch: &mut RankSpgemmScratch, block: &RankBlock, b: &CsrMatrix) -> u64 {
    let RankSpgemmScratch {
        spa,
        brows,
        rcols,
        rvals,
        part,
        ..
    } = scratch;
    part.reset();
    let mut terms = 0u64;
    for (acols, avals) in block.stored_rows() {
        for (&lj, &aij) in acols.iter().zip(avals) {
            let (bcols, bvals): (&[u32], &[f64]) = match brows[lj as usize] {
                BRowRef::Local { gid } => b.row(gid as usize),
                BRowRef::Remote { off, len } => {
                    let (off, len) = (off as usize, len as usize);
                    (&rcols[off..off + len], &rvals[off..off + len])
                }
            };
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

/// Packs one rank's fold payloads: the partial C rows named by the
/// compiled pack indices (stored rows of the A block).
fn pack_fold(buf: &mut MsgBufs, plan: RankPlan<'_>, scratch: &RankSpgemmScratch) {
    buf.reset();
    for (_owner, idxs, _off) in plan.packs() {
        for &pi in idxs {
            push_row(&mut buf.data, scratch.part.row(pi as usize));
        }
        buf.seal();
    }
}

/// Merges each owned C row out of the rank's own partial plus the
/// arriving partial rows, in fixed order (own first, then sources
/// ascending), emitting sorted final rows. Returns the number of entries
/// merged (1 flop each, the SpGEMM analogue of the SpMV sum phase).
fn merge_rank(
    scratch: &mut RankSpgemmScratch,
    nlocal: usize,
    plan: RankPlan<'_>,
    fbufs: &[MsgBufs],
) -> u64 {
    scratch.own_part.clear();
    scratch.own_part.resize(nlocal, u32::MAX);
    for (pi, y_lid) in plan.owned_pairs() {
        scratch.own_part[y_lid as usize] = pi;
    }
    scratch.incoming.clear();
    for (src, slot, _payload_off, y_lids) in plan.unpacks() {
        let data = fbufs[src as usize].msg(slot as usize);
        let mut off = 0usize;
        for &y_lid in y_lids {
            let nnz = data[off] as usize;
            scratch
                .incoming
                .push((y_lid, src, slot, (off + 1) as u32, nnz as u32));
            off += 1 + 2 * nnz;
        }
        debug_assert_eq!(off, data.len(), "fold payload framing mismatch");
    }
    // Stable by y lid: within a row, contributions stay in message order
    // (sources ascending) — the fixed rank-order reduction.
    scratch.incoming.sort_by_key(|e| e.0);

    let RankSpgemmScratch {
        spa,
        part,
        own_part,
        incoming,
        out,
        ..
    } = scratch;
    out.reset();
    let mut merged = 0u64;
    let mut cursor = 0usize;
    for (y, &pi) in own_part.iter().enumerate().take(nlocal) {
        if pi != u32::MAX {
            let (cols, vals) = part.row(pi as usize);
            for (&k, &v) in cols.iter().zip(vals) {
                spa.add(k, v);
            }
            merged += cols.len() as u64;
        }
        while cursor < incoming.len() && incoming[cursor].0 as usize == y {
            let (_, src, slot, off, len) = incoming[cursor];
            let data = fbufs[src as usize].msg(slot as usize);
            let (off, len) = (off as usize, len as usize);
            for k in 0..len {
                spa.add(data[off + k] as u32, data[off + len + k]);
            }
            merged += len as u64;
            cursor += 1;
        }
        spa.drain(&mut out.cols, &mut out.vals);
        out.close_row();
    }
    merged
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
/// discipline: rank `r` reads only the B rows it owns under `a.vmap`
/// (B shares A's row distribution) — every other row it touches travels
/// through the expand exchange and is billed.
///
/// Convenience wrapper over [`spgemm_with`] with a throwaway sequential
/// workspace; iterative callers should hold a [`SpgemmWorkspace`].
pub fn spgemm_dist(a: &DistCsrMatrix, b: &CsrMatrix, ledger: &mut CostLedger) -> DistSpgemm {
    spgemm_with(a, b, ledger, &mut SpgemmWorkspace::new())
}

/// [`spgemm_dist`] through a reusable workspace: scratch buffers and
/// message payloads are borrowed from `ws` and the per-rank phase work
/// fans out across `ws.threads` OS threads (bit-identical for any count).
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
/// each exchange is also handed to [`ChaosRuntime::mirror_exchange`]
/// right after its superstep is charged (faults never reach the multiply
/// or the merge: the kernel reads the resident buffers, and the mirror
/// asserts the healed deliveries carry the same bits).
fn spgemm_inner(
    a: &DistCsrMatrix,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    ws: &mut SpgemmWorkspace,
    mut chaos: Option<&mut ChaosRuntime>,
) -> DistSpgemm {
    assert_conformal(a, b);
    ws.ensure(&a.blocks, b.ncols());
    let threads = ws.threads;
    let compiled = &a.compiled;
    let vmap = &a.vmap;

    // Phase 1 — expand: serialize the planned B rows into the resident
    // send buffers; destinations read them in place via (src, slot).
    trace_span!(PhaseKind::Pack, "spgemm:expand-pack", {
        par_ranks(threads, &mut ws.expand_bufs, |r, buf| {
            pack_expand(buf, compiled.expand_rank(r), vmap.gids(r), b);
        })
    });
    let expand = exchange_stats(&ws.expand_bufs, &compiled.expand);
    ledger.superstep(Phase::Expand, &expand.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        let (sends, views) = payload_views(&ws.expand_bufs, &compiled.expand);
        rt.mirror_exchange(ledger, "spgemm expand", &sends, Some(&views));
    }

    // Phase 2 — decode the arrived rows and run the local Gustavson pass.
    let ebufs = &ws.expand_bufs;
    trace_span!(PhaseKind::Multiply, "spgemm:unpack-multiply", {
        par_ranks(threads, &mut ws.ranks, |r, scratch| {
            decode_expand(scratch, &a.blocks[r], compiled.expand_rank(r), ebufs);
            scratch.terms = gustavson(scratch, &a.blocks[r], b);
        })
    });
    let multiply_costs: Vec<PhaseCost> = ws
        .ranks
        .iter()
        .map(|s| PhaseCost::compute(2 * s.terms))
        .collect();
    ledger.superstep(Phase::Multiply, &multiply_costs);

    // Phase 3 — fold: serialize the partial rows bound for other owners.
    let ranks = &ws.ranks;
    trace_span!(PhaseKind::Pack, "spgemm:fold-pack", {
        par_ranks(threads, &mut ws.fold_bufs, |r, buf| {
            pack_fold(buf, compiled.fold_rank(r), &ranks[r]);
        })
    });
    let fold = exchange_stats(&ws.fold_bufs, &compiled.fold);
    ledger.superstep(Phase::Fold, &fold.costs);
    if let Some(rt) = chaos {
        let (sends, views) = payload_views(&ws.fold_bufs, &compiled.fold);
        rt.mirror_exchange(ledger, "spgemm fold", &sends, Some(&views));
    }

    // Phase 4 — merge at the owners, fixed rank order per row.
    let fbufs = &ws.fold_bufs;
    trace_span!(PhaseKind::Merge, "spgemm:merge", {
        par_ranks(threads, &mut ws.ranks, |r, scratch| {
            scratch.merged = merge_rank(scratch, vmap.nlocal(r), compiled.fold_rank(r), fbufs);
        })
    });
    let merge_costs: Vec<PhaseCost> = ws
        .ranks
        .iter()
        .map(|s| PhaseCost::compute(s.merged))
        .collect();
    ledger.superstep(Phase::Merge, &merge_costs);
    publish_drain_arms("ef", ws.ranks.iter().map(|s| &s.spa));

    // Phase 5 — close nnz(C) and assemble the output blocks.
    let rows = ws.ranks.iter().map(|s| &s.out);
    let (locals, nnz) = close_output(vmap, b.ncols(), rows, ledger);
    DistSpgemm {
        vmap: Arc::clone(vmap),
        ncols: b.ncols(),
        locals,
        nnz,
        expand,
        fold,
        multiply_flops: ws.ranks.iter().map(|s| 2 * s.terms).collect(),
        merge_flops: ws.ranks.iter().map(|s| s.merged).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::spgemm;
    use sf2d_partition::{grid_shape, MatrixDist};
    use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
    use sf2d_sim::Machine;

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
        for r in 0..dm.nprocs() {
            assert_eq!(c.expand.send_msgs[r], dm.import.sends[r].len() as u64);
            assert_eq!(c.fold.send_msgs[r], dm.export.recvs[r].len() as u64);
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
        let (src, dst) = dm
            .import
            .sends
            .iter()
            .enumerate()
            .find_map(|(r, out)| out.first().map(|(d, _)| (r as u32, *d)))
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
}
