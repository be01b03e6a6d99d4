//! The 4-phase distributed SpMV of the paper's §2.1.
//!
//! ```text
//! 1. Expand:  send x_j to the ranks owning a nonzero a_ij   (import plan)
//! 2. Local:   y_loc += A_loc x_loc
//! 3. Fold:    send partial y_i to the owner of y_i          (export plan)
//! 4. Sum:     y = Σ received partials
//! ```
//!
//! 1D layouts skip phases 3–4 (their export plans are empty, costing
//! nothing), exactly as the paper notes "for 1D distributions, only the
//! first two phases are necessary".
//!
//! Execution runs on the **compiled** local-index schedules built at
//! matrix construction ([`CompiledSpmv`](crate::compiled::CompiledSpmv)):
//! no gid resolution happens per iteration, and both exchanges read
//! values where the sender left them (zero-copy transport, nothing paid
//! per *message*: at large p on a 1D layout nearly every message carries
//! one value). The expand copies every rank's owned x entries once into
//! the workspace's **x window** ([`VectorMap::local_base`]) and fills a
//! rank's `xcols` with one gather, `xcols[lid] = window[gather[lid]]`,
//! through a list lowered from its column map. The fold reads the
//! workspace's **partials buffer**, where the kernel wrote every rank's
//! partials (rank-major, column-major within a rank): per unpack entry
//! `(src, payload_off)` an owner adds the partial rows that `src`'s own
//! pack list names from `payload_off` on. Per product the executor
//! allocates only the vectors of window slices, per-wave scratch views
//! and summing groups. The per-rank phase work can fan out across OS
//! threads (the workspace's `threads` knob) bit-identically: ranks write
//! disjoint slices.
//!
//! [`spmv`] and [`spmm`] share one executor: an SpMV is a width-1 SpMM
//! (same schedules, same layouts, costs widened by
//! [`PhaseCost::widened`] — at width 1 the compiled cost vectors are
//! charged as they stand, above it through one workspace-resident
//! buffer). Phase 2 is one call per rank into the block kernel,
//! [`RankBlock::multiply`](crate::distmat::RankBlock::multiply), which
//! sweeps the block's rows in their stored `(nnz, gid)` order and writes
//! the partials by stored row; the compiled fold lists index them the
//! same way, so no permutation runs per product. A wider product goes
//! through the kernel [`SPMM_CHUNK`] columns at a time: `xcols` is
//! row-major over one chunk (`xcols[lid·w + c]`, each entry one
//! contiguous copy out of the gid-major window), so indices, values and
//! loop exits are read once per chunk rather than once per column, while
//! `partials` stay column-major and phases 3–4 do not know. When the
//! workspace carries a **live-memory budget**, the gather/compute work
//! runs in contiguous rank waves over one reusable `xcols` arena
//! ([`sf2d_sim::wave`]): a rank's phase work reads only cross-rank state
//! frozen before the phase (the window written in phase 1; the partials
//! are read across ranks only in phase 4), so wave scheduling is
//! invisible to both the results and the ledger. The original gid-based
//! executors live on in [`reference`](crate::reference) as the oracle —
//! they read every row through `RankBlock::row` and sum it with the plain
//! serial loop — and the property tests in `tests/proptest_compiled.rs`
//! pin this path to it bit-for-bit, ledger included.
//!
//! Fault injection is an argument of that executor, not a second one:
//! [`spmv_chaos_with`] / [`spmm_chaos_with`] (and the no-workspace
//! [`spmv_chaos`]) pass `run_phases` a [`ChaosRuntime`], and right after
//! each exchange's superstep is charged its payloads are handed — the
//! send side as a sender-major copy built through the pack lists, the
//! receive side as what each rank reads (in the expand its remote columns
//! grouped by owner, through its gather list; in the fold its unpack
//! entries, through the sender's pack list at the entry's payload
//! offset) — to [`ChaosRuntime::mirror_exchange`],
//! which clones them onto the fault-injecting wire, checks every healed
//! delivery against what the receiving rank reads, and bills the extra
//! traffic as a `Retransmit` superstep (none at rate 0, where the run is
//! byte-identical, ledger included). Only the ledger can differ. Chaos
//! superstep indices for [`FaultScript`](sf2d_sim::fault) targeting: the
//! k-th chaos-routed product routes its expand exchange at step `2k` and
//! its fold exchange at step `2k + 1`, empty exchanges included.

use std::cell::Cell;
use std::sync::Arc;

use sf2d_obs::{trace_span, PhaseKind};
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::{ChaosRuntime, PeerPayloads};
use sf2d_sim::runtime::par_ranks;

use crate::compiled::{xcols_len, PhasePlan, SpmvWorkspace};
use crate::distmat::{DistCsrMatrix, SPMM_CHUNK};
use crate::map::{groups, VectorMap};
use crate::multivec::{DistMultiVector, DistVector};

thread_local! {
    // Thread-local (not a global atomic) so parallel test threads don't
    // see each other's counts.
    static GATHER_EXECUTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of expand-phase gather executions issued **on this thread** so
/// far. [`spmv`] issues one per call; [`spmm`] issues one per call
/// *regardless of the column count* — the whole point of blocking.
pub fn gather_executions() -> u64 {
    GATHER_EXECUTIONS.with(|c| c.get())
}

fn note_gather() {
    GATHER_EXECUTIONS.with(|c| c.set(c.get() + 1));
}

/// The one statement of "these vectors live on the matrix's
/// distribution": pointer-equal maps, or structurally equal ones.
fn assert_maps_compatible(a: &DistCsrMatrix, x: &Arc<VectorMap>, y: &Arc<VectorMap>) {
    assert!(
        Arc::ptr_eq(x, &a.vmap) || x.same_distribution(&a.vmap),
        "x map mismatch"
    );
    assert!(
        Arc::ptr_eq(y, &a.vmap) || y.same_distribution(&a.vmap),
        "y map mismatch"
    );
}

/// Column access shared by [`DistVector`] (one column) and
/// [`DistMultiVector`] — what lets SpMV and SpMM share one executor.
trait ColumnAccess: Sync {
    fn ncols(&self) -> usize;
    /// Rank `r`'s values, column-major (`local[c·nl + lid]`).
    fn local(&self, r: usize) -> &[f64];
}

impl ColumnAccess for DistVector {
    fn ncols(&self) -> usize {
        1
    }
    #[inline]
    fn local(&self, r: usize) -> &[f64] {
        &self.locals[r]
    }
}

impl ColumnAccess for DistMultiVector {
    fn ncols(&self) -> usize {
        self.ncols
    }
    #[inline]
    fn local(&self, r: usize) -> &[f64] {
        &self.locals[r]
    }
}

/// Trace-span labels, so the shared executor reports as `spmv:*` or
/// `spmm:*` depending on the entry point.
struct SpanNames {
    pack: &'static str,
    compute: &'static str,
    sum: &'static str,
}

const SPMV_SPANS: SpanNames = SpanNames {
    pack: "spmv:expand-pack",
    compute: "spmv:unpack-compute",
    sum: "spmv:sum-unpack",
};

const SPMM_SPANS: SpanNames = SpanNames {
    pack: "spmm:expand-pack",
    compute: "spmm:unpack-compute",
    sum: "spmm:sum-unpack",
};

/// Computes `y = A x`, charging each phase to the ledger.
///
/// Convenience wrapper over [`spmv_with`] that allocates a throwaway
/// sequential workspace — fine for one-off products; iterative callers
/// should hold a [`SpmvWorkspace`] across calls.
///
/// # Panics
/// Panics if `x` or `y` is on a different distribution than the matrix.
pub fn spmv(a: &DistCsrMatrix, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
    spmv_with(a, x, y, ledger, &mut SpmvWorkspace::new());
}

/// Computes `y = A x` through a reusable workspace: scratch buffers are
/// borrowed from `ws` (resized on first use with each matrix), the
/// per-rank phase work fans out across `ws.threads` OS threads, and a
/// workspace budget executes the rank work in bounded-memory waves.
///
/// # Panics
/// Panics if `x` or `y` is on a different distribution than the matrix.
pub fn spmv_with(
    a: &DistCsrMatrix,
    x: &DistVector,
    y: &mut DistVector,
    ledger: &mut CostLedger,
    ws: &mut SpmvWorkspace,
) {
    assert_maps_compatible(a, &x.map, &y.map);
    run_phases(a, x, &mut y.locals, ledger, ws, &SPMV_SPANS, None);
}

/// [`spmv_with`] with both exchanges also routed through a chaos wire.
///
/// The healed deliveries are asserted bit-identical to the resident
/// payloads (message by message), so the result — and, at rate 0,
/// the ledger — is byte-identical to the plain run; injected faults only
/// add `Retransmit` supersteps.
pub fn spmv_chaos_with(
    a: &DistCsrMatrix,
    x: &DistVector,
    y: &mut DistVector,
    ledger: &mut CostLedger,
    ws: &mut SpmvWorkspace,
    rt: &mut ChaosRuntime,
) {
    assert_maps_compatible(a, &x.map, &y.map);
    run_phases(a, x, &mut y.locals, ledger, ws, &SPMV_SPANS, Some(rt));
}

/// `y = A x` under fault injection: convenience wrapper over
/// [`spmv_chaos_with`] with a throwaway sequential workspace, as
/// [`spmv`] is over [`spmv_with`].
pub fn spmv_chaos(
    a: &DistCsrMatrix,
    x: &DistVector,
    y: &mut DistVector,
    ledger: &mut CostLedger,
    rt: &mut ChaosRuntime,
) {
    spmv_chaos_with(a, x, y, ledger, &mut SpmvWorkspace::new(), rt);
}

/// Blocked SpMM `Y = A X` over a [`DistMultiVector`].
///
/// Convenience wrapper over [`spmm_with`] with a throwaway workspace.
pub fn spmm(
    a: &DistCsrMatrix,
    x: &DistMultiVector,
    y: &mut DistMultiVector,
    ledger: &mut CostLedger,
) {
    spmm_with(a, x, y, ledger, &mut SpmvWorkspace::new());
}

/// Blocked SpMM `Y = A X` through a reusable workspace.
///
/// Identical communication *pattern* to [`spmv`] but the expand and fold
/// each execute as **one** gather whose messages interleave all `ncols`
/// values of an entry (gid-major stride: value `k·m + c` is column `c` of
/// the message's `k`-th entry). Message counts stay the same while bytes
/// scale with `ncols` — the latency-amortization that makes block Krylov
/// methods communication-efficient. Costs are charged accordingly
/// (msgs ×1, bytes × ncols, flops × ncols).
pub fn spmm_with(
    a: &DistCsrMatrix,
    x: &DistMultiVector,
    y: &mut DistMultiVector,
    ledger: &mut CostLedger,
    ws: &mut SpmvWorkspace,
) {
    assert_eq!(x.ncols, y.ncols, "column count mismatch");
    assert_maps_compatible(a, &x.map, &y.map);
    run_phases(a, x, &mut y.locals, ledger, ws, &SPMM_SPANS, None);
}

/// [`spmm_with`] with both exchanges also routed through a chaos wire —
/// the serving fault model: a coalesced query batch is one SpMM whose
/// expand and fold payloads ride the misbehaving transport and must heal
/// to the fault-free bits. See [`spmv_chaos_with`] for the contract.
pub fn spmm_chaos_with(
    a: &DistCsrMatrix,
    x: &DistMultiVector,
    y: &mut DistMultiVector,
    ledger: &mut CostLedger,
    ws: &mut SpmvWorkspace,
    rt: &mut ChaosRuntime,
) {
    assert_eq!(x.ncols, y.ncols, "column count mismatch");
    assert_maps_compatible(a, &x.map, &y.map);
    run_phases(a, x, &mut y.locals, ledger, ws, &SPMM_SPANS, Some(rt));
}

/// Hands one exchange to [`ChaosRuntime::mirror_exchange`], built only
/// under chaos: the sends as a sender-major copy, value by value through
/// each rank's pack lists (`send(r, i, out)` appends the `m` values of
/// rank `r`'s index `i`), and the receive views as what each rank reads,
/// message by message (`recv(d, out)` appends rank `d`'s received values
/// and returns its messages as `(src, indices)`).
fn mirror(
    (rt, ledger): (&mut ChaosRuntime, &mut CostLedger),
    (what, phase, m): (&str, &PhasePlan, usize),
    send: impl Fn(usize, u32, &mut Vec<f64>),
    recv: impl Fn(usize, &mut Vec<f64>) -> Vec<(u32, usize)>,
) {
    let p = phase.nranks();
    let (mut sent, mut got, mut inbound) = (Vec::new(), Vec::new(), Vec::with_capacity(p));
    for r in 0..p {
        for &i in phase.pack_indices(r) {
            send(r, i, &mut sent);
        }
        inbound.push(recv(r, &mut got));
    }
    // Both copies are message after message: cut them in that order.
    fn cut<'a>(buf: &mut &'a [f64], n: usize) -> &'a [f64] {
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        head
    }
    let (mut sent, mut got) = (&sent[..], &got[..]);
    let sends: Vec<PeerPayloads> = (0..p)
        .map(|r| {
            let packs = phase.rank(r).packs();
            packs
                .map(|(dst, lids, _)| (dst, cut(&mut sent, lids.len() * m)))
                .collect()
        })
        .collect();
    let views: Vec<PeerPayloads> = (inbound.iter())
        .map(|msgs| {
            let msgs = msgs.iter();
            msgs.map(|&(src, n)| (src, cut(&mut got, n * m))).collect()
        })
        .collect();
    rt.mirror_exchange(ledger, what, &sends, &views);
}

/// Charges one superstep of a width-`m` product: the compiled per-rank
/// costs as they stand at width 1, widened into the workspace's buffer
/// above it.
fn charge(
    ledger: &mut CostLedger,
    phase: Phase,
    costs: &[PhaseCost],
    m: usize,
    widened: &mut Vec<PhaseCost>,
) {
    if m == 1 {
        ledger.superstep(phase, costs);
    } else {
        widened.clear();
        widened.extend(costs.iter().map(|c| c.widened(m as u64)));
        ledger.superstep(phase, widened);
    }
}

/// Copies one rank's owned x entries into its region of the x window at
/// width `m`: slot `k` takes the `m` values of entry `k`, adjacent
/// (gid-major), out of the column-major `cols` (`cols[c·n + k]`).
fn transpose(region: &mut [f64], cols: &[f64], m: usize) {
    let n = cols.len() / m;
    for (k, vals) in region.chunks_exact_mut(m).enumerate() {
        for (c, out) in vals.iter_mut().enumerate() {
            *out = cols[c * n + k];
        }
    }
}

/// The shared 4-phase executor at SpMM width `x.ncols()` (1 = SpMV).
///
/// `y_locals[r]` holds rank `r`'s output, column-major (`yl[c·nl + lid]`).
/// Phase 2 runs wave-by-wave over the workspace's scratch arena; the
/// ledger charges the four canonical supersteps in order regardless of
/// the wave count, so budgeted and all-resident runs have byte-identical
/// histories. With a chaos runtime, the expand and fold payloads are
/// additionally mirrored onto the fault-injecting wire right after their
/// supersteps are charged (both phases route even when a plan is empty,
/// so routing-step numbering stays fixed at two steps per product).
fn run_phases<X: ColumnAccess>(
    a: &DistCsrMatrix,
    x: &X,
    y_locals: &mut [Vec<f64>],
    ledger: &mut CostLedger,
    ws: &mut SpmvWorkspace,
    spans: &SpanNames,
    mut chaos: Option<&mut ChaosRuntime>,
) {
    let m = x.ncols();
    ws.ensure(a, m);
    let SpmvWorkspace {
        threads,
        scratch,
        widened,
        window,
        partials,
        part_base,
        waves,
        ..
    } = ws;
    let threads = *threads;
    let (compiled, vmap) = (&a.compiled, &a.vmap);
    let (expand, fold) = (&compiled.expand, &compiled.fold);
    let window = &mut window[..vmap.n() * m];
    let partials = &mut partials[..part_base[expand.nranks()] * m];

    // Phase 1 — expand: every rank copies its owned x entries, gid-major,
    // into its slice of the x window. Transport is zero-copy: a reader
    // reads each value where it lives, at the slot its gather list names.
    trace_span!(PhaseKind::Pack, spans.pack, {
        let mut rest = &mut *window;
        let mut regions: Vec<&mut [f64]> = Vec::with_capacity(expand.nranks());
        for r in 0..expand.nranks() {
            let (region, tail) = rest.split_at_mut(vmap.nlocal(r) * m);
            rest = tail;
            regions.push(region);
        }
        par_ranks(threads, &mut regions, |r, region| match m {
            1 => region.copy_from_slice(x.local(r)),
            _ => transpose(region, x.local(r), m),
        })
    });
    note_gather();
    charge(ledger, Phase::Expand, &compiled.expand_costs, m, widened);
    let window = &*window;
    let slot = |s: usize| &window[s * m..][..m];
    if let Some(rt) = chaos.as_deref_mut() {
        let send = |r, i: u32, out: &mut Vec<f64>| {
            out.extend_from_slice(slot(vmap.local_base(r) + i as usize))
        };
        // A receiver's messages are its remote columns by owner, each
        // value read where its gather list points.
        let read = |d: usize, out: &mut Vec<f64>| {
            let (need, gather) = (
                vmap.remote_by_owner(d, &a.blocks[d].colmap),
                expand.gather(d),
            );
            out.extend(
                need.iter()
                    .flat_map(|e| slot(gather[e.1 as usize] as usize)),
            );
            groups(&need).map(|g| (g[0].0, g.len())).collect()
        };
        mirror((rt, ledger), ("spmv expand", expand, m), send, read);
    }

    // Phase 2 — local compute, wave by wave: each wave carves per-rank
    // xcols views out of the shared scratch arena and runs gather + local
    // kernel into the rank's (contiguous) region of the partials buffer,
    // which it indexes by stored row. Safe to interleave across waves
    // because a rank's work reads only its own views plus the window
    // (written in phase 1); no zeroing is needed because the gather list
    // covers every xcols position and the kernel overwrites its whole
    // output slice. A wider product goes chunk by chunk: xcols holds
    // SPMM_CHUNK columns row-major, each lid's values one contiguous copy
    // out of the gid-major window.
    let mut part_rest = &mut *partials;
    for w in waves.iter() {
        let mut rest: &mut [f64] = scratch;
        let mut views: Vec<(&mut [f64], &mut [f64])> = Vec::with_capacity(w.len());
        for r in w.clone() {
            let (xc, tail) = rest.split_at_mut(xcols_len(&a.blocks[r], m));
            rest = tail;
            let rows = (part_base[r + 1] - part_base[r]) * m;
            let (pt, tail) = std::mem::take(&mut part_rest).split_at_mut(rows);
            part_rest = tail;
            views.push((xc, pt));
        }
        trace_span!(PhaseKind::LocalCompute, spans.compute, {
            par_ranks(threads, &mut views, |i, (xcols, partials)| {
                let r = w.start + i;
                let gather = expand.gather(r);
                let block = &a.blocks[r];
                if m == 1 {
                    for (x, &s) in xcols.iter_mut().zip(gather) {
                        *x = window[s as usize];
                    }
                    return block.multiply(xcols, 1, partials);
                }
                let rl = block.rowmap.len();
                for c0 in (0..m).step_by(SPMM_CHUNK) {
                    let cw = SPMM_CHUNK.min(m - c0);
                    let xcols = &mut xcols[..cw * block.colmap.len()];
                    for (x, &s) in xcols.chunks_exact_mut(cw).zip(gather) {
                        x.copy_from_slice(&window[s as usize * m + c0..][..cw]);
                    }
                    block.multiply(xcols, cw, &mut partials[c0 * rl..(c0 + cw) * rl]);
                }
            })
        });
    }
    charge(
        ledger,
        Phase::LocalCompute,
        &compiled.compute_costs,
        m,
        widened,
    );

    // Phase 3 — fold: zero-copy, like the expand. An owner reads each
    // partial it is sent in column `c` of its sender's partials, indexed
    // by stored row, at the row the sender's pack list names.
    charge(ledger, Phase::Fold, &compiled.fold_costs, m, widened);
    let partials = &*partials;
    let column = |r: usize, c: usize| {
        let rl = part_base[r + 1] - part_base[r];
        &partials[part_base[r] * m + c * rl..][..rl]
    };
    let row = |r: usize, s: u32, out: &mut Vec<f64>| {
        out.extend((0..m).map(|c| column(r, c)[s as usize]));
    };
    if let Some(rt) = chaos {
        let read = |d: usize, out: &mut Vec<f64>| {
            let msgs = fold.rank(d).unpacks().map(|(src, _, off, lids)| {
                let sent = fold.sent(src, off, lids.len()).iter();
                sent.for_each(|&i| row(src as usize, i, out));
                (src, lids.len())
            });
            msgs.collect()
        };
        mirror((rt, ledger), ("spmv fold", fold, m), row, read);
    }

    // Phase 4 — sum: per y element, the owned partial first, then the
    // arriving partials in receive-list order (sources ascending) — the
    // reference executor's per-element order, which is what makes the
    // result bit-identical. Each thread takes a contiguous group of
    // owners and adds what they receive column by column, so what it
    // reads at a time is one column of the senders' partials, not every
    // column of each.
    trace_span!(PhaseKind::Unpack, spans.sum, {
        let group = y_locals.len().div_ceil(threads).max(1);
        let mut groups: Vec<&mut [Vec<f64>]> = y_locals.chunks_mut(group).collect();
        par_ranks(threads, &mut groups, |g, owners| {
            for (r, yl) in (g * group..).zip(owners.iter_mut()) {
                let nl = vmap.nlocal(r);
                yl.fill(0.0);
                for c in 0..m {
                    let mine = column(r, c);
                    for (pi, lid) in fold.rank(r).owned_pairs() {
                        yl[c * nl + lid as usize] += mine[pi as usize];
                    }
                }
            }
            for c in 0..m {
                for (r, yl) in (g * group..).zip(owners.iter_mut()) {
                    let y = &mut yl[c * vmap.nlocal(r)..];
                    for (src, _, off, lids) in fold.rank(r).unpacks() {
                        let theirs = column(src as usize, c);
                        for (&d, &s) in lids.iter().zip(fold.sent(src, off, lids.len())) {
                            y[d as usize] += theirs[s as usize];
                        }
                    }
                }
            }
        })
    });
    charge(ledger, Phase::Sum, &compiled.sum_costs, m, widened);
}

#[cfg(test)]
mod tests {
    use super::*;

    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_partition::{grid_shape, GpConfig, MatrixDist};
    use sf2d_sim::{CostLedger, Machine};

    fn check_layout(a: &sf2d_graph::CsrMatrix, dist: &MatrixDist) {
        let dm = DistCsrMatrix::from_global(a, dist);
        let x_global: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 31 + 7) % 13) as f64 - 6.0)
            .collect();
        let x = DistVector::from_global(Arc::clone(&dm.vmap), &x_global);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        spmv(&dm, &x, &mut y, &mut ledger);
        let want = a.spmv_dense(&x_global);
        let got = y.to_global();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "row {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn all_layouts_match_sequential_on_rmat() {
        let a = rmat(&RmatConfig::graph500(7), 11);
        let n = a.nrows();
        for p in [1usize, 4, 6] {
            let (pr, pc) = grid_shape(p);
            check_layout(&a, &MatrixDist::block_1d(n, p));
            check_layout(&a, &MatrixDist::random_1d(n, p, 5));
            check_layout(&a, &MatrixDist::block_2d(n, pr, pc));
            check_layout(&a, &MatrixDist::random_2d(n, pr, pc, 6));
        }
    }

    #[test]
    fn gp_layouts_match_sequential() {
        let a = grid_2d(12, 12);
        let g = sf2d_graph::Graph::from_symmetric_matrix(&a);
        let part = sf2d_partition::partition_graph(&g, 6, &GpConfig::default());
        check_layout(&a, &MatrixDist::from_partition_1d(&part));
        let (pr, pc) = grid_shape(6);
        check_layout(&a, &MatrixDist::cartesian_2d(&part, pr, pc, false));
        check_layout(&a, &MatrixDist::cartesian_2d(&part, pr, pc, true));
    }

    #[test]
    fn expand_volume_charged_matches_plan() {
        let a = rmat(&RmatConfig::graph500(6), 2);
        let d = MatrixDist::block_1d(a.nrows(), 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        // Unit-alpha, zero-beta/gamma machine: total expand time = max over
        // ranks of (messages sent + received), since both endpoints pay α.
        let m = Machine {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            name: "msgs",
        };
        let mut ledger = CostLedger::new(m);
        spmv(&dm, &x, &mut y, &mut ledger);
        let expand = ledger.by_phase[&Phase::Expand];
        let (import, _) = crate::reference::gid_plans(&dm);
        let want = (0..4)
            .map(|r| import.sends[r].len() + import.recvs[r].len())
            .max()
            .unwrap();
        assert_eq!(expand as usize, want);
    }

    #[test]
    fn one_d_has_zero_fold_time() {
        let a = rmat(&RmatConfig::graph500(6), 3);
        let d = MatrixDist::random_1d(a.nrows(), 5, 1);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 3);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        spmv(&dm, &x, &mut y, &mut ledger);
        assert_eq!(
            ledger.by_phase.get(&Phase::Fold).copied().unwrap_or(0.0),
            0.0
        );
        assert!(ledger.by_phase[&Phase::Expand] > 0.0);
    }

    #[test]
    fn spmm_matches_column_wise_spmv() {
        let a = rmat(&RmatConfig::graph500(6), 4);
        let d = MatrixDist::block_2d(a.nrows(), 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * (c + 2) + 1) % 7) as f64 - 3.0)
                    .collect()
            })
            .collect();
        let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
        let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), 3);
        let mut ledger = CostLedger::new(Machine::cab());
        spmm(&dm, &x, &mut y, &mut ledger);
        for (c, col) in cols.iter().enumerate() {
            let want = a.spmv_dense(col);
            let got = y.col_to_global(c);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "col {c}");
            }
        }
    }

    #[test]
    fn spmm_amortizes_latency_vs_repeated_spmv() {
        let a = rmat(&RmatConfig::graph500(8), 6);
        let d = MatrixDist::random_1d(a.nrows(), 16, 2);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let m = 8usize;

        // m separate SpMVs.
        let x = DistVector::random(Arc::clone(&dm.vmap), 1);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l_single = CostLedger::new(Machine::cab());
        for _ in 0..m {
            spmv(&dm, &x, &mut y, &mut l_single);
        }

        // One m-column SpMM.
        let cols: Vec<Vec<f64>> = (0..m).map(|_| x.to_global()).collect();
        let xm = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
        let mut ym = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
        let mut l_block = CostLedger::new(Machine::cab());
        spmm(&dm, &xm, &mut ym, &mut l_block);

        // Same bytes and flops, 1/m the messages: strictly cheaper.
        assert!(
            l_block.total < l_single.total,
            "blocked {} not below repeated {}",
            l_block.total,
            l_single.total
        );
    }

    #[test]
    fn repeated_spmv_accumulates_time_linearly() {
        let a = grid_2d(8, 8);
        let d = MatrixDist::block_2d(64, 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 7);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        spmv(&dm, &x, &mut y, &mut ledger);
        let t1 = ledger.total;
        for _ in 0..9 {
            spmv(&dm, &x, &mut y, &mut ledger);
        }
        assert!((ledger.total - 10.0 * t1).abs() < 1e-12 * ledger.total.max(1e-30));
    }

    #[test]
    #[should_panic(expected = "x map mismatch")]
    fn spmv_rejects_structurally_different_x_map() {
        // Same n, same rank count, different ownership: the old
        // length-only check let this through and the result silently
        // misaligned every local slice.
        let a = rmat(&RmatConfig::graph500(6), 9);
        let n = a.nrows();
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_1d(n, 4));
        let other = Arc::new(crate::map::VectorMap::from_dist(&MatrixDist::random_1d(
            n, 4, 3,
        )));
        let x = DistVector::zeros(other);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        spmv(&dm, &x, &mut y, &mut CostLedger::new(Machine::cab()));
    }

    #[test]
    fn equal_distribution_on_a_different_map_instance_is_accepted() {
        // Structural compatibility, not pointer identity, is the contract.
        let a = rmat(&RmatConfig::graph500(6), 9);
        let n = a.nrows();
        let d = MatrixDist::block_1d(n, 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let clone_map = Arc::new(crate::map::VectorMap::from_dist(&d));
        let x = DistVector::random(Arc::clone(&clone_map), 2);
        let mut y = DistVector::zeros(clone_map);
        spmv(&dm, &x, &mut y, &mut CostLedger::new(Machine::cab()));
    }

    #[test]
    fn threaded_execution_is_bit_identical_to_sequential() {
        let a = rmat(&RmatConfig::graph500(8), 13);
        let d = MatrixDist::block_2d(a.nrows(), 4, 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 5);

        let mut y_seq = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l_seq = CostLedger::new(Machine::cab());
        spmv_with(&dm, &x, &mut y_seq, &mut l_seq, &mut SpmvWorkspace::new());

        for threads in [2usize, 7] {
            let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
            let mut l = CostLedger::new(Machine::cab());
            spmv_with(
                &dm,
                &x,
                &mut y,
                &mut l,
                &mut SpmvWorkspace::with_threads(threads),
            );
            for (r, (sl, tl)) in y_seq.locals.iter().zip(&y.locals).enumerate() {
                let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
                let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, tb, "rank {r}, threads {threads}");
            }
            assert_eq!(l.history, l_seq.history, "threads {threads}");
            assert_eq!(l.total.to_bits(), l_seq.total.to_bits());
        }
    }

    #[test]
    fn budgeted_waves_are_bit_identical_to_all_resident() {
        let a = rmat(&RmatConfig::graph500(8), 17);
        let d = MatrixDist::random_2d(a.nrows(), 4, 4, 3);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 9);

        let mut y_full = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l_full = CostLedger::new(Machine::cab());
        let mut ws_full = SpmvWorkspace::new();
        spmv_with(&dm, &x, &mut y_full, &mut l_full, &mut ws_full);
        assert_eq!(ws_full.wave_count(), 1);

        // Budgets from "everything" down to "one rank at a time", with
        // and without threads: identical values and ledger histories.
        for budget in [ws_full.scratch_bytes(), ws_full.scratch_bytes() / 4, 0] {
            for threads in [1usize, 3] {
                let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
                let mut l = CostLedger::new(Machine::cab());
                let mut ws = SpmvWorkspace::with_threads(threads).with_budget(budget);
                spmv_with(&dm, &x, &mut y, &mut l, &mut ws);
                if budget == 0 {
                    assert_eq!(ws.wave_count(), dm.nprocs());
                }
                for (r, (sl, tl)) in y_full.locals.iter().zip(&y.locals).enumerate() {
                    let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
                    let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sb, tb, "rank {r}, budget {budget}, threads {threads}");
                }
                assert_eq!(l.history, l_full.history, "budget {budget}");
                assert_eq!(l.total.to_bits(), l_full.total.to_bits());
            }
        }
    }

    #[test]
    fn budgeted_spmm_matches_unbudgeted_bitwise() {
        let a = rmat(&RmatConfig::graph500(7), 23);
        let d = MatrixDist::block_2d(a.nrows(), 2, 3);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let n = a.nrows();
        let m = 4usize;
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * (c + 3) + 5) % 11) as f64 - 5.0)
                    .collect()
            })
            .collect();
        let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);

        let mut y_full = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
        let mut l_full = CostLedger::new(Machine::cab());
        spmm_with(&dm, &x, &mut y_full, &mut l_full, &mut SpmvWorkspace::new());

        let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
        let mut l = CostLedger::new(Machine::cab());
        let mut ws = SpmvWorkspace::new().with_budget(0);
        spmm_with(&dm, &x, &mut y, &mut l, &mut ws);
        assert_eq!(ws.wave_count(), dm.nprocs());
        for (sl, tl) in y_full.locals.iter().zip(&y.locals) {
            let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
            let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, tb);
        }
        assert_eq!(l.history, l_full.history);
        assert_eq!(l.total.to_bits(), l_full.total.to_bits());
    }

    #[test]
    fn spmm_issues_exactly_one_gather_regardless_of_width() {
        let a = rmat(&RmatConfig::graph500(6), 4);
        let d = MatrixDist::block_2d(a.nrows(), 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let n = a.nrows();
        for m in [1usize, 5] {
            let cols: Vec<Vec<f64>> = (0..m)
                .map(|c| (0..n).map(|i| (i * (c + 1)) as f64 / n as f64).collect())
                .collect();
            let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
            let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
            let before = gather_executions();
            spmm(&dm, &x, &mut y, &mut CostLedger::new(Machine::cab()));
            assert_eq!(gather_executions() - before, 1, "ncols {m}");
        }
        // An spmv is likewise one gather.
        let x = DistVector::random(Arc::clone(&dm.vmap), 1);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let before = gather_executions();
        spmv(&dm, &x, &mut y, &mut CostLedger::new(Machine::cab()));
        assert_eq!(gather_executions() - before, 1);
    }

    #[test]
    fn chaos_rate_zero_spmm_is_byte_identical_to_plain() {
        let a = rmat(&RmatConfig::graph500(7), 29);
        let d = MatrixDist::block_2d(a.nrows(), 2, 3);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..n).map(|i| ((i * (c + 2)) % 9) as f64 - 4.0).collect())
            .collect();
        let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);

        let mut y0 = DistMultiVector::zeros(Arc::clone(&dm.vmap), 3);
        let mut l0 = CostLedger::new(Machine::cab());
        spmm_with(&dm, &x, &mut y0, &mut l0, &mut SpmvWorkspace::new());

        let mut y1 = DistMultiVector::zeros(Arc::clone(&dm.vmap), 3);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut rt = sf2d_sim::ChaosRuntime::seeded(42, 0.0);
        spmm_chaos_with(
            &dm,
            &x,
            &mut y1,
            &mut l1,
            &mut SpmvWorkspace::new(),
            &mut rt,
        );
        for (sl, tl) in y0.locals.iter().zip(&y1.locals) {
            let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
            let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, tb);
        }
        assert_eq!(l0.history, l1.history);
        assert_eq!(l0.total.to_bits(), l1.total.to_bits());
        assert!(!rt.stats.any());
    }

    #[test]
    fn chaos_scripted_expand_drop_bills_exactly_one_retransmit_step() {
        use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
        let a = rmat(&RmatConfig::graph500(7), 29);
        let d = MatrixDist::block_2d(a.nrows(), 2, 3);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 3);
        // Drop the first real expand message (routing step 0); the fold
        // round (step 1) stays clean.
        let (src, (dst, gids, _)) = (0..dm.nprocs())
            .find_map(|r| (dm.compiled.expand_rank(r).packs().next()).map(|m| (r as u32, m)))
            .expect("2x3 block layout always has expand traffic");
        let mut rt = sf2d_sim::ChaosRuntime::scripted(FaultScript::default().fault(
            0,
            src,
            dst,
            0,
            FaultKind::Drop,
        ));
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l = CostLedger::new(Machine::cab());
        spmv_chaos(&dm, &x, &mut y, &mut l, &mut rt);

        let mut y0 = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l0 = CostLedger::new(Machine::cab());
        crate::reference::spmv_ref(&dm, &x, &mut y0, &mut l0);
        for (sl, tl) in y0.locals.iter().zip(&y.locals) {
            let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
            let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, tb);
        }
        assert_eq!(rt.stats.drops, 1);
        // Exactly one extra superstep: the retransmit after the expand —
        // sender 2 msgs + (payload + NACK) bytes, receiver the NACK.
        assert_eq!(l.steps, l0.steps + 1);
        let payload = 8 * gids.len() as u64;
        let m = Machine::cab();
        let want = (m.alpha * 2.0 + m.beta * (payload + 8) as f64).max(m.alpha + m.beta * 8.0);
        assert!((l.by_phase[&Phase::Retransmit] - want).abs() < 1e-18);
        assert!(l.total > l0.total);
    }

    #[test]
    fn chaos_seeded_faults_recover_fault_free_bits_across_threads() {
        let a = rmat(&RmatConfig::graph500(7), 31);
        let d = MatrixDist::random_2d(a.nrows(), 2, 3, 5);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..n).map(|i| ((i + c * 3) % 11) as f64 - 5.0).collect())
            .collect();
        let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
        let mut y0 = DistMultiVector::zeros(Arc::clone(&dm.vmap), 4);
        let mut l0 = CostLedger::new(Machine::cab());
        crate::reference::spmm_ref(&dm, &x, &mut y0, &mut l0);
        for threads in [1usize, 2, 8] {
            let mut rt = sf2d_sim::ChaosRuntime::seeded(7, 0.4).with_threads(threads);
            let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), 4);
            let mut l = CostLedger::new(Machine::cab());
            spmm_chaos_with(
                &dm,
                &x,
                &mut y,
                &mut l,
                &mut SpmvWorkspace::with_threads(threads),
                &mut rt,
            );
            assert!(rt.stats.message_faults() > 0, "{:?}", rt.stats);
            for (sl, tl) in y0.locals.iter().zip(&y.locals) {
                let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
                let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, tb, "threads {threads}");
            }
            assert!(l.by_phase[&Phase::Retransmit] > 0.0, "threads {threads}");
            assert!(l.total > l0.total, "faults must cost time");
        }
    }

    #[test]
    #[should_panic(expected = "spmv expand: corrupted delivery")]
    fn chaos_mirror_checks_the_gather_list_against_the_sender() {
        let a = rmat(&RmatConfig::graph500(7), 29);
        let d = MatrixDist::random_1d(a.nrows(), 6, 4);
        let mut dm = DistCsrMatrix::from_global(&a, &d);
        let x_global: Vec<f64> = (0..a.nrows()).map(|i| i as f64 + 0.5).collect();
        let x = DistVector::from_global(Arc::clone(&dm.vmap), &x_global);
        let mut want = DistVector::zeros(Arc::clone(&dm.vmap));
        crate::reference::spmv_ref(&dm, &x, &mut want, &mut CostLedger::new(Machine::cab()));
        // Point one received column of one rank at its neighbouring
        // window slot: a value no sender shipped to it.
        let (r, lid) = (0..dm.nprocs())
            .find_map(|r| {
                let theirs = |g: &u32| dm.vmap.owner(*g) != r as u32;
                (dm.blocks[r].colmap.iter().position(theirs)).map(|lid| (r, lid))
            })
            .expect("a random 1D layout has expand traffic");
        let at = dm.compiled.expand.reads_base[r] as usize + lid;
        let slot = &mut dm.compiled.expand.reads[at];
        *slot = (*slot + 1) % a.nrows() as u32;

        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ws = SpmvWorkspace::new();
        spmv_with(
            &dm,
            &x,
            &mut y,
            &mut CostLedger::new(Machine::cab()),
            &mut ws,
        );
        assert_ne!(
            y.to_global(),
            want.to_global(),
            "a wrong plan gives a wrong y"
        );
        let mut rt = sf2d_sim::ChaosRuntime::seeded(1, 0.0);
        let mut l = CostLedger::new(Machine::cab());
        spmv_chaos_with(&dm, &x, &mut y, &mut l, &mut ws, &mut rt);
    }

    #[test]
    #[should_panic(expected = "spmv fold: corrupted delivery")]
    fn chaos_mirror_checks_the_fold_link_against_the_sender() {
        let a = rmat(&RmatConfig::graph500(7), 29);
        let d = MatrixDist::block_2d(a.nrows(), 2, 3);
        let mut dm = DistCsrMatrix::from_global(&a, &d);
        let x_global: Vec<f64> = (0..a.nrows()).map(|i| i as f64 + 0.5).collect();
        let x = DistVector::from_global(Arc::clone(&dm.vmap), &x_global);
        let mut want = DistVector::zeros(Arc::clone(&dm.vmap));
        crate::reference::spmv_ref(&dm, &x, &mut want, &mut CostLedger::new(Machine::cab()));
        // Move one fold entry back by one value in its sender's pack
        // lists: the owner then reads a partial its sender did not ship
        // to it.
        let fold = &mut dm.compiled.fold;
        let e = (fold.unpack.iter_mut().find(|e| e.payload_off > 0))
            .expect("a 2x3 block layout has senders with two fold messages");
        e.payload_off -= 1;

        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ws = SpmvWorkspace::new();
        spmv_with(
            &dm,
            &x,
            &mut y,
            &mut CostLedger::new(Machine::cab()),
            &mut ws,
        );
        assert_ne!(
            y.to_global(),
            want.to_global(),
            "a wrong plan gives a wrong y"
        );
        let mut rt = sf2d_sim::ChaosRuntime::seeded(1, 0.0);
        let mut l = CostLedger::new(Machine::cab());
        spmv_chaos_with(&dm, &x, &mut y, &mut l, &mut ws, &mut rt);
    }

    #[test]
    fn compiled_path_matches_reference_bitwise() {
        // A deterministic end-to-end pin (the property tests cover random
        // shapes): compiled spmv == reference spmv bit-for-bit.
        let a = rmat(&RmatConfig::graph500(7), 21);
        let d = MatrixDist::random_2d(a.nrows(), 2, 3, 8);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let x = DistVector::random(Arc::clone(&dm.vmap), 11);

        let mut y_ref = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l_ref = CostLedger::new(Machine::cab());
        crate::reference::spmv_ref(&dm, &x, &mut y_ref, &mut l_ref);

        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l = CostLedger::new(Machine::cab());
        spmv(&dm, &x, &mut y, &mut l);

        for (sl, tl) in y_ref.locals.iter().zip(&y.locals) {
            let sb: Vec<u64> = sl.iter().map(|v| v.to_bits()).collect();
            let tb: Vec<u64> = tl.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, tb);
        }
        assert_eq!(l.history, l_ref.history);
        assert_eq!(l.total.to_bits(), l_ref.total.to_bits());
    }
}
