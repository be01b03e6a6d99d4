//! Resilient SpMV: chaos-routed communication plus checkpoint/restart.
//!
//! [`spmv_chaos`] is [`spmv_ref`](crate::reference::spmv_ref) with the
//! plan executors routed through a [`ChaosRuntime`]: the verify-retry
//! protocol heals every injected fault, so the **delivered values are
//! bit-identical** to a fault-free run — only the ledger differs, by
//! exactly the [`Phase::Retransmit`] supersteps that itemize the extra
//! traffic. At rate 0 those supersteps are skipped entirely and the run
//! is byte-identical (values *and* ledger) to the plain reference.
//!
//! [`power_iterate_chaos`] wraps the 100-iteration SpMV loop of the
//! Table 3 experiment with superstep-boundary checkpointing: the iterate
//! is snapshotted every [`CHECKPOINT_EVERY`] iterations (a node-local
//! memory copy, free of charge like [`DistVector::copy_from`]); when the
//! fault plan crashes a rank at an iteration boundary the loop restores
//! the last checkpoint, bills the restore under [`Phase::Recovery`]
//! (every rank re-reads its slice of the snapshot), and re-executes.
//! Because crash decisions are consumed once per epoch
//! ([`ChaosRuntime::take_crash`]) the replay terminates, and because the
//! chaos protocol always delivers correct values the recovered run
//! converges to the **same bits** as the fault-free loop.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::{bill_retransmit, ChaosRuntime};

use crate::distmat::DistCsrMatrix;
use crate::map::VectorMap;
use crate::multivec::DistVector;
use crate::operator::LinearOperator;
use crate::plan::CommPlan;

/// Iterations between checkpoints in [`power_iterate_chaos`].
pub const CHECKPOINT_EVERY: usize = 10;

/// [`CommPlan::execute_gather`] with the traffic routed through the
/// chaos runtime. Returns the received `(gid, value)` pairs — identical
/// to the plain executor's — plus the per-rank extra cost of any faults.
pub fn gather_chaos(
    plan: &CommPlan,
    source: &VectorMap,
    locals: &[Vec<f64>],
    rt: &mut ChaosRuntime,
) -> (Vec<Vec<(u32, f64)>>, Vec<PhaseCost>) {
    let p = plan.nprocs();
    assert_eq!(locals.len(), p);
    let sends: Vec<Vec<(u32, Vec<f64>)>> = plan
        .sends
        .iter()
        .enumerate()
        .map(|(r, out)| {
            out.iter()
                .map(|(dst, gids)| {
                    let vals: Vec<f64> = gids.iter().map(|&g| locals[r][source.lid(g)]).collect();
                    (*dst, vals)
                })
                .collect()
        })
        .collect();
    let (delivered, extra) = rt.route(p, sends);

    let pairs = delivered
        .into_iter()
        .enumerate()
        .map(|(r, inbox)| {
            let mut out = Vec::new();
            debug_assert_eq!(inbox.len(), plan.recvs[r].len());
            for (msg, (src, gids)) in inbox.iter().zip(&plan.recvs[r]) {
                assert_eq!(msg.src, *src, "plan/traffic mismatch at rank {r}");
                assert_eq!(msg.data.len(), gids.len(), "short message at rank {r}");
                out.extend(gids.iter().copied().zip(msg.data.iter().copied()));
            }
            out
        })
        .collect();
    (pairs, extra)
}

/// [`CommPlan::execute_scatter_add`] with the traffic routed through
/// the chaos runtime. Accumulates identically to the plain executor and
/// returns the per-rank extra cost of any faults.
pub fn scatter_add_chaos(
    plan: &CommPlan,
    target: &VectorMap,
    contributions: &[Vec<(u32, f64)>],
    locals: &mut [Vec<f64>],
    rt: &mut ChaosRuntime,
) -> Vec<PhaseCost> {
    let p = plan.nprocs();
    assert_eq!(contributions.len(), p);
    let sends: Vec<Vec<(u32, Vec<f64>)>> = (0..p)
        .map(|r| {
            let mut lookup: HashMap<u32, f64> = contributions[r].iter().copied().collect();
            plan.recvs[r]
                .iter()
                .map(|(owner, gids)| {
                    let vals: Vec<f64> = gids
                        .iter()
                        .map(|g| lookup.remove(g).expect("missing contribution"))
                        .collect();
                    (*owner, vals)
                })
                .collect()
        })
        .collect();
    let (delivered, extra) = rt.route(p, sends);
    for (r, inbox) in delivered.into_iter().enumerate() {
        let expect = &plan.sends[r];
        debug_assert_eq!(inbox.len(), expect.len());
        for (msg, (dst, gids)) in inbox.iter().zip(expect) {
            assert_eq!(msg.src, *dst, "reverse plan mismatch at rank {r}");
            for (&gid, &val) in gids.iter().zip(&msg.data) {
                locals[r][target.lid(gid)] += val;
            }
        }
    }
    extra
}

/// `y = A x` under fault injection: the four supersteps of
/// [`spmv_ref`](crate::reference::spmv_ref) with chaos-routed expand and
/// fold, each followed by a [`Phase::Retransmit`] superstep when (and
/// only when) faults cost something. Values are always bit-identical to
/// the fault-free run; at rate 0 the ledger is too.
pub fn spmv_chaos(
    a: &DistCsrMatrix,
    x: &DistVector,
    y: &mut DistVector,
    ledger: &mut CostLedger,
    rt: &mut ChaosRuntime,
) {
    let p = a.nprocs();
    assert!(
        Arc::ptr_eq(&x.map, &a.vmap) || x.map.same_distribution(&a.vmap),
        "x map mismatch"
    );
    assert!(
        Arc::ptr_eq(&y.map, &a.vmap) || y.map.same_distribution(&a.vmap),
        "y map mismatch"
    );

    // Phase 1 — expand, through the misbehaving wire.
    let (imported, extra) = gather_chaos(&a.import, &a.vmap, &x.locals, rt);
    ledger.superstep(Phase::Expand, &a.import.phase_costs());
    bill_retransmit(ledger, &extra);

    // Phase 2 — local compute (faults never reach this: the protocol
    // hands over verified values only).
    let mut partials: Vec<Vec<f64>> = Vec::with_capacity(p);
    let mut compute_costs = Vec::with_capacity(p);
    for r in 0..p {
        let block = &a.blocks[r];
        let mut xcols = vec![0.0; block.colmap.len()];
        for (lid, &g) in block.colmap.iter().enumerate() {
            if a.vmap.owner(g) == r as u32 {
                xcols[lid] = x.locals[r][a.vmap.lid(g)];
            }
        }
        for &(g, v) in &imported[r] {
            xcols[block.col_lid(g)] = v;
        }
        partials.push(crate::reference::local_product(block, &xcols));
        compute_costs.push(PhaseCost::compute(2 * block.nnz() as u64));
    }
    ledger.superstep(Phase::LocalCompute, &compute_costs);

    // Phases 3/4 — fold + sum, the fold through the misbehaving wire.
    for l in &mut y.locals {
        l.fill(0.0);
    }
    let mut contributions: Vec<Vec<(u32, f64)>> = vec![Vec::new(); p];
    let mut sum_costs = vec![PhaseCost::default(); p];
    for r in 0..p {
        let block = &a.blocks[r];
        for (li, &g) in block.rowmap.iter().enumerate() {
            if a.vmap.owner(g) == r as u32 {
                y.locals[r][a.vmap.lid(g)] += partials[r][li];
                sum_costs[r].flops += 1;
            } else {
                contributions[r].push((g, partials[r][li]));
            }
        }
    }
    ledger.superstep(Phase::Fold, &a.export.phase_costs());
    let extra = scatter_add_chaos(&a.export, &a.vmap, &contributions, &mut y.locals, rt);
    bill_retransmit(ledger, &extra);
    for r in 0..p {
        let received: u64 = a.export.sends[r].iter().map(|(_, g)| g.len() as u64).sum();
        sum_costs[r].flops += received;
    }
    ledger.superstep(Phase::Sum, &sum_costs);
}

/// Normalizes `x` in place (norm + scale, both costed) and returns the
/// norm. The shared inner step of the two power-iteration loops.
fn normalize(x: &mut DistVector, ledger: &mut CostLedger) -> f64 {
    let nrm = x.norm2(ledger);
    assert!(nrm > 0.0, "power iteration hit the zero vector");
    x.scale(1.0 / nrm, ledger);
    nrm
}

/// The fault-free oracle for [`power_iterate_chaos`]: `iters` rounds of
/// `x ← A x / ‖A x‖` through the reference SpMV. Returns the final
/// normalized iterate.
pub fn power_iterate(
    a: &DistCsrMatrix,
    x0: &DistVector,
    iters: usize,
    ledger: &mut CostLedger,
) -> DistVector {
    let mut x = x0.clone();
    let mut y = DistVector::zeros(Arc::clone(&a.vmap));
    for _ in 0..iters {
        crate::reference::spmv_ref(a, &x, &mut y, ledger);
        normalize(&mut y, ledger);
        std::mem::swap(&mut x, &mut y);
    }
    x
}

/// [`power_iterate`] under fault injection, with superstep-boundary
/// checkpoint/restart:
///
/// * every [`CHECKPOINT_EVERY`] iterations the iterate is snapshotted
///   (node-local memory copy — free, like [`DistVector::copy_from`]);
/// * at each iteration boundary the loop polls
///   [`ChaosRuntime::take_crash`] with the iteration index as the epoch;
///   on a crash it restores the snapshot and bills one
///   [`Phase::Recovery`] superstep — each rank re-reads its `8·n_local`
///   snapshot bytes — then re-executes from the checkpoint;
/// * injected message faults inside each SpMV are healed and billed by
///   [`spmv_chaos`].
///
/// The returned iterate is **bit-identical** to the fault-free
/// [`power_iterate`] result for any seed/rate, and at rate 0 the ledger
/// is byte-identical too.
pub fn power_iterate_chaos(
    a: &DistCsrMatrix,
    x0: &DistVector,
    iters: usize,
    ledger: &mut CostLedger,
    rt: &mut ChaosRuntime,
) -> DistVector {
    let p = a.nprocs();
    let mut x = x0.clone();
    let mut y = DistVector::zeros(Arc::clone(&a.vmap));
    let mut checkpoint = x.clone();
    let mut checkpoint_iter = 0usize;
    let mut i = 0usize;
    while i < iters {
        if i.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint.copy_from(&x);
            checkpoint_iter = i;
        }
        if rt.take_crash(i as u64) {
            // A rank died: roll every rank back to the last snapshot and
            // charge the restore reads.
            x.copy_from(&checkpoint);
            let restore: Vec<PhaseCost> = (0..p)
                .map(|r| PhaseCost::comm(1, 8 * a.vmap.nlocal(r) as u64))
                .collect();
            ledger.superstep(Phase::Recovery, &restore);
            i = checkpoint_iter;
            continue;
        }
        spmv_chaos(a, &x, &mut y, ledger, rt);
        normalize(&mut y, ledger);
        std::mem::swap(&mut x, &mut y);
        i += 1;
    }
    x
}

/// `y = A x` through [`spmv_chaos`] behind the [`LinearOperator`]
/// interface, so the eigensolver's operator applications run under
/// fault injection. The chaos runtime is shared via `RefCell` (the
/// trait's `apply` takes `&self`) — callers keep a handle to read the
/// fault statistics afterwards.
pub struct ChaosSpmvOp<'a> {
    /// The distributed matrix.
    pub a: &'a DistCsrMatrix,
    /// The shared chaos runtime.
    pub rt: &'a RefCell<ChaosRuntime>,
}

impl LinearOperator for ChaosSpmvOp<'_> {
    fn vmap(&self) -> &Arc<VectorMap> {
        &self.a.vmap
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        spmv_chaos(self.a, x, y, ledger, &mut self.rt.borrow_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmv_ref;
    use sf2d_gen::{rmat, RmatConfig};
    use sf2d_partition::MatrixDist;
    use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
    use sf2d_sim::Machine;

    fn dist_matrix(scale: u32, p: usize) -> DistCsrMatrix {
        let a = rmat(&RmatConfig::graph500(scale), 8);
        let pr = (1..=p)
            .rev()
            .find(|d| p.is_multiple_of(*d) && *d * *d <= p)
            .unwrap();
        let d = MatrixDist::block_2d(a.nrows(), pr as u32, (p / pr) as u32);
        DistCsrMatrix::from_global(&a, &d)
    }

    fn seeded_x(a: &DistCsrMatrix) -> DistVector {
        DistVector::random(Arc::clone(&a.vmap), 11)
    }

    #[test]
    fn rate_zero_spmv_is_byte_identical_to_reference() {
        for p in [4usize, 16] {
            let a = dist_matrix(7, p);
            let x = seeded_x(&a);
            let mut y_ref = DistVector::zeros(Arc::clone(&a.vmap));
            let mut y_chaos = DistVector::zeros(Arc::clone(&a.vmap));
            let mut led_ref = CostLedger::new(Machine::cab());
            let mut led_chaos = CostLedger::new(Machine::cab());
            spmv_ref(&a, &x, &mut y_ref, &mut led_ref);
            let mut rt = ChaosRuntime::seeded(99, 0.0);
            spmv_chaos(&a, &x, &mut y_chaos, &mut led_chaos, &mut rt);
            assert_eq!(y_ref.locals, y_chaos.locals, "p={p}");
            assert_eq!(led_ref.total, led_chaos.total, "p={p}");
            assert_eq!(led_ref.steps, led_chaos.steps, "p={p}");
            assert_eq!(led_ref.by_phase, led_chaos.by_phase, "p={p}");
            assert!(!rt.stats.any());
        }
    }

    #[test]
    fn faulty_spmv_values_match_reference_and_bill_retransmit() {
        let a = dist_matrix(7, 16);
        let x = seeded_x(&a);
        let mut y_ref = DistVector::zeros(Arc::clone(&a.vmap));
        let mut led_ref = CostLedger::new(Machine::cab());
        spmv_ref(&a, &x, &mut y_ref, &mut led_ref);

        for seed in [1u64, 0xBEEF] {
            let mut y = DistVector::zeros(Arc::clone(&a.vmap));
            let mut ledger = CostLedger::new(Machine::cab());
            let mut rt = ChaosRuntime::seeded(seed, 0.3);
            spmv_chaos(&a, &x, &mut y, &mut ledger, &mut rt);
            assert_eq!(y.locals, y_ref.locals, "seed {seed}");
            assert!(rt.stats.message_faults() > 0, "seed {seed}: {:?}", rt.stats);
            assert!(
                ledger
                    .by_phase
                    .get(&Phase::Retransmit)
                    .copied()
                    .unwrap_or(0.0)
                    > 0.0,
                "seed {seed}"
            );
            assert!(ledger.total > led_ref.total, "faults must cost time");
        }
    }

    #[test]
    fn scripted_expand_drop_bills_exactly_one_retransmit_step() {
        let a = dist_matrix(6, 4);
        let x = seeded_x(&a);
        // Fault the first expand message of the first superstep (step 0);
        // the fold round (step 1) stays clean.
        let (src, (dst, gids)) = a
            .import
            .sends
            .iter()
            .enumerate()
            .find_map(|(r, out)| out.first().map(|m| (r, m.clone())))
            .expect("expand plan moves something");
        let script = FaultScript::default().fault(0, src as u32, dst, 0, FaultKind::Drop);
        let mut rt = ChaosRuntime::scripted(script);
        let mut y = DistVector::zeros(Arc::clone(&a.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        spmv_chaos(&a, &x, &mut y, &mut ledger, &mut rt);

        let mut y_ref = DistVector::zeros(Arc::clone(&a.vmap));
        let mut led_ref = CostLedger::new(Machine::cab());
        spmv_ref(&a, &x, &mut y_ref, &mut led_ref);
        assert_eq!(y.locals, y_ref.locals);
        assert_eq!(rt.stats.drops, 1);
        // Exactly one extra superstep: the retransmit after the expand.
        assert_eq!(ledger.steps, led_ref.steps + 1);
        let payload = 8 * gids.len() as u64;
        let m = Machine::cab();
        let want = (m.alpha * 2.0 + m.beta * (payload + 8) as f64).max(m.alpha + m.beta * 8.0);
        assert!((ledger.by_phase[&Phase::Retransmit] - want).abs() < 1e-18);
    }

    #[test]
    fn power_iterate_chaos_recovers_to_fault_free_bits() {
        let a = dist_matrix(6, 4);
        let x0 = seeded_x(&a);
        let mut led_gold = CostLedger::new(Machine::cab());
        let gold = power_iterate(&a, &x0, 25, &mut led_gold);

        // Seeded chaos: message faults plus (deterministically) whatever
        // crashes the plan draws.
        let mut ledger = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(0xC0FFEE, 0.25);
        let got = power_iterate_chaos(&a, &x0, 25, &mut ledger, &mut rt);
        assert_eq!(got.locals, gold.locals, "recovered bits differ");

        // Scripted crash at iteration 17 (after the iter-10 checkpoint):
        // the loop must rewind to 10, bill a Recovery step, and still
        // land on the gold bits.
        let mut ledger = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::scripted(FaultScript::default().crash(17));
        let got = power_iterate_chaos(&a, &x0, 25, &mut ledger, &mut rt);
        assert_eq!(got.locals, gold.locals);
        assert_eq!(rt.stats.crashes, 1);
        let recovery = ledger.by_phase[&Phase::Recovery];
        assert!(recovery > 0.0);
        // Restore = one superstep of per-rank snapshot reads, plus the
        // replayed iterations 10..17.
        let m = Machine::cab();
        let max_local = (0..4).map(|r| a.vmap.nlocal(r)).max().unwrap() as f64;
        let want = m.alpha + m.beta * 8.0 * max_local;
        assert!((recovery - want).abs() < 1e-18);
        assert_eq!(ledger.steps, led_gold.steps + 1 + 7 * (led_gold.steps / 25));
    }

    #[test]
    fn rate_zero_power_iteration_ledger_is_byte_identical() {
        let a = dist_matrix(6, 4);
        let x0 = seeded_x(&a);
        let mut led_gold = CostLedger::new(Machine::cab());
        let gold = power_iterate(&a, &x0, 12, &mut led_gold);
        let mut ledger = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(5, 0.0);
        let got = power_iterate_chaos(&a, &x0, 12, &mut ledger, &mut rt);
        assert_eq!(got.locals, gold.locals);
        assert_eq!(ledger.total, led_gold.total);
        assert_eq!(ledger.steps, led_gold.steps);
        assert_eq!(ledger.by_phase, led_gold.by_phase);
    }

    #[test]
    fn chaos_op_applies_the_matrix() {
        let a = dist_matrix(6, 4);
        let x = seeded_x(&a);
        let rt = RefCell::new(ChaosRuntime::seeded(3, 0.2));
        let op = ChaosSpmvOp { a: &a, rt: &rt };
        let mut y = DistVector::zeros(Arc::clone(&a.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        op.apply(&x, &mut y, &mut ledger);
        let mut y_ref = DistVector::zeros(Arc::clone(&a.vmap));
        let mut led_ref = CostLedger::new(Machine::cab());
        spmv_ref(&a, &x, &mut y_ref, &mut led_ref);
        assert_eq!(y.locals, y_ref.locals);
    }
}
