//! Resilient power iteration: checkpoint/restart around the SpMV
//! executor.
//!
//! There is no second executor here. A fault-injected product is
//! [`spmv_chaos_with`] — the compiled four-phase executor of
//! [`spmv`](crate::spmv) with both exchanges mirrored onto a
//! [`ChaosRuntime`] wire — whose verify-retry protocol heals every
//! injected fault, so the **delivered values are bit-identical** to a
//! fault-free run and only the ledger differs, by exactly the
//! `Retransmit` supersteps that itemize the extra traffic (none at
//! rate 0, where values *and* ledger are byte-identical).
//!
//! What this module adds is the loop around it: [`power_iterate_chaos`]
//! wraps the 100-iteration SpMV loop of the Table 3 experiment with
//! superstep-boundary checkpointing. The iterate is snapshotted every
//! [`CHECKPOINT_EVERY`] iterations (a node-local memory copy, free of
//! charge like [`DistVector::copy_from`]); when the fault plan crashes a
//! rank at an iteration boundary the loop restores the last checkpoint,
//! bills the restore under [`Phase::Recovery`] (every rank re-reads its
//! slice of the snapshot), and re-executes. Because crash decisions are
//! consumed once per epoch ([`ChaosRuntime::take_crash`]) the replay
//! terminates, and because the chaos protocol always delivers correct
//! values the recovered run converges to the **same bits** as the
//! fault-free loop, [`power_iterate`] — the same loop with no runtime.

use std::sync::Arc;

use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::ChaosRuntime;

use crate::compiled::SpmvWorkspace;
use crate::distmat::DistCsrMatrix;
use crate::multivec::DistVector;
use crate::spmv::{spmv_chaos_with, spmv_with};

/// Iterations between checkpoints in [`power_iterate_chaos`].
pub const CHECKPOINT_EVERY: usize = 10;

/// `iters` rounds of `x ← A x / ‖A x‖` with superstep-boundary
/// checkpoint/restart; the products ride the chaos wire when a runtime
/// is given. Without one no crash can fire, and the snapshots (free
/// node-local copies) leave no trace in the ledger.
fn power_loop(
    a: &DistCsrMatrix,
    x0: &DistVector,
    iters: usize,
    ledger: &mut CostLedger,
    mut chaos: Option<&mut ChaosRuntime>,
) -> DistVector {
    let mut ws = SpmvWorkspace::new();
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
        if chaos
            .as_deref_mut()
            .is_some_and(|rt| rt.take_crash(i as u64))
        {
            // A rank died: roll every rank back to the last snapshot and
            // charge the restore reads.
            x.copy_from(&checkpoint);
            let restore: Vec<PhaseCost> = (0..a.nprocs())
                .map(|r| PhaseCost::comm(1, 8 * a.vmap.nlocal(r) as u64))
                .collect();
            ledger.superstep(Phase::Recovery, &restore);
            i = checkpoint_iter;
            continue;
        }
        match chaos.as_deref_mut() {
            Some(rt) => spmv_chaos_with(a, &x, &mut y, ledger, &mut ws, rt),
            None => spmv_with(a, &x, &mut y, ledger, &mut ws),
        }
        let nrm = y.norm2(ledger);
        assert!(nrm > 0.0, "power iteration hit the zero vector");
        y.scale(1.0 / nrm, ledger);
        std::mem::swap(&mut x, &mut y);
        i += 1;
    }
    x
}

/// The fault-free oracle for [`power_iterate_chaos`]: `iters` rounds of
/// `x ← A x / ‖A x‖`. Returns the final normalized iterate.
pub fn power_iterate(
    a: &DistCsrMatrix,
    x0: &DistVector,
    iters: usize,
    ledger: &mut CostLedger,
) -> DistVector {
    power_loop(a, x0, iters, ledger, None)
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
///   [`spmv_chaos_with`].
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
    power_loop(a, x0, iters, ledger, Some(rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{rmat, RmatConfig};
    use sf2d_partition::MatrixDist;
    use sf2d_sim::sf2d_chaos::FaultScript;
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

        // And the gold loop itself is the gid-based oracle's, bit for bit.
        let mut led_ref = CostLedger::new(Machine::cab());
        let mut x = x0.clone();
        let mut y = DistVector::zeros(Arc::clone(&a.vmap));
        for _ in 0..12 {
            crate::reference::spmv_ref(&a, &x, &mut y, &mut led_ref);
            let nrm = y.norm2(&mut led_ref);
            y.scale(1.0 / nrm, &mut led_ref);
            std::mem::swap(&mut x, &mut y);
        }
        assert_eq!(x.locals, gold.locals);
        assert_eq!(led_ref.history, led_gold.history);
        assert_eq!(led_ref.total.to_bits(), led_gold.total.to_bits());
    }
}
