//! The per-phase cost ledger.
//!
//! Every simulated operation reports a [`PhaseCost`] per rank; the ledger
//! closes the phase BSP-style (elapsed time advances by the *maximum* rank
//! time — stragglers stall everyone, which is exactly how load imbalance
//! hurts the paper's block layouts) and keeps a per-phase-kind breakdown
//! for Table 5's "SpMV time vs total solve time" split.

use std::collections::BTreeMap;

use crate::machine::Machine;

/// Work done by one rank in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PhaseCost {
    /// Point-to-point messages sent.
    pub msgs: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Floating-point operations executed.
    pub flops: u64,
}

impl PhaseCost {
    /// Pure compute.
    pub fn compute(flops: u64) -> PhaseCost {
        PhaseCost {
            msgs: 0,
            bytes: 0,
            flops,
        }
    }

    /// Pure communication.
    pub fn comm(msgs: u64, bytes: u64) -> PhaseCost {
        PhaseCost {
            msgs,
            bytes,
            flops: 0,
        }
    }

    /// The cost of shipping or computing `m` interleaved columns where
    /// this cost covers one: bytes and flops scale with the width, the
    /// message count does not — the latency amortization that makes
    /// blocked SpMM cheaper than `m` SpMVs. (Comm costs have zero flops
    /// and compute costs zero bytes, so one helper serves both.)
    pub fn widened(&self, m: u64) -> PhaseCost {
        PhaseCost {
            msgs: self.msgs,
            bytes: self.bytes * m,
            flops: self.flops * m,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &PhaseCost) -> PhaseCost {
        PhaseCost {
            msgs: self.msgs + other.msgs,
            bytes: self.bytes + other.bytes,
            flops: self.flops + other.flops,
        }
    }
}

/// SpMV / solver phase kinds, for the time breakdown.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Phase {
    /// Expand: ship `x_j` to ranks owning column-`j` nonzeros.
    Expand,
    /// Local `y += A_loc x` compute.
    LocalCompute,
    /// Local Gustavson multiply in SpGEMM (`C_partial = A_loc · B_rows`).
    /// Separate from [`Phase::LocalCompute`] so [`CostLedger::spmv_time`]
    /// stays an SpMV-only figure.
    Multiply,
    /// Fold: ship partial `y_i` to the row owner.
    Fold,
    /// Merging partial SpGEMM output rows received during the fold (the
    /// SpGEMM analogue of [`Phase::Sum`]).
    Merge,
    /// Summing received partials.
    Sum,
    /// Dense vector work (axpy, dot local parts, orthogonalization).
    VectorOp,
    /// Collectives (allreduce in dots/norms).
    Collective,
    /// Degraded-mode communication: retransmissions, NACKs, duplicate
    /// copies, latency spikes, and stall quanta injected by the chaos
    /// engine's verify-retry path. Always zero in fault-free runs.
    Retransmit,
    /// Checkpoint/restart traffic: snapshot writes and post-crash state
    /// restores. Always zero in fault-free runs.
    Recovery,
    /// Stage-wise block broadcasts (Sparse SUMMA's row/col fragment
    /// fan-out). Kept separate from [`Phase::Expand`] so the SUMMA and
    /// expand/fold SpGEMM paths stay distinguishable in the breakdown.
    Broadcast,
}

impl From<Phase> for sf2d_obs::PhaseKind {
    fn from(p: Phase) -> sf2d_obs::PhaseKind {
        use sf2d_obs::PhaseKind as K;
        match p {
            Phase::Expand => K::Expand,
            Phase::LocalCompute => K::LocalCompute,
            Phase::Multiply => K::Multiply,
            Phase::Fold => K::Fold,
            Phase::Merge => K::Merge,
            Phase::Sum => K::Sum,
            Phase::VectorOp => K::VectorOp,
            Phase::Collective => K::Collective,
            Phase::Retransmit => K::Retransmit,
            Phase::Recovery => K::Recovery,
            Phase::Broadcast => K::Broadcast,
        }
    }
}

/// Accumulates simulated time across supersteps.
#[derive(Debug, Clone)]
pub struct CostLedger {
    machine: Machine,
    /// Total simulated seconds.
    pub total: f64,
    /// Per-phase-kind breakdown.
    pub by_phase: BTreeMap<Phase, f64>,
    /// Number of supersteps closed.
    pub steps: usize,
    /// Chronological superstep log `(phase, seconds)` — lets callers plot
    /// a solve's time series or locate which step spiked.
    pub history: Vec<(Phase, f64)>,
}

impl CostLedger {
    /// New empty ledger for a machine.
    pub fn new(machine: Machine) -> CostLedger {
        CostLedger {
            machine,
            total: 0.0,
            by_phase: BTreeMap::new(),
            steps: 0,
            history: Vec::new(),
        }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Closes a superstep: all ranks ran `costs[rank]`; elapsed time grows
    /// by the slowest rank. Returns that step time.
    ///
    /// When tracing is enabled ([`sf2d_obs::enabled`]), the ledger also
    /// emits a per-rank [`sf2d_obs::TraceEvent::Superstep`] on the
    /// simulated clock — this single hook gives every code path that
    /// charges the ledger a full per-rank timeline for free. With tracing
    /// off the extra cost is one thread-local boolean read.
    pub fn superstep(&mut self, phase: Phase, costs: &[PhaseCost]) -> f64 {
        self.superstep_iter(phase, costs.iter().copied())
    }

    /// [`superstep`](Self::superstep) over the per-rank costs as they are
    /// computed, rank by rank: no per-rank vector is built.
    pub fn superstep_iter(
        &mut self,
        phase: Phase,
        costs: impl Iterator<Item = PhaseCost> + Clone,
    ) -> f64 {
        let times = costs.clone().map(|c| self.machine.phase_time(&c));
        let t = times.fold(0.0f64, f64::max);
        if sf2d_obs::enabled() {
            let samples = costs
                .enumerate()
                .map(|(r, c)| sf2d_obs::RankSample {
                    rank: r as u32,
                    time: self.machine.phase_time(&c),
                    msgs: c.msgs,
                    bytes: c.bytes,
                    flops: c.flops,
                })
                .collect();
            sf2d_obs::record_superstep(self.steps as u64, phase.into(), self.total, samples);
        }
        self.total += t;
        *self.by_phase.entry(phase).or_insert(0.0) += t;
        self.steps += 1;
        self.history.push((phase, t));
        t
    }

    /// Closes a superstep where every rank has the same cost (collectives).
    pub fn superstep_uniform(&mut self, phase: Phase, cost: PhaseCost, p: usize) -> f64 {
        assert!(p >= 1);
        let t = self.machine.phase_time(&cost);
        if sf2d_obs::enabled() {
            let samples = (0..p as u32)
                .map(|rank| sf2d_obs::RankSample {
                    rank,
                    time: t,
                    msgs: cost.msgs,
                    bytes: cost.bytes,
                    flops: cost.flops,
                })
                .collect();
            sf2d_obs::record_superstep(self.steps as u64, phase.into(), self.total, samples);
        }
        self.total += t;
        *self.by_phase.entry(phase).or_insert(0.0) += t;
        self.steps += 1;
        self.history.push((phase, t));
        t
    }

    /// Time attributed to SpMV phases (expand+local+fold+sum) — the "SpMV
    /// Time" column of Table 5.
    pub fn spmv_time(&self) -> f64 {
        [Phase::Expand, Phase::LocalCompute, Phase::Fold, Phase::Sum]
            .iter()
            .map(|ph| self.by_phase.get(ph).copied().unwrap_or(0.0))
            .sum()
    }

    /// The per-phase breakdown as `(phase, seconds)` pairs in phase order.
    pub fn phase_breakdown(&self) -> Vec<(Phase, f64)> {
        self.by_phase.iter().map(|(&ph, &t)| (ph, t)).collect()
    }

    /// Folds another ledger's charges into this one, as if the other
    /// ledger's supersteps had been closed here (in sequence *after* this
    /// ledger's — BSP supersteps are serial, so merged totals **add**; the
    /// max-over-ranks reduction happens *within* each superstep, never
    /// across ledgers). History concatenates in the other's order.
    ///
    /// # Panics
    /// Panics if the machines differ — summing seconds simulated under
    /// different α-β-γ parameters is a bookkeeping error.
    pub fn merge(&mut self, other: &CostLedger) {
        assert_eq!(
            self.machine, other.machine,
            "merging ledgers simulated on different machines"
        );
        self.total += other.total;
        for (&ph, &t) in &other.by_phase {
            *self.by_phase.entry(ph).or_insert(0.0) += t;
        }
        self.steps += other.steps;
        self.history.extend(other.history.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_machine() -> Machine {
        Machine {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            name: "unit",
        }
    }

    #[test]
    fn superstep_takes_the_max() {
        let mut l = CostLedger::new(unit_machine());
        let t = l.superstep(
            Phase::Expand,
            &[
                PhaseCost::comm(1, 0),
                PhaseCost::comm(5, 0),
                PhaseCost::comm(3, 0),
            ],
        );
        assert_eq!(t, 5.0);
        assert_eq!(l.total, 5.0);
        assert_eq!(l.steps, 1);
    }

    #[test]
    fn phases_accumulate_separately() {
        let mut l = CostLedger::new(unit_machine());
        l.superstep(Phase::Expand, &[PhaseCost::comm(2, 0)]);
        l.superstep(Phase::Fold, &[PhaseCost::comm(3, 0)]);
        l.superstep(Phase::Expand, &[PhaseCost::comm(1, 0)]);
        assert_eq!(l.by_phase[&Phase::Expand], 3.0);
        assert_eq!(l.by_phase[&Phase::Fold], 3.0);
        assert_eq!(l.total, 6.0);
    }

    #[test]
    fn spmv_time_excludes_vector_ops() {
        let mut l = CostLedger::new(unit_machine());
        l.superstep(Phase::LocalCompute, &[PhaseCost::comm(4, 0)]);
        l.superstep(Phase::VectorOp, &[PhaseCost::comm(7, 0)]);
        assert_eq!(l.spmv_time(), 4.0);
        assert_eq!(l.total, 11.0);
    }

    #[test]
    fn phase_cost_arithmetic() {
        let a = PhaseCost {
            msgs: 1,
            bytes: 2,
            flops: 3,
        };
        let b = PhaseCost::compute(7);
        assert_eq!(
            a.add(&b),
            PhaseCost {
                msgs: 1,
                bytes: 2,
                flops: 10
            }
        );
        assert_eq!(
            PhaseCost::comm(4, 5),
            PhaseCost {
                msgs: 4,
                bytes: 5,
                flops: 0
            }
        );
    }

    #[test]
    fn widened_scales_bytes_and_flops_but_not_msgs() {
        let comm = PhaseCost::comm(3, 40);
        assert_eq!(comm.widened(4), PhaseCost::comm(3, 160));
        let compute = PhaseCost::compute(7);
        assert_eq!(compute.widened(4), PhaseCost::compute(28));
        assert_eq!(comm.widened(1), comm);
    }

    #[test]
    fn history_records_every_step_in_order() {
        let mut l = CostLedger::new(unit_machine());
        l.superstep(Phase::Expand, &[PhaseCost::comm(2, 0)]);
        l.superstep(Phase::Fold, &[PhaseCost::comm(1, 0)]);
        l.superstep_uniform(Phase::Collective, PhaseCost::comm(3, 0), 4);
        assert_eq!(
            l.history,
            vec![
                (Phase::Expand, 2.0),
                (Phase::Fold, 1.0),
                (Phase::Collective, 3.0)
            ]
        );
        assert_eq!(l.history.len(), l.steps);
        let sum: f64 = l.history.iter().map(|&(_, t)| t).sum();
        assert_eq!(sum, l.total);
    }

    #[test]
    fn empty_superstep_costs_nothing() {
        let mut l = CostLedger::new(unit_machine());
        assert_eq!(l.superstep(Phase::Sum, &[]), 0.0);
    }

    #[test]
    fn superstep_reduction_is_max_over_ranks_not_sum() {
        // The BSP reduction: within a superstep ranks run concurrently, so
        // the charge is the straggler's time (max). Summing would model a
        // serial machine and overcharge 3x here.
        let mut l = CostLedger::new(unit_machine());
        let costs = [
            PhaseCost::comm(2, 0),
            PhaseCost::comm(4, 0),
            PhaseCost::comm(6, 0),
        ];
        let t = l.superstep(Phase::Expand, &costs);
        assert_eq!(t, 6.0);
        let per_rank_sum: f64 = costs.iter().map(|c| l.machine().phase_time(c)).sum();
        assert_eq!(per_rank_sum, 12.0);
        assert!(l.total < per_rank_sum);
    }

    #[test]
    fn merge_adds_across_ledgers_because_supersteps_are_serial() {
        // Across ledgers the supersteps happened one after another, so
        // merged time ADDS — max is only the within-step reduction.
        let mut a = CostLedger::new(unit_machine());
        a.superstep(Phase::Expand, &[PhaseCost::comm(5, 0)]);
        let mut b = CostLedger::new(unit_machine());
        b.superstep(Phase::Expand, &[PhaseCost::comm(3, 0)]);
        b.superstep(Phase::Fold, &[PhaseCost::comm(2, 0)]);
        a.merge(&b);
        assert_eq!(a.total, 10.0); // 5 + 3 + 2, not max(5, 3, 2)
        assert_eq!(a.by_phase[&Phase::Expand], 8.0);
        assert_eq!(a.by_phase[&Phase::Fold], 2.0);
        assert_eq!(a.steps, 3);
        assert_eq!(
            a.history,
            vec![
                (Phase::Expand, 5.0),
                (Phase::Expand, 3.0),
                (Phase::Fold, 2.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "different machines")]
    fn merge_rejects_mismatched_machines() {
        let mut a = CostLedger::new(unit_machine());
        let b = CostLedger::new(Machine::cab());
        a.merge(&b);
    }

    #[test]
    fn phase_breakdown_matches_by_phase() {
        let mut l = CostLedger::new(unit_machine());
        l.superstep(Phase::Fold, &[PhaseCost::comm(1, 0)]);
        l.superstep(Phase::Expand, &[PhaseCost::comm(2, 0)]);
        let breakdown = l.phase_breakdown();
        assert_eq!(breakdown, vec![(Phase::Expand, 2.0), (Phase::Fold, 1.0)]);
        let sum: f64 = breakdown.iter().map(|&(_, t)| t).sum();
        assert_eq!(sum, l.total);
    }

    #[test]
    fn superstep_emits_trace_samples_when_enabled() {
        sf2d_obs::enable();
        let mut l = CostLedger::new(unit_machine());
        l.superstep(
            Phase::Expand,
            &[PhaseCost::comm(1, 8), PhaseCost::comm(3, 24)],
        );
        l.superstep_uniform(Phase::Collective, PhaseCost::comm(2, 16), 2);
        sf2d_obs::disable();
        let events = sf2d_obs::take_events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            sf2d_obs::TraceEvent::Superstep {
                step,
                phase,
                t_start,
                samples,
            } => {
                assert_eq!(*step, 0);
                assert_eq!(*phase, sf2d_obs::PhaseKind::Expand);
                assert_eq!(*t_start, 0.0);
                assert_eq!(samples.len(), 2);
                assert_eq!(samples[1].rank, 1);
                assert_eq!(samples[1].msgs, 3);
                assert_eq!(samples[1].bytes, 24);
                assert_eq!(samples[1].time, 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &events[1] {
            sf2d_obs::TraceEvent::Superstep {
                step,
                t_start,
                samples,
                ..
            } => {
                // Second step starts where the first ended (sim clock).
                assert_eq!(*step, 1);
                assert_eq!(*t_start, 3.0);
                assert_eq!(samples.len(), 2);
                // Uniform superstep: identical samples apart from the rank.
                assert_eq!(samples[0].rank, 0);
                assert_eq!(samples[1].rank, 1);
                assert_eq!(samples[0].time, samples[1].time);
                assert_eq!(samples[0].msgs, 2);
                assert_eq!(samples[0].bytes, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn superstep_emits_nothing_when_disabled() {
        assert!(!sf2d_obs::enabled());
        let mut l = CostLedger::new(unit_machine());
        l.superstep(Phase::Expand, &[PhaseCost::comm(1, 8)]);
        assert!(sf2d_obs::take_events().is_empty());
    }
}
