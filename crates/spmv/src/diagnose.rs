//! Layout diagnosis: who is the straggler, and why.
//!
//! The BSP model makes every phase as slow as its slowest rank, so the
//! interesting question for a layout is *which rank bounds each phase and
//! what it is paying for* (messages? bytes? flops?). This module fills a
//! per-rank [`MetricsRegistry`] straight off the compiled schedules'
//! frozen cost vectors — the exact per-rank charges
//! [`spmv`](crate::spmv::spmv) puts on the ledger, no ad-hoc recounting —
//! and diagnoses each phase from those counters. The `sf2d diagnose` CLI
//! subcommand prints it.

use sf2d_obs::{BoundTerm, MetricsRegistry, RankSample};
use sf2d_sim::cost::{Phase, PhaseCost};
use sf2d_sim::Machine;

use crate::compiled::RankPlan;
use crate::distmat::DistCsrMatrix;

/// What dominates a rank's phase time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Per-message latency (α · msgs).
    Latency,
    /// Bandwidth (β · bytes).
    Bandwidth,
    /// Compute (γ · flops).
    Compute,
}

impl Bottleneck {
    fn of(machine: &Machine, c: &PhaseCost) -> Bottleneck {
        // One classification rule for the whole workspace: delegate to the
        // trace analyzer's term attribution.
        let s = RankSample {
            rank: 0,
            time: 0.0,
            msgs: c.msgs,
            bytes: c.bytes,
            flops: c.flops,
        };
        match BoundTerm::of(&machine.cost_params(), &s) {
            BoundTerm::Latency => Bottleneck::Latency,
            BoundTerm::Bandwidth => Bottleneck::Bandwidth,
            BoundTerm::Compute => Bottleneck::Compute,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Latency => "latency",
            Bottleneck::Bandwidth => "bandwidth",
            Bottleneck::Compute => "compute",
        }
    }
}

/// Counter-name slug of a phase, as used by [`spmv_metrics`] keys
/// (`spmv.<slug>.msgs` / `.bytes` / `.flops`).
pub fn phase_slug(phase: Phase) -> &'static str {
    match phase {
        Phase::Expand => "expand",
        Phase::LocalCompute => "local",
        Phase::Multiply => "multiply",
        Phase::Fold => "fold",
        Phase::Merge => "merge",
        Phase::Sum => "sum",
        Phase::VectorOp => "vecop",
        Phase::Collective => "collective",
        Phase::Retransmit => "retransmit",
        Phase::Recovery => "recovery",
        Phase::Broadcast => "broadcast",
    }
}

/// The per-phase per-rank cost table of one SpMV, read straight off the
/// compiled schedules' frozen cost vectors — i.e. exactly what
/// [`spmv`](crate::spmv::spmv) charges the ledger per superstep.
pub fn phase_cost_table(a: &DistCsrMatrix) -> [(Phase, &[PhaseCost]); 4] {
    let c = &a.compiled;
    [
        (Phase::Expand, c.expand_costs.as_slice()),
        (Phase::LocalCompute, c.compute_costs.as_slice()),
        (Phase::Fold, c.fold_costs.as_slice()),
        (Phase::Sum, c.sum_costs.as_slice()),
    ]
}

/// Fills a [`MetricsRegistry`] describing one SpMV on this matrix:
///
/// * counters `spmv.<phase>.msgs|bytes|flops` per rank (from the frozen
///   compiled cost vectors);
/// * histogram `spmv.msg_bytes` — size of every individual expand/fold
///   message (log2 buckets);
/// * histogram `spmv.rank_flops` — per-rank local-compute flops, whose
///   spread is the flop-imbalance picture.
pub fn spmv_metrics(a: &DistCsrMatrix) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (phase, costs) in phase_cost_table(a) {
        let slug = phase_slug(phase);
        for (r, c) in costs.iter().enumerate() {
            reg.add(&format!("spmv.{slug}.msgs"), r as u32, c.msgs);
            reg.add(&format!("spmv.{slug}.bytes"), r as u32, c.bytes);
            reg.add(&format!("spmv.{slug}.flops"), r as u32, c.flops);
        }
    }
    for phase in [&a.compiled.expand, &a.compiled.fold] {
        for r in 0..a.nprocs() {
            for (_dst, lids, _) in phase.rank(r).packs() {
                reg.observe("spmv.msg_bytes", 8 * lids.len() as u64);
            }
        }
    }
    for c in &a.compiled.compute_costs {
        reg.observe("spmv.rank_flops", c.flops);
    }
    reg
}

/// One phase of the SpMV, analyzed.
#[derive(Debug, Clone)]
pub struct PhaseDiagnosis {
    /// Which phase.
    pub phase: Phase,
    /// Seconds the phase takes (= the straggler's time).
    pub time: f64,
    /// Mean rank time — `time / mean` is the phase's own imbalance.
    pub mean_time: f64,
    /// The straggler rank.
    pub straggler: usize,
    /// The straggler's cost detail.
    pub straggler_cost: PhaseCost,
    /// What the straggler is paying for.
    pub bottleneck: Bottleneck,
}

/// Computes the per-phase diagnosis of one SpMV under `machine`, by way
/// of the matrix's [`spmv_metrics`] registry.
pub fn diagnose_spmv(a: &DistCsrMatrix, machine: &Machine) -> Vec<PhaseDiagnosis> {
    diagnose_from_metrics(&spmv_metrics(a), a.nprocs(), machine)
}

/// Diagnoses the four SpMV phases from a registry shaped like
/// [`spmv_metrics`] output — per-rank `spmv.<phase>.msgs|bytes|flops`
/// counters — without touching the matrix again.
pub fn diagnose_from_metrics(
    reg: &MetricsRegistry,
    p: usize,
    machine: &Machine,
) -> Vec<PhaseDiagnosis> {
    assert!(p >= 1, "at least one rank");
    [Phase::Expand, Phase::LocalCompute, Phase::Fold, Phase::Sum]
        .into_iter()
        .map(|phase| {
            let slug = phase_slug(phase);
            let costs: Vec<PhaseCost> = (0..p as u32)
                .map(|r| PhaseCost {
                    msgs: reg.counter(&format!("spmv.{slug}.msgs"), r),
                    bytes: reg.counter(&format!("spmv.{slug}.bytes"), r),
                    flops: reg.counter(&format!("spmv.{slug}.flops"), r),
                })
                .collect();
            let times: Vec<f64> = costs.iter().map(|c| machine.phase_time(c)).collect();
            let (straggler, &time) = times
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one rank");
            let mean_time = times.iter().sum::<f64>() / times.len() as f64;
            PhaseDiagnosis {
                phase,
                time,
                mean_time,
                straggler,
                straggler_cost: costs[straggler],
                bottleneck: Bottleneck::of(machine, &costs[straggler]),
            }
        })
        .collect()
}

/// Renders the diagnosis as an aligned text table.
pub fn render(diag: &[PhaseDiagnosis]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let total: f64 = diag.iter().map(|d| d.time).sum();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>8} {:>10} {:>10} {:>12} {:>12}  bound by",
        "phase", "time (s)", "share", "straggler", "imbal", "msgs", "bytes"
    );
    for d in diag {
        let _ = writeln!(
            out,
            "{:<14} {:>12.3e} {:>7.1}% {:>10} {:>10.2} {:>12} {:>12}  {}",
            format!("{:?}", d.phase),
            d.time,
            if total > 0.0 {
                100.0 * d.time / total
            } else {
                0.0
            },
            d.straggler,
            if d.mean_time > 0.0 {
                d.time / d.mean_time
            } else {
                1.0
            },
            d.straggler_cost.msgs,
            d.straggler_cost.bytes,
            d.bottleneck.label(),
        );
    }
    let _ = writeln!(out, "total per SpMV: {total:.3e} s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_partition::MatrixDist;
    use sf2d_sim::{CostLedger, Machine};

    fn demo() -> DistCsrMatrix {
        let mut coo = sf2d_graph::CooMatrix::new(32, 32);
        for i in 0..32u32 {
            coo.push_sym(i, (i + 1) % 32, 1.0);
            coo.push_sym(0, i.max(1), 1.0); // hub at 0
        }
        let a = sf2d_graph::CsrMatrix::from_coo(&coo);
        DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(32, 2, 2))
    }

    #[test]
    fn diagnosis_matches_the_ledger() {
        // The sum of phase times must equal what an actual SpMV charges.
        let dm = demo();
        let machine = Machine::cab();
        let diag = diagnose_spmv(&dm, &machine);
        let predicted: f64 = diag.iter().map(|d| d.time).sum();

        let x = crate::DistVector::random(std::sync::Arc::clone(&dm.vmap), 1);
        let mut y = crate::DistVector::zeros(std::sync::Arc::clone(&dm.vmap));
        let mut ledger = CostLedger::new(machine);
        crate::spmv(&dm, &x, &mut y, &mut ledger);
        assert!(
            (predicted - ledger.total).abs() < 1e-15 + 1e-9 * ledger.total,
            "{predicted} vs {ledger_total}",
            ledger_total = ledger.total
        );
    }

    #[test]
    fn phases_present_and_bottlenecks_sane() {
        let dm = demo();
        let diag = diagnose_spmv(&dm, &Machine::cab());
        assert_eq!(diag.len(), 4);
        assert_eq!(diag[0].phase, Phase::Expand);
        // At this tiny scale latency dominates communication phases.
        assert_eq!(diag[0].bottleneck, Bottleneck::Latency);
        // Local compute is bound by flops by construction.
        assert_eq!(diag[1].bottleneck, Bottleneck::Compute);
        assert!(diag[0].straggler < 4);
    }

    #[test]
    fn render_is_readable() {
        let dm = demo();
        let diag = diagnose_spmv(&dm, &Machine::cab());
        let text = render(&diag);
        assert!(text.contains("Expand"));
        assert!(text.contains("total per SpMV"));
        assert!(text.contains("latency") || text.contains("bandwidth"));
    }

    #[test]
    fn metrics_registry_agrees_with_the_plans() {
        // The registry's message/byte counters come from the compiled cost
        // vectors; the plans' own accounting must agree with them — the
        // counts are the same numbers, recorded once.
        let dm = demo();
        let reg = spmv_metrics(&dm);
        let (import, export) = crate::reference::gid_plans(&dm);
        let send_msgs: u64 = import.sends.iter().map(|s| s.len() as u64).sum();
        let recv_msgs: u64 = import.recvs.iter().map(|r| r.len() as u64).sum();
        // Expand counters charge both endpoints of each message.
        assert_eq!(reg.sum("spmv.expand.msgs"), send_msgs + recv_msgs);
        let expand_bytes: u64 = 16 * import.total_volume() as u64; // 8 B × 2 endpoints
        assert_eq!(reg.sum("spmv.expand.bytes"), expand_bytes);
        // The message-size histogram saw every planned message once.
        let planned_msgs: usize = [&import, &export]
            .iter()
            .flat_map(|p| p.sends.iter())
            .map(|s| s.len())
            .sum();
        let h = reg.histogram("spmv.msg_bytes").unwrap();
        assert_eq!(h.count as usize, planned_msgs);
        assert_eq!(
            h.sum as usize,
            8 * (import.total_volume() + export.total_volume())
        );
        // Flop-imbalance histogram: one observation per rank.
        assert_eq!(reg.histogram("spmv.rank_flops").unwrap().count, 4);
    }

    #[test]
    fn diagnosis_from_metrics_matches_direct_diagnosis() {
        let dm = demo();
        let machine = Machine::cab();
        let direct = diagnose_spmv(&dm, &machine);
        let via_reg = diagnose_from_metrics(&spmv_metrics(&dm), dm.nprocs(), &machine);
        assert_eq!(direct.len(), via_reg.len());
        for (d, v) in direct.iter().zip(&via_reg) {
            assert_eq!(d.phase, v.phase);
            assert_eq!(d.time.to_bits(), v.time.to_bits());
            assert_eq!(d.straggler, v.straggler);
            assert_eq!(d.straggler_cost, v.straggler_cost);
            assert_eq!(d.bottleneck, v.bottleneck);
        }
    }

    #[test]
    fn max_rank_counter_names_the_straggler() {
        // The registry's bottleneck reduction and the diagnosis agree on
        // what bounds the expand phase: on a latency-only machine the
        // straggler pays exactly the max per-rank message count (the two
        // reductions may name different ranks on exact ties).
        let dm = demo();
        let m = Machine {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            name: "msgs-only",
        };
        let reg = spmv_metrics(&dm);
        let diag = diagnose_from_metrics(&reg, dm.nprocs(), &m);
        let (_, max_msgs) = reg.max("spmv.expand.msgs").unwrap();
        assert_eq!(diag[0].straggler_cost.msgs, max_msgs);
        assert_eq!(diag[0].time, max_msgs as f64);
    }
}

/// Predicted SpMV time under a node-aware (hierarchical) machine: each
/// expand/fold message is priced by whether its endpoints share a node,
/// compute by γ — the robustness check for the flat α-β-γ conclusions.
pub fn spmv_time_hierarchical(a: &DistCsrMatrix, nm: &sf2d_sim::hierarchy::NodeModel) -> f64 {
    let (c, p) = (&a.compiled, a.nprocs());
    // Each message at both endpoints, in the gid plans' order: the
    // expand's sends, then the rank's remote columns by owner; the fold's
    // receives, then its sends.
    type Messages = Vec<(usize, usize)>;
    let traffic = |r: usize, fold: bool| -> (Messages, Messages) {
        let sends = |plan: RankPlan| {
            plan.packs()
                .map(|(d, l, _)| (d as usize, l.len()))
                .collect()
        };
        if fold {
            let plan = c.fold_rank(r);
            let recvs = plan.unpacks().map(|(s, _, _, l)| (s as usize, l.len()));
            (recvs.collect(), sends(plan))
        } else {
            let need = a.vmap.remote_by_owner(r, &a.blocks[r].colmap);
            let recvs = need
                .chunk_by(|x, y| x.0 == y.0)
                .map(|g| (g[0].0 as usize, g.len()));
            (sends(c.expand_rank(r)), recvs.collect())
        }
    };
    let mut total = 0.0;
    // Expand and fold: BSP max over ranks of the node-aware comm time.
    for fold in [false, true] {
        let t = (0..p)
            .map(|r| {
                let (s, rx) = traffic(r, fold);
                nm.comm_time(r, &s, &rx)
            })
            .fold(0.0f64, f64::max);
        total += t;
    }
    // Local compute and sum.
    let compute = a
        .blocks
        .iter()
        .map(|b| nm.gamma * 2.0 * b.nnz() as f64)
        .fold(0.0f64, f64::max);
    total + compute
}

#[cfg(test)]
mod hierarchy_tests {
    use super::*;
    use sf2d_partition::MatrixDist;
    use sf2d_sim::hierarchy::NodeModel;
    use sf2d_sim::Machine;

    #[test]
    fn flat_node_model_matches_flat_machine_comm() {
        // With node_size = 1 and matching parameters, the hierarchical
        // prediction equals the ledger's Expand + Fold + LocalCompute.
        let mut coo = sf2d_graph::CooMatrix::new(64, 64);
        for i in 0..64u32 {
            coo.push_sym(i, (i + 7) % 64, 1.0);
            coo.push_sym(i, (i + 13) % 64, 1.0);
        }
        let a = sf2d_graph::CsrMatrix::from_coo(&coo);
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(64, 4, 4));
        let m = Machine::cab();
        let nm = NodeModel::flat(m.alpha, m.beta, m.gamma);
        let hier = spmv_time_hierarchical(&dm, &nm);
        let diag = diagnose_spmv(&dm, &m);
        let flat: f64 = diag
            .iter()
            .filter(|d| {
                matches!(
                    d.phase,
                    sf2d_sim::Phase::Expand | sf2d_sim::Phase::Fold | sf2d_sim::Phase::LocalCompute
                )
            })
            .map(|d| d.time)
            .sum();
        assert!(
            (hier - flat).abs() < 1e-12 * flat.max(1e-30),
            "{hier} vs {flat}"
        );
    }

    #[test]
    fn intra_node_locality_reduces_cost() {
        // A layout whose communication stays within 16-rank nodes should be
        // cheaper under cab16 than the flat network price.
        let mut coo = sf2d_graph::CooMatrix::new(256, 256);
        for i in 0..256u32 {
            coo.push_sym(i, (i + 1) % 256, 1.0);
        }
        let a = sf2d_graph::CsrMatrix::from_coo(&coo);
        // Block layout on a ring: neighbours are in adjacent ranks, mostly
        // same node.
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_1d(256, 64));
        let nm = NodeModel::cab16();
        let flat = NodeModel::flat(nm.alpha_remote, nm.beta_remote, nm.gamma);
        assert!(spmv_time_hierarchical(&dm, &nm) < spmv_time_hierarchical(&dm, &flat));
    }
}
