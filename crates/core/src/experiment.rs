//! Experiment drivers: the measurements behind every table and figure.

use std::sync::Arc;

use sf2d_eigen::{krylov_schur_largest, KrylovSchurConfig};
use sf2d_graph::CsrMatrix;
use sf2d_partition::{LayoutMetrics, MatrixDist, NonzeroLayout};
use sf2d_sim::sf2d_par::threads_from_env;
use sf2d_sim::{ChaosRuntime, CostLedger, Machine, Phase};
use sf2d_spgemm::{spgemm_with, summa_with, SpgemmWorkspace, SummaWorkspace};
use sf2d_spmv::{
    power_iterate, power_iterate_chaos, spmv_with, DistCsrMatrix, DistVector,
    NormalizedLaplacianOp, SpmvWorkspace,
};

use crate::layout::Method;

/// One row of the paper's Table 2 / 3 family: SpMV timing plus layout
/// metrics for a (matrix, method, p) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SpmvRow {
    /// Matrix name.
    pub matrix: String,
    /// Layout name (as in the paper's tables).
    pub method: String,
    /// Rank count.
    pub p: usize,
    /// Simulated seconds for `iters` SpMVs.
    pub sim_time: f64,
    /// Nonzero imbalance (max/avg).
    pub nnz_imbalance: f64,
    /// Vector imbalance (max/avg).
    pub vec_imbalance: f64,
    /// Max messages per rank per SpMV.
    pub max_msgs: usize,
    /// Total doubles sent per SpMV.
    pub total_cv: usize,
}

/// Runs the SpMV experiment for one layout: distributes the matrix,
/// executes one real SpMV (verifying the plans fire), and reports the
/// simulated time for `iters` iterations (the communication plan is static,
/// so per-iteration cost is exactly constant — the paper times 100).
pub fn spmv_experiment<L: NonzeroLayout + ?Sized>(
    a: &CsrMatrix,
    dist: &L,
    machine: Machine,
    iters: usize,
) -> SpmvRow {
    let dm = DistCsrMatrix::from_global(a, dist);
    let x = DistVector::random(Arc::clone(&dm.vmap), 7);
    let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
    let mut ledger = CostLedger::new(machine);
    // SF2D_THREADS only changes the simulator's wall clock, never the
    // modeled costs (the parallel engine is bit-identical to sequential).
    let mut ws = SpmvWorkspace::with_threads(threads_from_env());
    spmv_with(&dm, &x, &mut y, &mut ledger, &mut ws);
    let m = LayoutMetrics::compute(a, dist);
    SpmvRow {
        matrix: String::new(),
        method: String::new(),
        p: dist.nprocs(),
        sim_time: ledger.total * iters as f64,
        nnz_imbalance: m.nnz_imbalance(),
        vec_imbalance: m.vec_imbalance(),
        max_msgs: m.max_msgs(),
        total_cv: m.total_comm_volume(),
    }
}

/// One row of the degraded-mode (chaos) SpMV experiment: a Table 3 cell
/// re-run under fault injection, with the recovery outcome and the
/// retransmission surcharge itemized. Written to a **separate** artifact
/// (`table3_chaos.jsonl`) so fault-free outputs stay byte-identical.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChaosSpmvRow {
    /// Matrix name.
    pub matrix: String,
    /// Layout name.
    pub method: String,
    /// Rank count.
    pub p: usize,
    /// Chaos seed.
    pub seed: u64,
    /// Injected fault rate.
    pub rate: f64,
    /// Simulated seconds for the fault-free `iters`-step power loop.
    pub gold_time: f64,
    /// Simulated seconds for the same loop under fault injection.
    pub sim_time: f64,
    /// Seconds billed to [`Phase::Retransmit`].
    pub retransmit_time: f64,
    /// Seconds billed to [`Phase::Recovery`] (checkpoint restores).
    pub recovery_time: f64,
    /// Whether the recovered iterate matched the fault-free bits.
    pub recovered: bool,
    /// Messages dropped on the wire.
    pub drops: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Payload bit-flips (caught by the checksum envelope).
    pub bit_flips: u64,
    /// Latency spikes.
    pub delays: u64,
    /// Rank stalls at superstep boundaries.
    pub stalls: u64,
    /// Rank crashes recovered via checkpoint restore.
    pub crashes: u64,
    /// Extra messages retransmission cost.
    pub retransmit_msgs: u64,
    /// Extra bytes retransmission cost.
    pub retransmit_bytes: u64,
}

/// Runs one Table 3 cell as an *actual* `iters`-step iteration loop
/// (power iteration: `x ← A x / ‖A x‖`) twice — fault-free and under the
/// given chaos runtime — and reports the degraded-mode surcharge plus a
/// bit-exact recovery verdict. Unlike [`spmv_experiment`], which charges
/// one SpMV times `iters` (valid because the fault-free cost is
/// constant per iteration), the chaos run must execute every iteration:
/// injected faults and checkpoint restores make the per-iteration cost
/// non-uniform.
pub fn spmv_experiment_chaos<L: NonzeroLayout + ?Sized>(
    a: &CsrMatrix,
    dist: &L,
    machine: Machine,
    iters: usize,
    rt: &mut ChaosRuntime,
) -> ChaosSpmvRow {
    let dm = DistCsrMatrix::from_global(a, dist);
    let x0 = DistVector::random(Arc::clone(&dm.vmap), 7);

    let mut gold_ledger = CostLedger::new(machine);
    let gold = power_iterate(&dm, &x0, iters, &mut gold_ledger);

    let (seed, rate) = match &rt.plan {
        sf2d_sim::sf2d_chaos::FaultPlan::Seeded { cfg } => (cfg.seed, cfg.rate),
        sf2d_sim::sf2d_chaos::FaultPlan::Scripted { .. } => (0, rt.plan.rate()),
    };
    let mut ledger = CostLedger::new(machine);
    let got = power_iterate_chaos(&dm, &x0, iters, &mut ledger, rt);
    let recovered = got
        .locals
        .iter()
        .zip(&gold.locals)
        .all(|(g, w)| g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits()));

    ChaosSpmvRow {
        matrix: String::new(),
        method: String::new(),
        p: dist.nprocs(),
        seed,
        rate,
        gold_time: gold_ledger.total,
        sim_time: ledger.total,
        retransmit_time: ledger
            .by_phase
            .get(&Phase::Retransmit)
            .copied()
            .unwrap_or(0.0),
        recovery_time: ledger
            .by_phase
            .get(&Phase::Recovery)
            .copied()
            .unwrap_or(0.0),
        recovered,
        drops: rt.stats.drops,
        duplicates: rt.stats.duplicates,
        bit_flips: rt.stats.bit_flips,
        delays: rt.stats.delays,
        stalls: rt.stats.stalls,
        crashes: rt.stats.crashes,
        retransmit_msgs: rt.stats.retransmit_msgs,
        retransmit_bytes: rt.stats.retransmit_bytes,
    }
}

/// One row of the SpGEMM workload study: `C = A·Aᵀ` traffic, work, and
/// predicted time for a (matrix, method, p) cell — the SpGEMM analogue of
/// the Table 3 metrics detail.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpgemmRow {
    /// Matrix name.
    pub matrix: String,
    /// Layout name (as in the paper's tables).
    pub method: String,
    /// SpGEMM algorithm: `"expand_fold"` (the SpMV-schedule kernel) or
    /// `"summa"` (stage-wise Sparse SUMMA broadcasts).
    pub algo: String,
    /// Rank count.
    pub p: usize,
    /// Nonzeros in the product `C = A·Aᵀ`.
    pub nnz_c: u64,
    /// Max messages any rank sends getting remote operand rows to the
    /// multipliers: the expand (B-row fetch) exchange for expand/fold,
    /// the A/B shuffles plus every stage broadcast for SUMMA.
    pub expand_max_msgs: u64,
    /// Max messages any rank sends in the fold (partial-row) exchange.
    pub fold_max_msgs: u64,
    /// Max messages any rank sends in any *single* SUMMA stage — witnesses
    /// the communication-avoiding `(pr − 1) + (pc − 1)` bound. Zero for
    /// expand/fold (which has no stages).
    pub stage_max_msgs: u64,
    /// Total doubles moved by all exchanges (serialized-row payloads).
    pub total_volume: u64,
    /// Max per-rank flops (multiply + merge) — the load-balance number.
    pub max_flops: u64,
    /// Total flops across ranks (= 2 × product terms + merged entries).
    pub total_flops: u64,
    /// Simulated seconds for one SpGEMM under the α-β-γ model.
    pub sim_time: f64,
    /// Nonzero imbalance of A's layout (max/avg).
    pub nnz_imbalance: f64,
}

/// Runs the SpGEMM workload for one layout: distributes `A`, forms
/// `C = A·Aᵀ` through the distributed kernel (expand / multiply / fold /
/// merge supersteps billed to the α-β-γ model), and reports per-rank max
/// traffic and work plus the predicted time. The same compiled schedules
/// that bound SpMV messages bound these exchanges, so 2D layouts keep
/// per-rank sends ≤ pr + pc − 2 here too.
pub fn spgemm_experiment<L: NonzeroLayout + ?Sized>(
    a: &CsrMatrix,
    dist: &L,
    machine: Machine,
) -> SpgemmRow {
    let dm = DistCsrMatrix::from_global(a, dist);
    let b = a.transpose();
    let mut ledger = CostLedger::new(machine);
    // Threads only change the simulator's wall clock, never the modeled
    // costs or the result bits (the kernel is thread-count independent).
    let mut ws = SpgemmWorkspace::with_threads(threads_from_env());
    let c = spgemm_with(&dm, &b, &mut ledger, &mut ws);
    let per_rank_flops: Vec<u64> = c
        .multiply_flops
        .iter()
        .zip(&c.merge_flops)
        .map(|(m, g)| m + g)
        .collect();
    let m = LayoutMetrics::compute(a, dist);
    SpgemmRow {
        matrix: String::new(),
        method: String::new(),
        algo: "expand_fold".to_string(),
        p: dist.nprocs(),
        nnz_c: c.nnz,
        expand_max_msgs: c.expand.max_send_msgs(),
        fold_max_msgs: c.fold.max_send_msgs(),
        stage_max_msgs: 0,
        total_volume: c.expand.total_volume() + c.fold.total_volume(),
        max_flops: per_rank_flops.iter().copied().max().unwrap_or(0),
        total_flops: per_rank_flops.iter().sum(),
        sim_time: ledger.total,
        nnz_imbalance: m.nnz_imbalance(),
    }
}

/// Runs the same `C = A·Aᵀ` workload through the **Sparse SUMMA** path
/// ([`summa_with`]): `gc` stages of row/column block broadcasts on the
/// grid the layout induces, instead of one expand/fold round over the
/// SpMV schedules. The result bits match [`spgemm_experiment`]'s (both
/// kernels are pinned to the serial oracle), so the rows differ only in
/// the `algo` tag and the traffic/time columns — and `stage_max_msgs`
/// stays ≤ `(pr − 1) + (pc − 1)` for *every* layout, including the 1D
/// ones where expand/fold degrades to `p − 1` sends.
///
/// Takes the concrete [`MatrixDist`] (not the [`NonzeroLayout`] trait)
/// because SUMMA needs the distribution's grid structure, not just its
/// nonzero→rank map.
pub fn summa_experiment(a: &CsrMatrix, dist: &MatrixDist, machine: Machine) -> SpgemmRow {
    let dm = DistCsrMatrix::from_global(a, dist);
    let b = a.transpose();
    let mut ledger = CostLedger::new(machine);
    // Threads only change the simulator's wall clock, never the modeled
    // costs or the result bits (the kernel is thread-count independent).
    let mut ws = SummaWorkspace::with_threads(threads_from_env());
    let c = summa_with(&dm, dist, &b, &mut ledger, &mut ws);
    let p = dist.nprocs();
    let per_rank_flops: Vec<u64> = c
        .multiply_flops
        .iter()
        .zip(&c.merge_flops)
        .map(|(m, g)| m + g)
        .collect();
    let operand_max_msgs = (0..p)
        .map(|r| c.shuffle.send_msgs[r] + c.bcast.send_msgs[r])
        .max()
        .unwrap_or(0);
    let stage_max_msgs = c
        .stage_send_msgs
        .iter()
        .flat_map(|per_rank| per_rank.iter().copied())
        .max()
        .unwrap_or(0);
    let m = LayoutMetrics::compute(a, dist);
    SpgemmRow {
        matrix: String::new(),
        method: String::new(),
        algo: "summa".to_string(),
        p,
        nnz_c: c.nnz,
        expand_max_msgs: operand_max_msgs,
        fold_max_msgs: c.fold.max_send_msgs(),
        stage_max_msgs,
        total_volume: c.total_volume(),
        max_flops: per_rank_flops.iter().copied().max().unwrap_or(0),
        total_flops: per_rank_flops.iter().sum(),
        sim_time: ledger.total,
        nnz_imbalance: m.nnz_imbalance(),
    }
}

/// One row of the paper's Table 4 / 5 family: eigensolver timing.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EigenRow {
    /// Matrix name.
    pub matrix: String,
    /// Layout name.
    pub method: String,
    /// Rank count.
    pub p: usize,
    /// Mean simulated solve seconds over the seeds.
    pub solve_time: f64,
    /// Mean simulated seconds spent in SpMV phases.
    pub spmv_time: f64,
    /// Mean operator applications per solve.
    pub op_applies: f64,
    /// Fraction of seeds that converged to tolerance.
    pub converged_frac: f64,
    /// Nonzero imbalance.
    pub nnz_imbalance: f64,
    /// Vector imbalance.
    pub vec_imbalance: f64,
    /// Max messages per rank per SpMV.
    pub max_msgs: usize,
    /// Total doubles sent per SpMV.
    pub total_cv: usize,
}

/// Runs the eigensolver experiment of §5.3 for one layout: Block
/// Krylov–Schur (block size 1) for the `cfg.nev` largest eigenpairs of the
/// normalized Laplacian, averaged over `seeds` random starts (the paper
/// averages ten).
pub fn eigen_experiment<L: NonzeroLayout + ?Sized>(
    adj: &CsrMatrix,
    dist: &L,
    machine: Machine,
    cfg: &KrylovSchurConfig,
    seeds: &[u64],
) -> EigenRow {
    assert!(!seeds.is_empty());
    let stripped = adj.without_diagonal();
    let degrees: Vec<usize> = (0..stripped.nrows()).map(|i| stripped.row_nnz(i)).collect();
    let dm = DistCsrMatrix::from_global(&stripped, dist);
    let op = NormalizedLaplacianOp::new(dm, &degrees).with_threads(threads_from_env());

    let mut solve_time = 0.0;
    let mut spmv_time = 0.0;
    let mut op_applies = 0usize;
    let mut converged = 0usize;
    for &seed in seeds {
        let mut ledger = CostLedger::new(machine);
        let run_cfg = KrylovSchurConfig { seed, ..*cfg };
        let res = krylov_schur_largest(&op, &run_cfg, &mut ledger);
        solve_time += ledger.total;
        spmv_time += ledger.spmv_time();
        op_applies += res.op_applies;
        converged += usize::from(res.converged);
    }
    let k = seeds.len() as f64;
    let m = LayoutMetrics::compute(&stripped, dist);
    EigenRow {
        matrix: String::new(),
        method: String::new(),
        p: dist.nprocs(),
        solve_time: solve_time / k,
        spmv_time: spmv_time / k,
        op_applies: op_applies as f64 / k,
        converged_frac: converged as f64 / k,
        nnz_imbalance: m.nnz_imbalance(),
        vec_imbalance: m.vec_imbalance(),
        max_msgs: m.max_msgs(),
        total_cv: m.total_comm_volume(),
    }
}

/// Convenience: label a row with matrix and method names.
pub fn labeled_spmv(mut row: SpmvRow, matrix: &str, method: Method) -> SpmvRow {
    row.matrix = matrix.to_string();
    row.method = method.name().to_string();
    row
}

/// Convenience: label an eigen row.
pub fn labeled_eigen(mut row: EigenRow, matrix: &str, method: Method) -> EigenRow {
    row.matrix = matrix.to_string();
    row.method = method.name().to_string();
    row
}

/// Convenience: label a chaos row.
pub fn labeled_chaos(mut row: ChaosSpmvRow, matrix: &str, method: Method) -> ChaosSpmvRow {
    row.matrix = matrix.to_string();
    row.method = method.name().to_string();
    row
}

/// Convenience: label a SpGEMM row.
pub fn labeled_spgemm(mut row: SpgemmRow, matrix: &str, method: Method) -> SpgemmRow {
    row.matrix = matrix.to_string();
    row.method = method.name().to_string();
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use sf2d_gen::{rmat, RmatConfig};

    #[test]
    fn spmv_experiment_produces_consistent_metrics() {
        let a = rmat(&RmatConfig::graph500(8), 4);
        let mut b = LayoutBuilder::new(&a, 0);
        let d1 = b.dist(Method::OneDBlock, 16);
        let d2 = b.dist(Method::TwoDBlock, 16);
        let r1 = spmv_experiment(&a, &d1, Machine::cab(), 100);
        let r2 = spmv_experiment(&a, &d2, Machine::cab(), 100);
        // The structural bound: 2D cuts max messages to at most pr+pc-2.
        assert!(r2.max_msgs <= 6);
        assert!(r1.max_msgs > r2.max_msgs);
        assert!(r1.sim_time > 0.0 && r2.sim_time > 0.0);
    }

    #[test]
    fn two_d_gp_beats_one_d_block_at_scale() {
        // The paper's headline effect at 256 ranks on a scale-free graph.
        let a = rmat(&RmatConfig::graph500(9), 6);
        let mut b = LayoutBuilder::new(&a, 0);
        let blk = spmv_experiment(&a, &b.dist(Method::OneDBlock, 256), Machine::cab(), 100);
        let gp2 = spmv_experiment(&a, &b.dist(Method::TwoDGp, 256), Machine::cab(), 100);
        assert!(
            gp2.sim_time < blk.sim_time,
            "2D-GP {} not below 1D-Block {}",
            gp2.sim_time,
            blk.sim_time
        );
    }

    #[test]
    fn chaos_experiment_recovers_and_itemizes_surcharge() {
        let a = rmat(&RmatConfig::graph500(7), 5);
        let mut b = LayoutBuilder::new(&a, 0);
        let d = b.dist(Method::TwoDBlock, 16);

        // Rate 0: no faults, no surcharge, gold == sim to the bit.
        let mut rt = ChaosRuntime::seeded(1, 0.0);
        let row = spmv_experiment_chaos(&a, &d, Machine::cab(), 20, &mut rt);
        assert!(row.recovered);
        assert_eq!(row.sim_time.to_bits(), row.gold_time.to_bits());
        assert_eq!(row.retransmit_time, 0.0);
        assert_eq!(row.recovery_time, 0.0);

        // A real rate: still recovers, and the surcharge is itemized.
        let mut rt = ChaosRuntime::seeded(0xC0FFEE, 0.25);
        let row = spmv_experiment_chaos(&a, &d, Machine::cab(), 20, &mut rt);
        assert!(row.recovered, "degraded run must recover the gold bits");
        assert!(row.retransmit_time > 0.0);
        assert!(row.sim_time > row.gold_time);
        assert!(row.drops + row.duplicates + row.bit_flips + row.delays > 0);
    }

    #[test]
    fn spgemm_experiment_matches_oracle_and_respects_2d_bound() {
        let a = rmat(&RmatConfig::graph500(8), 4);
        let mut b = LayoutBuilder::new(&a, 0);
        let d1 = b.dist(Method::OneDBlock, 16);
        let d2 = b.dist(Method::TwoDBlock, 16);
        let r1 = spgemm_experiment(&a, &d1, Machine::cab());
        let r2 = spgemm_experiment(&a, &d2, Machine::cab());
        let want = sf2d_graph::spgemm(&a, &a.transpose()).nnz() as u64;
        assert_eq!(r1.nnz_c, want);
        assert_eq!(r2.nnz_c, want);
        // Each exchange is one routed superstep over the SpMV plans, so the
        // per-exchange 2D send bound is pr + pc - 2 = 6 at p = 16.
        assert!(r2.expand_max_msgs + r2.fold_max_msgs <= 12);
        assert!(r2.expand_max_msgs <= 6 && r2.fold_max_msgs <= 6);
        assert_eq!(r1.fold_max_msgs, 0, "1D layouts fold nothing");
        assert_eq!(r1.algo, "expand_fold");
        assert_eq!(r1.stage_max_msgs, 0);
        assert!(r1.sim_time > 0.0 && r2.sim_time > 0.0);
        assert!(r1.total_flops > 0 && r2.total_flops > 0);
    }

    #[test]
    fn summa_experiment_bounds_stage_sends_on_every_layout() {
        let a = rmat(&RmatConfig::graph500(8), 4);
        let mut b = LayoutBuilder::new(&a, 0);
        let d1 = b.dist(Method::OneDRandom, 16);
        let d2 = b.dist(Method::TwoDBlock, 16);
        let want = sf2d_graph::spgemm(&a, &a.transpose()).nnz() as u64;

        let ef = spgemm_experiment(&a, &d1, Machine::cab());
        let s1 = summa_experiment(&a, &d1, Machine::cab());
        let s2 = summa_experiment(&a, &d2, Machine::cab());
        assert_eq!(s1.algo, "summa");
        assert_eq!(s1.nnz_c, want);
        assert_eq!(s2.nnz_c, want);
        // The communication-avoiding bound holds per stage on a 4×4 grid
        // regardless of layout: ≤ (pr − 1) + (pc − 1) = 6 sends.
        assert!(s1.stage_max_msgs <= 6, "1D: {}", s1.stage_max_msgs);
        assert!(s2.stage_max_msgs <= 6, "2D: {}", s2.stage_max_msgs);
        // ... while expand/fold on a 1D random layout degrades toward
        // p − 1 = 15 sends in its single expand exchange.
        assert!(
            ef.expand_max_msgs > s1.stage_max_msgs,
            "expand/fold {} vs SUMMA stage {}",
            ef.expand_max_msgs,
            s1.stage_max_msgs
        );
        assert!(s1.sim_time > 0.0 && s2.sim_time > 0.0);
        assert!(s1.total_flops > 0 && s2.total_flops > 0);
    }

    #[test]
    fn eigen_experiment_runs_and_converges() {
        let a = rmat(&RmatConfig::graph500(7), 9);
        let mut b = LayoutBuilder::new(&a, 0);
        let d = b.dist(Method::TwoDRandom, 4);
        let cfg = KrylovSchurConfig {
            nev: 4,
            max_basis: 20,
            tol: 1e-3,
            max_restarts: 100,
            seed: 0,
        };
        let row = eigen_experiment(&a, &d, Machine::cab(), &cfg, &[1, 2]);
        assert!(row.converged_frac > 0.0);
        assert!(row.solve_time >= row.spmv_time);
        assert!(row.spmv_time > 0.0);
    }
}
