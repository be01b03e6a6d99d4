//! `eigen-ks`: one `krylov_schur_largest` solve per op — the ten largest
//! eigenpairs of the normalized Laplacian to 1e-3, the paper's second
//! headline — on a resident operator. Each op starts from its own
//! seed-derived start vector; the graph is the same for every seed (see
//! [`GRAPH_SEED`]).

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_spmv::VectorMap;

use super::{build_cell, common_span_metrics, layout_counts, sim_split, Floor, StepOut, Workload};
use crate::catalog::Layers;
use crate::inputs::{dense_vector, derive, Stream};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

const SCALE: u32 = 14;
const P: usize = 64;
/// The R-MAT and layout seeds of this workload, whatever `--seed` says;
/// `--seed` picks the start vectors.
///
/// How many restart cycles a solve needs is a property of the graph's
/// spectrum: across R-MAT seeds a solve takes 70, 85, 100 or 115
/// operator applies, a 1.6x range in both clocks. And the simulated cost
/// of the orthogonalisation follows the layout's vector imbalance, which
/// moves the simulated solve time by as much again from one partitioner
/// seed to the next. Neither narrows with more measuring, and either
/// would drown every other signal in this workload's medians across
/// seeds. On one operator the cost barely depends on the start vector
/// (here 85 applies for six starts in seven, else 70).
const GRAPH_SEED: u64 = 15_838;
const LAYOUT_SEED: u64 = 15_838;

/// The operator behind a stopwatch: notes when each `apply` began and
/// ended, so a traced solve can be split into applies and the rest.
struct TimedOp<'a> {
    inner: &'a NormalizedLaplacianOp,
    base: Instant,
    calls: RefCell<Vec<(Duration, Duration)>>,
}

impl LinearOperator for TimedOp<'_> {
    fn vmap(&self) -> &Arc<VectorMap> {
        self.inner.vmap()
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        let start = self.base.elapsed();
        self.inner.apply(x, y, ledger);
        self.calls.borrow_mut().push((start, self.base.elapsed()));
    }
}

pub struct EigenKs {
    seed: u64,
    a: CsrMatrix,
    dist: MatrixDist,
    op: NormalizedLaplacianOp,
    /// The ledger of the leading `SIM_STEPS` solves together.
    prefix: CostLedger,
    op_applies: u64,
    restarts: u64,
    max_residual: f64,
    sim_s: f64,
}

fn solve(
    op: &dyn LinearOperator,
    start_seed: u64,
) -> (sf2d_core::sf2d_eigen::EigResult, CostLedger) {
    let mut ledger = CostLedger::new(Machine::cab());
    let res = krylov_schur_largest(op, &KrylovSchurConfig::paper(start_seed), &mut ledger);
    (res, ledger)
}

impl Workload for EigenKs {
    const NAME: &'static str = "eigen-ks";
    const SIM_STEPS: u64 = 8;
    const TRACE_BLOCK: u64 = 2;

    fn set_up(seed: u64, rec: &mut Recorder) -> EigenKs {
        let cell = build_cell(GRAPH_SEED, LAYOUT_SEED, SCALE, Method::TwoDGp, P, rec);
        // R-MAT carries no diagonal; stripping keeps the operator's
        // contract explicit, as `eigen_experiment` does.
        let a = cell.a.without_diagonal();
        let degrees: Vec<usize> = (0..a.nrows()).map(|i| a.row_nnz(i)).collect();
        let op = NormalizedLaplacianOp::new(cell.dm, &degrees).with_threads(1);
        let (warm, _) = solve(&op, derive(seed, Stream::EigenStart, u64::MAX));
        std::hint::black_box(warm.values.len());
        EigenKs {
            seed,
            a,
            dist: cell.dist,
            op,
            prefix: CostLedger::new(Machine::cab()),
            op_applies: 0,
            restarts: 0,
            max_residual: 0.0,
            sim_s: 0.0,
        }
    }

    /// One floor unit is one serial CSR sweep: one operator apply.
    fn measure_floor(&mut self) -> Floor {
        Floor::csr(&self.a, &dense_vector(self.seed, 0, self.a.nrows()))
    }

    fn step(&mut self, i: u64, rec: &mut Recorder) -> StepOut {
        let start_seed = derive(self.seed, Stream::EigenStart, i);
        let op = &self.op;
        let ((res, ledger), latency) = rec.timed(|rec| {
            let root = rec.begin("harness.op");
            let s = rec.begin("eigen.solve");
            // Untraced, the solver gets the operator itself; only a
            // traced solve goes through the stopwatch wrapper.
            let out = if rec.is_on() {
                let timed = TimedOp {
                    inner: op,
                    base: Instant::now(),
                    calls: RefCell::new(Vec::new()),
                };
                let out = solve(&timed, start_seed);
                rec.adopt(s, "spmv.op_apply", timed.base, &timed.calls.borrow());
                out
            } else {
                solve(op, start_seed)
            };
            rec.end(s);
            rec.end(root);
            out
        });
        let cfg = KrylovSchurConfig::paper(start_seed);
        let ok = res.converged
            && res.values.len() == cfg.nev
            && res.residuals.iter().all(|r| *r <= cfg.tol)
            && res.values.iter().all(|v| (-1e-9..=2.0 + 1e-9).contains(v));
        if i < Self::SIM_STEPS {
            self.prefix.merge(&ledger);
            self.op_applies += res.op_applies as u64;
            self.restarts += res.restarts as u64;
            self.max_residual = res
                .residuals
                .iter()
                .copied()
                .fold(self.max_residual, f64::max);
        }
        self.sim_s += ledger.total;
        StepOut {
            latency,
            ops: 1,
            extra: Duration::ZERO,
            floor_units: res.op_applies as f64,
            failed: u32::from(!ok),
        }
    }

    fn sim_s(&self) -> f64 {
        self.sim_s
    }

    fn exact_counts(&mut self, out: &mut Layers) -> bool {
        sim_split(&self.prefix, Self::SIM_STEPS, out);
        out.set("eigen.op_applies", self.op_applies as f64);
        out.set("eigen.restarts", self.restarts as f64);
        out.set("eigen.max_residual", self.max_residual);
        layout_counts(&self.a, &self.dist, out)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers) {
        common_span_metrics(rec, self.a.nnz(), out);
        // Per traced solve: its wall, the part its applies cover, the rest.
        let (mut solves, mut applies, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for (idx, s) in rec.spans.iter().enumerate() {
            if s.name != "eigen.solve" {
                continue;
            }
            let in_applies: u64 = rec
                .spans
                .iter()
                .filter(|c| c.parent == Some(idx))
                .map(|c| c.dur_ns())
                .sum();
            solves.push(s.dur_ns() as f64 / 1e6);
            applies.push(in_applies as f64 / 1e6);
            rest.push((s.dur_ns() - in_applies) as f64 / 1e6);
        }
        out.set("eigen.solve_ms", median(&solves));
        out.set("eigen.op_apply_ms", median(&applies));
        out.set("eigen.ortho_dense_ms", median(&rest));
        let apply_us = rec.median_ms("spmv.op_apply") * 1e3;
        out.set("spmv.product_us", apply_us);
        out.set("spmv.ns_per_nnz", apply_us * 1e3 / self.a.nnz() as f64);
        probes::partition_probe(&self.a, LAYOUT_SEED, P, out);
        probes::superstep_probe(P, out);
    }
}
