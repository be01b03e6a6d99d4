//! `spgemm-aat`: C = A·Aᵀ twice per op — once through the expand/fold
//! kernel, once through Sparse SUMMA — on resident operands and
//! workspaces. `sf2d-spgemm` does all the work; the SpMV executor none.
//! Both kernels share the op so neither can regress unseen.

use std::time::{Duration, Instant};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_graph::spgemm::spgemm as gustavson;
use sf2d_core::sf2d_obs::mem;

use super::{
    build_cell, common_span_metrics, csr_bitwise_eq, graph_seed, layout_counts, layout_seed,
    sim_split, Cell, Floor, StepOut, Workload,
};
use crate::catalog::Layers;
use crate::inputs::dense_vector;
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

const SCALE: u32 = 11;
const P: usize = 64;

pub struct SpgemmAat {
    seed: u64,
    cell: Cell,
    b: CsrMatrix,
    /// The serial Gustavson product both kernels must match bit for bit.
    oracle: CsrMatrix,
    ws_ef: SpgemmWorkspace,
    ws_summa: SummaWorkspace,
    /// The ledger of the leading `SIM_STEPS` ops.
    prefix: CostLedger,
    /// Exact counts of the first op's two products.
    counts: Vec<(&'static str, f64)>,
    sim_s: f64,
}

fn flops(multiply: &[u64], merge: &[u64]) -> f64 {
    (multiply.iter().sum::<u64>() + merge.iter().sum::<u64>()) as f64
}

impl Workload for SpgemmAat {
    const NAME: &'static str = "spgemm-aat";
    const SIM_STEPS: u64 = 1;
    const TRACE_BLOCK: u64 = 2;

    fn set_up(seed: u64, rec: &mut Recorder) -> SpgemmAat {
        let cell = build_cell(
            graph_seed(seed),
            layout_seed(seed),
            SCALE,
            Method::TwoDGp,
            P,
            rec,
        );
        let b = cell.a.transpose();
        let s = rec.begin("graph.gustavson");
        let oracle = gustavson(&cell.a, &b);
        rec.end(s);
        let mut w = SpgemmAat {
            seed,
            cell,
            b,
            oracle,
            ws_ef: SpgemmWorkspace::with_threads(1),
            ws_summa: SummaWorkspace::with_threads(1),
            prefix: CostLedger::new(Machine::cab()),
            counts: Vec::new(),
            sim_s: 0.0,
        };
        let mut warm = CostLedger::new(Machine::cab());
        let (ef, summa) = w.multiply_both(&mut warm, &mut Recorder::new());
        std::hint::black_box((ef.nnz, summa.nnz));
        w
    }

    /// One floor unit is one serial Gustavson multiply of the same
    /// operands; an op is two of them.
    fn measure_floor(&mut self) -> Floor {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(gustavson(&self.cell.a, &self.b));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let x = dense_vector(self.seed, 0, self.cell.a.nrows());
        Floor {
            unit_s: median(&samples),
            ..Floor::csr(&self.cell.a, &x)
        }
    }

    fn step(&mut self, i: u64, rec: &mut Recorder) -> StepOut {
        let mut ledger = CostLedger::new(Machine::cab());
        let ((ef, summa), latency) = rec.timed(|rec| {
            let root = rec.begin("harness.op");
            let out = self.multiply_both(&mut ledger, rec);
            rec.end(root);
            out
        });
        // Both equal the oracle bit for bit, hence each other.
        let ok = csr_bitwise_eq(&ef.to_global(), &self.oracle)
            && csr_bitwise_eq(&summa.to_global(), &self.oracle);
        if i < Self::SIM_STEPS {
            self.prefix.merge(&ledger);
            self.counts = vec![
                (
                    "spgemm.flops_ef",
                    flops(&ef.multiply_flops, &ef.merge_flops),
                ),
                (
                    "spgemm.flops_summa",
                    flops(&summa.multiply_flops, &summa.merge_flops),
                ),
                (
                    "spgemm.max_msgs_ef",
                    (ef.expand.max_send_msgs() + ef.fold.max_send_msgs()) as f64,
                ),
                ("spgemm.max_msgs_summa", summa.max_send_msgs() as f64),
                (
                    "spgemm.volume_ef",
                    (ef.expand.total_volume() + ef.fold.total_volume()) as f64,
                ),
                ("spgemm.volume_summa", summa.total_volume() as f64),
            ];
        }
        self.sim_s += ledger.total;
        StepOut {
            latency,
            ops: 1,
            extra: Duration::ZERO,
            floor_units: 2.0,
            failed: u32::from(!ok),
        }
    }

    fn sim_s(&self) -> f64 {
        self.sim_s
    }

    fn exact_counts(&mut self, out: &mut Layers) -> bool {
        sim_split(&self.prefix, Self::SIM_STEPS, out);
        for (name, value) in &self.counts {
            out.set(name, *value);
        }
        layout_counts(&self.cell.a, &self.cell.dist, out)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers) {
        common_span_metrics(rec, self.cell.a.nnz(), out);
        let gustavson_ms = self.measure_floor().unit_s * 1e3;
        let ef_ms = rec.median_ms("spgemm.expand_fold");
        let summa_ms = rec.median_ms("spgemm.summa");
        out.set("graph.gustavson_floor_ms", gustavson_ms);
        out.set("spgemm.expand_fold_ms", ef_ms);
        out.set("spgemm.summa_ms", summa_ms);
        out.set("spgemm.ef_vs_gustavson_ratio", ef_ms / gustavson_ms);
        out.set("spgemm.summa_vs_gustavson_ratio", summa_ms / gustavson_ms);
        let allocs0 = mem::snapshot().allocs;
        let mut ledger = CostLedger::new(Machine::cab());
        drop(self.multiply_both(&mut ledger, &mut Recorder::new()));
        out.set(
            "spgemm.allocs_per_multiply",
            (mem::snapshot().allocs - allocs0) as f64 / 2.0,
        );
        probes::partition_probe(&self.cell.a, layout_seed(self.seed), P, out);
        probes::superstep_probe(P, out);
    }
}

impl SpgemmAat {
    fn multiply_both(
        &mut self,
        ledger: &mut CostLedger,
        rec: &mut Recorder,
    ) -> (DistSpgemm, SummaSpgemm) {
        let s = rec.begin("spgemm.expand_fold");
        let ef = spgemm_with(&self.cell.dm, &self.b, ledger, &mut self.ws_ef);
        rec.end(s);
        let s = rec.begin("spgemm.summa");
        let summa = summa_with(
            &self.cell.dm,
            &self.cell.dist,
            &self.b,
            ledger,
            &mut self.ws_summa,
        );
        rec.end(s);
        (ef, summa)
    }
}
