//! `hot-2dgp` and `hot-1d-manyranks`: one `spmv_with` product per op on
//! a resident plan and workspace. The same call into the same executor,
//! used two ways: few large messages (2D-GP, p = 64) against thousands
//! of tiny ones (1D-Random, p = 4,096).

use std::marker::PhantomData;

use sf2d_core::prelude::*;

use super::{
    build_cell, graph_seed, layout_counts, layout_seed, sim_split, spmv_cell_metrics, vector_pair,
    vectors_agree, Cell, Floor, StepOut, Workload,
};
use crate::catalog::Layers;
use crate::inputs::dense_vector;
use crate::trace::Recorder;

/// Input vectors a run cycles through.
const VECTORS: usize = 4;

/// What tells the two hot workloads apart.
pub trait HotKind {
    const NAME: &'static str;
    const SCALE: u32;
    const P: usize;
    const METHOD: Method;
}

pub struct TwoDGp;
impl HotKind for TwoDGp {
    const NAME: &'static str = "hot-2dgp";
    const SCALE: u32 = 15;
    const P: usize = 64;
    const METHOD: Method = Method::TwoDGp;
}

pub struct OneDManyRanks;
impl HotKind for OneDManyRanks {
    const NAME: &'static str = "hot-1d-manyranks";
    const SCALE: u32 = 14;
    const P: usize = 4096;
    const METHOD: Method = Method::OneDRandom;
}

pub struct Hot<K> {
    seed: u64,
    cell: Cell,
    /// Global inputs, their distributed copies and serial references.
    xs: Vec<Vec<f64>>,
    xvs: Vec<DistVector>,
    refs: Vec<Vec<f64>>,
    y: DistVector,
    ws: SpmvWorkspace,
    ledger: CostLedger,
    sim_s: f64,
    kind: PhantomData<K>,
}

impl<K: HotKind> Workload for Hot<K> {
    const NAME: &'static str = K::NAME;
    const SIM_STEPS: u64 = 100;
    const TRACE_BLOCK: u64 = 50;

    fn set_up(seed: u64, rec: &mut Recorder) -> Hot<K> {
        let cell = build_cell(
            graph_seed(seed),
            layout_seed(seed),
            K::SCALE,
            K::METHOD,
            K::P,
            rec,
        );
        let xs: Vec<Vec<f64>> = (0..VECTORS)
            .map(|k| dense_vector(seed, k as u64, cell.a.nrows()))
            .collect();
        let refs = xs.iter().map(|x| cell.a.spmv_dense(x)).collect();
        let (xvs, mut ys): (Vec<DistVector>, Vec<DistVector>) =
            xs.iter().map(|x| vector_pair(&cell.dm, x)).unzip();
        let mut y = ys.pop().expect("at least one vector");
        let mut ws = SpmvWorkspace::with_threads(1);
        let mut warm = CostLedger::new(Machine::cab());
        spmv_with(&cell.dm, &xvs[0], &mut y, &mut warm, &mut ws);
        Hot {
            seed,
            cell,
            xs,
            xvs,
            refs,
            y,
            ws,
            ledger: CostLedger::new(Machine::cab()),
            sim_s: 0.0,
            kind: PhantomData,
        }
    }

    fn measure_floor(&mut self) -> Floor {
        Floor::csr(&self.cell.a, &self.xs[0])
    }

    fn step(&mut self, i: u64, rec: &mut Recorder) -> StepOut {
        if i > 0 && i.is_multiple_of(Self::SIM_STEPS) {
            // The ledger logs every superstep; a fresh one per hundred
            // products keeps that log from growing with the run length.
            self.ledger = CostLedger::new(Machine::cab());
        }
        let k = (i % VECTORS as u64) as usize;
        let before = self.ledger.total;
        let ((), latency) = rec.timed(|rec| {
            let root = rec.begin("harness.op");
            let s = rec.begin("spmv.product");
            spmv_with(
                &self.cell.dm,
                &self.xvs[k],
                &mut self.y,
                &mut self.ledger,
                &mut self.ws,
            );
            rec.end(s);
            rec.end(root);
        });
        self.sim_s += self.ledger.total - before;
        let ok = vectors_agree(&self.y.to_global(), &self.refs[k]);
        StepOut {
            latency,
            ops: 1,
            extra: std::time::Duration::ZERO,
            floor_units: 1.0,
            failed: u32::from(!ok),
        }
    }

    fn sim_s(&self) -> f64 {
        self.sim_s
    }

    fn exact_counts(&mut self, out: &mut Layers) -> bool {
        sim_split(&self.ledger, Self::SIM_STEPS, out);
        layout_counts(&self.cell.a, &self.cell.dist, out)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers) {
        spmv_cell_metrics(rec, &self.cell, K::METHOD, &self.xs[0], self.seed, out);
    }
}
