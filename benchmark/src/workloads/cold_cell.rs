//! `cold-cell`: the researcher's path. One op is one full Table-3 cell
//! built from nothing — `rmat` → 2D-GP layout → FillComplete → 100
//! products — so generator and partitioner do most of the work.

use sf2d_core::prelude::*;

use super::{
    build_cell, graph_seed, layout_counts, layout_seed, sim_split, spmv_cell_metrics, vector_pair,
    vectors_agree, Cell, Floor, StepOut, Workload,
};
use crate::catalog::Layers;
use crate::inputs::dense_vector;
use crate::trace::Recorder;

const SCALE: u32 = 14;
const P: usize = 256;
/// Products per cell, as the paper times them.
const PRODUCTS: usize = 100;

/// Everything one cell produced, kept until it has been verified.
struct Built {
    cell: Cell,
    x: Vec<f64>,
    y: DistVector,
    ledger: CostLedger,
}

pub struct ColdCell {
    seed: u64,
    last: Option<Built>,
    sim_s: f64,
}

/// One whole cell. Every op runs this from the same seed: the work is
/// identical, and nothing but the allocator survives between ops.
fn run_cell(seed: u64, rec: &mut Recorder) -> Built {
    let cell = build_cell(
        graph_seed(seed),
        layout_seed(seed),
        SCALE,
        Method::TwoDGp,
        P,
        rec,
    );
    let x = dense_vector(seed, 0, cell.a.nrows());
    let (xv, mut y) = vector_pair(&cell.dm, &x);
    let mut ledger = CostLedger::new(Machine::cab());
    let mut ws = SpmvWorkspace::with_threads(1);
    for _ in 0..PRODUCTS {
        let s = rec.begin("spmv.product");
        spmv_with(&cell.dm, &xv, &mut y, &mut ledger, &mut ws);
        rec.end(s);
    }
    Built { cell, x, y, ledger }
}

impl ColdCell {
    fn built(&self) -> &Built {
        self.last.as_ref().expect("a cell has been built")
    }
}

impl Workload for ColdCell {
    const NAME: &'static str = "cold-cell";
    const SIM_STEPS: u64 = 1;
    const TRACE_BLOCK: u64 = 1;

    fn set_up(seed: u64, rec: &mut Recorder) -> ColdCell {
        // Nothing is resident on this path: set-up is the warm-up op.
        ColdCell {
            seed,
            last: Some(run_cell(seed, rec)),
            sim_s: 0.0,
        }
    }

    fn measure_floor(&mut self) -> Floor {
        let b = self.built();
        Floor::csr(&b.cell.a, &b.x)
    }

    fn step(&mut self, _i: u64, rec: &mut Recorder) -> StepOut {
        self.last = None;
        let seed = self.seed;
        let (built, latency) = rec.timed(|rec| {
            let root = rec.begin("harness.op");
            let built = run_cell(seed, rec);
            rec.end(root);
            built
        });
        let ok = vectors_agree(&built.y.to_global(), &built.cell.a.spmv_dense(&built.x));
        self.sim_s += built.ledger.total;
        self.last = Some(built);
        StepOut {
            latency,
            ops: 1,
            extra: std::time::Duration::ZERO,
            floor_units: PRODUCTS as f64,
            failed: u32::from(!ok),
        }
    }

    fn sim_s(&self) -> f64 {
        self.sim_s
    }

    fn exact_counts(&mut self, out: &mut Layers) -> bool {
        let b = self.built();
        sim_split(&b.ledger, 1, out);
        layout_counts(&b.cell.a, &b.cell.dist, out)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers) {
        let b = self.built();
        spmv_cell_metrics(rec, &b.cell, Method::TwoDGp, &b.x, self.seed, out);
    }
}
