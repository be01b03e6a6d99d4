//! The seven workloads. Each drives the system through public functions
//! only and times those calls from outside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_sim::Phase;

use crate::catalog::Layers;
use crate::inputs::{derive, Stream};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

pub mod cold_cell;
pub mod eigen;
pub mod hot;
pub mod serve;
pub mod spgemm;

/// What one step of the timed loop did. A step is one op, except on the
/// serve workloads, where it is one burst and every query in it is an op
/// whose latency is the burst's wall.
pub struct StepOut {
    /// Host wall of the step's timed call(s): the latency of each of its
    /// ops.
    pub latency: Duration,
    /// User-level ops the step completed.
    pub ops: u32,
    /// Timed wall that is nobody's latency (an edge mutation); it counts
    /// towards throughput only.
    pub extra: Duration,
    /// The step's arithmetic in units of the workload's serial floor
    /// kernel (CSR sweeps, or Gustavson multiplies).
    pub floor_units: f64,
    /// Ops whose output failed verification.
    pub failed: u32,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Simulated time and every exact count are taken over this many
    /// leading steps, so they do not depend on how many steps fit into
    /// `--seconds`. Every segment runs at least these.
    const SIM_STEPS: u64;
    /// Steps after which the work repeats (the burst-width cycle on the
    /// serve workloads). Segments end on a cycle boundary and windows are
    /// whole cycles; `TRACE_BLOCK` and `SIM_STEPS` are multiples of it.
    const CYCLE: u64 = 1;
    /// In a traced run spans are recorded for this many steps, then not
    /// recorded for as many, and so on: the two halves give the tracing
    /// overhead from one process.
    const TRACE_BLOCK: u64;

    /// Everything before the first timed op, from the seed: generation,
    /// layout, FillComplete or `Engine::new`, and one warm-up op.
    fn set_up(seed: u64, rec: &mut Recorder) -> Self;

    /// The serial floor kernel on this workload's matrix; measured
    /// outside set-up and the timed loop.
    fn measure_floor(&mut self) -> Floor;

    /// One step: the timed call(s), then untimed verification.
    fn step(&mut self, i: u64, rec: &mut Recorder) -> StepOut;

    /// Simulated seconds the timed steps have been charged so far.
    fn sim_s(&self) -> f64;

    /// Exact counts and simulated-clock splits, read right after step
    /// `SIM_STEPS - 1`. Returns false if a structural bound (the 2D
    /// message cap) is violated.
    fn exact_counts(&mut self, out: &mut Layers) -> bool;

    /// Traced run only, after the timed loop: medians of this workload's
    /// spans and the probes that do extra work.
    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers);
}

/// The serial kernels a workload's ops are held against.
#[derive(Clone, Copy)]
pub struct Floor {
    /// Host seconds of one floor unit (see [`StepOut::floor_units`]).
    pub unit_s: f64,
    /// Host ns per stored nonzero of one serial CSR sweep.
    pub csr_ns_per_nnz: f64,
}

impl Floor {
    /// A floor whose unit is the CSR sweep itself.
    pub fn csr(a: &CsrMatrix, x: &[f64]) -> Floor {
        let unit_s = csr_floor_s(a, x);
        Floor {
            unit_s,
            csr_ns_per_nnz: unit_s * 1e9 / a.nnz() as f64,
        }
    }
}

/// The R-MAT seed a run's `--seed` stands for.
pub fn graph_seed(seed: u64) -> u64 {
    derive(seed, Stream::Graph, 0)
}

/// The layout (partitioner, random-layout) seed a run's `--seed` stands
/// for.
pub fn layout_seed(seed: u64) -> u64 {
    derive(seed, Stream::Layout, 0)
}

/// A generated graph, its layout and its compiled distributed matrix.
pub struct Cell {
    pub a: CsrMatrix,
    pub dist: MatrixDist,
    pub dm: DistCsrMatrix,
}

/// `rmat` → `LayoutBuilder::dist` → FillComplete, single-threaded, each
/// call under its own span. The two seeds are `graph_seed(seed)` and
/// `layout_seed(seed)` everywhere but on `eigen-ks`.
pub fn build_cell(
    graph_seed: u64,
    layout_seed: u64,
    scale: u32,
    method: Method,
    p: usize,
    rec: &mut Recorder,
) -> Cell {
    let s = rec.begin("gen.rmat");
    let a = rmat(&RmatConfig::graph500(scale), graph_seed);
    rec.end(s);
    let s = rec.begin("partition.dist");
    let dist = LayoutBuilder::new(&a, layout_seed).dist(method, p);
    rec.end(s);
    let s = rec.begin("spmv.fillcomplete");
    let dm = DistCsrMatrix::from_global_with(&a, &dist, 1, None);
    rec.end(s);
    Cell { a, dist, dm }
}

/// A floor reading is the quietest of this many batches of sweeps, each
/// summarised by its median.
const FLOOR_BATCHES: usize = 5;
const FLOOR_SWEEPS_PER_BATCH: usize = 21;

/// Host seconds of one serial `spmv_dense_into` sweep over `a`.
fn csr_floor_s(a: &CsrMatrix, x: &[f64]) -> f64 {
    let mut y = vec![0.0; a.nrows()];
    let mut batch = || {
        let samples: Vec<f64> = (0..FLOOR_SWEEPS_PER_BATCH)
            .map(|_| {
                let t0 = Instant::now();
                a.spmv_dense_into(std::hint::black_box(x), &mut y);
                std::hint::black_box(&mut y);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    (0..FLOOR_BATCHES)
        .map(|_| batch())
        .fold(f64::INFINITY, f64::min)
}

/// The tolerance `spmv_correctness.rs` pins for distributed vs serial.
pub fn vectors_agree(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * (1.0 + w.abs()))
}

/// Bitwise equality of two CSR matrices (pattern and value bits).
pub fn csr_bitwise_eq(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.rowptr() == b.rowptr()
        && a.colidx() == b.colidx()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The exact layout counts of `a` under `dist`; returns whether the
/// layout respects its own message bound (`pr + pc − 2` on 2D).
pub fn layout_counts(a: &CsrMatrix, dist: &MatrixDist, out: &mut Layers) -> bool {
    let m = LayoutMetrics::compute(a, dist);
    out.set("sim.max_msgs", m.max_msgs() as f64);
    out.set("sim.total_volume_doubles", m.total_comm_volume() as f64);
    out.set("partition.nnz_imbalance", m.nnz_imbalance());
    m.max_msgs() <= dist.message_bound()
}

/// The simulated-clock split of `ledger`, which must cover exactly
/// `steps` ops.
pub fn sim_split(ledger: &CostLedger, steps: u64, out: &mut Layers) {
    let of = |phases: &[Phase]| -> f64 {
        phases
            .iter()
            .map(|ph| ledger.by_phase.get(ph).copied().unwrap_or(0.0))
            .sum()
    };
    out.set("sim.expand_s", of(&[Phase::Expand, Phase::Broadcast]));
    out.set("sim.compute_s", of(&[Phase::LocalCompute, Phase::Multiply]));
    out.set("sim.fold_s", of(&[Phase::Fold]));
    out.set("sim.sum_s", of(&[Phase::Sum, Phase::Merge]));
    out.set("sim.supersteps_per_op", ledger.steps as f64 / steps as f64);
}

/// Generator and set-up span medians every workload shares.
pub fn common_span_metrics(rec: &Recorder, nnz: usize, out: &mut Layers) {
    let rmat_ms = rec.median_ms("gen.rmat");
    if rmat_ms > 0.0 {
        out.set("gen.rmat_ms", rmat_ms);
        // Stored nonzeros are both orientations of every undirected edge.
        out.set("gen.edges_per_s", nnz as f64 / 2.0 / (rmat_ms / 1e3));
    }
    out.set("partition.dist_ms", rec.median_ms("partition.dist"));
    out.set("spmv.fillcomplete_ms", rec.median_ms("spmv.fillcomplete"));
}

/// What the two workloads that call `spmv_with` themselves report in a
/// traced run: span medians, then every probe on the cell's plan.
pub fn spmv_cell_metrics(
    rec: &Recorder,
    cell: &Cell,
    method: Method,
    x: &[f64],
    seed: u64,
    out: &mut Layers,
) {
    let nnz = cell.a.nnz();
    let p = cell.dist.nprocs();
    common_span_metrics(rec, nnz, out);
    let product_us = rec.median_ms("spmv.product") * 1e3;
    out.set("spmv.product_us", product_us);
    out.set("spmv.ns_per_nnz", product_us * 1e3 / nnz as f64);
    if method.is_partitioned() {
        probes::partition_probe(&cell.a, layout_seed(seed), p, out);
    }
    probes::fillcomplete_probe(&cell.a, &cell.dist, x, out);
    probes::product_probe(&cell.dm, x, seed, out);
    probes::superstep_probe(p, out);
}

/// A fresh single-threaded SpMV input pair on `dm`'s map.
pub fn vector_pair(dm: &DistCsrMatrix, x: &[f64]) -> (DistVector, DistVector) {
    (
        DistVector::from_global(Arc::clone(&dm.vmap), x),
        DistVector::zeros(Arc::clone(&dm.vmap)),
    )
}
