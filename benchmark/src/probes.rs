//! Probes: measurements that do extra work (a second partition at two
//! threads, a chaos-wire product, the sf2d-obs facade switched on). They
//! run only in the traced run, after the timed loop, so they cannot
//! disturb an end-to-end number.

use std::sync::Arc;
use std::time::Instant;

use sf2d_core::prelude::*;
use sf2d_core::sf2d_obs::{self, mem};
use sf2d_core::sf2d_partition::{partition_graph_report, GpConfig};
use sf2d_core::sf2d_sim::sf2d_par::Pool;
use sf2d_core::sf2d_sim::{Phase, PhaseCost};

use crate::catalog::Layers;
use crate::stats::median;

const MIB: f64 = 1024.0 * 1024.0;

fn wall_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// The multilevel partitioner's own report on the graph of `a` for
/// `k` parts: phase split and cut at one thread, then the two-thread
/// wall ratio and pool utilization (part vectors asserted identical).
pub fn partition_probe(a: &CsrMatrix, layout_seed: u64, k: usize, out: &mut Layers) {
    let g = Graph::from_symmetric_matrix(a);
    let cfg = |threads| GpConfig {
        seed: layout_seed,
        threads,
        ..GpConfig::default()
    };
    let (one, ms1) = wall_ms(|| partition_graph_report(&g, k, &cfg(1)));
    let (two, ms2) = wall_ms(|| partition_graph_report(&g, k, &cfg(2)));
    assert_eq!(
        one.partition, two.partition,
        "2-thread partition differs from 1-thread"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    out.set("partition.gp_ms", ms1);
    out.set("partition.match_ms", ms(one.phases.matching));
    out.set("partition.contract_ms", ms(one.phases.contract));
    out.set("partition.initpart_ms", ms(one.phases.initpart));
    out.set("partition.refine_ms", ms(one.phases.refine));
    out.set("partition.project_ms", ms(one.phases.project));
    out.set("partition.edge_cut", one.partition.edge_cut(&g));
    out.set("partition.par2_ratio", ms2 / ms1);
    out.set(
        "par.pool_utilization",
        two.pool.map_or(0.0, |p| p.utilization),
    );
}

/// One more FillComplete at one thread (peak heap, plan size) and one at
/// two threads on a pool (wall ratio; products asserted bit-identical).
pub fn fillcomplete_probe(a: &CsrMatrix, dist: &MatrixDist, x: &[f64], out: &mut Layers) {
    let live0 = mem::snapshot().live_bytes;
    mem::reset_peak();
    let (dm1, ms1) = wall_ms(|| DistCsrMatrix::from_global_with(a, dist, 1, None));
    let peak = mem::snapshot().peak_live_bytes.saturating_sub(live0);
    out.set("spmv.fillcomplete_peak_mib", peak as f64 / MIB);
    out.set("spmv.plan_bytes", dm1.compiled.plan_bytes() as f64);

    let pool = Pool::new(2);
    let (dm2, ms2) = wall_ms(|| DistCsrMatrix::from_global_with(a, dist, 2, Some(&pool)));
    out.set("spmv.compile_par2_ratio", ms2 / ms1);

    let product = |dm: &DistCsrMatrix| {
        let xv = DistVector::from_global(Arc::clone(&dm.vmap), x);
        let mut yv = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ledger = CostLedger::new(Machine::cab());
        spmv_with(
            dm,
            &xv,
            &mut yv,
            &mut ledger,
            &mut SpmvWorkspace::with_threads(1),
        );
        (yv.to_global(), ledger.total)
    };
    let (y1, t1) = product(&dm1);
    let (y2, t2) = product(&dm2);
    assert!(
        dm1.compiled.plan_bytes() == dm2.compiled.plan_bytes()
            && t1.to_bits() == t2.to_bits()
            && y1.iter().zip(&y2).all(|(p, q)| p.to_bits() == q.to_bits()),
        "2-thread FillComplete differs from 1-thread"
    );
}

/// Samples per side of an interleaved A/B comparison.
const AB_SAMPLES: usize = 21;

/// Median wall of `a` and of `b`, taken alternately so drift hits both.
fn interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..AB_SAMPLES {
        ta.push(wall_ms(&mut a).1);
        tb.push(wall_ms(&mut b).1);
    }
    (median(&ta), median(&tb))
}

/// Executor probes on a resident plan: allocations per product, the
/// 16-column SpMM, the chaos wire at fault rate 0, and the sf2d-obs
/// facade switched on — each against the plain `spmv_with`.
pub fn product_probe(dm: &DistCsrMatrix, x: &[f64], seed: u64, out: &mut Layers) {
    let xv = DistVector::from_global(Arc::clone(&dm.vmap), x);
    let mut yv = DistVector::zeros(Arc::clone(&dm.vmap));
    let mut ws = SpmvWorkspace::with_threads(1);
    let mut ledger = CostLedger::new(Machine::cab());
    spmv_with(dm, &xv, &mut yv, &mut ledger, &mut ws);

    let allocs0 = mem::snapshot().allocs;
    for _ in 0..10 {
        spmv_with(dm, &xv, &mut yv, &mut ledger, &mut ws);
    }
    out.set(
        "spmv.allocs_per_product",
        (mem::snapshot().allocs - allocs0) as f64 / 10.0,
    );

    let cols: Vec<Vec<f64>> = (0..16)
        .map(|c| x.iter().map(|v| v * (c + 1) as f64).collect())
        .collect();
    let xm = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
    let mut ym = DistMultiVector::zeros(Arc::clone(&dm.vmap), 16);
    let mut ws16 = SpmvWorkspace::with_threads(1);
    spmm_with(dm, &xm, &mut ym, &mut ledger, &mut ws16);
    let spmm_ms: Vec<f64> = (0..9)
        .map(|_| wall_ms(|| spmm_with(dm, &xm, &mut ym, &mut ledger, &mut ws16)).1)
        .collect();
    out.set("spmv.spmm16_us_per_col", median(&spmm_ms) * 1e3 / 16.0);

    let plain = yv.to_global();
    let mut rt = ChaosRuntime::seeded(seed, 0.0);
    let mut y_chaos = DistVector::zeros(Arc::clone(&dm.vmap));
    let mut ws_chaos = SpmvWorkspace::with_threads(1);
    let mut ledger_chaos = CostLedger::new(Machine::cab());
    let (plain_ms, chaos_ms) = interleaved(
        || spmv_with(dm, &xv, &mut yv, &mut ledger, &mut ws),
        || {
            spmv_chaos_with(
                dm,
                &xv,
                &mut y_chaos,
                &mut ledger_chaos,
                &mut ws_chaos,
                &mut rt,
            )
        },
    );
    assert!(
        plain
            .iter()
            .zip(&y_chaos.to_global())
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        "rate-0 chaos product differs from the plain one"
    );
    out.set("chaos.rate0_ratio", chaos_ms / plain_ms);

    let mut ledger_on = CostLedger::new(Machine::cab());
    let mut ws_on = SpmvWorkspace::with_threads(1);
    let mut y_on = DistVector::zeros(Arc::clone(&dm.vmap));
    let (off_ms, on_ms) = interleaved(
        || spmv_with(dm, &xv, &mut yv, &mut ledger, &mut ws),
        || {
            sf2d_obs::enable();
            spmv_with(dm, &xv, &mut y_on, &mut ledger_on, &mut ws_on);
            sf2d_obs::disable();
        },
    );
    drop(sf2d_obs::take_events());
    drop(sf2d_obs::take_registry());
    out.set("obs.facade_on_ratio", on_ms / off_ms);
}

/// Host ns of one `CostLedger::superstep` over a `p`-long cost vector:
/// the billing a product pays four times, whatever the message sizes.
pub fn superstep_probe(p: usize, out: &mut Layers) {
    let costs = vec![
        PhaseCost {
            msgs: 3,
            bytes: 512,
            flops: 1000,
        };
        p
    ];
    let mut ledger = CostLedger::new(Machine::cab());
    let samples: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ledger.superstep(Phase::Expand, std::hint::black_box(&costs)));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    out.set("sim.superstep_ns", median(&samples));
}
