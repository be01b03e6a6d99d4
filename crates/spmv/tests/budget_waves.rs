//! Wave-scheduler coverage at SpGEMM-sized SpMM widths (ROADMAP item 5's
//! noted gap): `SpmvWorkspace::with_budget` semantics pinned at the
//! workspace level — not just in `sf2d_sim::wave::plan_waves` unit tests —
//! before the serving engine reuses a budgeted workspace across batches.
//!
//! The per-rank footprint at width `m` is `8·min(m, SPMM_CHUNK)·|colmap|`
//! bytes (one row-major column chunk of xcols; the partials are resident,
//! outside the budget). Pinned here:
//!
//! * a budget smaller than *any* single rank's expand payload degrades to
//!   one singleton wave per rank, with the overshoot visible through
//!   `scratch_bytes()` instead of being a failure;
//! * a budget exactly equal to the total footprint plans a single wave,
//!   and one byte less forces a split;
//! * every budget produces bitwise-identical results *and* ledger
//!   histories — wave scheduling is pure scheduling.

use std::sync::Arc;

use sf2d_gen::{rmat, RmatConfig};
use sf2d_partition::MatrixDist;
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{spmm_with, DistCsrMatrix, DistMultiVector, SpmvWorkspace, SPMM_CHUNK};

/// SpGEMM-sized width: `spgemm` expands whole B-rows, so its payloads per
/// entry are this many doubles wide, not 1.
const WIDTH: usize = 32;

fn fixture() -> (DistCsrMatrix, DistMultiVector, Vec<u64>) {
    let a = rmat(&RmatConfig::graph500(7), 37);
    let d = MatrixDist::block_2d(a.nrows(), 2, 3);
    let dm = DistCsrMatrix::from_global(&a, &d);
    let n = a.nrows();
    let cols: Vec<Vec<f64>> = (0..WIDTH)
        .map(|c| {
            (0..n)
                .map(|i| ((i * (c + 2) + c) % 13) as f64 - 6.0)
                .collect()
        })
        .collect();
    let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
    let foot: Vec<u64> = dm
        .blocks
        .iter()
        .map(|b| 8 * (WIDTH.min(SPMM_CHUNK) * b.colmap.len()) as u64)
        .collect();
    (dm, x, foot)
}

/// `spmm_with` into a fresh output, returning `(locals bits, history,
/// total bits, wave count, scratch bytes)`. A fresh workspace per call:
/// scratch only ever grows, so reusing one would mask budget shrinkage.
#[allow(clippy::type_complexity)]
fn run(
    dm: &DistCsrMatrix,
    x: &DistMultiVector,
    budget: Option<u64>,
    threads: usize,
) -> (Vec<Vec<u64>>, Vec<(sf2d_sim::Phase, f64)>, u64, usize, u64) {
    let mut ws = SpmvWorkspace::with_threads(threads);
    ws.set_budget(budget);
    let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), WIDTH);
    let mut l = CostLedger::new(Machine::cab());
    spmm_with(dm, x, &mut y, &mut l, &mut ws);
    let bits = y
        .locals
        .iter()
        .map(|loc| loc.iter().map(|v| v.to_bits()).collect())
        .collect();
    (
        bits,
        l.history,
        l.total.to_bits(),
        ws.wave_count(),
        ws.scratch_bytes(),
    )
}

#[test]
fn budget_below_any_rank_payload_degrades_to_singleton_waves() {
    let (dm, x, foot) = fixture();
    let smallest = *foot.iter().min().unwrap();
    let largest = *foot.iter().max().unwrap();
    assert!(smallest > 1, "fixture ranks must have real footprints");

    let (gold, hist, total, waves, _) = run(&dm, &x, None, 1);
    assert_eq!(waves, 1, "unbudgeted is the all-resident single wave");

    for threads in [1usize, 3] {
        let (bits, h, t, waves, scratch) = run(&dm, &x, Some(smallest - 1), threads);
        // No rank fits: one singleton wave per rank, and the arena still
        // has to hold the largest rank — the overshoot is visible, not
        // a failure.
        assert_eq!(waves, dm.nprocs(), "threads {threads}");
        assert_eq!(scratch, largest, "threads {threads}");
        assert!(scratch > smallest - 1, "overshoot must be observable");
        assert_eq!(bits, gold, "threads {threads}");
        assert_eq!(h, hist, "threads {threads}");
        assert_eq!(t, total, "threads {threads}");
    }
}

#[test]
fn exact_fit_budget_is_one_wave_and_one_byte_less_splits() {
    let (dm, x, foot) = fixture();
    let total_foot: u64 = foot.iter().sum();

    let (gold, hist, total, _, _) = run(&dm, &x, None, 1);

    let (bits, h, t, waves, scratch) = run(&dm, &x, Some(total_foot), 1);
    assert_eq!(waves, 1, "exact fit plans a single wave");
    assert_eq!(scratch, total_foot);
    assert_eq!((bits.clone(), h, t), (gold.clone(), hist.clone(), total));

    let (bits, h, t, waves, scratch) = run(&dm, &x, Some(total_foot - 1), 1);
    assert!(waves > 1, "one byte below the total must split");
    assert!(scratch < total_foot, "a split must actually bound memory");
    assert_eq!((bits, h, t), (gold, hist, total));
}

#[test]
fn width_changes_the_wave_plan_for_the_same_budget() {
    // The same byte budget admits fewer ranks per wave as the SpMM width
    // grows up to SPMM_CHUNK — the footprint is width-dependent, so the
    // engine cannot reuse a width-1 plan for a wide batch. Pin with the
    // width-1 footprint sum used as the budget at width 1 (one wave)
    // versus the plan it produces at width 32 (must split).
    let (dm, x, foot) = fixture();
    let narrow_foot = foot.iter().sum::<u64>() / SPMM_CHUNK as u64;
    let (_, _, _, waves32, _) = run(&dm, &x, Some(narrow_foot), 1);
    assert!(
        waves32 > 1,
        "widening to 32 must outgrow the width-1 budget"
    );

    let n = dm.n;
    let cols: Vec<Vec<f64>> = vec![(0..n).map(|i| (i % 5) as f64).collect()];
    let x1 = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
    let mut ws = SpmvWorkspace::new().with_budget(narrow_foot);
    let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), 1);
    spmm_with(
        &dm,
        &x1,
        &mut y,
        &mut CostLedger::new(Machine::cab()),
        &mut ws,
    );
    assert_eq!(ws.wave_count(), 1);
}
