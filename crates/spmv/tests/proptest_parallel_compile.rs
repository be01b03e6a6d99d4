//! Property tests pinning the parallel, arena-compressed plan compiler to
//! the serial path: across rank counts p ∈ {1, 4, 64, 256} × layouts ×
//! thread counts (bare threads and the persistent pool), `FillComplete`
//! must produce **byte-identical** distributed matrices — same blocks,
//! same compiled plan — and an SpMV executed
//! through the parallel-compiled matrix must replay the exact ledger
//! (history and total bits) of the serial-compiled one.

use std::sync::Arc;

use proptest::prelude::*;
use sf2d_gen::{rmat, RmatConfig};
use sf2d_partition::{grid_shape, MatrixDist};
use sf2d_sim::sf2d_par::Pool;
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{spmv_with, DistCsrMatrix, DistVector, SpmvWorkspace};

const RANK_COUNTS: [usize; 4] = [1, 4, 64, 256];

fn layout_for(kind: u8, n: usize, p: usize, seed: u64) -> MatrixDist {
    let (pr, pc) = grid_shape(p);
    match kind {
        0 => MatrixDist::block_1d(n, p),
        1 => MatrixDist::random_1d(n, p, seed),
        2 => MatrixDist::block_2d(n, pr, pc),
        _ => MatrixDist::random_2d(n, pr, pc, seed),
    }
}

/// Every observable byte of the two matrices must agree; `CompiledSpmv`
/// derives `Eq` over the shared arena and every phase plan, so `==`
/// there covers the compressed store, offsets, and cost vectors.
fn assert_identical(par: &DistCsrMatrix, serial: &DistCsrMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(&par.compiled, &serial.compiled);
    prop_assert_eq!(par.blocks.len(), serial.blocks.len());
    for (b1, b2) in par.blocks.iter().zip(&serial.blocks) {
        prop_assert_eq!(b1, b2);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel FillComplete (bare threads and pooled) is byte-identical
    /// to serial at every rank count and layout family.
    #[test]
    fn parallel_compile_is_byte_identical_across_scales(
        scale in 5u32..8,
        mseed in 0u64..1000,
        kind in 0u8..4,
        lseed in 0u64..100,
        threads in 2usize..6,
    ) {
        let a = rmat(&RmatConfig::graph500(scale), mseed);
        let pool = Pool::new(threads);
        for p in RANK_COUNTS {
            let dist = layout_for(kind, a.nrows(), p, lseed);
            let serial = DistCsrMatrix::from_global(&a, &dist);
            let bare = DistCsrMatrix::from_global_with(&a, &dist, threads, None);
            assert_identical(&bare, &serial)?;
            let pooled = DistCsrMatrix::from_global_with(&a, &dist, threads, Some(&pool));
            assert_identical(&pooled, &serial)?;
        }
    }

    /// An SpMV through a parallel-compiled matrix replays the serial
    /// ledger exactly: same superstep history, same total bits, same
    /// output bits — the compressed plans are not just equal, they
    /// *execute* identically.
    #[test]
    fn parallel_compiled_spmv_replays_the_serial_ledger(
        scale in 5u32..8,
        mseed in 0u64..1000,
        kind in 0u8..4,
        lseed in 0u64..100,
    ) {
        let a = rmat(&RmatConfig::graph500(scale), mseed);
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        for p in [4usize, 64] {
            let dist = layout_for(kind, n, p, lseed);
            let serial = DistCsrMatrix::from_global(&a, &dist);
            let par = DistCsrMatrix::from_global_with(&a, &dist, 3, None);

            let x0 = DistVector::from_global(Arc::clone(&serial.vmap), &xs);
            let mut y0 = DistVector::zeros(Arc::clone(&serial.vmap));
            let mut l0 = CostLedger::new(Machine::cab());
            spmv_with(&serial, &x0, &mut y0, &mut l0, &mut SpmvWorkspace::new());

            let x1 = DistVector::from_global(Arc::clone(&par.vmap), &xs);
            let mut y1 = DistVector::zeros(Arc::clone(&par.vmap));
            let mut l1 = CostLedger::new(Machine::cab());
            spmv_with(&par, &x1, &mut y1, &mut l1, &mut SpmvWorkspace::new());

            prop_assert_eq!(&l0.history, &l1.history);
            prop_assert_eq!(l0.total.to_bits(), l1.total.to_bits());
            for (a, b) in y0.locals.iter().zip(&y1.locals) {
                let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ab, bb);
            }
        }
    }
}
