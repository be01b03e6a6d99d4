//! Property tests pinning the compiled local-index SpMV/SpMM path to the
//! gid-based reference executor: across random matrices × random layouts
//! × random rank counts, results must be **bit-identical** (not merely
//! close) and the cost ledgers byte-for-byte equal, with any `threads`
//! setting — and the compiled plan's payload-arena layout must be the
//! dense function of the message schedule the executor assumes.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use sf2d_gen::{rmat, RmatConfig};
use sf2d_graph::{CooMatrix, CsrMatrix, Graph};
use sf2d_partition::{partition_graph, GpConfig, MatrixDist};
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{
    reference, spmm_with, spmv_with, CompiledSpmv, DistCsrMatrix, DistMultiVector, DistVector,
    SpmvWorkspace,
};

/// A random square matrix, one of the six layouts over a random rank
/// count — more ranks than rows, and so empty ranks, included — and a
/// dense input vector.
fn setup_strategy() -> impl Strategy<Value = (CsrMatrix, MatrixDist, Vec<f64>)> {
    (3usize..48, 2usize..13, 0u8..6, 0u64..1000)
        .prop_flat_map(|(n, p, kind, seed)| {
            let entries =
                proptest::collection::vec((0u32..n as u32, 0u32..n as u32, -4.0f64..4.0), 1..3 * n);
            let xs = proptest::collection::vec(-2.0f64..2.0, n..=n);
            (entries, xs).prop_map(move |(mut entries, xs)| {
                // One value per coordinate: keep the first of any duplicate.
                entries.sort_by_key(|&(i, j, _)| (i, j));
                entries.dedup_by_key(|&mut (i, j, _)| (i, j));
                let mut coo = CooMatrix::with_capacity(n, n, entries.len());
                for (i, j, v) in entries {
                    coo.push(i, j, v);
                }
                let a = CsrMatrix::from_coo(&coo);
                let pr = (1..=p).rev().find(|d| p % d == 0 && *d * *d <= p).unwrap() as u32;
                let pc = p as u32 / pr;
                let gp = || {
                    let g = Graph::from_matrix_symmetrized(&a);
                    partition_graph(&g, p, &GpConfig::default())
                };
                let dist = match kind {
                    0 => MatrixDist::block_1d(n, p),
                    1 => MatrixDist::random_1d(n, p, seed),
                    2 => MatrixDist::from_partition_1d(&gp()),
                    3 => MatrixDist::block_2d(n, pr, pc),
                    4 => MatrixDist::random_2d(n, pr, pc, seed),
                    _ => MatrixDist::cartesian_2d(&gp(), pr, pc, false),
                };
                (a, dist, xs)
            })
        })
        .prop_map(|t| t)
}

/// Exact bitwise equality of two per-rank value sets (`==` on f64 would
/// accept `-0.0 == 0.0`; the claim here is stronger).
fn bits(locals: &[Vec<f64>]) -> Vec<Vec<u64>> {
    locals
        .iter()
        .map(|l| l.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Ledgers must agree step-by-step: same phases, same times, same totals.
fn assert_ledgers_equal(a: &CostLedger, b: &CostLedger) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.history, &b.history);
    prop_assert_eq!(a.total.to_bits(), b.total.to_bits());
    prop_assert_eq!(&a.by_phase, &b.by_phase);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled spmv == reference spmv, bit-for-bit, with identical cost
    /// accounting, at threads 1 and threads 4.
    #[test]
    fn compiled_spmv_is_bit_identical_to_reference((a, dist, xs) in setup_strategy()) {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let x = DistVector::from_global(Arc::clone(&dm.vmap), &xs);

        let mut y_ref = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l_ref = CostLedger::new(Machine::cab());
        reference::spmv_ref(&dm, &x, &mut y_ref, &mut l_ref);

        for threads in [1usize, 4] {
            let mut ws = SpmvWorkspace::with_threads(threads);
            let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
            let mut l = CostLedger::new(Machine::cab());
            spmv_with(&dm, &x, &mut y, &mut l, &mut ws);
            prop_assert_eq!(bits(&y.locals), bits(&y_ref.locals), "threads {}", threads);
            assert_ledgers_equal(&l, &l_ref)?;
        }
    }

    /// Compiled spmm (one strided gather) == reference spmm (one gather
    /// per column), bit-for-bit, sequential and threaded.
    #[test]
    fn compiled_spmm_is_bit_identical_to_reference(
        (a, dist, xs) in setup_strategy(),
        m in 1usize..4,
    ) {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let n = xs.len();
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|c| xs.iter().enumerate()
                .map(|(i, &v)| v + (c * i) as f64 / n as f64)
                .collect())
            .collect();
        let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);

        let mut y_ref = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
        let mut l_ref = CostLedger::new(Machine::cab());
        reference::spmm_ref(&dm, &x, &mut y_ref, &mut l_ref);

        for threads in [1usize, 3] {
            let mut ws = SpmvWorkspace::with_threads(threads);
            let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
            let mut l = CostLedger::new(Machine::cab());
            spmm_with(&dm, &x, &mut y, &mut l, &mut ws);
            prop_assert_eq!(bits(&y.locals), bits(&y_ref.locals), "threads {}", threads);
            assert_ledgers_equal(&l, &l_ref)?;
        }
    }

    /// The flat layout: rank regions are the messages' pack lists, the
    /// expand's pack lists are the need lists transposed, every fold slot
    /// is read once — and a threaded compile lays out the same bytes.
    #[test]
    fn arena_layout_is_the_schedule_expanded((a, dist, _xs) in setup_strategy()) {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        if let Err(what) = common::plan_invariants(&dm) {
            prop_assert!(false, "{}", what);
        }
        for threads in [2usize, 5] {
            let par = CompiledSpmv::compile_with(&dm.vmap, &dm.blocks, threads, None);
            prop_assert_eq!(&par, &dm.compiled, "threads {}", threads);
        }
    }

    /// The owned entries are `lower_rank`'s contract, read off the maps
    /// alone: a rank's owned rows as fold pairs `(stored row, vmap lid)`
    /// ascending; its owned colmap entries as gather slots in its own
    /// region of the x window (the expand keeps no owned pairs).
    #[test]
    fn owned_pairs_are_the_owned_map_entries_in_order((a, dist, _xs) in setup_strategy()) {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        for (r, block) in dm.blocks.iter().enumerate() {
            let owned = |map: &[u32]| -> Vec<(usize, u32)> {
                let gids = map.iter().copied().enumerate();
                gids.filter(|&(_, g)| dm.vmap.owner(g) == r as u32).collect()
            };
            let gather = dm.compiled.expand.gather(r);
            for (lid, g) in owned(&block.colmap) {
                let own = dm.vmap.local_base(r) + dm.vmap.lid(g);
                prop_assert_eq!(gather[lid] as usize, own, "rank {}", r);
            }
            prop_assert_eq!(dm.compiled.expand_rank(r).n_owned(), 0);
            let want: Vec<(u32, u32)> = owned(&block.rowmap)
                .into_iter()
                .map(|(li, g)| (block.stored_row(li) as u32, dm.vmap.lid(g) as u32))
                .collect();
            let plan = dm.compiled.fold_rank(r);
            prop_assert_eq!(plan.n_owned(), want.len(), "rank {}", r);
            let got: Vec<(u32, u32)> = plan.owned_pairs().collect();
            prop_assert_eq!(got, want, "rank {}", r);
        }
    }

    /// A workspace survives reuse across calls and matrices of different
    /// shapes without contaminating results.
    #[test]
    fn workspace_reuse_is_stateless((a, dist, xs) in setup_strategy()) {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let x = DistVector::from_global(Arc::clone(&dm.vmap), &xs);
        let mut ws = SpmvWorkspace::new();

        let mut y1 = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l1 = CostLedger::new(Machine::cab());
        spmv_with(&dm, &x, &mut y1, &mut l1, &mut ws);
        // Second call through the same (now warm) workspace.
        let mut y2 = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut l2 = CostLedger::new(Machine::cab());
        spmv_with(&dm, &x, &mut y2, &mut l2, &mut ws);
        prop_assert_eq!(bits(&y1.locals), bits(&y2.locals));
        assert_ledgers_equal(&l1, &l2)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The regime the flat arena is for: 1D-Random with a rank per two
    /// to four rows, so nearly every message carries one value — at
    /// every width class of the chunked kernel, threaded, and with the
    /// ranks cut into waves.
    #[test]
    fn many_rank_one_value_messages_match_reference(
        gseed in 0u64..1000,
        lseed in 0u64..1000,
        log_p in 6u32..8,
    ) {
        let p = 1usize << log_p;
        let a = rmat(&RmatConfig::graph500(8), gseed);
        let n = a.nrows();
        let dm = DistCsrMatrix::from_global(&a, &MatrixDist::random_1d(n, p, lseed));
        if let Err(what) = common::plan_invariants(&dm) {
            prop_assert!(false, "{}", what);
        }
        let col = |c: usize| -> Vec<f64> {
            (0..n).map(|i| ((i * (c + 3) + c) % 17) as f64 / 4.0 - 2.0).collect()
        };
        for m in [1usize, 2, 7, 8, 9, 16, 17] {
            let cols: Vec<Vec<f64>> = (0..m).map(col).collect();
            let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
            let mut y_ref = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
            let mut l_ref = CostLedger::new(Machine::cab());
            reference::spmm_ref(&dm, &x, &mut y_ref, &mut l_ref);
            let x1 = DistVector::from_global(Arc::clone(&dm.vmap), &cols[0]);
            let mut y1_ref = DistVector::zeros(Arc::clone(&dm.vmap));
            let mut l1_ref = CostLedger::new(Machine::cab());
            reference::spmv_ref(&dm, &x1, &mut y1_ref, &mut l1_ref);

            for (threads, budget) in [(1usize, None), (3, None), (1, Some(4096u64)), (3, Some(0))] {
                let mut ws = SpmvWorkspace::with_threads(threads);
                ws.set_budget(budget);
                let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), m);
                let mut l = CostLedger::new(Machine::cab());
                spmm_with(&dm, &x, &mut y, &mut l, &mut ws);
                prop_assert_eq!(
                    bits(&y.locals), bits(&y_ref.locals),
                    "p {} width {} threads {} budget {:?}", p, m, threads, budget
                );
                assert_ledgers_equal(&l, &l_ref)?;
                prop_assert_eq!(budget.is_some(), ws.wave_count() > 1);
                // The same workspace, now narrower than its arenas.
                let mut y1 = DistVector::zeros(Arc::clone(&dm.vmap));
                let mut l1 = CostLedger::new(Machine::cab());
                spmv_with(&dm, &x1, &mut y1, &mut l1, &mut ws);
                prop_assert_eq!(bits(&y1.locals), bits(&y1_ref.locals));
                assert_ledgers_equal(&l1, &l1_ref)?;
            }
        }
    }
}
