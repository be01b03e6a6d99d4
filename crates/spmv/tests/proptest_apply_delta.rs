//! The dirty-rank FillComplete contract: after **any** sequence of entry
//! inserts, re-weights and removals applied through
//! [`DistCsrMatrix::apply_delta`], the patched matrix is equal to
//! [`DistCsrMatrix::from_global`] of the changed global matrix under the
//! same layout — `blocks` and the compiled plan are both `==` — and so
//! `spmv`/`spmm` through it give the same bits and bill the same ledger.
//!
//! The property sweep crosses three generator families × six layouts ×
//! p ∈ {1, 4, 16, 64} with random multi-delta batches; the unit tests
//! below it pin the degenerate cells one by one and check that each
//! really is the cell it claims to be.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sf2d_gen::{chung_lu, erdos_renyi, powerlaw_degrees, rmat, RmatConfig};
use sf2d_graph::{CooMatrix, CsrMatrix, Graph};
use sf2d_partition::{grid_shape, partition_graph, GpConfig, MatrixDist};
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{
    spmm_with, spmv_with, DeltaReport, DistCsrMatrix, DistMultiVector, DistVector, EntryDelta,
    PackEntry, SpmvWorkspace, UnpackEntry,
};

const RANK_COUNTS: [usize; 4] = [1, 4, 16, 64];

/// The six layouts of the SpMV study: 1D/2D × block, random, GP.
fn layout_for(kind: u8, a: &CsrMatrix, p: usize, seed: u64) -> MatrixDist {
    let n = a.nrows();
    let (pr, pc) = grid_shape(p);
    let gp = || partition_graph(&Graph::from_symmetric_matrix(a), p, &GpConfig::default());
    match kind {
        0 => MatrixDist::block_1d(n, p),
        1 => MatrixDist::random_1d(n, p, seed),
        2 => MatrixDist::from_partition_1d(&gp()),
        3 => MatrixDist::block_2d(n, pr, pc),
        4 => MatrixDist::random_2d(n, pr, pc, seed),
        _ => MatrixDist::cartesian_2d(&gp(), pr, pc, false),
    }
}

fn graph_for(family: u8, seed: u64) -> CsrMatrix {
    match family {
        0 => rmat(&RmatConfig::graph500(6), seed),
        1 => chung_lu(&powerlaw_degrees(80, 2.2, 2, 20, seed), 200, 0, 0.0, seed),
        _ => erdos_renyi(70, 180, seed),
    }
}

type Entries = BTreeMap<(u32, u32), f64>;

/// Every message of both phases: pack entries and fold unpack entries,
/// rank by rank.
fn messages(dm: &DistCsrMatrix) -> (Vec<PackEntry>, Vec<UnpackEntry>) {
    let c = &dm.compiled;
    let ranks = 0..dm.nprocs();
    let packs = ranks.clone().flat_map(|r| {
        let both = c
            .expand
            .pack_entries(r)
            .iter()
            .chain(c.fold.pack_entries(r));
        both.copied().collect::<Vec<_>>()
    });
    let unpacks = ranks.flat_map(|r| c.fold.unpack_entries(r).to_vec());
    (packs.collect(), unpacks.collect())
}

/// Doubles moved by one width-1 product: both phases' pack lists.
fn volume(dm: &DistCsrMatrix) -> usize {
    let c = &dm.compiled;
    let at = |r| c.expand.pack_indices(r).len() + c.fold.pack_indices(r).len();
    (0..dm.nprocs()).map(at).sum()
}

fn entries_of(a: &CsrMatrix) -> Entries {
    a.iter().map(|(i, j, v)| ((i, j), v)).collect()
}

fn matrix_from(entries: &Entries, n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for (&(i, j), &v) in entries {
        coo.push(i, j, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// Applies `batch` to the shadow entry map the way `apply_delta` must.
fn apply_shadow(entries: &mut Entries, batch: &[EntryDelta]) {
    for d in batch {
        match d.value {
            Some(v) => entries.insert((d.i, d.j), v),
            None => entries.remove(&(d.i, d.j)),
        };
    }
}

/// One SpMV and one `width`-wide SpMM through `dm`: value bits, ledger
/// history.
fn products_at(dm: &DistCsrMatrix, width: usize) -> (Vec<u64>, Vec<(sf2d_sim::Phase, f64)>) {
    let n = dm.n;
    let col = |c: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * (c + 3) + c) % 11) as f64 - 5.0)
            .collect()
    };
    let mut ledger = CostLedger::new(Machine::cab());
    let mut ws = SpmvWorkspace::new();
    let x = DistVector::from_global(Arc::clone(&dm.vmap), &col(0));
    let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
    spmv_with(dm, &x, &mut y, &mut ledger, &mut ws);
    let cols: Vec<Vec<f64>> = (1..=width).map(col).collect();
    let xm = DistMultiVector::from_columns(Arc::clone(&dm.vmap), &cols);
    let mut ym = DistMultiVector::zeros(Arc::clone(&dm.vmap), width);
    spmm_with(dm, &xm, &mut ym, &mut ledger, &mut ws);
    let mut bits: Vec<u64> = y.to_global().iter().map(|v| v.to_bits()).collect();
    for c in 0..width {
        bits.extend(ym.col_to_global(c).iter().map(|v| v.to_bits()));
    }
    (bits, ledger.history)
}

/// The contract: `patched` against a from-scratch FillComplete of `want`.
fn schedule_equal(
    patched: &DistCsrMatrix,
    want: &CsrMatrix,
    dist: &MatrixDist,
) -> Result<(), String> {
    let fresh = DistCsrMatrix::from_global(want, dist);
    for (r, (b, f)) in patched.blocks.iter().zip(&fresh.blocks).enumerate() {
        if b != f {
            return Err(format!("block {r} differs"));
        }
    }
    if patched.compiled != fresh.compiled {
        return Err("compiled schedule differs".into());
    }
    common::plan_invariants(patched)?;
    if products_at(patched, 3) != products_at(&fresh, 3) {
        return Err("product bits or ledger history differ".into());
    }
    Ok(())
}

/// Applies `batches` one `apply_delta` each, checking the contract after
/// every one; returns the patched matrix and the reports.
fn run(
    a: &CsrMatrix,
    dist: &MatrixDist,
    batches: &[Vec<EntryDelta>],
) -> (DistCsrMatrix, Vec<DeltaReport>) {
    let mut dm = DistCsrMatrix::from_global(a, dist);
    let mut entries = entries_of(a);
    let mut reports = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        reports.push(dm.apply_delta(dist, batch));
        apply_shadow(&mut entries, batch);
        let want = matrix_from(&entries, a.nrows());
        if let Err(what) = schedule_equal(&dm, &want, dist) {
            panic!("after batch {k} {batch:?}: {what}");
        }
    }
    (dm, reports)
}

fn set(i: u32, j: u32, v: f64) -> EntryDelta {
    EntryDelta {
        i,
        j,
        value: Some(v),
    }
}

fn remove(i: u32, j: u32) -> EntryDelta {
    EntryDelta { i, j, value: None }
}

/// A delta drawn against the current entry map: `pick` selects a stored
/// entry for the kinds that need one.
fn delta_for(
    entries: &Entries,
    n: u32,
    (kind, pick, i, j, w): (u8, usize, u32, u32, u32),
) -> EntryDelta {
    let stored = || {
        let k = pick % entries.len().max(1);
        entries.keys().nth(k).copied().unwrap_or((0, 0))
    };
    let w = w as f64 / 4.0;
    match kind {
        // Mostly-absent coordinate: an insert (or a re-weight if stored).
        0..=2 => set(i % n, j % n, w),
        // Re-weight of a stored entry.
        3..=4 => {
            let (si, sj) = stored();
            set(si, sj, w)
        }
        // Removal of a stored entry.
        5..=7 => {
            let (si, sj) = stored();
            remove(si, sj)
        }
        // Removal of a mostly-absent coordinate: a no-op.
        _ => remove(i % n, j % n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random insert / re-weight / remove batches on every layout and
    /// rank count: the patched matrix stays schedule-equal to a
    /// from-scratch build after every batch.
    #[test]
    fn patched_matrix_is_schedule_equal_to_a_fresh_fill_complete(
        family in 0u8..3,
        gseed in 0u64..200,
        kind in 0u8..6,
        lseed in 0u64..50,
        raw in proptest::collection::vec(
            proptest::collection::vec((0u8..9, 0usize..10_000, 0u32..128, 0u32..128, 1u32..40), 1..5),
            1..7,
        ),
    ) {
        let a = graph_for(family, gseed);
        let n = a.nrows() as u32;
        for p in RANK_COUNTS {
            let dist = layout_for(kind, &a, p, lseed);
            let mut dm = DistCsrMatrix::from_global(&a, &dist);
            let mut entries = entries_of(&a);
            for batch in &raw {
                // Deltas of one batch are drawn against the entries as
                // they stood before it, so a batch can hit one entry twice.
                let batch: Vec<EntryDelta> =
                    batch.iter().map(|&d| delta_for(&entries, n, d)).collect();
                dm.apply_delta(&dist, &batch);
                apply_shadow(&mut entries, &batch);
                let want = matrix_from(&entries, a.nrows());
                if let Err(what) = schedule_equal(&dm, &want, &dist) {
                    prop_assert!(false, "layout {} p {}: {} after {:?}", kind, p, what, batch);
                }
            }
        }
    }
}

// -- degenerate cells ---------------------------------------------------

/// An `n`×`n` matrix with exactly `entries`.
fn matrix(n: usize, entries: &[(u32, u32)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j) in entries {
        coo.push(i, j, 1.0 + (i + 2 * j) as f64);
    }
    CsrMatrix::from_coo(&coo)
}

/// 8×8 on a 2×2 block grid. Vector entries: rank r owns {2r, 2r+1}.
fn grid() -> MatrixDist {
    MatrixDist::block_2d(8, 2, 2)
}

#[test]
fn reweight_touches_no_map_plan_or_schedule() {
    let a = rmat(&RmatConfig::graph500(6), 3);
    let dist = layout_for(5, &a, 16, 0);
    let before = DistCsrMatrix::from_global(&a, &dist);
    let (i, j, _) = a.iter().nth(17).unwrap();
    let (dm, reports) = run(&a, &dist, &[vec![set(i, j, 9.5), set(j, i, 9.5)]]);
    assert_eq!(reports[0].relowered, 0);
    assert!(reports[0].dirty_ranks >= 1);
    assert_eq!(dm.compiled, before.compiled);
    assert_eq!(dm.to_global().get(i as usize, j), Some(9.5));
}

#[test]
fn insert_into_an_existing_row_and_column_changes_the_block_only() {
    // Rank 0 of the grid holds (0,0), (0,1), (0,2), (1,0); (1,1) lands
    // on a row and a column already mapped there, and row 1 stays the
    // shorter of the two, so the stored row order stands as well.
    let a = matrix(8, &[(0, 0), (0, 1), (0, 2), (1, 0), (5, 6)]);
    let before = DistCsrMatrix::from_global(&a, &grid());
    assert_eq!(before.blocks[0].nnz(), 4);
    let (dm, reports) = run(&a, &grid(), &[vec![set(1, 1, 4.0)]]);
    assert_eq!(reports[0].relowered, 0, "no lid and no stored row moved");
    assert_eq!(dm.compiled.expand, before.compiled.expand);
    assert_eq!(dm.compiled.fold, before.compiled.fold);
    assert_ne!(dm.compiled.compute_costs, before.compiled.compute_costs);
}

#[test]
fn an_insert_that_moves_a_row_to_another_length_relowers_its_own_rank_only() {
    // Rank 0 holds row 0 = {0, 1} and row 1 = {0}: row 1 is the
    // length-1 run and is stored first. (1,1) is inside both maps and
    // moves row 1 into the length-2 run, behind row 0 (ties go by gid).
    let a = matrix(8, &[(0, 0), (0, 1), (1, 0), (5, 6)]);
    let dist = grid();
    let before = DistCsrMatrix::from_global(&a, &dist);
    let stored = |dm: &DistCsrMatrix| [dm.blocks[0].stored_row(0), dm.blocks[0].stored_row(1)];
    assert_eq!(before.blocks[0].nnz(), 3);
    assert_eq!(stored(&before), [1, 0]);

    let (dm, reports) = run(&a, &dist, &[vec![set(1, 1, 4.0)]]);
    assert_eq!(dm.blocks[0].rowmap, before.blocks[0].rowmap);
    assert_eq!(dm.blocks[0].colmap, before.blocks[0].colmap);
    assert_eq!(stored(&dm), [0, 1], "the position table changed");
    assert_eq!(reports[0].relowered, 1, "rank 0 and no peer");
    assert_eq!(reports[0].dirty_ranks, 1);
    // Only rank 0's fold lists moved: messages, payloads and the
    // expand side are the bytes they were.
    assert_eq!(messages(&dm), messages(&before));
    assert_eq!(dm.compiled.expand, before.compiled.expand);
    assert_ne!(dm.compiled.fold, before.compiled.fold);

    // `run` held the patched plan equal to a fresh one and
    // compared spmv + width-3 bits; a served batch is width 16.
    let mut want = entries_of(&a);
    want.insert((1, 1), 4.0);
    let fresh = DistCsrMatrix::from_global(&matrix_from(&want, 8), &dist);
    assert!(dm.compiled == fresh.compiled);
    assert_eq!(products_at(&dm, 16), products_at(&fresh, 16));
}

#[test]
fn first_nonzero_of_a_row_and_a_column_creates_both_messages() {
    let a = matrix(8, &[(0, 0), (3, 3), (5, 5)]);
    let dist = grid();
    // (0, 7) lands on the rank sharing a grid row with 0's owner and a
    // grid column with 7's: neither of them.
    let owner = dist.nonzero_owner(0, 7) as usize;
    let before = DistCsrMatrix::from_global(&a, &dist);
    assert!(owner != before.vmap.owner(0) as usize && owner != before.vmap.owner(7) as usize);
    assert!(before.blocks[owner].rowmap.binary_search(&0).is_err());
    assert!(before.blocks[owner].colmap.binary_search(&7).is_err());
    let (dm, reports) = run(&a, &dist, &[vec![set(0, 7, 1.5)], vec![remove(0, 7)]]);
    // The owner, the x supplier and the y receiver; then the same three
    // again when the messages are deleted.
    assert_eq!(reports[0].relowered, 3);
    assert_eq!(reports[1].relowered, 3);
    assert_eq!(messages(&dm), messages(&before), "message deleted again");
}

#[test]
fn removals_empty_a_row_a_column_a_message_and_a_whole_block() {
    // Everything rank `nonzero_owner(0, 6)` holds is row 0 × {6, 7}.
    let a = matrix(8, &[(0, 6), (0, 7), (1, 1), (2, 2)]);
    let dist = grid();
    let owner = dist.nonzero_owner(0, 6) as usize;
    assert_eq!(owner, dist.nonzero_owner(0, 7) as usize);
    let (dm, _) = run(
        &a,
        &dist,
        &[
            vec![remove(0, 7)], // a column (and its import gid) goes
            vec![remove(0, 6)], // the row, the messages, the block
        ],
    );
    assert_eq!(dm.blocks[owner].nnz(), 0);
    assert!(dm.blocks[owner].rowmap.is_empty() && dm.blocks[owner].colmap.is_empty());
    let c = &dm.compiled;
    let to_owner = |r| {
        c.expand
            .pack_entries(r)
            .iter()
            .any(|e| e.peer == owner as u32)
    };
    assert!(
        !(0..dm.nprocs()).any(to_owner),
        "nothing is sent to the empty block"
    );
    assert!(c.fold.pack_entries(owner).is_empty());
}

#[test]
fn diagonal_entries_and_previously_isolated_vertices() {
    // Vertex 6 has no entry anywhere; 3 has no diagonal.
    let a = matrix(8, &[(0, 1), (1, 0), (3, 2), (2, 3)]);
    for dist in [
        grid(),
        MatrixDist::block_1d(8, 4),
        MatrixDist::random_2d(8, 2, 2, 5),
    ] {
        run(
            &a,
            &dist,
            &[
                vec![set(3, 3, 2.0)],
                vec![set(6, 6, 1.0), set(6, 0, 0.5), set(0, 6, 0.5)],
                vec![remove(3, 3), remove(6, 6)],
                vec![remove(6, 0), remove(0, 6)],
            ],
        );
    }
}

#[test]
fn more_ranks_than_rows_leaves_empty_ranks_alone() {
    let a = matrix(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    for dist in [MatrixDist::block_1d(4, 8), MatrixDist::block_2d(4, 2, 4)] {
        let (dm, _) = run(
            &a,
            &dist,
            &[vec![set(0, 3, 1.0), set(3, 0, 1.0)], vec![remove(0, 1)]],
        );
        assert_eq!(dm.nprocs(), 8);
        assert!(dm.blocks.iter().any(|b| b.nnz() == 0));
    }
}

#[test]
fn one_d_layouts_patch_the_expand_side_only() {
    let a = rmat(&RmatConfig::graph500(6), 7);
    let n = a.nrows() as u32;
    for dist in [
        MatrixDist::block_1d(a.nrows(), 4),
        MatrixDist::random_1d(a.nrows(), 4, 9),
    ] {
        let absent = (0..n)
            .map(|j| (1, (j * 7 + 3) % n))
            .find(|&(i, j)| a.get(i as usize, j).is_none())
            .unwrap();
        let (i, j) = absent;
        let (dm, _) = run(
            &a,
            &dist,
            &[
                vec![set(i, j, 1.0), set(j, i, 1.0)],
                vec![remove(i, j), remove(j, i)],
            ],
        );
        let fold = (0..dm.nprocs()).map(|r| dm.compiled.fold.pack_indices(r).len());
        assert_eq!(fold.sum::<usize>(), 0, "row-wise layouts never fold");
    }
}

#[test]
fn a_delta_can_start_and_stop_a_rank_sending_to_a_peer() {
    // Only the diagonal: no rank sends anything.
    let a = matrix(8, &[(0, 0), (2, 2), (4, 4), (6, 6)]);
    let dist = grid();
    let before = DistCsrMatrix::from_global(&a, &dist);
    assert_eq!(volume(&before), 0);
    let mut dm = before.clone();
    dm.apply_delta(&dist, &[set(0, 6, 1.0)]);
    let supplier = dm.vmap.owner(6) as usize;
    let owner = dist.nonzero_owner(0, 6);
    let sent: Vec<(u32, Vec<u32>)> = (dm.compiled.expand_rank(supplier).packs())
        .map(|(dst, lids, _)| (dst, lids.to_vec()))
        .collect();
    assert_eq!(sent, vec![(owner, vec![dm.vmap.lid(6) as u32])]);
    dm.apply_delta(&dist, &[remove(0, 6)]);
    assert_eq!(dm.compiled.expand_rank(supplier).npacks(), 0);
    assert!(dm.compiled == before.compiled);
    run(&a, &dist, &[vec![set(0, 6, 1.0)], vec![remove(0, 6)]]);
}

#[test]
fn the_last_delta_to_an_entry_wins_and_absent_removals_are_no_ops() {
    let a = matrix(8, &[(0, 1), (1, 0), (5, 2)]);
    let (dm, reports) = run(
        &a,
        &grid(),
        &[
            vec![set(4, 7, 1.0), remove(4, 7), set(4, 7, 3.0)],
            vec![set(2, 2, 1.0), remove(2, 2)],
            vec![remove(7, 7)],
        ],
    );
    assert_eq!(dm.to_global().get(4, 7), Some(3.0));
    assert_eq!(reports[1].relowered, 0);
    assert_eq!(reports[2].relowered, 0);
}

#[test]
fn growing_then_shrinking_back_leaves_the_fresh_plan_and_no_garbage() {
    // Grow the graph edge by edge, then shrink it back: every epoch
    // shifts some rank's lids and replaces its owned lists.
    let a = rmat(&RmatConfig::graph500(6), 1);
    let dist = layout_for(5, &a, 16, 0);
    let fresh = DistCsrMatrix::from_global(&a, &dist);
    let n = a.nrows() as u32;
    let absent: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i < j && a.get(i as usize, j).is_none())
        .step_by(9)
        .take(160)
        .collect();
    let grow = absent
        .iter()
        .map(|&(i, j)| [set(i, j, 1.0), set(j, i, 1.0)]);
    let shrink = absent.iter().map(|&(i, j)| [remove(i, j), remove(j, i)]);
    let mut dm = fresh.clone();
    for batch in grow.chain(shrink) {
        dm.apply_delta(&dist, &batch);
    }
    assert!(dm.compiled == fresh.compiled);
    assert_eq!(dm.compiled.plan_bytes(), fresh.compiled.plan_bytes());
    schedule_equal(&dm, &a, &dist).unwrap();
}
