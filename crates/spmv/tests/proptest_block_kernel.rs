//! The rank-local kernel against the serial floor, by bits:
//! [`RankBlock::multiply`] — rows stored in `(nnz, gid)` order, dispatch
//! on the row length, width-blocked above one column — must give what
//! [`CsrMatrix::spmv_dense_into`] gives on the same rows read back in
//! row-map order through [`RankBlock::row`], column by column.
//!
//! A random sweep crosses blocks of every layout family with widths
//! 1..=17 (full chunks, the runtime-width tail, widths below one chunk);
//! the fixed cells below pin the shapes the dispatch distinguishes and
//! the values floating point treats specially, each asserting it is the
//! cell it claims to be. The last test holds the stored row order to be a
//! function of the entry set alone.
//!
//! `−0.0` and `±Inf` compare by bits. A NaN compares as NaN: Rust leaves
//! the sign and payload of an arithmetic NaN unspecified, so two correct
//! compilations of one sum may differ there.

use proptest::prelude::*;
use sf2d_graph::{CooMatrix, CsrMatrix};
use sf2d_partition::MatrixDist;
use sf2d_spmv::{DistCsrMatrix, EntryDelta, RankBlock, SPMM_CHUNK};

fn matrix(n: usize, entries: impl IntoIterator<Item = (u32, u32, f64)>) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in entries {
        coo.push(i, j, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// The block's rows in row-map order as a plain CSR — the operand of the
/// serial oracle.
fn rows_in_map_order(block: &RankBlock) -> CsrMatrix {
    let mut rowptr = vec![0];
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    for li in 0..block.rowmap.len() {
        let (cols, vals) = block.row(li);
        colidx.extend_from_slice(cols);
        values.extend_from_slice(vals);
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_parts(
        block.rowmap.len(),
        block.colmap.len(),
        rowptr,
        colidx,
        values,
    )
    .expect("rows read back through row() are a valid CSR")
}

fn canon(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// `multiply` at `width` against the oracle; `x(lid, c)` is the input.
fn check(block: &RankBlock, width: usize, x: impl Fn(usize, usize) -> f64) -> Result<(), String> {
    let (nr, nc) = (block.rowmap.len(), block.colmap.len());
    let mut xcols = vec![0.0; nc * width];
    for lid in 0..nc {
        for c in 0..width {
            xcols[lid * width + c] = x(lid, c);
        }
    }
    // Poisoned: the kernel must overwrite every partial.
    let mut partials = vec![f64::from_bits(0xDEAD_BEEF); nr * width];
    block.multiply(&xcols, width, &mut partials);

    let oracle = rows_in_map_order(block);
    let mut want = vec![0.0; nr];
    for c in 0..width {
        let xc: Vec<f64> = (0..nc).map(|lid| x(lid, c)).collect();
        oracle.spmv_dense_into(&xc, &mut want);
        for li in 0..nr {
            let got = partials[c * nr + block.stored_row(li)];
            if canon(got) != canon(want[li]) {
                return Err(format!(
                    "width {width} column {c} row {} ({} nnz): got {got:e}, want {:e}",
                    block.rowmap[li],
                    block.row(li).0.len(),
                    want[li]
                ));
            }
        }
    }
    Ok(())
}

/// Every block of `a` under `dist`, at every width in `widths`.
fn check_all(
    a: &CsrMatrix,
    dist: &MatrixDist,
    widths: impl Iterator<Item = usize> + Clone,
    x: impl Fn(usize, usize) -> f64 + Copy,
) {
    let dm = DistCsrMatrix::from_global(a, dist);
    for (r, block) in dm.blocks.iter().enumerate() {
        for width in widths.clone() {
            if let Err(what) = check(block, width, x) {
                panic!("rank {r}: {what}");
            }
        }
    }
}

fn row_lengths(block: &RankBlock) -> Vec<usize> {
    (0..block.rowmap.len())
        .map(|li| block.row(li).0.len())
        .collect()
}

fn plain_x(lid: usize, c: usize) -> f64 {
    ((lid * 7 + c * 3) % 11) as f64 - 5.0
}

const ALL_WIDTHS: std::ops::RangeInclusive<usize> = 1..=2 * SPMM_CHUNK + 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multiply_matches_the_serial_sweep_by_bits(
        n in 6usize..40,
        p in 1usize..9,
        kind in 0u8..4,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u32..40, 0u32..40, -4.0f64..4.0), 1..160),
        xs in proptest::collection::vec(-2.0f64..2.0, 40 * 17),
    ) {
        let a = matrix(n, raw.iter().map(|&(i, j, v)| (i % n as u32, j % n as u32, v)));
        let pr = (1..=p).rev().find(|d| p % d == 0 && d * d <= p).unwrap() as u32;
        let pc = p as u32 / pr;
        let dist = match kind {
            0 => MatrixDist::block_1d(n, p),
            1 => MatrixDist::random_1d(n, p, seed),
            2 => MatrixDist::block_2d(n, pr, pc),
            _ => MatrixDist::random_2d(n, pr, pc, seed),
        };
        let dm = DistCsrMatrix::from_global(&a, &dist);
        for (r, block) in dm.blocks.iter().enumerate() {
            // Stored order is ascending (nnz, gid).
            let mut by_stored: Vec<(usize, usize, u32)> = (0..block.rowmap.len())
                .map(|li| (block.stored_row(li), block.row(li).0.len(), block.rowmap[li]))
                .collect();
            by_stored.sort_unstable();
            prop_assert!(by_stored.windows(2).all(|w| (w[0].1, w[0].2) < (w[1].1, w[1].2)));
            for width in ALL_WIDTHS {
                if let Err(what) = check(block, width, |lid, c| xs[lid * 17 + c]) {
                    prop_assert!(false, "layout {} p {} rank {}: {}", kind, p, r, what);
                }
            }
        }
    }
}

#[test]
fn an_empty_block_multiplies_to_nothing() {
    let a = matrix(4, [(0, 1, 1.0), (1, 0, 1.0)]);
    let dm = DistCsrMatrix::from_global(&a, &MatrixDist::block_1d(4, 2));
    let empty = &dm.blocks[1];
    assert!(empty.rowmap.is_empty() && empty.colmap.is_empty() && empty.nnz() == 0);
    for width in ALL_WIDTHS {
        empty.multiply(&[], width, &mut []);
    }
}

#[test]
fn more_ranks_than_rows() {
    let a = matrix(3, [(0, 1, 2.0), (1, 0, 2.0), (2, 2, -1.0)]);
    for dist in [MatrixDist::block_1d(3, 8), MatrixDist::block_2d(3, 2, 4)] {
        let dm = DistCsrMatrix::from_global(&a, &dist);
        assert!(dm.nprocs() > a.nrows());
        assert!(dm.blocks.iter().any(|b| b.nnz() == 0));
        check_all(&a, &dist, ALL_WIDTHS, plain_x);
    }
}

#[test]
fn every_row_of_length_one() {
    // A permutation matrix.
    let n = 37u32;
    let a = matrix(
        n as usize,
        (0..n).map(|i| (i, (i * 5 + 3) % n, i as f64 - 9.5)),
    );
    let dist = MatrixDist::block_1d(n as usize, 1);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    assert!(row_lengths(&dm.blocks[0]).iter().all(|&l| l == 1));
    check_all(&a, &dist, ALL_WIDTHS, plain_x);
}

#[test]
fn rows_of_length_exactly_four_and_five() {
    // The last straight-line length and the first one the loop takes,
    // between rows of every shorter length and an empty row map gap.
    let lens = [3usize, 5, 1, 4, 0, 2, 5, 4];
    let a = matrix(
        8,
        lens.iter().enumerate().flat_map(|(i, &l)| {
            (0..l).map(move |k| (i as u32, ((i + k) % 8) as u32, 0.25 + (i * 8 + k) as f64))
        }),
    );
    let dist = MatrixDist::block_1d(8, 1);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let mut got = row_lengths(&dm.blocks[0]);
    got.sort_unstable();
    assert_eq!(got, [1, 2, 3, 4, 4, 5, 5]);
    check_all(&a, &dist, ALL_WIDTHS, plain_x);
}

#[test]
fn one_hub_row_among_singletons() {
    let n = 10_000u32;
    let hub = 4_321u32;
    let spokes = (0..n).map(|j| (hub, j, 1.0 + (j % 17) as f64 / 16.0));
    let singles = (0..n)
        .filter(|&i| i != hub)
        .map(|i| (i, hub, 0.5 - (i % 5) as f64));
    let a = matrix(n as usize, spokes.chain(singles));
    let dist = MatrixDist::block_1d(n as usize, 1);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let block = &dm.blocks[0];
    let lens = row_lengths(block);
    assert_eq!(lens.iter().filter(|&&l| l == 1).count(), n as usize - 1);
    assert_eq!(lens[hub as usize], 10_000);
    assert_eq!(
        block.stored_row(hub as usize),
        n as usize - 1,
        "longest last"
    );
    check_all(&a, &dist, [1, 3, SPMM_CHUNK, 11].into_iter(), |lid, c| {
        1.0 / (1 + lid + 3 * c) as f64
    });
}

#[test]
fn special_values_in_weights_and_in_x() {
    let special = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.5,
        -2.0,
    ];
    // Rows of 1..=7 entries, so every dispatch arm meets every value.
    let n = 7usize;
    let weights = |shift: usize| {
        matrix(
            n,
            (0..n).flat_map(move |i| {
                (0..=i).map(move |k| (i as u32, k as u32, special[(i + k + shift) % 7]))
            }),
        )
    };
    let dist = MatrixDist::block_1d(n, 1);
    for shift in 0..7 {
        let a = weights(shift);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        assert_eq!(row_lengths(&dm.blocks[0]), [1, 2, 3, 4, 5, 6, 7]);
        assert!(a.values().iter().any(|v| v.is_nan()));
        assert!(a
            .values()
            .iter()
            .any(|v| v.to_bits() == (-0.0f64).to_bits()));
        // Special x against special weights, and against plain ones.
        check_all(&a, &dist, ALL_WIDTHS, |lid, c| {
            special[(lid + 2 * c + shift) % 7]
        });
    }
    let plain = matrix(
        n,
        (0..n).flat_map(|i| (0..=i).map(move |k| (i as u32, k as u32, 1.0 + (i + k) as f64))),
    );
    check_all(&plain, &dist, ALL_WIDTHS, |lid, c| {
        special[(lid + 2 * c) % 7]
    });
    // −0.0 survives: a row holding only (+1.0) · (−0.0) sums to +0.0
    // (0.0 + −0.0), exactly as the serial loop's accumulator does.
    let one = matrix(1, [(0, 0, 1.0)]);
    let dm = DistCsrMatrix::from_global(&one, &MatrixDist::block_1d(1, 1));
    let mut y = [f64::NAN];
    dm.blocks[0].multiply(&[-0.0], 1, &mut y);
    assert_eq!(y[0].to_bits(), 0.0f64.to_bits());
}

#[test]
fn stored_order_depends_on_the_entry_set_alone() {
    // Walk a block away from its pattern and back through apply_delta —
    // rows changing length, leaving and re-entering the maps — and land
    // on the block a fresh assembly builds.
    let a = matrix(
        12,
        (0..12u32).flat_map(|i| (0..=(i % 5)).map(move |k| (i, (i + 3 * k) % 12, 1.0 + k as f64))),
    );
    for dist in [
        MatrixDist::block_1d(12, 1),
        MatrixDist::block_2d(12, 2, 2),
        MatrixDist::random_2d(12, 2, 3, 4),
    ] {
        let fresh = DistCsrMatrix::from_global(&a, &dist);
        let mut dm = fresh.clone();
        let set = |i, j, v| EntryDelta {
            i,
            j,
            value: Some(v),
        };
        let remove = |i, j| EntryDelta { i, j, value: None };
        let away = [
            set(0, 5, 9.0),
            set(0, 7, 9.0),
            remove(4, 4),
            remove(5, 5),
            set(11, 0, 2.0),
        ];
        dm.apply_delta(&dist, &away);
        assert_ne!(dm.blocks, fresh.blocks);
        let back: Vec<EntryDelta> = away
            .iter()
            .map(|d| match a.get(d.i as usize, d.j) {
                Some(v) => set(d.i, d.j, v),
                None => remove(d.i, d.j),
            })
            .collect();
        // One delta at a time, in another order than they went in.
        for d in back.iter().rev() {
            dm.apply_delta(&dist, std::slice::from_ref(d));
        }
        assert_eq!(dm.blocks, fresh.blocks);
        assert!(dm.compiled == fresh.compiled);
    }
}
