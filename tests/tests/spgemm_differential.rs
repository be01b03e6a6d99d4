//! The SpGEMM differential battery: **both** distributed `C = A·B`
//! kernels — the expand/fold path over the SpMV schedules and the
//! Sparse SUMMA stage-broadcast path — against the serial CSR Gustavson
//! oracle ([`sf2d_graph::spgemm`]) and against each other.
//!
//! For every (generator, p, layout) cell each distributed product must
//! reassemble to a CSR with **identical row pointers, sorted identical
//! column indices, and bitwise-equal values** — achievable because the
//! generator matrices carry unit values, so every C entry is an exact
//! small-integer sum and no floating-point reassociation can show
//! through; each kernel's fixed reduction order makes the bits
//! deterministic regardless. On top of the oracle match, the result and
//! the billed ledger must be byte-identical for workspace thread counts
//! {1, 2, 8} — the `SF2D_THREADS` independence guarantee the SpMV engine
//! already makes, extended to both SpGEMM paths — and the two kernels'
//! C values must agree bit-for-bit with each other (the property the
//! proptest at the bottom fuzzes over random Erdős–Rényi inputs).
//!
//! The golden-row test at the bottom pins the `spgemm_experiment` and
//! `summa_experiment` driver output to `results/spgemm.jsonl`
//! (regenerate with `SF2D_BLESS=1`).

use proptest::prelude::*;
use sf2d_core::experiment::{labeled_spgemm, spgemm_experiment, summa_experiment, SpgemmRow};
use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{chung_lu, erdos_renyi, powerlaw_degrees, rmat, RmatConfig};
use sf2d_graph::{spgemm, CsrMatrix};

const PROCS: [usize; 4] = [1, 4, 16, 64];
const THREADS: [usize; 3] = [1, 2, 8];

type Gold = (Vec<u64>, u64, Vec<(sf2d_sim::Phase, f64)>);

/// Shared per-kernel check: oracle CSR equality (pointers, sorted
/// columns, value bits) plus cross-thread byte-identity of values and
/// ledger, folded through `gold`.
fn check_against_oracle(
    label: &str,
    threads: usize,
    got: &CsrMatrix,
    nnz: u64,
    want: &CsrMatrix,
    ledger: &CostLedger,
    gold: &mut Option<Gold>,
) {
    assert_eq!(got.rowptr(), want.rowptr(), "{label}: row pointers");
    assert_eq!(got.colidx(), want.colidx(), "{label}: column indices");
    for i in 0..got.nrows() {
        let (cols, _) = got.row(i);
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "{label}: row {i} columns not sorted"
        );
    }
    let got_bits: Vec<u64> = got.values().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u64> = want.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{label}: values bitwise");
    assert_eq!(nnz, want.nnz() as u64, "{label}: allreduced nnz");

    match gold {
        None => *gold = Some((got_bits, ledger.total.to_bits(), ledger.history.clone())),
        Some((gb, bits, history)) => {
            assert_eq!(&got_bits, gb, "{label}: threads={threads} value bits");
            assert_eq!(
                ledger.total.to_bits(),
                *bits,
                "{label}: threads={threads} ledger total"
            );
            assert_eq!(
                &ledger.history, history,
                "{label}: threads={threads} ledger history"
            );
        }
    }
}

/// One differential cell: distribute `a` under `method`/`p`, run **both**
/// kernels at several thread counts, and demand the oracle's exact CSR,
/// cross-thread byte-identity (values *and* ledger) per kernel, and
/// bit-identical C between the two kernels.
fn check_cell(a: &CsrMatrix, builder: &mut LayoutBuilder, method: Method, p: usize) {
    let dist = builder.dist(method, p);
    let dm = DistCsrMatrix::from_global(a, &dist);
    let b = a.transpose();
    let want = spgemm(a, &b);

    let mut ef_gold: Option<Gold> = None;
    let mut su_gold: Option<Gold> = None;
    for threads in THREADS {
        let label = format!("{} p={p} expand/fold", method.name());
        let mut ws = SpgemmWorkspace::with_threads(threads);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_with(&dm, &b, &mut ledger, &mut ws);
        check_against_oracle(
            &label,
            threads,
            &c.to_global(),
            c.nnz,
            &want,
            &ledger,
            &mut ef_gold,
        );

        let label = format!("{} p={p} summa", method.name());
        let mut ws = SummaWorkspace::with_threads(threads);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_with(&dm, &dist, &b, &mut ledger, &mut ws);
        check_against_oracle(
            &label,
            threads,
            &c.to_global(),
            c.nnz,
            &want,
            &ledger,
            &mut su_gold,
        );
    }
    // Both kernels reduce to the same bits (each matched the oracle, so
    // this is implied — stated directly because it is the cross-kernel
    // contract the SUMMA path promises).
    assert_eq!(
        ef_gold.as_ref().map(|g| &g.0),
        su_gold.as_ref().map(|g| &g.0),
        "{} p={p}: expand/fold vs SUMMA value bits",
        method.name()
    );
}

fn sweep(a: &CsrMatrix) {
    let mut builder = LayoutBuilder::new(a, 0);
    for p in PROCS {
        for method in Method::spmv_set(false) {
            check_cell(a, &mut builder, method, p);
        }
    }
}

#[test]
fn rmat_matches_oracle_on_all_layouts_and_procs() {
    sweep(&rmat(&RmatConfig::graph500(7), 11));
}

#[test]
fn chung_lu_matches_oracle_on_all_layouts_and_procs() {
    let degs = powerlaw_degrees(160, 2.2, 2, 40, 5);
    sweep(&chung_lu(&degs, 500, 0, 0.0, 5));
}

#[test]
fn erdos_renyi_matches_oracle_on_all_layouts_and_procs() {
    sweep(&erdos_renyi(150, 450, 13));
}

#[test]
fn rectangular_product_matches_oracle() {
    // A·B with B rectangular (ncols != n): neither the expand discipline
    // nor SUMMA's chunked column space may assume a square product.
    let a = rmat(&RmatConfig::graph500(7), 3);
    let n = a.nrows();
    let mut coo = sf2d_graph::CooMatrix::new(n, 17);
    for i in 0..n as u32 {
        coo.push(i, i % 17, 1.0);
        coo.push(i, (i * 7 + 3) % 17, 2.0);
    }
    let b = CsrMatrix::from_coo(&coo);
    let want = spgemm(&a, &b);
    let mut builder = LayoutBuilder::new(&a, 0);
    for method in [Method::OneDRandom, Method::TwoDRandom, Method::TwoDGp] {
        let dist = builder.dist(method, 16);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_dist(&dm, &b, &mut ledger);
        assert_eq!(c.to_global(), want, "{}", method.name());
        assert_eq!(c.ncols, 17);

        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        assert_eq!(c.to_global(), want, "{} summa", method.name());
        assert_eq!(c.ncols, 17);
    }
}

/// Bits of `c`'s values with every NaN folded onto one pattern: which
/// NaN a sum ends on (an operand's payload, or the default NaN of
/// `Inf − Inf`) depends on the association, everything else does not.
fn bits_nan_folded(c: &CsrMatrix) -> Vec<u64> {
    let fold = |v: &f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
    c.values().iter().map(fold).collect()
}

const NEG_ZERO: u64 = (-0.0f64).to_bits();

/// [`bits_nan_folded`] with −0.0 folded onto +0.0 as well.
fn bits_nan_and_zero_sign_folded(c: &CsrMatrix) -> Vec<u64> {
    let fold = |b: u64| if b == NEG_ZERO { 0 } else { b };
    bits_nan_folded(c).into_iter().map(fold).collect()
}

#[test]
fn non_finite_and_signed_zero_values_match_oracle() {
    // NaN, ±Inf and −0.0 in both operands, through both kernels, on a 1D
    // and a 2D layout. The finite values are small integers, so every sum
    // is exact and only three things could depend on the order of
    // summation: a NaN's payload (folded above), an `Inf − Inf` (NaN in
    // every order), and the sign of a zero sum (−0.0 iff every term is
    // −0.0, in every order). One difference from the oracle is by
    // design: it starts a sum at +0.0, the kernels start it at the first
    // term, so an all-−0.0 entry is −0.0 from the kernels and +0.0 from
    // the oracle — the zeros are compared by value against the oracle and
    // by bits between the kernels.
    const PALETTE: [f64; 8] = [
        1.0,
        -0.0,
        2.0,
        f64::INFINITY,
        -0.0,
        3.0,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let paint = |m: &mut CsrMatrix, salt: usize| {
        for (e, v) in m.values_mut().iter_mut().enumerate() {
            *v = PALETTE[(e * 7 + e / 5 + salt) % PALETTE.len()];
        }
    };
    // Layouts come from the unit-valued pattern: the graph partitioner
    // reads values as edge weights and is not this cell's subject.
    let pattern = erdos_renyi(150, 450, 21);
    let (mut a, mut b) = (pattern.clone(), pattern.transpose());
    paint(&mut a, 0);
    paint(&mut b, 3);
    let want = spgemm(&a, &b);
    let want_bits = bits_nan_and_zero_sign_folded(&want);
    assert!(want.values().iter().any(|v| v.is_nan()));
    assert!(want.values().iter().any(|v| v.is_infinite()));

    let mut builder = LayoutBuilder::new(&pattern, 0);
    for method in [Method::OneDRandom, Method::TwoDGp] {
        for p in [4usize, 16] {
            let label = format!("{} p={p}", method.name());
            let dist = builder.dist(method, p);
            let dm = DistCsrMatrix::from_global(&a, &dist);
            let ef = spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab())).to_global();
            let su = summa_dist(&dm, &dist, &b, &mut CostLedger::new(Machine::cab())).to_global();
            for (algo, got) in [("expand/fold", &ef), ("summa", &su)] {
                assert_eq!(got.rowptr(), want.rowptr(), "{label} {algo}: row pointers");
                assert_eq!(
                    got.colidx(),
                    want.colidx(),
                    "{label} {algo}: column indices"
                );
                let got_bits = bits_nan_and_zero_sign_folded(got);
                assert_eq!(got_bits, want_bits, "{label} {algo}: values");
            }
            let ef_bits = bits_nan_folded(&ef);
            assert_eq!(ef_bits, bits_nan_folded(&su), "{label}: kernels by bits");
            // The kept sign is exercised: some entry is −0.0 where the
            // oracle's `0.0 + −0.0` is +0.0.
            let mut kept = ef_bits.iter().zip(want.values());
            assert!(
                kept.any(|(&g, w)| g == NEG_ZERO && w.to_bits() == 0),
                "{label}: no all-−0.0 entry in this product"
            );
        }
    }
}

#[test]
fn rectangular_b_with_a_partial_last_word_matches_oracle() {
    // Column spaces narrower than one 64-bit word, one past a word, and
    // ending mid-word — and narrower than the grid has columns, so some
    // SUMMA chunks are empty. Every B row is dense enough that C's rows
    // leave the accumulator through its bitmap.
    let a = rmat(&RmatConfig::graph500(7), 3);
    let n = a.nrows();
    let mut builder = LayoutBuilder::new(&a, 0);
    let dists: Vec<(Method, MatrixDist)> = [Method::OneDRandom, Method::TwoDGp]
        .into_iter()
        .map(|m| (m, builder.dist(m, 16)))
        .collect();
    for ncols in [1usize, 3, 63, 65, 100, 130] {
        let mut coo = sf2d_graph::CooMatrix::new(n, ncols);
        for i in 0..n {
            for k in 0..5usize {
                let c = (i * 11 + k * k * 13) % ncols;
                coo.push(i as u32, c as u32, 1.0 + (k % 3) as f64);
            }
        }
        let b = CsrMatrix::from_coo(&coo);
        let want = spgemm(&a, &b);
        for (method, dist) in &dists {
            let label = format!("{} ncols={ncols}", method.name());
            let dm = DistCsrMatrix::from_global(&a, dist);
            let mut gold = None;
            let c = spgemm_dist(&dm, &b, &mut CostLedger::new(Machine::cab()));
            assert_eq!(c.ncols, ncols);
            let ledger = CostLedger::new(Machine::cab());
            check_against_oracle(&label, 1, &c.to_global(), c.nnz, &want, &ledger, &mut gold);
            let c = summa_dist(&dm, dist, &b, &mut CostLedger::new(Machine::cab()));
            assert_eq!(c.ncols, ncols);
            // Same gold: SUMMA's value bits against expand/fold's.
            check_against_oracle(&label, 1, &c.to_global(), c.nnz, &want, &ledger, &mut gold);
        }
    }
}

/// Golden pin of the `spgemm_experiment` **and** `summa_experiment`
/// drivers: the six-layout row set at p = 16 on a fixed R-MAT, one row
/// per (layout, algo), compared field-for-field against the checked-in
/// `results/spgemm.jsonl`. Costs, traffic, and nnz are all
/// deterministic, so any drift is a real behaviour change — regenerate
/// deliberately with `SF2D_BLESS=1 cargo test -p sf2d-integration-tests
/// golden_spgemm`.
#[test]
fn golden_spgemm_experiment_rows_are_stable() {
    let a = rmat(&RmatConfig::graph500(7), 4);
    let mut builder = LayoutBuilder::new(&a, 0);
    let rows: Vec<SpgemmRow> = Method::spmv_set(false)
        .into_iter()
        .flat_map(|m| {
            let dist = builder.dist(m, 16);
            [
                labeled_spgemm(spgemm_experiment(&a, &dist, Machine::cab()), "rmat-s7", m),
                labeled_spgemm(summa_experiment(&a, &dist, Machine::cab()), "rmat-s7", m),
            ]
        })
        .collect();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/spgemm.jsonl");
    if std::env::var_os("SF2D_BLESS").is_some() {
        let mut out = String::new();
        for row in &rows {
            out.push_str(&serde_json::to_string(row).expect("row serializes"));
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write golden spgemm.jsonl");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden results/spgemm.jsonl present (bless with SF2D_BLESS=1)");
    let want: Vec<SpgemmRow> = golden
        .lines()
        .map(|l| serde_json::from_str(l).expect("golden line parses"))
        .collect();
    assert_eq!(rows, want, "spgemm_experiment drifted from the golden rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed cross-kernel contract: for random Erdős–Rényi inputs,
    /// random layouts, and random rank counts, Sparse SUMMA and
    /// expand/fold produce bit-identical C — and each kernel's value
    /// bits and billed ledger are byte-identical across SF2D_THREADS
    /// (the deterministic check_cell battery, driven by random inputs).
    #[test]
    fn summa_and_expand_fold_agree_bitwise_on_random_inputs(
        n in 24usize..96,
        edge_factor in 2usize..6,
        seed in 0u64..1000,
        p_idx in 0usize..3,
        m_idx in 0usize..6,
    ) {
        let a = erdos_renyi(n, n * edge_factor, seed);
        let p = [1usize, 4, 16][p_idx];
        let method = Method::spmv_set(false)[m_idx];
        let mut builder = LayoutBuilder::new(&a, seed);
        check_cell(&a, &mut builder, method, p);
    }
}
