//! Property-based tests for the distributed eigensolvers on random
//! symmetric operators.

use std::sync::Arc;

use proptest::prelude::*;
use sf2d_eigen::ortho::cgs2;
use sf2d_eigen::{krylov_schur_largest, KrylovSchurConfig};
use sf2d_graph::{CooMatrix, CsrMatrix};
use sf2d_partition::{grid_shape, MatrixDist};
use sf2d_sim::collective::{allreduce_cost, allreduce_sum_vec};
use sf2d_sim::{CostLedger, Machine, Phase, PhaseCost};
use sf2d_spmv::{DistCsrMatrix, DistVector, LinearOperator, PlainSpmvOp, VectorMap};

/// Random symmetric matrix with a ring backbone (keeps it connected, so
/// spectra are non-degenerate enough for quick convergence).
fn sym_strategy() -> impl Strategy<Value = CsrMatrix> {
    (24usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0u32..48, 0u32..48, 0.2f64..2.0), 0..80).prop_map(move |extra| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n as u32 {
                coo.push_sym(i, (i + 1) % n as u32, 1.0);
            }
            for (u, v, w) in extra {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    coo.push_sym(u, v, w);
                }
            }
            CsrMatrix::from_coo(&coo)
        })
    })
}

/// `cgs2` as it stood before the blocked kernels — one strictly ordered
/// `.sum()` per basis vector, one pass over `w` per basis vector, four
/// walks of the basis — kept as the bitwise oracle. `descending` sums
/// each coefficient from the last lid down: not the contract, and the
/// proof that the comparison below sees the order of a sum.
fn cgs2_reference(
    w: &mut DistVector,
    basis: &[DistVector],
    ledger: &mut CostLedger,
    descending: bool,
) -> f64 {
    let p = w.map.nprocs();
    for _pass in 0..2 {
        if basis.is_empty() {
            break;
        }
        let mut partials: Vec<Vec<f64>> = Vec::with_capacity(p);
        let mut costs = Vec::with_capacity(p);
        for r in 0..p {
            let wl = &w.locals[r];
            let coefs: Vec<f64> = basis
                .iter()
                .map(|v| {
                    let products = v.locals[r].iter().zip(wl).map(|(a, b)| a * b);
                    if descending {
                        products.rev().sum()
                    } else {
                        products.sum()
                    }
                })
                .collect();
            costs.push(PhaseCost::compute(2 * (basis.len() * wl.len()) as u64));
            partials.push(coefs);
        }
        ledger.superstep(Phase::VectorOp, &costs);
        ledger.superstep_uniform(Phase::Collective, allreduce_cost(p, basis.len()), p);
        let coefs = allreduce_sum_vec(&partials);

        let mut costs = Vec::with_capacity(p);
        for r in 0..p {
            let wl = &mut w.locals[r];
            for (v, &c) in basis.iter().zip(&coefs) {
                for (wv, vv) in wl.iter_mut().zip(&v.locals[r]) {
                    *wv -= c * vv;
                }
            }
            costs.push(PhaseCost::compute(2 * (basis.len() * wl.len()) as u64));
        }
        ledger.superstep(Phase::VectorOp, &costs);
    }
    w.norm2(ledger)
}

/// 1D-Random or 2D-Block vector map; with `p > n` some ranks own nothing.
fn oracle_map(n: usize, p: usize, block_2d: bool, seed: u64) -> Arc<VectorMap> {
    let dist = if block_2d {
        let (pr, pc) = grid_shape(p);
        MatrixDist::block_2d(n, pr, pc)
    } else {
        MatrixDist::random_1d(n, p, seed)
    };
    Arc::new(VectorMap::from_dist(&dist))
}

/// Entries in `[-1, 1)` with exact `0.0` and `-0.0` sprinkled in.
fn oracle_vector(map: &Arc<VectorMap>, seed: u64) -> DistVector {
    let mut v = DistVector::random(Arc::clone(map), seed).to_global();
    for (g, x) in v.iter_mut().enumerate() {
        match (g as u64 + seed) % 7 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    DistVector::from_global(Arc::clone(map), &v)
}

/// The same bits, or both NaN: which NaN an operation returns is the one
/// thing about it the language does not fix.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Runs `cgs2` and the reference on copies of `w`; `Err` names the first
/// thing that differs.
fn cgs2_against_reference(
    w: &DistVector,
    basis: &[DistVector],
    descending: bool,
) -> Result<(), String> {
    let (mut got, mut want) = (w.clone(), w.clone());
    let mut led_got = CostLedger::new(Machine::cab());
    let mut led_want = CostLedger::new(Machine::cab());
    let norm_got = cgs2(&mut got, basis, &mut led_got);
    let norm_want = cgs2_reference(&mut want, basis, &mut led_want, descending);
    if !same_bits(norm_got, norm_want) {
        return Err(format!("norm {norm_got:e} vs {norm_want:e}"));
    }
    for (r, (g, w)) in got.locals.iter().zip(&want.locals).enumerate() {
        if let Some(i) = (0..g.len()).find(|&i| !same_bits(g[i], w[i])) {
            return Err(format!("rank {r} lid {i}: {:e} vs {:e}", g[i], w[i]));
        }
    }
    if led_got.history != led_want.history
        || led_got.steps != led_want.steps
        || led_got.total.to_bits() != led_want.total.to_bits()
    {
        return Err(format!(
            "ledger: {} steps, {:e} s vs {} steps, {:e} s",
            led_got.steps, led_got.total, led_want.steps, led_want.total
        ));
    }
    Ok(())
}

/// Basis sizes 0 ..= 19 cross the kernels' block width twice (7 / 8 / 9
/// and 15 / 16 / 17) and take every tail length.
const MAX_ORACLE_BASIS: usize = 19;

#[test]
fn cgs2_propagates_nan_and_inf_like_the_reference() {
    let map = oracle_map(23, 4, false, 5);
    let basis: Vec<DistVector> = (0..MAX_ORACLE_BASIS as u64)
        .map(|k| oracle_vector(&map, 40 + k))
        .collect();
    for poison in [f64::NAN, f64::INFINITY] {
        let mut w = oracle_vector(&map, 9);
        w.locals[2][1] = poison;
        for nb in 0..=MAX_ORACLE_BASIS {
            cgs2_against_reference(&w, &basis[..nb], false)
                .unwrap_or_else(|e| panic!("{poison} in w, {nb} basis vectors: {e}"));
        }
    }
}

/// The oracle comparison must see the order of a sum: against a reference
/// that adds each coefficient's products from the last lid down, some
/// case differs.
#[test]
fn cgs2_oracle_sees_the_order_of_a_sum() {
    let differing = (0..20u64)
        .filter(|&seed| {
            let map = oracle_map(30, 3, seed % 2 == 0, seed);
            let basis: Vec<DistVector> = (0..9).map(|k| oracle_vector(&map, seed + k)).collect();
            let w = oracle_vector(&map, seed + 100);
            cgs2_against_reference(&w, &basis, false).unwrap();
            cgs2_against_reference(&w, &basis, true).is_err()
        })
        .count();
    assert!(differing > 0, "a descending-lid sum went unnoticed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked kernels against the loops they replaced, bit for bit:
    /// `w`, the returned norm and every ledger entry, at every basis size.
    #[test]
    fn cgs2_matches_the_unblocked_reference_bit_for_bit(
        n in 3usize..24,
        p in 1usize..=9,
        block_2d in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let map = oracle_map(n, p, block_2d, seed);
        let basis: Vec<DistVector> = (0..MAX_ORACLE_BASIS as u64)
            .map(|k| oracle_vector(&map, seed * 31 + k))
            .collect();
        let w = oracle_vector(&map, seed * 31 + 500);
        for nb in 0..=MAX_ORACLE_BASIS {
            if let Err(e) = cgs2_against_reference(&w, &basis[..nb], false) {
                prop_assert!(false, "n {n}, p {p}, {nb} basis vectors: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Converged Ritz pairs satisfy the eigen equation to their reported
    /// residual, eigenvalues are within the Gershgorin bound and sorted.
    #[test]
    fn krylov_schur_invariants(a in sym_strategy(), p in 1usize..7, seed in 0u64..50) {
        let d = MatrixDist::random_1d(a.nrows(), p, seed);
        let op = PlainSpmvOp::new(DistCsrMatrix::from_global(&a, &d));
        let cfg = KrylovSchurConfig {
            nev: 2,
            max_basis: 16,
            tol: 1e-6,
            max_restarts: 200,
            seed,
        };
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest(&op, &cfg, &mut ledger);
        prop_assume!(res.converged); // rare non-convergence under the cap

        // Gershgorin bound.
        let bound = (0..a.nrows())
            .map(|i| a.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        for &v in &res.values {
            prop_assert!(v.abs() <= bound + 1e-9, "{v} outside {bound}");
        }
        // Sorted descending.
        prop_assert!(res.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));

        // Residual equation, measured directly.
        for (i, vec) in res.vectors.iter().enumerate() {
            let xg = vec.to_global();
            let ax = a.spmv_dense(&xg);
            let xnorm: f64 = xg.iter().map(|x| x * x).sum::<f64>().sqrt();
            let rnorm: f64 = ax
                .iter()
                .zip(&xg)
                .map(|(av, xv)| (av - res.values[i] * xv).powi(2))
                .sum::<f64>()
                .sqrt();
            prop_assert!(
                rnorm <= 1e-4 * res.values[i].abs().max(1.0) * xnorm.max(1e-30),
                "pair {i}: residual {rnorm}"
            );
        }
    }

    /// The solve is layout-invariant: the same seed on different rank
    /// counts yields the same eigenvalues (to rounding).
    #[test]
    fn layout_invariance(a in sym_strategy(), seed in 0u64..20) {
        let cfg = KrylovSchurConfig {
            nev: 2,
            max_basis: 14,
            tol: 1e-8,
            max_restarts: 150,
            seed,
        };
        let mut vals = Vec::new();
        for p in [2usize, 5] {
            let d = MatrixDist::block_1d(a.nrows(), p);
            let op = PlainSpmvOp::new(DistCsrMatrix::from_global(&a, &d));
            let mut ledger = CostLedger::new(Machine::cab());
            let res = krylov_schur_largest(&op, &cfg, &mut ledger);
            prop_assume!(res.converged);
            vals.push(res.values);
        }
        for (x, y) in vals[0].iter().zip(&vals[1]) {
            prop_assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    /// A random start vector never changes which eigenvalues exist — only
    /// the trajectory: two seeds agree on the top eigenvalue.
    #[test]
    fn seed_independence_of_spectrum(a in sym_strategy()) {
        let d = MatrixDist::block_1d(a.nrows(), 3);
        let op = PlainSpmvOp::new(DistCsrMatrix::from_global(&a, &d));
        let mut tops = Vec::new();
        for seed in [1u64, 99] {
            let cfg = KrylovSchurConfig {
                nev: 1,
                max_basis: 12,
                tol: 1e-8,
                max_restarts: 150,
                seed,
            };
            let mut ledger = CostLedger::new(Machine::cab());
            let res = krylov_schur_largest(&op, &cfg, &mut ledger);
            prop_assume!(res.converged);
            tops.push(res.values[0]);
        }
        prop_assert!((tops[0] - tops[1]).abs() < 1e-6, "{tops:?}");
    }

    /// Sanity: the operator wrapper and a raw distributed SpMV agree.
    #[test]
    fn plain_op_equals_spmv(a in sym_strategy(), p in 1usize..6) {
        let d = MatrixDist::block_1d(a.nrows(), p);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let op = PlainSpmvOp::new(dm);
        let x = DistVector::random(Arc::clone(op.vmap()), 7);
        let mut y1 = DistVector::zeros(Arc::clone(op.vmap()));
        let mut ledger = CostLedger::new(Machine::cab());
        op.apply(&x, &mut y1, &mut ledger);
        let want = a.spmv_dense(&x.to_global());
        for (g, w) in y1.to_global().iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()));
        }
    }
}
