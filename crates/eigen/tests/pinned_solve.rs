//! A whole Krylov–Schur solve pinned to the bit, and the degenerate cell
//! that reaches the breakdown arm.
//!
//! The pinned bits were captured at `cd80b78`, before `cgs2` and the
//! restart rotation became blocked kernels: they hold every later change
//! to the contract "each coefficient is its local products summed in
//! ascending lid order, then in rank order; each update subtracts basis
//! vectors in ascending index".

use sf2d_eigen::{krylov_schur_largest, EigResult, KrylovSchurConfig};
use sf2d_gen::{rmat, RmatConfig};
use sf2d_graph::{CooMatrix, CsrMatrix};
use sf2d_partition::MatrixDist;
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{DistCsrMatrix, NormalizedLaplacianOp};

fn laplacian_op(adj: &CsrMatrix, dist: &MatrixDist, threads: usize) -> NormalizedLaplacianOp {
    let degrees: Vec<usize> = (0..adj.nrows()).map(|i| adj.row_nnz(i)).collect();
    NormalizedLaplacianOp::new(DistCsrMatrix::from_global(adj, dist), &degrees)
        .with_threads(threads)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// R-MAT scale 9 on a 2 x 3 block layout, with a basis of 17 so the
/// orthogonalisation sees every `nb mod 8` (1 ..= 17 basis vectors) and
/// the restart rotates 17 columns into 10.
#[test]
fn krylov_schur_solve_is_pinned_to_the_bit() {
    let adj = rmat(&RmatConfig::graph500(9), 5).without_diagonal();
    let dist = MatrixDist::block_2d(adj.nrows(), 2, 3);
    let op = laplacian_op(&adj, &dist, 1);
    let cfg = KrylovSchurConfig {
        nev: 4,
        max_basis: 17,
        tol: 1e-6,
        max_restarts: 200,
        seed: 21,
    };
    let mut ledger = CostLedger::new(Machine::cab());
    let res = krylov_schur_largest(&op, &cfg, &mut ledger);
    assert!(res.converged);
    assert_eq!((res.restarts, res.op_applies, ledger.steps), (6, 59, 953));
    assert_eq!(
        bits(&res.values),
        [
            0x3ff86850a16a1738,
            0x3ff838eab381cb35,
            0x3ff6c5c4bb0e1737,
            0x3ff683ced3f9f1ff,
        ]
    );
    assert_eq!(
        bits(&res.residuals),
        [
            0x3cb72a94382bbf3e,
            0x3cf5e15bd23433c2,
            0x3e46de425f926e1b,
            0x3ea0c3b697617679,
        ]
    );
    assert_eq!(ledger.total.to_bits(), 0x3f602aaeaa4cf003);
}

/// Twelve vertices on a path with one chord, an 8-cycle, and twenty
/// isolated vertices, spread over more ranks than there are vertices
/// with an edge.
fn two_components_and_isolated_vertices() -> CsrMatrix {
    let mut coo = CooMatrix::new(40, 40);
    for i in 0..11 {
        coo.push_sym(i, i + 1, 1.0);
    }
    coo.push_sym(0, 2, 1.0);
    for i in 0..8 {
        coo.push_sym(12 + i, 12 + (i + 1) % 8, 1.0);
    }
    CsrMatrix::from_coo(&coo)
}

fn degenerate_solve(threads: usize) -> (EigResult, CostLedger) {
    let adj = two_components_and_isolated_vertices();
    let dist = MatrixDist::block_1d(adj.nrows(), 24);
    let op = laplacian_op(&adj, &dist, threads);
    let cfg = KrylovSchurConfig {
        nev: 4,
        max_basis: 30,
        tol: 1e-8,
        max_restarts: 100,
        seed: 3,
    };
    let mut ledger = CostLedger::new(Machine::cab());
    let res = krylov_schur_largest(&op, &cfg, &mut ledger);
    (res, ledger)
}

/// The Krylov space of this operator is exhausted after 15 steps (the
/// isolated vertices are one eigenspace, the two components have few
/// distinct eigenvalues), so a basis of 30 runs the breakdown arm —
/// `norm < 1e-12`, a fresh random direction, a second `cgs2` — a dozen
/// times, on ranks that own nothing but isolated vertices.
#[test]
fn isolated_vertices_and_a_second_component_reach_the_breakdown_arm() {
    sf2d_obs::enable();
    let (res, ledger) = degenerate_solve(1);
    sf2d_obs::disable();
    let cgs2_calls = sf2d_obs::take_events()
        .iter()
        .filter(
            |e| matches!(e, sf2d_obs::TraceEvent::WallSpan { label, .. } if label == "eigen:cgs2"),
        )
        .count();
    assert_eq!(
        cgs2_calls,
        res.op_applies + 12,
        "every breakdown orthogonalises a second vector"
    );

    assert!(res.converged, "residuals {:?}", res.residuals);
    for v in &res.values {
        assert!((-1e-9..=2.0 + 1e-9).contains(v), "eigenvalue {v}");
    }
    // The 8-cycle is bipartite: its largest eigenvalue is exactly 2.
    assert!((res.values[0] - 2.0).abs() < 1e-9);

    let (threaded, threaded_ledger) = degenerate_solve(3);
    assert_eq!(bits(&threaded.values), bits(&res.values));
    assert_eq!(bits(&threaded.residuals), bits(&res.residuals));
    for (a, b) in threaded.vectors.iter().zip(&res.vectors) {
        for (la, lb) in a.locals.iter().zip(&b.locals) {
            assert_eq!(bits(la), bits(lb));
        }
    }
    assert_eq!(threaded_ledger.total.to_bits(), ledger.total.to_bits());
    assert_eq!(threaded_ledger.steps, ledger.steps);
}
