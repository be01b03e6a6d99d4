//! Thick-restart Lanczos — Krylov–Schur with block size 1 on a symmetric
//! operator, the configuration the paper runs (§4: "BKS ... We use block
//! size one").
//!
//! For symmetric operators, Stewart's Krylov–Schur restart is equivalent to
//! the thick-restart Lanczos of Wu & Simon: after building an
//! `m`-dimensional Krylov space, the projected matrix's best `keep` Ritz
//! pairs are locked into the basis, the last Lanczos residual vector is
//! carried over, and the recurrence continues from dimension `keep + 1`.
//! The projected matrix is then "arrowhead + tridiagonal", which we solve
//! with the dense Jacobi routine.

use std::cell::RefCell;
use std::sync::Arc;

use sf2d_obs::{trace_span, PhaseKind};
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::ChaosRuntime;
use sf2d_spmv::{DistVector, LinearOperator};

use crate::dense::{symmetric_eig, DenseMat};
use crate::ortho::{cgs2_with, subtract_columns, Workspace};

/// Options for the eigensolver.
#[derive(Debug, Clone, Copy)]
pub struct KrylovSchurConfig {
    /// Number of (largest) eigenpairs wanted. The paper computes 10.
    pub nev: usize,
    /// Maximum subspace dimension before restarting.
    pub max_basis: usize,
    /// Relative residual tolerance. The paper solves to 1e-3.
    pub tol: f64,
    /// Maximum number of restart cycles.
    pub max_restarts: usize,
    /// Seed for the random start vector.
    pub seed: u64,
}

impl KrylovSchurConfig {
    /// The paper's setting: ten largest eigenpairs to 1e-3.
    pub fn paper(seed: u64) -> KrylovSchurConfig {
        KrylovSchurConfig {
            nev: 10,
            max_basis: 40,
            tol: 1e-3,
            max_restarts: 200,
            seed,
        }
    }
}

/// The result of an eigensolve.
#[derive(Debug)]
pub struct EigResult {
    /// Converged eigenvalues, largest first.
    pub values: Vec<f64>,
    /// Matching Ritz vectors.
    pub vectors: Vec<DistVector>,
    /// Relative residual estimates per pair.
    pub residuals: Vec<f64>,
    /// Operator applications performed.
    pub op_applies: usize,
    /// Restart cycles performed.
    pub restarts: usize,
    /// Whether the tolerance was met for all `nev` pairs.
    pub converged: bool,
}

/// Computes the `nev` largest eigenpairs of a symmetric operator.
///
/// # Panics
/// Panics if `nev == 0`, the basis is too small (`max_basis < nev + 2`),
/// or the operator dimension is smaller than `max_basis`.
pub fn krylov_schur_largest(
    op: &dyn LinearOperator,
    cfg: &KrylovSchurConfig,
    ledger: &mut CostLedger,
) -> EigResult {
    krylov_schur_core(op, cfg, ledger, None)
}

/// [`krylov_schur_largest`] with checkpoint/restart at restart-cycle
/// boundaries, for runs whose operator applications go through a fault
/// plan (e.g. [`sf2d_spmv::ChaosSpmvOp`] sharing the same runtime):
///
/// * the outer-loop state (locked basis, projected matrix, coupling row,
///   breakdown salt) is snapshotted on entry to every restart cycle — a
///   node-local memory copy, free of charge;
/// * after each cycle's Lanczos expansion the loop polls
///   [`ChaosRuntime::take_crash`] with a monotone executed-cycle epoch;
///   on a crash the snapshot is restored, every rank's re-read of its
///   slice of the checkpointed basis is billed as one
///   [`Phase::Recovery`] superstep, and the cycle re-executes (the lost
///   operator applications stay counted in `op_applies` — honest work);
/// * message-level faults inside the operator are healed and billed by
///   the operator itself — `ChaosSpmvOp` is the one SpMV executor with
///   the runtime passed in, not a second implementation.
///
/// Because the chaos protocol always delivers fault-free values, the
/// returned eigenpairs are **bit-identical** to the fault-free solve;
/// with no crash drawn (e.g. rate 0) the ledger is byte-identical too.
pub fn krylov_schur_largest_resilient(
    op: &dyn LinearOperator,
    cfg: &KrylovSchurConfig,
    ledger: &mut CostLedger,
    rt: &RefCell<ChaosRuntime>,
) -> EigResult {
    krylov_schur_core(op, cfg, ledger, Some(rt))
}

fn krylov_schur_core(
    op: &dyn LinearOperator,
    cfg: &KrylovSchurConfig,
    ledger: &mut CostLedger,
    chaos: Option<&RefCell<ChaosRuntime>>,
) -> EigResult {
    assert!(cfg.nev >= 1, "need nev >= 1");
    assert!(cfg.max_basis >= cfg.nev + 2, "max_basis too small");
    let map = Arc::clone(op.vmap());
    assert!(
        map.n() >= cfg.max_basis,
        "operator smaller than the Krylov basis"
    );
    let m = cfg.max_basis;
    let p = map.nprocs();

    let mut v0 = DistVector::random(Arc::clone(&map), cfg.seed);
    let n0 = v0.norm2(ledger);
    scale_free(&mut v0, 1.0 / n0);

    // V[0..=m], allocated once: the live prefix is the Krylov basis, the
    // rest are spares the next Lanczos vector is taken from. T is the
    // projected m x m matrix.
    let mut basis = vec![v0];
    basis.resize_with(m + 1, || DistVector::zeros(Arc::clone(&map)));
    let mut ws = Workspace::default();
    let mut t = DenseMat::zeros(m);
    let mut k = 0usize; // locked Ritz vectors after restart
    let mut coupling: Vec<f64> = Vec::new(); // b_i, i < k
    let mut op_applies = 0usize;
    let mut restarts = 0usize;

    let mut rng_salt = 1u64;
    // Monotone count of *executed* expansion cycles: the crash epoch.
    // Unlike `restarts` it advances on crashed cycles too, so a replayed
    // cycle polls a fresh epoch and the recovery loop terminates.
    let mut epoch = 0u64;
    loop {
        // Trace one outer (restart) cycle as a span on the simulated
        // clock, bounded by the ledger totals at entry and exit.
        let cycle = restarts;
        let cycle_t0 = ledger.total;

        // Checkpoint the outer-loop state at the cycle boundary (a
        // node-local copy — free of charge, like DistVector::copy_from).
        let snapshot = chaos.map(|_| {
            let live = basis[..=k].to_vec();
            (live, t.clone(), k, coupling.clone(), rng_salt)
        });

        // --- Lanczos expansion from k to m ---
        let mut beta_last = 0.0f64;
        for j in k..m {
            let (live, spares) = basis.split_at_mut(j + 1);
            // A spare holds a vector of an earlier cycle; an operator
            // that accumulates into its output must find zeros.
            let w = &mut spares[0];
            w.locals.iter_mut().for_each(|l| l.fill(0.0));
            op.apply(&live[j], w, ledger);
            op_applies += 1;

            let alpha = w.dot(&live[j], ledger);
            t[(j, j)] = alpha;
            // Subtractions of previous basis directions are folded into the
            // full CGS2 reorthogonalization below (numerically stronger than
            // the bare three-term recurrence on scale-free spectra).
            let norm = cgs2_with(&mut ws, w, live, ledger);

            beta_last = if norm < 1e-12 * (1.0 + alpha.abs()) {
                // Breakdown: restart the recurrence with a fresh random
                // direction orthogonal to everything so far.
                *w = DistVector::random(Arc::clone(&map), cfg.seed ^ (rng_salt << 32));
                rng_salt += 1;
                let fresh_norm = cgs2_with(&mut ws, w, live, ledger);
                scale_free(w, 1.0 / fresh_norm.max(1e-300));
                0.0
            } else {
                scale_free(w, 1.0 / norm);
                norm
            };
            if j + 1 < m {
                t[(j, j + 1)] = beta_last;
                t[(j + 1, j)] = beta_last;
            }
            // Coupling row from a previous restart.
            if j == k && k > 0 {
                for (i, &b) in coupling.iter().enumerate() {
                    t[(i, k)] = b;
                    t[(k, i)] = b;
                }
            }
        }

        // A rank crash during the cycle loses the expansion: restore the
        // checkpoint, bill every rank's re-read of its slice of the
        // snapshotted basis, and re-execute. The replayed applications
        // recompute the same bits (the chaos protocol always delivers
        // fault-free values), so recovery cannot change the answer.
        if let Some(rt) = chaos {
            let crashed = rt.borrow_mut().take_crash(epoch);
            epoch += 1;
            if crashed {
                let (live, tt, kk, c, s) = snapshot.expect("snapshot taken under chaos");
                let restored = live.len();
                basis[..restored].clone_from_slice(&live);
                t = tt;
                k = kk;
                coupling = c;
                rng_salt = s;
                let restore: Vec<PhaseCost> = (0..p)
                    .map(|r| PhaseCost::comm(1, 8 * (restored * map.nlocal(r)) as u64))
                    .collect();
                ledger.superstep(Phase::Recovery, &restore);
                if sf2d_obs::enabled() {
                    sf2d_obs::record_sim_span(
                        sf2d_obs::PhaseKind::Recovery,
                        format!("krylov-schur cycle {cycle} (crashed, restored)"),
                        cycle_t0,
                        ledger.total,
                    );
                }
                continue;
            }
        }

        // --- Solve the projected problem ---
        let (vals, vecs) = trace_span!(PhaseKind::Other, "eigen:dense-solve", symmetric_eig(&t));
        // Largest nev (Jacobi returns ascending).
        let sel: Vec<usize> = (0..m).rev().take(cfg.nev).collect();
        let residuals: Vec<f64> = sel
            .iter()
            .map(|&i| {
                let r = (beta_last * vecs[(m - 1, i)]).abs();
                r / vals[i].abs().max(1e-30)
            })
            .collect();
        let converged = residuals.iter().all(|&r| r <= cfg.tol);

        if converged || restarts >= cfg.max_restarts {
            // The Ritz vectors X = V[0..m] * S_sel take the basis's place.
            rotate_basis(&mut basis, m, &vecs, &sel, &mut ws, ledger);
            basis.truncate(cfg.nev);
            let values: Vec<f64> = sel.iter().map(|&i| vals[i]).collect();
            if sf2d_obs::enabled() {
                sf2d_obs::record_sim_span(
                    sf2d_obs::PhaseKind::SolverIteration,
                    format!("krylov-schur cycle {cycle} (final)"),
                    cycle_t0,
                    ledger.total,
                );
            }
            return EigResult {
                values,
                vectors: basis,
                residuals,
                op_applies,
                restarts,
                converged,
            };
        }

        // --- Thick restart ---
        restarts += 1;
        let keep = (cfg.nev + (m - cfg.nev) / 2).min(m - 1);
        let kept: Vec<usize> = (0..m).rev().take(keep).collect();
        rotate_basis(&mut basis, m, &vecs, &kept, &mut ws, ledger);
        // Residual vector carries over as the (keep+1)-th basis vector.
        basis.swap(keep, m);
        coupling = kept.iter().map(|&i| beta_last * vecs[(m - 1, i)]).collect();
        t = DenseMat::zeros(m);
        for (j, &i) in kept.iter().enumerate() {
            t[(j, j)] = vals[i];
        }
        k = keep;
        if sf2d_obs::enabled() {
            sf2d_obs::record_sim_span(
                sf2d_obs::PhaseKind::SolverIteration,
                format!("krylov-schur cycle {cycle}"),
                cycle_t0,
                ledger.total,
            );
        }
    }
}

/// Scales a vector without charging the ledger (used only for normalization
/// right after a costed norm computation; the flops are negligible and the
/// costed path for user-visible scaling is `DistVector::scale`).
fn scale_free(v: &mut DistVector, s: f64) {
    for l in &mut v.locals {
        for x in l {
            *x *= s;
        }
    }
}

/// Overwrites `basis[j]` with `Σ_{i < m} basis[i] * vecs[(i, sel[j])]` for
/// every `j < sel.len()`, charged as one vector superstep (`2 · m · |sel|`
/// flops per local entry). Rank-major: a rank's new columns are all formed
/// from its slab of the old basis while that is in cache, then copied over
/// it. An entry still adds its `m` products in ascending `i` from `0.0`:
/// `x − (−c)·v` is `x + c·v` to the bit.
fn rotate_basis(
    basis: &mut [DistVector],
    m: usize,
    vecs: &DenseMat,
    sel: &[usize],
    ws: &mut Workspace,
    ledger: &mut CostLedger,
) {
    trace_span!(PhaseKind::VectorOp, "eigen:rotate", {
        ws.coefs.clear();
        for &col in sel {
            ws.coefs.extend((0..m).map(|i| -vecs[(i, col)]));
        }
        ws.costs.clear();
        for r in 0..basis[0].map.nprocs() {
            let nl = basis[0].map.nlocal(r);
            let flops = 2 * (m * sel.len() * nl) as u64;
            ws.costs.push(PhaseCost::compute(flops));
            ws.rotated.clear();
            ws.rotated.resize(sel.len() * nl, 0.0);
            for j in 0..sel.len() {
                let (c, out) = (&ws.coefs[j * m..][..m], &mut ws.rotated[j * nl..][..nl]);
                subtract_columns(&basis[..m], r, c, out);
            }
            for (j, v) in basis[..sel.len()].iter_mut().enumerate() {
                v.locals[r].copy_from_slice(&ws.rotated[j * nl..][..nl]);
            }
        }
        ledger.superstep(Phase::VectorOp, &ws.costs);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::normalized_laplacian;
    use sf2d_partition::MatrixDist;
    use sf2d_sim::Machine;
    use sf2d_spmv::{DistCsrMatrix, PlainSpmvOp};

    fn dist_op(a: &sf2d_graph::CsrMatrix, p: usize) -> PlainSpmvOp {
        let d = MatrixDist::block_1d(a.nrows(), p);
        PlainSpmvOp::new(DistCsrMatrix::from_global(a, &d))
    }

    /// Dense oracle via repeated Jacobi on the full matrix.
    fn dense_largest(a: &sf2d_graph::CsrMatrix, nev: usize) -> Vec<f64> {
        let n = a.nrows();
        let mut dm = DenseMat::zeros(n);
        for (i, j, v) in a.iter() {
            dm[(i as usize, j as usize)] = v;
        }
        let (vals, _) = symmetric_eig(&dm);
        vals.into_iter().rev().take(nev).collect()
    }

    /// `rotate_basis` as it stood before it went rank-major and in place
    /// — output column outermost, the whole basis streamed once per
    /// output, a fresh vector per output — kept as the bitwise oracle.
    fn rotate_basis_reference(
        basis: &[DistVector],
        vecs: &DenseMat,
        sel: &[usize],
        p: usize,
        ledger: &mut CostLedger,
    ) -> Vec<DistVector> {
        let map = Arc::clone(&basis[0].map);
        let mut out: Vec<DistVector> = sel
            .iter()
            .map(|_| DistVector::zeros(Arc::clone(&map)))
            .collect();
        let mut costs = vec![PhaseCost::default(); p];
        for (oj, &col) in sel.iter().enumerate() {
            for (i, b) in basis.iter().enumerate() {
                let c = vecs[(i, col)];
                for r in 0..p {
                    for (o, &x) in out[oj].locals[r].iter_mut().zip(&b.locals[r]) {
                        *o += c * x;
                    }
                }
            }
        }
        for r in 0..p {
            costs[r].flops += 2 * (basis.len() * sel.len() * map.nlocal(r)) as u64;
        }
        ledger.superstep(Phase::VectorOp, &costs);
        out
    }

    proptest::proptest! {
        /// Every rotated column and the ledger, bit for bit, with basis
        /// sizes crossing the kernel's block width and ranks that own
        /// nothing (`p > n`).
        #[test]
        fn rotate_basis_matches_the_reference_bit_for_bit(
            n in 3usize..24,
            p in 1usize..=9,
            block_2d in proptest::bool::ANY,
            m in 1usize..=19,
            outputs in 1usize..=6,
            coefs in proptest::collection::vec(-1.0f64..1.0, 19 * 19),
            seed in 0u64..1000,
        ) {
            let dist = if block_2d {
                let (pr, pc) = sf2d_partition::grid_shape(p);
                MatrixDist::block_2d(n, pr, pc)
            } else {
                MatrixDist::random_1d(n, p, seed)
            };
            let map = Arc::new(sf2d_spmv::VectorMap::from_dist(&dist));
            // One vector past the m being rotated, as in a solve; every
            // seventh entry an exact zero of either sign.
            let mut basis: Vec<DistVector> = (0..=m as u64)
                .map(|k| {
                    let mut v = DistVector::random(Arc::clone(&map), seed * 31 + k);
                    for (i, x) in v.locals.iter_mut().flatten().enumerate() {
                        match (i as u64 + k) % 7 {
                            0 => *x = 0.0,
                            1 => *x = -0.0,
                            _ => {}
                        }
                    }
                    v
                })
                .collect();
            let mut vecs = DenseMat::zeros(m);
            for i in 0..m {
                for j in 0..m {
                    if (i + 2 * j) % 5 != 0 {
                        vecs[(i, j)] = coefs[i * m + j];
                    }
                }
            }
            let sel: Vec<usize> = (0..m).rev().take(outputs).collect();

            let mut led_want = CostLedger::new(Machine::cab());
            let want = rotate_basis_reference(&basis[..m], &vecs, &sel, p, &mut led_want);
            let untouched: Vec<DistVector> = basis[sel.len()..].to_vec();
            let mut led_got = CostLedger::new(Machine::cab());
            rotate_basis(&mut basis, m, &vecs, &sel, &mut Workspace::default(), &mut led_got);

            for (j, (got, want)) in basis.iter().zip(&want).enumerate() {
                for (g, w) in got.locals.iter().zip(&want.locals) {
                    let (g, w): (Vec<u64>, Vec<u64>) = (
                        g.iter().map(|x| x.to_bits()).collect(),
                        w.iter().map(|x| x.to_bits()).collect(),
                    );
                    proptest::prop_assert_eq!(g, w, "column {} from {} vectors", j, m);
                }
            }
            for (got, want) in basis[sel.len()..].iter().zip(&untouched) {
                proptest::prop_assert_eq!(&got.locals, &want.locals);
            }
            proptest::prop_assert_eq!(&led_got.history, &led_want.history);
            proptest::prop_assert_eq!(led_got.steps, led_want.steps);
            proptest::prop_assert_eq!(led_got.total.to_bits(), led_want.total.to_bits());
        }
    }

    #[test]
    fn tracing_emits_one_span_per_outer_cycle_without_perturbing() {
        let a = grid_2d(5, 7);
        let l = normalized_laplacian(&a).unwrap();
        let op = dist_op(&l, 3);
        let cfg = KrylovSchurConfig {
            nev: 4,
            max_basis: 20,
            tol: 1e-8,
            max_restarts: 100,
            seed: 1,
        };
        let mut l_off = CostLedger::new(Machine::cab());
        let r_off = krylov_schur_largest(&op, &cfg, &mut l_off);

        sf2d_obs::enable();
        let mut l_on = CostLedger::new(Machine::cab());
        let r_on = krylov_schur_largest(&op, &cfg, &mut l_on);
        sf2d_obs::disable();
        let events = sf2d_obs::take_events();

        assert_eq!(r_off.values, r_on.values);
        assert_eq!(r_off.restarts, r_on.restarts);
        assert_eq!(l_off.total.to_bits(), l_on.total.to_bits());

        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                sf2d_obs::TraceEvent::SimSpan {
                    kind: sf2d_obs::PhaseKind::SolverIteration,
                    label,
                    t_start,
                    t_end,
                } => Some((label.clone(), *t_start, *t_end)),
                _ => None,
            })
            .collect();
        // One span per restart cycle plus the final cycle.
        assert_eq!(spans.len(), r_on.restarts + 1);
        // Spans tile the simulated timeline: contiguous, ending at total.
        for w in spans.windows(2) {
            assert_eq!(w[0].2, w[1].1);
        }
        // The first cycle starts after the initial normalization's
        // charges; the last ends exactly at the ledger total.
        assert!(spans[0].1 > 0.0 && spans[0].1 < spans[0].2);
        assert_eq!(spans.last().unwrap().2, l_on.total);
        assert!(spans.last().unwrap().0.contains("final"));
        // Superstep events rode along from the ledger.
        assert!(events
            .iter()
            .any(|e| matches!(e, sf2d_obs::TraceEvent::Superstep { .. })));

        // Host spans say where inside a solve the wall time went: one
        // `cgs2` per Lanczos step (no breakdown on this graph), one dense
        // solve and one rotation per cycle.
        let host_spans = |name: &str, kind: PhaseKind| {
            events
                .iter()
                .filter(|e| {
                    matches!(e, sf2d_obs::TraceEvent::WallSpan { kind: k, label, .. }
                        if label == name && *k == kind)
                })
                .count()
        };
        assert_eq!(
            host_spans("eigen:cgs2", PhaseKind::VectorOp),
            r_on.op_applies
        );
        assert_eq!(
            host_spans("eigen:dense-solve", PhaseKind::Other),
            r_on.restarts + 1
        );
        assert_eq!(
            host_spans("eigen:rotate", PhaseKind::VectorOp),
            r_on.restarts + 1
        );
    }

    #[test]
    fn matches_dense_oracle_on_small_laplacian() {
        // A rectangular grid avoids the eigenvalue multiplicities a square
        // grid's x/y symmetry creates: single-vector (block size 1) Lanczos
        // finds each *distinct* eigenvalue once, exactly like the paper's
        // block-size-1 BKS configuration.
        let a = grid_2d(5, 7);
        let l = normalized_laplacian(&a).unwrap();
        let op = dist_op(&l, 3);
        let cfg = KrylovSchurConfig {
            nev: 4,
            max_basis: 20,
            tol: 1e-8,
            max_restarts: 100,
            seed: 1,
        };
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest(&op, &cfg, &mut ledger);
        assert!(res.converged, "residuals {:?}", res.residuals);
        let want = dense_largest(&l, 4);
        for (got, want) in res.values.iter().zip(&want) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenvectors_satisfy_residual_equation() {
        let a = grid_2d(5, 5);
        let l = normalized_laplacian(&a).unwrap();
        let op = dist_op(&l, 2);
        let cfg = KrylovSchurConfig {
            nev: 3,
            max_basis: 15,
            tol: 1e-9,
            max_restarts: 100,
            seed: 2,
        };
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest(&op, &cfg, &mut ledger);
        for (i, v) in res.vectors.iter().enumerate() {
            let xg = v.to_global();
            let ax = l.spmv_dense(&xg);
            let lam = res.values[i];
            let rnorm: f64 = ax
                .iter()
                .zip(&xg)
                .map(|(a, x)| (a - lam * x).powi(2))
                .sum::<f64>()
                .sqrt();
            let xnorm: f64 = xg.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(
                rnorm < 1e-6 * xnorm.max(1e-30),
                "pair {i}: residual {rnorm}"
            );
        }
    }

    #[test]
    fn normalized_laplacian_eigenvalues_in_range() {
        // All eigenvalues of L̂ lie in [0, 2]; the largest approaches 2 for
        // near-bipartite graphs (the paper's §5.3 motivation).
        let a = rmat(&RmatConfig::graph500(7), 3);
        let l = normalized_laplacian(&a).unwrap();
        let op = dist_op(&l, 4);
        let cfg = KrylovSchurConfig {
            nev: 5,
            max_basis: 30,
            tol: 1e-4,
            max_restarts: 300,
            seed: 3,
        };
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest(&op, &cfg, &mut ledger);
        assert!(res.converged, "residuals {:?}", res.residuals);
        for &v in &res.values {
            assert!(v > 0.5 && v <= 2.0 + 1e-9, "eigenvalue {v}");
        }
        // Sorted descending.
        for w in res.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn identical_results_for_different_layouts() {
        // The eigensolve is deterministic and layout-invariant (same seeds,
        // same reduction order): values agree to rounding noise introduced
        // by differently-ordered local sums.
        let a = grid_2d(8, 8);
        let l = normalized_laplacian(&a).unwrap();
        let cfg = KrylovSchurConfig {
            nev: 3,
            max_basis: 18,
            tol: 1e-8,
            max_restarts: 100,
            seed: 7,
        };

        let op1 = dist_op(&l, 2);
        let d2 = MatrixDist::block_2d(l.nrows(), 2, 2);
        let op2 = PlainSpmvOp::new(DistCsrMatrix::from_global(&l, &d2));

        let mut l1 = CostLedger::new(Machine::cab());
        let mut l2 = CostLedger::new(Machine::cab());
        let r1 = krylov_schur_largest(&op1, &cfg, &mut l1);
        let r2 = krylov_schur_largest(&op2, &cfg, &mut l2);
        for (a, b) in r1.values.iter().zip(&r2.values) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn resilient_solver_recovers_crashes_to_identical_bits() {
        use sf2d_sim::sf2d_chaos::FaultScript;
        use sf2d_spmv::ChaosSpmvOp;

        let a = grid_2d(5, 7);
        let l = normalized_laplacian(&a).unwrap();
        let d = MatrixDist::block_1d(l.nrows(), 3);
        let dm = DistCsrMatrix::from_global(&l, &d);
        let cfg = KrylovSchurConfig {
            nev: 4,
            max_basis: 20,
            tol: 1e-8,
            max_restarts: 100,
            seed: 1,
        };
        let mut led_gold = CostLedger::new(Machine::cab());
        let gold = krylov_schur_largest(&PlainSpmvOp::new(dm.clone()), &cfg, &mut led_gold);
        assert!(gold.converged);

        // Scripted crash in the second expansion cycle: the solver must
        // rewind to the cycle checkpoint, bill a Recovery superstep, and
        // still land on the gold bits.
        let rt = RefCell::new(ChaosRuntime::scripted(FaultScript::default().crash(1)));
        let op = ChaosSpmvOp::new(&dm, &rt);
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest_resilient(&op, &cfg, &mut ledger, &rt);
        assert_eq!(res.values, gold.values);
        assert_eq!(res.residuals, gold.residuals);
        assert_eq!(res.restarts, gold.restarts);
        for (v, w) in res.vectors.iter().zip(&gold.vectors) {
            assert_eq!(v.locals, w.locals, "recovered Ritz vectors differ");
        }
        assert_eq!(rt.borrow().stats.crashes, 1);
        assert!(ledger.by_phase[&Phase::Recovery] > 0.0);
        // The crashed cycle's operator applications are honest lost work.
        assert!(res.op_applies > gold.op_applies);

        // Seeded chaos (message faults + whatever crashes the plan
        // draws): still the gold bits, with retransmissions itemized.
        let rt = RefCell::new(ChaosRuntime::seeded(0xC0FFEE, 0.25));
        let op = ChaosSpmvOp::new(&dm, &rt);
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest_resilient(&op, &cfg, &mut ledger, &rt);
        assert_eq!(res.values, gold.values);
        assert!(rt.borrow().stats.message_faults() > 0);
        assert!(ledger.by_phase[&Phase::Retransmit] > 0.0);
    }

    #[test]
    fn rate_zero_resilient_solve_is_byte_identical_to_plain() {
        use sf2d_spmv::ChaosSpmvOp;

        let a = grid_2d(5, 7);
        let l = normalized_laplacian(&a).unwrap();
        let d = MatrixDist::block_1d(l.nrows(), 3);
        let dm = DistCsrMatrix::from_global(&l, &d);
        let cfg = KrylovSchurConfig {
            nev: 3,
            max_basis: 16,
            tol: 1e-8,
            max_restarts: 100,
            seed: 2,
        };
        let mut led_gold = CostLedger::new(Machine::cab());
        let gold = krylov_schur_largest(&PlainSpmvOp::new(dm.clone()), &cfg, &mut led_gold);

        let rt = RefCell::new(ChaosRuntime::seeded(7, 0.0));
        let op = ChaosSpmvOp::new(&dm, &rt);
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest_resilient(&op, &cfg, &mut ledger, &rt);
        assert_eq!(res.values, gold.values);
        assert_eq!(ledger.total.to_bits(), led_gold.total.to_bits());
        assert_eq!(ledger.steps, led_gold.steps);
        assert_eq!(ledger.by_phase, led_gold.by_phase);
        assert!(!rt.borrow().stats.any());
    }

    #[test]
    fn cost_ledger_sees_spmv_and_vector_work() {
        let a = grid_2d(7, 7);
        let l = normalized_laplacian(&a).unwrap();
        let op = dist_op(&l, 4);
        let cfg = KrylovSchurConfig {
            nev: 2,
            max_basis: 12,
            tol: 1e-6,
            max_restarts: 50,
            seed: 5,
        };
        let mut ledger = CostLedger::new(Machine::cab());
        let res = krylov_schur_largest(&op, &cfg, &mut ledger);
        assert!(res.op_applies >= cfg.max_basis);
        assert!(ledger.spmv_time() > 0.0);
        assert!(ledger.by_phase[&Phase::VectorOp] > ledger.spmv_time() * 0.01);
    }
}
