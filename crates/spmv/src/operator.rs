//! Linear operators for the iterative solvers.
//!
//! The eigensolver experiments target `L̂ = I − D^{−1/2} A D^{−1/2}`.
//! [`NormalizedLaplacianOp`] applies it without forming `L̂` explicitly:
//! `y = x − s ⊙ (A (s ⊙ x))` with `s = D^{−1/2}` — one distributed SpMV on
//! `A` plus local diagonal scalings, so the communication pattern (and thus
//! every layout comparison) is exactly that of SpMV on `A`.

use std::cell::RefCell;
use std::sync::Arc;

use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::ChaosRuntime;

use crate::compiled::SpmvWorkspace;
use crate::distmat::DistCsrMatrix;
use crate::map::VectorMap;
use crate::multivec::DistVector;
use crate::spmv::{spmv_chaos_with, spmv_with};

/// Anything that can apply `y = Op(x)` on distributed vectors.
pub trait LinearOperator {
    /// The common domain/range map.
    fn vmap(&self) -> &Arc<VectorMap>;
    /// Applies the operator, charging the ledger.
    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger);
}

/// Plain `y = A x`.
pub struct PlainSpmvOp {
    /// The distributed matrix.
    pub a: DistCsrMatrix,
    /// Scratch reused across applications (`apply` takes `&self`).
    workspace: RefCell<SpmvWorkspace>,
}

impl PlainSpmvOp {
    /// Wraps a distributed matrix with a sequential workspace.
    pub fn new(a: DistCsrMatrix) -> PlainSpmvOp {
        PlainSpmvOp {
            a,
            workspace: RefCell::new(SpmvWorkspace::new()),
        }
    }

    /// Fans the per-rank phase work across `threads` OS threads
    /// (bit-identical to sequential for any value).
    pub fn with_threads(mut self, threads: usize) -> PlainSpmvOp {
        self.workspace.get_mut().threads = threads.max(1);
        self
    }
}

impl LinearOperator for PlainSpmvOp {
    fn vmap(&self) -> &Arc<VectorMap> {
        &self.a.vmap
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        spmv_with(&self.a, x, y, ledger, &mut self.workspace.borrow_mut());
    }
}

/// `y = A x` with both exchanges on the chaos wire
/// ([`spmv_chaos_with`]), so the eigensolver's operator applications run
/// under fault injection. The runtime is shared via `RefCell` (the
/// trait's `apply` takes `&self`) — callers keep a handle to read the
/// fault statistics afterwards.
pub struct ChaosSpmvOp<'a> {
    /// The distributed matrix.
    pub a: &'a DistCsrMatrix,
    /// The shared chaos runtime.
    pub rt: &'a RefCell<ChaosRuntime>,
    /// Scratch reused across applications.
    workspace: RefCell<SpmvWorkspace>,
}

impl<'a> ChaosSpmvOp<'a> {
    /// Wraps a matrix and a shared runtime with a sequential workspace.
    pub fn new(a: &'a DistCsrMatrix, rt: &'a RefCell<ChaosRuntime>) -> ChaosSpmvOp<'a> {
        ChaosSpmvOp {
            a,
            rt,
            workspace: RefCell::new(SpmvWorkspace::new()),
        }
    }
}

impl LinearOperator for ChaosSpmvOp<'_> {
    fn vmap(&self) -> &Arc<VectorMap> {
        &self.a.vmap
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        spmv_chaos_with(
            self.a,
            x,
            y,
            ledger,
            &mut self.workspace.borrow_mut(),
            &mut self.rt.borrow_mut(),
        );
    }
}

/// `y = x − D^{−1/2} A D^{−1/2} x`, the normalized Laplacian of §5.3.
pub struct NormalizedLaplacianOp {
    /// The distributed adjacency matrix (self-loops ignored by the scaling).
    pub a: DistCsrMatrix,
    /// `D^{−1/2}` diagonal, distributed on the same map.
    pub inv_sqrt_deg: DistVector,
    /// Scratch vector reused across applications.
    scratch: RefCell<(DistVector, DistVector)>,
    /// SpMV scratch reused across applications.
    workspace: RefCell<SpmvWorkspace>,
}

impl NormalizedLaplacianOp {
    /// Builds the operator from a distributed symmetric adjacency matrix.
    /// Degrees are computed from the global matrix pattern (excluding any
    /// diagonal entries); isolated vertices get scale 0.
    pub fn new(a: DistCsrMatrix, global_degrees: &[usize]) -> NormalizedLaplacianOp {
        assert_eq!(global_degrees.len(), a.n, "degree vector length mismatch");
        let s: Vec<f64> = global_degrees
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / (d as f64).sqrt() })
            .collect();
        let inv_sqrt_deg = DistVector::from_global(Arc::clone(&a.vmap), &s);
        let scratch = RefCell::new((
            DistVector::zeros(Arc::clone(&a.vmap)),
            DistVector::zeros(Arc::clone(&a.vmap)),
        ));
        NormalizedLaplacianOp {
            a,
            inv_sqrt_deg,
            scratch,
            workspace: RefCell::new(SpmvWorkspace::new()),
        }
    }

    /// Fans the per-rank phase work across `threads` OS threads
    /// (bit-identical to sequential for any value).
    pub fn with_threads(mut self, threads: usize) -> NormalizedLaplacianOp {
        self.workspace.get_mut().threads = threads.max(1);
        self
    }
}

impl LinearOperator for NormalizedLaplacianOp {
    fn vmap(&self) -> &Arc<VectorMap> {
        &self.a.vmap
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        let (ref mut t, ref mut u) = *self.scratch.borrow_mut();
        // t = s .* x (local, one flop per entry).
        let mut costs = Vec::with_capacity(x.locals.len());
        for r in 0..x.locals.len() {
            for ((tv, xv), sv) in t.locals[r]
                .iter_mut()
                .zip(&x.locals[r])
                .zip(&self.inv_sqrt_deg.locals[r])
            {
                *tv = xv * sv;
            }
            costs.push(PhaseCost::compute(x.locals[r].len() as u64));
        }
        ledger.superstep(Phase::VectorOp, &costs);

        // u = A t (the costed distributed SpMV).
        spmv_with(&self.a, t, u, ledger, &mut self.workspace.borrow_mut());

        // y = x - s .* u (local, two flops per entry).
        let mut costs = Vec::with_capacity(x.locals.len());
        for r in 0..x.locals.len() {
            for (((yv, xv), uv), sv) in y.locals[r]
                .iter_mut()
                .zip(&x.locals[r])
                .zip(&u.locals[r])
                .zip(&self.inv_sqrt_deg.locals[r])
            {
                *yv = xv - sv * uv;
            }
            costs.push(PhaseCost::compute(2 * x.locals[r].len() as u64));
        }
        ledger.superstep(Phase::VectorOp, &costs);
    }
}

/// `y = shift · x − Op(x)` — the spectral flip that turns "smallest
/// eigenpairs of `Op`" into "largest eigenpairs of `ShiftedOp`", the
/// standard trick when no factorization (shift-invert) is available.
/// With `shift` ≥ λ_max (e.g. a Gershgorin bound, or 2 for a normalized
/// Laplacian), the smallest eigenvalue of `Op` maps to the largest of the
/// shifted operator: λ′ = shift − λ.
pub struct ShiftedOp<'a> {
    /// The inner operator.
    pub inner: &'a dyn LinearOperator,
    /// The spectral shift.
    pub shift: f64,
}

impl LinearOperator for ShiftedOp<'_> {
    fn vmap(&self) -> &Arc<VectorMap> {
        self.inner.vmap()
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        self.inner.apply(x, y, ledger);
        // y = shift*x - y, one fused vector pass (2 flops/entry).
        let mut costs = Vec::with_capacity(x.locals.len());
        for r in 0..x.locals.len() {
            for (yv, xv) in y.locals[r].iter_mut().zip(&x.locals[r]) {
                *yv = self.shift * xv - *yv;
            }
            costs.push(PhaseCost::compute(2 * x.locals[r].len() as u64));
        }
        ledger.superstep(Phase::VectorOp, &costs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{rmat, RmatConfig};
    use sf2d_graph::normalized_laplacian;
    use sf2d_partition::MatrixDist;
    use sf2d_sim::Machine;

    #[test]
    fn normalized_laplacian_op_matches_explicit_matrix() {
        let a = rmat(&RmatConfig::graph500(6), 9);
        let lhat = normalized_laplacian(&a).unwrap();
        let adj = a.without_diagonal();
        let degrees: Vec<usize> = (0..adj.nrows()).map(|i| adj.row_nnz(i)).collect();

        let d = MatrixDist::block_2d(a.nrows(), 2, 2);
        let da = DistCsrMatrix::from_global(&adj, &d);
        let op = NormalizedLaplacianOp::new(da, &degrees);

        let x_global: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let x = DistVector::from_global(Arc::clone(op.vmap()), &x_global);
        let mut y = DistVector::zeros(Arc::clone(op.vmap()));
        let mut ledger = CostLedger::new(Machine::cab());
        op.apply(&x, &mut y, &mut ledger);

        let want = lhat.spmv_dense(&x_global);
        let got = y.to_global();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
        assert!(ledger.spmv_time() > 0.0);
        assert!(ledger.by_phase[&Phase::VectorOp] > 0.0);
    }

    #[test]
    fn shifted_op_flips_spectrum() {
        // For L-hat of a bipartite graph, largest of (2I - L) corresponds
        // to the smallest eigenvalue 0 of L: apply to the known
        // null-vector D^{1/2} 1 and check it is an eigenvector of value 2.
        let a = sf2d_gen::grid_2d(4, 5);
        let lhat = normalized_laplacian(&a).unwrap();
        let d = MatrixDist::block_1d(lhat.nrows(), 4);
        let da = DistCsrMatrix::from_global(&lhat, &d);
        let inner = PlainSpmvOp::new(da);
        let op = ShiftedOp {
            inner: &inner,
            shift: 2.0,
        };

        let adj = a.without_diagonal();
        let sqrt_deg: Vec<f64> = (0..adj.nrows())
            .map(|i| (adj.row_nnz(i) as f64).sqrt())
            .collect();
        let x = DistVector::from_global(Arc::clone(op.vmap()), &sqrt_deg);
        let mut y = DistVector::zeros(Arc::clone(op.vmap()));
        let mut ledger = CostLedger::new(Machine::cab());
        op.apply(&x, &mut y, &mut ledger);
        for (yv, xv) in y.to_global().iter().zip(&sqrt_deg) {
            assert!((yv - 2.0 * xv).abs() < 1e-9, "{yv} vs {}", 2.0 * xv);
        }
    }

    #[test]
    fn chaos_op_applies_the_matrix() {
        let a = rmat(&RmatConfig::graph500(6), 8);
        let da = DistCsrMatrix::from_global(&a, &MatrixDist::block_2d(a.nrows(), 2, 2));
        let x = DistVector::random(Arc::clone(&da.vmap), 11);
        let rt = RefCell::new(ChaosRuntime::seeded(3, 0.2));
        let op = ChaosSpmvOp::new(&da, &rt);
        let mut y = DistVector::zeros(Arc::clone(&da.vmap));
        op.apply(&x, &mut y, &mut CostLedger::new(Machine::cab()));
        let mut y_ref = DistVector::zeros(Arc::clone(&da.vmap));
        crate::reference::spmv_ref(&da, &x, &mut y_ref, &mut CostLedger::new(Machine::cab()));
        assert_eq!(y.locals, y_ref.locals);
    }

    #[test]
    fn plain_op_is_spmv() {
        let a = rmat(&RmatConfig::graph500(5), 1);
        let d = MatrixDist::block_1d(a.nrows(), 3);
        let da = DistCsrMatrix::from_global(&a, &d);
        let op = PlainSpmvOp::new(da);
        let x_global: Vec<f64> = (0..a.nrows()).map(|i| i as f64).collect();
        let x = DistVector::from_global(Arc::clone(op.vmap()), &x_global);
        let mut y = DistVector::zeros(Arc::clone(op.vmap()));
        let mut ledger = CostLedger::new(Machine::cab());
        op.apply(&x, &mut y, &mut ledger);
        assert_eq!(y.to_global(), a.spmv_dense(&x_global));
    }
}
