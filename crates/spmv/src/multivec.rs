//! Distributed vectors and their (costed) kernels.
//!
//! A [`DistVector`] stores one local slice per rank, aligned with the
//! [`VectorMap`]'s local orderings. Every operation both *executes* exactly
//! and *charges* the cost ledger, so vector imbalance shows up in solve
//! times exactly as in the paper's Table 5 (where 2D-GP's imbalanced vector
//! distribution made orthogonalization dominate).

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sf2d_sim::collective::allreduce_cost;
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};

use crate::map::VectorMap;

/// A vector distributed according to a [`VectorMap`].
#[derive(Debug, Clone)]
pub struct DistVector {
    /// The map describing ownership.
    pub map: Arc<VectorMap>,
    /// Per-rank local values (aligned to `map.gids(rank)`).
    pub locals: Vec<Vec<f64>>,
}

impl DistVector {
    /// All-zeros vector over a map.
    pub fn zeros(map: Arc<VectorMap>) -> DistVector {
        let locals = (0..map.nprocs())
            .map(|r| vec![0.0; map.nlocal(r)])
            .collect();
        DistVector { map, locals }
    }

    /// Distributes a global dense vector.
    pub fn from_global(map: Arc<VectorMap>, x: &[f64]) -> DistVector {
        assert_eq!(x.len(), map.n(), "global vector length mismatch");
        let locals = (0..map.nprocs())
            .map(|r| map.gids(r).iter().map(|&g| x[g as usize]).collect())
            .collect();
        DistVector { map, locals }
    }

    /// Deterministic random vector (entries in `[-1, 1)`), seeded per
    /// global id so the values are identical under any distribution.
    pub fn random(map: Arc<VectorMap>, seed: u64) -> DistVector {
        let locals = (0..map.nprocs())
            .map(|r| {
                map.gids(r)
                    .iter()
                    .map(|&g| {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (g as u64) << 17);
                        rng.gen_range(-1.0..1.0)
                    })
                    .collect()
            })
            .collect();
        DistVector { map, locals }
    }

    /// Gathers back to a global dense vector (test oracle / output).
    pub fn to_global(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.map.n()];
        for r in 0..self.map.nprocs() {
            for (lid, &g) in self.map.gids(r).iter().enumerate() {
                out[g as usize] = self.locals[r][lid];
            }
        }
        out
    }

    /// Charges a streaming vector op touching each local entry once with
    /// `flops_per_entry` flops, as one vector superstep.
    fn charge_stream(&self, flops_per_entry: u64, ledger: &mut CostLedger) {
        let cost = |l: &Vec<f64>| PhaseCost::compute(flops_per_entry * l.len() as u64);
        ledger.superstep_iter(Phase::VectorOp, self.locals.iter().map(cost));
    }

    /// `self += alpha * other`; charged as one vector superstep.
    pub fn axpy(&mut self, alpha: f64, other: &DistVector, ledger: &mut CostLedger) {
        for (mine, theirs) in self.locals.iter_mut().zip(&other.locals) {
            assert_eq!(mine.len(), theirs.len(), "map mismatch in axpy");
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += alpha * b;
            }
        }
        self.charge_stream(2, ledger);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64, ledger: &mut CostLedger) {
        for l in &mut self.locals {
            for v in l {
                *v *= alpha;
            }
        }
        self.charge_stream(1, ledger);
    }

    /// Global dot product: local partials (costed per rank) + allreduce.
    /// Allocates nothing: the partials are summed as they are formed, in
    /// rank order, exactly as
    /// [`allreduce_sum`](sf2d_sim::collective::allreduce_sum) sums them.
    pub fn dot(&self, other: &DistVector, ledger: &mut CostLedger) -> f64 {
        let partials = self.locals.iter().zip(&other.locals).map(|(a, b)| {
            assert_eq!(a.len(), b.len(), "map mismatch in dot");
            a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
        });
        let total = partials.sum::<f64>();
        self.charge_stream(2, ledger);
        ledger.superstep_uniform(
            Phase::Collective,
            allreduce_cost(self.map.nprocs(), 1),
            self.map.nprocs(),
        );
        total
    }

    /// Euclidean norm via [`dot`](Self::dot).
    pub fn norm2(&self, ledger: &mut CostLedger) -> f64 {
        self.dot(self, ledger).sqrt()
    }

    /// Copies values from another vector on the same map (free of charge —
    /// models a pointer swap / local memcpy that the solvers do).
    pub fn copy_from(&mut self, other: &DistVector) {
        for (mine, theirs) in self.locals.iter_mut().zip(&other.locals) {
            mine.copy_from_slice(theirs);
        }
    }
}

/// A block of `ncols` vectors sharing one map — Epetra's `MultiVector`.
///
/// Stored column-major per rank (`locals[r][c * nlocal + i]`), so one
/// column is a contiguous slice. The point of blocking is communication:
/// [`crate::spmv::spmm`] ships all columns of a remote entry in the *same*
/// message, so the per-message latency α is amortized `ncols`-fold while
/// volume grows linearly — exactly the trade block Krylov methods exploit.
#[derive(Debug, Clone)]
pub struct DistMultiVector {
    /// Ownership map (shared with the matrix).
    pub map: Arc<VectorMap>,
    /// Number of columns.
    pub ncols: usize,
    /// Per-rank column-major storage.
    pub locals: Vec<Vec<f64>>,
}

impl DistMultiVector {
    /// All-zeros block.
    pub fn zeros(map: Arc<VectorMap>, ncols: usize) -> DistMultiVector {
        assert!(ncols >= 1);
        let locals = (0..map.nprocs())
            .map(|r| vec![0.0; ncols * map.nlocal(r)])
            .collect();
        DistMultiVector { map, ncols, locals }
    }

    /// Builds from per-column global vectors.
    pub fn from_columns(map: Arc<VectorMap>, cols: &[Vec<f64>]) -> DistMultiVector {
        assert!(!cols.is_empty());
        let ncols = cols.len();
        let locals = (0..map.nprocs())
            .map(|r| {
                let gids = map.gids(r);
                let mut l = Vec::with_capacity(ncols * gids.len());
                for col in cols {
                    assert_eq!(col.len(), map.n(), "column length mismatch");
                    l.extend(gids.iter().map(|&g| col[g as usize]));
                }
                l
            })
            .collect();
        DistMultiVector { map, ncols, locals }
    }

    /// Column `c` of rank `r` as a slice.
    #[inline]
    pub fn col(&self, r: usize, c: usize) -> &[f64] {
        let nl = self.map.nlocal(r);
        &self.locals[r][c * nl..(c + 1) * nl]
    }

    /// Mutable column.
    #[inline]
    pub fn col_mut(&mut self, r: usize, c: usize) -> &mut [f64] {
        let nl = self.map.nlocal(r);
        &mut self.locals[r][c * nl..(c + 1) * nl]
    }

    /// Gathers column `c` back to a global dense vector.
    pub fn col_to_global(&self, c: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.map.n()];
        for r in 0..self.map.nprocs() {
            for (lid, &g) in self.map.gids(r).iter().enumerate() {
                out[g as usize] = self.col(r, c)[lid];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_partition::MatrixDist;
    use sf2d_sim::Machine;

    fn map_and_ledger(n: usize, p: usize) -> (Arc<VectorMap>, CostLedger) {
        let d = MatrixDist::random_1d(n, p, 3);
        (
            Arc::new(VectorMap::from_dist(&d)),
            CostLedger::new(Machine::cab()),
        )
    }

    #[test]
    fn global_roundtrip() {
        let (map, _) = map_and_ledger(10, 3);
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let v = DistVector::from_global(Arc::clone(&map), &x);
        assert_eq!(v.to_global(), x);
    }

    #[test]
    fn dot_matches_sequential() {
        let (map, mut ledger) = map_and_ledger(50, 4);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let vx = DistVector::from_global(Arc::clone(&map), &x);
        let vy = DistVector::from_global(Arc::clone(&map), &y);
        let want: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = vx.dot(&vy, &mut ledger);
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
        assert!(ledger.total > 0.0);
    }

    #[test]
    fn axpy_and_scale_match_sequential() {
        let (map, mut ledger) = map_and_ledger(20, 5);
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut v = DistVector::from_global(Arc::clone(&map), &x);
        let w = DistVector::from_global(Arc::clone(&map), &[1.0; 20]);
        v.axpy(2.0, &w, &mut ledger);
        v.scale(0.5, &mut ledger);
        let got = v.to_global();
        for (i, g) in got.iter().enumerate() {
            assert!((g - (i as f64 + 2.0) * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn random_vector_is_distribution_invariant() {
        // Same seed, different layouts -> same global vector.
        let d1 = MatrixDist::block_1d(30, 3);
        let d2 = MatrixDist::random_1d(30, 5, 9);
        let v1 = DistVector::random(Arc::new(VectorMap::from_dist(&d1)), 42);
        let v2 = DistVector::random(Arc::new(VectorMap::from_dist(&d2)), 42);
        assert_eq!(v1.to_global(), v2.to_global());
    }

    #[test]
    fn vector_imbalance_shows_in_cost() {
        // All entries on rank 0 vs spread evenly: same op, higher cost.
        let skew = MatrixDist::from_partition_1d(&sf2d_partition::Partition::new(vec![0; 1000], 4));
        let even = MatrixDist::block_1d(1000, 4);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut l2 = CostLedger::new(Machine::cab());
        let mut v1 = DistVector::zeros(Arc::new(VectorMap::from_dist(&skew)));
        let mut v2 = DistVector::zeros(Arc::new(VectorMap::from_dist(&even)));
        let w1 = v1.clone();
        let w2 = v2.clone();
        v1.axpy(1.0, &w1, &mut l1);
        v2.axpy(1.0, &w2, &mut l2);
        assert!(l1.total > 3.0 * l2.total, "{} vs {}", l1.total, l2.total);
    }
}
