//! R-MAT recursive matrix generator (Chakrabarti, Zhan, Faloutsos \[16\]).
//!
//! Each edge is placed by recursively descending `scale` levels of a 2x2
//! quadrant split with probabilities `(a, b, c, d)`. The paper's
//! `rmat_22/24/26` matrices use the Graph500 benchmark parameters
//! `a = 0.57, b = c = 0.19, d = 0.05` with average degree held constant so
//! nnz grows ~4x per two scale steps — our [`RmatConfig::graph500`] mirrors
//! that setup.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sf2d_graph::{CooMatrix, CsrMatrix, Vtx};

/// Parameters for the R-MAT generator.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Directed edges generated = `edge_factor << scale`.
    pub edge_factor: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Per-level multiplicative noise on the quadrant probabilities
    /// (0.0 = classic R-MAT; Graph500 uses a small perturbation to avoid
    /// exactly self-similar structure). Range `[0, 1)`.
    pub noise: f64,
}

impl RmatConfig {
    /// Graph500 parameters at the given scale: `a=0.57, b=c=0.19, d=0.05`,
    /// edge factor 16 — exactly the setting cited in the paper's Table 1.
    pub fn graph500(scale: u32) -> RmatConfig {
        RmatConfig {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }

    /// Implied probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) {
        assert!(self.scale <= 31, "scale too large for u32 vertex ids");
        let d = self.d();
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && d >= -1e-12,
            "quadrant probabilities must be non-negative"
        );
        assert!((0.0..1.0).contains(&self.noise), "noise must be in [0, 1)");
    }
}

/// Generates a symmetric R-MAT adjacency matrix.
///
/// Directed R-MAT edges are generated, self-loops dropped, then the pattern
/// is symmetrized (`A + Aᵀ` with unit values, duplicates collapsed) —
/// matching the paper's preprocessing of unsymmetric inputs.
pub fn rmat(cfg: &RmatConfig, seed: u64) -> CsrMatrix {
    cfg.validate();
    let n = 1usize << cfg.scale;
    let m = cfg.edge_factor << cfg.scale;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 2 * m);
    for _ in 0..m {
        let (u, v) = rmat_edge(cfg, &mut rng);
        if u != v {
            coo.push_sym(u, v, 1.0);
        }
    }
    let mut a = CsrMatrix::from_coo(&coo);
    // Collapse multi-edges to unit weight: partitioners care about the
    // pattern, and Graph500 deduplicates too. `from_coo` already merged
    // the duplicates, so only the summed values are left to reset.
    a.values_mut().fill(1.0);
    a
}

/// Draws one directed R-MAT edge.
fn rmat_edge<R: Rng + ?Sized>(cfg: &RmatConfig, rng: &mut R) -> (Vtx, Vtx) {
    let (mut a, mut b, mut c) = (cfg.a, cfg.b, cfg.c);
    let mut row = 0 as Vtx;
    let mut col = 0 as Vtx;
    for level in 0..cfg.scale {
        let bit = 1 << (cfg.scale - 1 - level);
        let r: f64 = rng.gen();
        if r < a {
            // top-left: nothing set
        } else if r < a + b {
            col |= bit;
        } else if r < a + b + c {
            row |= bit;
        } else {
            row |= bit;
            col |= bit;
        }
        if cfg.noise > 0.0 {
            // Graph500-style per-level noise keeps hubs from being perfectly
            // nested; renormalize so probabilities stay a distribution.
            let mu = |rng: &mut R| 1.0 + cfg.noise * (rng.gen::<f64>() - 0.5);
            let (na, nb, nc, nd) = (
                a * mu(rng),
                b * mu(rng),
                c * mu(rng),
                (1.0 - a - b - c) * mu(rng),
            );
            let s = na + nb + nc + nd;
            a = na / s;
            b = nb / s;
            c = nc / s;
        }
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_graph::stats::{looks_scale_free, DegreeStats};

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::graph500(8);
        let a = rmat(&cfg, 42);
        let b = rmat(&cfg, 42);
        assert_eq!(a, b);
        let c = rmat(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn dimensions_and_symmetry() {
        let cfg = RmatConfig::graph500(8);
        let a = rmat(&cfg, 1);
        assert_eq!(a.nrows(), 256);
        assert!(a.is_structurally_symmetric());
        // No self loops.
        for i in 0..a.nrows() {
            assert_eq!(a.get(i, i as u32), None);
        }
    }

    #[test]
    fn graph500_parameters_give_skewed_degrees() {
        let a = rmat(&RmatConfig::graph500(10), 7);
        assert!(looks_scale_free(&a), "stats: {:?}", DegreeStats::of(&a));
    }

    #[test]
    fn uniform_quadrants_give_er_like_graph() {
        // a=b=c=d=0.25 degenerates to (near) Erdős–Rényi: low skew.
        let cfg = RmatConfig {
            scale: 10,
            edge_factor: 8,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            noise: 0.0,
        };
        let a = rmat(&cfg, 9);
        let s = DegreeStats::of(&a);
        assert!(s.skew < 4.0, "skew {}", s.skew);
    }

    #[test]
    fn nnz_scales_roughly_4x_per_two_scales() {
        // The paper's weak-scaling setup: rmat_k and rmat_{k+2} differ ~4x.
        let a = rmat(&RmatConfig::graph500(8), 3);
        let b = rmat(&RmatConfig::graph500(10), 3);
        let ratio = b.nnz() as f64 / a.nnz() as f64;
        // Duplicate collapse bites harder at small scales, so the realized
        // ratio drifts above the nominal 4x; accept a generous band.
        assert!(ratio > 2.8 && ratio < 5.6, "ratio {ratio}");
    }

    #[test]
    fn values_are_unit() {
        let a = rmat(&RmatConfig::graph500(6), 5);
        assert!(a.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_probabilities_rejected() {
        let cfg = RmatConfig {
            scale: 4,
            edge_factor: 4,
            a: 0.9,
            b: 0.2,
            c: 0.2,
            noise: 0.0,
        };
        rmat(&cfg, 0);
    }
}
