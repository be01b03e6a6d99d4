//! Block classical Gram–Schmidt with reorthogonalization (CGS2).
//!
//! Orthogonalization is the dominant non-SpMV cost in the paper's
//! eigensolver runs (Table 5's vector-imbalance story), so it is modelled
//! faithfully: coefficients against the whole basis are computed with *one*
//! batched allreduce per pass (as Anasazi does), two passes ("twice is
//! enough", Kahan/Parlett), costs charged per rank.
//!
//! On the host the two passes are **three sweeps**, each visiting a rank's
//! slab of the basis once: **A** the pass-1 coefficients `c = Vᵀw`; **B**,
//! per rank, `w −= V c` and then the pass-2 coefficients of the updated
//! `w` while the slab is still in cache (ranks are independent within a
//! pass, so fusing changes no value); **C** `w −= V c′`. A sweep takes the
//! basis [`BLOCK`] columns at a time: a block of dots is `BLOCK`
//! independent FP-add chains where a column at a time is one, bound by
//! add latency, and a block update loads and stores `w` once per block,
//! not once per column.
//!
//! No sum is reordered. A coefficient is still its local products added
//! in ascending lid order from what `Iterator::sum` starts from, then
//! those partials added in rank order from `0.0`
//! ([`allreduce_sum_vec`](sf2d_sim::collective::allreduce_sum_vec)'s
//! order); an entry of `w` still has the columns subtracted from it in
//! ascending index. So `w`, the norm and the ledger's six supersteps are
//! bit for bit what a column at a time gives — the loops
//! `tests/proptest_solvers.rs` keeps as the oracle.

use sf2d_obs::{trace_span, PhaseKind};
use sf2d_sim::collective::allreduce_cost;
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_spmv::DistVector;

/// Basis columns per kernel call: enough independent add chains to cover
/// the add latency, few enough that the accumulators stay in registers.
const BLOCK: usize = 8;

/// Scratch of one solve: what [`cgs2_with`] and the restart rotation
/// would otherwise allocate on every call.
#[derive(Default)]
pub(crate) struct Workspace {
    /// `cgs2`: both passes' coefficients. Rotation: negated Ritz columns.
    pub(crate) coefs: Vec<f64>,
    /// Per-rank cost of the vector superstep being charged.
    pub(crate) costs: Vec<PhaseCost>,
    /// One rank's rotated columns, before they overwrite the basis.
    pub(crate) rotated: Vec<f64>,
}

/// Orthogonalizes `w` against `basis` (assumed orthonormal) in place with
/// two CGS passes. Returns the norm of `w` after orthogonalization (not
/// normalized — caller decides how to handle near-breakdown).
pub fn cgs2(w: &mut DistVector, basis: &[DistVector], ledger: &mut CostLedger) -> f64 {
    cgs2_with(&mut Workspace::default(), w, basis, ledger)
}

/// [`cgs2`] on a caller-owned [`Workspace`].
pub(crate) fn cgs2_with(
    ws: &mut Workspace,
    w: &mut DistVector,
    basis: &[DistVector],
    ledger: &mut CostLedger,
) -> f64 {
    trace_span!(PhaseKind::VectorOp, "eigen:cgs2", {
        three_sweeps(ws, w, basis, ledger);
        w.norm2(ledger)
    })
}

fn three_sweeps(
    ws: &mut Workspace,
    w: &mut DistVector,
    basis: &[DistVector],
    ledger: &mut CostLedger,
) {
    if basis.is_empty() {
        return;
    }
    let (p, nb) = (w.map.nprocs(), basis.len());
    // Dots and updates both cost 2 flops per basis column per local entry.
    ws.costs.clear();
    ws.costs.extend(
        w.locals
            .iter()
            .map(|wl| PhaseCost::compute(2 * (nb * wl.len()) as u64)),
    );
    let allreduce = allreduce_cost(p, nb);
    // Adding rank r's partials as rank r is swept is the rank-order sum.
    ws.coefs.clear();
    ws.coefs.resize(2 * nb, 0.0);
    let (pass1, pass2) = ws.coefs.split_at_mut(nb);

    for (r, wl) in w.locals.iter().enumerate() {
        add_dots(basis, r, wl, pass1);
    }
    ledger.superstep(Phase::VectorOp, &ws.costs);
    ledger.superstep_uniform(Phase::Collective, allreduce, p);

    for (r, wl) in w.locals.iter_mut().enumerate() {
        subtract_columns(basis, r, pass1, wl);
        add_dots(basis, r, wl, pass2);
    }
    ledger.superstep(Phase::VectorOp, &ws.costs);
    ledger.superstep(Phase::VectorOp, &ws.costs);
    ledger.superstep_uniform(Phase::Collective, allreduce, p);

    for (r, wl) in w.locals.iter_mut().enumerate() {
        subtract_columns(basis, r, pass2, wl);
    }
    ledger.superstep(Phase::VectorOp, &ws.costs);
}

/// `coefs[k] += ⟨basis[k], w⟩` over rank `r`'s entries.
fn add_dots(basis: &[DistVector], r: usize, w: &[f64], coefs: &mut [f64]) {
    let (blocks, tail) = basis.split_at(basis.len() / BLOCK * BLOCK);
    let (block_coefs, tail_coefs) = coefs.split_at_mut(blocks.len());
    for (blk, out) in blocks.chunks(BLOCK).zip(block_coefs.chunks_mut(BLOCK)) {
        dot_block::<BLOCK>(blk, r, w, out);
    }
    for (v, out) in tail.chunks(1).zip(tail_coefs.chunks_mut(1)) {
        dot_block::<1>(v, r, w, out);
    }
}

/// `w −= Σ_k coefs[k] · basis[k]` over rank `r`'s entries, `k` ascending
/// per entry.
pub(crate) fn subtract_columns(basis: &[DistVector], r: usize, coefs: &[f64], w: &mut [f64]) {
    let (blocks, tail) = basis.split_at(basis.len() / BLOCK * BLOCK);
    let (block_coefs, tail_coefs) = coefs.split_at(blocks.len());
    for (blk, c) in blocks.chunks(BLOCK).zip(block_coefs.chunks(BLOCK)) {
        subtract_block::<BLOCK>(blk, r, c, w);
    }
    for (v, c) in tail.chunks(1).zip(tail_coefs.chunks(1)) {
        subtract_block::<1>(v, r, c, w);
    }
}

fn dot_block<const N: usize>(blk: &[DistVector], r: usize, w: &[f64], out: &mut [f64]) {
    // Cut to `w`'s length here, the columns are indexed unchecked below.
    let cols: [&[f64]; N] = std::array::from_fn(|k| &blk[k].locals[r][..w.len()]);
    // What `.sum()` starts from (−0.0 on the pinned toolchain), so a
    // partial is the `.sum()` it replaces down to the sign of a zero.
    let mut acc = [std::iter::empty::<f64>().sum::<f64>(); N];
    for (i, &x) in w.iter().enumerate() {
        for k in 0..N {
            acc[k] += cols[k][i] * x;
        }
    }
    for k in 0..N {
        out[k] += acc[k];
    }
}

fn subtract_block<const N: usize>(blk: &[DistVector], r: usize, coefs: &[f64], w: &mut [f64]) {
    let n = w.len();
    let cols: [&[f64]; N] = std::array::from_fn(|k| &blk[k].locals[r][..n]);
    let coefs: [f64; N] = std::array::from_fn(|k| coefs[k]);
    for (i, x) in w.iter_mut().enumerate() {
        let mut acc = *x;
        for k in 0..N {
            acc -= coefs[k] * cols[k][i];
        }
        *x = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sf2d_partition::MatrixDist;
    use sf2d_sim::{CostLedger, Machine};
    use sf2d_spmv::VectorMap;

    fn setup(n: usize, p: usize) -> (Arc<VectorMap>, CostLedger) {
        let d = MatrixDist::random_1d(n, p, 1);
        (
            Arc::new(VectorMap::from_dist(&d)),
            CostLedger::new(Machine::cab()),
        )
    }

    #[test]
    fn orthogonalizes_against_basis() {
        let (map, mut ledger) = setup(40, 3);
        // Basis: two orthonormal indicator-ish vectors.
        let mut e1g = vec![0.0; 40];
        e1g[0] = 1.0;
        let mut e2g = vec![0.0; 40];
        e2g[1] = 1.0;
        let basis = vec![
            DistVector::from_global(Arc::clone(&map), &e1g),
            DistVector::from_global(Arc::clone(&map), &e2g),
        ];
        let mut w = DistVector::from_global(Arc::clone(&map), &vec![1.0; 40]);
        let norm = cgs2(&mut w, &basis, &mut ledger);
        let g = w.to_global();
        assert!(g[0].abs() < 1e-12 && g[1].abs() < 1e-12, "{:?}", &g[..3]);
        assert!((norm - (38.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_basis_returns_norm() {
        let (map, mut ledger) = setup(9, 2);
        let mut w = DistVector::from_global(Arc::clone(&map), &[2.0; 9]);
        let norm = cgs2(&mut w, &[], &mut ledger);
        assert!((norm - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reorthogonalization_achieves_machine_precision() {
        // Nearly-parallel challenge: w almost in the span of the basis.
        let (map, mut ledger) = setup(30, 4);
        let v_g: Vec<f64> = (0..30).map(|i| ((i + 1) as f64).sqrt()).collect();
        let norm_v: f64 = v_g.iter().map(|x| x * x).sum::<f64>().sqrt();
        let v_unit: Vec<f64> = v_g.iter().map(|x| x / norm_v).collect();
        let basis = vec![DistVector::from_global(Arc::clone(&map), &v_unit)];
        // w = v + tiny perturbation.
        let w_g: Vec<f64> = v_unit
            .iter()
            .enumerate()
            .map(|(i, x)| x + 1e-9 * ((i % 3) as f64 - 1.0))
            .collect();
        let mut w = DistVector::from_global(Arc::clone(&map), &w_g);
        cgs2(&mut w, &basis, &mut ledger);
        // <w, v> must be at machine-epsilon level relative to ||w||.
        let wg = w.to_global();
        let dot: f64 = wg.iter().zip(&v_unit).map(|(a, b)| a * b).sum();
        let wnorm: f64 = wg.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            dot.abs() < 1e-12 * wnorm.max(1e-300),
            "dot {dot}, norm {wnorm}"
        );
    }

    #[test]
    fn charges_collectives() {
        let (map, mut ledger) = setup(16, 4);
        let ones = DistVector::from_global(Arc::clone(&map), &[0.25; 16]);
        let mut w = DistVector::random(Arc::clone(&map), 5);
        cgs2(&mut w, &[ones], &mut ledger);
        assert!(ledger.by_phase[&Phase::Collective] > 0.0);
        assert!(ledger.by_phase[&Phase::VectorOp] > 0.0);
    }
}
