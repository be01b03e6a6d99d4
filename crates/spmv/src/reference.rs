//! Gid-based reference executors for SpMV/SpMM — the oracle for the
//! compiled fast path.
//!
//! These are the original straightforward implementations: each call
//! builds its gid plans from the maps alone ([`gid_plans`]), every column
//! entry resolves `owner(gid)` / `lid(gid)` through the [`VectorMap`],
//! remote values travel as `(gid, value)` pairs, and the fold goes
//! through [`CommPlan::execute_scatter_add`]'s hash lookup. Slow but
//! obviously correct — the compiled path in [`spmv`](crate::spmv::spmv) /
//! [`spmm`](crate::spmv::spmm) must produce **bit-identical** vectors and
//! byte-identical [`CostLedger`] charges (property-tested in
//! `spmv.rs`).
//!
//! [`VectorMap`]: crate::map::VectorMap
//! [`CommPlan::execute_scatter_add`]: crate::plan::CommPlan::execute_scatter_add
//! [`CostLedger`]: sf2d_sim::cost::CostLedger

use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};

use crate::distmat::{DistCsrMatrix, RankBlock};
use crate::multivec::{DistMultiVector, DistVector};
use crate::plan::CommPlan;

/// The gid-level Import (expand) and Export (fold) plans of `a`, built on
/// demand: rank `r` imports the x entries of its column map it does not
/// own and exports the partial y rows of its row map it does not own.
pub fn gid_plans(a: &DistCsrMatrix) -> (CommPlan, CommPlan) {
    let (mut cols, mut rows) = (Vec::new(), Vec::new());
    for (r, b) in a.blocks.iter().enumerate() {
        let theirs = |ids: &[u32]| -> Vec<u32> {
            (ids.iter().copied())
                .filter(|&g| a.vmap.owner(g) != r as u32)
                .collect()
        };
        cols.push(theirs(&b.colmap));
        rows.push(theirs(&b.rowmap));
    }
    (
        CommPlan::gather(&cols, &a.vmap),
        CommPlan::gather(&rows, &a.vmap),
    )
}

/// `A_loc · xcols` indexed by **row-map position**: every row read
/// through [`RankBlock::row`] and summed by the plain ascending-column
/// loop of `CsrMatrix::spmv_dense_into` — the oracle for
/// [`RankBlock::multiply`], sharing neither its row order nor its
/// kernel.
pub(crate) fn local_product(block: &RankBlock, xcols: &[f64]) -> Vec<f64> {
    (0..block.rowmap.len())
        .map(|li| {
            let (cols, vals) = block.row(li);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * xcols[c as usize];
            }
            acc
        })
        .collect()
}

/// Reference `y = A x`: identical contract and cost accounting to
/// [`spmv`](crate::spmv::spmv), executed entirely through gid lookups.
pub fn spmv_ref(a: &DistCsrMatrix, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
    let p = a.nprocs();
    assert!(
        std::sync::Arc::ptr_eq(&x.map, &a.vmap) || x.map.same_distribution(&a.vmap),
        "x map mismatch"
    );
    assert!(
        std::sync::Arc::ptr_eq(&y.map, &a.vmap) || y.map.same_distribution(&a.vmap),
        "y map mismatch"
    );

    // Phase 1 — expand. Remote x values arrive as (gid, value) pairs.
    let (import, export) = gid_plans(a);
    let imported = import.execute_gather(&a.vmap, &x.locals);
    ledger.superstep(Phase::Expand, &import.phase_costs());

    // Phase 2 — local compute: y_loc = A_loc * x_cols.
    let mut partials: Vec<Vec<f64>> = Vec::with_capacity(p);
    let mut compute_costs = Vec::with_capacity(p);
    for r in 0..p {
        let block = &a.blocks[r];
        // Assemble the column-aligned x buffer: owned entries from the local
        // slice, remote entries from the import.
        let mut xcols = vec![0.0; block.colmap.len()];
        for (lid, &g) in block.colmap.iter().enumerate() {
            if a.vmap.owner(g) == r as u32 {
                xcols[lid] = x.locals[r][a.vmap.lid(g)];
            }
        }
        for &(g, v) in &imported[r] {
            xcols[block.col_lid(g)] = v;
        }
        partials.push(local_product(block, &xcols));
        compute_costs.push(PhaseCost::compute(2 * block.nnz() as u64));
    }
    ledger.superstep(Phase::LocalCompute, &compute_costs);

    // Phase 3 — fold: ship partial sums for rows we don't own; phase 4 —
    // sum: owners accumulate. Owned rows are added locally first.
    for l in &mut y.locals {
        l.fill(0.0);
    }
    let mut contributions: Vec<Vec<(u32, f64)>> = vec![Vec::new(); p];
    let mut sum_costs = vec![PhaseCost::default(); p];
    for r in 0..p {
        let block = &a.blocks[r];
        for (li, &g) in block.rowmap.iter().enumerate() {
            if a.vmap.owner(g) == r as u32 {
                y.locals[r][a.vmap.lid(g)] += partials[r][li];
                sum_costs[r].flops += 1;
            } else {
                contributions[r].push((g, partials[r][li]));
            }
        }
    }
    ledger.superstep(Phase::Fold, &export.phase_costs());
    export.execute_scatter_add(&a.vmap, &contributions, &mut y.locals);
    // Charge the receive-side additions of the fold.
    for r in 0..p {
        let received: u64 = export.sends[r].iter().map(|(_, g)| g.len() as u64).sum();
        sum_costs[r].flops += received;
    }
    ledger.superstep(Phase::Sum, &sum_costs);
}

/// Reference `Y = A X` executing the gather plan once **per column**:
/// identical cost accounting to [`spmm`](crate::spmv::spmm) (msgs ×1,
/// bytes × ncols charged once per phase).
pub fn spmm_ref(
    a: &DistCsrMatrix,
    x: &DistMultiVector,
    y: &mut DistMultiVector,
    ledger: &mut CostLedger,
) {
    assert_eq!(x.ncols, y.ncols, "column count mismatch");
    let p = a.nprocs();
    let m = x.ncols;

    // Expand: one plan execution per column moves the same gids; charge a
    // single superstep with ncols-wide payloads.
    let (import, export) = gid_plans(a);
    let mut imported: Vec<Vec<Vec<(u32, f64)>>> = Vec::with_capacity(m);
    for c in 0..m {
        let col_locals: Vec<Vec<f64>> = (0..p).map(|r| x.col(r, c).to_vec()).collect();
        imported.push(import.execute_gather(&a.vmap, &col_locals));
    }
    let widened: Vec<PhaseCost> = import
        .phase_costs()
        .into_iter()
        .map(|c| PhaseCost {
            msgs: c.msgs,
            bytes: c.bytes * m as u64,
            flops: 0,
        })
        .collect();
    ledger.superstep(Phase::Expand, &widened);

    // Local compute per column.
    let mut partials: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(p); m];
    let mut compute_costs = vec![PhaseCost::default(); p];
    for r in 0..p {
        let block = &a.blocks[r];
        for (c, import_c) in imported.iter().enumerate() {
            let mut xcols = vec![0.0; block.colmap.len()];
            for (lid, &g) in block.colmap.iter().enumerate() {
                if a.vmap.owner(g) == r as u32 {
                    xcols[lid] = x.col(r, c)[a.vmap.lid(g)];
                }
            }
            for &(g, v) in &import_c[r] {
                xcols[block.col_lid(g)] = v;
            }
            partials[c].push(local_product(block, &xcols));
        }
        compute_costs[r].flops += 2 * (m * block.nnz()) as u64;
    }
    ledger.superstep(Phase::LocalCompute, &compute_costs);

    // Fold + sum per column, widened fold costs charged once.
    for l in &mut y.locals {
        l.fill(0.0);
    }
    let mut sum_costs = vec![PhaseCost::default(); p];
    let widened: Vec<PhaseCost> = export
        .phase_costs()
        .into_iter()
        .map(|c| PhaseCost {
            msgs: c.msgs,
            bytes: c.bytes * m as u64,
            flops: 0,
        })
        .collect();
    ledger.superstep(Phase::Fold, &widened);
    for (c, partial_c) in partials.iter().enumerate() {
        let mut contributions: Vec<Vec<(u32, f64)>> = vec![Vec::new(); p];
        for r in 0..p {
            let block = &a.blocks[r];
            for (li, &g) in block.rowmap.iter().enumerate() {
                if a.vmap.owner(g) == r as u32 {
                    let lid = a.vmap.lid(g);
                    y.col_mut(r, c)[lid] += partial_c[r][li];
                    sum_costs[r].flops += 1;
                } else {
                    contributions[r].push((g, partial_c[r][li]));
                }
            }
        }
        // Scatter-add into a per-column view, then write back.
        let mut col_locals: Vec<Vec<f64>> = (0..p).map(|r| y.col(r, c).to_vec()).collect();
        export.execute_scatter_add(&a.vmap, &contributions, &mut col_locals);
        for r in 0..p {
            y.col_mut(r, c).copy_from_slice(&col_locals[r]);
        }
    }
    for r in 0..p {
        let received: u64 = export.sends[r].iter().map(|(_, g)| g.len() as u64).sum();
        sum_costs[r].flops += m as u64 * received;
    }
    ledger.superstep(Phase::Sum, &sum_costs);
}
