//! The SpGEMM workspaces hold only what one step of a product reads: the
//! expand/fold workspace one wave of fold groups' partial rows plus one
//! accumulator per thread, the SUMMA workspace its blocks and merged chunk
//! rows but no stage's whole product, neither a copy of the output. And a
//! product allocates no more than before the partial rows were bounded.
//!
//! The counting allocator is installed for this test binary only, and the
//! binary holds one test, so no other test's allocations land in the
//! counts.

use sf2d_gen::{rmat, RmatConfig};
use sf2d_graph::{CsrMatrix, Graph};
use sf2d_obs::mem::{snapshot, CountingAlloc};
use sf2d_partition::{grid_shape, partition_graph, GpConfig, MatrixDist};
use sf2d_sim::cost::CostLedger;
use sf2d_sim::Machine;
use sf2d_spgemm::{spgemm_with, summa_with, SpgemmWorkspace, SummaWorkspace};
use sf2d_spmv::DistCsrMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one steady-state product on this shape before the
/// partial rows were bounded (both kernels on a sequential workspace).
const OLD_ALLOCS_EF: u64 = 208;
const OLD_ALLOCS_SUMMA: u64 = 283;

/// Bytes of one accumulator over `ncols` columns: values, stamps, the
/// touched list at its largest, and the bitmap.
fn spa_bytes(ncols: usize) -> u64 {
    (ncols * (8 + 4 + 4) + ncols.div_ceil(64) * 8) as u64
}

/// The fold groups of `dm`: ranks joined by every fold message, found
/// with a union-find over each owner's unpack sources.
fn fold_groups(dm: &DistCsrMatrix) -> Vec<Vec<usize>> {
    let p = dm.nprocs();
    let mut root: Vec<usize> = (0..p).collect();
    fn find(root: &mut [usize], x: usize) -> usize {
        if root[x] != x {
            root[x] = find(root, root[x]);
        }
        root[x]
    }
    for d in 0..p {
        for (src, ..) in dm.compiled.fold_rank(d).unpacks() {
            let (a, b) = (find(&mut root, d), find(&mut root, src as usize));
            root[a] = b;
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); p];
    for r in 0..p {
        let g = find(&mut root, r);
        groups[g].push(r);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Bytes of rank `r`'s partial C rows at their length: a row end per
/// stored row of its A block plus one column and one value per entry of
/// that row of `A_r · B`.
fn partial_bytes(dm: &DistCsrMatrix, b: &CsrMatrix, r: usize, seen: &mut [usize]) -> u64 {
    let block = &dm.blocks[r];
    let mut entries = 0;
    for (s, (acols, _)) in block.stored_rows().enumerate() {
        for &lj in acols {
            for &k in b.row(block.colmap[lj as usize] as usize).0 {
                if seen[k as usize] != s + 1 {
                    seen[k as usize] = s + 1;
                    entries += 1;
                }
            }
        }
    }
    seen.fill(0);
    (8 * (block.rowmap.len() + 1) + 12 * entries) as u64
}

#[test]
fn spgemm_workspaces_hold_only_what_one_step_reads() {
    let a = rmat(&RmatConfig::graph500(10), 7);
    let b = a.transpose();
    let (p, ncols) = (64, b.ncols());
    let (pr, pc) = grid_shape(p);
    let part = partition_graph(&Graph::from_symmetric_matrix(&a), p, &GpConfig::default());
    let dist = MatrixDist::cartesian_2d(&part, pr, pc, false);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let ledger = || CostLedger::new(Machine::cab());

    // Each workspace's second product, so the first one's growth is
    // behind it.
    let mut ef = SpgemmWorkspace::new();
    let mut summa = SummaWorkspace::new();
    spgemm_with(&dm, &b, &mut ledger(), &mut ef);
    summa_with(&dm, &dist, &b, &mut ledger(), &mut summa);
    let s0 = snapshot();
    let c = spgemm_with(&dm, &b, &mut ledger(), &mut ef);
    let s1 = snapshot();
    let c_summa = summa_with(&dm, &dist, &b, &mut ledger(), &mut summa);
    let s2 = snapshot();
    assert_eq!(c.locals, c_summa.locals);

    // Expand/fold: the partial rows of the largest fold group, each grown
    // by Vec's doubling at most, plus one accumulator, the merge lists of
    // the largest owner, and a few words per rank of bookkeeping.
    let groups = fold_groups(&dm);
    assert!(groups.len() > 1, "2D-GP at p = 64 folds within grid rows");
    let mut seen = vec![0; ncols];
    let group_bytes = |g: &Vec<usize>| -> u64 {
        g.iter()
            .map(|&r| partial_bytes(&dm, &b, r, &mut seen))
            .sum()
    };
    let largest_group = groups.iter().map(group_bytes).max().unwrap();
    let merge_lists = (0..p)
        .map(|r| 4 * dm.vmap.nlocal(r) + 12 * dm.compiled.fold.unpack_entries(r).len())
        .max()
        .unwrap() as u64;
    let ef_bound = 2 * largest_group + spa_bytes(ncols) + 2 * merge_lists + 256 * p as u64;
    let ef_bytes = ef.resident_bytes();
    assert!(
        ef_bytes <= ef_bound,
        "expand/fold holds {ef_bytes} B, above one fold group's partial rows ({ef_bound} B)"
    );

    // SUMMA: every entry of A and of B once in the stage blocks (grown by
    // doubling at most), every entry of C once in the merged chunk rows
    // (kept at their length; at most one row per row of C and stage), a
    // gather key per block row or merged row, one accumulator with one row
    // per stage, and bookkeeping — no stage's whole product.
    let (nnz_a, nnz_b, nnz_c) = (a.nnz() as u64, b.nnz() as u64, c.nnz);
    let (gc, n) = (pc as u64, a.nrows() as u64);
    let blocks = 2 * 24 * (nnz_a + nnz_b);
    let merged = 12 * nnz_c + 12 * n * gc + 8 * p as u64;
    let keys = 2 * 12 * (nnz_a + nnz_b + n * gc);
    let worker = spa_bytes(ncols) + 2 * 12 * gc * ncols as u64;
    let summa_bound = blocks + merged + keys + worker + 256 * p as u64;
    let summa_bytes = summa.resident_bytes();
    assert!(
        summa_bytes <= summa_bound,
        "SUMMA holds {summa_bytes} B, above its blocks and merged rows ({summa_bound} B)"
    );

    // Allocations: none more than before.
    let (allocs_ef, allocs_summa) = (s1.allocs - s0.allocs, s2.allocs - s1.allocs);
    eprintln!(
        "expand/fold {ef_bytes} of {ef_bound} B, {allocs_ef} allocations; \
         SUMMA {summa_bytes} of {summa_bound} B, {allocs_summa} allocations"
    );
    assert!(
        allocs_ef <= OLD_ALLOCS_EF,
        "expand/fold: {allocs_ef} allocations"
    );
    assert!(
        allocs_summa <= OLD_ALLOCS_SUMMA,
        "SUMMA: {allocs_summa} allocations"
    );
}
