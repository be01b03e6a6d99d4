//! FillComplete keeps only what a product reads: after
//! `DistCsrMatrix::from_global` the live heap holds the blocks, the
//! vector map and the compiled plan (`plan_bytes`), and nothing
//! plan-sized besides — no gid-level Import/Export plans, no expand
//! receive lists. And it gets there in a number of allocations bounded by
//! a small multiple of p, whatever the message count.
//!
//! The counting allocator is installed for this test binary only, and the
//! binary holds one test, so no other test's allocations land in the
//! counts.

use std::mem::size_of;

use sf2d_gen::{rmat, RmatConfig};
use sf2d_obs::mem::{snapshot, CountingAlloc};
use sf2d_partition::MatrixDist;
use sf2d_spmv::{DistCsrMatrix, RankBlock, VectorMap};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The heap a built matrix needs, counted from what it holds: per block
/// the row map, column map and stored-row table (`u32` each), the local
/// CSR (`usize` row pointers, `u32` columns, `f64` values); the block
/// array; the vector map's owner, lid and gid tables (`u32` per entry),
/// the `Vec` headers of its per-rank gid lists, its `p + 1` offsets and
/// its `Arc`; and the compiled plan.
fn held_bytes(dm: &DistCsrMatrix) -> usize {
    let block = |b: &RankBlock| {
        let rows = b.rowmap.len();
        4 * (2 * rows + b.colmap.len()) + 8 * (rows + 1) + 12 * b.nnz()
    };
    let blocks: usize = dm.blocks.iter().map(block).sum();
    let p = dm.nprocs();
    let headers = p * size_of::<Vec<u32>>();
    let vmap = 12 * dm.n + headers + 8 * (p + 1) + 2 * size_of::<usize>() + size_of::<VectorMap>();
    blocks + p * size_of::<RankBlock>() + vmap + dm.compiled.plan_bytes() as usize
}

#[test]
fn fill_complete_holds_the_blocks_the_map_and_the_plan_only() {
    // The hypersparse 1D regime: ~4 rows per rank, so most messages carry
    // one value and there are many more messages than ranks.
    let a = rmat(&RmatConfig::graph500(12), 3);
    let p = 1024;
    let dist = MatrixDist::random_1d(a.nrows(), p, 5);

    let before = snapshot();
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let after = snapshot();
    let msgs: usize = (0..p).map(|r| dm.compiled.expand_rank(r).npacks()).sum();
    assert!(
        msgs > 50 * p,
        "{msgs} messages: not the many-message regime"
    );

    // Resident: exactly what the matrix holds. Every list is allocated
    // at its final length, so no capacity slack is allowed; the one
    // per-rank allowance is the `Vec` headers of the map's gid lists,
    // counted above, and the stated slack beyond that is zero.
    let resident = (after.live_bytes - before.live_bytes) as usize;
    assert_eq!(
        resident,
        held_bytes(&dm),
        "FillComplete left more live than the blocks, the map and the plan"
    );

    // Allocations: a few per rank, not per message.
    let allocs = (after.allocs - before.allocs) as usize;
    assert!(
        allocs <= 24 * p,
        "FillComplete made {allocs} allocations at p = {p} ({msgs} messages)"
    );

    drop(dm);
    assert_eq!(snapshot().live_bytes, before.live_bytes, "the matrix leaks");
}
