//! `DistVector::dot` and `norm2` allocate nothing: an eigensolve calls
//! them thousands of times. The counting allocator is installed for this
//! test binary only, and the binary holds one test, so no other test's
//! allocations land in the count.

use std::hint::black_box;
use std::sync::Arc;

use sf2d_obs::mem::{snapshot, CountingAlloc};
use sf2d_partition::MatrixDist;
use sf2d_sim::{CostLedger, Machine};
use sf2d_spmv::{DistVector, VectorMap};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CALLS: usize = 100;

#[test]
fn dot_and_norm2_allocate_nothing_per_call() {
    let map = Arc::new(VectorMap::from_dist(&MatrixDist::random_1d(1_000, 16, 3)));
    let x = DistVector::random(Arc::clone(&map), 1);
    let y = DistVector::random(map, 2);
    let mut ledger = CostLedger::new(Machine::cab());
    // The first call adds the ledger's phase keys; the history gets its
    // room up front, as a solver's ledger has it after a few iterations.
    x.dot(&y, &mut ledger);
    ledger.history.reserve(4 * CALLS);
    let before = snapshot().allocs;
    for _ in 0..CALLS {
        black_box(x.dot(&y, &mut ledger));
        black_box(x.norm2(&mut ledger));
    }
    assert_eq!(
        snapshot().allocs - before,
        0,
        "allocations in {CALLS} calls"
    );
}
