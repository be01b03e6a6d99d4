//! Granularity constants for the parallel partitioner, in one place so
//! the tuning story is auditable (see DESIGN.md §"Parallel partitioning").
//!
//! Each `*_GRAIN` is the number of loop items that justifies one thread's
//! worth of dispatch for that loop's per-item cost class — the
//! [`sf2d_par::Par::threads_for`] gate runs a loop over `work` items on
//! `min(threads, work / grain + 1)` threads. Grains only change wall
//! clock, never bytes: every gated loop is order-independent by
//! construction, so these numbers are free to be retuned per host.
//!
//! What `BENCH_partition.json` as re-recorded at PR 23 (2 cpus) argues for,
//! not yet acted on: at scale 14, k = 64 the four phases are now the same
//! size (match 76, contract 51, initpart 50, refine 40 ms) and 2 threads
//! give 1.34x with the per-phase sums unchanged — the gain is sibling
//! subtrees overlapping ([`GP_FORK_CUTOFF`]), not chunked loops. Matching
//! rounds ≥ 1 now do O(1) work for every vertex whose candidate is still
//! free, so their fill is [`VERTEX_GRAIN`] work gated at [`EDGE_GRAIN`];
//! only round 0 walks every row. At scale 12 (4,096 vertices: one loop at
//! the root reaches 2 threads) the sweep is 1.00–1.08x, which is what the
//! CI gate's `>= 1.0` measures: that the pool costs nothing there.

/// Per-vertex loops that walk an adjacency row each item (matching
/// candidate selection, FM gain init, coarse-row construction). An R-MAT
/// row averages ~16 nonzeros, so 4096 vertices ≈ 64k edge touches —
/// comfortably above a pool wake (~5 µs) even on fast hosts.
pub const EDGE_GRAIN: usize = 4096;

/// Flat per-vertex loops that do O(1) work per item (projection through
/// `cmap`, matching accept scan, part-weight sums).
pub const VERTEX_GRAIN: usize = 16384;

/// Round cap for the mutual local-max matching. The handshaking scheme
/// matches every pointer 2-cycle per round, so rounds needed grow like
/// log(nv) on scale-free inputs; 24 covers everything the harness runs
/// with slack, and the loop also exits as soon as a round matches nothing.
pub const MATCH_ROUNDS_MAX: usize = 24;

/// Don't fork a gp bisection's children unless both subgraphs have at
/// least this many vertices. Raised from 512: with intra-bisection
/// parallelism a small subtree no longer needs its own fork to keep
/// threads busy, and each fork costs a scoped-thread spawn plus colder
/// caches for the subtree that migrates.
pub const GP_FORK_CUTOFF: usize = 2048;

/// Mondriaan fork cutoff in nonzeros (each child re-bisects a hypergraph
/// over its nonzero subset; below this the serial hypergraph work is too
/// small to amortize the fork).
pub const MONDRIAAN_FORK_CUTOFF: usize = 16384;
