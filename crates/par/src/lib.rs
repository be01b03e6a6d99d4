//! Deterministic scoped-thread work primitives.
//!
//! This crate is the shared "work module" between the simulator's parallel
//! superstep engine (`sf2d-sim`) and the parallel multilevel partitioner
//! (`sf2d-partition`). Everything here is built on `std::thread::scope` —
//! no external thread-pool dependency — and every primitive carries the
//! same contract: **the result is bit-identical to the sequential
//! execution for any thread count**, because work is assigned to threads
//! by index ranges fixed before any thread starts, each unit writes only
//! its own disjoint output, and results are combined in index order.
//!
//! Thread counts come from one shared knob: the `SF2D_THREADS`
//! environment variable (unset means 1, i.e. fully sequential; set to
//! anything that is not a positive integer is a loud error — see
//! [`parse_threads`]). Components that want a per-call override take a
//! `threads: usize` parameter where `0` means "resolve from the
//! environment" — see [`resolve_threads`].

use std::ops::Range;

pub mod pool;
pub use pool::{BatchTag, Pool, PoolStats, WorkerStats};

/// Parses a raw `SF2D_THREADS` value. `None` (unset) means 1
/// (sequential); anything else must be a positive integer. Rejected
/// forms get a message naming the offending value, so a typo like
/// `SF2D_THREADS=O8` fails the run instead of silently degrading it to
/// sequential execution.
pub fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else { return Ok(1) };
    let v = raw.trim();
    if v.is_empty() {
        return Err(
            "SF2D_THREADS is set but empty; unset it or set a positive integer (e.g. 4)".into(),
        );
    }
    match v.parse::<usize>() {
        Ok(0) => Err(format!(
            "SF2D_THREADS={raw:?}: thread count must be at least 1"
        )),
        Ok(n) => Ok(n),
        Err(e) => Err(format!(
            "SF2D_THREADS={raw:?} is not a positive integer ({e}); expected e.g. 1, 4, 8"
        )),
    }
}

/// Reads the shared `SF2D_THREADS` environment variable; unset falls
/// back to 1 (sequential).
///
/// # Panics
/// Panics with a clear message when the variable is set to anything
/// that is not a positive integer (empty, `0`, negative, non-numeric,
/// fractional) — silently running sequentially on a typo would make
/// "parallel" benchmark numbers lies.
pub fn threads_from_env() -> usize {
    let raw = std::env::var("SF2D_THREADS").ok();
    match parse_threads(raw.as_deref()) {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// Resolves a per-call thread request: `0` defers to [`threads_from_env`],
/// any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        threads_from_env()
    } else {
        requested
    }
}

/// Splits a thread budget between two child tasks proportionally to their
/// work estimates, giving each child at least one thread — a side is never
/// starved to 0 no matter how lopsided (or huge) the work estimates are.
/// With a budget of 0 or 1 both children get 1 (they will run sequentially
/// anyway).
pub fn split_threads(threads: usize, w0: usize, w1: usize) -> (usize, usize) {
    if threads <= 1 {
        return (1, 1);
    }
    // u128 intermediates: `threads * w0` must not overflow even for work
    // estimates near usize::MAX (nonzero counts are unbounded inputs here).
    let total = (w0 as u128 + w1 as u128).max(1);
    let t0 = ((threads as u128 * w0 as u128 + total / 2) / total) as usize;
    let t0 = t0.clamp(1, threads - 1);
    (t0, threads - t0)
}

/// Runs `f(rank, &mut items[rank])` for every rank, fanning the ranks out
/// across up to `threads` scoped OS threads in disjoint contiguous
/// chunks.
///
/// Because each rank touches only its own slot (plus whatever shared
/// read-only state `f` captures), the outcome is **bit-identical** to the
/// sequential loop for any thread count — asserted by tests here and
/// property-tested end-to-end in `sf2d-spmv`. `threads <= 1` runs the
/// plain loop with zero overhead.
pub fn par_ranks<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (r, item) in items.iter_mut().enumerate() {
            f(r, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        for (ci, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, item) in slice.iter_mut().enumerate() {
                    f(ci * chunk + j, item);
                }
            });
        }
    });
}

/// [`par_ranks`] on a persistent [`Pool`] instead of per-call scoped
/// threads: the same disjoint contiguous chunks (so the result is
/// bit-identical to `par_ranks` and to the sequential loop), but
/// dispatched as one pool batch — and therefore visible to the pool's
/// stats and per-worker trace spans (tagged `ranks`).
pub fn par_ranks_pool<T, F>(pool: &Pool, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if pool.threads() <= 1 || items.len() <= 1 {
        for (r, item) in items.iter_mut().enumerate() {
            f(r, item);
        }
        return;
    }
    let ranges = chunk_ranges(pool.threads(), items.len());
    let base = items.as_mut_ptr() as usize;
    let tag = BatchTag {
        label: "ranks",
        kind: sf2d_obs::PhaseKind::Other,
    };
    pool.run_tagged(ranges.len(), tag, |ci| {
        for i in ranges[ci].clone() {
            // SAFETY: chunk ranges are disjoint, so each job holds the
            // only reference to its items — the scoped-thread pattern of
            // `par_ranks`, batch edition.
            let item = unsafe { &mut *(base as *mut T).add(i) };
            f(i, item);
        }
    });
}

/// [`par_ranks`] / [`par_ranks_pool`] behind one knob: dispatches to the
/// persistent pool when one is supplied (amortizing thread spawns across
/// many small batches — the plan-compilation pattern, where a matrix
/// build issues several per-rank sweeps back to back) and to scoped
/// threads otherwise. All three execution shapes are bit-identical
/// because the per-rank chunks are disjoint and fixed before any thread
/// starts.
pub fn par_ranks_with<T, F>(threads: usize, pool: Option<&Pool>, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    match pool {
        Some(pool) if threads > 1 => par_ranks_pool(pool, items, f),
        _ => par_ranks(threads, items, f),
    }
}

/// Two-way fork-join: runs `fa` on the current thread and `fb` on a
/// scoped sibling thread when `parallel` is true, or both sequentially
/// (fa then fb) otherwise. Returns `(fa(), fb())` either way.
///
/// The sequential order is `fa` first; since the closures must not share
/// mutable state (enforced by the borrow checker plus any `unsafe`
/// disjointness contracts like [`SharedSlice`]), the parallel execution
/// produces the same results.
pub fn join<A, B, FA, FB>(parallel: bool, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if !parallel {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(fb);
        let a = fa();
        let b = hb.join().expect("sf2d-par: joined task panicked");
        (a, b)
    })
}

/// Chunk boundaries for splitting `len` items across up to `threads`
/// contiguous chunks: at most `threads` ranges covering `0..len` in
/// order. With `threads <= 1` (or few items) this is one range.
pub fn chunk_ranges(threads: usize, len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(threads.max(1).min(len));
    (0..len.div_ceil(chunk))
        .map(|ci| ci * chunk..((ci + 1) * chunk).min(len))
        .collect()
}

/// Chunk boundaries for splitting `len` items across up to `parts`
/// contiguous chunks, with every boundary (except the final `len`) rounded
/// up to a multiple of `align`. Aligning boundaries to a cache line's
/// worth of elements keeps two chunks from ping-ponging the line that
/// straddles their boundary (false sharing) when each chunk writes its own
/// output range.
///
/// The chunk shape depends only on `(parts, len, align)` — never on which
/// thread runs which chunk — so chunk-order merges stay deterministic.
pub fn chunk_ranges_aligned(parts: usize, len: usize, align: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let align = align.max(1);
    let chunk = len.div_ceil(parts.max(1).min(len));
    let chunk = chunk.div_ceil(align) * align;
    (0..len.div_ceil(chunk))
        .map(|ci| ci * chunk..((ci + 1) * chunk).min(len))
        .collect()
}

/// Reduces `items` by a **fixed-shape** pairwise tree: adjacent pairs are
/// combined level by level (`(0,1) (2,3) …`, then the results pairwise,
/// and so on) until one value remains. The combining shape is a pure
/// function of `items.len()`, so for an associative `f` the result is
/// identical however the leaves were produced — unlike a left fold, whose
/// association order is pinned to the chunk count.
pub fn tree_fold<T>(items: Vec<T>, f: impl Fn(T, T) -> T) -> Option<T> {
    let mut level = items;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(f(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.into_iter().next()
}

/// Elements per chunk-boundary alignment unit: 64 elements keeps chunk
/// edges off a shared cache line for element sizes down to one byte.
pub const CHUNK_ALIGN: usize = 64;

/// A thread budget over a persistent [`Pool`] to run chunked loops on —
/// the handle the partitioner threads through its phases. A handle
/// without a pool is sequential: its budget is one thread.
///
/// Every loop is **granularity-gated**: a loop over `work` items with a
/// per-item cost class `grain` runs on `min(threads, work / grain + 1)`
/// threads, so tiny coarse-level loops run inline instead of paying a
/// dispatch for nothing. Dispatch is a condvar wake of the pool's
/// persistent workers. The result is byte-identical in all cases.
#[derive(Clone, Copy)]
pub struct Par<'p> {
    threads: usize,
    pool: Option<&'p Pool>,
    /// Attribution for pool batches this handle submits (see [`BatchTag`]).
    tag: BatchTag,
}

impl<'p> Par<'p> {
    /// A sequential handle: every loop runs inline.
    pub const fn seq() -> Par<'static> {
        Par {
            threads: 1,
            pool: None,
            tag: BatchTag {
                label: "batch",
                kind: sf2d_obs::PhaseKind::Other,
            },
        }
    }

    /// A handle over `threads` threads of `pool`; sequential (one thread)
    /// without a pool.
    pub fn new(threads: usize, pool: Option<&'p Pool>) -> Par<'p> {
        Par {
            threads: if pool.is_some() { threads.max(1) } else { 1 },
            pool,
            tag: BatchTag::default(),
        }
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Same budget and pool, different batch attribution: loops submitted
    /// through the returned handle carry `tag` on their per-worker trace
    /// spans. Costs nothing when tracing is off.
    pub fn tagged(&self, tag: BatchTag) -> Par<'p> {
        Par { tag, ..*self }
    }

    /// Same pool, different budget (for fork-join splits).
    pub fn with_threads(&self, threads: usize) -> Par<'p> {
        Par {
            tag: self.tag,
            ..Par::new(threads, self.pool)
        }
    }

    /// Splits the budget proportionally to two work estimates (see
    /// [`split_threads`]); both halves keep the pool — concurrent
    /// submitters serialize batch-by-batch inside [`Pool::run`].
    pub fn split(&self, w0: usize, w1: usize) -> (Par<'p>, Par<'p>) {
        let (t0, t1) = split_threads(self.threads, w0, w1);
        (self.with_threads(t0), self.with_threads(t1))
    }

    /// Threads worth using for `work` items of cost class `grain`
    /// (items per thread-worth of work).
    pub fn threads_for(&self, work: usize, grain: usize) -> usize {
        self.threads.min(work / grain.max(1) + 1)
    }

    /// `out[i] = f(i)` with aligned chunks; inline below the grain.
    pub fn fill<T, F>(&self, out: &mut [T], grain: usize, f: F)
    where
        T: Send + Copy,
        F: Fn(usize) -> T + Sync,
    {
        let t = self.threads_for(out.len(), grain);
        let Some(pool) = self.pool.filter(|_| t > 1) else {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(i);
            }
            return;
        };
        let ranges = chunk_ranges_aligned(t, out.len(), CHUNK_ALIGN);
        let shared = SharedSlice::new(out);
        pool.run_tagged(ranges.len(), self.tag, |ci| {
            for i in ranges[ci].clone() {
                // SAFETY: chunk ranges are disjoint; `T: Copy` so the
                // overwritten slot needs no drop.
                unsafe { shared.write(i, f(i)) };
            }
        });
    }

    /// `a[i], b[i] = f(i)` with shared aligned chunk boundaries.
    pub fn fill2<A, B, F>(&self, a: &mut [A], b: &mut [B], grain: usize, f: F)
    where
        A: Send + Copy,
        B: Send + Copy,
        F: Fn(usize) -> (A, B) + Sync,
    {
        assert_eq!(a.len(), b.len(), "fill2 requires equal-length slices");
        let t = self.threads_for(a.len(), grain);
        let Some(pool) = self.pool.filter(|_| t > 1) else {
            for (i, (sa, sb)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                let (va, vb) = f(i);
                *sa = va;
                *sb = vb;
            }
            return;
        };
        let ranges = chunk_ranges_aligned(t, a.len(), CHUNK_ALIGN);
        let sa = SharedSlice::new(a);
        let sb = SharedSlice::new(b);
        pool.run_tagged(ranges.len(), self.tag, |ci| {
            for i in ranges[ci].clone() {
                let (va, vb) = f(i);
                // SAFETY: disjoint chunks, Copy slots.
                unsafe {
                    sa.write(i, va);
                    sb.write(i, vb);
                }
            }
        });
    }

    /// Maps aligned chunks of `0..len` through `f` and returns the results
    /// **in chunk order**. As long as `f`'s result for a range depends
    /// only on the items in that range (not on chunk boundaries),
    /// concatenating the returned values in order reproduces the
    /// sequential result exactly, independent of thread count.
    pub fn map_chunks<R, F>(&self, len: usize, grain: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let t = self.threads_for(len, grain);
        let ranges = chunk_ranges_aligned(t, len, CHUNK_ALIGN);
        let Some(pool) = self.pool.filter(|_| ranges.len() > 1) else {
            return ranges
                .into_iter()
                .enumerate()
                .map(|(ci, r)| f(ci, r))
                .collect();
        };
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(ranges.len(), || None);
        let shared = SharedSlice::new(&mut out);
        pool.run_tagged(ranges.len(), self.tag, |ci| {
            let r = f(ci, ranges[ci].clone());
            // SAFETY: each job writes only its own slot, and the
            // overwritten value is `None` (nothing to drop).
            unsafe { shared.write(ci, Some(r)) };
        });
        out.into_iter()
            .map(|r| r.expect("sf2d-par: chunk result missing"))
            .collect()
    }

    /// Chunked reduction: maps aligned chunks through `f`, then combines
    /// the per-chunk values with a fixed-shape [`tree_fold`]. `combine`
    /// must be associative (exact integer sums, max, …); the tree shape
    /// depends only on the chunk count, which depends only on
    /// `(threads, len, grain)`.
    pub fn reduce<R, F, C>(&self, len: usize, grain: usize, f: F, combine: C) -> Option<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
        C: Fn(R, R) -> R,
    {
        tree_fold(self.map_chunks(len, grain, f), combine)
    }
}

/// A raw view over a mutable slice that concurrent tasks may write
/// through, **provided they write disjoint indices**.
///
/// The recursive-bisection partitioner scatters each subtree's labels to
/// the global part vector at indices owned exclusively by that subtree;
/// the borrow checker cannot see that disjointness, so this wrapper
/// carries it as an explicit unsafe contract instead of forcing a
/// gather-then-merge copy.
///
/// # Safety contract
/// Callers of [`SharedSlice::write`] must guarantee that no two tasks
/// ever write the same index and that nobody reads the slice until all
/// writers have been joined (the scoped-thread structure of [`join`] and
/// the batch barrier of [`Pool::run`] enforce the join).
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// The caller must ensure no other task writes `index` concurrently
    /// or at any other time before the writers are joined (see the type
    /// docs). Bounds are checked; disjointness is not.
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(index < self.len, "SharedSlice write out of bounds");
        unsafe { self.ptr.add(index).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_threads_defaults_to_one() {
        // SF2D_THREADS is not set in the test environment.
        assert!(threads_from_env() >= 1);
        assert_eq!(resolve_threads(4), 4);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        // Tested through the pure parser, not by mutating the process
        // environment (env mutation races with parallel tests).
        assert_eq!(parse_threads(None), Ok(1));
        assert_eq!(parse_threads(Some("1")), Ok(1));
        assert_eq!(parse_threads(Some("8")), Ok(8));
        assert_eq!(parse_threads(Some("  16  ")), Ok(16), "whitespace trimmed");
    }

    #[test]
    fn parse_threads_rejects_each_garbage_form() {
        // One assertion per rejected form, each with a message naming
        // the offense.
        let empty = parse_threads(Some("")).unwrap_err();
        assert!(empty.contains("empty"), "{empty}");
        let blank = parse_threads(Some("   ")).unwrap_err();
        assert!(blank.contains("empty"), "{blank}");
        let zero = parse_threads(Some("0")).unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        let negative = parse_threads(Some("-4")).unwrap_err();
        assert!(negative.contains("not a positive integer"), "{negative}");
        let word = parse_threads(Some("many")).unwrap_err();
        assert!(word.contains("\"many\""), "{word}");
        let fractional = parse_threads(Some("1.5")).unwrap_err();
        assert!(
            fractional.contains("not a positive integer"),
            "{fractional}"
        );
        let overflow = parse_threads(Some("99999999999999999999999")).unwrap_err();
        assert!(overflow.contains("not a positive integer"), "{overflow}");
        let typo = parse_threads(Some("O8")).unwrap_err();
        assert!(typo.contains("\"O8\""), "{typo}");
    }

    #[test]
    fn par_ranks_with_is_identical_across_dispatch_shapes() {
        let n = 100usize;
        let run = |threads: usize, pool: Option<&Pool>| -> Vec<u64> {
            let mut out = vec![0u64; n];
            par_ranks_with(threads, pool, &mut out, |r, slot| {
                *slot = (r as u64).wrapping_mul(2654435761) ^ 0xabcd;
            });
            out
        };
        let gold = run(1, None);
        assert_eq!(run(4, None), gold, "scoped threads");
        let pool = Pool::new(4);
        assert_eq!(run(4, Some(&pool)), gold, "pool dispatch");
        assert_eq!(run(1, Some(&pool)), gold, "threads=1 ignores the pool");
    }

    #[test]
    fn split_threads_is_proportional_and_total_preserving() {
        assert_eq!(split_threads(1, 10, 10), (1, 1));
        assert_eq!(split_threads(0, 10, 10), (1, 1));
        let (a, b) = split_threads(8, 1, 1);
        assert_eq!(a + b, 8);
        assert_eq!((a, b), (4, 4));
        let (a, b) = split_threads(8, 999, 1);
        assert_eq!(a + b, 8);
        assert!(a >= b);
        assert!(b >= 1);
        // Degenerate weights never starve a child.
        let (a, b) = split_threads(2, 0, 0);
        assert_eq!((a, b), (1, 1));
    }

    #[test]
    fn split_threads_never_starves_a_side_on_degenerate_ratios() {
        // The satellite regression guard: whenever the budget allows two
        // workers, both sides get at least one thread — for tiny, huge,
        // zero, and overflow-bait work estimates alike.
        for threads in [2usize, 3, 8, 64] {
            for (w0, w1) in [
                (0usize, 0usize),
                (0, 1),
                (1, 0),
                (1, usize::MAX / 2),
                (usize::MAX / 2, 1),
                (usize::MAX, usize::MAX),
                (usize::MAX, 0),
                (1, 1_000_000_000),
                (7, 3),
            ] {
                let (a, b) = split_threads(threads, w0, w1);
                assert!(a >= 1 && b >= 1, "starved: t={threads} w=({w0},{w1})");
                assert_eq!(a + b, threads, "lost budget: t={threads} w=({w0},{w1})");
            }
        }
        // Proportionality still holds away from the degenerate edges.
        assert_eq!(split_threads(8, 3, 1), (6, 2));
    }

    #[test]
    fn chunk_ranges_aligned_cover_and_align() {
        for parts in [1usize, 2, 3, 8, 100] {
            for len in [0usize, 1, 63, 64, 65, 1000, 4096] {
                let ranges = chunk_ranges_aligned(parts, len, CHUNK_ALIGN);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    if r.end != len {
                        assert_eq!(r.end % CHUNK_ALIGN, 0, "unaligned boundary {}", r.end);
                    }
                    next = r.end;
                }
                assert_eq!(next, len, "parts {parts} len {len}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn tree_fold_matches_linear_fold_for_associative_ops() {
        for n in [0usize, 1, 2, 3, 7, 8, 33] {
            let items: Vec<i64> = (0..n as i64).map(|i| i * 17 - 5).collect();
            let linear: i64 = items.iter().sum();
            let tree = tree_fold(items, |a, b| a + b);
            assert_eq!(tree.unwrap_or(0), linear, "n {n}");
        }
        // Shape check: a non-associative op exposes the pairing order.
        let shape = tree_fold(
            vec![
                "0".to_string(),
                "1".into(),
                "2".into(),
                "3".into(),
                "4".into(),
            ],
            |a, b| format!("({a}{b})"),
        );
        assert_eq!(shape.unwrap(), "(((01)(23))4)");
    }

    #[test]
    fn par_handle_gates_and_matches_sequential() {
        let pool = Pool::new(4);
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 7;
        let mut expect = vec![0u64; 777];
        Par::seq().fill(&mut expect, 1, f);
        assert_eq!(Par::new(4, None).threads(), 1, "no pool, no threads");
        assert_eq!(Par::seq().with_threads(4).threads(), 1);
        for threads in [2usize, 4, 8] {
            let par = Par::new(threads, Some(&pool));
            // Below the grain: runs inline.
            assert_eq!(par.threads_for(10, 1000), 1);
            let mut out = vec![0u64; 777];
            par.fill(&mut out, 64, f);
            assert_eq!(out, expect, "fill threads {threads}");

            let mut a = vec![0u64; 777];
            let mut b = vec![0i64; 777];
            par.fill2(&mut a, &mut b, 64, |i| (f(i), i as i64 - 3));
            assert_eq!(a, expect);
            assert!(b.iter().enumerate().all(|(i, &v)| v == i as i64 - 3));

            let sum = par
                .reduce(
                    777,
                    64,
                    |_, r| r.map(f).fold(0u64, u64::wrapping_add),
                    u64::wrapping_add,
                )
                .unwrap();
            assert_eq!(sum, expect.iter().fold(0u64, |a, &v| a.wrapping_add(v)));

            let merged: Vec<u64> = par
                .map_chunks(777, 64, |_, r| r.map(f).collect::<Vec<u64>>())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(merged, expect);
        }
    }

    #[test]
    fn par_ranks_is_bit_identical_to_sequential() {
        let work = |r: usize, acc: &mut f64| {
            *acc = 0.0;
            for k in 1..200 {
                *acc += ((r * k) as f64).sin() / k as f64;
            }
        };
        let mut seq = vec![0.0f64; 23];
        par_ranks(1, &mut seq, work);
        for threads in [2, 3, 8, 64] {
            let mut par = vec![0.0f64; 23];
            par_ranks(threads, &mut par, work);
            let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "threads {threads}");
        }
    }

    #[test]
    fn par_ranks_pool_is_bit_identical_to_sequential() {
        let work = |r: usize, acc: &mut f64| {
            *acc = 0.0;
            for k in 1..200 {
                *acc += ((r * k) as f64).sin() / k as f64;
            }
        };
        let mut seq = vec![0.0f64; 23];
        par_ranks(1, &mut seq, work);
        let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut out = vec![0.0f64; 23];
            par_ranks_pool(&pool, &mut out, work);
            let out_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(out_bits, seq_bits, "threads {threads}");
        }
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for parallel in [false, true] {
            let (a, b) = join(parallel, || 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for threads in [1, 2, 3, 7, 100] {
            for len in [0usize, 1, 2, 16, 17, 101] {
                let ranges = chunk_ranges(threads, len);
                assert!(ranges.len() <= threads.max(1));
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn shared_slice_disjoint_writes_land() {
        let mut out = vec![0u32; 64];
        let shared = SharedSlice::new(&mut out);
        // Two tasks writing disjoint halves, odd/even interleaved to make
        // a chunking bug visible.
        join(
            true,
            || {
                for i in (0..64).step_by(2) {
                    unsafe { shared.write(i, i as u32 + 1) };
                }
            },
            || {
                for i in (1..64).step_by(2) {
                    unsafe { shared.write(i, i as u32 + 1) };
                }
            },
        );
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_slice_bounds_checked() {
        let mut out = vec![0u32; 4];
        let shared = SharedSlice::new(&mut out);
        unsafe { shared.write(4, 1) };
    }
}
