//! Reusable state for the distributed SpGEMM — the SpGEMM analogue of
//! [`SpmvWorkspace`](sf2d_spmv::SpmvWorkspace): the sparse accumulator
//! (`Spa`) all row loops share, the row buffers the kernels write, and the
//! blocks peers read.
//!
//! A workspace holds only what one step of a product reads. Accumulators
//! and merge lists are one set per worker thread. The expand/fold partial
//! rows live in the slots of one wave of fold groups at a time; SUMMA keeps
//! only each row's cross-stage sum. What a peer reads is written in one
//! phase and only read in the next, in place, so no exchange keeps a
//! payload buffer. Final rows are moved into the output; each rank's
//! buffer remembers their lengths for the next product to reserve.

use std::mem::size_of;

use sf2d_sim::runtime::par_ranks;
use sf2d_spmv::compiled::PhasePlan;

/// Reserved bytes of a vector's buffer.
fn reserved<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

/// [`par_ranks`] over two per-rank vectors at once: `f(r, &mut xs[r],
/// &mut ys[r])` for every rank.
pub(crate) fn par_zip<A: Send, B: Send>(
    threads: usize,
    xs: &mut [A],
    ys: &mut [B],
    f: impl Fn(usize, &mut A, &mut B) + Sync,
) {
    let mut pairs: Vec<(&mut A, &mut B)> = xs.iter_mut().zip(ys).collect();
    par_ranks(threads, &mut pairs, |r, (x, y)| f(r, x, y));
}

/// [`par_ranks`] with one worker per thread: `f(&mut worker, j, &mut
/// items[j])` for every `j`, each of `par_ranks`' contiguous chunks run in
/// order on its own worker (`threads.min(items.len())` of them).
pub(crate) fn par_workers<W: Send, T: Send>(
    threads: usize,
    workers: &mut [W],
    items: &mut [T],
    f: impl Fn(&mut W, usize, &mut T) + Sync,
) {
    let chunk = items.len().div_ceil(threads.min(items.len()).max(1)).max(1);
    let run = |c: usize, w: &mut W, slice: &mut [T]| {
        let base = c * chunk;
        (slice.iter_mut().enumerate()).for_each(|(j, item)| f(w, base + j, item));
    };
    if threads <= 1 {
        return run(0, &mut workers[0], items);
    }
    debug_assert!(
        workers.len() >= items.len().div_ceil(chunk),
        "a worker per chunk"
    );
    let mut jobs: Vec<_> = workers.iter_mut().zip(items.chunks_mut(chunk)).collect();
    par_ranks(threads, &mut jobs, |c, (w, slice)| run(c, w, slice));
}

/// The sparse accumulator of one output row: dense values over B's
/// column space, valid where `stamp[k] == gen`, plus the columns touched
/// so far. [`Spa::add`] accumulates one term; [`Spa::drain`] emits the
/// row in ascending column order and clears the accumulator in O(1) by
/// bumping the generation. The expand/fold multiply and merge and SUMMA's
/// stage multiply and stage merge are its four callers: the stamp /
/// touched / sort / emit sequence exists nowhere else in this crate.
///
/// `drain` orders a row one of two ways and picks from the row itself.
/// With `n` entries between columns `min` and `max` it sets one bit per
/// touched column and walks the words `min >> 6 ..= max >> 6` with
/// `trailing_zeros` when `n > (max >> 6) − (min >> 6)` — O(n + words), no
/// comparison — and `sort_unstable`s `touched` otherwise. No constant is
/// needed because the rule compares the two arms' own trip counts: the
/// walk reads one word per word spanned and the sort moves every entry
/// `≈ log₂ n` times, so a row with an entry per word cannot make the
/// walk read more words than the sort reads entries. A scale-free `A·Aᵀ`
/// row (hundreds of entries, 7–21 to a word) takes the walk; a mesh row
/// (≤ 13 entries over 262K columns) takes the sort and pays one min /
/// max pass more than it used to.
///
/// The arms are interchangeable bit for bit: both emit the distinct
/// columns of `touched` ascending, each with `vals[k]` as `add` left it,
/// and `add` — the only place a sum is formed — does not know which will
/// run. A hierarchical bitset in place of the stamps was measured and
/// dropped: the same gain on the dense product, 10–25 % slower on the
/// mesh product at p = 1,024, where it walks a summary level for rows the
/// sort finishes in a dozen compares (EXPERIMENTS.md, *SpGEMM against its
/// floor*).
#[derive(Debug, Clone, Default)]
pub(crate) struct Spa {
    /// Dense values over B's column space.
    vals: Vec<f64>,
    /// `stamp[k] == gen` ⇔ column `k` was touched in the current row.
    stamp: Vec<u32>,
    /// Current generation; [`Spa::resize`] keeps it off 0, which is what
    /// fresh stamps hold.
    gen: u32,
    /// Columns touched in the current row, in first-touch order.
    touched: Vec<u32>,
    /// One bit per column; all zero between rows.
    bits: Vec<u64>,
    /// Rows drained through the bitmap walk since [`Spa::resize`].
    pub rows_bitmap: u64,
    /// Rows drained through the sort since [`Spa::resize`].
    pub rows_sorted: u64,
}

impl Spa {
    /// Sizes the accumulator for `ncols` columns (keeping allocations
    /// that fit) and zeroes the per-product arm counts.
    pub fn resize(&mut self, ncols: usize) {
        self.vals.resize(ncols, 0.0);
        self.stamp.resize(ncols, 0);
        self.bits.resize(ncols.div_ceil(64), 0);
        self.gen = self.gen.max(1);
        self.rows_bitmap = 0;
        self.rows_sorted = 0;
    }

    /// Accumulates `v` into column `k` of the current row. The first
    /// touch stores `v` itself — never `0.0 + v`, so a lone `-0.0` stays
    /// `-0.0` — and later touches add in call order.
    #[inline]
    pub fn add(&mut self, k: u32, v: f64) {
        let ku = k as usize;
        if self.stamp[ku] != self.gen {
            self.stamp[ku] = self.gen;
            self.vals[ku] = v;
            self.touched.push(k);
        } else {
            self.vals[ku] += v;
        }
    }

    /// Appends the current row to `cols` / `vals` in ascending column
    /// order and starts the next one. Returns whether the bitmap walk
    /// ordered it — for the oracle tests; products read the two counts.
    pub fn drain(&mut self, cols: &mut Vec<u32>, vals: &mut Vec<f64>) -> bool {
        if self.touched.is_empty() {
            return false;
        }
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for &k in &self.touched {
            lo = lo.min(k);
            hi = hi.max(k);
        }
        let (w_lo, w_hi) = ((lo >> 6) as usize, (hi >> 6) as usize);
        let bitmap = self.touched.len() > w_hi - w_lo;
        if bitmap {
            for &k in &self.touched {
                self.bits[(k >> 6) as usize] |= 1u64 << (k & 63);
            }
            for w in w_lo..=w_hi {
                let mut word = std::mem::take(&mut self.bits[w]);
                while word != 0 {
                    let k = (w << 6) | word.trailing_zeros() as usize;
                    cols.push(k as u32);
                    vals.push(self.vals[k]);
                    word &= word - 1;
                }
            }
            self.rows_bitmap += 1;
        } else {
            self.touched.sort_unstable();
            for &k in &self.touched {
                cols.push(k);
                vals.push(self.vals[k as usize]);
            }
            self.rows_sorted += 1;
        }
        self.touched.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // 2³² rows later the stamp space is used up: forget them all.
            self.stamp.fill(0);
            self.gen = 1;
        }
        bitmap
    }

    /// Runs `f` and adds the rows it drained through each arm,
    /// `[bitmap, sorted]`, to `arms`: one rank's share of the counts.
    pub fn counting<R>(&mut self, arms: &mut [u64; 2], f: impl FnOnce(&mut Spa) -> R) -> R {
        let before = [self.rows_bitmap, self.rows_sorted];
        let out = f(self);
        arms[0] += self.rows_bitmap - before[0];
        arms[1] += self.rows_sorted - before[1];
        out
    }

    fn resident_bytes(&self) -> u64 {
        reserved(&self.vals)
            + reserved(&self.stamp)
            + reserved(&self.touched)
            + reserved(&self.bits)
    }
}

/// Rows under construction, CSR-style: row `i` is
/// `cols/vals[ptr[i]..ptr[i + 1]]`. Reused across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowBuf {
    pub ptr: Vec<usize>,
    pub cols: Vec<u32>,
    pub vals: Vec<f64>,
    /// `(ptr, cols)` lengths of the rows [`RowBuf::take`] last moved out.
    hint: (usize, usize),
}

impl RowBuf {
    /// Empties the buffer for a fresh pass, keeping its allocations or
    /// reserving the length of the rows last taken.
    pub fn reset(&mut self) {
        self.ptr.clear();
        self.cols.clear();
        self.vals.clear();
        self.ptr.reserve_exact(self.hint.0);
        self.cols.reserve_exact(self.hint.1);
        self.vals.reserve_exact(self.hint.1);
        self.ptr.push(0);
    }

    /// Moves the rows out; the buffer keeps only their lengths.
    pub fn take(&mut self) -> RowBuf {
        let hint = (self.ptr.len(), self.cols.len());
        let rows = std::mem::take(self);
        self.hint = hint;
        rows
    }

    /// Ends the current row at everything appended to `cols` / `vals`.
    pub fn close_row(&mut self) {
        self.ptr.push(self.cols.len());
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.ptr[i], self.ptr[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    fn resident_bytes(&self) -> u64 {
        reserved(&self.ptr) + reserved(&self.cols) + reserved(&self.vals)
    }
}

/// Publishes which arm each rank's rows left the accumulator through in
/// the product just finished — `arms` in rank order, `[bitmap, sorted]` —
/// as the per-rank counters `spgemm.{kernel}.rows_bitmap` / `rows_sorted`.
/// Nothing unless tracing is on.
pub(crate) fn publish_drain_arms(kernel: &str, arms: impl Iterator<Item = [u64; 2]>) {
    if sf2d_obs::enabled() {
        for (r, [bitmap, sorted]) in arms.enumerate() {
            sf2d_obs::counter!(&format!("spgemm.{kernel}.rows_bitmap"), r, bitmap);
            sf2d_obs::counter!(&format!("spgemm.{kernel}.rows_sorted"), r, sorted);
        }
    }
}

/// One worker thread's scratch, reused rank after rank.
#[derive(Debug, Clone, Default)]
pub(crate) struct Worker {
    /// The row accumulator.
    pub spa: Spa,
    /// Expand/fold merge: per owned `y` lid, the stored row of the rank's
    /// own partial, or `u32::MAX`.
    pub own_part: Vec<u32>,
    /// Expand/fold merge: incoming partial rows `(y_lid, src, stored
    /// row)`, stably sorted by `y_lid` (sources stay ascending per row).
    pub incoming: Vec<(u32, u32, u32)>,
    /// SUMMA: the stage products of the row being formed, one per stage.
    pub rows: RowBuf,
    /// SUMMA: per stage, the next unread row of its A block.
    pub at: Vec<usize>,
}

impl Worker {
    /// Workers for `p` ranks on `threads` threads, sized for `bcols`
    /// columns.
    fn ensure(workers: &mut Vec<Worker>, threads: usize, p: usize, bcols: usize) {
        workers.resize_with(threads.min(p).max(1), Worker::default);
        workers.iter_mut().for_each(|w| w.spa.resize(bcols));
    }

    fn resident_bytes(&self) -> u64 {
        let merge = reserved(&self.own_part) + reserved(&self.incoming);
        self.spa.resident_bytes() + merge + self.rows.resident_bytes() + reserved(&self.at)
    }
}

/// One rank's results of one expand/fold SpGEMM.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankSpgemmScratch {
    /// Final owned C rows, moved into the output block.
    pub out: RowBuf,
    /// Multiply product terms (2 flops each).
    pub terms: u64,
    /// Entries merged (1 flop each).
    pub merged: u64,
    /// Rows drained through each accumulator arm, `[bitmap, sorted]`.
    pub arms: [u64; 2],
}

/// One rank's partial C rows in the wave in flight (one per stored row of
/// its A block), with the multiply's counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    pub part: RowBuf,
    pub terms: u64,
    pub arms: [u64; 2],
}

/// The fold groups — sets of ranks that no fold message leaves — and the
/// waves they run in.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldGroups {
    /// The ranks by group (groups by lowest rank, ranks ascending).
    pub order: Vec<u32>,
    /// Where each rank sits in `order`.
    pub pos: Vec<u32>,
    /// Where each wave ends in `order`.
    pub waves: Vec<usize>,
    /// Per rank, its group's lowest rank.
    root: Vec<u32>,
}

impl FoldGroups {
    /// Finds the groups with one union-find over `fold`'s unpack sources
    /// and packs consecutive ones into waves of at least `threads` ranks.
    /// Returns the widest wave.
    pub fn plan(&mut self, fold: &PhasePlan, threads: usize) -> usize {
        let (p, root) = (fold.nranks(), &mut self.root);
        root.clear();
        root.extend(0..p as u32);
        let find = |root: &mut Vec<u32>, mut x: u32| {
            while root[x as usize] != x {
                (root[x as usize], x) = (root[root[x as usize] as usize], root[x as usize]);
            }
            x
        };
        for d in 0..p as u32 {
            for (src, ..) in fold.rank(d as usize).unpacks() {
                let (a, b) = (find(root, d), find(root, src));
                root[a.max(b) as usize] = a.min(b);
            }
        }
        // Links point down, so one ascending pass flattens the forest.
        (0..p).for_each(|r| root[r] = root[root[r] as usize]);
        self.order.clear();
        self.order.extend(0..p as u32);
        self.order.sort_unstable_by_key(|&r| (root[r as usize], r));
        self.pos.resize(p, 0);
        (self.order.iter().enumerate()).for_each(|(k, &r)| self.pos[r as usize] = k as u32);
        self.waves.clear();
        let (mut lo, mut widest) = (0, 0);
        for k in 1..=p {
            let group_ends =
                k == p || root[self.order[k] as usize] != root[self.order[k - 1] as usize];
            if group_ends && (k == p || k - lo >= threads) {
                self.waves.push(k);
                (widest, lo) = (widest.max(k - lo), k);
            }
        }
        widest
    }

    /// `[lo, hi)` of each wave in `order`.
    pub fn spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let starts = std::iter::once(0).chain(self.waves.iter().copied());
        starts.zip(self.waves.iter().copied())
    }

    fn resident_bytes(&self) -> u64 {
        reserved(&self.order) + reserved(&self.pos) + reserved(&self.waves) + reserved(&self.root)
    }
}

/// DCSC-style hypersparse local block storage: a CSR over only the
/// **nonempty** rows, keyed by global row id. At SUMMA block granularity
/// a rank's `A[i][t]` / `B[t][j]` block holds `O(nnz/p)` nonzeros spread
/// over `O(n/√p)` candidate rows, so a dense `rowptr` would be mostly
/// zeros — the hypersparse layout stores one entry per *present* row
/// instead (Buluç & Gilbert's argument for DCSC).
///
/// Rows are kept sorted by global id; lookup is a binary search over the
/// present rows. All buffers reuse their allocations across calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HyperCsr {
    /// Global ids of the nonempty rows, ascending.
    pub rows: Vec<u32>,
    /// Row boundaries: row `k` is `cols/vals[ptr[k]..ptr[k + 1]]`
    /// (`ptr.len() == rows.len() + 1`; empty when no rows).
    pub ptr: Vec<usize>,
    /// Column indices, ascending within each row.
    pub cols: Vec<u32>,
    /// Values, aligned with `cols`.
    pub vals: Vec<f64>,
}

impl HyperCsr {
    /// Empties the block for reuse (keeps allocations).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.ptr.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Appends one row. Callers append rows in ascending `gid` order.
    pub fn push_row(&mut self, gid: u32, cols: &[u32], vals: &[f64]) {
        debug_assert_eq!(cols.len(), vals.len());
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.close_row(gid);
    }

    /// Closes row `gid` over everything appended to `cols` / `vals`
    /// since the previous row ended — how rows written in place (a
    /// drained [`Spa`], a filtered sub-row) enter the block.
    pub fn close_row(&mut self, gid: u32) {
        debug_assert_eq!(self.cols.len(), self.vals.len());
        debug_assert!(self.rows.last().is_none_or(|&last| last < gid));
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        self.rows.push(gid);
        self.ptr.push(self.cols.len());
    }

    /// Frees the capacity the rows leave unused: a block rebuilt at the
    /// same length then allocates nothing.
    pub fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.ptr.shrink_to_fit();
        self.cols.shrink_to_fit();
        self.vals.shrink_to_fit();
    }

    /// Number of stored (nonempty) rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Total nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row `k` by position.
    #[inline]
    pub fn row_at(&self, k: usize) -> (u32, &[u32], &[f64]) {
        let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
        (self.rows[k], &self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Row with global id `gid`, if present (binary search).
    #[inline]
    pub fn row(&self, gid: u32) -> Option<(&[u32], &[f64])> {
        let k = self.rows.binary_search(&gid).ok()?;
        let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
        Some((&self.cols[lo..hi], &self.vals[lo..hi]))
    }

    fn resident_bytes(&self) -> u64 {
        reserved(&self.rows) + reserved(&self.ptr) + reserved(&self.cols) + reserved(&self.vals)
    }
}

/// One rank's scratch for one Sparse SUMMA execution, written and read by
/// that rank only.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankSummaScratch {
    /// Sort keys of the row gathers: `(gid, src, row)` for the A block,
    /// `(gid, src, 0)` for a B stage and `(lid, chunk, row)` for the
    /// assembly.
    pub keys: Vec<(u32, u32, u32)>,
    /// The billing of the exchange just read: `(src, doubles)` per peer
    /// whose rows this rank read, framed as `[gid, nnz, cols…, vals…]`.
    pub inbound: Vec<(u32, u64)>,
    /// Final owned C rows, moved into the output block.
    pub out: RowBuf,
    /// Product terms of each stage (2 flops each).
    pub stage_terms: Vec<u64>,
    /// Entries merged across stages (1 flop each).
    pub merged_flops: u64,
    /// Entries concatenated during owner assembly (1 flop each).
    pub assemble_flops: u64,
    /// Rows drained through each accumulator arm, `[bitmap, sorted]`.
    pub arms: [u64; 2],
}

/// One rank's SUMMA stage blocks — what its peers read in place: each
/// written in one phase by its rank, then only read.
#[derive(Debug, Clone, Default)]
pub(crate) struct SummaBlocks {
    /// The rank's A block `A[i][j]` after the A-shuffle (global ids) —
    /// broadcast along its grid row in stage `j`.
    pub a_block: HyperCsr,
    /// B-root storage: `b_stage[t]` holds the stage-`t` rows (restricted
    /// to this rank's column chunk) for every stage this rank roots —
    /// broadcast down its grid column in stage `t`.
    pub b_stage: Vec<HyperCsr>,
}

/// Reusable scratch for [`summa_with`](crate::summa::summa_with):
/// per-rank hypersparse blocks, which peers read in place, and per-rank
/// and per-thread scratch. Like [`SpgemmWorkspace`], not tied to a
/// matrix; buffers are (re)sized on first use and `threads` fans the
/// per-rank phase work out with bit-identical results.
#[derive(Debug, Clone)]
pub struct SummaWorkspace {
    /// Number of OS threads for phase-local work (1 = fully sequential).
    pub threads: usize,
    pub(crate) workers: Vec<Worker>,
    pub(crate) ranks: Vec<RankSummaScratch>,
    pub(crate) blocks: Vec<SummaBlocks>,
    /// Per rank, its merged chunk rows — read by the C row owners.
    pub(crate) merged: Vec<HyperCsr>,
}

impl SummaWorkspace {
    /// A sequential (single-threaded) workspace.
    pub fn new() -> SummaWorkspace {
        SummaWorkspace::with_threads(1)
    }

    /// A workspace whose phase-local work fans out across `threads` OS
    /// threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> SummaWorkspace {
        SummaWorkspace {
            threads: threads.max(1),
            workers: Vec::new(),
            ranks: Vec::new(),
            blocks: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Sizes the state for `p` ranks, `stages` grid columns, and a B with
    /// `bcols` columns, reusing allocations that fit.
    pub(crate) fn ensure(&mut self, p: usize, stages: usize, bcols: usize) {
        Worker::ensure(&mut self.workers, self.threads, p, bcols);
        self.ranks.resize_with(p, RankSummaScratch::default);
        for scratch in &mut self.ranks {
            scratch.stage_terms.resize(stages, 0);
            scratch.arms = [0; 2];
        }
        // A rank fills only the stages it roots; the others must be empty.
        self.blocks.resize_with(p, SummaBlocks::default);
        for blocks in &mut self.blocks {
            blocks.b_stage.resize_with(stages, HyperCsr::default);
            for b in &mut blocks.b_stage {
                b.clear();
            }
        }
        self.merged.resize_with(p, HyperCsr::default);
    }

    /// Bytes the workspace holds reserved between products: every
    /// buffer's capacity, accumulators and blocks alike.
    pub fn resident_bytes(&self) -> u64 {
        let scratch = self.ranks.iter().map(|s| {
            let lists = reserved(&s.keys) + reserved(&s.inbound) + reserved(&s.stage_terms);
            lists + s.out.resident_bytes()
        });
        let blocks = self.blocks.iter().map(|b| {
            let stages: u64 = b.b_stage.iter().map(HyperCsr::resident_bytes).sum();
            b.a_block.resident_bytes() + reserved(&b.b_stage) + stages
        });
        let merged = self.merged.iter().map(HyperCsr::resident_bytes);
        let headers = reserved(&self.ranks) + reserved(&self.blocks) + reserved(&self.merged);
        self.workers.iter().map(Worker::resident_bytes).sum::<u64>()
            + reserved(&self.workers)
            + headers
            + (scratch.chain(blocks).chain(merged)).sum::<u64>()
    }
}

impl Default for SummaWorkspace {
    fn default() -> SummaWorkspace {
        SummaWorkspace::new()
    }
}

/// Reusable scratch space for [`spgemm_with`](crate::kernel::spgemm_with):
/// per-thread scratch, per-rank results, and the wave slots whose partial
/// rows owners read in place in the fold.
///
/// Like [`SpmvWorkspace`](sf2d_spmv::SpmvWorkspace), a workspace is not
/// tied to a matrix — buffers are (re)sized on first use — and the
/// `threads` knob fans the per-rank phase work across OS threads with
/// bit-identical results (ranks only write disjoint state).
#[derive(Debug, Clone)]
pub struct SpgemmWorkspace {
    /// Number of OS threads for phase-local work (1 = fully sequential).
    pub threads: usize,
    pub(crate) workers: Vec<Worker>,
    /// Per-rank results in wave order: `ranks[k]` is rank
    /// `groups.order[k]`'s.
    pub(crate) ranks: Vec<RankSpgemmScratch>,
    pub(crate) groups: FoldGroups,
    /// Slot `j` holds the wave in flight's `j`-th rank's partial rows.
    pub(crate) slots: Vec<Slot>,
}

impl SpgemmWorkspace {
    /// A sequential (single-threaded) workspace.
    pub fn new() -> SpgemmWorkspace {
        SpgemmWorkspace::with_threads(1)
    }

    /// A workspace whose phase-local work fans out across `threads` OS
    /// threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> SpgemmWorkspace {
        SpgemmWorkspace {
            threads: threads.max(1),
            workers: Vec::new(),
            ranks: Vec::new(),
            groups: FoldGroups::default(),
            slots: Vec::new(),
        }
    }

    /// Sizes the state for the ranks of `fold` and a B with `bcols`
    /// columns, reusing allocations that fit, and plans the waves.
    pub(crate) fn ensure(&mut self, fold: &PhasePlan, bcols: usize) {
        let p = fold.nranks();
        Worker::ensure(&mut self.workers, self.threads, p, bcols);
        self.ranks.resize_with(p, RankSpgemmScratch::default);
        let widest = self.groups.plan(fold, self.threads);
        self.slots.resize_with(widest, Slot::default);
    }

    /// Bytes the workspace holds reserved between products: every
    /// buffer's capacity, accumulators and partial rows alike.
    pub fn resident_bytes(&self) -> u64 {
        let workers = self.workers.iter().map(Worker::resident_bytes);
        let outs = self.ranks.iter().map(|s| s.out.resident_bytes());
        let slots = self.slots.iter().map(|s| s.part.resident_bytes());
        let headers = reserved(&self.workers) + reserved(&self.ranks) + reserved(&self.slots);
        headers + self.groups.resident_bytes() + (workers.chain(outs).chain(slots)).sum::<u64>()
    }
}

impl Default for SpgemmWorkspace {
    fn default() -> SpgemmWorkspace {
        SpgemmWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row loop [`Spa`] replaced, kept as its bitwise oracle: collect
    /// into a dense array (fresh per row, so nothing can leak between
    /// rows), `sort_unstable` the touched columns, read the values back.
    /// Returns the row as `(column, value bits)`, so NaN ≡ NaN exactly
    /// when the payloads agree — and they must: both sides form every sum
    /// in the same order.
    fn reference_row(ncols: usize, terms: &[(u32, f64)]) -> Vec<(u32, u64)> {
        let mut vals = vec![0.0f64; ncols];
        let mut seen = vec![false; ncols];
        let mut touched: Vec<u32> = Vec::new();
        for &(k, v) in terms {
            let ku = k as usize;
            if !seen[ku] {
                seen[ku] = true;
                vals[ku] = v;
                touched.push(k);
            } else {
                vals[ku] += v;
            }
        }
        touched.sort_unstable();
        touched
            .iter()
            .map(|&k| (k, vals[k as usize].to_bits()))
            .collect()
    }

    /// The arm the entries-vs-words rule assigns a (nonempty) row.
    fn expect_bitmap(row: &[(u32, u64)]) -> bool {
        let (lo, hi) = (row[0].0, row[row.len() - 1].0);
        row.len() > ((hi >> 6) - (lo >> 6)) as usize
    }

    /// Feeds `terms` to `spa` and drains: the row as `(column, value
    /// bits)` and whether the bitmap walk ordered it.
    fn spa_row(spa: &mut Spa, terms: &[(u32, f64)]) -> (Vec<(u32, u64)>, bool) {
        for &(k, v) in terms {
            spa.add(k, v);
        }
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let bitmap = spa.drain(&mut cols, &mut vals);
        assert!(spa.touched.is_empty());
        let row = cols.into_iter().zip(vals.iter().map(|v| v.to_bits()));
        (row.collect(), bitmap)
    }

    fn spa_for(ncols: usize) -> Spa {
        let mut spa = Spa::default();
        spa.resize(ncols);
        spa
    }

    /// Checks `rows`, fed one after another through one accumulator,
    /// against the oracle, the rule, and the arm counts.
    fn check_rows(spa: &mut Spa, ncols: usize, rows: &[Vec<(u32, f64)>]) {
        for terms in rows {
            let want = reference_row(ncols, terms);
            let counts = (spa.rows_bitmap, spa.rows_sorted);
            let (got, bitmap) = spa_row(spa, terms);
            assert_eq!(got, want, "ncols {ncols} terms {terms:?}");
            if want.is_empty() {
                assert_eq!((spa.rows_bitmap, spa.rows_sorted), counts);
                continue;
            }
            assert_eq!(bitmap, expect_bitmap(&want), "arm of {want:?}");
            let after = (counts.0 + u64::from(bitmap), counts.1 + u64::from(!bitmap));
            assert_eq!((spa.rows_bitmap, spa.rows_sorted), after);
            assert!(spa.bits.iter().all(|&w| w == 0), "bits left set");
        }
    }

    const NCOLS: [usize; 6] = [1, 63, 64, 65, 2_048, 100_003];

    /// Values whose sums expose a reordering or a `0.0 + v`: signed
    /// zeros, non-finite values, a magnitude that absorbs its neighbours,
    /// and arbitrary bit patterns.
    fn value(raw: u64) -> f64 {
        const SPECIAL: [f64; 10] = [
            1.0,
            -1.0,
            0.5,
            3.0,
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ];
        if raw.is_multiple_of(4) {
            f64::from_bits(raw.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        } else {
            SPECIAL[(raw >> 2) as usize % SPECIAL.len()]
        }
    }

    /// One row's terms: `shape` 0 spreads the columns over all of
    /// `ncols` (few entries over many words: the sort arm once `ncols`
    /// is wide), 1 packs them into 24 columns starting 8 short of a word
    /// boundary (the bitmap arm, straddling two words), 2 uses only the
    /// first and last column.
    fn row_terms(ncols: usize, shape: u8, anchor: u64, raws: &[(u64, u64)]) -> Vec<(u32, f64)> {
        let n = ncols as u64;
        let start = ((anchor % n) / 64 * 64).saturating_sub(8);
        let col = |c: u64| match shape {
            0 => c % n,
            1 => (start + c % 24).min(n - 1),
            _ => (c & 1) * (n - 1),
        };
        raws.iter()
            .map(|&(c, v)| (col(c) as u32, value(v)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `drain` ≡ collect / sort / read over random rows with repeated
        /// columns, several rows through one accumulator so stale values,
        /// stamps and bits would show, and the arm is the rule's.
        #[test]
        fn drain_matches_the_sorted_reference(
            ncols_idx in 0usize..NCOLS.len(),
            rows in proptest::collection::vec(
                (0u8..3, 0u64..u64::MAX, proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..40)),
                1..5,
            ),
        ) {
            let ncols = NCOLS[ncols_idx];
            let rows: Vec<Vec<(u32, f64)>> = rows
                .iter()
                .map(|(shape, anchor, raws)| row_terms(ncols, *shape, *anchor, raws))
                .collect();
            check_rows(&mut spa_for(ncols), ncols, &rows);
        }
    }

    #[test]
    fn both_arms_are_taken_and_agree_with_the_reference() {
        for ncols in NCOLS {
            let last = ncols as u32 - 1;
            let mut spa = spa_for(ncols);
            // A single entry, the first and the last column, a full row
            // (descending, so first-touch order is the reverse of the
            // output), and every 128th column: one entry per two words,
            // which only the sort arm takes once there are two of them.
            let full = (0..=last).rev().map(|k| (k, f64::from(k) + 0.5));
            let strided = (0..=last).rev().step_by(128).map(|k| (k, 2.0));
            let rows = [
                vec![(last / 2, 7.0)],
                vec![(last, 1.0), (0, 2.0), (last, 3.0)],
                full.collect(),
                strided.collect(),
                vec![],
            ];
            check_rows(&mut spa, ncols, &rows);
            // Past two words, the two-column row and the strided row have
            // fewer entries than words between their ends.
            let sorted = 2 * u64::from(ncols > 128);
            assert_eq!(
                (spa.rows_bitmap, spa.rows_sorted),
                (4 - sorted, sorted),
                "ncols {ncols}"
            );
        }
    }

    #[test]
    fn a_run_across_a_word_boundary_is_emitted_in_order() {
        // Columns 60..=67 in a scrambled order with repeats: two words,
        // eight entries, the bitmap arm.
        let terms: Vec<(u32, f64)> = [63u32, 64, 60, 67, 61, 66, 62, 65, 63, 64]
            .iter()
            .map(|&k| (k, f64::from(k)))
            .collect();
        let (row, bitmap) = spa_row(&mut spa_for(2_048), &terms);
        assert!(bitmap);
        assert_eq!(row, reference_row(2_048, &terms));
        let cols: Vec<u32> = row.iter().map(|e| e.0).collect();
        assert_eq!(cols, (60..=67).collect::<Vec<u32>>());
    }

    #[test]
    fn consecutive_rows_sharing_columns_do_not_leak() {
        // Row 2 revisits some of row 1's columns and words but not all:
        // a stale value, stamp or bit would resurface here, in either arm.
        let mut spa = spa_for(100_003);
        let dense1: Vec<(u32, f64)> = (128..192).map(|k| (k, 1e300)).collect();
        let dense2: Vec<(u32, f64)> = (130..190).step_by(3).map(|k| (k, -0.0)).collect();
        let sparse1 = vec![(5u32, 1.0), (70_000, 2.0), (5, f64::NAN)];
        let sparse2 = vec![(70_000u32, -0.0), (99_999, 4.0)];
        check_rows(&mut spa, 100_003, &[dense1, dense2, sparse1, sparse2]);
        assert_eq!((spa.rows_bitmap, spa.rows_sorted), (2, 2));
    }

    #[test]
    fn a_first_touch_negative_zero_stays_negative_zero() {
        for terms in [vec![(3u32, -0.0)], vec![(3u32, -0.0), (90_000, 1.0)]] {
            let (row, _) = spa_row(&mut spa_for(100_003), &terms);
            assert_eq!(row[0], (3, (-0.0f64).to_bits()));
        }
        // A later +0.0 turns it, exactly as `-0.0 + 0.0` does.
        let (row, _) = spa_row(&mut spa_for(64), &[(3, -0.0), (3, 0.0)]);
        assert_eq!(row, vec![(3, 0.0f64.to_bits())]);
    }

    #[test]
    fn the_generation_wraps_without_resurrecting_old_columns() {
        let mut spa = spa_for(2_048);
        spa.gen = u32::MAX - 1;
        // Stamps written at the last two generations before the wrap and
        // at the first two after it; column 9 is only ever in row 1.
        let rows = [
            vec![(9u32, 1.0), (1_000, 2.0)],
            vec![(1_000u32, 3.0)],
            vec![(1_000u32, 4.0), (7, 5.0)],
            vec![(7u32, 6.0)],
        ];
        check_rows(&mut spa, 2_048, &rows);
        assert_eq!(spa.gen, 3, "MAX − 1, MAX, then 1 and 2 after the reset");
        assert!(spa.stamp.iter().all(|&s| s < 3));
    }

    #[test]
    fn resizing_keeps_the_accumulator_usable() {
        let mut spa = spa_for(2_048);
        check_rows(&mut spa, 2_048, &[vec![(2_047, 1.0), (0, 2.0)]]);
        spa.resize(65);
        assert_eq!((spa.rows_bitmap, spa.rows_sorted), (0, 0));
        check_rows(&mut spa, 65, &[vec![(64, 3.0), (0, 4.0), (64, 5.0)]]);
        spa.resize(100_003);
        check_rows(&mut spa, 100_003, &[vec![(100_002, 6.0), (64, 7.0)]]);
    }

    #[test]
    fn a_workspace_reserves_one_accumulator_per_thread_not_per_rank() {
        use crate::{spgemm_with, summa_with};
        use sf2d_partition::MatrixDist;
        use sf2d_sim::cost::CostLedger;
        use sf2d_sim::Machine;
        use sf2d_spmv::DistCsrMatrix;

        let a = sf2d_gen::rmat(&sf2d_gen::RmatConfig::graph500(8), 5);
        let b = a.transpose();
        let dist = MatrixDist::random_1d(a.nrows(), 1_024, 3);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let spa = spa_for(b.ncols()).resident_bytes();
        for threads in [1, 3] {
            let mut ef = SpgemmWorkspace::with_threads(threads);
            spgemm_with(&dm, &b, &mut CostLedger::new(Machine::cab()), &mut ef);
            let mut summa = SummaWorkspace::with_threads(threads);
            summa_with(
                &dm,
                &dist,
                &b,
                &mut CostLedger::new(Machine::cab()),
                &mut summa,
            );
            assert_eq!(ef.workers.len(), threads);
            assert_eq!(summa.workers.len(), threads);
            // Every accumulator is sized for B's columns, and there is no
            // other one.
            for w in &ef.workers {
                assert!(w.spa.resident_bytes() >= spa);
            }
            // A 1D layout folds nothing: every rank is its own fold group,
            // and a wave holds one per thread.
            assert_eq!(ef.groups.waves.len(), 1_024usize.div_ceil(threads));
            assert_eq!(ef.slots.len(), threads);
        }
    }

    /// [`Spa::drain`]'s bitmap arm with the one mistake a word walk
    /// invites: it reads each word without clearing it.
    fn drain_forgetting_to_clear(spa: &mut Spa) -> Vec<(u32, u64)> {
        let (lo, hi) = spa
            .touched
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        for &k in &spa.touched {
            spa.bits[(k >> 6) as usize] |= 1u64 << (k & 63);
        }
        let mut row = Vec::new();
        for w in (lo >> 6) as usize..=(hi >> 6) as usize {
            let mut word = spa.bits[w];
            while word != 0 {
                let k = (w << 6) | word.trailing_zeros() as usize;
                row.push((k as u32, spa.vals[k].to_bits()));
                word &= word - 1;
            }
        }
        spa.touched.clear();
        spa.gen += 1;
        row
    }

    #[test]
    fn the_oracle_sees_a_walk_that_forgets_to_clear_a_word() {
        let row1: Vec<(u32, f64)> = vec![(3, 1.0), (5, 2.0), (9, 3.0)];
        let row2: Vec<(u32, f64)> = vec![(4, 4.0), (9, 5.0)];
        let mut broken = spa_for(64);
        for &(k, v) in &row1 {
            broken.add(k, v);
        }
        // The first row is right — the mistake only shows in the next one.
        assert_eq!(
            drain_forgetting_to_clear(&mut broken),
            reference_row(64, &row1)
        );
        for &(k, v) in &row2 {
            broken.add(k, v);
        }
        let got = drain_forgetting_to_clear(&mut broken);
        assert_ne!(got, reference_row(64, &row2));
        let cols: Vec<u32> = got.iter().map(|e| e.0).collect();
        assert_eq!(cols, vec![3, 4, 5, 9], "row 1's columns 3 and 5 came back");
        // The real drain, same two rows.
        check_rows(&mut spa_for(64), 64, &[row1, row2]);
    }
}
