//! Reusable per-rank state for the distributed SpGEMM: the sparse
//! accumulator (`Spa`) all four row loops share, the row buffers the
//! kernels write, and the blocks peers read — the SpGEMM analogue of
//! [`SpmvWorkspace`](sf2d_spmv::SpmvWorkspace).
//!
//! Each workspace keeps two kinds of per-rank state apart. A rank's
//! *scratch* is written and read by that rank only. What a peer reads —
//! the expand/fold partial rows, SUMMA's stage blocks and merged chunk
//! rows — lives in a vector of its own, written in one phase and only read
//! in the next, so a receiver reads a sender's rows where they are and no
//! exchange keeps a payload buffer. `resident_bytes` reports what each
//! workspace holds.

use std::mem::size_of;

use sf2d_sim::runtime::par_ranks;

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
}

impl RowBuf {
    /// Empties the buffer for a fresh pass (keeps the allocations).
    pub fn reset(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.cols.clear();
        self.vals.clear();
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

/// Publishes which arm each rank's rows left its [`Spa`] through in the
/// product just finished, as the per-rank counters
/// `spgemm.{kernel}.rows_bitmap` / `rows_sorted`. Nothing unless tracing
/// is on.
pub(crate) fn publish_drain_arms<'a>(kernel: &str, spas: impl Iterator<Item = &'a Spa>) {
    if sf2d_obs::enabled() {
        for (r, spa) in spas.enumerate() {
            sf2d_obs::counter!(&format!("spgemm.{kernel}.rows_bitmap"), r, spa.rows_bitmap);
            sf2d_obs::counter!(&format!("spgemm.{kernel}.rows_sorted"), r, spa.rows_sorted);
        }
    }
}

/// One rank's scratch for one expand/fold SpGEMM. All buffers are reused
/// across calls; nothing here survives as output (the kernel copies the
/// final rows out into per-rank [`CsrMatrix`](sf2d_graph::CsrMatrix)
/// blocks).
#[derive(Debug, Clone, Default)]
pub(crate) struct RankSpgemmScratch {
    /// The row accumulator of the multiply and the merge.
    pub spa: Spa,
    /// Per owned `y` lid: the stored row of this rank's own partial for
    /// that row, or `u32::MAX` when the rank holds no local partial.
    pub own_part: Vec<u32>,
    /// Incoming partial rows for the merge, `(y_lid, src, stored row)` in
    /// receive order, stably sorted by `y_lid` (so per-row merge order
    /// stays sources-ascending).
    pub incoming: Vec<(u32, u32, u32)>,
    /// Final owned C rows (copied into the output blocks).
    pub out: RowBuf,
    /// Multiply product terms processed this call (2 flops each).
    pub terms: u64,
    /// Entries merged in the merge phase this call (1 flop each).
    pub merged: u64,
}

impl RankSpgemmScratch {
    fn resident_bytes(&self) -> u64 {
        self.spa.resident_bytes()
            + reserved(&self.own_part)
            + reserved(&self.incoming)
            + self.out.resident_bytes()
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
/// that rank only. Mirrors [`RankSpgemmScratch`]'s reuse discipline.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankSummaScratch {
    /// The row accumulator of the stage multiply and the stage merge.
    pub spa: Spa,
    /// Sort keys of the row gathers: `(gid, src, row)` for the A block,
    /// `(gid, src, 0)` for a B stage, `(gid, stage, row)` for the stage
    /// merge and `(lid, chunk, row)` for the assembly.
    pub keys: Vec<(u32, u32, u32)>,
    /// The billing of the exchange just read: `(src, doubles)` per peer
    /// whose rows this rank read, framed as `[gid, nnz, cols…, vals…]`.
    pub inbound: Vec<(u32, u64)>,
    /// Per-stage partial products `A[i][t]·B[t][j]`.
    pub stage_out: Vec<HyperCsr>,
    /// Final owned C rows, over the rank's vector lids.
    pub out: RowBuf,
    /// Multiply product terms processed this call (2 flops each).
    pub terms: u64,
    /// Product terms of the stage currently being billed.
    pub stage_terms: u64,
    /// Entries merged across stages (1 flop each).
    pub merged_flops: u64,
    /// Entries concatenated during owner assembly (1 flop each).
    pub assemble_flops: u64,
}

/// One rank's SUMMA blocks — what its peers read in place: each written
/// in one phase by its rank, then only read.
#[derive(Debug, Clone, Default)]
pub(crate) struct SummaBlocks {
    /// The rank's A block `A[i][j]` after the A-shuffle (global ids) —
    /// broadcast along its grid row in stage `j`.
    pub a_block: HyperCsr,
    /// B-root storage: `b_stage[t]` holds the stage-`t` rows (restricted
    /// to this rank's column chunk) for every stage this rank roots —
    /// broadcast down its grid column in stage `t`.
    pub b_stage: Vec<HyperCsr>,
    /// Cross-stage merged chunk rows (stage order, exact sums) — read by
    /// their C row owners in the fold.
    pub merged: HyperCsr,
}

/// Reusable scratch for [`summa_with`](crate::summa::summa_with):
/// per-rank hypersparse blocks, which peers read in place, and per-rank
/// SPA state. Like [`SpgemmWorkspace`], not tied to a matrix; buffers are
/// (re)sized on first use and `threads` fans the per-rank phase work out
/// with bit-identical results.
#[derive(Debug, Clone)]
pub struct SummaWorkspace {
    /// Number of OS threads for phase-local work (1 = fully sequential).
    pub threads: usize,
    pub(crate) ranks: Vec<RankSummaScratch>,
    pub(crate) blocks: Vec<SummaBlocks>,
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
            ranks: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Sizes the per-rank state for `p` ranks, `stages` grid columns,
    /// and a B with `bcols` columns, reusing allocations that fit.
    pub(crate) fn ensure(&mut self, p: usize, stages: usize, bcols: usize) {
        self.ranks.resize_with(p, RankSummaScratch::default);
        self.blocks.resize_with(p, SummaBlocks::default);
        for scratch in &mut self.ranks {
            scratch.spa.resize(bcols);
            scratch.stage_out.resize_with(stages, HyperCsr::default);
            for s in &mut scratch.stage_out {
                s.clear();
            }
            scratch.terms = 0;
        }
        // A rank fills only the stages it roots; the others must be empty.
        for blocks in &mut self.blocks {
            blocks.b_stage.resize_with(stages, HyperCsr::default);
            for b in &mut blocks.b_stage {
                b.clear();
            }
        }
    }

    /// Bytes the workspace holds reserved between products: every
    /// per-rank buffer's capacity, accumulators and blocks alike.
    pub fn resident_bytes(&self) -> u64 {
        let scratch = self.ranks.iter().map(|s| {
            let stages: u64 = s.stage_out.iter().map(HyperCsr::resident_bytes).sum();
            s.spa.resident_bytes()
                + reserved(&s.keys)
                + reserved(&s.inbound)
                + reserved(&s.stage_out)
                + stages
                + s.out.resident_bytes()
        });
        let blocks = self.blocks.iter().map(|b| {
            let stages: u64 = b.b_stage.iter().map(HyperCsr::resident_bytes).sum();
            b.a_block.resident_bytes() + reserved(&b.b_stage) + stages + b.merged.resident_bytes()
        });
        reserved(&self.ranks) + reserved(&self.blocks) + scratch.sum::<u64>() + blocks.sum::<u64>()
    }
}

impl Default for SummaWorkspace {
    fn default() -> SummaWorkspace {
        SummaWorkspace::new()
    }
}

/// Reusable scratch space for [`spgemm_with`](crate::kernel::spgemm_with):
/// per-rank SPA accumulators and row buffers, and per-rank partial rows,
/// which owners read in place in the fold (no per-message allocation at
/// steady state).
///
/// Like [`SpmvWorkspace`](sf2d_spmv::SpmvWorkspace), a workspace is not
/// tied to a matrix — buffers are (re)sized on first use — and the
/// `threads` knob fans the per-rank phase work across OS threads with
/// bit-identical results (ranks only write disjoint state).
#[derive(Debug, Clone)]
pub struct SpgemmWorkspace {
    /// Number of OS threads for phase-local work (1 = fully sequential).
    pub threads: usize,
    pub(crate) ranks: Vec<RankSpgemmScratch>,
    /// Per-rank partial C rows, one per stored row of the rank's A block:
    /// written by the multiply, read in place by the merge.
    pub(crate) parts: Vec<RowBuf>,
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
            ranks: Vec::new(),
            parts: Vec::new(),
        }
    }

    /// Sizes the per-rank buffers for `p` ranks and a B with `bcols`
    /// columns, reusing allocations where they already fit.
    pub(crate) fn ensure(&mut self, p: usize, bcols: usize) {
        self.ranks.resize_with(p, RankSpgemmScratch::default);
        for scratch in &mut self.ranks {
            scratch.spa.resize(bcols);
        }
        self.parts.resize_with(p, RowBuf::default);
    }

    /// Bytes the workspace holds reserved between products: every
    /// per-rank buffer's capacity, accumulators and partial rows alike.
    pub fn resident_bytes(&self) -> u64 {
        let scratch: u64 = self
            .ranks
            .iter()
            .map(RankSpgemmScratch::resident_bytes)
            .sum();
        let parts: u64 = self.parts.iter().map(RowBuf::resident_bytes).sum();
        reserved(&self.ranks) + reserved(&self.parts) + scratch + parts
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
