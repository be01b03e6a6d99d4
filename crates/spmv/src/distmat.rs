//! The distributed sparse matrix: per-rank local blocks, the four maps and
//! the compiled schedules lowered from them — Epetra's `Epetra_CrsMatrix`
//! after `FillComplete()`. The Import and Export are not kept as gid
//! plans: the maps determine them, and the compiled plan holds all of
//! them a product reads.
//!
//! A [`RankBlock`] keeps its maps ascending but stores its rows in
//! **execution order** — ascending `(nnz, gid)` — because 2D blocks go
//! hypersparse (Buluç & Gilbert): most row segments hold 1–4 nonzeros,
//! and a sweep in gid order mispredicts the inner loop's exit once per
//! row. In length order the trip count changes once per run of equal
//! rows, so [`RankBlock::multiply`] dispatches on the row length it reads
//! from `rowptr` anyway — straight-line code up to
//! four nonzeros, the plain loop above — with no side table in the hot
//! loop. Columns inside a row stay in ascending-gid order, so every
//! per-row sum, and with it every result bit, is what a gid-order sweep
//! gives. The nonzeros exist once; [`RankBlock::row`] is the way to read
//! "the row of `rowmap[li]`" (DESIGN.md, *Block row order and the local
//! kernel*).

use std::sync::Arc;

use sf2d_graph::{CooMatrix, CsrMatrix};
use sf2d_partition::NonzeroLayout;

use crate::compiled::CompiledSpmv;
use crate::map::VectorMap;

/// A stored nonzero: `(row gid, col gid, value)`.
type Nonzero = (u32, u32, f64);

/// Columns [`RankBlock::multiply`] carries through one pass over the
/// nonzeros: indices, values and loop exits are read once per chunk
/// instead of once per column. Eight accumulators still fit the
/// registers, and the executor's `xcols` scratch holds one chunk per
/// rank, so the width is live memory too: at 8 a width-16 serving batch
/// peaks 3.6 % higher than with single-column scratch (57.6 → 59.7 MiB
/// on `serve-steady`); 4 halved that for 10 % less throughput.
pub const SPMM_CHUNK: usize = 8;

/// One rank's share of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RankBlock {
    /// Global row ids with locally-owned nonzeros, ascending (the row map).
    pub rowmap: Vec<u32>,
    /// Global column ids referenced by local nonzeros, ascending (the
    /// column map).
    pub colmap: Vec<u32>,
    /// Local CSR over colmap indices, rows in execution order: ascending
    /// `(nnz, gid)`.
    local: CsrMatrix,
    /// Row-map position → stored row of `local`.
    stored: Vec<u32>,
}

impl RankBlock {
    /// Local index of global column `gid` (must be present).
    #[inline]
    pub fn col_lid(&self, gid: u32) -> usize {
        self.colmap.binary_search(&gid).expect("gid in column map")
    }

    /// Local column ids (ascending) and values of the row of
    /// `rowmap[li]`.
    #[inline]
    pub fn row(&self, li: usize) -> (&[u32], &[f64]) {
        self.local.row(self.stored[li] as usize)
    }

    /// Where [`multiply`](RankBlock::multiply) writes the row of
    /// `rowmap[li]`.
    #[inline]
    pub fn stored_row(&self, li: usize) -> usize {
        self.stored[li] as usize
    }

    /// Every row as [`row`](RankBlock::row) gives it, in stored order:
    /// the `s`-th is the one with [`stored_row`](RankBlock::stored_row)
    /// `== s`.
    pub fn stored_rows(&self) -> impl Iterator<Item = (&[u32], &[f64])> + '_ {
        (0..self.rowmap.len()).map(|s| self.local.row(s))
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.local.nnz()
    }

    /// Assembles a block from its nonzeros in row-major order without
    /// duplicates — the order both a global CSR
    /// sweep and a block merge produce. The row map is then a run-length
    /// dedup and no row needs sorting; keeping both maps ascending
    /// keeps every local row in ascending-gid column order, which fixes
    /// the per-row summation order and with it every result bit. The
    /// stored row order is a function of the entry set alone, so a
    /// patched block equals a freshly assembled one.
    fn from_sorted(entries: &[Nonzero]) -> RankBlock {
        let mut colmap: Vec<u32> = entries.iter().map(|e| e.1).collect();
        colmap.sort_unstable();
        colmap.dedup();
        colmap.shrink_to_fit();

        // Row starts in `entries`, by row-map position.
        let nrows = entries.chunk_by(|a, b| a.0 == b.0).count();
        let mut rowmap = Vec::with_capacity(nrows);
        let mut starts = Vec::with_capacity(nrows + 1);
        for (k, e) in entries.iter().enumerate() {
            if rowmap.last() != Some(&e.0) {
                rowmap.push(e.0);
                starts.push(k);
            }
        }
        starts.push(entries.len());
        let len = |li: u32| starts[li as usize + 1] - starts[li as usize];
        let mut order: Vec<u32> = (0..rowmap.len() as u32).collect();
        order.sort_unstable_by_key(|&li| (len(li), li));

        let mut stored = vec![0u32; rowmap.len()];
        let mut rowptr = Vec::with_capacity(rowmap.len() + 1);
        let mut colidx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        rowptr.push(0);
        for (s, &li) in order.iter().enumerate() {
            stored[li as usize] = s as u32;
            for &(_, j, v) in &entries[starts[li as usize]..starts[li as usize + 1]] {
                colidx.push(colmap.binary_search(&j).expect("column just mapped") as u32);
                values.push(v);
            }
            rowptr.push(colidx.len());
        }
        let local = CsrMatrix::from_parts(rowmap.len(), colmap.len(), rowptr, colidx, values)
            .expect("block entries are row-major sorted and duplicate-free");
        RankBlock {
            rowmap,
            colmap,
            local,
            stored,
        }
    }

    /// `partials = A_loc · xcols` at SpMM width `width`: `xcols` is
    /// row-major over the column map (`xcols[lid·width + c]`), `partials`
    /// column-major over **stored rows** (`partials[c·nrows + s]`, `s` =
    /// [`stored_row`](RankBlock::stored_row)), overwritten entirely.
    ///
    /// Every `(row, column)` sum starts at `0.0` and adds `v·x` in
    /// ascending local-column order with a separate multiply and add —
    /// the bits of [`CsrMatrix::spmv_dense_into`] over the same row.
    ///
    /// # Panics
    /// Panics if a slice length disagrees with the block and `width`.
    pub fn multiply(&self, xcols: &[f64], width: usize, partials: &mut [f64]) {
        let nrows = self.rowmap.len();
        assert_eq!(xcols.len(), width * self.colmap.len(), "xcols length");
        assert_eq!(partials.len(), width * nrows, "partials length");
        if width == 1 {
            return self.sweep(xcols, partials);
        }
        for c0 in (0..width).step_by(SPMM_CHUNK) {
            let out = &mut partials[c0 * nrows..];
            // Two call sites on purpose: the full-chunk one inlines with
            // a constant accumulator count.
            if width - c0 >= SPMM_CHUNK {
                self.sweep_chunk(xcols, width, c0, SPMM_CHUNK, out);
            } else {
                self.sweep_chunk(xcols, width, c0, width - c0, out);
            }
        }
    }

    /// The width-1 kernel: one pass in stored order, dispatching on the
    /// row length. Rows of equal length are adjacent, so the dispatch
    /// changes target once per run and predicts.
    fn sweep(&self, x: &[f64], partials: &mut [f64]) {
        let (colidx, values) = (self.local.colidx(), self.local.values());
        let mut lo = 0;
        for (y, &hi) in partials.iter_mut().zip(&self.local.rowptr()[1..]) {
            let (c, v) = (&colidx[lo..hi], &values[lo..hi]);
            let t = |k: usize| v[k] * x[c[k] as usize];
            *y = match hi - lo {
                0 => 0.0,
                1 => 0.0 + t(0),
                2 => 0.0 + t(0) + t(1),
                3 => 0.0 + t(0) + t(1) + t(2),
                4 => 0.0 + t(0) + t(1) + t(2) + t(3),
                _ => {
                    let mut acc = 0.0;
                    for (&c, &v) in c.iter().zip(v) {
                        acc += v * x[c as usize];
                    }
                    acc
                }
            };
            lo = hi;
        }
    }

    /// Columns `c0..c0 + w` (`w ≤ SPMM_CHUNK`) of a width-`stride`
    /// product, `w` accumulators per row; `out` starts at column `c0` of
    /// the partials.
    #[inline(always)]
    fn sweep_chunk(&self, x: &[f64], stride: usize, c0: usize, w: usize, out: &mut [f64]) {
        let nrows = self.rowmap.len();
        let (colidx, values) = (self.local.colidx(), self.local.values());
        let mut lo = 0;
        for (s, &hi) in self.local.rowptr()[1..].iter().enumerate() {
            let mut acc = [0.0; SPMM_CHUNK];
            for (&c, &v) in colidx[lo..hi].iter().zip(&values[lo..hi]) {
                let at = c as usize * stride + c0;
                for (a, &xv) in acc[..w].iter_mut().zip(&x[at..at + w]) {
                    *a += v * xv;
                }
            }
            for (k, &a) in acc[..w].iter().enumerate() {
                out[k * nrows + s] = a;
            }
            lo = hi;
        }
    }

    /// Position of entry `(i, j)` in the local CSR arrays, if stored.
    fn entry_pos(&self, i: u32, j: u32) -> Option<usize> {
        let li = self.rowmap.binary_search(&i).ok()?;
        let lj = self.colmap.binary_search(&j).ok()? as u32;
        let k = self.row(li).0.binary_search(&lj).ok()?;
        Some(self.local.rowptr()[self.stored_row(li)] + k)
    }

    /// The block's nonzeros, row-major.
    fn entries(&self) -> impl Iterator<Item = Nonzero> + '_ {
        self.rowmap.iter().enumerate().flat_map(move |(li, &i)| {
            let (cols, vals) = self.row(li);
            (cols.iter().zip(vals)).map(move |(&lj, &v)| (i, self.colmap[lj as usize], v))
        })
    }

    /// Applies `changes` — `(i, j, new value or removal)`, ascending and
    /// unique in `(i, j)`, all owned by this rank. Re-weights of stored
    /// entries are written in place; anything else rebuilds the block by
    /// one linear merge, which leaves it equal to a from-scratch assembly
    /// of the changed nonzeros.
    fn apply(&mut self, changes: &[(u32, u32, Option<f64>)]) -> BlockChange {
        let stored: Vec<Option<usize>> = changes
            .iter()
            .map(|&(i, j, _)| self.entry_pos(i, j))
            .collect();
        if changes
            .iter()
            .zip(&stored)
            .all(|(c, at)| c.2.is_some() == at.is_some())
        {
            // Every set hits a stored entry, every removal an absent one.
            let values = self.local.values_mut();
            for (c, at) in changes.iter().zip(&stored) {
                if let (Some(v), Some(k)) = (c.2, *at) {
                    values[k] = v;
                }
            }
            return BlockChange::Values;
        }
        let mut merged = Vec::with_capacity(self.local.nnz() + changes.len());
        let set = |c: &(u32, u32, Option<f64>)| c.2.map(|v| (c.0, c.1, v));
        let mut k = 0;
        for old in self.entries() {
            let at = (old.0, old.1);
            while k < changes.len() && (changes[k].0, changes[k].1) < at {
                merged.extend(set(&changes[k]));
                k += 1;
            }
            if k < changes.len() && (changes[k].0, changes[k].1) == at {
                merged.extend(set(&changes[k]));
                k += 1;
            } else {
                merged.push(old);
            }
        }
        merged.extend(changes[k..].iter().filter_map(set));
        let new = RankBlock::from_sorted(&merged);
        if new.rowmap != self.rowmap || new.colmap != self.colmap {
            let old = std::mem::replace(self, new);
            return BlockChange::Maps(old.colmap, old.rowmap);
        }
        let change = if new.stored != self.stored {
            BlockChange::RowOrder
        } else {
            BlockChange::Pattern
        };
        *self = new;
        change
    }
}

/// The owners other than `r` of the ids that entered or left one of its
/// maps (`old` → `new`): the peers whose one message with `r` changes.
fn moved_peers(vmap: &VectorMap, r: usize, old: &[u32], new: &[u32]) -> Vec<u32> {
    // The symmetric difference of the two maps, by one linear merge.
    let (mut peers, mut i, mut j) = (Vec::new(), 0, 0);
    while i < old.len() || j < new.len() {
        let (a, b) = (old.get(i).copied(), new.get(j).copied());
        let gone = a.is_some() && b.is_none_or(|b| a < Some(b));
        let came = b.is_some() && a.is_none_or(|a| b < Some(a));
        (i, j) = (i + usize::from(!came), j + usize::from(!gone));
        let g = if gone { a } else { b.filter(|_| came) };
        peers.extend(g.map(|g| vmap.owner(g)).filter(|&o| o as usize != r));
    }
    peers.sort_unstable();
    peers.dedup();
    peers
}

/// How far a delta reached into one rank's block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockChange {
    /// Values only: no map, plan, schedule or cost changes.
    Values,
    /// The sparsity pattern changed inside the existing row and column
    /// maps and no row moved: the rank's compute cost changes, its
    /// schedule does not.
    Pattern,
    /// As `Pattern`, but a row changed length and moved in the stored
    /// order: the rank's fold lists, which index partials by stored row,
    /// change — its messages and every other rank's schedule do not.
    RowOrder,
    /// The row or column map changed: local ids shift, messages may too.
    /// Carries the block's old column and row maps.
    Maps(Vec<u32>, Vec<u32>),
}

/// One change to the global matrix: entry `(i, j)` takes `value`, or is
/// removed when `value` is `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryDelta {
    /// Global row.
    pub i: u32,
    /// Global column.
    pub j: u32,
    /// The entry's new value; `None` removes it.
    pub value: Option<f64>,
}

/// What one [`DistCsrMatrix::apply_delta`] touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Ranks whose block was written or whose schedule was lowered again
    /// — what the application cost.
    pub dirty_ranks: usize,
    /// The ranks among them whose compiled schedule was lowered again.
    pub relowered: usize,
}

/// A matrix distributed across logical ranks according to any
/// [`NonzeroLayout`].
#[derive(Debug, Clone)]
pub struct DistCsrMatrix {
    /// Global dimension.
    pub n: usize,
    /// Domain and range map (x and y share it — the paper's requirement for
    /// iteration without remapping).
    pub vmap: Arc<VectorMap>,
    /// Per-rank local blocks.
    pub blocks: Vec<RankBlock>,
    /// The maps lowered to flat local-index schedules (the compilation
    /// step of `FillComplete()`): what the SpMV/SpMM kernels actually
    /// execute.
    pub compiled: CompiledSpmv,
}

impl DistCsrMatrix {
    /// Distributes a global matrix: every nonzero goes to
    /// `dist.nonzero_owner`, per-rank blocks are assembled, and the expand /
    /// fold schedules are lowered from the maps (Epetra's `FillComplete`).
    ///
    /// # Panics
    /// Panics if the matrix is not square or dimensions disagree with the
    /// layout.
    pub fn from_global<L: NonzeroLayout + ?Sized>(a: &CsrMatrix, dist: &L) -> DistCsrMatrix {
        DistCsrMatrix::from_global_with(a, dist, 1, None)
    }

    /// [`from_global`](DistCsrMatrix::from_global) with the per-rank work
    /// — block assembly and plan compilation — fanned across `threads` OS
    /// threads (on the persistent `pool` when given). The per-rank
    /// lowering is a pure function of the bucketed nonzeros, so the
    /// result is **byte-identical** to the serial path for any thread
    /// count; at p = 16,384 this is most of FillComplete's wall clock.
    ///
    /// # Panics
    /// Panics if the matrix is not square or dimensions disagree with the
    /// layout.
    pub fn from_global_with<L: NonzeroLayout + ?Sized>(
        a: &CsrMatrix,
        dist: &L,
        threads: usize,
        pool: Option<&sf2d_sim::sf2d_par::Pool>,
    ) -> DistCsrMatrix {
        assert_eq!(a.nrows(), a.ncols(), "SpMV layout requires a square matrix");
        assert_eq!(a.nrows(), dist.n(), "layout dimension mismatch");
        let n = a.nrows();
        let p = dist.nprocs();
        let vmap = Arc::new(VectorMap::from_dist(dist));

        // Bucket nonzeros by owner (serial: one pass over the input, so
        // every bucket stays in the input's row-major order).
        let mut buckets: Vec<Vec<Nonzero>> = vec![Vec::new(); p];
        for (i, j, v) in a.iter() {
            buckets[dist.nonzero_owner(i, j) as usize].push((i, j, v));
        }

        // Assemble every rank's block independently: each slot carries its
        // bucket in and its finished block out.
        let mut slots: Vec<(Vec<Nonzero>, Option<RankBlock>)> =
            buckets.into_iter().map(|bucket| (bucket, None)).collect();
        sf2d_sim::sf2d_par::par_ranks_with(threads, pool, &mut slots, |_, (bucket, block)| {
            *block = Some(RankBlock::from_sorted(&std::mem::take(bucket)));
        });
        // Not collected in place, into the slots' wider allocation.
        let mut blocks = Vec::with_capacity(p);
        blocks.extend(
            slots
                .into_iter()
                .map(|(_, b)| b.expect("every rank assembled")),
        );

        let compiled = CompiledSpmv::compile_with(&vmap, &blocks, threads, pool);
        DistCsrMatrix {
            n,
            vmap,
            blocks,
            compiled,
        }
    }

    /// Applies entry changes in place — the dirty-rank `FillComplete`.
    /// Afterwards `self` is equal to
    /// [`from_global`](DistCsrMatrix::from_global) of the changed global
    /// matrix under the same `dist`: `blocks` and `compiled` are both
    /// `==`, so products are bitwise equal and bill identically.
    ///
    /// Deltas are grouped by `dist.nonzero_owner`, the last delta to an
    /// entry winning, and each dirty rank's block is touched once. The
    /// cost follows the reach of the change:
    /// * a re-weight of a stored entry overwrites one value;
    /// * a pattern change inside a rank's row and column maps rebuilds
    ///   that block by a linear merge and updates its compute cost; when
    ///   a row moves in the block's stored order (it changed length), that
    ///   rank alone is lowered again, because its fold lists index
    ///   partials by stored row;
    /// * only when a row or column enters or leaves a rank's maps do
    ///   messages change — the peers whose group of that rank's remote
    ///   ids differs between its old and new maps are found, the one
    ///   message each shares with the rank is rewritten, and exactly
    ///   those ranks are lowered again (`CompiledSpmv::patch`).
    ///
    /// Removing an absent entry is a no-op.
    ///
    /// # Panics
    /// Panics if `dist` has another shape than the layout `self` was built
    /// on, or a delta lies outside the matrix.
    pub fn apply_delta<L: NonzeroLayout + ?Sized>(
        &mut self,
        dist: &L,
        deltas: &[EntryDelta],
    ) -> DeltaReport {
        assert_eq!(dist.n(), self.n, "layout dimension mismatch");
        assert_eq!(dist.nprocs(), self.nprocs(), "layout rank-count mismatch");
        // (owner, i, j, arrival): after sorting, the last of each
        // (owner, i, j) run is the delta that wins.
        let mut keyed: Vec<(u32, u32, u32, usize)> = deltas
            .iter()
            .enumerate()
            .map(|(k, d)| {
                assert!(
                    (d.i as usize) < self.n && (d.j as usize) < self.n,
                    "delta ({}, {}) outside an {n} x {n} matrix",
                    d.i,
                    d.j,
                    n = self.n
                );
                (dist.nonzero_owner(d.i, d.j), d.i, d.j, k)
            })
            .collect();
        keyed.sort_unstable();

        let mut written = Vec::new();
        let mut resized = Vec::new();
        let mut relower = Vec::new();
        let mut moved: [Vec<(usize, u32)>; 2] = Default::default();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let r = run[0].0 as usize;
            let changes: Vec<(u32, u32, Option<f64>)> = run
                .chunk_by(|a, b| (a.1, a.2) == (b.1, b.2))
                .map(|same| same[same.len() - 1])
                .map(|(_, i, j, k)| (i, j, deltas[k].value))
                .collect();
            written.push(r);
            let change = self.blocks[r].apply(&changes);
            if change != BlockChange::Values {
                resized.push(r);
            }
            if matches!(change, BlockChange::RowOrder | BlockChange::Maps(..)) {
                relower.push(r);
            }
            if let BlockChange::Maps(colmap, rowmap) = change {
                let block = &self.blocks[r];
                let olds = [(colmap, &block.colmap), (rowmap, &block.rowmap)];
                for (pairs, (old, new)) in moved.iter_mut().zip(olds) {
                    for q in moved_peers(&self.vmap, r, &old, new) {
                        relower.push(q as usize);
                        pairs.push((r, q));
                    }
                }
            }
        }
        relower.sort_unstable();
        relower.dedup();
        let [cols, rows] = &moved;
        self.compiled
            .patch(&self.vmap, &self.blocks, &resized, &relower, [cols, rows]);
        written.retain(|r| relower.binary_search(r).is_err());
        DeltaReport {
            dirty_ranks: written.len() + relower.len(),
            relowered: relower.len(),
        }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.blocks.len()
    }

    /// Nonzeros stored at each rank.
    pub fn nnz_per_rank(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.nnz()).collect()
    }

    /// Total nonzeros across ranks.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }

    /// Reassembles the global matrix (test oracle).
    pub fn to_global(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.nnz());
        for b in &self.blocks {
            for (i, j, v) in b.entries() {
                coo.push(i, j, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_partition::grid_shape;
    use sf2d_partition::MatrixDist;

    fn layouts_for(n: usize, p: usize) -> Vec<MatrixDist> {
        let (pr, pc) = grid_shape(p);
        vec![
            MatrixDist::block_1d(n, p),
            MatrixDist::random_1d(n, p, 1),
            MatrixDist::block_2d(n, pr, pc),
            MatrixDist::random_2d(n, pr, pc, 2),
        ]
    }

    #[test]
    fn distribution_covers_every_nonzero_exactly_once() {
        let a = rmat(&RmatConfig::graph500(7), 3);
        for d in layouts_for(a.nrows(), 6) {
            let dm = DistCsrMatrix::from_global(&a, &d);
            assert_eq!(dm.nnz(), a.nnz());
            assert_eq!(dm.to_global(), a);
        }
    }

    #[test]
    fn import_plan_covers_all_remote_columns() {
        let a = grid_2d(8, 8);
        let d = MatrixDist::block_2d(64, 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &d);
        for (r, block) in dm.blocks.iter().enumerate() {
            // What the senders' pack lists address to `r`: the transposed
            // side of the expand.
            let planned: usize = (0..dm.nprocs())
                .flat_map(|s| dm.compiled.expand_rank(s).packs())
                .filter(|&(dst, _, _)| dst == r as u32)
                .map(|(_, lids, _)| lids.len())
                .sum();
            let remote = block
                .colmap
                .iter()
                .filter(|&&g| dm.vmap.owner(g) != r as u32)
                .count();
            assert_eq!(planned, remote, "rank {r}");
        }
    }

    #[test]
    fn one_d_layout_has_no_export() {
        // Row-wise layouts put every row at its vector owner: fold is empty.
        let a = rmat(&RmatConfig::graph500(6), 1);
        let d = MatrixDist::random_1d(a.nrows(), 4, 7);
        let dm = DistCsrMatrix::from_global(&a, &d);
        let volume = |phase: &crate::PhasePlan| -> usize {
            (0..dm.nprocs()).map(|r| phase.pack_indices(r).len()).sum()
        };
        assert_eq!(volume(&dm.compiled.fold), 0);
        assert!(volume(&dm.compiled.expand) > 0);
    }

    #[test]
    fn two_d_message_bound_respected_by_plans() {
        let a = rmat(&RmatConfig::graph500(8), 5);
        let d = MatrixDist::block_2d(a.nrows(), 4, 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        // Expand sends stay within a grid column (pr-1), fold within a grid
        // row (pc-1).
        for r in 0..dm.nprocs() {
            assert!(dm.compiled.expand_rank(r).npacks() <= 3);
            assert!(dm.compiled.fold_rank(r).npacks() <= 3);
        }
    }

    #[test]
    fn parallel_fill_complete_is_byte_identical_to_serial() {
        let a = rmat(&RmatConfig::graph500(7), 5);
        let d = MatrixDist::random_2d(a.nrows(), 2, 3, 4);
        let serial = DistCsrMatrix::from_global(&a, &d);
        let pool = sf2d_sim::sf2d_par::Pool::new(3);
        for (threads, pool) in [(2usize, None), (3, Some(&pool))] {
            let par = DistCsrMatrix::from_global_with(&a, &d, threads, pool);
            assert_eq!(par.compiled, serial.compiled, "threads {threads}");
            assert_eq!(par.to_global(), serial.to_global());
            for (b1, b2) in par.blocks.iter().zip(&serial.blocks) {
                assert_eq!(b1.rowmap, b2.rowmap);
                assert_eq!(b1.colmap, b2.colmap);
            }
        }
    }

    #[test]
    fn empty_rank_is_fine() {
        // More ranks than rows: some ranks own nothing.
        let a = grid_2d(2, 2);
        let d = MatrixDist::block_1d(4, 8);
        let dm = DistCsrMatrix::from_global(&a, &d);
        assert_eq!(dm.nnz(), a.nnz());
        assert_eq!(dm.to_global(), a);
    }
}
