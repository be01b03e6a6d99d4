//! Communication-avoiding SpGEMM: Sparse SUMMA on the `pr × pc` grid.
//!
//! Where the expand/fold kernel ([`crate::kernel`]) reuses the SpMV's
//! compiled point-to-point schedules — and therefore inherits the
//! *layout's* message count, up to `p − 1` sends per rank under a 1D
//! distribution — Sparse SUMMA (Buluç & Gilbert) runs `C = A·B` as `gc`
//! **stages** of blocked broadcasts over the process grid:
//!
//! ```text
//! for t in 0..gc:                            # gc = grid columns ≈ √p
//!     row-broadcast  A[i][t]  across grid row i     (root: rank (i, t))
//!     col-broadcast  B[t][j]  down grid column j    (root: rank (t mod gr, j))
//!     C[i][j] += A[i][t] · B[t][j]                  (local Gustavson)
//! ```
//!
//! so every rank sends at most `(gr − 1) + (gc − 1)` broadcast fragments
//! *per stage* regardless of how the nonzeros are distributed — the
//! communication-avoiding bound of Ballard et al. The per-stage blocks
//! are hypersparse (`O(nnz/p)` nonzeros over `O(n/√p)` rows), so local
//! storage is DCSC-style ([`HyperCsr`]): a CSR over only the present
//! rows, keyed by global id.
//!
//! ## Mapping the paper's layouts onto the grid
//!
//! Every [`MatrixDist`] already *is* a grid layout: in all modes, rank
//! `r` sits at grid position `(r mod gr, r div gr)` and the nonzero map
//! places `a_ij` in grid row `row_of_part(rpart[i])` (see [`SummaGrid`]).
//! Two one-time redistributions align the operands with the stage
//! blocking, billed as [`Phase::Expand`] supersteps:
//!
//! * **A-shuffle** — under 1D layouts a rank's A rows span all stage
//!   columns, so each rank gathers the entries of its own stage column
//!   from the grid-column peers in its own grid row (≤ `gc − 1` sends to
//!   bill). Under 2D layouts every local nonzero is already in the rank's
//!   own stage column and this is an exact no-op (zero traffic, still a
//!   closed superstep so ledger histories keep one shape).
//! * **B-shuffle** — B rows live with their vector owners (grid column
//!   `t` = the stage that consumes them); each stage's broadcast root
//!   `rank(t mod gr, j)` gathers column chunk `j` of them (≤ `gc` sends per
//!   owner).
//!
//! A rank forms its product row by row, walking the rows of its stage A
//! blocks in gid order: for each stage in ascending order it multiplies
//! the row against the stage's B block, then adds the nonempty stage rows
//! in stage order into its merged chunk row — the same adds, in the same
//! order, as forming every stage's product first and merging them after
//! (`tests::staged`, the bitwise oracle). Both accumulate in, and emit
//! sorted from, the `Spa` (`workspace.rs`) the expand/fold kernel uses, so
//! no stage's whole product is ever held. Each stage's Multiply superstep
//! is billed off its own term count, and the cross-stage sum as one
//! [`Phase::Merge`]. The merged chunk rows are folded within grid rows to
//! the C row owners ([`Phase::Fold`], ≤ `gc − 1` sends) and assembled by
//! chunk concatenation. Output rows are **bitwise equal** to the serial
//! Gustavson oracle whenever row sums are exact (the generator matrices'
//! products are small integers), and bit-identical for any `threads`
//! setting — the differential suite pins both, head-to-head with
//! expand/fold.
//!
//! ## Transport
//!
//! Every exchange reads the sender's rows where they live. A stage
//! multiplies its roots' `a_block` / `b_stage[t]` directly, an owner
//! assembles its rows out of its grid-row peers' merged chunk blocks, and
//! the shuffles gather out of A's blocks and B's rows. Each receiver notes
//! how many framed doubles (`[gid, nnz, cols…, vals…]` per row) it read
//! from each sender, and the ledger bills those messages at both
//! endpoints; a broadcast is billed off its root's row lengths.
//!
//! [`Phase::Expand`]: sf2d_sim::cost::Phase::Expand
//! [`Phase::Merge`]: sf2d_sim::cost::Phase::Merge
//! [`Phase::Fold`]: sf2d_sim::cost::Phase::Fold
//! [`HyperCsr`]: crate::workspace::HyperCsr
//!
//! Chaos superstep indices (for [`FaultScript`](sf2d_sim::fault)
//! targeting in [`summa_chaos`]): A-shuffle = 0, B-shuffle = 1, stage
//! `t`'s A-broadcast = `2 + 2t`, its B-broadcast = `3 + 2t`, and the
//! fold = `2 + 2·gc`.

use std::sync::Arc;

use sf2d_graph::CsrMatrix;
use sf2d_obs::{trace_span, PhaseKind};
use sf2d_partition::{grid_shape, DistMode, MatrixDist};
use sf2d_sim::cost::{CostLedger, Phase, PhaseCost};
use sf2d_sim::fault::ChaosRuntime;
use sf2d_sim::runtime::par_ranks;
use sf2d_spmv::distmat::{DistCsrMatrix, RankBlock};
use sf2d_spmv::map::VectorMap;

use crate::kernel::{accumulate, close_output, compute_costs, to_global, ExchangeStats, Row};
use crate::wire::{framed_len, mirror, Framed};
use crate::workspace::{
    par_workers, par_zip, publish_drain_arms, HyperCsr, RankSummaScratch, SummaBlocks,
    SummaWorkspace, Worker,
};

/// The SUMMA process grid a [`MatrixDist`] induces.
///
/// In every distribution mode, rank `r` occupies grid position
/// `(r mod gr, r div gr)` and `rank_at(i, j) = i + j·gr`; the part
/// (vector piece) `q` maps to grid row [`SummaGrid::row_of_part`] and
/// grid column [`SummaGrid::col_of_part`] such that
///
/// * the owner of nonzero `a_ij` always sits in grid row
///   `row_of_part(rpart[i])` (for 2D modes its grid column is likewise
///   `col_of_part(rpart[j])`; 1D modes need the A-shuffle), and
/// * the vector owner of entry `k` sits exactly at
///   `(row_of_part(rpart[k]), col_of_part(rpart[k]))`.
///
/// The `summa::tests::grid_matches_every_distribution_mode` test pins
/// these invariants against [`MatrixDist`]'s own owner maps for every
/// mode, including the column-swapped Cartesian layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaGrid {
    /// Grid rows.
    gr: u32,
    /// Grid columns (= SUMMA stages).
    gc: u32,
    /// Column-swapped Cartesian map (`AT` layouts).
    swapped: bool,
    /// Part-coordinate modulus: `pr` for 2D modes, `gr` for 1D.
    m: u32,
}

impl SummaGrid {
    /// Derives the grid the distribution already embeds. 1D layouts get
    /// the same near-square `grid_shape(p)` factorization the 2D
    /// constructors use, so all methods compare on equal grids.
    pub fn from_dist(dist: &MatrixDist) -> SummaGrid {
        match dist.mode() {
            DistMode::OneD => {
                let (gr, gc) = grid_shape(dist.nprocs());
                SummaGrid {
                    gr,
                    gc,
                    swapped: false,
                    m: gr,
                }
            }
            DistMode::TwoD {
                pr,
                pc,
                swapped: false,
            } => SummaGrid {
                gr: pr,
                gc: pc,
                swapped: false,
                m: pr,
            },
            DistMode::TwoD {
                pr,
                pc,
                swapped: true,
            } => SummaGrid {
                gr: pc,
                gc: pr,
                swapped: true,
                m: pr,
            },
        }
    }

    /// Grid rows.
    pub fn gr(&self) -> u32 {
        self.gr
    }

    /// Grid columns — the number of SUMMA stages.
    pub fn gc(&self) -> u32 {
        self.gc
    }

    /// Grid row of part (vector piece) `q`.
    pub fn row_of_part(&self, q: u32) -> u32 {
        if self.swapped {
            q / self.m
        } else {
            q % self.m
        }
    }

    /// Grid column of part `q` — the stage that consumes row block `q`
    /// of B (equivalently column block `q` of A).
    pub fn col_of_part(&self, q: u32) -> u32 {
        if self.swapped {
            q % self.m
        } else {
            q / self.m
        }
    }

    /// The rank at grid position `(i, j)`.
    pub fn rank_at(&self, i: u32, j: u32) -> u32 {
        i + j * self.gr
    }

    /// Grid row of rank `r`.
    pub fn row_of_rank(&self, r: u32) -> u32 {
        r % self.gr
    }

    /// Grid column of rank `r`.
    pub fn col_of_rank(&self, r: u32) -> u32 {
        r / self.gr
    }

    /// The rank whose stage-`t` block rank `r` multiplies: its grid row's
    /// rank in grid column `t` for A (`along_row`), its grid column's rank
    /// in grid row `t mod gr` for B. A rank that is its own root
    /// broadcasts the block.
    fn bcast_root(&self, along_row: bool, r: u32, t: u32) -> u32 {
        if along_row {
            self.rank_at(self.row_of_rank(r), t)
        } else {
            self.rank_at(t % self.gr, self.col_of_rank(r))
        }
    }

    /// The communication-avoiding per-stage bound: no rank sends more
    /// than `(gr − 1) + (gc − 1)` broadcast fragments in one stage,
    /// independent of the nonzero distribution.
    pub fn stage_message_bound(&self) -> u64 {
        (self.gr - 1) as u64 + (self.gc - 1) as u64
    }
}

/// The distributed product `C = A·B` computed by Sparse SUMMA: per-rank
/// owned row blocks (same ownership as [`DistSpgemm`](crate::DistSpgemm),
/// so results compare directly) plus the per-phase traffic, including the
/// per-stage send counts that witness the communication-avoiding bound.
#[derive(Debug, Clone)]
pub struct SummaSpgemm {
    /// Row distribution of C (shared with A's vector map).
    pub vmap: Arc<VectorMap>,
    /// Global column count of C (= B's).
    pub ncols: usize,
    /// Owned rows per rank: `locals[r]` is `nlocal(r) × ncols`.
    pub locals: Vec<CsrMatrix>,
    /// Global `nnz(C)`, closed by the allreduce.
    pub nnz: u64,
    /// The grid the distribution induced.
    pub grid: SummaGrid,
    /// One-time A + B redistribution traffic (the two Expand supersteps).
    pub shuffle: ExchangeStats,
    /// Total stage-broadcast traffic (all Broadcast supersteps summed).
    pub bcast: ExchangeStats,
    /// Fold traffic (merged chunk rows to their row owners).
    pub fold: ExchangeStats,
    /// `stage_send_msgs[t][r]` = broadcast fragments rank `r` sent in
    /// stage `t`; every entry is ≤ [`SummaGrid::stage_message_bound`].
    pub stage_send_msgs: Vec<Vec<u64>>,
    /// Per-rank multiply flops (2 per product term).
    pub multiply_flops: Vec<u64>,
    /// Per-rank merge flops (cross-stage merge + owner assembly).
    pub merge_flops: Vec<u64>,
}

impl SummaSpgemm {
    /// Reassembles the global C (test oracle); bitwise comparable to the
    /// serial [`sf2d_graph::spgemm`] when row sums are exact.
    pub fn to_global(&self) -> CsrMatrix {
        to_global(&self.vmap, self.ncols, &self.locals)
    }

    /// Total messages sent by rank `r` across every phase (shuffles,
    /// all stage broadcasts, fold).
    pub fn send_msgs(&self, r: usize) -> u64 {
        self.shuffle.send_msgs[r] + self.bcast.send_msgs[r] + self.fold.send_msgs[r]
    }

    /// Max total messages sent by any rank — the figure the paper-claims
    /// suite compares against expand/fold's worst layout.
    pub fn max_send_msgs(&self) -> u64 {
        (0..self.shuffle.send_msgs.len())
            .map(|r| self.send_msgs(r))
            .max()
            .unwrap_or(0)
    }

    /// Total doubles moved across every phase.
    pub fn total_volume(&self) -> u64 {
        self.shuffle.total_volume() + self.bcast.total_volume() + self.fold.total_volume()
    }
}

/// `[lo, hi)` of C/B columns assigned to grid column `j`.
#[inline]
fn chunk_range(bcols: usize, gc: usize, j: usize) -> (usize, usize) {
    (j * bcols / gc, (j + 1) * bcols / gc)
}

/// The part of `row` in the column range `[lo, hi)`.
fn chunk((cols, vals): Row<'_>, (lo, hi): (usize, usize)) -> Row<'_> {
    let a = cols.partition_point(|&c| (c as usize) < lo);
    let b = cols.partition_point(|&c| (c as usize) < hi);
    (&cols[a..b], &vals[a..b])
}

/// Local row `li` of `block` restricted to the columns stage `s`
/// consumes, as `(global column, value)` pairs — the sub-row its grid-row
/// peer in grid column `s` reads in the A-shuffle.
fn stage_entries<'a>(
    block: &'a RankBlock,
    li: usize,
    s: u32,
    rpart: &'a [u32],
    g: SummaGrid,
) -> impl Iterator<Item = (u32, f64)> + 'a {
    let (lcols, vals) = block.row(li);
    let entries = lcols.iter().zip(vals);
    entries
        .map(|(&lj, &v)| (block.colmap[lj as usize], v))
        .filter(move |&(gj, _)| g.col_of_part(rpart[gj as usize]) == s)
}

/// Positions of the rows of `merged` whose C row `owner` owns.
fn owned_rows<'a>(
    merged: &'a HyperCsr,
    vmap: &'a VectorMap,
    owner: u32,
) -> impl Iterator<Item = usize> + 'a {
    (0..merged.nrows()).filter(move |&k| vmap.owner(merged.rows[k]) == owner)
}

/// Doubles a block takes framed, `[gid, nnz, cols…, vals…]` per row.
fn framed_block(h: &HyperCsr) -> u64 {
    let rows = h.ptr.windows(2);
    rows.map(|w| framed_len(w[1] - w[0], true)).sum()
}

/// Bills a directed exchange off what each rank read: one message of the
/// recorded framed doubles from every peer it read a nonempty share of.
fn inbound_stats(ranks: &[RankSummaScratch]) -> ExchangeStats {
    let mut stats = ExchangeStats::zero(ranks.len());
    for (r, s) in ranks.iter().enumerate() {
        for &(src, doubles) in &s.inbound {
            if src as usize != r && doubles > 0 {
                stats.bill(src as usize, r, doubles);
            }
        }
    }
    stats
}

/// Where root `r` fans its stage block out: along its grid row to
/// every other grid column (`along_row`, the A broadcast) or down its
/// grid column to every other grid row (the B broadcast) — a pure
/// function of the grid, so no destination lists are built.
fn bcast_dsts(g: SummaGrid, along_row: bool, r: u32) -> impl Iterator<Item = u32> {
    let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
    let (n, own) = if along_row { (g.gc, rj) } else { (g.gr, ri) };
    (0..n).filter(move |&x| x != own).map(move |x| {
        if along_row {
            g.rank_at(ri, x)
        } else {
            g.rank_at(x, rj)
        }
    })
}

/// Bills one broadcast round: every root with a nonempty stage block
/// (`block(root)`) sends it to each of its [`bcast_dsts`] — the simulator
/// has no multicast, so the root is billed one point-to-point send per
/// destination and each destination one receive.
fn bcast_stats<'a>(
    g: SummaGrid,
    p: usize,
    (along_row, t): (bool, u32),
    block: impl Fn(usize) -> &'a HyperCsr,
) -> ExchangeStats {
    let mut stats = ExchangeStats::zero(p);
    for root in (0..p as u32).filter(|&r| g.bcast_root(along_row, r, t) == r) {
        let doubles = framed_block(block(root as usize));
        if doubles > 0 {
            for d in bcast_dsts(g, along_row, root) {
                stats.bill(root as usize, d as usize, doubles);
            }
        }
    }
    stats
}

/// Gathers rank `r`'s stage-aligned A block: from each grid-row peer's
/// local rows (its own included) the entries of stage column `rj`, read
/// where they live, in ascending global row order. A row comes whole from
/// one rank (its owner under a 1D layout, `r` itself under a 2D one), so
/// nothing is merged. Notes the framed doubles read from each peer.
fn build_a_block(
    s: &mut RankSummaScratch,
    a_block: &mut HyperCsr,
    r: usize,
    a: &DistCsrMatrix,
    rpart: &[u32],
    g: SummaGrid,
) {
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    s.keys.clear();
    s.inbound.clear();
    for st in 0..g.gc {
        let src = g.rank_at(ri, st);
        let block = &a.blocks[src as usize];
        for (li, &gid) in block.rowmap.iter().enumerate() {
            if stage_entries(block, li, rj, rpart, g).next().is_some() {
                s.keys.push((gid, st, li as u32));
            }
        }
        s.inbound.push((src, 0));
    }
    // Only rows with entries in the stage are sorted: under a 2D layout
    // those are the rank's own rows, already in order.
    s.keys.sort_unstable();
    a_block.clear();
    for &(gid, st, li) in &s.keys {
        let block = &a.blocks[s.inbound[st as usize].0 as usize];
        let before = a_block.nnz();
        for (gj, v) in stage_entries(block, li as usize, rj, rpart, g) {
            a_block.cols.push(gj);
            a_block.vals.push(v);
        }
        a_block.close_row(gid);
        s.inbound[st as usize].1 += framed_len(a_block.nnz() - before, true);
    }
}

/// Gathers the stage blocks rank `r` roots: for every stage `t` with
/// `t mod gr` = its grid row, the stage-`t` B rows — those of the vector
/// owners in grid column `t`, its own among them when it sits there —
/// restricted to its own column chunk, read where they live, in ascending
/// global row order. Notes the framed doubles read from each owner.
fn build_b_stages(
    s: &mut RankSummaScratch,
    b_stage: &mut [HyperCsr],
    r: usize,
    b: &CsrMatrix,
    vmap: &VectorMap,
    g: SummaGrid,
) {
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    let range = chunk_range(b.ncols(), g.gc as usize, rj as usize);
    s.inbound.clear();
    for t in (0..g.gc).filter(|t| t % g.gr == ri) {
        let base = s.inbound.len();
        s.keys.clear();
        for i in 0..g.gr {
            let src = g.rank_at(i, t);
            s.keys
                .extend(vmap.gids(src as usize).iter().map(|&gid| (gid, i, 0)));
            s.inbound.push((src, 0));
        }
        s.keys.sort_unstable();
        let bt = &mut b_stage[t as usize];
        for &(gid, i, _) in &s.keys {
            let (cols, vals) = chunk(b.row(gid as usize), range);
            if !cols.is_empty() {
                bt.push_row(gid, cols, vals);
                s.inbound[base + i as usize].1 += framed_len(cols.len(), true);
            }
        }
    }
}

/// A rank's product, row by row, into its chunk block `merged`. For each
/// gid present in any of its stage A blocks (`a(t)`, `gc` of them), in
/// ascending order: the row's Gustavson against each stage's B block
/// (`b(t)`, read at its root), stages ascending, each drained into its own
/// row of `w.rows`; then those rows summed in stage order (the fixed
/// reassociation the differential suite pins bitwise). Per-stage product
/// terms land in `s.stage_terms`, the drain arms in `s.arms`; returns the
/// entries merged (1 flop each).
fn multiply_merge<'a>(
    w: &mut Worker,
    s: &mut RankSummaScratch,
    merged: &mut HyperCsr,
    a: impl Fn(usize) -> &'a HyperCsr,
    b: impl Fn(usize) -> &'a HyperCsr,
) -> u64 {
    let (Worker { spa, rows, at, .. }, stage_terms) = (w, &mut s.stage_terms);
    let gc = stage_terms.len();
    stage_terms.fill(0);
    at.clear();
    at.resize(gc, 0);
    merged.clear();
    spa.counting(&mut s.arms, |spa| {
        let mut flops = 0u64;
        loop {
            let next = (0..gc).filter_map(|t| a(t).rows.get(at[t]).copied()).min();
            let Some(gid) = next else { break };
            rows.reset();
            for t in 0..gc {
                let block = a(t);
                if block.rows.get(at[t]) == Some(&gid) {
                    let (_, acols, avals) = block.row_at(at[t]);
                    for (&j, &aij) in acols.iter().zip(avals) {
                        if let Some((bc, bv)) = b(t).row(j) {
                            for (&c, &bjc) in bc.iter().zip(bv) {
                                spa.add(c, aij * bjc);
                            }
                            stage_terms[t] += bc.len() as u64;
                        }
                    }
                    spa.drain(&mut rows.cols, &mut rows.vals);
                    at[t] += 1;
                }
                rows.close_row();
            }
            if rows.cols.is_empty() {
                continue;
            }
            flops += (0..gc).map(|t| accumulate(spa, rows.row(t))).sum::<u64>();
            spa.drain(&mut merged.cols, &mut merged.vals);
            merged.close_row(gid);
        }
        flops
    })
}

/// Assembles rank `r`'s owned C rows: per row, the `gc` column-chunk
/// contributions — its rows of its own and each grid-row peer's merged
/// chunk block, read where they live — concatenated in ascending chunk
/// order. Chunks are disjoint ascending column ranges, so concatenation
/// yields sorted rows with no arithmetic. Notes the framed doubles read
/// from each peer and returns entries assembled (billed 1 flop each, like
/// the merge).
fn assemble(
    s: &mut RankSummaScratch,
    r: usize,
    g: SummaGrid,
    vmap: &VectorMap,
    merged: &[HyperCsr],
) -> u64 {
    let ri = g.row_of_rank(r as u32);
    let merged_of = |sc: u32| &merged[g.rank_at(ri, sc) as usize];
    s.keys.clear();
    s.inbound.clear();
    for sc in 0..g.gc {
        let merged = merged_of(sc);
        let mut doubles = 0;
        for k in owned_rows(merged, vmap, r as u32) {
            s.keys.push((vmap.lid(merged.rows[k]) as u32, sc, k as u32));
            doubles += framed_len(merged.ptr[k + 1] - merged.ptr[k], true);
        }
        s.inbound.push((g.rank_at(ri, sc), doubles));
    }
    s.keys.sort_unstable();
    s.out.reset();
    let mut flops = 0u64;
    let mut cur = 0usize;
    for lid in 0..vmap.nlocal(r) as u32 {
        while cur < s.keys.len() && s.keys[cur].0 == lid {
            let (_, sc, k) = s.keys[cur];
            let (_, cols, vals) = merged_of(sc).row_at(k as usize);
            s.out.cols.extend_from_slice(cols);
            s.out.vals.extend_from_slice(vals);
            flops += cols.len() as u64;
            cur += 1;
        }
        s.out.close_row();
    }
    flops
}

/// Frames every row of a block onto `f`'s open message.
fn frame_block(f: &mut Framed, h: &HyperCsr) {
    for k in 0..h.nrows() {
        let (gid, cols, vals) = h.row_at(k);
        f.row(Some(gid), (cols, vals));
    }
}

/// Under chaos only: the A-shuffle framed for [`mirror`] — each rank's
/// sub-rows for every other stage column, sent to that column's peer in
/// its grid row, and each rank's view of the sub-rows it reads from every
/// such peer.
fn mirror_a_shuffle(
    (rt, ledger): (&mut ChaosRuntime, &mut CostLedger),
    a: &DistCsrMatrix,
    rpart: &[u32],
    g: SummaGrid,
) {
    let frame = |f: &mut Framed, src: u32, stage: u32| {
        let block = &a.blocks[src as usize];
        for (li, &gid) in block.rowmap.iter().enumerate() {
            let (cols, vals): (Vec<u32>, Vec<f64>) =
                stage_entries(block, li, stage, rpart, g).unzip();
            if !cols.is_empty() {
                f.row(Some(gid), (&cols, &vals));
            }
        }
    };
    let p = a.nprocs();
    let (mut sends, mut views) = (Framed::new(p), Framed::new(p));
    for r in 0..p as u32 {
        let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
        for s in (0..g.gc).filter(|&s| s != rj) {
            let peer = g.rank_at(ri, s);
            frame(&mut sends, r, s);
            sends.seal(r as usize, peer);
            frame(&mut views, peer, rj);
            views.seal(r as usize, peer);
        }
    }
    mirror(rt, ledger, "summa a-shuffle", &sends, &views);
}

/// Under chaos only: the B-shuffle framed for [`mirror`] — each owner's
/// rows split into column chunks, chunk `j` sent to its stage's root in
/// grid column `j`, and each root's view of the chunk it reads from every
/// owner of a stage it roots.
fn mirror_b_shuffle(
    (rt, ledger): (&mut ChaosRuntime, &mut CostLedger),
    b: &CsrMatrix,
    vmap: &VectorMap,
    g: SummaGrid,
) {
    let frame = |f: &mut Framed, owner: u32, j: u32| {
        let range = chunk_range(b.ncols(), g.gc as usize, j as usize);
        for &gid in vmap.gids(owner as usize) {
            let row = chunk(b.row(gid as usize), range);
            if !row.0.is_empty() {
                f.row(Some(gid), row);
            }
        }
    };
    let p = vmap.nprocs();
    let (mut sends, mut views) = (Framed::new(p), Framed::new(p));
    for r in 0..p as u32 {
        let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
        for root in (0..g.gc).map(|j| g.rank_at(rj % g.gr, j)) {
            if root != r {
                frame(&mut sends, r, g.col_of_rank(root));
                sends.seal(r as usize, root);
            }
        }
        for t in (0..g.gc).filter(|t| t % g.gr == ri) {
            for src in (0..g.gr).map(|i| g.rank_at(i, t)).filter(|&src| src != r) {
                frame(&mut views, src, rj);
                views.seal(r as usize, src);
            }
        }
    }
    mirror(rt, ledger, "summa b-shuffle", &sends, &views);
}

/// Under chaos only: stage `t`'s broadcast framed for [`mirror`] — each
/// root's block once per destination, and for every other rank the block
/// of the root it reads.
fn mirror_bcast<'a>(
    (rt, ledger): (&mut ChaosRuntime, &mut CostLedger),
    (what, along_row, t): (&str, bool, u32),
    g: SummaGrid,
    p: usize,
    block: impl Fn(usize) -> &'a HyperCsr,
) {
    let (mut sends, mut views) = (Framed::new(p), Framed::new(p));
    for r in 0..p as u32 {
        let root = g.bcast_root(along_row, r, t);
        if root == r {
            for d in bcast_dsts(g, along_row, r) {
                frame_block(&mut sends, block(r as usize));
                sends.seal(r as usize, d);
            }
        } else {
            frame_block(&mut views, block(root as usize));
            views.seal(r as usize, root);
        }
    }
    mirror(rt, ledger, what, &sends, &views);
}

/// Under chaos only: the fold framed for [`mirror`] — each rank's merged
/// chunk rows sent to their owners among its grid-row peers
/// (`merged(q)` is the block rank `q` sends from), and each owner's view
/// of its rows in every peer's block (`read(q)` is the block it reads as
/// rank `q`'s).
fn mirror_fold<'a>(
    (rt, ledger): (&mut ChaosRuntime, &mut CostLedger),
    g: SummaGrid,
    vmap: &VectorMap,
    merged: impl Fn(u32) -> &'a HyperCsr,
    read: impl Fn(u32) -> &'a HyperCsr,
) {
    let frame = |f: &mut Framed, h: &HyperCsr, owner: u32| {
        for k in owned_rows(h, vmap, owner) {
            let (gid, cols, vals) = h.row_at(k);
            f.row(Some(gid), (cols, vals));
        }
    };
    let p = vmap.nprocs();
    let (mut sends, mut views) = (Framed::new(p), Framed::new(p));
    for r in 0..p as u32 {
        let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
        for peer in (0..g.gc).filter(|&sc| sc != rj).map(|sc| g.rank_at(ri, sc)) {
            frame(&mut sends, merged(r), peer);
            sends.seal(r as usize, peer);
            frame(&mut views, read(peer), r);
            views.seal(r as usize, peer);
        }
    }
    mirror(rt, ledger, "summa fold", &sends, &views);
}

/// The shared SUMMA driver: plain when `chaos` is `None`, otherwise every
/// exchange is also framed and handed to
/// [`ChaosRuntime::mirror_exchange`] with the receive views the kernel
/// reads (the roots' blocks, the peers' owned rows), and the healed
/// deliveries are asserted bit-identical to them (so a rate-0 chaos run is
/// byte-identical — values *and* ledger — to the plain path, which the
/// chaos tests pin).
fn summa_inner(
    a: &DistCsrMatrix,
    dist: &MatrixDist,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    ws: &mut SummaWorkspace,
    mut chaos: Option<&mut ChaosRuntime>,
) -> SummaSpgemm {
    assert_eq!(
        a.n,
        b.nrows(),
        "summa: A is {}x{} but B has {} rows",
        a.n,
        a.n,
        b.nrows()
    );
    assert_eq!(
        a.nprocs(),
        dist.nprocs(),
        "summa: A is distributed over {} ranks but dist has {}",
        a.nprocs(),
        dist.nprocs()
    );
    assert_eq!(a.n, dist.n(), "summa: dist covers a different row space");
    debug_assert!(
        (0..a.n as u32).all(|k| a.vmap.owner(k) == dist.vector_owner(k)),
        "summa: A's vector map disagrees with the distribution"
    );

    let g = SummaGrid::from_dist(dist);
    let p = dist.nprocs();
    let gc = g.gc as usize;
    let bcols = b.ncols();
    ws.ensure(p, gc, bcols);
    let SummaWorkspace {
        threads,
        workers,
        ranks,
        blocks,
        merged,
    } = ws;
    let threads = *threads;
    let rpart = dist.rpart();
    let vmap = &a.vmap;

    // Phase 1 — A-shuffle: each rank gathers its stage-aligned A block
    // out of its grid-row peers' rows.
    trace_span!(PhaseKind::Unpack, "summa:a-shuffle", {
        par_zip(threads, ranks, blocks, |r, scratch, bl| {
            build_a_block(scratch, &mut bl.a_block, r, a, rpart, g);
        })
    });
    let mut shuffle = inbound_stats(ranks);
    ledger.superstep(Phase::Expand, &shuffle.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        mirror_a_shuffle((rt, ledger), a, rpart, g);
    }

    // Phase 2 — B-shuffle: each stage root gathers its column chunk of
    // the stage's B rows from their owners.
    trace_span!(PhaseKind::Unpack, "summa:b-shuffle", {
        par_zip(threads, ranks, blocks, |r, scratch, bl| {
            build_b_stages(scratch, &mut bl.b_stage, r, b, vmap, g);
        })
    });
    let shuffle_b = inbound_stats(ranks);
    ledger.superstep(Phase::Expand, &shuffle_b.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        mirror_b_shuffle((rt, ledger), b, vmap, g);
    }
    shuffle.add(&shuffle_b);

    // The product, row by row: each rank reads its stage blocks at their
    // roots and keeps only the cross-stage sums.
    let bl: &[SummaBlocks] = blocks;
    trace_span!(PhaseKind::Multiply, "summa:multiply", {
        let mut items: Vec<_> = ranks.iter_mut().zip(merged.iter_mut()).collect();
        par_workers(threads, workers, &mut items, |w, r, (scratch, merged)| {
            let a = |t: usize| &bl[g.bcast_root(true, r as u32, t as u32) as usize].a_block;
            let b = |t: usize| &bl[g.bcast_root(false, r as u32, t as u32) as usize].b_stage[t];
            scratch.merged_flops = multiply_merge(w, scratch, merged, a, b);
            merged.shrink_to_fit();
        })
    });

    // Stages: row-broadcast A, col-broadcast B, multiply — billed in stage
    // order off each stage's own term counts.
    let mut bcast = ExchangeStats::zero(p);
    let mut stage_send_msgs: Vec<Vec<u64>> = Vec::with_capacity(gc);
    for t in 0..g.gc {
        let a_of = |q: usize| &bl[q].a_block;
        let b_of = |q: usize| &bl[q].b_stage[t as usize];
        let a_stats = bcast_stats(g, p, (true, t), a_of);
        ledger.superstep(Phase::Broadcast, &a_stats.costs);
        if let Some(rt) = chaos.as_deref_mut() {
            mirror_bcast((rt, ledger), ("summa a-bcast", true, t), g, p, a_of);
        }
        let b_stats = bcast_stats(g, p, (false, t), b_of);
        ledger.superstep(Phase::Broadcast, &b_stats.costs);
        if let Some(rt) = chaos.as_deref_mut() {
            mirror_bcast((rt, ledger), ("summa b-bcast", false, t), g, p, b_of);
        }
        let terms = ranks.iter().map(|s| 2 * s.stage_terms[t as usize]);
        ledger.superstep(Phase::Multiply, &compute_costs(terms));
        let msgs = (0..p).map(|r| a_stats.send_msgs[r] + b_stats.send_msgs[r]);
        stage_send_msgs.push(msgs.collect());
        bcast.add(&a_stats);
        bcast.add(&b_stats);
    }

    // Cross-stage merge: fixed stage-ascending order per row.
    let merges = ranks.iter().map(|s| s.merged_flops);
    ledger.superstep(Phase::Merge, &compute_costs(merges));
    publish_drain_arms("summa", ranks.iter().map(|s| s.arms));

    // Fold and assembly: each C row owner concatenates its rows of its
    // grid-row peers' merged chunk blocks, read where they live.
    let merged: &[HyperCsr] = merged;
    trace_span!(PhaseKind::Merge, "summa:assemble", {
        par_ranks(threads, ranks, |r, scratch| {
            scratch.assemble_flops = assemble(scratch, r, g, vmap, merged);
        })
    });
    let fold = inbound_stats(ranks);
    ledger.superstep(Phase::Fold, &fold.costs);
    if let Some(rt) = chaos {
        let merged = |q: u32| &merged[q as usize];
        mirror_fold((rt, ledger), g, vmap, merged, merged);
    }
    let assemble_costs: Vec<PhaseCost> = ranks
        .iter()
        .map(|s| PhaseCost::compute(s.assemble_flops))
        .collect();
    ledger.superstep(Phase::Merge, &assemble_costs);

    // Close nnz(C) and move the owned rows into the output blocks.
    let multiply_flops = ranks.iter().map(|s| 2 * s.stage_terms.iter().sum::<u64>());
    let merge_flops = ranks.iter().map(|s| s.merged_flops + s.assemble_flops);
    let (multiply_flops, merge_flops) = (multiply_flops.collect(), merge_flops.collect());
    let rows = ranks.iter_mut().map(|s| s.out.take());
    let (locals, nnz) = close_output(vmap, bcols, rows, ledger);

    SummaSpgemm {
        vmap: Arc::clone(vmap),
        ncols: bcols,
        locals,
        nnz,
        grid: g,
        shuffle,
        bcast,
        fold,
        stage_send_msgs,
        multiply_flops,
        merge_flops,
    }
}

/// Sparse SUMMA `C = A·B` over the grid `dist` induces, charging
/// Expand (shuffles) / Broadcast / Multiply / Merge / Fold / Collective
/// supersteps to the ledger.
///
/// `dist` must be the distribution `a` was built from (checked against
/// the rank count, row space, and — in debug builds — the vector map).
/// Convenience wrapper over [`summa_with`] with a throwaway sequential
/// workspace.
pub fn summa_dist(
    a: &DistCsrMatrix,
    dist: &MatrixDist,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
) -> SummaSpgemm {
    summa_with(a, dist, b, ledger, &mut SummaWorkspace::new())
}

/// [`summa_dist`] through a reusable [`SummaWorkspace`]: scratch and the
/// blocks peers read are borrowed from `ws` and the per-rank phase work
/// fans out across `ws.threads` OS threads (bit-identical results for any
/// count).
pub fn summa_with(
    a: &DistCsrMatrix,
    dist: &MatrixDist,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    ws: &mut SummaWorkspace,
) -> SummaSpgemm {
    summa_inner(a, dist, b, ledger, ws, None)
}

/// Sparse SUMMA under fault injection: every exchange — both shuffles,
/// every stage's two broadcasts, and the fold — is also framed onto the
/// chaos wire, healed deliveries are asserted bit-identical to what each
/// receiver reads, and recovery traffic is billed as `Retransmit`
/// supersteps. At rate 0 the run is byte-identical (values *and* ledger)
/// to [`summa_with`].
pub fn summa_chaos(
    a: &DistCsrMatrix,
    dist: &MatrixDist,
    b: &CsrMatrix,
    ledger: &mut CostLedger,
    rt: &mut ChaosRuntime,
) -> SummaSpgemm {
    let mut ws = SummaWorkspace::with_threads(rt.threads);
    summa_inner(a, dist, b, ledger, &mut ws, Some(rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::six_layouts;
    use crate::workspace::Spa;
    use proptest::prelude::*;
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::spgemm;
    use sf2d_sim::cost::PhaseCost;
    use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
    use sf2d_sim::Machine;

    fn check_layout(a: &CsrMatrix, b: &CsrMatrix, dist: &MatrixDist) {
        let dm = DistCsrMatrix::from_global(a, dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, dist, b, &mut ledger);
        let want = spgemm(a, b);
        let got = c.to_global();
        assert_eq!(got, want);
        assert_eq!(c.nnz, want.nnz() as u64);
        assert!(ledger.total > 0.0);
    }

    #[test]
    fn all_basic_layouts_match_the_serial_oracle() {
        let a = rmat(&RmatConfig::graph500(6), 11);
        let b = a.transpose();
        let n = a.nrows();
        for p in [1usize, 4, 6] {
            let (pr, pc) = grid_shape(p);
            check_layout(&a, &b, &MatrixDist::block_1d(n, p));
            check_layout(&a, &b, &MatrixDist::random_1d(n, p, 5));
            check_layout(&a, &b, &MatrixDist::block_2d(n, pr, pc));
            check_layout(&a, &b, &MatrixDist::random_2d(n, pr, pc, 6));
            check_layout(&a, &b, &MatrixDist::block_2d(n, pr, pc).interchanged());
        }
    }

    #[test]
    fn grid_matches_every_distribution_mode() {
        // The structural assumption under the whole kernel: the
        // distribution's own owner maps agree with the induced grid.
        let n = 64usize;
        let dists = [
            MatrixDist::block_1d(n, 6),
            MatrixDist::random_1d(n, 6, 3),
            MatrixDist::block_2d(n, 2, 3),
            MatrixDist::random_2d(n, 2, 3, 4),
            MatrixDist::block_2d(n, 2, 3).interchanged(),
        ];
        for dist in &dists {
            let g = SummaGrid::from_dist(dist);
            assert_eq!((g.gr * g.gc) as usize, dist.nprocs());
            let rpart = dist.rpart();
            for k in 0..n as u32 {
                let q = rpart[k as usize];
                let owner = dist.vector_owner(k);
                assert_eq!(g.row_of_rank(owner), g.row_of_part(q));
                assert_eq!(g.col_of_rank(owner), g.col_of_part(q));
            }
            let two_d = !matches!(dist.mode(), DistMode::OneD);
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    let o = dist.nonzero_owner(i, j);
                    assert_eq!(g.row_of_rank(o), g.row_of_part(rpart[i as usize]));
                    if two_d {
                        assert_eq!(g.col_of_rank(o), g.col_of_part(rpart[j as usize]));
                    }
                }
            }
        }
    }

    #[test]
    fn rectangular_b_is_supported() {
        let a = grid_2d(4, 4);
        let mut coo = sf2d_graph::CooMatrix::new(16, 3);
        for i in 0..16u32 {
            coo.push(i, i % 3, 1.0 + i as f64);
        }
        let b = CsrMatrix::from_coo(&coo);
        let dist = MatrixDist::block_2d(16, 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        assert_eq!(c.to_global(), spgemm(&a, &b));
        assert_eq!(c.ncols, 3);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_calls_and_threads() {
        let a = rmat(&RmatConfig::graph500(6), 3);
        let b = a.transpose();
        let dist = MatrixDist::random_1d(a.nrows(), 4, 9);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut l0 = CostLedger::new(Machine::cab());
        let gold = summa_dist(&dm, &dist, &b, &mut l0);
        for threads in [1usize, 2, 8] {
            let mut ws = SummaWorkspace::with_threads(threads);
            for _ in 0..2 {
                let mut l = CostLedger::new(Machine::cab());
                let c = summa_with(&dm, &dist, &b, &mut l, &mut ws);
                for (cl, gl) in c.locals.iter().zip(&gold.locals) {
                    assert_eq!(cl, gl);
                    let cb: Vec<u64> = cl.values().iter().map(|v| v.to_bits()).collect();
                    let gb: Vec<u64> = gl.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(cb, gb);
                }
                assert_eq!(l.total.to_bits(), l0.total.to_bits());
                assert_eq!(l.history, l0.history);
            }
        }
    }

    #[test]
    fn per_stage_sends_respect_the_communication_avoiding_bound() {
        let a = rmat(&RmatConfig::graph500(7), 9);
        let b = a.transpose();
        let n = a.nrows();
        // The bound is layout-independent — check the adversarial case
        // (1D random, whose expand/fold kernel needs up to p − 1 sends).
        for dist in [
            MatrixDist::random_1d(n, 16, 7),
            MatrixDist::block_2d(n, 4, 4),
        ] {
            let dm = DistCsrMatrix::from_global(&a, &dist);
            let mut ledger = CostLedger::new(Machine::cab());
            let c = summa_dist(&dm, &dist, &b, &mut ledger);
            let bound = c.grid.stage_message_bound();
            assert_eq!(c.stage_send_msgs.len(), c.grid.gc() as usize);
            for stage in &c.stage_send_msgs {
                for &sends in stage {
                    assert!(sends <= bound, "stage sends {sends} > bound {bound}");
                }
            }
            assert_eq!(c.to_global(), spgemm(&a, &b));
        }
    }

    #[test]
    fn two_d_layouts_skip_the_a_shuffle() {
        let a = rmat(&RmatConfig::graph500(6), 5);
        let b = a.transpose();
        let dist = MatrixDist::block_2d(a.nrows(), 2, 3);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        // The combined shuffle stats still include B traffic; isolate A
        // by checking the first Expand superstep in the history is free.
        let expands: Vec<f64> = ledger
            .history
            .iter()
            .filter(|(ph, _)| *ph == Phase::Expand)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(expands.len(), 2);
        assert_eq!(expands[0], 0.0, "2D A-shuffle must be a no-op");
        assert_eq!(c.to_global(), spgemm(&a, &b));
    }

    #[test]
    fn one_d_layouts_shuffle_a_and_still_match() {
        let a = rmat(&RmatConfig::graph500(6), 2);
        let b = a.transpose();
        let dist = MatrixDist::random_1d(a.nrows(), 4, 7);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        assert!(c.shuffle.total_volume() > 0, "1D must redistribute A");
        assert_eq!(c.to_global(), spgemm(&a, &b));
    }

    #[test]
    fn flops_sum_to_the_serial_count() {
        let a = rmat(&RmatConfig::graph500(6), 13);
        let b = a.transpose();
        let dist = MatrixDist::block_2d(a.nrows(), 2, 3);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        let total: u64 = c.multiply_flops.iter().sum();
        assert_eq!(total, sf2d_graph::spgemm_flops(&a, &b));
    }

    #[test]
    fn ledger_history_has_the_fixed_summa_shape() {
        let a = rmat(&RmatConfig::graph500(6), 4);
        let b = a.transpose();
        let dist = MatrixDist::block_2d(a.nrows(), 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_dist(&dm, &dist, &b, &mut ledger);
        let gc = c.grid.gc() as usize;
        let mut want = vec![Phase::Expand, Phase::Expand];
        for _ in 0..gc {
            want.extend([Phase::Broadcast, Phase::Broadcast, Phase::Multiply]);
        }
        want.extend([Phase::Merge, Phase::Fold, Phase::Merge, Phase::Collective]);
        let got: Vec<Phase> = ledger.history.iter().map(|(ph, _)| *ph).collect();
        assert_eq!(got, want);
    }

    fn chaos_fixture() -> (CsrMatrix, CsrMatrix, MatrixDist, DistCsrMatrix) {
        let a = rmat(&RmatConfig::graph500(6), 17);
        let b = a.transpose();
        let dist = MatrixDist::block_2d(a.nrows(), 2, 2);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        (a, b, dist, dm)
    }

    #[test]
    fn chaos_rate_zero_is_byte_identical_to_plain() {
        let (_a, b, dist, dm) = chaos_fixture();
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = summa_dist(&dm, &dist, &b, &mut l0);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(42, 0.0);
        let chaotic = summa_chaos(&dm, &dist, &b, &mut l1, &mut rt);
        assert_eq!(plain.locals, chaotic.locals);
        assert_eq!(l0.history, l1.history);
        assert_eq!(l0.total.to_bits(), l1.total.to_bits());
    }

    #[test]
    fn chaos_seeded_faults_recover_the_fault_free_bits_at_extra_cost() {
        let (_a, b, dist, dm) = chaos_fixture();
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = summa_dist(&dm, &dist, &b, &mut l0);
        let mut l1 = CostLedger::new(Machine::cab());
        let mut rt = ChaosRuntime::seeded(7, 0.4);
        let chaotic = summa_chaos(&dm, &dist, &b, &mut l1, &mut rt);
        assert_eq!(plain.locals, chaotic.locals);
        assert!(rt.stats.any(), "rate 0.4 injected nothing");
        assert!(l1.total > l0.total, "faults should cost extra");
    }

    #[test]
    fn chaos_scripted_stage_broadcast_drop_is_healed() {
        let (_a, b, dist, dm) = chaos_fixture();
        // Stage 0's A-broadcast is routing step 2; on the 2x2 grid rank 0
        // roots it and fans out to its row peer, rank 2.
        let script = FaultScript::default().fault(2, 0, 2, 0, FaultKind::Drop);
        let mut rt = ChaosRuntime::scripted(script);
        let mut l = CostLedger::new(Machine::cab());
        let chaotic = summa_chaos(&dm, &dist, &b, &mut l, &mut rt);
        let mut l0 = CostLedger::new(Machine::cab());
        let plain = summa_dist(&dm, &dist, &b, &mut l0);
        assert_eq!(plain.locals, chaotic.locals);
        assert_eq!(rt.stats.drops, 1, "the scripted drop must land");
        assert!(
            l.history.iter().any(|(ph, _)| *ph == Phase::Retransmit),
            "drop should bill a retransmit superstep"
        );
    }

    #[test]
    fn chaos_matches_across_thread_counts() {
        let (_a, b, dist, dm) = chaos_fixture();
        let mut gold: Option<SummaSpgemm> = None;
        for threads in [1usize, 2, 8] {
            let mut rt = ChaosRuntime::seeded(99, 0.2).with_threads(threads);
            let mut l = CostLedger::new(Machine::cab());
            let c = summa_chaos(&dm, &dist, &b, &mut l, &mut rt);
            match &gold {
                None => gold = Some(c),
                Some(g) => {
                    assert_eq!(g.locals, c.locals);
                    for (gl, cl) in g.locals.iter().zip(&c.locals) {
                        let gb: Vec<u64> = gl.values().iter().map(|v| v.to_bits()).collect();
                        let cb: Vec<u64> = cl.values().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(gb, cb);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "B has")]
    fn dimension_mismatch_is_rejected() {
        let a = grid_2d(3, 3);
        let dist = MatrixDist::block_1d(9, 2);
        let dm = DistCsrMatrix::from_global(&a, &dist);
        let b = grid_2d(2, 2);
        summa_dist(&dm, &dist, &b, &mut CostLedger::new(Machine::cab()));
    }

    /// One directed exchange as the old framing built it: per rank its
    /// `(dst, payload)` messages.
    type Msgs = Vec<Vec<(u32, Vec<f64>)>>;

    /// The old row serializer: `[gid, nnz, cols…, vals…]`.
    fn push_keyed(msg: &mut Vec<f64>, gid: u32, cols: &[u32], vals: &[f64]) {
        msg.push(gid as f64);
        msg.push(cols.len() as f64);
        msg.extend(cols.iter().map(|&c| c as f64));
        msg.extend_from_slice(vals);
    }

    /// The old A-shuffle packing: rank `o`'s sub-rows of every other
    /// stage column, sealed (if nonempty) to that column's grid-row peer.
    fn old_shuffle_a(a: &DistCsrMatrix, rpart: &[u32], g: SummaGrid) -> Msgs {
        (0..a.nprocs() as u32)
            .map(|o| {
                let (oi, oj) = (g.row_of_rank(o), g.col_of_rank(o));
                let block = &a.blocks[o as usize];
                let mut out = Vec::new();
                for s in (0..g.gc).filter(|&s| s != oj) {
                    let mut msg = Vec::new();
                    for li in 0..block.rowmap.len() {
                        let (lcols, vals) = block.row(li);
                        let (mut cols, mut vs) = (Vec::new(), Vec::new());
                        for (&lj, &v) in lcols.iter().zip(vals) {
                            let gj = block.colmap[lj as usize];
                            if g.col_of_part(rpart[gj as usize]) == s {
                                cols.push(gj);
                                vs.push(v);
                            }
                        }
                        if !cols.is_empty() {
                            push_keyed(&mut msg, block.rowmap[li], &cols, &vs);
                        }
                    }
                    if !msg.is_empty() {
                        out.push((g.rank_at(oi, s), msg));
                    }
                }
                out
            })
            .collect()
    }

    /// The old B-shuffle packing: owner `o`'s rows split into column
    /// chunks, chunk `j` sealed (if nonempty) to its stage's root `j`.
    fn old_shuffle_b(b: &CsrMatrix, vmap: &VectorMap, g: SummaGrid) -> Msgs {
        (0..vmap.nprocs() as u32)
            .map(|o| {
                let ti = g.col_of_rank(o) % g.gr;
                let mut out = Vec::new();
                for j in 0..g.gc {
                    let root = g.rank_at(ti, j);
                    if root == o {
                        continue;
                    }
                    let (clo, chi) = chunk_range(b.ncols(), g.gc as usize, j as usize);
                    let mut msg = Vec::new();
                    for &gid in vmap.gids(o as usize) {
                        let (cols, vals) = b.row(gid as usize);
                        let lo = cols.partition_point(|&c| (c as usize) < clo);
                        let hi = cols.partition_point(|&c| (c as usize) < chi);
                        if hi > lo {
                            push_keyed(&mut msg, gid, &cols[lo..hi], &vals[lo..hi]);
                        }
                    }
                    if !msg.is_empty() {
                        out.push((root, msg));
                    }
                }
                out
            })
            .collect()
    }

    /// The old fold packing: rank `r`'s merged rows grouped by their
    /// owner among its grid-row peers, grid columns ascending.
    fn old_fold(merged: &[HyperCsr], vmap: &VectorMap, g: SummaGrid) -> Msgs {
        (0..merged.len() as u32)
            .map(|r| {
                let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
                let merged = &merged[r as usize];
                let mut out = Vec::new();
                for o in (0..g.gc).filter(|&sc| sc != rj).map(|sc| g.rank_at(ri, sc)) {
                    let mut msg = Vec::new();
                    for k in 0..merged.nrows() {
                        let (gid, cols, vals) = merged.row_at(k);
                        if vmap.owner(gid) == o {
                            push_keyed(&mut msg, gid, cols, vals);
                        }
                    }
                    if !msg.is_empty() {
                        out.push((o, msg));
                    }
                }
                out
            })
            .collect()
    }

    /// The old stats of a directed exchange, measured off the bytes.
    fn dir_stats(msgs: &Msgs) -> ExchangeStats {
        let mut stats = ExchangeStats::zero(msgs.len());
        for (r, out) in msgs.iter().enumerate() {
            let doubles: u64 = out.iter().map(|(_, m)| m.len() as u64).sum();
            stats.send_msgs[r] = out.len() as u64;
            stats.send_doubles[r] = doubles;
            stats.costs[r] = PhaseCost::comm(out.len() as u64, 8 * doubles);
        }
        for out in msgs {
            for (d, m) in out {
                let cost = PhaseCost::comm(1, 8 * m.len() as u64);
                stats.costs[*d as usize] = stats.costs[*d as usize].add(&cost);
            }
        }
        stats
    }

    /// The old stats of one broadcast round: every root with a nonempty
    /// block serializes it once and fans it out to its destinations.
    fn old_bcast(blocks: &[SummaBlocks], g: SummaGrid, along_row: bool, t: u32) -> ExchangeStats {
        let p = blocks.len();
        let mut stats = ExchangeStats::zero(p);
        for r in 0..p as u32 {
            let (root, h) = if along_row {
                (g.col_of_rank(r) == t, &blocks[r as usize].a_block)
            } else {
                (
                    g.row_of_rank(r) == t % g.gr,
                    &blocks[r as usize].b_stage[t as usize],
                )
            };
            if !root || h.nnz() == 0 {
                continue;
            }
            let mut msg = Vec::new();
            for k in 0..h.nrows() {
                let (gid, cols, vals) = h.row_at(k);
                push_keyed(&mut msg, gid, cols, vals);
            }
            let doubles = msg.len() as u64;
            let nd = bcast_dsts(g, along_row, r).count() as u64;
            if nd == 0 {
                continue;
            }
            stats.send_msgs[r as usize] = nd;
            stats.send_doubles[r as usize] = nd * doubles;
            stats.costs[r as usize] = PhaseCost::comm(nd, 8 * nd * doubles);
            for d in bcast_dsts(g, along_row, r) {
                let cost = PhaseCost::comm(1, 8 * doubles);
                stats.costs[d as usize] = stats.costs[d as usize].add(&cost);
            }
        }
        stats
    }

    #[test]
    fn billing_matches_the_framed_bytes_on_every_layout() {
        let a = rmat(&RmatConfig::graph500(8), 23);
        let b = a.transpose();
        for p in [1usize, 4, 16, 64] {
            for dist in six_layouts(&a, p) {
                let dm = DistCsrMatrix::from_global(&a, &dist);
                let mut ws = SummaWorkspace::new();
                let mut ledger = CostLedger::new(Machine::cab());
                let c = summa_with(&dm, &dist, &b, &mut ledger, &mut ws);
                let (g, at) = (c.grid, format!("p={p} {:?}", dist.mode()));
                let mut shuffle = dir_stats(&old_shuffle_a(&dm, dist.rpart(), g));
                shuffle.add(&dir_stats(&old_shuffle_b(&b, &dm.vmap, g)));
                assert_eq!(c.shuffle, shuffle, "{at}");
                let mut bcast = ExchangeStats::zero(p);
                for t in 0..g.gc() {
                    let a_stats = old_bcast(&ws.blocks, g, true, t);
                    let b_stats = old_bcast(&ws.blocks, g, false, t);
                    let msgs: Vec<u64> = (0..p)
                        .map(|r| a_stats.send_msgs[r] + b_stats.send_msgs[r])
                        .collect();
                    assert_eq!(c.stage_send_msgs[t as usize], msgs, "{at} stage {t}");
                    bcast.add(&a_stats);
                    bcast.add(&b_stats);
                }
                assert_eq!(c.bcast, bcast, "{at}");
                assert_eq!(
                    c.fold,
                    dir_stats(&old_fold(&ws.merged, &dm.vmap, g)),
                    "{at}"
                );
            }
        }
    }

    /// The staged pass the fused one replaced, kept as its bitwise
    /// oracle: each stage's whole product `A[i][t]·B[t][j]` formed first
    /// (`multiply_stage`), then the stage rows merged per gid in ascending
    /// stage order (`merge_stages`).
    mod staged {
        use super::*;

        /// One stage's local multiply, emitting the stage partial into
        /// `out`. Returns the product terms processed.
        pub fn multiply_stage(
            spa: &mut Spa,
            out: &mut HyperCsr,
            a: &HyperCsr,
            bs: &HyperCsr,
        ) -> u64 {
            let mut terms = 0u64;
            for k in 0..a.nrows() {
                let (gid, acols, avals) = a.row_at(k);
                for (&j, &aij) in acols.iter().zip(avals) {
                    if let Some((bc, bv)) = bs.row(j) {
                        for (&c, &bjc) in bc.iter().zip(bv) {
                            spa.add(c, aij * bjc);
                        }
                        terms += bc.len() as u64;
                    }
                }
                let before = out.nnz();
                spa.drain(&mut out.cols, &mut out.vals);
                if out.nnz() > before {
                    out.close_row(gid);
                }
            }
            terms
        }

        /// Merges the per-stage partials into `merged`, per row in
        /// ascending stage order. Returns entries merged.
        pub fn merge_stages(spa: &mut Spa, stage_out: &[HyperCsr], merged: &mut HyperCsr) -> u64 {
            let mut keys = Vec::new();
            for (t, so) in stage_out.iter().enumerate() {
                for k in 0..so.nrows() {
                    keys.push((so.rows[k], t as u32, k as u32));
                }
            }
            keys.sort_unstable();
            merged.clear();
            let mut flops = 0u64;
            let mut i = 0usize;
            while i < keys.len() {
                let gid = keys[i].0;
                while i < keys.len() && keys[i].0 == gid {
                    let (_, t, k) = keys[i];
                    let (_, cols, vals) = stage_out[t as usize].row_at(k as usize);
                    for (&c, &v) in cols.iter().zip(vals) {
                        spa.add(c, v);
                    }
                    flops += cols.len() as u64;
                    i += 1;
                }
                spa.drain(&mut merged.cols, &mut merged.vals);
                merged.close_row(gid);
            }
            flops
        }
    }

    /// Columns of C in the oracle test: two words and a bit, so rows take
    /// both drain arms.
    const NCOLS: u32 = 130;

    /// Values whose sums expose a reordering: signed zeros, non-finite
    /// values, NaNs with distinct payloads, magnitudes that absorb their
    /// neighbours.
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
        match raw % 5 {
            0 => f64::from_bits(raw.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            1 => -f64::NAN,
            _ => SPECIAL[(raw >> 3) as usize % SPECIAL.len()],
        }
    }

    /// A hypersparse block out of random `(gid, [(col, raw value)])` rows:
    /// gids and columns sorted and deduplicated, empty rows dropped — the
    /// shape the shuffles build.
    fn hyper(rows: &[(u32, Vec<(u32, u64)>)]) -> HyperCsr {
        let mut rows = rows.to_vec();
        rows.sort_by_key(|r| r.0);
        rows.dedup_by_key(|r| r.0);
        let mut h = HyperCsr::default();
        for (gid, mut entries) in rows {
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);
            if !entries.is_empty() {
                for (c, raw) in entries {
                    h.cols.push(c);
                    h.vals.push(value(raw));
                }
                h.close_row(gid);
            }
        }
        h
    }

    /// A block as `(rows, ptr, cols, value bits)`: NaN ≡ NaN exactly when
    /// the payloads agree.
    fn bits(h: &HyperCsr) -> (Vec<u32>, Vec<usize>, Vec<u32>, Vec<u64>) {
        let vals = h.vals.iter().map(|v| v.to_bits()).collect();
        (h.rows.clone(), h.ptr.clone(), h.cols.clone(), vals)
    }

    /// Up to `nrows` random rows over gids `0..rows`, each with up to
    /// `len` entries over columns `0..cols`.
    fn block_strategy(
        (rows, nrows): (u32, usize),
        (cols, len): (u32, usize),
    ) -> impl Strategy<Value = Vec<(u32, Vec<(u32, u64)>)>> {
        let row = proptest::collection::vec((0..cols, 0u64..u64::MAX), 0..len);
        proptest::collection::vec((0..rows, row), 0..nrows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused row-by-row pass ≡ the staged one, bit for bit: the
        /// same merged rows and the same per-stage term counts, over
        /// random hypersparse stage blocks — A rows over 12 gids and 6
        /// inner indices, B rows of up to 40 entries over those 6 and
        /// `NCOLS` columns, dense enough that most entries of C sum terms
        /// from several stages, so a reordered sum shows.
        #[test]
        fn fused_pass_matches_the_staged_oracle(
            stages in proptest::collection::vec(
                (block_strategy((12, 10), (6, 6)), block_strategy((6, 7), (NCOLS, 40))),
                1..5,
            ),
        ) {
            let a: Vec<HyperCsr> = stages.iter().map(|(a, _)| hyper(a)).collect();
            let b: Vec<HyperCsr> = stages.iter().map(|(_, b)| hyper(b)).collect();
            let gc = a.len();

            let mut spa = Spa::default();
            spa.resize(NCOLS as usize);
            let mut stage_out = vec![HyperCsr::default(); gc];
            let terms: Vec<u64> = (0..gc)
                .map(|t| staged::multiply_stage(&mut spa, &mut stage_out[t], &a[t], &b[t]))
                .collect();
            let mut want = HyperCsr::default();
            let want_flops = staged::merge_stages(&mut spa, &stage_out, &mut want);

            let mut w = Worker::default();
            w.spa.resize(NCOLS as usize);
            let mut s = RankSummaScratch {
                stage_terms: vec![7; gc],
                ..RankSummaScratch::default()
            };
            let mut got = HyperCsr::default();
            for _ in 0..2 {
                let flops = multiply_merge(&mut w, &mut s, &mut got, |t| &a[t], |t| &b[t]);
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(&s.stage_terms, &terms);
                prop_assert_eq!(flops, want_flops);
            }
            // Both passes drain the same rows through the same arms.
            let arms = [spa.rows_bitmap, spa.rows_sorted];
            prop_assert_eq!(s.arms, [2 * arms[0], 2 * arms[1]]);
        }
    }

    #[test]
    #[should_panic(expected = "summa fold: ")]
    fn chaos_mirror_checks_the_fold_read_against_the_sender() {
        let (_a, b, dist, dm) = chaos_fixture();
        let mut ws = SummaWorkspace::new();
        summa_with(
            &dm,
            &dist,
            &b,
            &mut CostLedger::new(Machine::cab()),
            &mut ws,
        );
        // An owner that read its rows out of the wrong peer's merged block
        // (the next rank's) would see other rows than its peers sent.
        let p = ws.merged.len() as u32;
        let merged = |q: u32| &ws.merged[q as usize];
        let wrong = |q: u32| &ws.merged[((q + 1) % p) as usize];
        let mut rt = ChaosRuntime::seeded(1, 0.0);
        let mut ledger = CostLedger::new(Machine::cab());
        mirror_fold(
            (&mut rt, &mut ledger),
            SummaGrid::from_dist(&dist),
            &dm.vmap,
            merged,
            merged,
        );
        mirror_fold(
            (&mut rt, &mut ledger),
            SummaGrid::from_dist(&dist),
            &dm.vmap,
            merged,
            wrong,
        );
    }
}
