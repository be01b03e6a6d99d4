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
//!   columns, so each rank ships the off-stage column segments to the
//!   matching grid-column peer in its own grid row (≤ `gc − 1` sends).
//!   Under 2D layouts every local nonzero is already in the rank's own
//!   stage column and this is an exact no-op (zero traffic, still a
//!   closed superstep so ledger histories keep one shape).
//! * **B-shuffle** — B rows live with their vector owners (grid column
//!   `t` = the stage that consumes them); each owner splits its rows
//!   into `gc` column chunks and ships chunk `j` to the stage's
//!   broadcast root `rank(t mod gr, j)` (≤ `gc` sends).
//!
//! Each stage's multiply and the cross-stage merge accumulate a row in,
//! and emit it sorted from, the `Spa` (`workspace.rs`) the expand/fold
//! kernel uses. After the stages, per-stage partials are
//! merged in fixed stage order ([`Phase::Merge`]), folded within grid rows
//! to the C row owners ([`Phase::Fold`], ≤ `gc − 1` sends), and assembled
//! by chunk concatenation. Output rows are **bitwise equal** to the serial
//! Gustavson oracle whenever row sums are exact (the generator matrices'
//! products are small integers), and bit-identical for any `threads`
//! setting — the differential suite pins both, head-to-head with
//! expand/fold.
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
use sf2d_sim::fault::{ChaosRuntime, PeerPayloads};
use sf2d_sim::runtime::par_ranks;
use sf2d_spmv::distmat::DistCsrMatrix;
use sf2d_spmv::map::VectorMap;

use crate::kernel::{close_output, push_row, send_stats, to_global, ExchangeStats};
use crate::workspace::{
    publish_drain_arms, DirBufs, HyperCsr, MsgBufs, RankSummaScratch, SummaWorkspace,
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

fn zero_stats(p: usize) -> ExchangeStats {
    ExchangeStats {
        send_msgs: vec![0; p],
        send_doubles: vec![0; p],
        costs: vec![PhaseCost::default(); p],
    }
}

fn add_stats(into: &mut ExchangeStats, other: &ExchangeStats) {
    for r in 0..into.send_msgs.len() {
        into.send_msgs[r] += other.send_msgs[r];
        into.send_doubles[r] += other.send_doubles[r];
        into.costs[r] = into.costs[r].add(&other.costs[r]);
    }
}

/// Measures one directed exchange off the resident [`DirBufs`]: sender
/// side from the sealed slots, receiver side mirrored through the
/// per-slot destination list (same both-endpoints convention as
/// [`exchange_stats`](crate::kernel)).
fn dir_stats(bufs: &[DirBufs]) -> ExchangeStats {
    let mut stats = send_stats(bufs.iter().map(|b| &b.bufs));
    for src in bufs {
        for (slot, &d) in src.dsts.iter().enumerate() {
            let doubles = src.bufs.msg(slot).len() as u64;
            stats.costs[d as usize] = stats.costs[d as usize].add(&PhaseCost::comm(1, 8 * doubles));
        }
    }
    stats
}

/// Where root `r` fans its one stage payload out: along its grid row to
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

/// Measures one broadcast round: each root packs its payload **once**
/// (only roots seal one) and fans it out to [`bcast_dsts`]; the simulator
/// has no multicast, so the root is billed one point-to-point send per
/// destination and each destination one receive.
fn bcast_stats(bufs: &[MsgBufs], g: SummaGrid, along_row: bool) -> ExchangeStats {
    let mut stats = zero_stats(bufs.len());
    for (r, buf) in bufs.iter().enumerate().filter(|(_, b)| b.nmsgs() == 1) {
        let nd = bcast_dsts(g, along_row, r as u32).count() as u64;
        if nd == 0 {
            continue;
        }
        let doubles = buf.msg(0).len() as u64;
        stats.send_msgs[r] = nd;
        stats.send_doubles[r] = nd * doubles;
        stats.costs[r] = stats.costs[r].add(&PhaseCost::comm(nd, 8 * nd * doubles));
        for d in bcast_dsts(g, along_row, r as u32) {
            stats.costs[d as usize] = stats.costs[d as usize].add(&PhaseCost::comm(1, 8 * doubles));
        }
    }
    stats
}

/// A directed exchange as [`ChaosRuntime::mirror_exchange`] takes it:
/// `(dst, payload)` in slot order.
fn dir_wire(bufs: &[DirBufs]) -> Vec<PeerPayloads<'_>> {
    bufs.iter()
        .map(|b| {
            b.dsts
                .iter()
                .enumerate()
                .map(|(slot, &d)| (d, b.bufs.msg(slot)))
                .collect()
        })
        .collect()
}

/// A broadcast round on the wire: the root's one resident payload once
/// per destination, in [`bcast_dsts`] order.
fn bcast_wire(bufs: &[MsgBufs], g: SummaGrid, along_row: bool) -> Vec<PeerPayloads<'_>> {
    bufs.iter()
        .enumerate()
        .map(|(r, buf)| {
            if buf.nmsgs() == 0 {
                Vec::new()
            } else {
                bcast_dsts(g, along_row, r as u32)
                    .map(|d| (d, buf.msg(0)))
                    .collect()
            }
        })
        .collect()
}

/// Serializes a hypersparse block: `[gid, nnz, cols..., vals...]` per row.
fn serialize_block(data: &mut Vec<f64>, h: &HyperCsr) {
    for k in 0..h.nrows() {
        let (gid, cols, vals) = h.row_at(k);
        data.push(gid as f64);
        push_row(data, (cols, vals));
    }
}

/// Appends the rows of one serialized hypersparse payload onto `out`.
fn decode_block(data: &[f64], out: &mut HyperCsr) {
    let mut off = 0usize;
    while off < data.len() {
        let gid = data[off] as u32;
        let nnz = data[off + 1] as usize;
        let cols = &data[off + 2..off + 2 + nnz];
        out.cols.extend(cols.iter().map(|&c| c as u32));
        out.vals
            .extend_from_slice(&data[off + 2 + nnz..off + 2 + 2 * nnz]);
        out.close_row(gid);
        off += 2 + 2 * nnz;
    }
    debug_assert_eq!(off, data.len(), "summa block payload framing mismatch");
}

/// Packs rank `o`'s A-shuffle payloads: for every stage column `s` other
/// than its own, the sub-rows of its local A block whose columns belong
/// to stage `s`, addressed to the grid-column-`s` peer in its grid row.
/// Exact no-op (every slot empty, nothing sealed) under 2D layouts.
fn pack_shuffle_a(buf: &mut DirBufs, o: usize, a: &DistCsrMatrix, rpart: &[u32], g: &SummaGrid) {
    buf.reset();
    let (oi, oj) = (g.row_of_rank(o as u32), g.col_of_rank(o as u32));
    let block = &a.blocks[o];
    for s in 0..g.gc {
        if s == oj {
            continue;
        }
        let data = &mut buf.bufs.data;
        for li in 0..block.rowmap.len() {
            let (lcols, vals) = block.row(li);
            // The framing puts a row's values after all of its columns, so
            // the sub-row is written in place at full-row spacing and its
            // values closed up once its length is known.
            let (base, len) = (data.len(), lcols.len());
            data.resize(base + 2 + 2 * len, 0.0);
            let mut nnz = 0usize;
            for (&lj, &v) in lcols.iter().zip(vals) {
                let gj = block.colmap[lj as usize];
                if g.col_of_part(rpart[gj as usize]) == s {
                    data[base + 2 + nnz] = gj as f64;
                    data[base + 2 + len + nnz] = v;
                    nnz += 1;
                }
            }
            if nnz == 0 {
                data.truncate(base);
                continue;
            }
            data[base] = block.rowmap[li] as f64;
            data[base + 1] = nnz as f64;
            data.copy_within(base + 2 + len..base + 2 + len + nnz, base + 2 + nnz);
            data.truncate(base + 2 + 2 * nnz);
        }
        buf.seal_to(g.rank_at(oi, s));
    }
}

/// Builds rank `r`'s stage-aligned A block: its own-stage entries plus
/// every row shipped in by its grid-row peers, sorted back to ascending
/// global row order. Each row arrives whole from a single source (a 1D
/// row has one owner), so no per-row merging is needed.
fn build_a_block(
    s: &mut RankSummaScratch,
    r: usize,
    a: &DistCsrMatrix,
    rpart: &[u32],
    g: &SummaGrid,
    sbufs: &[DirBufs],
) {
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    s.a_block.clear();
    let block = &a.blocks[r];
    for li in 0..block.rowmap.len() {
        let (lcols, vals) = block.row(li);
        let before = s.a_block.nnz();
        for (&lj, &v) in lcols.iter().zip(vals) {
            let gj = block.colmap[lj as usize];
            if g.col_of_part(rpart[gj as usize]) == rj {
                s.a_block.cols.push(gj);
                s.a_block.vals.push(v);
            }
        }
        if s.a_block.nnz() > before {
            s.a_block.close_row(block.rowmap[li]);
        }
    }
    for st in 0..g.gc {
        if st == rj {
            continue;
        }
        let src = g.rank_at(ri, st) as usize;
        if let Some(slot) = sbufs[src].slot_for(r as u32) {
            decode_block(sbufs[src].bufs.msg(slot), &mut s.a_block);
        }
    }
    // No stage has run yet, so the receive block is free to sort into.
    s.a_block.sort_rows(&mut s.a_recv, &mut s.sort_order);
}

/// Packs rank `o`'s B-shuffle payloads: its owned B rows (all of stage
/// `t` = its grid column), split into `gc` column chunks, chunk `j`
/// addressed to that stage's grid-column-`j` broadcast root. The chunk
/// that would go to `o` itself stays local (handled in
/// [`build_b_stages`]).
fn pack_shuffle_b(
    buf: &mut DirBufs,
    o: usize,
    b: &CsrMatrix,
    vmap: &VectorMap,
    g: &SummaGrid,
    bcols: usize,
) {
    buf.reset();
    let t = g.col_of_rank(o as u32);
    let ti = t % g.gr;
    for j in 0..g.gc {
        let root = g.rank_at(ti, j);
        if root == o as u32 {
            continue;
        }
        let (clo, chi) = chunk_range(bcols, g.gc as usize, j as usize);
        for &gid in vmap.gids(o) {
            let (cols, vals) = b.row(gid as usize);
            let lo = cols.partition_point(|&c| (c as usize) < clo);
            let hi = cols.partition_point(|&c| (c as usize) < chi);
            if hi > lo {
                buf.bufs.data.push(gid as f64);
                push_row(&mut buf.bufs.data, (&cols[lo..hi], &vals[lo..hi]));
            }
        }
        buf.seal_to(root);
    }
}

/// Builds the stage blocks rank `r` roots: for every stage `t` with
/// `t mod gr` = its grid row, the stage-`t` B rows restricted to its own
/// column chunk — its own rows (when it sits in grid column `t`) plus
/// everything the column-`t` owners shipped in. Rows are unique (one
/// owner per B row), so sorting restores ascending global order.
fn build_b_stages(
    s: &mut RankSummaScratch,
    r: usize,
    b: &CsrMatrix,
    vmap: &VectorMap,
    g: &SummaGrid,
    sbufs: &[DirBufs],
    bcols: usize,
) {
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    for t in 0..g.gc {
        if t % g.gr != ri {
            continue;
        }
        let bt = &mut s.b_stage[t as usize];
        if rj == t {
            let (clo, chi) = chunk_range(bcols, g.gc as usize, rj as usize);
            for &gid in vmap.gids(r) {
                let (cols, vals) = b.row(gid as usize);
                let lo = cols.partition_point(|&c| (c as usize) < clo);
                let hi = cols.partition_point(|&c| (c as usize) < chi);
                if hi > lo {
                    bt.push_row(gid, &cols[lo..hi], &vals[lo..hi]);
                }
            }
        }
        for i in 0..g.gr {
            let src = g.rank_at(i, t) as usize;
            if src == r {
                continue;
            }
            if let Some(slot) = sbufs[src].slot_for(r as u32) {
                decode_block(sbufs[src].bufs.msg(slot), bt);
            }
        }
        bt.sort_rows(&mut s.b_recv, &mut s.sort_order);
    }
}

/// One stage's local multiply at rank `r`: Gustavson over the resident or
/// received hypersparse blocks, emitting the stage-`t` partial. Returns
/// the product terms processed.
fn multiply_stage(s: &mut RankSummaScratch, r: u32, t: u32, g: &SummaGrid) -> u64 {
    let (ri, rj) = (g.row_of_rank(r), g.col_of_rank(r));
    let RankSummaScratch {
        spa,
        a_block,
        b_stage,
        a_recv,
        b_recv,
        stage_out,
        ..
    } = s;
    let a = if rj == t { &*a_block } else { &*a_recv };
    let bs = if ri == t % g.gr {
        &b_stage[t as usize]
    } else {
        &*b_recv
    };
    let out = &mut stage_out[t as usize];
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

/// Merges rank `r`'s per-stage partials into one chunk block, per row in
/// ascending **stage** order (the fixed reassociation the differential
/// suite pins bitwise). Returns entries merged (1 flop each).
fn merge_stages(s: &mut RankSummaScratch, gc: usize) -> u64 {
    s.pairs.clear();
    for (t, so) in s.stage_out.iter().enumerate().take(gc) {
        for k in 0..so.nrows() {
            s.pairs.push((so.rows[k], t as u32, k as u32));
        }
    }
    s.pairs.sort_unstable();
    let RankSummaScratch {
        spa,
        stage_out,
        merged,
        pairs,
        ..
    } = s;
    merged.clear();
    let mut flops = 0u64;
    let mut i = 0usize;
    while i < pairs.len() {
        let gid = pairs[i].0;
        while i < pairs.len() && pairs[i].0 == gid {
            let (_, t, k) = pairs[i];
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

/// Packs rank `r`'s fold payloads: merged chunk rows grouped by their C
/// row owner — always a grid-row peer, visited in ascending grid-column
/// order (≤ `gc − 1` sends).
fn pack_fold(buf: &mut DirBufs, r: usize, g: &SummaGrid, vmap: &VectorMap, merged: &HyperCsr) {
    buf.reset();
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    for sc in 0..g.gc {
        if sc == rj {
            continue;
        }
        let o = g.rank_at(ri, sc);
        for k in 0..merged.nrows() {
            let (gid, cols, vals) = merged.row_at(k);
            if vmap.owner(gid) == o {
                buf.bufs.data.push(gid as f64);
                push_row(&mut buf.bufs.data, (cols, vals));
            }
        }
        buf.seal_to(o);
    }
}

/// Assembles rank `r`'s owned C rows: per row, the `gc` column-chunk
/// contributions (own merged chunk + one per grid-row peer) concatenated
/// in ascending chunk order — chunks are disjoint ascending column
/// ranges, so concatenation yields sorted rows with no arithmetic.
/// Returns entries assembled (billed 1 flop each, like the merge).
fn assemble(
    s: &mut RankSummaScratch,
    r: usize,
    g: &SummaGrid,
    vmap: &VectorMap,
    fbufs: &[DirBufs],
) -> u64 {
    let (ri, rj) = (g.row_of_rank(r as u32), g.col_of_rank(r as u32));
    s.incoming.clear();
    for k in 0..s.merged.nrows() {
        let (gid, cols, _) = s.merged.row_at(k);
        if vmap.owner(gid) == r as u32 {
            s.incoming.push((
                vmap.lid(gid) as u32,
                rj,
                r as u32,
                u32::MAX,
                s.merged.ptr[k] as u32,
                cols.len() as u32,
            ));
        }
    }
    for sc in 0..g.gc {
        if sc == rj {
            continue;
        }
        let src = g.rank_at(ri, sc) as usize;
        if let Some(slot) = fbufs[src].slot_for(r as u32) {
            let data = fbufs[src].bufs.msg(slot);
            let mut off = 0usize;
            while off < data.len() {
                let gid = data[off] as u32;
                let nnz = data[off + 1] as usize;
                s.incoming.push((
                    vmap.lid(gid) as u32,
                    sc,
                    src as u32,
                    slot as u32,
                    (off + 2) as u32,
                    nnz as u32,
                ));
                off += 2 + 2 * nnz;
            }
            debug_assert_eq!(off, data.len(), "summa fold payload framing mismatch");
        }
    }
    s.incoming.sort_unstable_by_key(|e| (e.0, e.1));
    let nlocal = vmap.nlocal(r);
    let RankSummaScratch {
        merged,
        incoming,
        out,
        ..
    } = s;
    out.reset();
    let mut flops = 0u64;
    let mut cur = 0usize;
    for lid in 0..nlocal as u32 {
        while cur < incoming.len() && incoming[cur].0 == lid {
            let (_, _, src, slot, off, len) = incoming[cur];
            let (off, len) = (off as usize, len as usize);
            if slot == u32::MAX {
                out.cols.extend_from_slice(&merged.cols[off..off + len]);
                out.vals.extend_from_slice(&merged.vals[off..off + len]);
            } else {
                let data = fbufs[src as usize].bufs.msg(slot as usize);
                out.cols
                    .extend(data[off..off + len].iter().map(|&c| c as u32));
                out.vals.extend_from_slice(&data[off + len..off + 2 * len]);
            }
            flops += len as u64;
            cur += 1;
        }
        out.close_row();
    }
    flops
}

/// The shared SUMMA driver: plain when `chaos` is `None`, otherwise every
/// exchange is also handed to [`ChaosRuntime::mirror_exchange`] (SUMMA
/// has no compiled receive side, so the expected inbox is the sends
/// regrouped by destination) and the healed deliveries are asserted
/// bit-identical to the resident buffers (so a rate-0 chaos run is
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
    let threads = ws.threads;
    let rpart = dist.rpart();
    let vmap = &a.vmap;
    let SummaWorkspace {
        ref mut ranks,
        ref mut shuffle_a,
        ref mut shuffle_b,
        ref mut stage_a,
        ref mut stage_b,
        ref mut fold,
        ..
    } = *ws;

    // Phase 1 — A-shuffle: align A's columns with the stage blocking.
    trace_span!(PhaseKind::Pack, "summa:a-shuffle-pack", {
        par_ranks(threads, shuffle_a, |o, buf| {
            pack_shuffle_a(buf, o, a, rpart, &g);
        })
    });
    let shuffle_a_stats = dir_stats(shuffle_a);
    ledger.superstep(Phase::Expand, &shuffle_a_stats.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        rt.mirror_exchange(ledger, "summa a-shuffle", &dir_wire(shuffle_a), None);
    }
    {
        let sa: &[DirBufs] = shuffle_a;
        trace_span!(PhaseKind::Unpack, "summa:a-shuffle-unpack", {
            par_ranks(threads, ranks, |r, scratch| {
                build_a_block(scratch, r, a, rpart, &g, sa);
            })
        });
    }

    // Phase 2 — B-shuffle: owners ship chunked stage rows to the roots.
    trace_span!(PhaseKind::Pack, "summa:b-shuffle-pack", {
        par_ranks(threads, shuffle_b, |o, buf| {
            pack_shuffle_b(buf, o, b, vmap, &g, bcols);
        })
    });
    let shuffle_b_stats = dir_stats(shuffle_b);
    ledger.superstep(Phase::Expand, &shuffle_b_stats.costs);
    if let Some(rt) = chaos.as_deref_mut() {
        rt.mirror_exchange(ledger, "summa b-shuffle", &dir_wire(shuffle_b), None);
    }
    {
        let sb: &[DirBufs] = shuffle_b;
        trace_span!(PhaseKind::Unpack, "summa:b-shuffle-unpack", {
            par_ranks(threads, ranks, |r, scratch| {
                build_b_stages(scratch, r, b, vmap, &g, sb, bcols);
            })
        });
    }
    let mut shuffle = shuffle_a_stats;
    add_stats(&mut shuffle, &shuffle_b_stats);

    // Stages: row-broadcast A, col-broadcast B, multiply.
    let mut bcast = zero_stats(p);
    let mut stage_send_msgs: Vec<Vec<u64>> = Vec::with_capacity(gc);
    for t in 0..g.gc {
        {
            let rk: &[RankSummaScratch] = ranks;
            trace_span!(PhaseKind::Broadcast, "summa:a-bcast-pack", {
                par_ranks(threads, stage_a, |r, buf| {
                    buf.reset();
                    if g.col_of_rank(r as u32) == t && rk[r].a_block.nnz() > 0 {
                        serialize_block(&mut buf.data, &rk[r].a_block);
                        buf.seal();
                    }
                })
            });
        }
        let a_stats = bcast_stats(stage_a, g, true);
        ledger.superstep(Phase::Broadcast, &a_stats.costs);
        if let Some(rt) = chaos.as_deref_mut() {
            let wire = bcast_wire(stage_a, g, true);
            rt.mirror_exchange(ledger, "summa a-bcast", &wire, None);
        }
        {
            let sa: &[MsgBufs] = stage_a;
            trace_span!(PhaseKind::Unpack, "summa:a-bcast-unpack", {
                par_ranks(threads, ranks, |r, scratch| {
                    scratch.a_recv.clear();
                    if g.col_of_rank(r as u32) != t {
                        let src = g.rank_at(g.row_of_rank(r as u32), t) as usize;
                        if sa[src].nmsgs() == 1 {
                            decode_block(sa[src].msg(0), &mut scratch.a_recv);
                        }
                    }
                })
            });
        }

        {
            let rk: &[RankSummaScratch] = ranks;
            trace_span!(PhaseKind::Broadcast, "summa:b-bcast-pack", {
                par_ranks(threads, stage_b, |r, buf| {
                    buf.reset();
                    if g.row_of_rank(r as u32) == t % g.gr && rk[r].b_stage[t as usize].nnz() > 0 {
                        serialize_block(&mut buf.data, &rk[r].b_stage[t as usize]);
                        buf.seal();
                    }
                })
            });
        }
        let b_stats = bcast_stats(stage_b, g, false);
        ledger.superstep(Phase::Broadcast, &b_stats.costs);
        if let Some(rt) = chaos.as_deref_mut() {
            let wire = bcast_wire(stage_b, g, false);
            rt.mirror_exchange(ledger, "summa b-bcast", &wire, None);
        }
        {
            let sb: &[MsgBufs] = stage_b;
            trace_span!(PhaseKind::Unpack, "summa:b-bcast-unpack", {
                par_ranks(threads, ranks, |r, scratch| {
                    scratch.b_recv.clear();
                    if g.row_of_rank(r as u32) != t % g.gr {
                        let src = g.rank_at(t % g.gr, g.col_of_rank(r as u32)) as usize;
                        if sb[src].nmsgs() == 1 {
                            decode_block(sb[src].msg(0), &mut scratch.b_recv);
                        }
                    }
                })
            });
        }

        trace_span!(PhaseKind::Multiply, "summa:multiply", {
            par_ranks(threads, ranks, |r, scratch| {
                let terms = multiply_stage(scratch, r as u32, t, &g);
                scratch.stage_terms = terms;
                scratch.terms += terms;
            })
        });
        let mul_costs: Vec<PhaseCost> = ranks
            .iter()
            .map(|s| PhaseCost::compute(2 * s.stage_terms))
            .collect();
        ledger.superstep(Phase::Multiply, &mul_costs);

        stage_send_msgs.push(
            (0..p)
                .map(|r| a_stats.send_msgs[r] + b_stats.send_msgs[r])
                .collect(),
        );
        add_stats(&mut bcast, &a_stats);
        add_stats(&mut bcast, &b_stats);
    }

    // Cross-stage merge: fixed stage-ascending order per row.
    trace_span!(PhaseKind::Merge, "summa:stage-merge", {
        par_ranks(threads, ranks, |_r, scratch| {
            scratch.merged_flops = merge_stages(scratch, gc);
        })
    });
    let merge_costs: Vec<PhaseCost> = ranks
        .iter()
        .map(|s| PhaseCost::compute(s.merged_flops))
        .collect();
    ledger.superstep(Phase::Merge, &merge_costs);
    publish_drain_arms("summa", ranks.iter().map(|s| &s.spa));

    // Fold: merged chunk rows to their C row owners, within grid rows.
    {
        let rk: &[RankSummaScratch] = ranks;
        trace_span!(PhaseKind::Pack, "summa:fold-pack", {
            par_ranks(threads, fold, |r, buf| {
                pack_fold(buf, r, &g, vmap, &rk[r].merged);
            })
        });
    }
    let fold_stats = dir_stats(fold);
    ledger.superstep(Phase::Fold, &fold_stats.costs);
    if let Some(rt) = chaos {
        rt.mirror_exchange(ledger, "summa fold", &dir_wire(fold), None);
    }

    // Assembly: chunk concatenation at the owners.
    {
        let fb: &[DirBufs] = fold;
        trace_span!(PhaseKind::Merge, "summa:assemble", {
            par_ranks(threads, ranks, |r, scratch| {
                scratch.assemble_flops = assemble(scratch, r, &g, vmap, fb);
            })
        });
    }
    let assemble_costs: Vec<PhaseCost> = ranks
        .iter()
        .map(|s| PhaseCost::compute(s.assemble_flops))
        .collect();
    ledger.superstep(Phase::Merge, &assemble_costs);

    // Close nnz(C) and assemble the output blocks.
    let (locals, nnz) = close_output(vmap, bcols, ranks.iter().map(|s| &s.out), ledger);

    SummaSpgemm {
        vmap: Arc::clone(vmap),
        ncols: bcols,
        locals,
        nnz,
        grid: g,
        shuffle,
        bcast,
        fold: fold_stats,
        stage_send_msgs,
        multiply_flops: ranks.iter().map(|s| 2 * s.terms).collect(),
        merge_flops: ranks
            .iter()
            .map(|s| s.merged_flops + s.assemble_flops)
            .collect(),
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

/// [`summa_dist`] through a reusable [`SummaWorkspace`]: scratch blocks
/// and message payloads are borrowed from `ws` and the per-rank phase
/// work fans out across `ws.threads` OS threads (bit-identical results
/// for any count).
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
/// every stage's two broadcasts, and the fold — is also routed through
/// the chaos wire, healed deliveries are asserted bit-identical to the
/// resident buffers, and recovery traffic is billed as `Retransmit`
/// supersteps. At rate 0 the run is byte-identical (values *and*
/// ledger) to [`summa_with`].
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
    use sf2d_gen::{grid_2d, rmat, RmatConfig};
    use sf2d_graph::spgemm;
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
}
