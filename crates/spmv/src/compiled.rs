//! Compiled local-index schedules for the 4-phase SpMV — the plan
//! *compilation* step of Epetra's `FillComplete()`, stored flat.
//!
//! Executing gid-level plans directly (the [`reference`](crate::reference)
//! oracle does) re-resolves `owner(gid)` / `lid(gid)` for every entry of
//! every SpMV. The maps change only when the matrix does, so this module
//! lowers them once, straight into flat local-index lists — no gid plan
//! is built on the way — and freezes the per-phase [`PhaseCost`] vectors.
//!
//! **Storage.** At paper-scale p (16,384) the blocks go hypersparse
//! (Buluç & Gilbert) and per-message `Vec`s would drown in allocator
//! headers, so every list of a phase is one flat `u32` array in rank
//! order with a `p + 1` offset table, sliced by a [`RankPlan`] view. A
//! phase keeps only what a product reads:
//! - the **expand**: its send side (pack entries and lists) and per rank
//!   a **gather list**, per column-map position the x-window slot
//!   `local_base(owner) + lid` ([`VectorMap::local_base`]). A receiver's
//!   messages are its remote columns by owner
//!   ([`VectorMap::remote_by_owner`]), and are not stored;
//! - the **fold**: its owned pairs, its send side, and unpack entries
//!   `(src, payload_off)` pointing into the senders' pack lists, which an
//!   owner follows at run time to the senders' partials.
//!
//! **Construction** lowers every rank from its own maps (fanned across OS
//! threads by [`CompiledSpmv::compile_with`], optionally on a [`Pool`]);
//! then one counting transpose per phase, serial and in rank order, lays
//! out the other side — the expand senders' pack lists, the fold owners'
//! unpack entries — at exact capacity: counts first, then fill. The plan
//! is byte-identical for any thread count
//! (`tests/proptest_parallel_compile.rs`).
//!
//! **Maintenance** is rank-local: `CompiledSpmv::patch`
//! ([`DistCsrMatrix::apply_delta`]) lowers the changed ranks again and
//! rewrites the one message each shares with a touched peer, leaving a
//! plan `==` to a full compile (`tests/proptest_apply_delta.rs`).
//!
//! [`DistCsrMatrix::apply_delta`]: crate::distmat::DistCsrMatrix::apply_delta
//!
//! Nothing observable changes: results are bit-identical to the reference
//! executor, and the [`CostLedger`] charges are byte-for-byte the same.
//!
//! [`CostLedger`]: sf2d_sim::cost::CostLedger
//! [`Pool`]: sf2d_sim::sf2d_par::Pool

use std::ops::Range;

use sf2d_sim::cost::PhaseCost;
use sf2d_sim::sf2d_par::{par_ranks_with, Pool};

use crate::distmat::{DistCsrMatrix, RankBlock, SPMM_CHUNK};
use crate::map::{groups, owner_group, VectorMap};

/// One outgoing message of a rank's compiled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackEntry {
    /// Destination rank.
    pub peer: u32,
    /// Offset of this message's pack list in the sender's region of
    /// `pack_idx` — and of its payload in the sender's region of a
    /// sender-major copy, in width-1 doubles (multiply by `ncols` for
    /// SpMM). The next entry's offset, or the region's length, ends it.
    pub payload_off: u32,
}

/// One incoming message of a rank's compiled fold schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnpackEntry {
    /// Source rank.
    pub src: u32,
    /// Slot in the source's pack list holding this message.
    pub slot: u32,
    /// The source's precomputed `payload_off` for that slot — so reading
    /// the sender's pack list in place costs no lookup into its entries.
    pub payload_off: u32,
    /// Offset of this message's values in the receiver's receive lists.
    /// The next entry's offset, or the lists' length, ends it.
    pub start: u32,
}

/// An entry of a flat message list: `key` reads `(peer, start of its
/// values in the holder's region)`, `at` sets them.
trait Message: Copy + Default {
    fn key(self) -> (u32, u32);
    fn at(self, peer: u32, start: u32) -> Self;
}

impl Message for PackEntry {
    fn key(self) -> (u32, u32) {
        (self.peer, self.payload_off)
    }
    fn at(self, peer: u32, payload_off: u32) -> PackEntry {
        PackEntry { peer, payload_off }
    }
}

impl Message for UnpackEntry {
    fn key(self) -> (u32, u32) {
        (self.src, self.start)
    }
    fn at(self, src: u32, start: u32) -> UnpackEntry {
        UnpackEntry { src, start, ..self }
    }
}

/// One phase's compiled schedule for **all** ranks: flat entry and index
/// arrays with `p + 1` offset tables. A list the phase does not keep
/// has all-zero offsets, and reads as empty for every rank.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhasePlan {
    /// Per-rank ranges into `owned_idx`.
    owned_base: Vec<u32>,
    /// All ranks' owned-copy pairs, interleaved `(a, b)`, in rank order.
    /// Expand: `(src_lid, xcols_lid)`; fold: `(partial_idx, y_lid)`.
    owned_idx: Vec<u32>,
    /// All ranks' pack entries, concatenated in rank order.
    pack: Vec<PackEntry>,
    /// Per-rank ranges into `pack`.
    pack_off: Vec<u32>,
    /// All ranks' unpack entries, concatenated in rank order (the fold's).
    pub(crate) unpack: Vec<UnpackEntry>,
    /// Per-rank ranges into `unpack`.
    unpack_off: Vec<u32>,
    /// Per-rank regions of `pack_idx` in width-1 values (prefix sums of
    /// the ranks' send volumes).
    payload_base: Vec<u32>,
    /// Every rank's pack lists: what each sent value is read from.
    /// Expand: the sender's x lid; fold: its stored row of partials.
    pack_idx: Vec<u32>,
    /// Per-rank ranges into `recv_dst`.
    recv_base: Vec<u32>,
    /// The fold's received values — sources ascending, payload order
    /// within a message — by the y lid each lands on.
    recv_dst: Vec<u32>,
    /// Per-rank ranges into `reads`.
    pub(crate) reads_base: Vec<u32>,
    /// The expand's gather lists: per column-map position, the x-window
    /// slot it reads.
    pub(crate) reads: Vec<u32>,
}

/// A flat array of every rank's lists and its `p + 1` offset table.
type Flat<T> = (Vec<T>, Vec<u32>);

/// A flat list's length as an offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a phase's volume fits u32")
}

/// List `r` of a flat array with offsets `off`.
fn span(off: &[u32], r: usize) -> Range<usize> {
    off[r] as usize..off[r + 1] as usize
}

/// Replaces list `r` of a flat array with `new`, shifting the later
/// offsets of its `p + 1` table.
fn splice<T>(flat: &mut Vec<T>, off: &mut [u32], r: usize, new: Vec<T>) {
    let (lo, hi) = (off[r] as usize, off[r + 1] as usize);
    let new_hi = lo + new.len();
    flat.splice(lo..hi, new);
    for o in &mut off[r + 1..] {
        *o = offset(*o as usize - hi + new_hi);
    }
}

/// Every rank's `list` concatenated in rank order, exactly sized.
fn concat(raw: &[RawRank], list: impl Fn(&RawRank) -> &[u32]) -> Flat<u32> {
    let total = raw.iter().map(|rr| list(rr).len()).sum();
    let (mut flat, mut off) = (Vec::with_capacity(total), Vec::with_capacity(raw.len() + 1));
    off.push(0);
    for rr in raw {
        flat.extend_from_slice(list(rr));
        off.push(offset(flat.len()));
    }
    (flat, off)
}

/// Lays every rank's need groups out as a flat message list, held by the
/// rank itself or, `at_peer`, by each group's peer (the counting
/// transpose): an entry per group naming the other rank, `value(d, item)`
/// per item of rank `d`'s. Counts first, then fill, in rank order.
fn lay_out<E: Message>(
    raw: &[RawRank],
    need: impl Fn(&RawRank) -> &[(u32, u32)],
    at_peer: bool,
    value: impl Fn(usize, u32) -> u32,
) -> (Flat<E>, Flat<u32>) {
    let p = raw.len();
    let holder = |d: usize, peer: u32| if at_peer { peer as usize } else { d };
    let (mut eoff, mut voff) = (vec![0u32; p + 1], vec![0u32; p + 1]);
    for (d, rr) in raw.iter().enumerate() {
        for g in groups(need(rr)) {
            let h = holder(d, g[0].0);
            eoff[h + 1] += 1;
            voff[h + 1] += offset(g.len());
        }
    }
    for r in 0..p {
        eoff[r + 1] = offset(eoff[r] as usize + eoff[r + 1] as usize);
        voff[r + 1] = offset(voff[r] as usize + voff[r + 1] as usize);
    }
    let mut entries = vec![E::default(); eoff[p] as usize];
    let mut values = vec![0u32; voff[p] as usize];
    let (mut next_e, mut next_v) = (eoff.clone(), voff.clone());
    for (d, rr) in raw.iter().enumerate() {
        for g in groups(need(rr)) {
            let h = holder(d, g[0].0);
            let other = if at_peer { d as u32 } else { g[0].0 };
            entries[next_e[h] as usize] = E::default().at(other, next_v[h] - voff[h]);
            next_e[h] += 1;
            for &(_, k) in g {
                values[next_v[h] as usize] = value(d, k);
                next_v[h] += 1;
            }
        }
    }
    ((entries, eoff), (values, voff))
}

/// Sets holder `q`'s message with `peer` in a flat message list to
/// `new`: rewritten, created in peer order, or removed when empty.
fn set_message<E: Message>(
    (entries, eoff): (&mut Vec<E>, &mut [u32]),
    (values, voff): (&mut Vec<u32>, &mut [u32]),
    q: usize,
    peer: u32,
    new: &[u32],
) {
    let (es, vs) = (&entries[span(eoff, q)], &values[span(voff, q)]);
    let end = |k: usize| es.get(k + 1).map_or(vs.len(), |n| n.key().1 as usize);
    let mut msgs: Vec<(E, u32, &[u32])> = (es.iter().enumerate())
        .map(|(k, e)| (*e, e.key().0, &vs[e.key().1 as usize..end(k)]))
        .filter(|m| m.1 != peer)
        .collect();
    if !new.is_empty() {
        let k = msgs.partition_point(|m| m.1 < peer);
        msgs.insert(k, (E::default(), peer, new));
    }
    let (mut ne, mut nv) = (Vec::with_capacity(msgs.len()), Vec::new());
    for (e, peer, v) in msgs {
        ne.push(e.at(peer, offset(nv.len())));
        nv.extend_from_slice(v);
    }
    splice(entries, eoff, q, ne);
    splice(values, voff, q, nv);
}

impl PhasePlan {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.owned_base.len() - 1
    }

    /// Rank `r`'s pack entries.
    #[inline]
    pub fn pack_entries(&self, r: usize) -> &[PackEntry] {
        &self.pack[self.pack_off[r] as usize..self.pack_off[r + 1] as usize]
    }

    /// Rank `r`'s unpack entries (the fold's; none in the expand).
    #[inline]
    pub fn unpack_entries(&self, r: usize) -> &[UnpackEntry] {
        &self.unpack[self.unpack_off[r] as usize..self.unpack_off[r + 1] as usize]
    }

    /// Rank `r`'s unpack entries, writable (to corrupt a link on purpose).
    pub fn unpack_entries_mut(&mut self, r: usize) -> &mut [UnpackEntry] {
        &mut self.unpack[span(&self.unpack_off, r)]
    }

    /// Where rank `r`'s sent values are read from, value by value: its
    /// pack lists concatenated in message order.
    #[inline]
    pub fn pack_indices(&self, r: usize) -> &[u32] {
        &self.pack_idx[self.payload_range(r)]
    }

    /// Rank `r`'s region of `pack_idx`.
    #[inline]
    fn payload_range(&self, r: usize) -> Range<usize> {
        self.payload_base[r] as usize..self.payload_base[r + 1] as usize
    }

    /// What an unpack entry `(src, _, off, lids)` reads: the `n =
    /// lids.len()` indices of `src`'s pack lists from its offset `off`.
    #[inline]
    pub fn sent(&self, src: u32, off: u32, n: usize) -> &[u32] {
        &self.pack_indices(src as usize)[off as usize..][..n]
    }

    /// Where rank `r`'s received fold values land, sources ascending,
    /// payload order within a message.
    #[inline]
    fn received(&self, r: usize) -> &[u32] {
        &self.recv_dst[self.recv_base[r] as usize..self.recv_base[r + 1] as usize]
    }

    /// Rank `r`'s gather list (the expand's; empty in the fold): per
    /// column-map position the width-1 x-window slot it reads,
    /// `local_base(owner) + lid`.
    #[inline]
    pub fn gather(&self, r: usize) -> &[u32] {
        &self.reads[self.reads_base[r] as usize..self.reads_base[r + 1] as usize]
    }

    /// Rank `r`'s view of this plan.
    #[inline]
    pub fn rank(&self, r: usize) -> RankPlan<'_> {
        RankPlan { phase: self, r }
    }

    /// One endpoint's cost of rank `r`'s sends: a message each, 8 bytes
    /// per value.
    fn send_cost(&self, r: usize) -> PhaseCost {
        comm(self.pack_entries(r).len(), self.pack_indices(r).len())
    }

    /// Points the unpack entries reading rank `r` at its pack entries:
    /// the slot and the payload offset each reads them by.
    fn link(&mut self, r: usize) {
        for (slot, at) in span(&self.pack_off, r).enumerate() {
            let m = self.pack[at];
            let entries = self.unpack_entries_mut(m.peer as usize);
            let k = (entries.binary_search_by_key(&(r as u32), |e| e.src))
                .expect("every pack entry has its owner's unpack entry");
            (entries[k].slot, entries[k].payload_off) = (slot as u32, m.payload_off);
        }
    }
}

/// One endpoint's cost of `msgs` messages carrying `values` doubles.
fn comm(msgs: usize, values: usize) -> PhaseCost {
    PhaseCost::comm(msgs as u64, 8 * values as u64)
}

/// One rank's schedule for one phase: a cheap `Copy` view of the flat
/// plan that slices it on demand — what the per-message
/// consumers (the SpGEMM kernel, the chaos mirror, the tests) read.
#[derive(Debug, Clone, Copy)]
pub struct RankPlan<'a> {
    phase: &'a PhasePlan,
    r: usize,
}

impl<'a> RankPlan<'a> {
    /// Owned-copy pairs of the fold, `y_local[b] += partials[a]` (none in
    /// the expand, whose gather list reads owned columns too).
    #[inline]
    pub fn owned_pairs(self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.owned().chunks_exact(2).map(|c| (c[0], c[1]))
    }

    /// Number of owned-copy pairs.
    pub fn n_owned(self) -> usize {
        self.owned().len() / 2
    }

    /// The rank's interleaved owned-copy pairs.
    #[inline]
    fn owned(self) -> &'a [u32] {
        let base = &self.phase.owned_base;
        &self.phase.owned_idx[base[self.r] as usize..base[self.r + 1] as usize]
    }

    /// Outgoing messages as `(peer, lids, payload_off)`, in plan order
    /// (which is also payload order: offsets ascend).
    #[inline]
    pub fn packs(self) -> impl Iterator<Item = (u32, &'a [u32], u32)> + 'a {
        (0..self.npacks()).map(move |slot| self.pack(slot))
    }

    /// One outgoing message by slot.
    #[inline]
    pub fn pack(self, slot: usize) -> (u32, &'a [u32], u32) {
        let pack = self.phase.pack_entries(self.r);
        let idx = self.phase.pack_indices(self.r);
        let e = &pack[slot];
        let end = pack
            .get(slot + 1)
            .map_or(idx.len(), |n| n.payload_off as usize);
        (e.peer, &idx[e.payload_off as usize..end], e.payload_off)
    }

    /// Number of outgoing messages.
    pub fn npacks(self) -> usize {
        self.phase.pack_entries(self.r).len()
    }

    /// Incoming fold messages as `(src, slot, payload_off, lids)` — the
    /// payload offset is the *sender's*, into its pack lists
    /// ([`PhasePlan::sent`]). None in the expand.
    #[inline]
    pub fn unpacks(self) -> impl Iterator<Item = (u32, u32, u32, &'a [u32])> + 'a {
        let unpack = self.phase.unpack_entries(self.r);
        let dst = self.phase.received(self.r);
        (0..unpack.len()).map(move |k| {
            let e = &unpack[k];
            let end = unpack.get(k + 1).map_or(dst.len(), |n| n.start as usize);
            (e.src, e.slot, e.payload_off, &dst[e.start as usize..end])
        })
    }

    /// Number of incoming fold messages.
    pub fn nunpacks(self) -> usize {
        self.phase.unpack_entries(self.r).len()
    }
}

/// The full compiled schedule: one [`PhasePlan`] per phase and the frozen
/// per-rank cost vectors.
///
/// Built once by [`DistCsrMatrix::from_global`] and reused by every
/// [`spmv`](crate::spmv::spmv) / [`spmm`](crate::spmv::spmm) call.
///
/// [`DistCsrMatrix::from_global`]: crate::distmat::DistCsrMatrix::from_global
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSpmv {
    /// Expand-phase schedules for all ranks.
    pub expand: PhasePlan,
    /// Fold-phase schedules for all ranks.
    pub fold: PhasePlan,
    /// Per-rank expand-phase costs — messages and bytes at both
    /// endpoints — frozen.
    pub expand_costs: Vec<PhaseCost>,
    /// Per-rank local-compute costs (2 flops per local nonzero), frozen.
    pub compute_costs: Vec<PhaseCost>,
    /// Per-rank fold-phase costs — messages and bytes at both endpoints —
    /// frozen.
    pub fold_costs: Vec<PhaseCost>,
    /// Per-rank sum-phase costs (one flop per locally-summed owned row
    /// plus one per received fold value), frozen.
    pub sum_costs: Vec<PhaseCost>,
}

/// One rank's lists, lowered from its own maps: its gather list, its fold
/// owned pairs `(stored row, y lid)`, and its remote columns and rows as
/// `(owner, map position)` groups — the messages it receives in the
/// expand and sends in the fold, from which the other side is transposed.
#[derive(Debug, Clone, Default)]
struct RawRank {
    gather: Vec<u32>,
    e_need: Vec<(u32, u32)>,
    f_owned: Vec<u32>,
    f_need: Vec<(u32, u32)>,
}

/// Lowers one rank from its maps: pure in `r`, so threads cannot move it.
fn lower_rank(r: usize, vmap: &VectorMap, block: &RankBlock) -> RawRank {
    // Expand: every column, owned or not, reads its x-window slot.
    let slot = |&g: &u32| (vmap.local_base(vmap.owner(g) as usize) + vmap.lid(g)) as u32;
    let gather = block.colmap.iter().map(slot).collect();
    // Fold: owned rows sum locally, the rest ship to their owner; the
    // partials are indexed by stored row, so the pack lists are too.
    let f_need = vmap.remote_by_owner(r, &block.rowmap);
    let mut f_owned = Vec::with_capacity(2 * (block.rowmap.len() - f_need.len()));
    let owned = (block.rowmap.iter().enumerate()).filter(|&(_, &g)| vmap.owner(g) == r as u32);
    f_owned.extend(owned.flat_map(|(li, &g)| [block.stored_row(li) as u32, vmap.lid(g) as u32]));
    RawRank {
        gather,
        e_need: vmap.remote_by_owner(r, &block.colmap),
        f_owned,
        f_need,
    }
}

/// Local-compute cost of one rank: 2 flops per local nonzero.
fn compute_cost(block: &RankBlock) -> PhaseCost {
    PhaseCost::compute(2 * block.nnz() as u64)
}

impl CompiledSpmv {
    /// Lowers the maps into local-index schedules, serially. All gid
    /// resolution the reference executor performs per call happens here,
    /// once.
    pub fn compile(vmap: &VectorMap, blocks: &[RankBlock]) -> CompiledSpmv {
        CompiledSpmv::compile_with(vmap, blocks, 1, None)
    }

    /// [`compile`](CompiledSpmv::compile) with the pure per-rank lowering
    /// fanned across `threads` OS threads (on the persistent `pool` when
    /// given). The flat plan is laid out serially in rank order, so the
    /// result is **byte-identical** to the serial compile for any thread
    /// count.
    pub fn compile_with(
        vmap: &VectorMap,
        blocks: &[RankBlock],
        threads: usize,
        pool: Option<&Pool>,
    ) -> CompiledSpmv {
        let p = blocks.len();
        // Stage 1 — parallel: lower every rank from its own maps.
        let mut raw: Vec<RawRank> = Vec::new();
        raw.resize_with(p, RawRank::default);
        par_ranks_with(threads, pool, &mut raw, |r, slot| {
            *slot = lower_rank(r, vmap, &blocks[r]);
        });

        // Stage 2 — serial: own lists concatenated; the expand's senders
        // and the fold's owners transposed from the need lists, then linked.
        let x_lid = |d: usize, k: u32| vmap.lid(blocks[d].colmap[k as usize]) as u32;
        let ((pack, pack_off), (pack_idx, payload_base)) =
            lay_out(&raw, |rr| &rr.e_need, true, x_lid);
        let (reads, reads_base) = concat(&raw, |rr| &rr.gather);
        let expand = PhasePlan {
            owned_base: vec![0; p + 1],
            pack,
            pack_off,
            unpack_off: vec![0; p + 1],
            payload_base,
            pack_idx,
            recv_base: vec![0; p + 1],
            reads_base,
            reads,
            ..PhasePlan::default()
        };
        let stored = |d: usize, k: u32| blocks[d].stored_row(k as usize) as u32;
        let ((pack, pack_off), (pack_idx, payload_base)) =
            lay_out(&raw, |rr| &rr.f_need, false, stored);
        let y_lid = |d: usize, k: u32| vmap.lid(blocks[d].rowmap[k as usize]) as u32;
        let ((unpack, unpack_off), (recv_dst, recv_base)) =
            lay_out(&raw, |rr| &rr.f_need, true, y_lid);
        let (owned_idx, owned_base) = concat(&raw, |rr| &rr.f_owned);
        let mut fold = PhasePlan {
            owned_base,
            owned_idx,
            pack,
            pack_off,
            unpack,
            unpack_off,
            payload_base,
            pack_idx,
            recv_base,
            recv_dst,
            reads_base: vec![0; p + 1],
            ..PhasePlan::default()
        };
        for r in 0..p {
            fold.link(r);
        }

        // The per-phase cost vectors change only when a delta touches
        // their rank — freeze them so a superstep charge is a slice
        // reduce, not a plan traversal.
        let mut compiled = CompiledSpmv {
            expand,
            fold,
            expand_costs: vec![PhaseCost::default(); p],
            compute_costs: blocks.iter().map(compute_cost).collect(),
            fold_costs: vec![PhaseCost::default(); p],
            sum_costs: vec![PhaseCost::default(); p],
        };
        for (r, rr) in raw.iter().enumerate() {
            compiled.freeze_costs(r, rr);
        }
        compiled
    }

    /// Freezes rank `r`'s expand, fold and sum costs, each message charged
    /// at both endpoints (the expand's receive side off its need list).
    fn freeze_costs(&mut self, r: usize, rr: &RawRank) {
        let (expand, fold) = (&self.expand, &self.fold);
        let received = comm(groups(&rr.e_need).count(), rr.e_need.len());
        self.expand_costs[r] = expand.send_cost(r).add(&received);
        let got = fold.received(r).len();
        let received = comm(fold.unpack_entries(r).len(), got);
        self.fold_costs[r] = received.add(&fold.send_cost(r));
        self.sum_costs[r] = PhaseCost::compute((fold.rank(r).n_owned() + got) as u64);
    }

    /// Brings the schedule up to date after `blocks` changed at a few
    /// ranks, byte-equal (`==`) to a fresh [`compile`](CompiledSpmv::compile).
    /// `relower` names, ascending, every rank whose maps or stored row
    /// order changed and every peer of a moved message; `resized` every
    /// rank whose nonzero count changed; `moved[0]` each `(r, q)` whose
    /// expand message from `q` to `r` changed, `moved[1]` each whose fold
    /// message from `r` to `q` did. Those ranks are lowered again, those
    /// messages rewritten at their holder, and the fold entries reading a
    /// re-lowered sender linked again; no other rank's links move.
    pub(crate) fn patch(
        &mut self,
        vmap: &VectorMap,
        blocks: &[RankBlock],
        resized: &[usize],
        relower: &[usize],
        moved: [&[(usize, u32)]; 2],
    ) {
        for &r in resized {
            self.compute_costs[r] = compute_cost(&blocks[r]);
        }
        let mut raw: Vec<RawRank> = (relower.iter())
            .map(|&r| lower_rank(r, vmap, &blocks[r]))
            .collect();
        let (expand, fold) = (&mut self.expand, &mut self.fold);
        for (&r, rr) in relower.iter().zip(&mut raw) {
            let gather = std::mem::take(&mut rr.gather);
            splice(&mut expand.reads, &mut expand.reads_base, r, gather);
            let owned = std::mem::take(&mut rr.f_owned);
            splice(&mut fold.owned_idx, &mut fold.owned_base, r, owned);
            let stored = |_, k: u32| blocks[r].stored_row(k as usize) as u32;
            let one = std::slice::from_ref(rr);
            let ((pack, _), (idx, _)) = lay_out(one, |rr| &rr.f_need, false, stored);
            splice(&mut fold.pack, &mut fold.pack_off, r, pack);
            splice(&mut fold.pack_idx, &mut fold.payload_base, r, idx);
        }
        // The vector lids of `r`'s group for `q` in a need list over `map`.
        let lids = |r: usize, q, need: fn(&RawRank) -> &[(u32, u32)], map: &[u32]| {
            let rr = &raw[relower
                .binary_search(&r)
                .expect("a moved rank is re-lowered")];
            let group = owner_group(need(rr), q).iter();
            group
                .map(|&(_, k)| vmap.lid(map[k as usize]) as u32)
                .collect::<Vec<u32>>()
        };
        for &(r, q) in moved[0] {
            let new = lids(r, q, |rr| &rr.e_need, &blocks[r].colmap);
            let entries = (&mut expand.pack, &mut expand.pack_off[..]);
            let values = (&mut expand.pack_idx, &mut expand.payload_base[..]);
            set_message(entries, values, q as usize, r as u32, &new);
        }
        for &(r, q) in moved[1] {
            let new = lids(r, q, |rr| &rr.f_need, &blocks[r].rowmap);
            let entries = (&mut fold.unpack, &mut fold.unpack_off[..]);
            let values = (&mut fold.recv_dst, &mut fold.recv_base[..]);
            set_message(entries, values, q as usize, r as u32, &new);
        }
        // A re-lowered sender's pack lists moved: relink their readers.
        for &r in relower {
            fold.link(r);
        }
        for (&r, rr) in relower.iter().zip(&raw) {
            self.freeze_costs(r, rr);
        }
    }

    /// Rank `r`'s expand-phase schedule view.
    #[inline]
    pub fn expand_rank(&self, r: usize) -> RankPlan<'_> {
        self.expand.rank(r)
    }

    /// Rank `r`'s fold-phase schedule view.
    #[inline]
    pub fn fold_rank(&self, r: usize) -> RankPlan<'_> {
        self.fold.rank(r)
    }

    /// Actual heap footprint of the plan: entry arrays, owned, pack,
    /// receive and gather lists, offset tables, and the frozen cost vectors.
    pub fn plan_bytes(&self) -> u64 {
        use std::mem::size_of;
        let phase = |pl: &PhasePlan| -> u64 {
            let words: usize = [
                &pl.owned_base,
                &pl.owned_idx,
                &pl.pack_off,
                &pl.unpack_off,
                &pl.payload_base,
                &pl.pack_idx,
                &pl.recv_base,
                &pl.recv_dst,
                &pl.reads_base,
                &pl.reads,
            ]
            .iter()
            .map(|list| list.len())
            .sum();
            (pl.pack.len() * size_of::<PackEntry>()
                + pl.unpack.len() * size_of::<UnpackEntry>()
                + words * 4) as u64
        };
        phase(&self.expand)
            + phase(&self.fold)
            + (4 * self.expand_costs.len() * size_of::<PhaseCost>()) as u64
    }
}

/// Doubles of `xcols` scratch rank `block` needs at SpMM width `width`:
/// one column chunk. The wave planner's footprint and the executor's
/// carving of the arena both come from here.
pub(crate) fn xcols_len(block: &RankBlock, width: usize) -> usize {
    width.min(SPMM_CHUNK) * block.colmap.len()
}

/// Reusable scratch space for [`spmv`](crate::spmv::spmv) /
/// [`spmm`](crate::spmv::spmm): one arena for the per-rank `xcols`
/// scratch (one column chunk each — `xcols_len`), the x window and the
/// partials buffer.
///
/// A workspace is not tied to a matrix — buffers are (re)sized on first
/// use with each matrix — so one workspace can serve a whole solve. The
/// `threads` knob selects how many OS threads the phase-local work (window
/// copy, gather, local SpMV, sum) fans out across; any value produces
/// bit-identical results because ranks only ever write disjoint slices.
///
/// With a **live-memory budget** ([`SpmvWorkspace::with_budget`]), the
/// gather/compute work executes in contiguous rank *waves* planned by
/// [`sf2d_sim::wave::plan_waves`]: the scratch arena holds only the
/// largest wave's `xcols` instead of all `p` ranks', and results (ledger
/// included) stay byte-identical because each rank's work reads only state
/// frozen before its phase. The window and the partials buffer stay
/// resident either way — they are the simulated network, read in place.
#[derive(Debug, Clone)]
pub struct SpmvWorkspace {
    /// Number of OS threads for phase-local work (1 = fully sequential).
    pub threads: usize,
    /// Live-memory budget in bytes for the scratch arena, or `None` for
    /// all-resident execution (a single wave).
    budget: Option<u64>,
    /// The reusable xcols arena, sized for the largest wave.
    pub(crate) scratch: Vec<f64>,
    /// The per-rank costs of the superstep being charged, widened to the
    /// product's width (unused at width 1, where the compiled costs are
    /// charged as they stand).
    pub(crate) widened: Vec<PhaseCost>,
    /// The x window, at least `n · width` long: rank `r`'s entry `lid` at
    /// `(local_base(r) + lid) · width`, its `width` values adjacent.
    pub(crate) window: Vec<f64>,
    /// Every rank's partials, at least `part_base[p] · width` long: rank
    /// `r`'s stored row `s`, column `c` at `part_base[r] · width + c ·
    /// |rowmap| + s` — rank-major, column-major within a rank, as
    /// `RankBlock::multiply` writes them.
    pub(crate) partials: Vec<f64>,
    /// Per-rank offsets into `partials` in width-1 rows (`p + 1` prefix
    /// sums of the blocks' row-map lengths).
    pub(crate) part_base: Vec<usize>,
    /// Per-rank scratch footprints in bytes that `waves` was planned
    /// from; empty when a new budget has yet to be planned for.
    per_rank: Vec<u64>,
    /// The wave plan for the current (matrix, width, budget).
    pub(crate) waves: Vec<Range<usize>>,
}

impl SpmvWorkspace {
    /// A sequential (single-threaded) workspace.
    pub fn new() -> SpmvWorkspace {
        SpmvWorkspace::with_threads(1)
    }

    /// A workspace whose phase-local work fans out across `threads` OS
    /// threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> SpmvWorkspace {
        SpmvWorkspace {
            threads: threads.max(1),
            budget: None,
            scratch: Vec::new(),
            widened: Vec::new(),
            window: Vec::new(),
            partials: Vec::new(),
            part_base: Vec::new(),
            per_rank: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Caps the live scratch arena at `bytes`: per-rank work then runs in
    /// rank waves whose combined `xcols` footprint fits (a single rank
    /// larger than the budget still gets a wave of its own — best effort,
    /// never failure). The window and the partials buffer are not
    /// scratch: a budget does not bound them. Results are byte-identical
    /// to the unbudgeted workspace.
    pub fn with_budget(mut self, bytes: u64) -> SpmvWorkspace {
        self.set_budget(Some(bytes));
        self
    }

    /// Sets or clears the live-memory budget (see
    /// [`with_budget`](SpmvWorkspace::with_budget)).
    pub fn set_budget(&mut self, bytes: Option<u64>) {
        self.budget = bytes;
        self.per_rank.clear();
    }

    /// The configured scratch budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of waves the last execution was planned into (1 when
    /// unbudgeted; 0 before first use).
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Current `xcols` scratch-arena footprint in bytes — with a budget,
    /// the largest wave's footprint rather than the whole matrix's. The
    /// window and the partials buffer are not counted.
    pub fn scratch_bytes(&self) -> u64 {
        (self.scratch.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Sizes the buffers for `a` at SpMM width `width` (1 for SpMV),
    /// plans the waves, and reuses allocations where they already fit —
    /// at steady state it allocates nothing.
    pub(crate) fn ensure(&mut self, a: &DistCsrMatrix, width: usize) {
        let blocks = &a.blocks;
        // The waves are a function of the footprints and the budget:
        // plan again only when one of them moved.
        let mut moved = self.per_rank.len() != blocks.len();
        self.per_rank.resize(blocks.len(), 0);
        self.part_base.clear();
        self.part_base.push(0);
        let mut rows = 0;
        for (have, block) in self.per_rank.iter_mut().zip(blocks) {
            let need = 8 * xcols_len(block, width) as u64;
            moved |= *have != need;
            *have = need;
            rows += block.rowmap.len();
            self.part_base.push(rows);
        }
        if moved {
            self.waves = sf2d_sim::wave::plan_waves(&self.per_rank, self.budget);
        }
        let need = sf2d_sim::wave::max_wave_bytes(&self.per_rank, &self.waves) as usize / 8;
        grow(&mut self.scratch, need);
        grow(&mut self.window, a.vmap.local_base(blocks.len()) * width);
        grow(&mut self.partials, rows * width);
    }
}

/// Grows `buf` to at least `need` values, exactly and by replacement:
/// nothing in it outlives a product, and `resize` would copy the dead
/// contents into a doubled allocation and hold both while it does. Never
/// shrunk: a patched block grows a row at a time, and an engine's batch
/// widths cycle.
fn grow(buf: &mut Vec<f64>, need: usize) {
    if buf.len() < need {
        *buf = Vec::new();
        *buf = vec![0.0; need];
    }
}

impl Default for SpmvWorkspace {
    fn default() -> SpmvWorkspace {
        SpmvWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_gen::{rmat, RmatConfig};
    use sf2d_partition::MatrixDist;

    fn dist_matrix() -> DistCsrMatrix {
        let a = rmat(&RmatConfig::graph500(6), 5);
        let d = MatrixDist::block_2d(a.nrows(), 2, 3);
        DistCsrMatrix::from_global(&a, &d)
    }

    #[test]
    fn expand_schedule_is_aligned_with_the_import_plan() {
        let dm = dist_matrix();
        let (import, _) = crate::reference::gid_plans(&dm);
        for r in 0..dm.nprocs() {
            let plan = dm.compiled.expand_rank(r);
            assert_eq!(plan.npacks(), import.sends[r].len());
            assert_eq!(plan.nunpacks(), 0, "the expand keeps no receive side");
            // Pack lids resolve to exactly the gids the plan ships, and
            // payload offsets are the prefix sums of message lengths.
            let mut expect_off = 0u32;
            for ((dst, lids, off), (pdst, gids)) in plan.packs().zip(&import.sends[r]) {
                assert_eq!(dst, *pdst);
                assert_eq!(off, expect_off);
                expect_off += lids.len() as u32;
                for (&lid, &g) in lids.iter().zip(gids) {
                    assert_eq!(dm.vmap.gids(r)[lid as usize], g);
                }
            }
            assert_eq!(
                dm.compiled.expand.pack_indices(r).len(),
                expect_off as usize
            );
            // Every gid the plan delivers is read at its sender's
            // x-window slot by the matching column.
            let gather = dm.compiled.expand.gather(r);
            for (src, gids) in &import.recvs[r] {
                let base = dm.vmap.local_base(*src as usize);
                for &g in gids {
                    let lid = dm.blocks[r].col_lid(g);
                    assert_eq!(gather[lid] as usize, base + dm.vmap.lid(g));
                }
            }
        }
    }

    #[test]
    fn owned_lists_cover_exactly_the_local_entries() {
        let dm = dist_matrix();
        for r in 0..dm.nprocs() {
            let block = &dm.blocks[r];
            // The expand keeps no owned pairs: an owned column reads the
            // rank's own region of the x window through the gather list.
            assert_eq!(dm.compiled.expand_rank(r).n_owned(), 0);
            let gather = dm.compiled.expand.gather(r);
            for (lid, &g) in block.colmap.iter().enumerate() {
                if dm.vmap.owner(g) == r as u32 {
                    let own = dm.vmap.local_base(r) + dm.vmap.lid(g);
                    assert_eq!(gather[lid] as usize, own);
                }
            }
            let owned_rows = block
                .rowmap
                .iter()
                .filter(|&&g| dm.vmap.owner(g) == r as u32)
                .count();
            assert_eq!(dm.compiled.fold_rank(r).n_owned(), owned_rows);
        }
    }

    #[test]
    fn sum_flops_match_the_reference_accounting() {
        let dm = dist_matrix();
        let (_, export) = crate::reference::gid_plans(&dm);
        for r in 0..dm.nprocs() {
            let received: u64 = export.sends[r].iter().map(|(_, g)| g.len() as u64).sum();
            let owned = dm.compiled.fold_rank(r).n_owned() as u64;
            assert_eq!(dm.compiled.sum_costs[r].flops, owned + received);
        }
    }

    #[test]
    fn parallel_compile_is_byte_identical_to_serial() {
        let a = rmat(&RmatConfig::graph500(7), 9);
        let d = MatrixDist::random_2d(a.nrows(), 2, 3, 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        for threads in [2usize, 5] {
            let par = CompiledSpmv::compile_with(&dm.vmap, &dm.blocks, threads, None);
            assert_eq!(par, dm.compiled, "threads {threads}");
        }
        let pool = sf2d_sim::sf2d_par::Pool::new(3);
        let pooled = CompiledSpmv::compile_with(&dm.vmap, &dm.blocks, 3, Some(&pool));
        assert_eq!(pooled, dm.compiled);
    }

    #[test]
    fn a_phase_reads_empty_for_the_lists_it_does_not_keep() {
        // A 2D layout folds, so its fold plan has every list but a gather
        // list, and its expand every list but a receive side.
        let dm = dist_matrix();
        assert!((0..dm.nprocs()).any(|r| dm.compiled.fold_rank(r).nunpacks() > 0));
        for r in 0..dm.nprocs() {
            assert!(dm.compiled.fold.gather(r).is_empty(), "rank {r}");
            assert!(dm.compiled.expand.unpack_entries(r).is_empty(), "rank {r}");
            assert_eq!(dm.compiled.expand_rank(r).unpacks().count(), 0);
        }
    }

    #[test]
    fn workspace_resizes_to_the_matrix() {
        let dm = dist_matrix();
        let mut ws = SpmvWorkspace::new();
        assert_eq!(ws.threads, 1);
        assert_eq!(ws.wave_count(), 0);
        ws.ensure(&dm, 1);
        // Unbudgeted: one wave, scratch holds every rank's xcols; the
        // partials buffer every rank's partials.
        assert_eq!(ws.wave_count(), 1);
        let want: usize = dm.blocks.iter().map(|b| b.colmap.len()).sum();
        let rows: usize = dm.blocks.iter().map(|b| b.rowmap.len()).sum();
        assert_eq!(ws.scratch.len(), want);
        assert_eq!(ws.window.len(), dm.n);
        assert_eq!(ws.partials.len(), rows);
        assert_eq!(ws.part_base.len(), dm.nprocs() + 1);
        assert_eq!(ws.part_base[dm.nprocs()], rows);
        // Re-ensuring with the same matrix is a no-op resize, and a
        // narrower product after a wider one keeps the buffers.
        ws.ensure(&dm, 1);
        assert_eq!(ws.scratch.len(), want);
        ws.ensure(&dm, 3);
        ws.ensure(&dm, 1);
        assert_eq!(ws.window.len(), 3 * dm.n);
        assert_eq!(ws.partials.len(), 3 * rows);
        assert_eq!(ws.wave_count(), 1);
        assert_eq!(SpmvWorkspace::with_threads(0).threads, 1);
    }

    #[test]
    fn budgeted_workspace_plans_multiple_waves_with_smaller_scratch() {
        let dm = dist_matrix();
        let mut resident = SpmvWorkspace::new();
        resident.ensure(&dm, 1);
        let full = resident.scratch_bytes();
        // Budget far below the full footprint: more waves, less scratch.
        let mut ws = SpmvWorkspace::new().with_budget(full / 3);
        assert_eq!(ws.budget(), Some(full / 3));
        ws.ensure(&dm, 1);
        assert!(ws.wave_count() > 1, "waves {}", ws.wave_count());
        assert!(
            ws.scratch_bytes() < full,
            "budgeted scratch {} not below resident {}",
            ws.scratch_bytes(),
            full
        );
        // Waves cover all ranks contiguously.
        let flat: Vec<usize> = ws.waves.iter().flat_map(|w| w.clone()).collect();
        assert_eq!(flat, (0..dm.nprocs()).collect::<Vec<_>>());
    }
}
