//! Compiled local-index schedules for the 4-phase SpMV — the plan
//! *compilation* step of Epetra's `FillComplete()`, stored flat.
//!
//! [`CommPlan`](crate::plan::CommPlan) stores the communication structure
//! in **global ids**; executing it directly means every SpMV re-resolves
//! `owner(gid)` / `lid(gid)` / `col_lid(gid)` for every entry. Since the
//! maps change only when the matrix does, all of those lookups can be done
//! once: this module lowers the plans plus the row/column maps into flat
//! local-index copy lists, so the per-iteration path is array indexing
//! only. The static per-phase [`PhaseCost`] vectors are precomputed here
//! too, so a ledger superstep is a slice reduce.
//!
//! **Storage** is built for paper-scale rank counts (p = 16,384). At high
//! p the per-rank blocks go hypersparse (Buluç & Gilbert): every index
//! list is tiny, so replicating `Vec<Vec<u32>>`-of-`Vec` plans per rank
//! would drown in allocator headers. Instead every list of a phase —
//! owned-copy pairs, pack, receive and gather lists — is one flat `u32`
//! array in rank order with a `p + 1` offset table, and a [`RankPlan`]
//! view slices them on demand. Nothing is shared between ranks: sharing
//! equal owned lists measures at most 0.83 % of `plan_bytes`
//! (EXPERIMENTS.md). Rank `r`'s pack lists fill `pack_idx` from
//! `payload_base[r]` to `payload_base[r + 1]`, in message order. Both
//! phases read in place — the zero-copy simulated transport, billed at
//! exactly the plan's volume: an unpack entry `(src, payload_off)` points
//! into its sender's pack lists. The **fold** follows it at run time, to
//! the sender's partials; the **expand** once, when linking, into one
//! **gather list** per rank of x-window slots ([`VectorMap::local_base`]).
//!
//! **Construction** parallelizes: [`CompiledSpmv::compile_with`] fans the
//! pure per-rank lowering across OS threads (optionally on a persistent
//! [`Pool`]) and then appends the results serially in rank order, so the
//! compiled plan is byte-identical to the serial [`CompiledSpmv::compile`]
//! for any thread count — property-tested in
//! `tests/proptest_parallel_compile.rs`.
//!
//! **Maintenance** is rank-local: when a few ranks' maps or messages
//! change ([`DistCsrMatrix::apply_delta`]), `CompiledSpmv::patch` runs
//! the same per-rank lowering for those ranks only and splices the
//! result in, leaving a plan **byte-equal** (`==`) to a full compile —
//! property-tested in `tests/proptest_apply_delta.rs`.
//!
//! [`DistCsrMatrix::apply_delta`]: crate::distmat::DistCsrMatrix::apply_delta
//!
//! The compiled schedules change *nothing* observable: results are
//! bit-identical to the gid-based reference executor
//! ([`reference`](crate::reference)), and the [`CostLedger`] charges are
//! byte-for-byte the same — this optimizes the simulator's real wall
//! clock and live memory, not the modeled time.
//!
//! [`CostLedger`]: sf2d_sim::cost::CostLedger
//! [`Pool`]: sf2d_sim::sf2d_par::Pool

use std::ops::Range;

use sf2d_sim::cost::PhaseCost;
use sf2d_sim::sf2d_par::{par_ranks_with, Pool};

use crate::distmat::{DistCsrMatrix, RankBlock, SPMM_CHUNK};
use crate::map::VectorMap;
use crate::plan::CommPlan;

/// One outgoing message of a rank's compiled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackEntry {
    /// Destination rank.
    pub peer: u32,
    /// Offset of this message's pack list in the sender's region of
    /// `pack_idx` — and of its payload in the sender's region of a
    /// sender-major copy, in width-1 doubles (multiply by `ncols` for
    /// SpMM). The next entry's offset, or the region's length, ends it.
    pub payload_off: u32,
}

/// One incoming message of a rank's compiled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One phase's compiled schedule for **all** ranks: flat entry and index
/// arrays with per-rank offset tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhasePlan {
    /// Per-rank ranges into `owned_idx` (`p + 1` offsets).
    owned_base: Vec<u32>,
    /// All ranks' owned-copy pairs, interleaved `(a, b)`, in rank order.
    /// Expand: `(src_lid, xcols_lid)`; fold: `(partial_idx, y_lid)`.
    owned_idx: Vec<u32>,
    /// All ranks' pack entries, concatenated in rank order.
    pack: Vec<PackEntry>,
    /// Per-rank ranges into `pack` (`p + 1` offsets).
    pack_off: Vec<u32>,
    /// All ranks' unpack entries, concatenated in rank order.
    pub(crate) unpack: Vec<UnpackEntry>,
    /// Per-rank ranges into `unpack` (`p + 1` offsets).
    unpack_off: Vec<u32>,
    /// Per-rank regions of `pack_idx` in width-1 values (`p + 1` prefix
    /// sums of the ranks' send volumes).
    payload_base: Vec<u32>,
    /// Every rank's pack lists: what each sent value is read from.
    /// Expand: the sender's x lid; fold: its stored row of partials.
    pack_idx: Vec<u32>,
    /// Per-rank ranges into `recv_dst` (`p + 1` offsets).
    recv_base: Vec<u32>,
    /// Per received value — sources ascending, payload order within a
    /// message — where it lands. Expand: the `xcols` lid; fold: the y lid.
    recv_dst: Vec<u32>,
    /// Per-rank ranges into `reads` (`p + 1` offsets; empty in the fold).
    pub(crate) reads_base: Vec<u32>,
    /// The expand's gather lists: per column-map position, the x-window
    /// slot it reads. Empty in the fold.
    pub(crate) reads: Vec<u32>,
}

/// A flat list's length as an offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a phase's volume fits u32")
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

impl PhasePlan {
    /// A plan over zero ranks, ready for [`push_rank`](PhasePlan::push_rank).
    fn new() -> PhasePlan {
        PhasePlan {
            owned_base: vec![0],
            pack_off: vec![0],
            unpack_off: vec![0],
            payload_base: vec![0],
            recv_base: vec![0],
            ..PhasePlan::default()
        }
    }

    /// Appends the next rank's raw lists: the owned pairs, the pack and
    /// the unpack lists concatenated onto `owned_idx`, `pack_idx` and
    /// `recv_dst`. The unpack entries' payload offsets are the *sources'*;
    /// [`link_rank`](PhasePlan::link_rank) fills them in.
    fn push_rank(
        &mut self,
        owned: &[u32],
        pack: &[(u32, Vec<u32>)],
        unpack: &[(u32, u32, Vec<u32>)],
    ) {
        self.owned_idx.extend_from_slice(owned);
        self.owned_base.push(offset(self.owned_idx.len()));
        let base = offset(self.pack_idx.len());
        for (peer, lids) in pack {
            self.pack.push(PackEntry {
                peer: *peer,
                payload_off: offset(self.pack_idx.len()) - base,
            });
            self.pack_idx.extend_from_slice(lids);
        }
        self.pack_off.push(offset(self.pack.len()));
        self.payload_base.push(offset(self.pack_idx.len()));
        let base = offset(self.recv_dst.len());
        for (src, slot, lids) in unpack {
            self.unpack.push(UnpackEntry {
                src: *src,
                slot: *slot,
                payload_off: 0,
                start: offset(self.recv_dst.len()) - base,
            });
            self.recv_dst.extend_from_slice(lids);
        }
        self.unpack_off.push(offset(self.unpack.len()));
        self.recv_base.push(offset(self.recv_dst.len()));
    }

    /// Points rank `d`'s unpack entries at their senders' pack entries.
    /// An entry whose source `reslot` names also gets its slot looked up
    /// again (pack lists are peer-ascending): that pack list was rewritten.
    fn link_rank(&mut self, d: usize, reslot: impl Fn(u32) -> bool) {
        let range = self.unpack_off[d] as usize..self.unpack_off[d + 1] as usize;
        for e in &mut self.unpack[range] {
            let src = e.src as usize;
            let packs = &self.pack[self.pack_off[src] as usize..self.pack_off[src + 1] as usize];
            if reslot(e.src) {
                e.slot = packs
                    .binary_search_by_key(&(d as u32), |m| m.peer)
                    .expect("every unpack entry has its sender's pack entry")
                    as u32;
            }
            e.payload_off = packs[e.slot as usize].payload_off;
        }
    }

    /// Fills rank `d`'s gather list (the expand's, once linked): slot
    /// `local_base(src) + lid` with `lid` out of the sender's pack list for
    /// a received column, `local_base(d) + lid` out of an owned pair.
    fn link_gather(&mut self, d: usize, vmap: &VectorMap) {
        let mut reads = std::mem::take(&mut self.reads);
        let gather = &mut reads[self.reads_base[d] as usize..self.reads_base[d + 1] as usize];
        let plan = self.rank(d);
        for (src, _, off, lids) in plan.unpacks() {
            let base = vmap.local_base(src as usize) as u32;
            for (&lid, &there) in lids.iter().zip(self.sent(src, off, lids.len())) {
                gather[lid as usize] = base + there;
            }
        }
        let base = vmap.local_base(d) as u32;
        for (there, lid) in plan.owned_pairs() {
            gather[lid as usize] = base + there;
        }
        self.reads = reads;
    }

    /// Replaces rank `r`'s schedule by its freshly lowered raw lists,
    /// splicing the flat arrays and shifting the offset tables. Unpack
    /// entries of `r` and of every rank reading `r`'s pack lists must be
    /// [linked](PhasePlan::link_rank) afterwards.
    fn replace_rank(
        &mut self,
        r: usize,
        owned: &[u32],
        pack: &[(u32, Vec<u32>)],
        unpack: &[(u32, u32, Vec<u32>)],
    ) {
        let mut one = PhasePlan::new();
        one.push_rank(owned, pack, unpack);
        splice(&mut self.owned_idx, &mut self.owned_base, r, one.owned_idx);
        splice(&mut self.pack, &mut self.pack_off, r, one.pack);
        splice(&mut self.unpack, &mut self.unpack_off, r, one.unpack);
        splice(&mut self.pack_idx, &mut self.payload_base, r, one.pack_idx);
        splice(&mut self.recv_dst, &mut self.recv_base, r, one.recv_dst);
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.owned_base.len() - 1
    }

    /// Rank `r`'s pack entries.
    #[inline]
    pub fn pack_entries(&self, r: usize) -> &[PackEntry] {
        &self.pack[self.pack_off[r] as usize..self.pack_off[r + 1] as usize]
    }

    /// Rank `r`'s unpack entries.
    #[inline]
    pub fn unpack_entries(&self, r: usize) -> &[UnpackEntry] {
        &self.unpack[self.unpack_off[r] as usize..self.unpack_off[r + 1] as usize]
    }

    /// Rank `r`'s region of `pack_idx` — and of a sender-major copy of
    /// the phase's payloads — in width-1 values. The regions tile
    /// `0..payload_range(p - 1).end` in rank order.
    #[inline]
    pub fn payload_range(&self, r: usize) -> Range<usize> {
        self.payload_base[r] as usize..self.payload_base[r + 1] as usize
    }

    /// Rank `r`'s total send-payload length in width-1 doubles.
    #[inline]
    pub fn payload_doubles(&self, r: usize) -> usize {
        self.payload_range(r).len()
    }

    /// The whole phase's send volume in width-1 doubles: the length of
    /// its sender-major copy.
    #[inline]
    pub fn arena_doubles(&self) -> usize {
        self.pack_idx.len()
    }

    /// Where rank `r`'s sent values are read from, value by value: its
    /// pack lists concatenated in message order.
    #[inline]
    pub fn pack_indices(&self, r: usize) -> &[u32] {
        &self.pack_idx[self.payload_range(r)]
    }

    /// What an unpack entry `(src, _, off, lids)` reads: the `n =
    /// lids.len()` indices of `src`'s pack lists from its offset `off`.
    #[inline]
    pub fn sent(&self, src: u32, off: u32, n: usize) -> &[u32] {
        &self.pack_indices(src as usize)[off as usize..][..n]
    }

    /// Where rank `r`'s received values land, sources ascending, payload
    /// order within a message.
    #[inline]
    pub fn received(&self, r: usize) -> &[u32] {
        &self.recv_dst[self.recv_base[r] as usize..self.recv_base[r + 1] as usize]
    }

    /// Rank `r`'s gather list (the expand's): per column-map position the
    /// width-1 x-window slot it reads, `local_base(owner) + lid`.
    #[inline]
    pub fn gather(&self, r: usize) -> &[u32] {
        &self.reads[self.reads_base[r] as usize..self.reads_base[r + 1] as usize]
    }

    /// Rank `r`'s view of this plan.
    #[inline]
    pub fn rank(&self, r: usize) -> RankPlan<'_> {
        RankPlan { phase: self, r }
    }
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
    /// Owned-copy pairs. Expand: `xcols[b] = x_local[a]`; fold:
    /// `y_local[b] += partials[a]`.
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

    /// Incoming messages as `(src, slot, payload_off, lids)` — the
    /// payload offset is the *sender's*, into its pack lists
    /// ([`PhasePlan::sent`]).
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

    /// Number of incoming messages.
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
    /// Per-rank expand-phase costs (= `import.phase_costs()`), frozen.
    pub expand_costs: Vec<PhaseCost>,
    /// Per-rank local-compute costs (2 flops per local nonzero), frozen.
    pub compute_costs: Vec<PhaseCost>,
    /// Per-rank fold-phase costs (= `export.phase_costs()`), frozen.
    pub fold_costs: Vec<PhaseCost>,
    /// Per-rank sum-phase costs (one flop per locally-summed owned row
    /// plus one per received fold value), frozen.
    pub sum_costs: Vec<PhaseCost>,
}

/// One rank's schedules before they are appended to the flat plan: plain
/// nested vectors, built by the (parallelizable) pure per-rank lowering
/// pass.
#[derive(Debug, Clone, Default)]
struct RawRank {
    e_owned: Vec<u32>,
    e_pack: Vec<(u32, Vec<u32>)>,
    e_unpack: Vec<(u32, u32, Vec<u32>)>,
    f_owned: Vec<u32>,
    f_pack: Vec<(u32, Vec<u32>)>,
    f_unpack: Vec<(u32, u32, Vec<u32>)>,
    sum_flops: u64,
}

/// Lowers one rank's schedules (the loop body of the old serial compile).
/// Pure in `r` given the shared inputs, so fanning it across threads is
/// trivially byte-identical.
fn lower_rank(
    r: usize,
    vmap: &VectorMap,
    block: &RankBlock,
    import: &CommPlan,
    export: &CommPlan,
) -> RawRank {
    // Expand: owned colmap entries copy straight from the local x slice;
    // remote entries arrive via the import plan.
    let mut e_owned = Vec::new();
    for (lid, &g) in block.colmap.iter().enumerate() {
        if vmap.owner(g) == r as u32 {
            e_owned.push(vmap.lid(g) as u32);
            e_owned.push(lid as u32);
        }
    }
    let e_pack: Vec<(u32, Vec<u32>)> = import.sends[r]
        .iter()
        .map(|(dst, gids)| (*dst, gids.iter().map(|&g| vmap.lid(g) as u32).collect()))
        .collect();
    let e_unpack: Vec<(u32, u32, Vec<u32>)> = import.recvs[r]
        .iter()
        .map(|(src, gids)| {
            // Sends are destination-ascending, so the slot lookup is a
            // binary search, not the linear scan that made compilation
            // O(messages²) per rank pair at high p.
            let slot = import.sends[*src as usize]
                .binary_search_by_key(&(r as u32), |(dst, _)| *dst)
                .expect("import plan symmetry") as u32;
            (
                *src,
                slot,
                gids.iter().map(|&g| block.col_lid(g) as u32).collect(),
            )
        })
        .collect();

    // Fold: owned rows sum locally; the rest ship to their owner.
    // `partials` is indexed by the block's stored row (the local kernel
    // writes it sequentially), so pack lists are stored rows — listed in
    // the plan's gid order, which is the payload order — and unpack
    // lists are y local ids.
    let mut f_owned = Vec::new();
    for (li, &g) in block.rowmap.iter().enumerate() {
        if vmap.owner(g) == r as u32 {
            f_owned.push(block.stored_row(li) as u32);
            f_owned.push(vmap.lid(g) as u32);
        }
    }
    let f_pack: Vec<(u32, Vec<u32>)> = export.recvs[r]
        .iter()
        .map(|(owner, gids)| {
            (
                *owner,
                gids.iter()
                    .map(|&g| block.rowmap.binary_search(&g).expect("gid in row map"))
                    .map(|li| block.stored_row(li) as u32)
                    .collect(),
            )
        })
        .collect();
    let f_unpack: Vec<(u32, u32, Vec<u32>)> = export.sends[r]
        .iter()
        .map(|(src, gids)| {
            let slot = export.recvs[*src as usize]
                .binary_search_by_key(&(r as u32), |(owner, _)| *owner)
                .expect("export plan symmetry") as u32;
            (
                *src,
                slot,
                gids.iter().map(|&g| vmap.lid(g) as u32).collect(),
            )
        })
        .collect();
    let received: u64 = f_unpack.iter().map(|(_, _, lids)| lids.len() as u64).sum();
    let sum_flops = f_owned.len() as u64 / 2 + received;
    RawRank {
        e_owned,
        e_pack,
        e_unpack,
        f_owned,
        f_pack,
        f_unpack,
        sum_flops,
    }
}

/// Local-compute cost of one rank: 2 flops per local nonzero.
fn compute_cost(block: &RankBlock) -> PhaseCost {
    PhaseCost::compute(2 * block.nnz() as u64)
}

impl CompiledSpmv {
    /// Lowers the gid-based plans and maps into local-index schedules,
    /// serially. All gid resolution the reference executor performs per
    /// call happens here, once.
    pub fn compile(
        vmap: &VectorMap,
        blocks: &[RankBlock],
        import: &CommPlan,
        export: &CommPlan,
    ) -> CompiledSpmv {
        CompiledSpmv::compile_with(vmap, blocks, import, export, 1, None)
    }

    /// [`compile`](CompiledSpmv::compile) with the pure per-rank lowering
    /// fanned across `threads` OS threads (on the persistent `pool` when
    /// given). The flat plan is appended serially in rank order, so the
    /// result is **byte-identical** to the serial compile for any thread
    /// count.
    pub fn compile_with(
        vmap: &VectorMap,
        blocks: &[RankBlock],
        import: &CommPlan,
        export: &CommPlan,
        threads: usize,
        pool: Option<&Pool>,
    ) -> CompiledSpmv {
        let p = blocks.len();
        // Stage 1 — parallel: lower every rank independently.
        let mut raw: Vec<RawRank> = Vec::new();
        raw.resize_with(p, RawRank::default);
        par_ranks_with(threads, pool, &mut raw, |r, slot| {
            *slot = lower_rank(r, vmap, &blocks[r], import, export);
        });

        // Stage 2 — serial: append to the flat plan in rank order, with
        // one expand gather slot per column-map position, then point every
        // unpack entry and gather list at the senders' pack lists.
        let mut expand = PhasePlan::new();
        let mut fold = PhasePlan::new();
        expand.reads_base.push(0);
        for (rr, block) in raw.iter().zip(blocks) {
            expand.push_rank(&rr.e_owned, &rr.e_pack, &rr.e_unpack);
            fold.push_rank(&rr.f_owned, &rr.f_pack, &rr.f_unpack);
            expand
                .reads
                .resize(expand.reads.len() + block.colmap.len(), 0);
            expand.reads_base.push(offset(expand.reads.len()));
        }
        for d in 0..p {
            expand.link_rank(d, |_| false);
            expand.link_gather(d, vmap);
            fold.link_rank(d, |_| false);
        }

        // The per-phase cost vectors change only when a delta touches
        // their rank — freeze them so a superstep charge is a slice
        // reduce, not a plan traversal.
        CompiledSpmv {
            expand,
            fold,
            expand_costs: import.phase_costs(),
            compute_costs: blocks.iter().map(compute_cost).collect(),
            fold_costs: export.phase_costs(),
            sum_costs: raw
                .iter()
                .map(|rr| PhaseCost::compute(rr.sum_flops))
                .collect(),
        }
    }

    /// Brings the schedule up to date after `blocks`, `import` and
    /// `export` changed at a few ranks — the dirty-rank form of
    /// [`compile`](CompiledSpmv::compile), and byte-equal (`==`) to it.
    /// `relower` names, ascending, every rank whose row or column map or
    /// stored row order changed or whose pack or unpack list gained, lost
    /// or rewrote a message; `resized` every rank whose local nonzero
    /// count changed.
    ///
    /// Each `relower` rank is lowered again by the same `lower_rank` and
    /// spliced in; the ranks reading a re-lowered rank only have their
    /// slots, payload offsets and gather entries refreshed. Payload
    /// offsets are relative to the sender's region, so no other rank's
    /// links move.
    pub(crate) fn patch(
        &mut self,
        vmap: &VectorMap,
        blocks: &[RankBlock],
        import: &CommPlan,
        export: &CommPlan,
        resized: &[usize],
        relower: &[usize],
    ) {
        for &r in resized {
            self.compute_costs[r] = compute_cost(&blocks[r]);
        }
        if relower.is_empty() {
            return;
        }
        let mut relowered = vec![false; blocks.len()];
        for &r in relower {
            let rr = lower_rank(r, vmap, &blocks[r], import, export);
            let expand = &mut self.expand;
            expand.replace_rank(r, &rr.e_owned, &rr.e_pack, &rr.e_unpack);
            let gather = vec![0; blocks[r].colmap.len()];
            splice(&mut expand.reads, &mut expand.reads_base, r, gather);
            self.fold
                .replace_rank(r, &rr.f_owned, &rr.f_pack, &rr.f_unpack);
            self.expand_costs[r] = import.rank_phase_cost(r);
            self.fold_costs[r] = export.rank_phase_cost(r);
            self.sum_costs[r] = PhaseCost::compute(rr.sum_flops);
            relowered[r] = true;
        }
        // A fresh rank has its payload offsets unset; a reader of a fresh
        // rank has stale offsets, slots and gather entries.
        let reslot = |src: u32| relowered[src as usize];
        let stale = |phase: &PhasePlan| {
            let mut stale = relowered.clone();
            for m in relower.iter().flat_map(|&s| phase.pack_entries(s)) {
                stale[m.peer as usize] = true;
            }
            (0..stale.len()).filter(move |&d| stale[d])
        };
        for d in stale(&self.fold) {
            self.fold.link_rank(d, reslot);
        }
        for d in stale(&self.expand) {
            self.expand.link_rank(d, reslot);
            self.expand.link_gather(d, vmap);
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

    /// Sum-phase flops charged to rank `r` per SpMV column.
    pub fn sum_flops(&self, r: usize) -> u64 {
        self.sum_costs[r].flops
    }

    /// Actual heap footprint of the plan: entry arrays, owned, pack,
    /// receive and gather lists, offset tables, and the frozen cost vectors.
    pub fn plan_bytes(&self) -> u64 {
        use std::mem::size_of;
        let phase = |pl: &PhasePlan| -> u64 {
            // Five `p + 1` offset tables, the gather lists' (the expand's
            // only), and the owned, pack, receive and gather lists.
            let words = 5 * (pl.nranks() + 1)
                + pl.reads_base.len()
                + pl.owned_idx.len()
                + pl.pack_idx.len()
                + pl.recv_dst.len()
                + pl.reads.len();
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
        for r in 0..dm.nprocs() {
            let plan = dm.compiled.expand_rank(r);
            assert_eq!(plan.npacks(), dm.import.sends[r].len());
            assert_eq!(plan.nunpacks(), dm.import.recvs[r].len());
            // Pack lids resolve to exactly the gids the plan ships, and
            // payload offsets are the prefix sums of message lengths.
            let mut expect_off = 0u32;
            for ((dst, lids, off), (pdst, gids)) in plan.packs().zip(&dm.import.sends[r]) {
                assert_eq!(dst, *pdst);
                assert_eq!(off, expect_off);
                expect_off += lids.len() as u32;
                for (&lid, &g) in lids.iter().zip(gids) {
                    assert_eq!(dm.vmap.gids(r)[lid as usize], g);
                }
            }
            assert_eq!(dm.compiled.expand.payload_doubles(r), expect_off as usize);
            // Unpack positions land on the matching colmap entries, and
            // each slot points at the sender's message for this rank at
            // the sender's recorded payload offset.
            for ((src, slot, off, lids), (psrc, gids)) in plan.unpacks().zip(&dm.import.recvs[r]) {
                assert_eq!(src, *psrc);
                let (dst, sent, soff) = dm.compiled.expand_rank(src as usize).pack(slot as usize);
                assert_eq!(dst, r as u32);
                assert_eq!(off, soff);
                assert_eq!(sent.len(), gids.len());
                for (&lid, &g) in lids.iter().zip(gids) {
                    assert_eq!(dm.blocks[r].colmap[lid as usize], g);
                }
            }
        }
    }

    #[test]
    fn owned_lists_cover_exactly_the_local_entries() {
        let dm = dist_matrix();
        for r in 0..dm.nprocs() {
            let block = &dm.blocks[r];
            let owned_cols = block
                .colmap
                .iter()
                .filter(|&&g| dm.vmap.owner(g) == r as u32)
                .count();
            assert_eq!(dm.compiled.expand_rank(r).n_owned(), owned_cols);
            for (src, dst) in dm.compiled.expand_rank(r).owned_pairs() {
                let g = block.colmap[dst as usize];
                assert_eq!(dm.vmap.owner(g), r as u32);
                assert_eq!(dm.vmap.lid(g), src as usize);
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
        for r in 0..dm.nprocs() {
            let received: u64 = dm.export.sends[r].iter().map(|(_, g)| g.len() as u64).sum();
            let owned = dm.compiled.fold_rank(r).n_owned() as u64;
            assert_eq!(dm.compiled.sum_flops(r), owned + received);
        }
    }

    #[test]
    fn parallel_compile_is_byte_identical_to_serial() {
        let a = rmat(&RmatConfig::graph500(7), 9);
        let d = MatrixDist::random_2d(a.nrows(), 2, 3, 4);
        let dm = DistCsrMatrix::from_global(&a, &d);
        for threads in [2usize, 5] {
            let par = CompiledSpmv::compile_with(
                &dm.vmap, &dm.blocks, &dm.import, &dm.export, threads, None,
            );
            assert_eq!(par, dm.compiled, "threads {threads}");
        }
        let pool = sf2d_sim::sf2d_par::Pool::new(3);
        let pooled = CompiledSpmv::compile_with(
            &dm.vmap,
            &dm.blocks,
            &dm.import,
            &dm.export,
            3,
            Some(&pool),
        );
        assert_eq!(pooled, dm.compiled);
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
