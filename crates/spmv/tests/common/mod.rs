//! The layout invariants of a compiled plan, shared by the property
//! tests: whatever built the plan — `compile`, a threaded compile or a
//! chain of patches — its dense layout must be the pure function of the
//! message schedule the executor assumes.

use sf2d_spmv::{DistCsrMatrix, PhasePlan, RankPlan};

/// Checks that the rank regions tile the phase's messages in rank order
/// and that each is its pack lists concatenated.
fn regions_tile<'a>(phase: &PhasePlan, rank: impl Fn(usize) -> RankPlan<'a>) -> Result<(), String> {
    let mut at = 0usize;
    for r in 0..phase.nranks() {
        let region = phase.payload_range(r);
        if region.start != at || region.len() != phase.payload_doubles(r) {
            return Err(format!("rank {r}: region {region:?} does not follow {at}"));
        }
        at = region.end;
        let packed: Vec<u32> = rank(r)
            .packs()
            .flat_map(|(_, lids, _)| lids.to_vec())
            .collect();
        if packed != phase.pack_indices(r) {
            return Err(format!("rank {r}: pack list is not its messages' lists"));
        }
    }
    if at != phase.arena_doubles() {
        return Err(format!(
            "regions end at {at}, arena at {}",
            phase.arena_doubles()
        ));
    }
    Ok(())
}

/// Checks the fold: (i) [`regions_tile`]; (ii) each receiver's unpack
/// entries tile its receive list, and each `(slot, payload_off)` names
/// the sender's pack entry for this receiver, of the same length — the
/// sender's pack list is what the owner reads through; (iii) every
/// sender's pack entry is read by exactly one receiver entry.
fn phase_invariants<'a>(
    phase: &PhasePlan,
    rank: impl Fn(usize) -> RankPlan<'a>,
) -> Result<(), String> {
    regions_tile(phase, &rank)?;
    let mut reads: Vec<Vec<u32>> = (0..phase.nranks())
        .map(|r| vec![0; rank(r).npacks()])
        .collect();
    for d in 0..phase.nranks() {
        let mut dst = Vec::new();
        for (from, slot, off, lids) in rank(d).unpacks() {
            let (peer, sent, sent_off) = rank(from as usize).pack(slot as usize);
            if peer != d as u32 || sent_off != off || sent.len() != lids.len() {
                return Err(format!("rank {d}: entry from {from} misses its pack entry"));
            }
            dst.extend_from_slice(lids);
            reads[from as usize][slot as usize] += 1;
        }
        if dst != phase.received(d) {
            return Err(format!(
                "rank {d}: unpack entries do not tile its receive list"
            ));
        }
    }
    for (src, counts) in reads.iter().enumerate() {
        if let Some(slot) = counts.iter().position(|&n| n != 1) {
            return Err(format!(
                "rank {src}: pack entry {slot} is read {} times",
                counts[slot]
            ));
        }
    }
    Ok(())
}

/// Checks the expand: (i) [`regions_tile`]; (ii) each rank's gather list
/// has one entry per column-map position, and entry `lid` is the x-window
/// slot of `colmap[lid]` — `local_base(owner) + lid` of the map — which
/// is also the slot the sender's pack list names for that position (the
/// rank's own owned pairs for an owned column).
fn expand_invariants(dm: &DistCsrMatrix) -> Result<(), String> {
    let (c, vmap) = (&dm.compiled, &dm.vmap);
    regions_tile(&c.expand, |r| c.expand_rank(r))?;
    for d in 0..dm.nprocs() {
        let gather = c.expand.gather(d);
        let colmap = &dm.blocks[d].colmap;
        if gather.len() != colmap.len() {
            return Err(format!("rank {d}: {} gather entries", gather.len()));
        }
        for (lid, (&slot, &g)) in gather.iter().zip(colmap).enumerate() {
            let want = vmap.local_base(vmap.owner(g) as usize) + vmap.lid(g);
            if slot as usize != want {
                return Err(format!("rank {d}: column {lid} reads {slot}, not {want}"));
            }
        }
        let mut named = vec![None; gather.len()];
        let plan = c.expand_rank(d);
        let owned = plan.owned_pairs().map(|(from, to)| (d, from, to));
        let mut routed: Vec<(usize, u32, u32)> = owned.collect();
        for (from, slot, off, lids) in plan.unpacks() {
            let (peer, sent, sent_off) = c.expand_rank(from as usize).pack(slot as usize);
            if peer != d as u32 || sent_off != off || sent.len() != lids.len() {
                return Err(format!("rank {d}: entry from {from} misses its pack entry"));
            }
            routed.extend(sent.iter().zip(lids).map(|(&s, &l)| (from as usize, s, l)));
        }
        for (src, there, lid) in routed {
            let slot = (vmap.local_base(src) + there as usize) as u32;
            if named[lid as usize].replace(slot).is_some() {
                return Err(format!("rank {d}: column {lid} is filled twice"));
            }
        }
        if named.iter().zip(gather).any(|(n, &g)| *n != Some(g)) {
            return Err(format!("rank {d}: gather list is not its routing"));
        }
    }
    Ok(())
}

/// The invariants of both phases of `dm`'s compiled plan.
pub fn plan_invariants(dm: &DistCsrMatrix) -> Result<(), String> {
    expand_invariants(dm).map_err(|e| format!("expand: {e}"))?;
    let c = &dm.compiled;
    phase_invariants(&c.fold, |r| c.fold_rank(r)).map_err(|e| format!("fold: {e}"))
}
