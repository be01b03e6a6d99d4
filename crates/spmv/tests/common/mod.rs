//! The payload-arena invariants of a compiled plan, shared by the
//! property tests: whatever built the plan — `compile`, a threaded
//! compile or a chain of patches — its dense layout must be the pure
//! function of the message schedule the executor assumes.

use sf2d_spmv::{DistCsrMatrix, PhasePlan, RankPlan};

/// Checks one phase: (i) the rank regions tile the arena and each is its
/// pack lists concatenated; (ii) the receive lists are the expansion of
/// `unpacks()` against the senders' `packs()`, and read every arena slot
/// exactly once.
fn phase_invariants<'a>(
    phase: &PhasePlan,
    rank: impl Fn(usize) -> RankPlan<'a>,
) -> Result<(), String> {
    let p = phase.nranks();
    let mut at = 0usize;
    for r in 0..p {
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

    let mut reads = vec![0u32; phase.arena_doubles()];
    for d in 0..p {
        let (mut dst, mut src) = (Vec::new(), Vec::new());
        for (from, slot, off, lids) in rank(d).unpacks() {
            let (peer, sent, sent_off) = rank(from as usize).pack(slot as usize);
            if peer != d as u32 || sent_off != off || sent.len() != lids.len() {
                return Err(format!("rank {d}: entry from {from} misses its pack entry"));
            }
            let first = phase.payload_range(from as usize).start + off as usize;
            dst.extend_from_slice(lids);
            src.extend((first..first + lids.len()).map(|s| s as u32));
        }
        if (&dst[..], &src[..]) != phase.received(d) {
            return Err(format!(
                "rank {d}: receive lists are not its messages expanded"
            ));
        }
        for s in src {
            reads[s as usize] += 1;
        }
    }
    match reads.iter().position(|&n| n != 1) {
        Some(slot) => Err(format!("arena slot {slot} is read {} times", reads[slot])),
        None => Ok(()),
    }
}

/// [`phase_invariants`] of both phases of `dm`'s compiled plan.
pub fn plan_invariants(dm: &DistCsrMatrix) -> Result<(), String> {
    let c = &dm.compiled;
    phase_invariants(&c.expand, |r| c.expand_rank(r)).map_err(|e| format!("expand: {e}"))?;
    phase_invariants(&c.fold, |r| c.fold_rank(r)).map_err(|e| format!("fold: {e}"))
}
