//! The layout invariants of a compiled plan, shared by the property
//! tests: whatever built the plan — `compile`, a threaded compile or a
//! chain of patches — its dense layout must be the pure function of the
//! message schedule the executor assumes.

use sf2d_spmv::{DistCsrMatrix, PhasePlan, RankPlan};

/// Checks that each rank's pack indices are its messages' pack lists
/// concatenated, in message order, from offset 0.
fn regions_tile<'a>(phase: &PhasePlan, rank: impl Fn(usize) -> RankPlan<'a>) -> Result<(), String> {
    for r in 0..phase.nranks() {
        let mut at = 0u32;
        let mut packed = Vec::new();
        for (_, lids, off) in rank(r).packs() {
            if off != at {
                return Err(format!("rank {r}: a message starts at {off}, not {at}"));
            }
            at += lids.len() as u32;
            packed.extend_from_slice(lids);
        }
        if packed != phase.pack_indices(r) {
            return Err(format!("rank {r}: pack list is not its messages' lists"));
        }
    }
    Ok(())
}

/// Checks the fold: (i) [`regions_tile`]; (ii) each receiver's unpack
/// entries tile its receive list, and each `(slot, payload_off)` of them
/// names the sender's pack entry for this receiver, of the same length —
/// the sender's pack list is what the owner reads through; (iii) every
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
        let mut at = 0;
        for (e, (_, _, _, lids)) in phase.unpack_entries(d).iter().zip(rank(d).unpacks()) {
            if e.start != at {
                return Err(format!(
                    "rank {d}: an entry starts at {}, not {at}",
                    e.start
                ));
            }
            at += lids.len() as u32;
        }
        for (from, slot, off, lids) in rank(d).unpacks() {
            let (peer, sent, sent_off) = rank(from as usize).pack(slot as usize);
            if peer != d as u32 || sent_off != off || sent.len() != lids.len() {
                return Err(format!("rank {d}: entry from {from} misses its pack entry"));
            }
            reads[from as usize][slot as usize] += 1;
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
/// slot of `colmap[lid]`, `local_base(owner) + lid` of the map; (iii) the
/// pack lists are the need lists transposed: each rank's remote columns,
/// grouped by owner, are exactly the messages their owners send it, and
/// no sender sends anything else; (iv) no receive side is kept.
fn expand_invariants(dm: &DistCsrMatrix) -> Result<(), String> {
    let (c, vmap) = (&dm.compiled, &dm.vmap);
    regions_tile(&c.expand, |r| c.expand_rank(r))?;
    let mut needs = 0;
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
        let mut remote: Vec<(u32, u32)> = (colmap.iter())
            .map(|&g| (vmap.owner(g), g))
            .filter(|&(o, _)| o as usize != d)
            .collect();
        remote.sort_by_key(|&(o, _)| o);
        for run in remote.chunk_by(|a, b| a.0 == b.0) {
            needs += 1;
            let src = run[0].0 as usize;
            let sent = c.expand_rank(src).packs().find(|m| m.0 == d as u32);
            let Some((_, lids, _)) = sent else {
                return Err(format!("rank {src} sends rank {d} nothing it needs"));
            };
            let gids: Vec<u32> = lids.iter().map(|&l| vmap.gids(src)[l as usize]).collect();
            if !gids.iter().copied().eq(run.iter().map(|&(_, g)| g)) {
                return Err(format!(
                    "rank {src} sends rank {d} other gids than it needs"
                ));
            }
        }
        if c.expand_rank(d).nunpacks() != 0 {
            return Err(format!("rank {d} keeps expand unpack entries"));
        }
    }
    let sent: usize = (0..dm.nprocs()).map(|r| c.expand_rank(r).npacks()).sum();
    if sent != needs {
        return Err(format!("{sent} expand messages for {needs} needs"));
    }
    Ok(())
}

/// The invariants of both phases of `dm`'s compiled plan.
pub fn plan_invariants(dm: &DistCsrMatrix) -> Result<(), String> {
    expand_invariants(dm).map_err(|e| format!("expand: {e}"))?;
    let c = &dm.compiled;
    phase_invariants(&c.fold, |r| c.fold_rank(r)).map_err(|e| format!("fold: {e}"))
}
