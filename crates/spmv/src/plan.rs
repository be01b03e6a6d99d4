//! Communication plans: the Import (expand) and Export (fold) of Epetra.
//!
//! A [`CommPlan`] is built once from the maps (like Epetra's
//! `FillComplete()`), then executed every SpMV. Messages carry only values
//! — the index lists live in the plan on both sides — so communication
//! volume is exactly "number of doubles sent", the unit of the paper's
//! Table 3.

use sf2d_sim::cost::PhaseCost;
use sf2d_sim::runtime::route_sequential;

use crate::map::VectorMap;

/// A static point-to-point communication plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommPlan {
    p: usize,
    /// `sends[rank]` = `(dst, global ids whose values to send)`, destinations
    /// ascending, gids ascending within each destination.
    pub sends: Vec<Vec<(u32, Vec<u32>)>>,
    /// Mirror image: `recvs[rank]` = `(src, gids that will arrive)`.
    pub recvs: Vec<Vec<(u32, Vec<u32>)>>,
}

/// Groups rank `r`'s sorted need-list by owner: `(owner, gids)` with
/// owners ascending and gids ascending within each; gids `r` owns itself
/// are skipped (no self-messages).
fn group_by_owner(r: usize, need: &[u32], source: &VectorMap) -> Vec<(u32, Vec<u32>)> {
    // A real assert (not debug_assert): plans are built once per
    // matrix, the check is linear, and an unsorted need-list would
    // silently desync the compiled pack/unpack schedules.
    assert!(
        need.windows(2).all(|w| w[0] < w[1]),
        "needed list must be sorted"
    );
    // Group by owner via (owner, gid) pairs and a stable sort —
    // not a `vec![Vec::new(); p]` scratch table, which would make
    // plan construction O(p²) across ranks and dominate
    // FillComplete at p = 16,384 where most ranks need only a
    // handful of remote gids. The stable sort keeps gids
    // ascending within each owner; owners come out ascending.
    let mut pairs: Vec<(u32, u32)> = need
        .iter()
        .map(|&gid| (source.owner(gid), gid))
        .filter(|&(o, _)| o as usize != r)
        .collect();
    pairs.sort_by_key(|&(o, _)| o);
    pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|&(_, g)| g).collect()))
        .collect()
}

/// The gid list `msgs` (peer-ascending) holds for `peer`, if any.
fn gids_from(msgs: &[(u32, Vec<u32>)], peer: u32) -> Option<&Vec<u32>> {
    let k = msgs.binary_search_by_key(&peer, |m| m.0).ok()?;
    Some(&msgs[k].1)
}

/// One endpoint's cost of a message list: a message each, 8 bytes per gid.
fn side_cost(msgs: &[(u32, Vec<u32>)]) -> PhaseCost {
    let doubles: u64 = msgs.iter().map(|(_, g)| g.len() as u64).sum();
    PhaseCost::comm(msgs.len() as u64, 8 * doubles)
}

impl CommPlan {
    /// Builds a gather plan: rank `r` needs the values of `needed[r]`
    /// (sorted gids); each is supplied by its owner in `source`. Gids owned
    /// by `r` itself are skipped (no self-messages).
    pub fn gather(needed: &[Vec<u32>], source: &VectorMap) -> CommPlan {
        let p = source.nprocs();
        assert_eq!(needed.len(), p, "one needed-list per rank");
        let mut sends: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); p];
        let recvs: Vec<Vec<(u32, Vec<u32>)>> = needed
            .iter()
            .enumerate()
            .map(|(r, need)| group_by_owner(r, need, source))
            .collect();
        // Mirror receives into sends, destination-ascending.
        for r in 0..p {
            for (src, gids) in &recvs[r] {
                sends[*src as usize].push((r as u32, gids.clone()));
            }
        }
        for s in &mut sends {
            s.sort_by_key(|(dst, _)| *dst);
        }
        CommPlan { p, sends, recvs }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Replaces rank `r`'s need-list — [`gather`](CommPlan::gather) for
    /// one rank of an existing plan. `recvs[r]` is regrouped, and the one
    /// `sends` entry of every source whose gid list for `r` changed is
    /// rewritten, created or deleted. Returns those sources, ascending;
    /// the plan equals a from-scratch `gather` of the updated need-lists.
    pub fn set_needed(&mut self, r: usize, needed: &[u32], source: &VectorMap) -> Vec<u32> {
        let new = group_by_owner(r, needed, source);
        let old = std::mem::replace(&mut self.recvs[r], new);
        let new = &self.recvs[r];
        let mut touched: Vec<u32> = old.iter().chain(new).map(|m| m.0).collect();
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&src| gids_from(&old, src) != gids_from(new, src));
        for &src in &touched {
            let out = &mut self.sends[src as usize];
            match (
                out.binary_search_by_key(&(r as u32), |m| m.0),
                gids_from(new, src),
            ) {
                (Ok(k), Some(gids)) => out[k].1.clone_from(gids),
                (Ok(k), None) => {
                    out.remove(k);
                }
                (Err(k), Some(gids)) => out.insert(k, (r as u32, gids.clone())),
                (Err(_), None) => unreachable!("sends mirror recvs"),
            }
        }
        touched
    }

    /// Send-side cost per rank: one message per destination, 8 bytes per
    /// value.
    pub fn send_costs(&self) -> Vec<PhaseCost> {
        self.sends.iter().map(|out| side_cost(out)).collect()
    }

    /// Full phase cost of rank `r`: each message charges latency and
    /// bytes at **both** endpoints. This is what the SpMV phases use — a
    /// hub rank that receives from everyone pays for it, which is how
    /// receive-side hot spots slow the paper's block layouts.
    pub fn rank_phase_cost(&self, r: usize) -> PhaseCost {
        side_cost(&self.sends[r]).add(&side_cost(&self.recvs[r]))
    }

    /// [`rank_phase_cost`](CommPlan::rank_phase_cost) of every rank.
    pub fn phase_costs(&self) -> Vec<PhaseCost> {
        (0..self.p).map(|r| self.rank_phase_cost(r)).collect()
    }

    /// Total doubles moved by one execution (each planned gid is one
    /// double in flight, so the runtime's traffic accounting applies
    /// directly to the plan's send lists).
    pub fn total_volume(&self) -> usize {
        sf2d_sim::runtime::traffic_volume(&self.sends)
    }

    /// Max messages sent by any rank.
    pub fn max_send_msgs(&self) -> usize {
        self.sends.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Executes the plan as a **gather**: values live in `locals` (aligned
    /// to `source`'s local orders); returns, per rank, the received
    /// `(gid, value)` pairs, sources ascending (deterministic).
    pub fn execute_gather(&self, source: &VectorMap, locals: &[Vec<f64>]) -> Vec<Vec<(u32, f64)>> {
        assert_eq!(locals.len(), self.p);
        let sends: Vec<Vec<(u32, Vec<f64>)>> = self
            .sends
            .iter()
            .enumerate()
            .map(|(r, out)| {
                out.iter()
                    .map(|(dst, gids)| {
                        let vals: Vec<f64> =
                            gids.iter().map(|&g| locals[r][source.lid(g)]).collect();
                        (*dst, vals)
                    })
                    .collect()
            })
            .collect();
        let delivered = route_sequential(self.p, sends);

        // Pair arriving values with the gids the plan says they carry.
        delivered
            .into_iter()
            .enumerate()
            .map(|(r, inbox)| {
                let mut out = Vec::new();
                debug_assert_eq!(inbox.len(), self.recvs[r].len());
                for (msg, (src, gids)) in inbox.iter().zip(&self.recvs[r]) {
                    assert_eq!(msg.src, *src, "plan/traffic mismatch at rank {r}");
                    assert_eq!(msg.data.len(), gids.len(), "short message at rank {r}");
                    out.extend(gids.iter().copied().zip(msg.data.iter().copied()));
                }
                out
            })
            .collect()
    }

    /// Executes the plan in reverse as a **scatter-add** (the fold/export):
    /// rank `r` holds `contributions[r]` = values for the gids in its
    /// *recv* lists (i.e. the plan was built with `gather(contributed,
    /// target)`), which travel back to the gid owners and are summed into
    /// `locals` there.
    ///
    /// This mirrors Epetra: an `Export` is an `Import` executed backwards.
    pub fn execute_scatter_add(
        &self,
        target: &VectorMap,
        contributions: &[Vec<(u32, f64)>],
        locals: &mut [Vec<f64>],
    ) {
        assert_eq!(contributions.len(), self.p);
        // Reverse traffic: what `recvs[r]` describes, rank r now sends.
        let sends: Vec<Vec<(u32, Vec<f64>)>> = (0..self.p)
            .map(|r| {
                let mut lookup: std::collections::HashMap<u32, f64> =
                    contributions[r].iter().copied().collect();
                self.recvs[r]
                    .iter()
                    .map(|(owner, gids)| {
                        let vals: Vec<f64> = gids
                            .iter()
                            .map(|g| lookup.remove(g).expect("missing contribution"))
                            .collect();
                        (*owner, vals)
                    })
                    .collect()
            })
            .collect();
        let delivered = route_sequential(self.p, sends);
        for (r, inbox) in delivered.into_iter().enumerate() {
            // The reverse of `sends[r]` arrives here; match against the
            // forward plan's send lists to recover gids.
            let expect = &self.sends[r];
            debug_assert_eq!(inbox.len(), expect.len());
            for (msg, (dst, gids)) in inbox.iter().zip(expect) {
                assert_eq!(msg.src, *dst, "reverse plan mismatch at rank {r}");
                for (&gid, &val) in gids.iter().zip(&msg.data) {
                    locals[r][target.lid(gid)] += val;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_partition::MatrixDist;

    fn map3() -> VectorMap {
        // 6 entries, block over 3 ranks: rank r owns {2r, 2r+1}.
        VectorMap::from_dist(&MatrixDist::block_1d(6, 3))
    }

    #[test]
    fn gather_plan_structure() {
        let m = map3();
        // Rank 0 needs gid 2 (rank 1) and 5 (rank 2); rank 2 needs 0.
        let needed = vec![vec![2, 5], vec![], vec![0]];
        let plan = CommPlan::gather(&needed, &m);
        assert_eq!(plan.recvs[0], vec![(1, vec![2]), (2, vec![5])]);
        assert_eq!(plan.sends[1], vec![(0, vec![2])]);
        assert_eq!(plan.sends[2], vec![(0, vec![5])]);
        assert_eq!(plan.sends[0], vec![(2, vec![0])]);
        assert_eq!(plan.total_volume(), 3);
        assert_eq!(plan.max_send_msgs(), 1);
    }

    #[test]
    fn own_gids_skipped() {
        let m = map3();
        let needed = vec![vec![0, 1, 2], vec![], vec![]];
        let plan = CommPlan::gather(&needed, &m);
        assert_eq!(plan.total_volume(), 1); // only gid 2 is remote
    }

    #[test]
    fn gather_execution_moves_values() {
        let m = map3();
        let needed = vec![vec![2, 5], vec![0], vec![1]];
        let plan = CommPlan::gather(&needed, &m);
        // locals[r][lid] = gid value = gid * 10.
        let locals: Vec<Vec<f64>> = (0..3)
            .map(|r| m.gids(r).iter().map(|&g| g as f64 * 10.0).collect())
            .collect();
        let got = plan.execute_gather(&m, &locals);
        assert_eq!(got[0], vec![(2, 20.0), (5, 50.0)]);
        assert_eq!(got[1], vec![(0, 0.0)]);
        assert_eq!(got[2], vec![(1, 10.0)]);
    }

    #[test]
    fn scatter_add_accumulates_at_owner() {
        let m = map3();
        // Ranks 0 and 1 both contribute to gid 4 (owned by rank 2).
        let contributed = vec![vec![4], vec![4], vec![]];
        let plan = CommPlan::gather(&contributed, &m);
        let mut locals: Vec<Vec<f64>> = (0..3).map(|r| vec![0.0; m.nlocal(r)]).collect();
        let contributions = vec![vec![(4u32, 1.5)], vec![(4u32, 2.5)], vec![]];
        plan.execute_scatter_add(&m, &contributions, &mut locals);
        assert_eq!(locals[2][m.lid(4)], 4.0);
        assert_eq!(locals[0], vec![0.0, 0.0]);
    }

    #[test]
    fn costs_match_plan_shape() {
        let m = map3();
        let needed = vec![vec![2, 3, 4, 5], vec![], vec![]];
        let plan = CommPlan::gather(&needed, &m);
        let costs = plan.send_costs();
        // Rank 1 sends {2,3}, rank 2 sends {4,5}: 1 msg, 16 bytes each.
        assert_eq!(costs[1].msgs, 1);
        assert_eq!(costs[1].bytes, 16);
        assert_eq!(costs[0].msgs, 0);
        assert_eq!(plan.total_volume(), 4);
    }

    #[test]
    fn empty_plan_is_free() {
        let m = map3();
        let plan = CommPlan::gather(&vec![vec![]; 3], &m);
        assert_eq!(plan.total_volume(), 0);
        let locals: Vec<Vec<f64>> = (0..3).map(|r| vec![1.0; m.nlocal(r)]).collect();
        let got = plan.execute_gather(&m, &locals);
        assert!(got.iter().all(|g| g.is_empty()));
    }
}
