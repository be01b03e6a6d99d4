//! Heavy-edge matching (HEM) for the coarsening phase — parallel,
//! deterministic, round-based.
//!
//! The classic serial HEM walks vertices in random order and greedily
//! pairs each with its heaviest free neighbour; the walk order makes it
//! inherently sequential. This implementation uses **mutual local-max
//! handshaking** (Manne–Bisseling style) instead: each round, every free
//! vertex points at its best free neighbour under a fixed total preference
//! order, and exactly the mutual pairs (`cand[v] == u && cand[u] == v`)
//! marry. Both phases are pure functions of the previous round's state,
//! evaluated per vertex — so they parallelize as chunked fills whose
//! result is byte-identical for any thread count or chunk shape.
//!
//! **Progress:** the preference key `(edge weight, rank(u))` uses one
//! consistent total order `rank` on vertices, so the pointer graph of any
//! round always contains a 2-cycle while eligible edges remain (follow
//! pointers: weights are non-decreasing, hence equal around a cycle, and
//! the rank-maximal cycle vertex and its favourite must point at each
//! other). Every round therefore matches at least one pair; in practice
//! the salted-hash tie-break matches a constant fraction per round and
//! the loop converges in a handful of rounds (capped by
//! [`MATCH_ROUNDS_MAX`], and exited early when a round matches nothing).
//!
//! **Nothing unchanged is re-read.** The preference order is fixed for a
//! whole call, so every vertex's `rank` is computed once, not at every
//! edge touch of every round. And from round 1 on a free vertex re-scans
//! its row only if the neighbour it pointed at has since married: within
//! a call `v`'s eligible set (free neighbours under the cap) only loses
//! members and keys are fixed, so a candidate that is still free is still
//! the arg-max (keys end in the vertex id: only parallel entries naming
//! one neighbour tie) and a vertex without a candidate never gains one.
//! Round `r`'s candidate is still a function of round `r − 1`'s `(mate,
//! cand)` at `v` alone — two buffers, swapped — so the chunked fill is as
//! order-free as before. The tests hold the result against the full
//! re-scan with per-touch ranks that this replaced.
//!
//! Two guards adapt the scheme to scale-free graphs, as before:
//!
//! * a **weight cap** refuses matches whose combined weight could not be
//!   balanced later (hubs stay single rather than forming super-hubs) —
//!   the cap check is pair-symmetric, so it cannot break mutuality;
//! * preference ties break toward the lower-degree neighbour, which
//!   empirically keeps more of the power-law tail mergeable at the next
//!   level; remaining ties fall to a salted hash (the per-level stand-in
//!   for the old random visit order) and finally the vertex id.

use std::cmp::Reverse;

use sf2d_par::{Par, SharedSlice};

use super::tune::{EDGE_GRAIN, MATCH_ROUNDS_MAX, VERTEX_GRAIN};
use super::work::WorkGraph;

/// Sentinel: vertex not matched (maps to itself at contraction).
pub const UNMATCHED: u32 = u32::MAX;

/// The salted total preference order on vertices (see [`rank`]).
type Rank = (Reverse<usize>, u64, u32);

/// Salted total order on vertices for preference tie-breaks: lower degree
/// first, then a salted splitmix hash, then the id. The salt varies per
/// matching call (drawn from the subtree RNG), so levels don't repeat the
/// same tie-break pattern — the determinism-preserving analogue of the
/// old per-level random shuffle.
#[inline]
fn rank(wg: &WorkGraph, u: usize, salt: u64) -> Rank {
    let deg = wg.xadj[u + 1] - wg.xadj[u];
    let mut h = u as u64 ^ salt;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
    (Reverse(deg), h ^ (h >> 31), u as u32)
}

/// Computes a heavy-edge matching. Returns `mate[v]` = matched partner or
/// [`UNMATCHED`]. Matches are symmetric: `mate[mate[v]] == v`.
///
/// `max_vwgt[c]` caps the combined weight of a matched pair per
/// constraint. `salt` seeds the tie-break order; `par` fans the candidate
/// and accept phases across threads (byte-identical for any budget).
pub fn heavy_edge_matching(wg: &WorkGraph, max_vwgt: &[i64], salt: u64, par: &Par) -> Vec<u32> {
    let nv = wg.nv();
    let mut mate = vec![UNMATCHED; nv];
    if nv == 0 {
        return mate;
    }
    let mut ranks: Vec<Rank> = vec![(Reverse(0), 0, 0); nv];
    par.fill(&mut ranks, VERTEX_GRAIN, |u| rank(wg, u, salt));
    let mut cand = vec![UNMATCHED; nv];
    let mut prev = vec![UNMATCHED; nv];
    for round in 0..MATCH_ROUNDS_MAX {
        // Phase 1: every free vertex picks its best free neighbour. Reads
        // only the previous round's `mate` and `cand`, writes only `cand[v]`.
        std::mem::swap(&mut cand, &mut prev);
        {
            let (mate_ro, prev_ro, ranks): (&[u32], &[u32], &[Rank]) = (&mate, &prev, &ranks);
            par.fill(&mut cand, EDGE_GRAIN, |v| {
                if mate_ro[v] != UNMATCHED {
                    return UNMATCHED;
                }
                // The eligible set only shrinks: last round's pick, if
                // still free, is still the arg-max, and no pick stays none.
                let u = prev_ro[v];
                if round > 0 && (u == UNMATCHED || mate_ro[u as usize] == UNMATCHED) {
                    return u;
                }
                let (nbrs, wgts) = wg.neighbors(v);
                let mut best: Option<(i64, Rank)> = None;
                for (&u, &w) in nbrs.iter().zip(wgts) {
                    let uu = u as usize;
                    if uu == v || mate_ro[uu] != UNMATCHED {
                        continue;
                    }
                    let fits = (0..wg.ncon).all(|c| wg.vw(v, c) + wg.vw(uu, c) <= max_vwgt[c]);
                    if !fits {
                        continue;
                    }
                    let key = (w, ranks[uu]);
                    if best.as_ref().map(|b| key > *b).unwrap_or(true) {
                        best = Some(key);
                    }
                }
                best.map(|(_, (_, _, u))| u).unwrap_or(UNMATCHED)
            });
        }
        // Phase 2: mutual pairs marry. Each index writes only `mate[v]`
        // (disjoint), reading only the frozen `cand`; the per-chunk match
        // counts merge through a fixed-shape tree fold.
        let accepted = {
            let cand_ro: &[u32] = &cand;
            let out = SharedSlice::new(&mut mate);
            par.reduce(
                nv,
                VERTEX_GRAIN,
                |_, range| {
                    let mut cnt = 0usize;
                    for v in range {
                        let u = cand_ro[v];
                        if u != UNMATCHED && cand_ro[u as usize] == v as u32 {
                            // SAFETY: index v is written by its own chunk only.
                            unsafe { out.write(v, u) };
                            cnt += 1;
                        }
                    }
                    cnt
                },
                |a, b| a + b,
            )
            .unwrap_or(0)
        };
        if accepted == 0 {
            break;
        }
    }
    mate
}

/// Fraction of vertices matched; coarsening stops when this stalls.
pub fn matched_fraction(mate: &[u32]) -> f64 {
    if mate.is_empty() {
        return 0.0;
    }
    let matched = mate.iter().filter(|&&m| m != UNMATCHED).count();
    matched as f64 / mate.len() as f64
}

#[cfg(test)]
mod tests {
    use super::super::work::testgraphs::{arb_workgraph, from_weighted_edges, two_hub_star};
    use super::*;
    use proptest::prelude::*;
    use sf2d_graph::Graph;

    /// The matching [`heavy_edge_matching`] replaced, kept as its bitwise
    /// oracle: every round re-scans the row of every free vertex, and the
    /// rank of a neighbour is hashed anew at every edge touch.
    fn heavy_edge_matching_reference(wg: &WorkGraph, max_vwgt: &[i64], salt: u64) -> Vec<u32> {
        let nv = wg.nv();
        let mut mate = vec![UNMATCHED; nv];
        for _round in 0..MATCH_ROUNDS_MAX {
            let cand: Vec<u32> = (0..nv)
                .map(|v| {
                    if mate[v] != UNMATCHED {
                        return UNMATCHED;
                    }
                    let (nbrs, wgts) = wg.neighbors(v);
                    let mut best: Option<(i64, Rank)> = None;
                    for (&u, &w) in nbrs.iter().zip(wgts) {
                        let uu = u as usize;
                        if uu == v || mate[uu] != UNMATCHED {
                            continue;
                        }
                        let fits = (0..wg.ncon).all(|c| wg.vw(v, c) + wg.vw(uu, c) <= max_vwgt[c]);
                        if !fits {
                            continue;
                        }
                        let key = (w, rank(wg, uu, salt));
                        if best.as_ref().map(|b| key > *b).unwrap_or(true) {
                            best = Some(key);
                        }
                    }
                    best.map(|(_, (_, _, u))| u).unwrap_or(UNMATCHED)
                })
                .collect();
            let mut accepted = 0usize;
            for v in 0..nv {
                let u = cand[v];
                if u != UNMATCHED && cand[u as usize] == v as u32 {
                    mate[v] = u;
                    accepted += 1;
                }
            }
            if accepted == 0 {
                break;
            }
        }
        mate
    }

    /// `got == reference` sequentially and on pools of 2 and 5 threads.
    fn assert_matches_reference(wg: &WorkGraph, max_vwgt: &[i64], salt: u64) {
        let want = heavy_edge_matching_reference(wg, max_vwgt, salt);
        let seq = heavy_edge_matching(wg, max_vwgt, salt, &Par::seq());
        assert_eq!(seq, want, "seq, salt {salt}, caps {max_vwgt:?}, {wg:?}");
        for threads in [2usize, 5] {
            let pool = sf2d_par::Pool::new(threads);
            let got = heavy_edge_matching(wg, max_vwgt, salt, &Par::new(threads, Some(&pool)));
            assert_eq!(
                got, want,
                "threads {threads}, salt {salt}, caps {max_vwgt:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Sticky candidates and per-call ranks ≡ a full re-scan with
        /// per-touch ranks: free caps, and caps in the range of single
        /// vertex weights (1..=50 each), which forbid most pairs.
        #[test]
        fn sticky_candidates_match_a_full_rescan(
            wg in arb_workgraph(),
            salt in 0u64..u64::MAX,
            cap0 in 2i64..=100,
            cap1 in 2i64..=100,
        ) {
            assert_matches_reference(&wg, &[i64::MAX, i64::MAX], salt);
            assert_matches_reference(&wg, &[cap0, cap1], salt);
        }
    }

    #[test]
    fn sticky_candidates_match_a_full_rescan_on_a_two_hub_star() {
        // Every leaf points at a hub; a hub marries one leaf per round at
        // most, so all the others must notice their candidate is taken —
        // and with caps that keep the hubs single, nobody has a candidate
        // in round 0 and nobody may find one later.
        for ncon in [1usize, 2] {
            let wg = two_hub_star(300, ncon);
            for salt in [0u64, 9, 77] {
                assert_matches_reference(&wg, &[i64::MAX, i64::MAX], salt);
                assert_matches_reference(&wg, &[40, 40], salt);
            }
        }
    }

    #[test]
    fn sticky_candidates_match_a_full_rescan_when_the_fills_chunk() {
        // 6000 vertices (above EDGE_GRAIN, so the pooled fills really
        // split) of a weighted multigraph that needs several rounds.
        let mut edges = Vec::new();
        let mut x = 4242u64;
        for _ in 0..24_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (a, b) = ((x >> 33) % 6000, (x >> 13) % 6000);
            edges.push((a as u32, b as u32, 1 + (x >> 7) as i64 % 4));
        }
        let vwgt = (0..6000).map(|v| 1 + v % 9).collect();
        let wg = from_weighted_edges(1, vwgt, &edges);
        for salt in [3u64, 1 << 40] {
            assert_matches_reference(&wg, &[12, i64::MAX], salt);
        }
    }

    fn wg_from_edges(n: usize, edges: &[(u32, u32)]) -> WorkGraph {
        WorkGraph::from_graph(&Graph::from_edges(n, edges))
    }

    #[test]
    fn matching_is_symmetric_and_valid() {
        let wg = wg_from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 7)]);
        let mate = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], 1, &Par::seq());
        for v in 0..8usize {
            let m = mate[v];
            if m != UNMATCHED {
                assert_eq!(mate[m as usize], v as u32, "asymmetric at {v}");
                assert_ne!(m, v as u32, "self-match");
                // Matched pairs must be adjacent.
                assert!(wg.neighbors(v).0.contains(&m));
            }
        }
    }

    #[test]
    fn heavy_edges_preferred() {
        // Triangle with one heavy edge (0-1 weight 5 via multi-edges): the
        // heavy edge is mutually preferred in round one whatever the salt.
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (1, 2), (0, 2)]);
        let wg = WorkGraph::from_graph(&g);
        for salt in [0u64, 7, 12345] {
            let mate = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], salt, &Par::seq());
            assert_eq!(mate[0], 1, "salt {salt}");
            assert_eq!(mate[1], 0, "salt {salt}");
            assert_eq!(mate[2], UNMATCHED, "salt {salt}");
        }
    }

    #[test]
    fn weight_cap_blocks_heavy_pairs() {
        let wg = wg_from_edges(2, &[(0, 1)]);
        // Each endpoint has weight 1; cap of 1 forbids any match.
        let mate = heavy_edge_matching(&wg, &[1, i64::MAX], 2, &Par::seq());
        assert_eq!(mate, vec![UNMATCHED, UNMATCHED]);
    }

    #[test]
    fn matched_fraction_counts() {
        assert_eq!(matched_fraction(&[1, 0, UNMATCHED]), 2.0 / 3.0);
        assert_eq!(matched_fraction(&[]), 0.0);
    }

    #[test]
    fn path_graph_matches_most_vertices() {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let wg = wg_from_edges(100, &edges);
        let mate = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], 3, &Par::seq());
        assert!(matched_fraction(&mate) > 0.6, "{}", matched_fraction(&mate));
    }

    #[test]
    fn parallel_matching_is_byte_identical() {
        // A denser pseudo-random graph; compare every thread count to the
        // sequential run for several salts.
        // 6000 vertices: above EDGE_GRAIN, so the fills really chunk.
        let mut edges = Vec::new();
        let mut x = 99u64;
        for _ in 0..30_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) % 6000;
            let b = (x >> 13) % 6000;
            if a != b {
                edges.push((a as u32, b as u32));
            }
        }
        let wg = wg_from_edges(6000, &edges);
        for salt in [0u64, 42] {
            let seq = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], salt, &Par::seq());
            for threads in [2usize, 4, 8] {
                let pool = sf2d_par::Pool::new(threads);
                let par = Par::new(threads, Some(&pool));
                let got = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], salt, &par);
                assert_eq!(got, seq, "threads {threads} salt {salt}");
            }
        }
    }

    #[test]
    fn salt_varies_the_tie_breaks() {
        // On a tie-heavy graph (unweighted cycle) different salts should
        // produce different (all valid) matchings — the stand-in for the
        // old random visit order.
        let edges: Vec<(u32, u32)> = (0..64u32).map(|i| (i, (i + 1) % 64)).collect();
        let wg = wg_from_edges(64, &edges);
        let a = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], 1, &Par::seq());
        let b = heavy_edge_matching(&wg, &[i64::MAX, i64::MAX], 2, &Par::seq());
        assert!(matched_fraction(&a) > 0.8);
        assert!(matched_fraction(&b) > 0.8);
        assert_ne!(a, b, "salts should reshuffle tie-breaks");
    }
}
