//! Greedy k-way boundary refinement.
//!
//! Recursive bisection composes log k independent bisections; this pass
//! (METIS's "k-way FM" in greedy form) then polishes the assembled
//! partition directly: boundary vertices move to the neighbouring part
//! with the highest positive gain, subject to the balance allowance, with
//! ties broken toward the lighter part (so it repairs the imbalance that
//! compounds across recursion levels too).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sf2d_par::{tree_fold, Par};

use super::tune::VERTEX_GRAIN;
use super::work::{WorkGraph, MAX_CON};

/// Refines a k-way partition in place. Returns the number of moves made.
///
/// `ub` is the per-part balance allowance (`max part weight <= ub * ideal`).
/// `par` fans the part-weight initialization out across threads; the move
/// loop itself is inherently sequential and identical either way — exact
/// integer per-chunk sums merged through a fixed-shape tree fold make the
/// initialization thread-count independent too.
pub fn kway_refine(
    wg: &WorkGraph,
    part: &mut [u32],
    k: usize,
    ub: f64,
    passes: usize,
    seed: u64,
    par: &Par,
) -> usize {
    let nv = wg.nv();
    assert_eq!(part.len(), nv);
    if k <= 1 || nv == 0 {
        return 0;
    }
    let ncon = wg.ncon;

    // Part weights per constraint.
    let tot = wg.total_wgt();
    let part_ro: &[u32] = part;
    let partials = par.map_chunks(nv, VERTEX_GRAIN, |_, range| {
        let mut pw = vec![[0i64; MAX_CON]; k];
        for v in range {
            for c in 0..ncon {
                pw[part_ro[v] as usize][c] += wg.vw(v, c);
            }
        }
        pw
    });
    let mut pw = tree_fold(partials, |mut a, b| {
        for (acc, p) in a.iter_mut().zip(b) {
            for c in 0..MAX_CON {
                acc[c] += p[c];
            }
        }
        a
    })
    .unwrap_or_else(|| vec![[0i64; MAX_CON]; k]);
    let cap: Vec<f64> = (0..ncon).map(|c| ub * tot[c] as f64 / k as f64).collect();

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..nv as u32).collect();
    let mut total_moves = 0usize;

    // Scratch: connectivity of the current vertex to each part.
    let mut conn = vec![0i64; k];
    let mut touched: Vec<u32> = Vec::new();

    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moves = 0usize;
        for &v in &order {
            let v = v as usize;
            let home = part[v] as usize;
            let (nbrs, wgts) = wg.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            touched.clear();
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let q = part[u as usize] as usize;
                if conn[q] == 0 {
                    touched.push(q as u32);
                }
                conn[q] += w;
            }
            // Best destination among neighbouring parts.
            let internal = conn[home];
            let mut best: Option<(i64, std::cmp::Reverse<i64>, usize)> = None;
            for &q in &touched {
                let q = q as usize;
                if q == home {
                    continue;
                }
                let gain = conn[q] - internal;
                // Balance: destination must stay within cap for every
                // constraint after the move.
                let fits = (0..ncon).all(|c| (pw[q][c] + wg.vw(v, c)) as f64 <= cap[c]);
                if !fits {
                    continue;
                }
                let cand = (gain, std::cmp::Reverse(pw[q][0]), q);
                if best.map(|b| (cand.0, cand.1) > (b.0, b.1)).unwrap_or(true) {
                    best = Some(cand);
                }
            }
            if let Some((gain, _, q)) = best {
                // Move on positive gain, or zero gain that improves balance.
                let home_heavier = pw[home][0] > pw[q][0];
                if gain > 0 || (gain == 0 && home_heavier) {
                    for c in 0..ncon {
                        let w = wg.vw(v, c);
                        pw[home][c] -= w;
                        pw[q][c] += w;
                    }
                    part[v] = q as u32;
                    moves += 1;
                }
            }
            // Reset scratch.
            for &q in &touched {
                conn[q as usize] = 0;
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Partition;
    use sf2d_gen::grid_2d;
    use sf2d_graph::Graph;

    fn grid_wg(n: usize) -> (Graph, WorkGraph) {
        let g = Graph::from_symmetric_matrix(&grid_2d(n, n));
        let wg = WorkGraph::from_graph(&g);
        (g, wg)
    }

    #[test]
    fn improves_a_scrambled_partition() {
        let (g, wg) = grid_wg(12);
        // Scrambled 4-way assignment: terrible cut.
        let mut part: Vec<u32> = (0..144).map(|v| ((v * 7 + 3) % 4) as u32).collect();
        let before = Partition::new(part.clone(), 4).edge_cut(&g);
        let moves = kway_refine(&wg, &mut part, 4, 1.15, 8, 1, &Par::seq());
        let after_p = Partition::new(part.clone(), 4);
        let after = after_p.edge_cut(&g);
        assert!(moves > 0);
        assert!(after < before / 2.0, "cut {before} -> {after}");
        assert!(after_p.imbalance(&g.vwgt) <= 1.2 + 1e-9);
    }

    #[test]
    fn respects_balance_cap() {
        let (g, wg) = grid_wg(10);
        // All vertices want to merge into one part (the cut is minimal with
        // everything together) — balance must prevent that.
        let mut part: Vec<u32> = (0..100).map(|v| u32::from(v >= 50)).collect();
        kway_refine(&wg, &mut part, 2, 1.10, 10, 2, &Par::seq());
        let p = Partition::new(part, 2);
        assert!(
            p.imbalance(&g.vwgt) <= 1.11,
            "imbalance {}",
            p.imbalance(&g.vwgt)
        );
        let w = p.part_weights(&g.vwgt);
        assert!(w[0] > 0 && w[1] > 0);
    }

    #[test]
    fn no_moves_on_an_optimal_partition() {
        let (_, wg) = grid_wg(8);
        // Clean vertical halves of an 8x8 grid: locally optimal.
        let mut part: Vec<u32> = (0..64).map(|v| u32::from(v % 8 >= 4)).collect();
        let before = part.clone();
        kway_refine(&wg, &mut part, 2, 1.05, 4, 3, &Par::seq());
        // FM-lite may shuffle boundary vertices of equal gain for balance,
        // but the cut must not get worse.
        let g = Graph::from_symmetric_matrix(&grid_2d(8, 8));
        let cut_before = Partition::new(before, 2).edge_cut(&g);
        let cut_after = Partition::new(part, 2).edge_cut(&g);
        assert!(cut_after <= cut_before);
    }

    #[test]
    fn deterministic() {
        // 150x150 grid: above VERTEX_GRAIN so the init really chunks.
        let (_, wg) = grid_wg(150);
        let init: Vec<u32> = (0..150 * 150).map(|v| ((v * 13) % 4) as u32).collect();
        let mut b = init.clone();
        kway_refine(&wg, &mut b, 4, 1.1, 4, 7, &Par::seq());
        for threads in [2usize, 4] {
            let pool = sf2d_par::Pool::new(threads);
            let h = Par::new(threads, Some(&pool));
            let mut a = init.clone();
            kway_refine(&wg, &mut a, 4, 1.1, 4, 7, &h);
            assert_eq!(a, b, "threads {threads}");
        }
    }
}
