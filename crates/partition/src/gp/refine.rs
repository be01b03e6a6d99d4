//! Fiduccia–Mattheyses boundary refinement for bisections.
//!
//! Each pass moves vertices one at a time, always taking the most
//! profitable *allowed* move (one that does not worsen balance violation
//! beyond the tolerance), with hill-climbing: moves continue past local
//! minima and the best prefix seen is kept. Passes repeat until a pass
//! yields no improvement.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sf2d_par::Par;

use super::initpart::{side_weights, violation};
use super::tune::{EDGE_GRAIN, VERTEX_GRAIN};
use super::work::{WorkGraph, MAX_CON};

/// Refines `side` in place. `targets[s][c]` are ideal side weights, `ub` the
/// imbalance allowance, `max_passes` the pass budget. `par` fans the
/// gain/boundary initialization and the starting cut sum out across
/// threads (sequential handles are identical); the move loop itself is
/// inherently sequential and byte-identical either way.
///
/// Returns the final cut weight and the number of moves kept.
pub fn fm_refine(
    wg: &WorkGraph,
    side: &mut [u8],
    targets: &[[f64; MAX_CON]; 2],
    ub: f64,
    max_passes: usize,
    par: &Par,
) -> (i64, usize) {
    let nv = wg.nv();
    if nv == 0 {
        return (0, 0);
    }
    let ncon = wg.ncon;

    // Per-vertex internal/external edge weights maintained incrementally.
    // The initialization is a pure per-vertex scan of the (fixed) starting
    // sides, so the parallel fill is bit-identical to the sequential loop.
    let mut ext = vec![0i64; nv];
    let mut int = vec![0i64; nv];
    {
        let side_ro: &[u8] = side;
        par.fill2(&mut ext, &mut int, EDGE_GRAIN, |v| {
            let (nbrs, wgts) = wg.neighbors(v);
            let mut e = 0i64;
            let mut i = 0i64;
            for (&u, &w) in nbrs.iter().zip(wgts) {
                if side_ro[v] == side_ro[u as usize] {
                    i += w;
                } else {
                    e += w;
                }
            }
            (e, i)
        });
    }
    // Exact integer partial sums merged through a fixed-shape tree fold:
    // associative, so any chunking yields the same total.
    let mut cut: i64 = par
        .reduce(
            nv,
            VERTEX_GRAIN,
            |_, range| range.map(|v| ext[v]).sum::<i64>(),
            |a, b| a + b,
        )
        .unwrap_or(0)
        / 2;
    let mut moves_kept = 0usize;
    let mut w = side_weights(wg, side);

    // Hill-climbing slack: a move may overshoot the balance cap by up to one
    // (largest) vertex weight. Without it FM deadlocks whenever every single
    // move crosses the cap; the best-prefix rollback below guarantees the
    // final state is never less feasible than the best state visited.
    let mut maxvw = [0i64; MAX_CON];
    for v in 0..nv {
        for c in 0..ncon {
            maxvw[c] = maxvw[c].max(wg.vw(v, c));
        }
    }

    for _pass in 0..max_passes {
        let cut_at_pass_start = cut;

        // Lazy max-heaps of candidate moves, one per source side.
        // Collect-then-heapify is O(n) where per-vertex pushes are
        // O(n log n); entries are distinct, so the pop order (hence the
        // result) is unchanged.
        let mut entries: [Vec<(i64, Reverse<u32>)>; 2] = [
            Vec::with_capacity(nv / 2 + 1),
            Vec::with_capacity(nv / 2 + 1),
        ];
        let mut locked = vec![false; nv];
        for v in 0..nv {
            entries[side[v] as usize].push((ext[v] - int[v], Reverse(v as u32)));
        }
        let [e0, e1] = entries;
        let mut heaps: [BinaryHeap<(i64, Reverse<u32>)>; 2] =
            [BinaryHeap::from(e0), BinaryHeap::from(e1)];

        // Move log for rollback to the best prefix.
        let mut log: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        let mut best_cut = cut;
        let mut best_viol = violation(&w, targets, ncon, ub);
        // Cap non-improving streak to bound pass cost on huge graphs.
        let max_stall = 64 + nv / 20;
        let mut stall = 0usize;

        loop {
            // Select the best fresh, allowed move across both heaps.
            let mut chosen: Option<usize> = None;
            // Try sides in order of current violation pressure: move from
            // the more overloaded side first.
            let over0 = (0..ncon)
                .map(|c| w[0][c] as f64 / targets[0][c].max(1.0))
                .fold(0.0f64, f64::max);
            let over1 = (0..ncon)
                .map(|c| w[1][c] as f64 / targets[1][c].max(1.0))
                .fold(0.0f64, f64::max);
            let order = if over0 >= over1 { [0usize, 1] } else { [1, 0] };
            'sides: for &s in &order {
                while let Some(&(g, Reverse(v))) = heaps[s].peek() {
                    let v = v as usize;
                    if locked[v] || side[v] as usize != s || g != ext[v] - int[v] {
                        heaps[s].pop();
                        continue; // stale entry
                    }
                    // Allowed if the move does not worsen the violation, or
                    // stays within the one-vertex hill-climbing slack above
                    // the cap.
                    let t = 1 - s;
                    let mut w_new = w;
                    for c in 0..ncon {
                        let vw = wg.vw(v, c);
                        w_new[s][c] -= vw;
                        w_new[t][c] += vw;
                    }
                    let viol_old = violation(&w, targets, ncon, ub);
                    let viol_new = violation(&w_new, targets, ncon, ub);
                    let within_slack = (0..ncon)
                        .all(|c| w_new[t][c] as f64 <= ub * targets[t][c] + maxvw[c] as f64);
                    if viol_new <= viol_old + 1e-12 || within_slack {
                        heaps[s].pop();
                        chosen = Some(v);
                        break 'sides;
                    }
                    // Top move not allowed: try the other side.
                    continue 'sides;
                }
            }
            let Some(v) = chosen else { break };

            // Apply the move.
            let s = side[v] as usize;
            let t = 1 - s;
            for c in 0..ncon {
                let vw = wg.vw(v, c);
                w[s][c] -= vw;
                w[t][c] += vw;
            }
            cut -= ext[v] - int[v];
            side[v] = t as u8;
            std::mem::swap(&mut ext[v], &mut int[v]);
            locked[v] = true;
            log.push(v as u32);

            let (nbrs, wgts) = wg.neighbors(v);
            for (&u, &ew) in nbrs.iter().zip(wgts) {
                let u = u as usize;
                if side[u] as usize == t {
                    // Was external to u, now internal.
                    ext[u] -= ew;
                    int[u] += ew;
                } else {
                    int[u] -= ew;
                    ext[u] += ew;
                }
                if !locked[u] {
                    heaps[side[u] as usize].push((ext[u] - int[u], Reverse(u as u32)));
                }
            }

            let viol_now = violation(&w, targets, ncon, ub);
            if (viol_now, cut as f64) < (best_viol, best_cut as f64) {
                best_viol = viol_now;
                best_cut = cut;
                best_prefix = log.len();
                stall = 0;
            } else {
                stall += 1;
                if stall > max_stall {
                    break;
                }
            }
        }

        // Roll back past the best prefix.
        for &v in log[best_prefix..].iter().rev() {
            let v = v as usize;
            let t = side[v] as usize;
            let s = 1 - t;
            for c in 0..ncon {
                let vw = wg.vw(v, c);
                w[t][c] -= vw;
                w[s][c] += vw;
            }
            cut -= ext[v] - int[v];
            side[v] = s as u8;
            std::mem::swap(&mut ext[v], &mut int[v]);
            let (nbrs, wgts) = wg.neighbors(v);
            for (&u, &ew) in nbrs.iter().zip(wgts) {
                let u = u as usize;
                if side[u] as usize == s {
                    ext[u] -= ew;
                    int[u] += ew;
                } else {
                    int[u] -= ew;
                    ext[u] += ew;
                }
            }
        }
        debug_assert_eq!(cut, best_cut);
        moves_kept += best_prefix;

        if cut >= cut_at_pass_start {
            break; // no progress this pass
        }
    }
    (cut, moves_kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::initpart::cut_of;
    use sf2d_gen::grid_2d;
    use sf2d_graph::Graph;

    fn even_targets(wg: &WorkGraph) -> [[f64; MAX_CON]; 2] {
        let tot = wg.total_wgt();
        let mut t = [[0.0; MAX_CON]; 2];
        for c in 0..wg.ncon {
            t[0][c] = tot[c] as f64 / 2.0;
            t[1][c] = tot[c] as f64 / 2.0;
        }
        t
    }

    #[test]
    fn improves_a_bad_bisection_of_a_path() {
        // Path 0-1-2-3-4-5 with alternating sides: cut 5. Optimal split has
        // cut 1.
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(6, &edges);
        let wg = WorkGraph::from_graph(&g);
        let mut side = vec![0u8, 1, 0, 1, 0, 1];
        let t = even_targets(&wg);
        let (cut, moves) = fm_refine(&wg, &mut side, &t, 1.30, 8, &Par::seq());
        assert_eq!(cut, cut_of(&wg, &side));
        assert!(cut <= 2, "cut {cut} side {side:?}");
        assert!(moves > 0);
    }

    #[test]
    fn respects_balance() {
        let g = Graph::from_symmetric_matrix(&grid_2d(8, 8));
        let wg = WorkGraph::from_graph(&g);
        // Start with a vertical split (already balanced).
        let mut side: Vec<u8> = (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
        let t = even_targets(&wg);
        fm_refine(&wg, &mut side, &t, 1.05, 8, &Par::seq());
        let w = side_weights(&wg, &side);
        let tot = wg.total_wgt()[0] as f64;
        for s in 0..2 {
            assert!((w[s][0] as f64) < 1.08 * tot / 2.0, "{w:?}");
        }
    }

    #[test]
    fn does_not_worsen_an_optimal_cut() {
        // Two triangles joined by one edge, optimally bisected.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let wg = WorkGraph::from_graph(&g);
        let mut side = vec![0u8, 0, 0, 1, 1, 1];
        let (cut, _) = fm_refine(&wg, &mut side, &even_targets(&wg), 1.05, 4, &Par::seq());
        assert_eq!(cut, 1);
        assert_eq!(side, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]);
        let wg = WorkGraph::from_graph(&g);
        let mut side: Vec<u8> = vec![];
        assert_eq!(
            fm_refine(&wg, &mut side, &[[0.0; 2]; 2], 1.05, 2, &Par::seq()),
            (0, 0)
        );
    }

    #[test]
    fn reduces_cut_on_grid_from_random_start() {
        let g = Graph::from_symmetric_matrix(&grid_2d(10, 10));
        let wg = WorkGraph::from_graph(&g);
        // Deterministic pseudo-random start.
        let mut side: Vec<u8> = (0..100)
            .map(|v| ((v * 2654435761usize) >> 16) as u8 & 1)
            .collect();
        let before = cut_of(&wg, &side);
        let (after, _) = fm_refine(&wg, &mut side, &even_targets(&wg), 1.10, 10, &Par::seq());
        assert!(after < before, "no improvement: {before} -> {after}");
        assert_eq!(after, cut_of(&wg, &side));
    }

    #[test]
    fn parallel_init_is_byte_identical() {
        // 100x100 grid: above EDGE_GRAIN so the init fills really chunk.
        let g = Graph::from_symmetric_matrix(&grid_2d(100, 100));
        let wg = WorkGraph::from_graph(&g);
        let init: Vec<u8> = (0..10_000)
            .map(|v| ((v * 2654435761usize) >> 13) as u8 & 1)
            .collect();
        let mut seq = init.clone();
        let seq_out = fm_refine(&wg, &mut seq, &even_targets(&wg), 1.10, 6, &Par::seq());
        for threads in [2, 4, 8] {
            let pool = sf2d_par::Pool::new(threads);
            let h = Par::new(threads, Some(&pool));
            let mut par = init.clone();
            let par_out = fm_refine(&wg, &mut par, &even_targets(&wg), 1.10, 6, &h);
            assert_eq!(par_out, seq_out, "threads {threads}");
            assert_eq!(par, seq, "threads {threads}");
        }
    }
}
