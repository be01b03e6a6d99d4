//! Graph contraction for the coarsening phase.
//!
//! Matched pairs collapse into single coarse vertices; parallel edges merge
//! by summing weights and self-edges vanish. The `cmap` returned maps fine
//! vertices to coarse ids so partitions can be projected back down.
//!
//! Coarse-graph adjacency construction is the heaviest loop of a
//! multilevel bisection, and it is order-independent per coarse vertex:
//! row `cv` of the coarse CSR depends only on the members of `cv` and the
//! (already fixed) `cmap`. The parallel path therefore chunks the coarse
//! vertex range, builds each chunk's rows with private stamp/slot scratch,
//! and concatenates the chunks in index order — a deterministic merge that
//! is byte-identical to the sequential walk for any thread count.

use sf2d_par::Par;

use super::matching::UNMATCHED;
use super::tune::EDGE_GRAIN;
use super::work::WorkGraph;

/// Per-chunk partial CSR produced by the parallel scatter.
struct ChunkRows {
    /// Row lengths for the chunk's coarse vertices (in order).
    row_len: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

/// Contracts a graph along a matching, fanning the coarse-row construction
/// across `par`'s thread budget (sequential handles produce the identical
/// result). Returns the coarse graph and the fine→coarse vertex map.
pub fn contract(wg: &WorkGraph, mate: &[u32], par: &Par) -> (WorkGraph, Vec<u32>) {
    let nv = wg.nv();
    assert_eq!(mate.len(), nv);

    // Assign coarse ids: each matched pair and each unmatched vertex gets
    // one. The lower endpoint of a pair claims the id, so `reps[cv]` is the
    // first fine vertex of coarse vertex `cv` in fine order — walking reps
    // in id order reproduces the classic fine-order walk exactly.
    let mut cmap = vec![u32::MAX; nv];
    let mut reps: Vec<u32> = Vec::new();
    for v in 0..nv {
        if cmap[v] != u32::MAX {
            continue;
        }
        let m = mate[v];
        let cv = reps.len() as u32;
        cmap[v] = cv;
        if m != UNMATCHED {
            cmap[m as usize] = cv;
        }
        reps.push(v as u32);
    }
    let cnv = reps.len();
    let ncon = wg.ncon;

    // Merge adjacency per coarse vertex. A dense "last seen" stamp array
    // gives O(deg) merge per coarse vertex without hashing; each chunk
    // owns private scratch so chunks are independent.
    let chunks = par.map_chunks(cnv, EDGE_GRAIN, |_, range| {
        let mut stamp = vec![u32::MAX; cnv];
        let mut slot = vec![0usize; cnv];
        let mut rows = ChunkRows {
            row_len: Vec::with_capacity(range.len()),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            vwgt: vec![0i64; range.len() * ncon],
        };
        for cv in range.clone() {
            let rep = reps[cv] as usize;
            let row_start = rows.adjncy.len();
            let mut members = [rep, usize::MAX];
            if mate[rep] != UNMATCHED {
                members[1] = mate[rep] as usize;
            }
            for &fv in members.iter().take_while(|&&m| m != usize::MAX) {
                for c in 0..ncon {
                    rows.vwgt[(cv - range.start) * ncon + c] += wg.vw(fv, c);
                }
                let (nbrs, wgts) = wg.neighbors(fv);
                for (&u, &w) in nbrs.iter().zip(wgts) {
                    let cu = cmap[u as usize] as usize;
                    if cu == cv {
                        continue; // internal edge disappears
                    }
                    if stamp[cu] == cv as u32 {
                        rows.adjwgt[slot[cu]] += w;
                    } else {
                        stamp[cu] = cv as u32;
                        slot[cu] = rows.adjncy.len();
                        rows.adjncy.push(cu as u32);
                        rows.adjwgt.push(w);
                    }
                }
            }
            rows.row_len.push(rows.adjncy.len() - row_start);
        }
        rows
    });

    // Deterministic merge: concatenate chunk outputs in chunk (= coarse id)
    // order.
    let mut xadj = Vec::with_capacity(cnv + 1);
    xadj.push(0usize);
    let mut adjncy: Vec<u32> = Vec::with_capacity(wg.adjncy.len());
    let mut adjwgt: Vec<i64> = Vec::with_capacity(wg.adjwgt.len());
    let mut vwgt = Vec::with_capacity(cnv * ncon);
    for chunk in chunks {
        let mut end = *xadj.last().unwrap();
        for len in chunk.row_len {
            end += len;
            xadj.push(end);
        }
        adjncy.extend_from_slice(&chunk.adjncy);
        adjwgt.extend_from_slice(&chunk.adjwgt);
        vwgt.extend_from_slice(&chunk.vwgt);
    }

    (
        WorkGraph {
            xadj,
            adjncy,
            adjwgt,
            ncon,
            vwgt,
        },
        cmap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_graph::Graph;

    fn path4() -> WorkGraph {
        WorkGraph::from_graph(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]))
    }

    #[test]
    fn contract_matched_path() {
        // Match (0,1) and (2,3): coarse graph is a single edge.
        let wg = path4();
        let mate = vec![1, 0, 3, 2];
        let (cg, cmap) = contract(&wg, &mate, &Par::seq());
        assert_eq!(cg.nv(), 2);
        assert_eq!(cmap, vec![0, 0, 1, 1]);
        assert_eq!(cg.neighbors(0).0, &[1]);
        assert_eq!(cg.neighbors(0).1, &[1]); // edge (1,2) survives with weight 1
                                             // Vertex weights sum: path vwgt = [1,2,2,1].
        assert_eq!(cg.vwgt, vec![3, 3]);
    }

    #[test]
    fn parallel_edges_merge() {
        // Square 0-1-2-3-0; match (0,1) and (2,3): coarse vertices joined by
        // the two edges (1,2) and (0,3) -> weight 2.
        let wg = WorkGraph::from_graph(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        let (cg, _) = contract(&wg, &[1, 0, 3, 2], &Par::seq());
        assert_eq!(cg.nv(), 2);
        assert_eq!(cg.neighbors(0).1, &[2]);
    }

    #[test]
    fn unmatched_vertices_survive() {
        let wg = path4();
        let mate = vec![1, 0, UNMATCHED, UNMATCHED];
        let (cg, cmap) = contract(&wg, &mate, &Par::seq());
        assert_eq!(cg.nv(), 3);
        assert_eq!(cmap, vec![0, 0, 1, 2]);
        assert_eq!(cg.neighbors(1).0, &[0, 2]);
    }

    #[test]
    fn total_weight_preserved() {
        let wg = path4();
        let (cg, _) = contract(&wg, &[1, 0, 3, 2], &Par::seq());
        assert_eq!(cg.total_wgt()[0], wg.total_wgt()[0]);
    }

    #[test]
    fn mc_weights_summed() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let wg = WorkGraph::from_graph_mc(&g);
        let (cg, _) = contract(&wg, &[1, 0], &Par::seq());
        assert_eq!(cg.nv(), 1);
        assert_eq!(cg.vwgt, vec![2, 2]); // rows: 1+1, nnz: 1+1
        assert!(cg.adjncy.is_empty());
    }

    #[test]
    fn parallel_contract_is_byte_identical() {
        // A denser pseudo-random graph so chunks actually merge parallel
        // edges: deterministic LCG edge list over 10k vertices (above
        // EDGE_GRAIN so the construction really chunks).
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..60_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) % 10_000;
            let b = (x >> 13) % 10_000;
            if a != b {
                edges.push((a as u32, b as u32));
            }
        }
        let g = Graph::from_edges(10_000, &edges);
        for wg in [WorkGraph::from_graph(&g), WorkGraph::from_graph_mc(&g)] {
            // Greedy deterministic matching: pair consecutive unmatched ids.
            let mut mate = vec![UNMATCHED; 10_000];
            for v in (0..9_999).step_by(3) {
                mate[v] = v as u32 + 1;
                mate[v + 1] = v as u32;
            }
            let (seq_g, seq_map) = contract(&wg, &mate, &Par::seq());
            for threads in [2, 4, 7] {
                let pool = sf2d_par::Pool::new(threads);
                let par = Par::new(threads, Some(&pool));
                let (par_g, par_map) = contract(&wg, &mate, &par);
                assert_eq!(par_map, seq_map, "threads {threads}");
                assert_eq!(par_g.xadj, seq_g.xadj, "threads {threads}");
                assert_eq!(par_g.adjncy, seq_g.adjncy, "threads {threads}");
                assert_eq!(par_g.adjwgt, seq_g.adjwgt, "threads {threads}");
                assert_eq!(par_g.vwgt, seq_g.vwgt, "threads {threads}");
            }
        }
    }
}
