//! The partitioner's internal weighted-graph representation.
//!
//! A flat CSR with integer edge weights and up to [`MAX_CON`] vertex-weight
//! constraints stored interleaved (`vwgt[v * ncon + c]`). Coarse graphs in
//! the multilevel hierarchy and the vertex-induced subgraphs of recursive
//! bisection are all `WorkGraph`s.

use sf2d_graph::Graph;

/// Maximum number of balance constraints (paper uses at most 2: rows+nnz).
pub const MAX_CON: usize = 2;

/// Converts edge values to the partitioner's integer weights: rounded,
/// at least 1 (NaN and non-positive values included), and at most
/// `i64::MAX / 4` over the entry count, so that the sum of all weights —
/// and with it every gain, cut and contracted weight summed from them —
/// stays within `i64::MAX / 4`. Weights a real graph carries are far
/// below the cap; `+∞` or `1e300` land on it.
fn edge_weights(values: &[f64]) -> Vec<i64> {
    let cap = i64::MAX / 4 / values.len().max(1) as i64;
    values
        .iter()
        .map(|&w| (w.round().max(1.0) as i64).min(cap))
        .collect()
}

/// Weighted graph in CSR form.
#[derive(Debug, Clone)]
pub struct WorkGraph {
    /// Row pointers, `nv + 1` entries.
    pub xadj: Vec<usize>,
    /// Neighbour lists.
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<i64>,
    /// Number of balance constraints (1 or 2).
    pub ncon: usize,
    /// Vertex weights, `nv * ncon` entries, constraint-major per vertex.
    pub vwgt: Vec<i64>,
}

impl WorkGraph {
    /// Number of vertices.
    #[inline]
    pub fn nv(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Neighbour and edge-weight slices of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> (&[u32], &[i64]) {
        let (lo, hi) = (self.xadj[v], self.xadj[v + 1]);
        (&self.adjncy[lo..hi], &self.adjwgt[lo..hi])
    }

    /// Weight of vertex `v` under constraint `c`.
    #[inline]
    pub fn vw(&self, v: usize, c: usize) -> i64 {
        self.vwgt[v * self.ncon + c]
    }

    /// Total weight per constraint.
    pub fn total_wgt(&self) -> [i64; MAX_CON] {
        let mut tot = [0i64; MAX_CON];
        for v in 0..self.nv() {
            for c in 0..self.ncon {
                tot[c] += self.vw(v, c);
            }
        }
        tot
    }

    /// Builds the single-constraint work graph: weight = the graph's vertex
    /// weights (row nonzero counts by default).
    pub fn from_graph(g: &Graph) -> WorkGraph {
        let adj = g.adjacency();
        WorkGraph {
            xadj: adj.rowptr().to_vec(),
            adjncy: adj.colidx().to_vec(),
            adjwgt: edge_weights(adj.values()),
            ncon: 1,
            vwgt: g.vwgt.clone(),
        }
    }

    /// Builds the two-constraint work graph: constraint 0 = unit row weight,
    /// constraint 1 = nonzero count (ParMETIS multiconstraint setup, §5.3).
    pub fn from_graph_mc(g: &Graph) -> WorkGraph {
        let adj = g.adjacency();
        let mut vwgt = Vec::with_capacity(2 * g.nv());
        for v in 0..g.nv() {
            vwgt.push(1);
            vwgt.push(g.vwgt[v]);
        }
        WorkGraph {
            xadj: adj.rowptr().to_vec(),
            adjncy: adj.colidx().to_vec(),
            adjwgt: edge_weights(adj.values()),
            ncon: 2,
            vwgt,
        }
    }

    /// Extracts the vertex-induced subgraph over `keep` (a sorted list of
    /// vertex ids). Returns the subgraph and the mapping `sub id -> old id`.
    pub fn subgraph(&self, keep: &[u32]) -> (WorkGraph, Vec<u32>) {
        let nv = keep.len();
        // old -> new map; u32::MAX marks "not kept".
        let mut newid = vec![u32::MAX; self.nv()];
        for (new, &old) in keep.iter().enumerate() {
            newid[old as usize] = new as u32;
        }
        let mut xadj = Vec::with_capacity(nv + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(nv * self.ncon);
        for &old in keep {
            let (nbrs, wgts) = self.neighbors(old as usize);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let nu = newid[u as usize];
                if nu != u32::MAX {
                    adjncy.push(nu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
            for c in 0..self.ncon {
                vwgt.push(self.vw(old as usize, c));
            }
        }
        (
            WorkGraph {
                xadj,
                adjncy,
                adjwgt,
                ncon: self.ncon,
                vwgt,
            },
            keep.to_vec(),
        )
    }
}

#[cfg(test)]
/// Work graphs built directly for the bitwise oracles in `initpart` and
/// `matching`: shapes `from_graph` cannot produce (weighted parallel
/// entries, self-loops, two constraints with arbitrary weights) but
/// contraction can.
pub(crate) mod testgraphs {
    use super::WorkGraph;
    use proptest::prelude::*;

    /// A symmetric multigraph holding exactly the listed entries: `(a, b, w)`
    /// lands in both rows, parallel edges stay separate entries and
    /// `(a, a, w)` is one self-loop entry. `vwgt` is `nv * ncon` long.
    pub(crate) fn from_weighted_edges(
        ncon: usize,
        vwgt: Vec<i64>,
        edges: &[(u32, u32, i64)],
    ) -> WorkGraph {
        let nv = vwgt.len() / ncon;
        let mut rows: Vec<Vec<(u32, i64)>> = vec![Vec::new(); nv];
        for &(a, b, w) in edges {
            rows[a as usize].push((b, w));
            if a != b {
                rows[b as usize].push((a, w));
            }
        }
        let mut xadj = vec![0usize];
        for row in &rows {
            xadj.push(xadj.last().unwrap() + row.len());
        }
        WorkGraph {
            xadj,
            adjncy: rows.iter().flatten().map(|&(u, _)| u).collect(),
            adjwgt: rows.iter().flatten().map(|&(_, w)| w).collect(),
            ncon,
            vwgt,
        }
    }

    /// Two hubs adjacent to each other and to every one of `leaves` leaves:
    /// Σdeg² ≈ 2·leaves² against 4·leaves adjacency entries, the shape of a
    /// coarsest graph that stalled with its hubs intact.
    pub(crate) fn two_hub_star(leaves: u32, ncon: usize) -> WorkGraph {
        let mut edges = vec![(0u32, 1u32, 7i64)];
        for leaf in 2..leaves + 2 {
            edges.push((0, leaf, 1 + i64::from(leaf % 5)));
            edges.push((1, leaf, 1 + i64::from(leaf % 3)));
        }
        let vwgt = (0..(leaves as usize + 2) * ncon)
            .map(|i| 1 + (i as i64 * 7) % 50)
            .collect();
        from_weighted_edges(ncon, vwgt, &edges)
    }

    /// Random work graphs: 1..48 vertices, `ncon` ∈ {1, 2}, vertex and edge
    /// weights in 1..=50, up to three mutually disconnected vertex classes
    /// (plus whatever isolated vertices fall out), self-loops, and parallel
    /// entries with different weights.
    pub(crate) fn arb_workgraph() -> impl Strategy<Value = WorkGraph> {
        (1usize..48, 1usize..=2, 1usize..=3).prop_flat_map(|(nv, ncon, classes)| {
            let edge = (0..nv, 0..nv, 1i64..=50, proptest::bool::ANY);
            (
                proptest::collection::vec(edge, 0..4 * nv),
                proptest::collection::vec(1i64..=50, nv * ncon),
            )
                .prop_map(move |(raw, vwgt)| {
                    let mut edges = Vec::new();
                    for (a, b, w, twice) in raw {
                        // Pull `b` into `a`'s class; off the end, a self-loop.
                        let b = b - b % classes + a % classes;
                        let b = if b < nv { b } else { a };
                        edges.push((a as u32, b as u32, w));
                        if twice {
                            edges.push((a as u32, b as u32, w % 50 + 1));
                        }
                    }
                    from_weighted_edges(ncon, vwgt, &edges)
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_graph::Graph;

    fn path4() -> WorkGraph {
        WorkGraph::from_graph(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]))
    }

    #[test]
    fn from_graph_copies_structure() {
        let wg = path4();
        assert_eq!(wg.nv(), 4);
        assert_eq!(wg.neighbors(1).0, &[0, 2]);
        assert_eq!(wg.ncon, 1);
        assert_eq!(wg.vwgt, vec![1, 2, 2, 1]);
        assert_eq!(wg.total_wgt()[0], 6);
    }

    #[test]
    fn edge_weights_round_and_clamp() {
        let cap = i64::MAX / 4 / 6;
        let got = edge_weights(&[f64::INFINITY, 1e300, f64::NAN, -3.0, 2.4, 1.0]);
        assert_eq!(got, [cap, cap, 1, 1, 2, 1]);
        assert_eq!(edge_weights(&[]), Vec::<i64>::new());
    }

    #[test]
    fn mc_weights_interleaved() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WorkGraph::from_graph_mc(&g);
        assert_eq!(wg.ncon, 2);
        assert_eq!(wg.vw(1, 0), 1);
        assert_eq!(wg.vw(1, 1), 2);
        assert_eq!(wg.total_wgt(), [3, 4]);
    }

    #[test]
    fn subgraph_relabels_and_filters() {
        let wg = path4();
        let (sub, map) = wg.subgraph(&[1, 2, 3]);
        assert_eq!(sub.nv(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        // Old vertex 1 (new 0) lost its edge to 0, kept the one to 2 (new 1).
        assert_eq!(sub.neighbors(0).0, &[1]);
        assert_eq!(sub.neighbors(1).0, &[0, 2]);
        assert_eq!(sub.vwgt, vec![2, 2, 1]);
    }

    #[test]
    fn subgraph_of_disconnected_pick() {
        let wg = path4();
        let (sub, _) = wg.subgraph(&[0, 3]);
        assert_eq!(sub.nv(), 2);
        assert!(sub.neighbors(0).0.is_empty());
        assert!(sub.neighbors(1).0.is_empty());
    }
}
