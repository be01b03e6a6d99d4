//! The vector map: which rank owns each global vector entry.
//!
//! Plays the role of Epetra's domain/range `Epetra_Map` plus its directory:
//! O(1) owner and local-id lookup for any global id. In the paper's setup
//! `x` and `y` share one distribution (no remap between iterations), so a
//! single `VectorMap` serves as both domain and range map.

use sf2d_partition::NonzeroLayout;

/// Global-to-(rank, local id) mapping for vector entries.
#[derive(Debug, Clone)]
pub struct VectorMap {
    /// Owner rank per global id.
    owner: Vec<u32>,
    /// Local id within the owner, per global id.
    lid: Vec<u32>,
    /// Global ids per rank, ascending (the rank's local ordering).
    gids: Vec<Vec<u32>>,
    /// Prefix sums of the ranks' entry counts (`p + 1` offsets).
    base: Vec<usize>,
}

impl VectorMap {
    /// Builds the map from a layout's vector ownership.
    pub fn from_dist<L: NonzeroLayout + ?Sized>(dist: &L) -> VectorMap {
        let owner: Vec<u32> = (0..dist.n() as u32).map(|k| dist.vector_owner(k)).collect();
        // Each rank's list at its final length: count, then fill.
        let mut counts = vec![0; dist.nprocs()];
        for &o in &owner {
            counts[o as usize] += 1;
        }
        let mut gids: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let lid = (owner.iter().zip(0..))
            .map(|(&o, k)| {
                let mine = &mut gids[o as usize];
                mine.push(k);
                mine.len() as u32 - 1
            })
            .collect();
        let mut base = Vec::with_capacity(gids.len() + 1);
        base.push(0);
        for g in &gids {
            base.push(base[base.len() - 1] + g.len());
        }
        VectorMap {
            owner,
            lid,
            gids,
            base,
        }
    }

    /// Number of global entries.
    #[inline]
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// Number of ranks.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.gids.len()
    }

    /// Owner rank of global id `gid`.
    #[inline]
    pub fn owner(&self, gid: u32) -> u32 {
        self.owner[gid as usize]
    }

    /// Local id of `gid` within its owner.
    #[inline]
    pub fn lid(&self, gid: u32) -> usize {
        self.lid[gid as usize] as usize
    }

    /// The global ids owned by `rank`, in local order (ascending).
    #[inline]
    pub fn gids(&self, rank: usize) -> &[u32] {
        &self.gids[rank]
    }

    /// Number of entries owned by `rank`.
    #[inline]
    pub fn nlocal(&self, rank: usize) -> usize {
        self.gids[rank].len()
    }

    /// Where `rank`'s entries start when the vector is laid out rank by
    /// rank in local order (the SpMV's x window); `local_base(p) = n`.
    #[inline]
    pub fn local_base(&self, rank: usize) -> usize {
        self.base[rank]
    }

    /// The ids of `ids` (ascending) that `rank` does not own, as `(owner,
    /// position)` pairs by owner, then position: with its column map, a
    /// group per expand message `rank` receives; with its row map, per
    /// fold message it sends.
    pub fn remote_by_owner(&self, rank: usize, ids: &[u32]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::with_capacity(ids.len());
        let remote = (ids.iter().enumerate()).map(|(k, &g)| (self.owner(g), k as u32));
        pairs.extend(remote.filter(|&(o, _)| o as usize != rank));
        pairs.sort_unstable();
        pairs
    }

    /// Whether two maps describe the **same distribution** — identical
    /// owner and local-id assignment for every global entry. This is the
    /// structural compatibility check the SpMV kernels require: two maps
    /// of equal length but different ownership would silently misalign
    /// every local slice.
    pub fn same_distribution(&self, other: &VectorMap) -> bool {
        self.owner == other.owner && self.lid == other.lid
    }
}

/// The message groups of a [`VectorMap::remote_by_owner`] list.
pub(crate) fn groups(need: &[(u32, u32)]) -> impl Iterator<Item = &[(u32, u32)]> {
    need.chunk_by(|a, b| a.0 == b.0)
}

/// The group of `owner` in a [`VectorMap::remote_by_owner`] list.
pub(crate) fn owner_group(pairs: &[(u32, u32)], owner: u32) -> &[(u32, u32)] {
    &pairs[pairs.partition_point(|e| e.0 < owner)..pairs.partition_point(|e| e.0 <= owner)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf2d_partition::MatrixDist;

    #[test]
    fn block_map_structure() {
        let d = MatrixDist::block_1d(10, 3);
        let m = VectorMap::from_dist(&d);
        assert_eq!(m.n(), 10);
        assert_eq!(m.nprocs(), 3);
        assert_eq!(m.gids(0), &[0, 1, 2, 3]);
        assert_eq!(m.gids(2), &[7, 8, 9]);
        assert_eq!(m.owner(5), 1);
        assert_eq!(m.lid(5), 1);
        let bases: Vec<usize> = (0..=3).map(|r| m.local_base(r)).collect();
        assert_eq!(bases, [0, 4, 7, 10]);
    }

    #[test]
    fn lids_are_consistent_with_gid_lists() {
        let d = MatrixDist::random_1d(100, 7, 3);
        let m = VectorMap::from_dist(&d);
        for gid in 0..100u32 {
            let o = m.owner(gid) as usize;
            assert_eq!(m.gids(o)[m.lid(gid)], gid);
        }
        // Every entry owned exactly once.
        let total: usize = (0..7).map(|r| m.nlocal(r)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn same_distribution_is_structural() {
        let a = VectorMap::from_dist(&MatrixDist::block_1d(30, 3));
        let b = VectorMap::from_dist(&MatrixDist::block_1d(30, 3));
        let c = VectorMap::from_dist(&MatrixDist::random_1d(30, 3, 7));
        assert!(a.same_distribution(&b));
        assert!(a.same_distribution(&a));
        // Same length, same rank count, different ownership.
        assert_eq!(a.n(), c.n());
        assert!(!a.same_distribution(&c));
    }

    #[test]
    fn gid_lists_sorted() {
        let d = MatrixDist::random_1d(50, 4, 9);
        let m = VectorMap::from_dist(&d);
        for r in 0..4 {
            assert!(m.gids(r).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
