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
        let n = dist.n();
        let p = dist.nprocs();
        let mut owner = Vec::with_capacity(n);
        let mut gids: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut lid = vec![0u32; n];
        for k in 0..n {
            let o = dist.vector_owner(k as u32);
            owner.push(o);
            lid[k] = gids[o as usize].len() as u32;
            gids[o as usize].push(k as u32);
        }
        let mut base = vec![0];
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

    /// Whether two maps describe the **same distribution** — identical
    /// owner and local-id assignment for every global entry. This is the
    /// structural compatibility check the SpMV kernels require: two maps
    /// of equal length but different ownership would silently misalign
    /// every local slice.
    pub fn same_distribution(&self, other: &VectorMap) -> bool {
        self.owner == other.owner && self.lid == other.lid
    }
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
