//! The consistent-hash ring that places deployments on shards.
//!
//! Classic consistent hashing with virtual nodes: every shard owns
//! `replicas` points on a 64-bit ring, a deployment name hashes to a point,
//! and the first shard point at or clockwise of it owns the deployment.
//! Virtual nodes smooth the load split (a shard's share of the keyspace
//! concentrates around `1/n` as replicas grow), and adding or removing one
//! shard only remaps the keys that fall into that shard's arcs — the
//! property that makes rebalancing a *migration of few deployments* instead
//! of a full reshuffle.
//!
//! The hash is the workspace's pinned 64-bit FNV-1a
//! (`ofscil_tensor::bytes::fnv1a64`), avalanche-mixed for ring resolution.
//! Placement is a pure function of the shard set and the name: every router
//! instance with the same configuration computes the same placement, no
//! coordination needed.

use ofscil_tensor::bytes::fnv1a64;
use std::collections::BTreeSet;

/// The 64-bit avalanche finalizer (the murmur3 `fmix64` constants). Raw
/// FNV-1a of short, similar strings ("shard-0/vnode-1", "shard-0/vnode-2",
/// …) differs mostly in its low bits, but ring position is ordered by the
/// *high* bits — without this mix the virtual nodes clump and one shard
/// owns far more than its share.
fn mix64(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// Position of a byte string on the ring.
pub(crate) fn ring_point(bytes: &[u8]) -> u64 {
    mix64(fnv1a64(bytes))
}

/// A consistent-hash ring over shard ids with virtual nodes.
///
/// Shard ids are stable small integers (indices into the router's shard
/// address table): removing a shard retires its id, adding a shard allocates
/// the next one. The ring itself carries no addresses — the
/// `ShardPool` owns those.
#[derive(Debug, Clone)]
pub struct HashRing {
    replicas: usize,
    /// `(point, shard)` pairs sorted by point; lookup is a binary search
    /// with wraparound.
    points: Vec<(u64, usize)>,
    shards: BTreeSet<usize>,
    next_id: usize,
}

impl HashRing {
    /// A ring of shards `0..shards`, each with `replicas` virtual nodes
    /// (minimum 1).
    pub fn new(shards: usize, replicas: usize) -> Self {
        let mut ring = HashRing {
            replicas: replicas.max(1),
            points: Vec::new(),
            shards: (0..shards).collect(),
            next_id: shards,
        };
        ring.rebuild();
        ring
    }

    /// Active shard ids, ascending.
    pub(crate) fn shard_ids(&self) -> Vec<usize> {
        self.shards.iter().copied().collect()
    }

    /// Number of active shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Returns `true` when no shard is on the ring.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Returns `true` when `shard` is on the ring.
    pub fn contains(&self, shard: usize) -> bool {
        self.shards.contains(&shard)
    }

    /// The shard owning `name`: the first shard point at or clockwise of the
    /// name's hash. `None` on an empty ring.
    pub fn shard_for(&self, name: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let key = ring_point(name.as_bytes());
        let idx = self.points.partition_point(|&(point, _)| point < key);
        let (_, shard) = self.points[if idx == self.points.len() { 0 } else { idx }];
        Some(shard)
    }

    /// Adds a shard, returning its new id.
    pub(crate) fn add_shard(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.shards.insert(id);
        self.rebuild();
        id
    }

    /// Removes a shard from the ring; its keys fall to their clockwise
    /// neighbours. Returns `false` when the id was not on the ring.
    pub(crate) fn remove_shard(&mut self, shard: usize) -> bool {
        if !self.shards.remove(&shard) {
            return false;
        }
        self.rebuild();
        true
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for &shard in &self.shards {
            for replica in 0..self.replicas {
                let point = ring_point(format!("shard-{shard}/vnode-{replica}").as_bytes());
                self.points.push((point, shard));
            }
        }
        // Ties (astronomically unlikely 64-bit collisions) resolve to the
        // lowest shard id, deterministically.
        self.points.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("tenant-{i}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = HashRing::new(3, 64);
        let again = HashRing::new(3, 64);
        for name in names(200) {
            let shard = ring.shard_for(&name).unwrap();
            assert!(shard < 3);
            assert_eq!(again.shard_for(&name), Some(shard));
        }
        assert!(HashRing::new(0, 64).shard_for("anything").is_none());
    }

    #[test]
    fn virtual_nodes_balance_the_split() {
        let ring = HashRing::new(3, 64);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let total = 3000;
        for name in names(total) {
            *counts.entry(ring.shard_for(&name).unwrap()).or_insert(0) += 1;
        }
        for shard in 0..3 {
            let share = counts[&shard] as f64 / total as f64;
            assert!(
                (0.15..=0.55).contains(&share),
                "shard {shard} owns {share:.2} of the keyspace"
            );
        }
    }

    #[test]
    fn adding_a_shard_remaps_only_a_fraction() {
        let before = HashRing::new(3, 64);
        let mut after = before.clone();
        let id = after.add_shard();
        assert_eq!(id, 3);
        let total = 2000;
        let moved = names(total)
            .iter()
            .filter(|name| before.shard_for(name) != after.shard_for(name))
            .count();
        // Ideal is 1/4 of keys moving to the new shard; anything well under a
        // full reshuffle proves consistency. Every moved key must land on the
        // new shard — consistent hashing never shuffles keys between
        // surviving shards.
        assert!(moved > 0, "a new shard must take some keys");
        assert!(
            (moved as f64) < 0.5 * total as f64,
            "adding one shard moved {moved}/{total} keys"
        );
        for name in names(total) {
            if before.shard_for(&name) != after.shard_for(&name) {
                assert_eq!(after.shard_for(&name), Some(3));
            }
        }
    }

    #[test]
    fn removing_a_shard_retires_its_id_and_respreads_its_keys() {
        let mut ring = HashRing::new(3, 64);
        assert!(ring.remove_shard(1));
        assert!(!ring.remove_shard(1));
        assert_eq!(ring.shard_ids(), vec![0, 2]);
        for name in names(500) {
            let shard = ring.shard_for(&name).unwrap();
            assert_ne!(shard, 1);
        }
        // A later add allocates a fresh id, never recycling the retired one.
        assert_eq!(ring.add_shard(), 3);
        assert_eq!(ring.shard_ids(), vec![0, 2, 3]);
    }

    #[test]
    fn last_shard_owns_everything() {
        let mut ring = HashRing::new(2, 8);
        assert!(ring.remove_shard(0));
        for name in names(50) {
            assert_eq!(ring.shard_for(&name), Some(1));
        }
        assert!(ring.remove_shard(1));
        assert!(ring.is_empty());
        assert_eq!(ring.shard_for("anyone"), None);
    }
}
