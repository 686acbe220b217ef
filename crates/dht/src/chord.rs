//! The Chord ring: membership, fingers, lookups.
//!
//! Node state follows the SIGCOMM'01 paper: each node keeps a successor
//! list (length 8 here) and a 64-entry finger table where finger `i`
//! points at `successor(n + 2^i)`. Lookups are iterative: hop to the
//! closest preceding finger until the key falls between a node and its
//! successor. Stabilisation is idealised — `stabilize()` rebuilds
//! successor lists and fingers from the current membership, which is the
//! standard simulation shortcut when churn-*recovery* (not churn-loss)
//! is out of scope.

use crate::hash::Key;
use np_util::rng::rng_for;
use rand::Rng;

/// Successor-list length.
pub const SUCCESSOR_LIST: usize = 8;
/// Finger-table size (one per ring bit).
pub const FINGERS: usize = 64;

/// A Chord node.
#[derive(Debug, Clone)]
pub struct ChordNode {
    pub id: Key,
    /// `finger[i] = successor(id + 2^i)` as an index into the ring's
    /// node vector.
    finger: Vec<usize>,
    /// The next `SUCCESSOR_LIST` nodes clockwise.
    successors: Vec<usize>,
}

/// The simulated ring.
#[derive(Debug, Clone)]
pub struct ChordRing {
    /// Nodes sorted by id (ascending) — the vector index is the node
    /// handle used throughout.
    nodes: Vec<ChordNode>,
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Index of the node owning the key.
    pub owner: usize,
    /// Overlay hops the iterative lookup took.
    pub hops: u32,
}

impl ChordRing {
    /// Build a ring of `n` nodes with random ids, already stabilised.
    pub fn build(n: usize, seed: u64) -> ChordRing {
        assert!(n > 0, "empty ring");
        let mut rng = rng_for(seed, 0x43_48_4F); // "CHO"
        let mut ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        ids.sort_unstable();
        ids.dedup();
        while ids.len() < n {
            ids.push(rng.gen());
            ids.sort_unstable();
            ids.dedup();
        }
        let mut ring = ChordRing {
            nodes: ids
                .into_iter()
                .map(|id| ChordNode {
                    id: Key(id),
                    finger: Vec::new(),
                    successors: Vec::new(),
                })
                .collect(),
        };
        ring.stabilize();
        ring
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the ring is empty (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Join a new node with the given id; returns its handle. The ring
    /// re-stabilises (idealised maintenance).
    pub fn join(&mut self, id: Key) -> usize {
        let pos = self
            .nodes
            .binary_search_by_key(&id, |n| n.id)
            .unwrap_or_else(|p| p);
        self.nodes.insert(
            pos,
            ChordNode {
                id,
                finger: Vec::new(),
                successors: Vec::new(),
            },
        );
        self.stabilize();
        pos
    }

    /// Remove a node by handle (fail-stop); the ring re-stabilises.
    pub fn leave(&mut self, idx: usize) {
        assert!(self.nodes.len() > 1, "cannot empty the ring");
        self.nodes.remove(idx);
        self.stabilize();
    }

    /// Rebuild successor lists and finger tables from membership.
    pub fn stabilize(&mut self) {
        let n = self.nodes.len();
        let ids: Vec<Key> = self.nodes.iter().map(|nd| nd.id).collect();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.successors = (1..=SUCCESSOR_LIST.min(n - 1))
                .map(|k| (i + k) % n)
                .collect();
            node.finger = (0..FINGERS as u32)
                .map(|b| {
                    let target = node.id.finger_target(b);
                    // successor(target): first id >= target, wrapping.
                    match ids.binary_search(&target) {
                        Ok(p) => p,
                        Err(p) => p % n,
                    }
                })
                .collect();
        }
    }

    /// The ground-truth owner of a key: the first node clockwise whose
    /// id is `>= key` (its *successor*). Used by tests and by
    /// [`ChordRing::lookup`]'s termination check.
    pub fn true_owner(&self, key: Key) -> usize {
        match self.nodes.binary_search_by_key(&key, |n| n.id) {
            Ok(p) => p,
            Err(p) => p % self.nodes.len(),
        }
    }

    fn closest_preceding(&self, from: usize, key: Key) -> usize {
        let node = &self.nodes[from];
        for &f in node.finger.iter().rev() {
            if f != from && self.nodes[f].id.in_open_open(node.id, key) {
                return f;
            }
        }
        // Fall back to the immediate successor (guarantees progress).
        node.successors.first().copied().unwrap_or(from)
    }

    /// Iterative lookup from `start`.
    pub fn lookup_from(&self, start: usize, key: Key) -> Lookup {
        let mut cur = start;
        let mut hops = 0u32;
        loop {
            let node = &self.nodes[cur];
            let succ = node.successors.first().copied().unwrap_or(cur);
            if key.in_open_closed(node.id, self.nodes[succ].id) {
                return Lookup {
                    owner: succ,
                    hops: hops + 1,
                };
            }
            if key == node.id {
                return Lookup { owner: cur, hops };
            }
            let next = self.closest_preceding(cur, key);
            if next == cur {
                // Single-node ring.
                return Lookup { owner: cur, hops };
            }
            cur = next;
            hops += 1;
            debug_assert!(hops as usize <= self.nodes.len(), "lookup loop");
        }
    }

    /// Lookup from a random start node.
    pub fn lookup<R: Rng + ?Sized>(&self, key: Key, rng: &mut R) -> Lookup {
        let start = rng.gen_range(0..self.nodes.len());
        self.lookup_from(start, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::rng::rng_from;

    #[test]
    fn lookups_find_the_true_owner() {
        let ring = ChordRing::build(128, 1);
        let mut rng = rng_from(2);
        for _ in 0..500 {
            let key = Key(rng.gen());
            let l = ring.lookup(key, &mut rng);
            assert_eq!(l.owner, ring.true_owner(key), "wrong owner for {key:?}");
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let ring = ChordRing::build(1024, 3);
        let mut rng = rng_from(4);
        let mut total = 0u64;
        let n = 500;
        for _ in 0..n {
            let key = Key(rng.gen());
            total += u64::from(ring.lookup(key, &mut rng).hops);
        }
        let mean = total as f64 / n as f64;
        // Chord's expected path length is ~0.5·log2(N) = 5; allow head
        // room but reject linear scans.
        assert!((1.0..=12.0).contains(&mean), "mean hops {mean}");
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = ChordRing::build(1, 5);
        let l = ring.lookup_from(0, Key(12345));
        assert_eq!(l.owner, 0);
    }

    #[test]
    fn join_preserves_ownership_of_other_keys() {
        let mut ring = ChordRing::build(32, 7);
        let mut rng = rng_from(8);
        let keys: Vec<Key> = (0..100).map(|_| Key(rng.gen())).collect();
        let owners_before: Vec<Key> = keys
            .iter()
            .map(|&k| ring.nodes[ring.true_owner(k)].id)
            .collect();
        let new_id = Key(rng.gen());
        ring.join(new_id);
        for (k, owner_before) in keys.iter().zip(owners_before) {
            let after = ring.nodes[ring.true_owner(*k)].id;
            // Ownership only changes if the new node took over the key.
            if after != owner_before {
                assert_eq!(after, new_id, "key moved to a non-joining node");
            }
            // And lookups still agree.
            let l = ring.lookup_from(0, *k);
            assert_eq!(ring.nodes[l.owner].id, after);
        }
    }

    #[test]
    fn leave_reassigns_to_successor() {
        let mut ring = ChordRing::build(16, 9);
        let victim = 5;
        let victim_id = ring.nodes[victim].id;
        let succ_id = ring.nodes[(victim + 1) % 16].id;
        ring.leave(victim);
        // Any key previously owned by the victim now belongs to its
        // successor.
        let l = ring.lookup_from(0, victim_id);
        assert_eq!(ring.nodes[l.owner].id, succ_id);
    }

    proptest::proptest! {
        /// Lookup returns the true owner from any start node.
        #[test]
        fn prop_lookup_owner(n in 1usize..64, key in proptest::num::u64::ANY, start_sel in proptest::num::u64::ANY) {
            let ring = ChordRing::build(n, 42);
            let start = (start_sel % n as u64) as usize;
            let l = ring.lookup_from(start, Key(key));
            proptest::prop_assert_eq!(l.owner, ring.true_owner(Key(key)));
            proptest::prop_assert!((l.hops as usize) <= n + 1);
        }
    }
}
