//! The key-value map facade the remedies use.
//!
//! The paper evaluates its UCL and IP-prefix heuristics assuming "a
//! perfect key-value map" ([`PerfectMap`]) and proposes hosting the real
//! thing on a DHT ([`ChordMap`]). Both implement [`KeyValueMap`]:
//! a *multimap* from 64-bit keys (hashed router IPs / prefixes) to
//! 64-bit values (packed peer records), because one upstream router maps
//! to *all* the peers that track it.

use crate::chord::ChordRing;
use crate::hash::Key;
use np_util::rng::rng_for;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// A multimap keyed by 64-bit identifiers.
pub trait KeyValueMap {
    /// Append `value` under `key` (duplicates are kept — the registry
    /// deduplicates at a higher level if it cares).
    fn insert(&mut self, key: u64, value: u64);

    /// All values under `key`, in insertion order.
    fn get(&mut self, key: u64) -> Vec<u64>;

    /// Remove every value under `key` for which `pred` returns true;
    /// returns how many were removed. (Peers leaving the system retract
    /// their mappings.)
    fn remove_if(&mut self, key: u64, pred: &mut dyn FnMut(u64) -> bool) -> usize;

    /// Short name for reports.
    fn name(&self) -> &str;
}

/// The paper's idealised map: a process-local hash table.
#[derive(Debug, Default)]
pub struct PerfectMap {
    map: HashMap<u64, Vec<u64>>,
}

impl PerfectMap {
    pub fn new() -> PerfectMap {
        PerfectMap::default()
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }
}

impl KeyValueMap for PerfectMap {
    fn insert(&mut self, key: u64, value: u64) {
        self.map.entry(key).or_default().push(value);
    }

    fn get(&mut self, key: u64) -> Vec<u64> {
        self.map.get(&key).cloned().unwrap_or_default()
    }

    fn remove_if(&mut self, key: u64, pred: &mut dyn FnMut(u64) -> bool) -> usize {
        let Some(v) = self.map.get_mut(&key) else {
            return 0;
        };
        let before = v.len();
        v.retain(|&x| !pred(x));
        let removed = before - v.len();
        if v.is_empty() {
            self.map.remove(&key);
        }
        removed
    }

    fn name(&self) -> &str {
        "perfect"
    }
}

/// The same interface over a Chord ring: each operation runs a lookup
/// (hops counted) and touches the owning node's store.
pub struct ChordMap {
    ring: ChordRing,
    stores: Vec<HashMap<u64, Vec<u64>>>,
    rng: StdRng,
    /// Total lookup hops spent (cost telemetry; README's `EXPERIMENTS`
    /// section lists `ucl_discovery`, whose `--chord` run uses this map).
    pub lookup_hops: u64,
    /// Total operations issued.
    pub operations: u64,
}

impl ChordMap {
    /// A ring of `n` storage nodes.
    pub fn new(n: usize, seed: u64) -> ChordMap {
        let ring = ChordRing::build(n, seed);
        let stores = vec![HashMap::new(); ring.len()];
        ChordMap {
            ring,
            stores,
            rng: rng_for(seed, 0x434D_4150), // "CMAP"
            lookup_hops: 0,
            operations: 0,
        }
    }

    fn owner_of(&mut self, key: u64) -> usize {
        let l = self.ring.lookup(Key::of_u64(key), &mut self.rng);
        self.lookup_hops += u64::from(l.hops);
        self.operations += 1;
        l.owner
    }

    /// Mean lookup hops per operation so far.
    pub fn mean_hops(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.lookup_hops as f64 / self.operations as f64
        }
    }

    /// Load distribution: number of stored values per node (the paper's
    /// non-uniform-key concern, testable).
    pub fn load_per_node(&self) -> Vec<usize> {
        self.stores
            .iter()
            .map(|s| s.values().map(|v| v.len()).sum())
            .collect()
    }
}

impl KeyValueMap for ChordMap {
    fn insert(&mut self, key: u64, value: u64) {
        let owner = self.owner_of(key);
        self.stores[owner].entry(key).or_default().push(value);
    }

    fn get(&mut self, key: u64) -> Vec<u64> {
        let owner = self.owner_of(key);
        self.stores[owner].get(&key).cloned().unwrap_or_default()
    }

    fn remove_if(&mut self, key: u64, pred: &mut dyn FnMut(u64) -> bool) -> usize {
        let owner = self.owner_of(key);
        let Some(v) = self.stores[owner].get_mut(&key) else {
            return 0;
        };
        let before = v.len();
        v.retain(|&x| !pred(x));
        before - v.len()
    }

    fn name(&self) -> &str {
        "chord"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(map: &mut dyn KeyValueMap) {
        map.insert(1, 100);
        map.insert(1, 101);
        map.insert(2, 200);
        assert_eq!(map.get(1), vec![100, 101]);
        assert_eq!(map.get(2), vec![200]);
        assert_eq!(map.get(3), Vec::<u64>::new());
        assert_eq!(map.remove_if(1, &mut |v| v == 100), 1);
        assert_eq!(map.get(1), vec![101]);
        assert_eq!(map.remove_if(9, &mut |_| true), 0);
    }

    #[test]
    fn perfect_map_contract() {
        let mut m = PerfectMap::new();
        exercise(&mut m);
        assert_eq!(m.name(), "perfect");
    }

    #[test]
    fn chord_map_contract() {
        let mut m = ChordMap::new(64, 1);
        exercise(&mut m);
        assert_eq!(m.name(), "chord");
        assert!(m.operations > 0);
        assert!(m.mean_hops() >= 1.0, "lookups cost hops: {}", m.mean_hops());
    }

    #[test]
    fn chord_map_hop_count_is_pinned() {
        // Each operation draws its lookup's start node from the map's
        // seeded stream, so a fixed seed and operation sequence spend an
        // exact number of hops. Any change to that draw shows up here.
        let mut m = ChordMap::new(64, 9);
        for key in 0..300u64 {
            m.insert(key, key * 2);
        }
        for key in 0..300u64 {
            assert_eq!(m.get(key), vec![key * 2]);
        }
        for key in (0..300u64).step_by(3) {
            m.remove_if(key, &mut |v| v % 4 == 0);
        }
        assert_eq!(m.operations, 700);
        assert_eq!(m.lookup_hops, 2614);
    }

    #[test]
    fn maps_agree_on_random_workload() {
        use rand::Rng;
        let mut perfect = PerfectMap::new();
        let mut chord = ChordMap::new(32, 2);
        let mut rng = np_util::rng::rng_from(3);
        for _ in 0..2_000 {
            let key = rng.gen_range(0..200u64);
            let val = rng.gen_range(0..10_000u64);
            perfect.insert(key, val);
            chord.insert(key, val);
        }
        for key in 0..200u64 {
            assert_eq!(perfect.get(key), chord.get(key), "key {key}");
        }
    }

    #[test]
    fn hashed_keys_balance_chord_load() {
        // Sequential keys (IP-like, non-uniform) must still spread across
        // nodes thanks to hashing — the paper's remark.
        let mut m = ChordMap::new(16, 4);
        for key in 0..1_600u64 {
            m.insert(key, key);
        }
        let load = m.load_per_node();
        let max = *load.iter().max().expect("non-empty");
        let mean = 1_600.0 / load.len() as f64;
        // Random ring intervals are exponential-ish: allow 4x the mean.
        assert!(
            (max as f64) < mean * 4.0,
            "one node holds {max} of 1600 (mean {mean})"
        );
    }
}
