// The two-`Vec`-per-ring `RingSet` with its peer index, which the
// one-allocation `RingSet` must match operation for operation. Test
// code only: it is `include!`d by the test module of `rings.rs`, which
// brings `hypervolume`, `Member`, `PeerId`, `RingConfig` and `Micros`
// into scope.

/// One ring: primaries + secondaries.
#[derive(Debug, Clone, Default)]
struct ReferenceRing {
    primary: Vec<Member>,
    secondary: Vec<Member>,
}

/// The ring set as two `Vec`s per ring plus a peer → ring index.
#[derive(Debug, Clone)]
struct ReferenceRingSet {
    cfg: RingConfig,
    owner: PeerId,
    rings: Vec<ReferenceRing>,
    index: std::collections::HashMap<PeerId, u8>,
}

impl ReferenceRingSet {
    fn new(owner: PeerId, cfg: RingConfig) -> ReferenceRingSet {
        ReferenceRingSet {
            cfg,
            owner,
            rings: vec![ReferenceRing::default(); cfg.n_rings],
            index: std::collections::HashMap::new(),
        }
    }

    fn insert(&mut self, peer: PeerId, rtt: Micros) {
        if peer == self.owner {
            return;
        }
        let target = self.cfg.ring_of(rtt);
        if let Some(&old) = self.index.get(&peer) {
            let ring = &mut self.rings[old as usize];
            if old as usize == target {
                // Refresh in place.
                let m = ring
                    .primary
                    .iter_mut()
                    .chain(ring.secondary.iter_mut())
                    .find(|m| m.peer == peer)
                    .expect("index entry must exist in its ring");
                m.rtt = rtt;
                return;
            }
            // Relocate: drop from the old ring, fall through to add.
            if let Some(pos) = ring.primary.iter().position(|m| m.peer == peer) {
                ring.primary.remove(pos);
            } else if let Some(pos) = ring.secondary.iter().position(|m| m.peer == peer) {
                ring.secondary.remove(pos);
            }
            self.index.remove(&peer);
        }
        let m = Member { peer, rtt };
        let ring = &mut self.rings[target];
        if ring.primary.len() < self.cfg.k {
            ring.primary.push(m);
        } else if ring.secondary.len() < self.cfg.l {
            ring.secondary.push(m);
        } else {
            // Recycle the oldest secondary (front of the vec).
            let evicted = ring.secondary.remove(0);
            self.index.remove(&evicted.peer);
            ring.secondary.push(m);
        }
        self.index.insert(peer, target as u8);
    }

    fn primaries(&self) -> impl Iterator<Item = Member> + '_ {
        self.rings.iter().flat_map(|r| r.primary.iter().copied())
    }

    fn secondaries(&self) -> impl Iterator<Item = Member> + '_ {
        self.rings.iter().flat_map(|r| r.secondary.iter().copied())
    }

    fn clear_ring(&mut self, r: usize) {
        let ring = &mut self.rings[r];
        let peers: Vec<PeerId> = ring
            .primary
            .iter()
            .chain(ring.secondary.iter())
            .map(|m| m.peer)
            .collect();
        ring.primary.clear();
        ring.secondary.clear();
        for p in peers {
            self.index.remove(&p);
        }
    }

    fn len(&self) -> usize {
        self.rings.iter().map(|r| r.primary.len()).sum()
    }

    fn manage_ring(&mut self, r: usize, mut dist: impl FnMut(PeerId, PeerId) -> Micros) {
        let ring = &self.rings[r];
        let total = ring.primary.len() + ring.secondary.len();
        if total <= self.cfg.k || ring.secondary.is_empty() {
            return;
        }
        let candidates: Vec<Member> = ring
            .primary
            .iter()
            .chain(ring.secondary.iter())
            .copied()
            .collect();
        let selected = hypervolume::select_max_volume(total, self.cfg.k, |i, j| {
            dist(candidates[i].peer, candidates[j].peer).as_ms()
        });
        let mut new_primary = Vec::with_capacity(self.cfg.k);
        let mut new_secondary = Vec::with_capacity(self.cfg.l);
        let mut dropped = Vec::new();
        for (idx, m) in candidates.into_iter().enumerate() {
            if selected.binary_search(&idx).is_ok() {
                new_primary.push(m);
            } else if new_secondary.len() < self.cfg.l {
                new_secondary.push(m);
            } else {
                // Dropped entirely: forget it.
                dropped.push(m.peer);
            }
        }
        let ring = &mut self.rings[r];
        ring.primary = new_primary;
        ring.secondary = new_secondary;
        for p in dropped {
            self.index.remove(&p);
        }
    }
}
