//! The compressed latency store: dense per-cluster blocks under a
//! two-level hub summary, materialised lazily under a byte budget.
//!
//! The dense matrix is quadratic: 25 MB at the paper's 2.5 k peers but
//! 40 GB at 100 k and 4 TB at 1 M. The surveyed P2P-management
//! literature's standard answer is hierarchical decomposition, and the
//! paper's own §4 worlds are *already* hierarchical — peers hang off
//! end-networks, which hang off cluster hubs, and every inter-cluster
//! path is `up + hub-to-hub + down`. [`HierarchicalWorld`] stores that
//! factorization:
//!
//! * peers are partitioned into **shards** (cluster assignments), and
//!   each shard keeps a **dense block** of exact intra-shard RTTs;
//! * inter-shard RTTs come from a **hub summary** — a per-peer hub
//!   offset plus a shard-hub distance:
//!   `rtt(a, b) = offset[a] + hub(shard(a), shard(b)) + offset[b]`.
//!
//! Two costs of the one-level form still go quadratic on the way to
//! 10⁶ peers: an `S×S` hub matrix (S ≈ 20 k shards at 1 M peers →
//! 1.6 GB of f32) and resident blocks (Σ mₛ² floats for the whole
//! run). The store removes both:
//!
//! * **Two-level hub summary.** Shards are grouped into `G`
//!   **super-shards**. Each group keeps a dense intra-group hub matrix
//!   (`Σ gᵢ²` entries instead of `S²`), and each group elects a
//!   **super-hub shard** — the hub-level medoid (the shard minimising
//!   total intra-group hub distance, ties by lowest shard id). A
//!   cross-group path is reassembled as
//!
//!   ```text
//!   rtt(a, b) = offset[a]                       // peer  → shard hub
//!             + super_offset[shard(a)]          // hub   → super-hub
//!             + super_rtt[group(a)][group(b)]   // super → super
//!             + super_offset[shard(b)]          // super-hub → hub
//!             + offset[b]                       // shard hub → peer
//!   ```
//!
//!   summed in `u64` microseconds from the stored whole-µs `f32`
//!   components, so sums are deterministic and (for the < 2²⁴ µs
//!   latencies of every generated world) free of float re-rounding.
//!   With `G = √S` the summary is `O(S^1.5)` entries instead of `S²`.
//!
//! * **Lazily materialised, budget-bounded blocks.** Intra-shard RTTs
//!   read a dense per-shard block, but blocks are built on first
//!   touch from the retained generator closure and cached under a byte
//!   budget with least-recently-stamped eviction — peak RSS is
//!   `summaries + O(n) + min(budget, Σ mₛ²·4)` instead of `Σ mₛ²·4`.
//!   A block is a **pure function** of the world (serial
//!   upper-triangle fill, mirrored), so evicting and rebuilding one
//!   returns bit-identical bytes: cache pressure, thread scheduling
//!   and cold-vs-warm caches can change *when* a block exists, never
//!   *what it contains*.
//!
//! # Exact vs approximate
//!
//! * **One shard** — the world is one dense block; every query is
//!   bit-identical to [`crate::LatencyMatrix`].
//! * **Intra-shard queries** — always exact, any shard count: they
//!   read the dense block.
//! * **One super-shard** — the group's hub matrix holds the whole
//!   `S×S` summary, so every inter-shard path is the one-level sum
//!   above. On hub-and-spoke worlds (`ClusterWorld::to_hierarchical`
//!   with one super-shard) that sum *is* the generator's inter-cluster
//!   rule, so the store is exact everywhere — bit-identical to the
//!   dense matrix, property-tested in `tests/world_equivalence.rs`.
//! * **Cross-group queries** (more than one super-shard) detour
//!   through the two super-hub shards: in a metric hub space the
//!   estimate overestimates by at most
//!   `2·(H(s(a), σ(a)) + H(s(b), σ(b)))` — two triangle detours
//!   (`H` = hub distance, `σ` = the endpoint's super-hub shard). On
//!   §4 generated worlds the level-1 summary is the generator's own
//!   rule, so this is the *only* approximation the store makes.

use crate::matrix::PeerId;
use crate::world::WorldStore;
use np_util::Micros;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Telemetry counters for the block cache. Scheduling-dependent (two
/// racing threads may both materialise a block), so these are for
/// capacity planning and the microbenches — never for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_blocks: usize,
    pub resident_bytes: usize,
}

/// The budget-bounded lazy block store. Slots are per-shard
/// `RwLock<Option<Arc<block>>>`; recency stamps are racy atomics
/// (eviction *policy* may depend on timing — block *contents* never
/// do), and resident-byte accounting plus eviction run under one
/// mutex. Lock order is always mutex → slot, so readers (who drop the
/// slot guard before ever touching the mutex) cannot deadlock against
/// an evictor.
struct BlockCache {
    slots: Vec<RwLock<Option<Arc<Vec<f32>>>>>,
    /// Per-slot last-touch stamp (monotone clock ticks).
    stamps: Vec<AtomicU64>,
    clock: AtomicU64,
    /// Bytes of each shard's block when resident (`mₛ²·4`).
    block_bytes: Vec<usize>,
    budget_bytes: usize,
    resident: Mutex<(usize, usize)>, // (bytes, blocks)
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCache {
    fn new(block_bytes: Vec<usize>, budget_bytes: usize) -> BlockCache {
        let s = block_bytes.len();
        BlockCache {
            slots: (0..s).map(|_| RwLock::new(None)).collect(),
            stamps: (0..s).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
            block_bytes,
            budget_bytes,
            resident: Mutex::new((0, 0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn touch(&self, s: usize) {
        let t = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.stamps[s].store(t, Ordering::Relaxed);
    }

    /// The resident block, if any (drops the slot guard before
    /// returning — see the lock-order note on the struct).
    fn get(&self, s: usize) -> Option<Arc<Vec<f32>>> {
        let found = self.slots[s].read().expect("cache slot poisoned").clone();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(s);
        }
        found
    }

    /// Admit a freshly materialised block (always — a block larger than
    /// the whole budget still serves, alone) and evict
    /// least-recently-stamped residents until back under budget. If a
    /// racing thread admitted the same shard first, its copy wins (the
    /// bytes are identical by construction).
    fn insert(&self, s: usize, data: Arc<Vec<f32>>) -> Arc<Vec<f32>> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut resident = self.resident.lock().expect("cache accounting poisoned");
        {
            let mut slot = self.slots[s].write().expect("cache slot poisoned");
            if let Some(existing) = slot.as_ref() {
                return existing.clone();
            }
            *slot = Some(data.clone());
        }
        resident.0 += self.block_bytes[s];
        resident.1 += 1;
        self.touch(s);
        while resident.0 > self.budget_bytes && resident.1 > 1 {
            let victim = (0..self.slots.len())
                .filter(|&v| v != s)
                .filter(|&v| self.slots[v].read().expect("cache slot poisoned").is_some())
                .min_by_key(|&v| self.stamps[v].load(Ordering::Relaxed));
            let Some(v) = victim else { break };
            *self.slots[v].write().expect("cache slot poisoned") = None;
            resident.0 -= self.block_bytes[v];
            resident.1 -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        data
    }

    fn stats(&self) -> CacheStats {
        let resident = self.resident.lock().expect("cache accounting poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: resident.0,
            resident_blocks: resident.1,
        }
    }
}

/// The compressed latency world. See the module docs for the model and
/// the exactness ledger.
pub struct HierarchicalWorld {
    n: usize,
    /// Shard → members, ascending id.
    members: Vec<Vec<PeerId>>,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    /// Peer → shard-hub latency, µs-as-f32 (level 1).
    offset: Vec<f32>,
    /// Shard → super-shard (group) index.
    super_of: Vec<u32>,
    /// Shard → row index within its group's hub matrix.
    local_shard: Vec<u32>,
    /// Group → dense `gᵢ×gᵢ` intra-group hub matrix, µs-as-f32.
    intra_hub: Vec<Vec<f32>>,
    /// Group → `gᵢ`, the side of its hub matrix (its shard count).
    group_side: Vec<usize>,
    /// Shard → hub distance to its group's super-hub shard, µs-as-f32
    /// (zero for the super-hub itself).
    super_offset: Vec<f32>,
    /// Group → its super-hub shard id.
    super_hub_shard: Vec<u32>,
    /// `G×G` super-hub-to-super-hub matrix, µs-as-f32.
    super_rtt: Vec<f32>,
    /// The retained pairwise generator — blocks are re-derived from it
    /// on every (re)materialisation.
    rtt_fn: Box<dyn Fn(PeerId, PeerId) -> Micros + Send + Sync>,
    cache: BlockCache,
}

impl std::fmt::Debug for HierarchicalWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalWorld")
            .field("n", &self.n)
            .field("shards", &self.members.len())
            .field("super_shards", &self.intra_hub.len())
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
    }
}

impl HierarchicalWorld {
    /// Build from a shard assignment, the level-1 hub summary (as a
    /// function — it is *not* stored densely), and an exact pairwise
    /// latency function retained for lazy block fills.
    ///
    /// `shard_of[p]` is peer `p`'s shard; ids must cover `0..S` and lie
    /// below the peer count (an id at or past it cannot name a
    /// non-empty shard, and would size the shard tables by the id).
    /// `super_shards` is clamped to `[1, S]`; shards are grouped into
    /// that many contiguous, balanced runs (shard id order), so the
    /// grouping is a pure function of `(S, super_shards)`.
    /// `hub_rtt_us(a, b)` is the level-1 hub distance in whole µs
    /// (symmetric, zero diagonal) — consulted once per intra-group
    /// pair, per group-medoid scan, and per super-hub pair at build
    /// time, never at query time. `cache_budget_bytes` bounds the
    /// resident block bytes (at least one block is always resident).
    pub fn build_lazy(
        shard_of: &[u32],
        super_shards: usize,
        offset: Vec<f32>,
        hub_rtt_us: impl Fn(usize, usize) -> u64,
        cache_budget_bytes: usize,
        rtt: impl Fn(PeerId, PeerId) -> Micros + Send + Sync + 'static,
    ) -> HierarchicalWorld {
        let n = shard_of.len();
        assert_eq!(offset.len(), n, "one hub offset per peer");
        assert!(
            shard_of.iter().all(|&s| (s as usize) < n),
            "shard ids must lie below the peer count"
        );
        let n_shards = shard_of.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let mut members: Vec<Vec<PeerId>> = vec![Vec::new(); n_shards];
        let mut local_of = vec![0u32; n];
        for i in 0..n {
            let s = shard_of[i] as usize;
            local_of[i] = members[s].len() as u32;
            members[s].push(PeerId(i as u32));
        }

        // Contiguous balanced grouping: the first `S % G` groups get
        // one extra shard. Pure in (S, G) — no RNG, no data dependence
        // — so the same spec always yields the same hierarchy.
        let g = super_shards.clamp(1, n_shards);
        let (base, extra) = (n_shards / g, n_shards % g);
        let mut super_of = vec![0u32; n_shards];
        let mut local_shard = vec![0u32; n_shards];
        let mut group_shards: Vec<Vec<usize>> = Vec::with_capacity(g);
        let mut next = 0usize;
        for group in 0..g {
            let size = base + usize::from(group < extra);
            let run: Vec<usize> = (next..next + size).collect();
            for (i, &s) in run.iter().enumerate() {
                super_of[s] = group as u32;
                local_shard[s] = i as u32;
            }
            next += size;
            group_shards.push(run);
        }

        // Per-group dense hub matrices and super-hub election (the
        // hub-level medoid, ties by lowest shard id).
        let mut intra_hub: Vec<Vec<f32>> = Vec::with_capacity(g);
        let group_side: Vec<usize> = group_shards.iter().map(Vec::len).collect();
        let mut super_hub_shard = vec![0u32; g];
        let mut super_offset = vec![0.0f32; n_shards];
        for (group, run) in group_shards.iter().enumerate() {
            let gs = run.len();
            let mut hub = vec![0.0f32; gs * gs];
            for i in 0..gs {
                for j in (i + 1)..gs {
                    let v = hub_rtt_us(run[i], run[j]) as f32;
                    hub[i * gs + j] = v;
                    hub[j * gs + i] = v;
                }
            }
            let medoid = run
                .iter()
                .copied()
                .min_by_key(|&c| {
                    let total: u64 = run.iter().map(|&t| hub_rtt_us(c, t)).sum();
                    (total, c)
                })
                .unwrap_or(0);
            super_hub_shard[group] = medoid as u32;
            for &s in run {
                super_offset[s] = hub_rtt_us(s, medoid) as f32;
            }
            intra_hub.push(hub);
        }
        let mut super_rtt = vec![0.0f32; g * g];
        for a in 0..g {
            for b in (a + 1)..g {
                let v =
                    hub_rtt_us(super_hub_shard[a] as usize, super_hub_shard[b] as usize) as f32;
                super_rtt[a * g + b] = v;
                super_rtt[b * g + a] = v;
            }
        }

        let block_bytes: Vec<usize> = members.iter().map(|m| m.len() * m.len() * 4).collect();
        HierarchicalWorld {
            n,
            members,
            shard_of: shard_of.to_vec(),
            local_of,
            offset,
            super_of,
            local_shard,
            intra_hub,
            group_side,
            super_offset,
            super_hub_shard,
            super_rtt,
            rtt_fn: Box::new(rtt),
            cache: BlockCache::new(block_bytes, cache_budget_bytes),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.members.len()
    }

    /// Number of super-shards (groups).
    pub fn n_super_shards(&self) -> usize {
        self.intra_hub.len()
    }

    /// Size of the largest shard block.
    pub fn max_shard_len(&self) -> usize {
        self.members.iter().map(|m| m.len()).max().unwrap_or(0)
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.n as u32).map(PeerId)
    }

    /// Block-cache telemetry (hits/misses/evictions/residency).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Total bytes of all blocks if every one were resident at once —
    /// what the cache budget is bounding.
    pub fn total_block_bytes(&self) -> usize {
        self.cache.block_bytes.iter().sum()
    }

    /// The resident (or freshly materialised) block of one shard.
    fn block(&self, s: usize) -> Arc<Vec<f32>> {
        if let Some(b) = self.cache.get(s) {
            return b;
        }
        // Materialise OUTSIDE any lock: racing threads may both build
        // the block, but the serial upper-triangle fill is a pure
        // function of the world, so both copies are bit-identical and
        // either may serve.
        let data = Arc::new(self.materialise(s));
        self.cache.insert(s, data)
    }

    /// Serial upper-triangle fill + mirror — the same values
    /// [`crate::LatencyMatrix::build_par`] stores for these pairs,
    /// computed on demand.
    fn materialise(&self, s: usize) -> Vec<f32> {
        let ms = &self.members[s];
        let m = ms.len();
        let mut data = vec![0.0f32; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let v = (self.rtt_fn)(ms[i], ms[j]).as_us() as f32;
                data[i * m + j] = v;
                data[j * m + i] = v;
            }
        }
        data
    }

    /// Check summary symmetry/zero-diagonal/finiteness and grouping
    /// sanity; used by tests and debug builds. Does not materialise
    /// blocks.
    pub fn validate(&self) -> Result<(), String> {
        for (g, hub) in self.intra_hub.iter().enumerate() {
            let gs = self.group_side[g];
            if gs * gs != hub.len() {
                return Err(format!("group {g}: non-square hub matrix"));
            }
            for i in 0..gs {
                if hub[i * gs + i] != 0.0 {
                    return Err(format!("group {g}: non-zero hub diagonal at {i}"));
                }
                for j in (i + 1)..gs {
                    let (a, b) = (hub[i * gs + j], hub[j * gs + i]);
                    if a != b {
                        return Err(format!("group {g}: hub asymmetry at ({i},{j})"));
                    }
                    if a < 0.0 || !a.is_finite() {
                        return Err(format!("group {g}: invalid hub latency at ({i},{j}): {a}"));
                    }
                }
            }
        }
        let g = self.intra_hub.len();
        for a in 0..g {
            if self.super_rtt[a * g + a] != 0.0 {
                return Err(format!("non-zero super diagonal at {a}"));
            }
            for b in (a + 1)..g {
                if self.super_rtt[a * g + b] != self.super_rtt[b * g + a] {
                    return Err(format!("super asymmetry at ({a},{b})"));
                }
            }
        }
        for (group, &hub_shard) in self.super_hub_shard.iter().enumerate() {
            if self.super_of[hub_shard as usize] as usize != group {
                return Err(format!("group {group}: super-hub shard outside the group"));
            }
            if self.super_offset[hub_shard as usize] != 0.0 {
                return Err(format!("group {group}: super-hub shard has non-zero offset"));
            }
        }
        if let Some(bad) = self.offset.iter().find(|o| !o.is_finite() || **o < 0.0) {
            return Err(format!("invalid hub offset {bad}"));
        }
        Ok(())
    }
}

/// The shard structure, as [`crate::NearestIndex`] reads it through
/// [`WorldStore::shard_view`]. Every inter-shard pair satisfies
///
/// ```text
/// rtt(a, b) == hub_offset_us(a) + hub_rtt_us(shard_of(a), shard_of(b)) + hub_offset_us(b)
/// ```
///
/// **exactly**, as the `u64` microsecond sum [`WorldStore::rtt`]
/// computes, so an RTT reassembled from the summary is bit-identical,
/// not approximate. For shards in different super-shards the hub
/// distance itself is the level-2 sum
/// `super_offset_us(a) + super_rtt_us(super_of(a), super_of(b)) + super_offset_us(b)`.
impl HierarchicalWorld {
    /// The shard a peer belongs to.
    pub fn shard_of(&self, p: PeerId) -> usize {
        self.shard_of[p.idx()] as usize
    }

    /// Members of one shard, ascending id.
    pub fn shard_members(&self, shard: usize) -> &[PeerId] {
        &self.members[shard]
    }

    /// Peer → its shard hub latency in whole µs (the stored component,
    /// truncated exactly as [`WorldStore::rtt`] sums it).
    #[inline]
    pub fn hub_offset_us(&self, p: PeerId) -> u64 {
        self.offset[p.idx()] as u64
    }

    /// The *composed* hub distance in whole µs (zero on the diagonal):
    /// intra-group pairs read the group's dense hub matrix; cross-group
    /// pairs reassemble the super-hub detour in `u64` µs. Composing
    /// here keeps `rtt = offset + hub_rtt_us + offset` true for every
    /// inter-shard pair, so level-1 readers of the summary never need
    /// to know a second level exists.
    #[inline]
    pub fn hub_rtt_us(&self, a: usize, b: usize) -> u64 {
        let (ga, gb) = (self.super_of[a] as usize, self.super_of[b] as usize);
        if ga == gb {
            let (hub, gs) = (&self.intra_hub[ga], self.group_side[ga]);
            hub[self.local_shard[a] as usize * gs + self.local_shard[b] as usize] as u64
        } else {
            self.super_offset[a] as u64
                + self.super_rtt[ga * self.intra_hub.len() + gb] as u64
                + self.super_offset[b] as u64
        }
    }

    /// The super-shard a shard belongs to.
    pub fn super_of(&self, shard: usize) -> usize {
        self.super_of[shard] as usize
    }

    /// Shard hub → its super-hub latency in whole µs (the stored
    /// level-2 component; zero for the super-hub shard itself).
    #[inline]
    pub fn super_offset_us(&self, shard: usize) -> u64 {
        self.super_offset[shard] as u64
    }

    /// Super-hub-to-super-hub latency in whole µs (zero diagonal).
    #[inline]
    pub fn super_rtt_us(&self, a: usize, b: usize) -> u64 {
        self.super_rtt[a * self.intra_hub.len() + b] as u64
    }
}

impl WorldStore for HierarchicalWorld {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        if a == b {
            return Micros::ZERO;
        }
        let (sa, sb) = (self.shard_of[a.idx()] as usize, self.shard_of[b.idx()] as usize);
        if sa == sb {
            let blk = self.block(sa);
            let m = self.members[sa].len();
            Micros(blk[self.local_of[a.idx()] as usize * m + self.local_of[b.idx()] as usize] as u64)
        } else {
            Micros(
                self.offset[a.idx()] as u64
                    + self.hub_rtt_us(sa, sb)
                    + self.offset[b.idx()] as u64,
            )
        }
    }

    /// Structural footprint: summaries + index arrays + the block
    /// cache at its budget ceiling (or all blocks, if they fit). A
    /// *fixed* function of the world — deliberately not the live
    /// resident-byte count, which depends on scheduling, so that
    /// capacity telemetry stays bit-identical across runs and thread
    /// counts.
    fn approx_bytes(&self) -> usize {
        let summaries: usize = self.intra_hub.iter().map(|h| h.len() * 4).sum::<usize>()
            + self.super_rtt.len() * 4
            + (self.super_of.len() + self.local_shard.len() + self.super_offset.len()
                + self.super_hub_shard.len())
                * 4;
        let indexes =
            (self.shard_of.len() + self.local_of.len() + self.offset.len()) * 4 + self.n * 4;
        summaries + indexes + self.total_block_bytes().min(self.cache.budget_bytes)
    }

    fn shard_view(&self) -> Option<&HierarchicalWorld> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyMatrix;

    /// A two-level synthetic hub world: shard = id / 4, offset
    /// `1 + id%4` ms, hub-to-hub `10·|sa−sb|` ms, intra-shard exact
    /// star paths. Mirrors the §4 construction without np-topology
    /// (which depends on this crate).
    fn star_rtt(a: PeerId, b: PeerId) -> Micros {
        if a == b {
            return Micros::ZERO;
        }
        let (sa, sb) = (a.0 / 4, b.0 / 4);
        let off = |p: PeerId| Micros::from_ms_u64(1 + (p.0 % 4) as u64);
        if sa == sb {
            off(a) + off(b)
        } else {
            off(a) + Micros::from_ms_u64(10 * (sa as i64 - sb as i64).unsigned_abs()) + off(b)
        }
    }

    fn star_hub_us(a: usize, b: usize) -> u64 {
        10_000 * (a as i64 - b as i64).unsigned_abs()
    }

    fn star_hier(n_shards: u32, super_shards: usize, budget: usize) -> HierarchicalWorld {
        let n = (n_shards * 4) as usize;
        let shard_of: Vec<u32> = (0..n as u32).map(|i| i / 4).collect();
        let offset: Vec<f32> = (0..n as u32).map(|i| (1_000 + 1_000 * (i % 4)) as f32).collect();
        HierarchicalWorld::build_lazy(&shard_of, super_shards, offset, star_hub_us, budget, star_rtt)
    }

    #[test]
    fn reassembles_the_generating_rule_exactly() {
        let w = star_hier(3, 1, usize::MAX);
        w.validate().expect("valid");
        assert_eq!(w.len(), 12);
        assert_eq!(w.n_shards(), 3);
        assert_eq!(w.n_super_shards(), 1);
        assert_eq!(w.max_shard_len(), 4);
        for a in w.peers() {
            for b in w.peers() {
                assert_eq!(w.rtt(a, b), star_rtt(a, b), "rtt({a},{b})");
            }
        }
        // Exact RTTs make every nearest answer the dense one too.
        let dense = LatencyMatrix::build(12, star_rtt);
        let members: Vec<PeerId> = w.peers().collect();
        for a in w.peers() {
            assert_eq!(
                w.nearest_within(a, &members),
                dense.nearest_within(a, &members)
            );
        }
    }

    #[test]
    fn single_shard_matches_dense_bitwise() {
        let n = 37;
        let dense = LatencyMatrix::build_par(n, 3, star_rtt);
        let single = HierarchicalWorld::build_lazy(
            &vec![0; n],
            1,
            vec![0.0; n],
            |_, _| 0,
            usize::MAX,
            star_rtt,
        );
        single.validate().expect("valid");
        assert_eq!(single.n_shards(), 1);
        let members: Vec<PeerId> = dense.peers().collect();
        for a in dense.peers() {
            for b in dense.peers() {
                assert_eq!(single.rtt(a, b), dense.rtt(a, b));
            }
            assert_eq!(
                single.nearest_within(a, &members),
                dense.nearest_within(a, &members)
            );
        }
    }

    #[test]
    fn memory_is_subquadratic() {
        let compressed = star_hier(16, 1, usize::MAX); // 64 peers in 16 shards
        let dense_bytes = 64 * 64 * 4;
        assert!(
            compressed.approx_bytes() < dense_bytes / 2,
            "compressed {} bytes vs dense {dense_bytes}",
            compressed.approx_bytes()
        );
    }

    #[test]
    fn empty_world_is_consistent() {
        let w = HierarchicalWorld::build_lazy(&[], 1, Vec::new(), |_, _| 0, usize::MAX, star_rtt);
        assert!(w.is_empty());
        assert_eq!(w.n_shards(), 1);
        assert_eq!(w.max_shard_len(), 0);
        w.validate().expect("valid");
    }

    #[test]
    fn shard_view_reassembles_rtt() {
        let w = star_hier(3, 1, usize::MAX);
        let view = w.shard_view().expect("the compressed store has shards");
        assert_eq!(view.n_shards(), 3);
        for p in w.peers() {
            assert_eq!(view.shard_of(p), (p.0 / 4) as usize);
        }
        assert_eq!(
            view.shard_members(1),
            &[PeerId(4), PeerId(5), PeerId(6), PeerId(7)]
        );
        // Inter-shard rtt must reassemble from the view's components
        // exactly as WorldStore::rtt sums them.
        for a in w.peers() {
            for b in w.peers() {
                let (sa, sb) = (view.shard_of(a), view.shard_of(b));
                if sa != sb {
                    let sum =
                        view.hub_offset_us(a) + view.hub_rtt_us(sa, sb) + view.hub_offset_us(b);
                    assert_eq!(Micros(sum), w.rtt(a, b), "view sum diverged for ({a},{b})");
                }
            }
        }
        // The dense matrix has no shard structure.
        let dense = LatencyMatrix::build(8, star_rtt);
        assert!(WorldStore::shard_view(&dense).is_none());
    }

    #[test]
    fn multi_group_is_exact_inside_groups_and_bounded_across() {
        // 6 shards in 2 groups of 3; cross-group pairs detour through
        // the two group medoids (the middle shards, 1 and 4).
        let hier = star_hier(6, 2, usize::MAX);
        hier.validate().expect("valid");
        assert_eq!(hier.n_super_shards(), 2);
        assert_eq!(hier.super_hub_shard, vec![1, 4]);
        for a in hier.peers() {
            for b in hier.peers() {
                let (sa, sb) = (hier.shard_of(a), hier.shard_of(b));
                let (ga, gb) = (hier.super_of(sa), hier.super_of(sb));
                if ga == gb {
                    assert_eq!(hier.rtt(a, b), star_rtt(a, b), "intra-group must be exact");
                } else {
                    // Detour bound, one level up: never an
                    // underestimate, off by at most the two endpoints'
                    // super-hub detours, doubled.
                    let bound = star_rtt(a, b).as_us()
                        + 2 * (hier.super_offset_us(sa) + hier.super_offset_us(sb));
                    assert!(hier.rtt(a, b) >= star_rtt(a, b), "underestimated {a}->{b}");
                    assert!(
                        hier.rtt(a, b).as_us() <= bound,
                        "error beyond the level-2 detour bound for {a}->{b}"
                    );
                    // And the level-2 sum the shard structure documents.
                    let sum = hier.super_offset_us(sa)
                        + hier.super_rtt_us(ga, gb)
                        + hier.super_offset_us(sb);
                    assert_eq!(hier.hub_rtt_us(sa, sb), sum);
                }
            }
        }
    }

    #[test]
    fn tiny_cache_budget_serves_identical_bytes_under_eviction() {
        // Budget of one 4-peer block (64 bytes): every shard switch
        // evicts, and the answers must not change by a bit.
        let unbounded = star_hier(6, 2, usize::MAX);
        let starved = star_hier(6, 2, 64);
        for a in starved.peers() {
            for b in starved.peers() {
                assert_eq!(starved.rtt(a, b), unbounded.rtt(a, b), "rtt({a},{b})");
            }
        }
        let stats = starved.cache_stats();
        assert!(stats.evictions > 0, "64-byte budget over 6 blocks must evict");
        assert!(stats.resident_bytes <= 64, "over budget: {stats:?}");
        assert_eq!(stats.resident_blocks, 1);
        // Re-query: the resident block serves hits.
        let before = starved.cache_stats().hits;
        let _ = starved.rtt(PeerId(0), PeerId(1));
        let _ = starved.rtt(PeerId(0), PeerId(2));
        assert!(starved.cache_stats().hits > before);
    }

    #[test]
    fn all_singleton_shards_match_the_generating_rule() {
        // One peer per shard: no blocks at all — every path runs
        // through the (here exact) two-level summary.
        let n = 12u32;
        let shard_of: Vec<u32> = (0..n).collect();
        let flat_rtt = |a: PeerId, b: PeerId| {
            Micros::from_ms_u64(10 * (a.0 as i64 - b.0 as i64).unsigned_abs())
        };
        let w = HierarchicalWorld::build_lazy(
            &shard_of,
            1,
            vec![0.0; n as usize],
            star_hub_us,
            usize::MAX,
            flat_rtt,
        );
        w.validate().expect("valid");
        assert_eq!(w.n_shards(), 12);
        assert_eq!(w.max_shard_len(), 1);
        for a in w.peers() {
            for b in w.peers() {
                assert_eq!(w.rtt(a, b), flat_rtt(a, b));
            }
        }
        assert_eq!(w.cache_stats().misses, 0, "singletons never materialise blocks");
    }

    #[test]
    fn grouping_is_balanced_and_contiguous() {
        let w = star_hier(7, 3, usize::MAX);
        // 7 shards in 3 groups: sizes 3, 2, 2, contiguous by shard id.
        assert_eq!(w.n_super_shards(), 3);
        let groups: Vec<usize> = (0..7).map(|s| w.super_of(s)).collect();
        assert_eq!(groups, vec![0, 0, 0, 1, 1, 2, 2]);
        // Clamping: more groups than shards degrades to singletons.
        let clamped = star_hier(3, 64, usize::MAX);
        assert_eq!(clamped.n_super_shards(), 3);
    }

    #[test]
    fn approx_bytes_is_fixed_and_budget_capped() {
        let a = star_hier(6, 2, 64);
        let b = star_hier(6, 2, 64);
        // Touch blocks on one copy only: telemetry must not move.
        let before = a.approx_bytes();
        for p in a.peers() {
            let _ = a.rtt(p, PeerId(0));
        }
        assert_eq!(a.approx_bytes(), before, "approx_bytes must ignore residency");
        assert_eq!(a.approx_bytes(), b.approx_bytes());
        // An unbounded twin reports the full block set instead.
        let unbounded = star_hier(6, 2, usize::MAX);
        assert!(unbounded.approx_bytes() > a.approx_bytes());
        assert_eq!(unbounded.total_block_bytes(), 6 * 64);
    }

    #[test]
    #[should_panic(expected = "below the peer count")]
    fn build_lazy_rejects_an_out_of_range_shard_id() {
        HierarchicalWorld::build_lazy(
            &[0, u32::MAX],
            1,
            vec![0.0, 0.0],
            |_, _| 0,
            usize::MAX,
            star_rtt,
        );
    }
}
