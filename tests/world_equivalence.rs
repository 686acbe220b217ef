//! The compressed backend's equivalence contract, property-tested.
//!
//! [`HierarchicalWorld`] earns its place by being *provably*
//! interchangeable with the dense matrix where it claims exactness:
//!
//! 1. **Shard count 1** is the dense matrix: one block, filled by the
//!    same recipe — every RTT, every `nearest_within`, and every
//!    `NearestCache` answer must be **bit-identical**.
//! 2. **Intra-cluster queries** on multi-shard worlds read dense
//!    blocks: they must match dense ground truth exactly, any shard
//!    count.
//! 3. On hub-and-spoke worlds at one super-shard
//!    (`ClusterWorld::to_hierarchical(1, …)`) the hub summary
//!    reassembles the generator's own rule, so even *inter*-cluster
//!    RTTs are exact — the paper-figure cross-checks in `ext_scale`
//!    rest on this.
//!
//! Collapse laws pinned below the property block:
//!
//! 4. **One super-shard** makes the store bit-identical to the dense
//!    matrix end to end — RTTs, `nearest_within`, `NearestCache`, and
//!    the Meridian rings filled over it against those filled over the
//!    dense matrix.
//! 5. **All-singleton shards** (every peer its own shard, zero
//!    offsets, the dense matrix as the hub summary) make it
//!    bit-identical to the dense matrix.
//! 6. **Cache temperature** is not a result at two levels: a block
//!    cache starved enough to evict mid-fill fills the same Meridian
//!    rings as one that keeps every block resident.
//!
//! The shard-grouped [`NearestIndex`] the truth cache and brute force
//! answer through earns its place the same way:
//!
//! 7. On every backend — dense, one super-shard, and multi-group
//!    hierarchical under a 0-MiB block budget — and for member sets
//!    that cover everyone, a stride, all but some whole shards, all but
//!    some whole super-shards, repeat members, one peer or no one,
//!    `NearestIndex::nearest` equals the trait's default scan for every
//!    target, members included. The tie-heavy star world (hub offsets
//!    of 1–4 ms) pins the lowest-id tie break.
//!
//! And the contract every probe now leans on:
//!
//! 8. Every store is symmetric with a zero diagonal: dense `build` and
//!    `build_par`, hierarchical at one and four super-shards (built
//!    from the generator, and at four from a skewed block generator)
//!    with their blocks materialised, and a `DriftedWorld` over it. A `Target`
//!    reads `rtt(target, prober)`, the target's row, and reports it as
//!    the prober's RTT to the target.
//!
//! Worlds are random ≤512-peer cluster worlds from the vendored
//! proptest harness; assertions are exact equality, never tolerances.

use nearest_peer::prelude::{BuildMode, MeridianConfig, Overlay};
use np_metric::{
    DriftedWorld, HierarchicalWorld, LatencyMatrix, NearestCache, NearestIndex, NearestPeerAlgo,
    PeerId, WorldStore,
};
use np_topology::{ClusterWorld, ClusterWorldSpec};
use np_util::rng::splitmix64;
use np_util::Micros;
use std::sync::Arc;

/// A random-shape world: `clusters × en_per_cluster × 2` peers, ≤512.
fn world(clusters: usize, en_per_cluster: usize, delta_pct: u64, seed: u64) -> ClusterWorld {
    ClusterWorld::generate(
        ClusterWorldSpec {
            clusters,
            en_per_cluster,
            peers_per_en: 2,
            delta: delta_pct as f64 / 100.0,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: clusters.max(2),
        },
        seed,
        2,
    )
}

proptest::proptest! {
    /// Property 1: a shard-count-1 store is bit-identical to the dense
    /// matrix — RTTs, `nearest_within` over arbitrary member subsets,
    /// and the `NearestCache` built on top.
    #[test]
    fn single_shard_is_bit_identical_to_dense(
        seed in 0u64..1_000,
        clusters in 1usize..=6,
        en in 1usize..=8,
        delta_pct in 0u64..=100,
    ) {
        let w = world(clusters, en, delta_pct, seed);
        let n = w.len();
        proptest::prop_assert!(n <= 512);
        let dense = w.to_matrix(1);
        let gen = w.clone();
        let single = HierarchicalWorld::build_lazy(
            &vec![0; n],
            1,
            vec![0.0; n],
            |_, _| 0,
            usize::MAX,
            move |a, b| gen.rtt(a, b),
        );
        proptest::prop_assert_eq!(single.n_shards(), 1);
        for a in dense.peers() {
            for b in dense.peers() {
                proptest::prop_assert_eq!(
                    WorldStore::rtt(&single, a, b),
                    dense.rtt(a, b),
                    "rtt({},{}) diverged", a, b
                );
            }
        }
        // Member subsets of three shapes: everyone, a strided sample,
        // and a tiny tail — covering full rows, gathers, and the
        // near-empty edge.
        let all: Vec<PeerId> = dense.peers().collect();
        let strided: Vec<PeerId> = dense.peers().step_by(3).collect();
        let tail: Vec<PeerId> = dense.peers().skip(n.saturating_sub(2)).collect();
        for members in [&all, &strided, &tail] {
            for t in dense.peers() {
                proptest::prop_assert_eq!(
                    single.nearest_within(t, members),
                    dense.nearest_within(t, members),
                    "nearest_within({}) diverged on {} members", t, members.len()
                );
            }
        }
        // NearestCache equality over a held-out-style split.
        let split = n - (n / 4).max(1);
        let (overlay, targets) = all.split_at(split);
        let cd = NearestCache::build(&dense, overlay, targets, 2);
        let cs = NearestCache::build(&single, overlay, targets, 2);
        for &t in targets {
            proptest::prop_assert_eq!(cd.nearest(t), cs.nearest(t));
        }
    }

    /// Property 2: on multi-shard worlds, intra-cluster queries (all
    /// members in the target's cluster) always match dense ground
    /// truth — they read the same dense block bytes.
    #[test]
    fn multi_shard_intra_cluster_queries_match_dense(
        seed in 0u64..1_000,
        clusters in 2usize..=6,
        en in 2usize..=8,
        delta_pct in 0u64..=100,
    ) {
        let w = world(clusters, en, delta_pct, seed);
        let dense = w.to_matrix(1);
        let one = w.to_hierarchical(1, usize::MAX);
        proptest::prop_assert_eq!(one.n_shards(), clusters);
        for t in dense.peers() {
            let cluster_members: Vec<PeerId> = dense
                .peers()
                .filter(|&p| w.same_cluster(p, t))
                .collect();
            proptest::prop_assert_eq!(
                one.nearest_within(t, &cluster_members),
                dense.nearest_within(t, &cluster_members),
                "intra-cluster nearest({}) diverged", t
            );
            // Intra-cluster RTTs are exact, peer by peer.
            for &m in &cluster_members {
                proptest::prop_assert_eq!(
                    one.rtt(t, m),
                    dense.rtt(t, m),
                    "intra-cluster rtt({},{}) diverged", t, m
                );
            }
        }
    }

    /// Property 3: `ClusterWorld::to_hierarchical(1, …)` is exact
    /// *everywhere* on hub-and-spoke worlds — the hub summary is the
    /// generator's own inter-cluster rule, so full-membership ground
    /// truth (what the paper-figure scenarios use) is bit-identical too.
    #[test]
    fn cluster_world_hub_summary_is_exact(
        seed in 0u64..1_000,
        clusters in 2usize..=5,
        en in 1usize..=6,
    ) {
        let w = world(clusters, en, 20, seed);
        let dense = w.to_matrix(1);
        let one = w.to_hierarchical(1, usize::MAX);
        for a in dense.peers() {
            for b in dense.peers() {
                proptest::prop_assert_eq!(
                    one.rtt(a, b),
                    dense.rtt(a, b),
                    "rtt({},{}) diverged", a, b
                );
            }
        }
        let all: Vec<PeerId> = dense.peers().collect();
        for t in dense.peers() {
            proptest::prop_assert_eq!(
                one.nearest_within(t, &all),
                dense.nearest_within(t, &all)
            );
        }
    }
}

/// Ring-for-ring, member-for-member equality of two overlays over
/// possibly different store types.
fn assert_identical_rings<W: WorldStore + ?Sized, V: WorldStore + ?Sized>(
    a: &Overlay<'_, W>,
    b: &Overlay<'_, V>,
) {
    assert_eq!(a.members(), b.members());
    assert_eq!(a.total_ring_entries(), b.total_ring_entries());
    for &p in a.members() {
        let ra: Vec<(PeerId, Micros)> = a.rings_of(p).primaries().map(|m| (m.peer, m.rtt)).collect();
        let rb: Vec<(PeerId, Micros)> = b.rings_of(p).primaries().map(|m| (m.peer, m.rtt)).collect();
        assert_eq!(ra, rb, "rings of {p} diverged");
    }
}

/// Collapse law 4: one super-shard makes the hierarchical store
/// bit-identical to the dense matrix on cluster worlds — every RTT,
/// every `nearest_within` over arbitrary member subsets, every
/// `NearestCache` answer, and the Meridian rings filled over each.
#[test]
fn one_super_shard_collapses_to_the_dense_matrix() {
    for seed in [3u64, 41] {
        let w = world(5, 6, 20, seed); // 60 peers, 5 shards
        let n = w.len();
        let dense = w.to_matrix(2);
        let hier = w.to_hierarchical(1, 1 << 20);
        hier.validate().expect("valid hierarchical store");
        assert_eq!(hier.n_super_shards(), 1);
        assert_eq!(hier.n_shards(), 5);
        for a in (0..n as u32).map(PeerId) {
            for b in (0..n as u32).map(PeerId) {
                assert_eq!(
                    WorldStore::rtt(&hier, a, b),
                    dense.rtt(a, b),
                    "rtt({a},{b}) diverged at seed {seed}"
                );
            }
        }
        let all: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
        let strided: Vec<PeerId> = all.iter().copied().step_by(3).collect();
        let tail: Vec<PeerId> = all[n - 2..].to_vec();
        for members in [&all, &strided, &tail] {
            for &t in &all {
                assert_eq!(
                    hier.nearest_within(t, members),
                    dense.nearest_within(t, members),
                    "nearest_within({t}) diverged on {} members",
                    members.len()
                );
            }
        }
        let split = n - n / 4;
        let (overlay, targets) = all.split_at(split);
        let cd = NearestCache::build(&dense, overlay, targets, 2);
        let ch = NearestCache::build(&hier, overlay, targets, 2);
        for &t in targets {
            assert_eq!(cd.nearest(t), ch.nearest(t), "cache diverged for {t}");
        }
        let od = Overlay::build(
            &dense,
            overlay.to_vec(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            seed,
            2,
        );
        let oh = Overlay::build(
            &hier,
            overlay.to_vec(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            seed,
            2,
        );
        assert_identical_rings(&od, &oh);
    }
}

/// Collapse law 5: every peer its own shard, zero hub offsets, and the
/// dense matrix itself as the hub summary make the hierarchical store
/// bit-identical to the dense matrix — the lazy blocks degenerate to
/// 1×1 diagonals and every cross-shard path *is* the dense entry.
#[test]
fn all_singleton_shards_collapse_to_the_dense_matrix() {
    let w = world(3, 6, 30, 7); // 36 peers
    let n = w.len();
    let dense = Arc::new(w.to_matrix(1));
    let shard_of: Vec<u32> = (0..n as u32).collect();
    let hub = Arc::clone(&dense);
    let fill = Arc::clone(&dense);
    let hier = HierarchicalWorld::build_lazy(
        &shard_of,
        1,
        vec![0.0; n],
        move |a, b| hub.rtt(PeerId(a as u32), PeerId(b as u32)).as_us(),
        1 << 16,
        move |a, b| fill.rtt(a, b),
    );
    hier.validate().expect("valid hierarchical store");
    assert_eq!(hier.n_shards(), n);
    let all: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
    for &a in &all {
        for &b in &all {
            assert_eq!(
                WorldStore::rtt(&hier, a, b),
                dense.rtt(a, b),
                "rtt({a},{b}) diverged"
            );
        }
    }
    let strided: Vec<PeerId> = all.iter().copied().step_by(5).collect();
    for members in [&all, &strided] {
        for &t in &all {
            assert_eq!(
                hier.nearest_within(t, members),
                dense.nearest_within(t, members),
                "nearest_within({t}) diverged on {} members",
                members.len()
            );
        }
    }
}

/// Collapse law 6: over a two-level store, a block cache starved
/// enough that blocks evict and re-materialise mid-fill fills the same
/// Meridian rings as one that keeps every block resident.
#[test]
fn starved_block_cache_fills_the_same_rings_at_two_levels() {
    let w = world(6, 4, 20, 11); // 48 peers, 6 shards of 256-byte blocks
    let starved = w.to_hierarchical(3, 1); // one resident block at a time
    let resident = w.to_hierarchical(3, usize::MAX);
    assert_eq!(starved.n_super_shards(), 3);
    let members: Vec<PeerId> = (0..w.len() as u32)
        .filter(|i| i % 7 != 0)
        .map(PeerId)
        .collect();
    fn fill<'m>(
        store: &'m HierarchicalWorld,
        members: &[PeerId],
    ) -> Overlay<'m, HierarchicalWorld> {
        let cfg = MeridianConfig::default();
        Overlay::build(store, members.to_vec(), cfg, BuildMode::Omniscient, 13, 2)
    }
    let (cold, warm) = (fill(&starved, &members), fill(&resident, &members));
    assert!(
        starved.cache_stats().evictions > 0,
        "the starved cache must evict"
    );
    assert_eq!(resident.cache_stats().evictions, 0);
    assert_identical_rings(&cold, &warm);
}

/// Forwards `len`, `rtt` and `approx_bytes` only, so its
/// `nearest_within` is the trait's untouched default scan: the
/// reference every `NearestIndex` answer is held to.
struct DefaultScan<'a>(&'a dyn WorldStore);

impl WorldStore for DefaultScan<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        self.0.rtt(a, b)
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
}

/// Member sets of every shape the index groups by, drawn through a
/// two-level `view` over the same peer ids: everyone, a stride, all
/// but every third shard, all but super-shard 1 (and all but every
/// other super-shard), the stride listed twice, one peer, and no one.
fn member_sets(view: &HierarchicalWorld) -> Vec<Vec<PeerId>> {
    let all: Vec<PeerId> = (0..view.len() as u32).map(PeerId).collect();
    let keep = |f: &dyn Fn(usize, usize) -> bool| -> Vec<PeerId> {
        all.iter()
            .copied()
            .filter(|&p| {
                let s = view.shard_of(p);
                f(s, view.super_of(s))
            })
            .collect()
    };
    let strided: Vec<PeerId> = all.iter().copied().step_by(3).collect();
    let repeated: Vec<PeerId> = strided.iter().chain(&strided).copied().collect();
    vec![
        keep(&|s, _| s % 3 != 1),
        keep(&|_, g| g != 1),
        keep(&|_, g| g % 2 == 0),
        strided,
        repeated,
        all,
        vec![PeerId(0)],
        Vec::new(),
    ]
}

/// `NearestIndex::nearest` against the default scan, for every peer of
/// `store` as the target (so every set that holds a target is tried
/// with it), over each member set.
fn assert_index_is_the_default_scan(
    label: &str,
    store: &dyn WorldStore,
    sets: &[Vec<PeerId>],
) -> Result<(), proptest::TestCaseError> {
    let reference = DefaultScan(store);
    for members in sets {
        let index = NearestIndex::build(store, members.clone());
        for t in (0..store.len() as u32).map(PeerId) {
            proptest::prop_assert_eq!(
                index.nearest(t),
                reference.nearest_within(t, members),
                "{}: nearest({}) diverged on {} members",
                label,
                t,
                members.len()
            );
        }
    }
    Ok(())
}

proptest::proptest! {
    /// Property 7: the index equals the default scan on both backends
    /// of one random world, the compressed one at one and at several
    /// super-shards.
    #[test]
    fn nearest_index_is_the_default_scan_on_every_backend(
        seed in 0u64..1_000,
        clusters in 2usize..=8,
        en in 1usize..=6,
        delta_pct in 0u64..=100,
    ) {
        let w = world(clusters, en, delta_pct, seed);
        let super_shards = 2 + (seed % 3) as usize;
        let dense = w.to_matrix(1);
        let one = w.to_hierarchical(1, 0);
        let hier = w.to_hierarchical(super_shards, 0);
        proptest::prop_assert!(hier.n_super_shards() >= 2);
        let sets = member_sets(&hier);
        assert_index_is_the_default_scan("dense", &dense, &sets)?;
        assert_index_is_the_default_scan("one super-shard", &one, &sets)?;
        assert_index_is_the_default_scan("hierarchical", &hier, &sets)?;
    }
}

/// Every pair read both ways, and every diagonal cell, on one store.
fn assert_symmetric(label: &str, store: &dyn WorldStore) -> Result<(), proptest::TestCaseError> {
    let n = store.len() as u32;
    for a in (0..n).map(PeerId) {
        let diagonal = store.rtt(a, a);
        proptest::prop_assert_eq!(diagonal, Micros::ZERO, "{}: rtt({}, {})", label, a, a);
        for b in (a.0 + 1..n).map(PeerId) {
            proptest::prop_assert_eq!(
                store.rtt(a, b),
                store.rtt(b, a),
                "{}: rtt({}, {}) differs from rtt({}, {})",
                label,
                a,
                b,
                b,
                a
            );
        }
    }
    Ok(())
}

proptest::proptest! {
    /// Property 8: `rtt(a, b) == rtt(b, a)` with a zero diagonal on
    /// every store. The dense constructors and one hierarchical
    /// store's blocks get a skewed generator, so the test holds them to
    /// their mirroring, not to the generator's own symmetry.
    #[test]
    fn every_store_is_symmetric_with_a_zero_diagonal(
        seed in 0u64..1_000,
        clusters in 4usize..=9,
        en in 1usize..=6,
        delta_pct in 0u64..=100,
    ) {
        let w = world(clusters, en, delta_pct, seed);
        let n = w.len();
        let skewed = |a: PeerId, b: PeerId| w.rtt(a, b) + Micros::from_us(u64::from(a.0));
        let serial = LatencyMatrix::build(n, skewed);
        let par = LatencyMatrix::build_par(n, 2, skewed);
        proptest::prop_assert!(serial.validate().is_ok());
        let one = w.to_hierarchical(1, usize::MAX);
        let four = w.to_hierarchical(4, usize::MAX);
        proptest::prop_assert_eq!(four.n_super_shards(), 4);
        let clusters_of: Vec<u32> = w.peers().map(|p| w.cluster_of(p) as u32).collect();
        let gen = w.clone();
        let skewed_blocks = HierarchicalWorld::build_lazy(
            &clusters_of,
            4,
            vec![0.0; n],
            |a, b| 1_000 * a.abs_diff(b) as u64,
            usize::MAX,
            move |a, b| gen.rtt(a, b) + Micros::from_us(u64::from(a.0)),
        );
        proptest::prop_assert_eq!(skewed_blocks.n_super_shards(), 4);
        let offsets: Vec<u64> = (0..n as u64).map(|i| splitmix64(seed ^ i) % 5_000).collect();
        let drifted = DriftedWorld::new(&four, &offsets);
        assert_symmetric("dense build", &serial)?;
        assert_symmetric("dense build_par", &par)?;
        assert_symmetric("hierarchical, one super-shard", &one)?;
        assert_symmetric("hierarchical, four super-shards", &four)?;
        assert_symmetric("hierarchical, skewed blocks, four super-shards", &skewed_blocks)?;
        assert_symmetric("drifted", &drifted)?;
        proptest::prop_assert_eq!(four.cache_stats().resident_blocks, four.n_shards());
    }
}

/// The hierarchical unit tests' star world: shard = id / 4, hub offset
/// `1 + id % 4` ms, hub-to-hub `10·|sa − sb|` ms, and intra-shard
/// paths `off(a) + intra_ms + off(b)`. Equal offsets in every shard and
/// evenly spaced hubs make distance ties the rule; `intra_ms = 10`
/// also ties a target's own shard-mates with the lower ids of the
/// shard before it, so the lowest-id rule, not scan order, decides.
fn star_rtt(intra_ms: u64) -> impl Fn(PeerId, PeerId) -> Micros + Copy + Send + Sync + 'static {
    move |a: PeerId, b: PeerId| {
        if a == b {
            return Micros::ZERO;
        }
        let off = |p: PeerId| 1_000 * (1 + u64::from(p.0 % 4));
        let hub_ms = match (a.0 / 4).abs_diff(b.0 / 4) {
            0 => intra_ms,
            d => 10 * u64::from(d),
        };
        Micros(off(a) + 1_000 * hub_ms + off(b))
    }
}

#[test]
fn nearest_index_breaks_star_world_ties_like_the_default_scan() {
    let n_shards = 7usize;
    let n = n_shards * 4;
    let shard_of: Vec<u32> = (0..n as u32).map(|i| i / 4).collect();
    let offset: Vec<f32> = (0..n as u32)
        .map(|i| (1_000 * (1 + i % 4)) as f32)
        .collect();
    let hub_us = |a: usize, b: usize| 10_000 * a.abs_diff(b) as u64;
    for intra_ms in [0, 10] {
        let rtt = star_rtt(intra_ms);
        let dense = LatencyMatrix::build(n, rtt);
        for groups in [1, 2, 3, n_shards] {
            let hier =
                HierarchicalWorld::build_lazy(&shard_of, groups, offset.clone(), hub_us, 0, rtt);
            let sets = member_sets(&hier);
            let label = format!("star +{intra_ms} ms, {groups} super-shards");
            assert_index_is_the_default_scan(&label, &hier, &sets).expect(&label);
            if groups == 2 {
                assert_index_is_the_default_scan(&label, &dense, &sets).expect("dense");
            }
        }
    }
}
