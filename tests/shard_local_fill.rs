//! The shard-local Meridian fill's equivalence contract.
//!
//! `Overlay::build_shard_local` claims to be a **fast path**, not an
//! approximation: under the same seed it must produce rings
//! bit-identical to the omniscient fill — member for member, ring for
//! ring, RTT for RTT — on any backend with shard structure
//! (`WorldStore::shard_view`). This file enforces that claim where it
//! matters:
//!
//! 1. at the paper's own scale — a 2,500-peer §4 world through
//!    `ClusterWorld::to_hierarchical` at one super-shard, where the hub
//!    summary is exact;
//! 2. under `HierarchicalWorld::compress`, including spill peers routed
//!    into singleton overflow shards — the fill must agree with the
//!    omniscient fill *over the same compressed store* exactly, while
//!    the store itself approximates;
//! 3. the compressed store's metric deltas surface in the overlay's
//!    rings only within the documented medoid-detour bound.

use nearest_peer::prelude::*;
use np_util::rng::rng_from;
use std::sync::Arc;

/// Ring-for-ring, member-for-member equality of two overlays.
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

/// Acceptance criterion of the shard-local fill: bit-identical rings to
/// the omniscient fill on a one-super-shard §4 world at the paper's 2,500
/// peers (the scale fig8/fig9 run at), with the paper's overlay/target
/// split.
#[test]
fn shard_local_fill_is_bit_identical_at_paper_scale() {
    let spec = ClusterWorldSpec::paper(25, 0.2); // 50 clusters, 2,500 peers
    let scenario =
        nearest_peer::core::ClusterScenario::build_hierarchical(spec, 100, 9, 1, usize::MAX);
    let omniscient = Overlay::build_threads(
        &scenario.matrix,
        scenario.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        9,
        4,
    );
    let local = Overlay::build_shard_local_threads(
        &scenario.matrix,
        scenario.overlay.clone(),
        MeridianConfig::default(),
        9,
        4,
    );
    assert_identical_rings(&omniscient, &local);
    // The query path sees no difference either: same answers, same
    // probe/hop accounting, for the same targets and RNG streams.
    for (i, &t) in scenario.targets.iter().take(20).enumerate() {
        let t1 = Target::new(t, &scenario.matrix);
        let t2 = Target::new(t, &scenario.matrix);
        assert_eq!(
            omniscient.find_nearest(&t1, &mut rng_from(i as u64)),
            local.find_nearest(&t2, &mut rng_from(i as u64)),
            "query outcome diverged for target {t}"
        );
    }
}

/// An arbitrary (non-hub-and-spoke) metric world for the compress
/// tests: a star metric with 8-peer shards, per-peer spoke latencies of
/// 1–2.75 ms and hub-to-hub distances of 10·|sa−sb| ms.
fn star_matrix(n: usize) -> LatencyMatrix {
    LatencyMatrix::build(n, |a, b| {
        if a == b {
            return Micros::ZERO;
        }
        let (sa, sb) = (a.0 / 8, b.0 / 8);
        let off = |p: PeerId| Micros::from_us(1_000 + 250 * (p.0 % 8) as u64);
        if sa == sb {
            off(a) + off(b)
        } else {
            off(a) + Micros::from_ms_u64(10 * (sa as i64 - sb as i64).unsigned_abs()) + off(b)
        }
    })
}

/// Under `compress` — including spills in singleton overflow shards —
/// the shard-local fill still reproduces the omniscient fill over the
/// same compressed store exactly.
#[test]
fn shard_local_fill_matches_omniscient_under_compress_with_spills() {
    let n = 96usize;
    let dense = Arc::new(star_matrix(n));
    // Peers 80.. match no cluster: spills.
    let shard_of: Vec<u32> = (0..n as u32)
        .map(|i| {
            if i < 80 {
                i / 8
            } else {
                HierarchicalWorld::NO_SHARD
            }
        })
        .collect();
    let world = HierarchicalWorld::compress(&dense, &shard_of, 1, usize::MAX);
    world.validate().expect("valid");
    let members: Vec<PeerId> = (0..n as u32).filter(|i| i % 5 != 0).map(PeerId).collect();
    let omniscient = Overlay::build_threads(
        &world,
        members.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        21,
        2,
    );
    let local =
        Overlay::build_shard_local_threads(&world, members, MeridianConfig::default(), 21, 2);
    assert_identical_rings(&omniscient, &local);
}

/// The compressed store is an approximation, and the documented bound
/// must hold *through* the fill: every ring member's stored RTT is the
/// compressed store's value — never below the dense truth, and above
/// it by at most the two endpoints' doubled medoid detours.
#[test]
fn compress_ring_rtts_stay_within_the_medoid_detour_bound() {
    let n = 96usize;
    let dense = Arc::new(star_matrix(n));
    let shard_of: Vec<u32> = (0..n as u32).map(|i| i / 8).collect();
    let world = HierarchicalWorld::compress(&dense, &shard_of, 1, usize::MAX);
    let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
    let local =
        Overlay::build_shard_local_threads(&world, members.clone(), MeridianConfig::default(), 5, 2);
    let detour = |p: PeerId| {
        let hub = world.hub_peer(world.shard_of(p)).expect("non-empty");
        dense.rtt(p, hub)
    };
    for &p in &members {
        for m in local.rings_of(p).primaries() {
            let truth = dense.rtt(p, m.peer);
            assert!(m.rtt >= truth, "ring rtt below dense truth for ({p},{})", m.peer);
            let bound = truth + detour(p).scale(2.0) + detour(m.peer).scale(2.0);
            assert!(
                m.rtt <= bound,
                "ring rtt for ({p},{}) beyond the medoid-detour bound",
                m.peer
            );
        }
    }
}
