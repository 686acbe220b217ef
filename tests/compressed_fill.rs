//! The Meridian fill over a compressed store.
//!
//! `HierarchicalWorld::compress` approximates an arbitrary matrix by a
//! medoid-hub summary, and `Overlay::build_threads` fills rings from
//! whatever `WorldStore::rtt` the store returns. The store's documented
//! error bound must therefore hold *through* the fill: every ring
//! member's stored RTT lies between the dense truth and the truth plus
//! the two endpoints' doubled medoid detours.

use nearest_peer::prelude::*;
use std::sync::Arc;

/// An arbitrary (non-hub-and-spoke) metric world for the compress
/// test: a star metric with 8-peer shards, per-peer spoke latencies of
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
    let overlay = Overlay::build_threads(
        &world,
        members.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        5,
        2,
    );
    let detour = |p: PeerId| {
        let hub = world.hub_peer(world.shard_of(p)).expect("non-empty");
        dense.rtt(p, hub)
    };
    for &p in &members {
        for m in overlay.rings_of(p).primaries() {
            let truth = dense.rtt(p, m.peer);
            assert!(
                m.rtt >= truth,
                "ring rtt below dense truth for ({p},{})",
                m.peer
            );
            let bound = truth + detour(p).scale(2.0) + detour(m.peer).scale(2.0);
            assert!(
                m.rtt <= bound,
                "ring rtt for ({p},{}) beyond the medoid-detour bound",
                m.peer
            );
        }
    }
}
