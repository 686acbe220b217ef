//! The incremental overlay repair's equivalence contract.
//!
//! `Overlay::repair_after_leaves` claims to be a **fast
//! path**, not an approximation: after any sequence of departures it
//! must leave the overlay bit-identical — primaries *and* secondaries,
//! member for member, RTT for RTT — to a from-scratch
//! `rebuild_surviving` replay over the survivor set. This file pins
//! that claim:
//!
//! 1. randomized multi-round property sweeps — many seeds, random
//!    departure batches, repair thread counts 1/2/4 — against the
//!    single-threaded reference rebuild;
//! 2. at the paper's §4 scale on the hierarchical backend, where the
//!    repair replaces a full refill;
//! 3. the cost claim itself: a k-departure repair replays ≤ k rings
//!    per survivor, never the full ring set.

use nearest_peer::meridian::rings::RingSet;
use nearest_peer::prelude::*;
use np_util::rng::rng_from;
use rand::seq::SliceRandom;
use rand::Rng;

/// Ring-for-ring equality over the full structure: membership,
/// primaries and secondaries (order-sensitive — the replay contract is
/// positional, not set-wise).
fn assert_identical_overlays<W: WorldStore + ?Sized, V: WorldStore + ?Sized>(
    a: &Overlay<'_, W>,
    b: &Overlay<'_, V>,
    what: &str,
) {
    assert_eq!(a.members(), b.members(), "{what}: memberships diverged");
    for &p in a.members() {
        let prim = |o: &RingSet| -> Vec<(PeerId, Micros)> {
            o.primaries().map(|m| (m.peer, m.rtt)).collect()
        };
        let sec = |o: &RingSet| -> Vec<(PeerId, Micros)> {
            o.secondaries().map(|m| (m.peer, m.rtt)).collect()
        };
        assert_eq!(
            prim(a.rings_of(p)),
            prim(b.rings_of(p)),
            "{what}: primaries of {p} diverged"
        );
        assert_eq!(
            sec(a.rings_of(p)),
            sec(b.rings_of(p)),
            "{what}: secondaries of {p} diverged"
        );
    }
}

/// Randomized property: over many seeds, repeatedly remove a random
/// batch of peers with the incremental repair (at 1, 2 or 4 threads)
/// and diff the whole overlay against the from-scratch survivor
/// rebuild after every round.
#[test]
fn incremental_repair_is_bit_identical_to_rebuild_after_every_round() {
    for case in 0u64..8 {
        let seed = 1_000 + case;
        let mut rng = rng_from(seed);
        let s = ClusterScenario::build(
            ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 10,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 5,
            },
            10,
            seed,
            2,
        );
        let mut repaired = Overlay::build(
            &s.matrix,
            s.overlay.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            seed,
            2,
        );
        // 3 rounds of 1–6 random departures each; the cumulative
        // `FillOrigin::removed` provenance must keep later repairs
        // honest about earlier ones.
        for round in 0..3 {
            let k = rng.gen_range(1..=6);
            let mut pool = repaired.members().to_vec();
            pool.shuffle(&mut rng);
            let departed: Vec<PeerId> = pool.into_iter().take(k).collect();
            let threads = [1, 2, 4][round % 3];
            repaired.repair_after_leaves(&departed, threads);
            let reference = repaired.rebuild_surviving(1);
            assert_identical_overlays(
                &repaired,
                &reference,
                &format!("seed {seed} round {round} ({k} leaves, {threads} threads)"),
            );
        }
    }
}

/// Paper-scale equivalence on the hierarchical backend (one
/// super-shard): one 2,500-peer §4 world, a
/// 40-peer departure batch, repair vs survivor rebuild — exactly the
/// membership event `ext_churn`'s dynamic runner feeds the repair path.
#[test]
fn repair_matches_rebuild_at_paper_scale_on_the_hierarchical_backend() {
    let spec = ClusterWorldSpec::paper(25, 0.2); // 50 clusters, 2,500 peers
    let scenario =
        nearest_peer::core::ClusterScenario::build_hierarchical(spec, 100, 31, 1, usize::MAX, 4);
    let mut repaired = Overlay::build(
        &scenario.matrix,
        scenario.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        31,
        4,
    );
    let mut rng = rng_from(77);
    let mut pool = repaired.members().to_vec();
    pool.shuffle(&mut rng);
    let departed: Vec<PeerId> = pool.into_iter().take(40).collect();
    let stats = repaired.repair_after_leaves(&departed, 4);
    assert!(stats.rings_replayed > 0, "40 leavers dirty some rings");
    assert_identical_overlays(&repaired, &repaired.rebuild_surviving(4), "paper scale");
}

/// The point of the incremental path: a k-departure repair touches at
/// most k rings per survivor (the rings the leavers occupied), never
/// the whole ring set a full rebuild re-manages.
#[test]
fn repair_replays_only_the_rings_the_leavers_occupied() {
    let s = ClusterScenario::build(
        ClusterWorldSpec {
            clusters: 4,
            en_per_cluster: 10,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        },
        10,
        404,
        2,
    );
    let mut overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        404,
        2,
    );
    let survivors_before = overlay.members().len() as u64;
    let departed = [overlay.members()[3], overlay.members()[17]];
    let stats = overlay.repair_after_leaves(&departed, 2);
    // ≤ |departed| dirty rings per survivor — strictly fewer ring
    // replays than survivors × departures only when some survivor
    // never ringed a leaver, but never more.
    let survivors_after = survivors_before - departed.len() as u64;
    assert!(stats.rings_replayed >= 1, "somebody ringed the leavers");
    assert!(
        stats.rings_replayed <= survivors_after * departed.len() as u64,
        "repair replayed {} rings — more than |departed| per survivor",
        stats.rings_replayed
    );
}
