//! Cross-crate integration: the paper's headline claims, end to end,
//! at test-friendly scale.

use nearest_peer::core::hybrid::HintSource;
use nearest_peer::prelude::*;
use std::collections::HashMap;

/// A 600-peer world of `en_per_cluster`-end-network clusters.
fn world(en_per_cluster: usize) -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters: (600 / (en_per_cluster * 2)).max(1),
        en_per_cluster,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: (600 / (en_per_cluster * 2)).max(2),
    }
}

fn scenario(en_per_cluster: usize, seed: u64) -> ClusterScenario {
    ClusterScenario::build(world(en_per_cluster), 30, seed, 2)
}

/// The Figure 8 phase transition, in miniature: accuracy at huge
/// clusters is far below accuracy at small clusters, while cluster-level
/// success *improves*.
#[test]
fn clustering_condition_defeats_meridian() {
    let easy = scenario(5, 1);
    let hard = scenario(150, 1);
    let run = |s: &ClusterScenario| {
        let overlay = Overlay::build(
            &s.matrix,
            s.overlay.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            1,
            2,
        );
        run_queries(&overlay, s, 300, 1, 2)
    };
    let m_easy = run(&easy);
    let m_hard = run(&hard);
    assert!(
        m_hard.p_correct_closest < m_easy.p_correct_closest,
        "hard {m_hard:?} should be below easy {m_easy:?}"
    );
    assert!(m_hard.p_correct_closest < 0.35, "hard world too easy: {m_hard:?}");
    assert!(
        m_hard.p_correct_cluster > 0.9,
        "cluster-level success should be near 1: {m_hard:?}"
    );
}

/// Brute force is immune to the clustering condition (it pays in probes).
#[test]
fn brute_force_is_immune_but_expensive() {
    let s = scenario(150, 3);
    let bf = nearest_peer::metric::nearest::BruteForce::new(&s.matrix, s.overlay.clone());
    let m = run_queries(&bf, &s, 40, 3, 2);
    assert_eq!(m.p_correct_closest, 1.0);
    assert!(m.mean_probes > 500.0, "brute force must probe everyone");
}

/// The hybrid with a full-coverage hint registry restores exactness at a
/// fraction of the probes — the paper's §5 conclusion.
#[test]
fn hybrid_restores_exactness() {
    struct EnHints {
        by_en: HashMap<usize, Vec<PeerId>>,
        en_of: HashMap<PeerId, usize>,
    }
    impl HintSource for EnHints {
        fn candidates(&self, target: PeerId) -> Vec<PeerId> {
            self.by_en.get(&self.en_of[&target]).cloned().unwrap_or_default()
        }
        fn name(&self) -> &str {
            "ucl"
        }
    }
    let s = scenario(150, 5);
    let overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        5,
        2,
    );
    let mut by_en: HashMap<usize, Vec<PeerId>> = HashMap::new();
    for &p in &s.overlay {
        by_en.entry(s.world.en_of(p)).or_default().push(p);
    }
    let hints = EnHints {
        by_en,
        en_of: s.world.peers().map(|p| (p, s.world.en_of(p))).collect(),
    };
    let hybrid = Hybrid::new(&hints, &overlay);
    let plain = run_queries(&overlay, &s, 300, 5, 2);
    let fixed = run_queries(&hybrid, &s, 300, 5, 2);
    assert!(
        fixed.p_correct_closest > plain.p_correct_closest + 0.3,
        "hybrid {fixed:?} should beat meridian {plain:?} by a wide margin"
    );
    assert!(
        fixed.mean_probes < plain.mean_probes,
        "hybrid should also probe less on hits"
    );
}

/// Three-run sweeps are deterministic end to end.
#[test]
fn sweeps_are_reproducible() {
    let mut registry = AlgoRegistry::new();
    registry.register(Box::new(
        nearest_peer::meridian::MeridianFactory::omniscient(),
    ));
    let run = || {
        let cell = CellSpec {
            world: world(25),
            n_targets: 30,
            ..CellSpec::paper("x=25", 25, 0.2, 21, 60, vec![AlgoSpec::new("meridian")])
        };
        let spec = ExperimentSpec::query(
            "sweep",
            "three-run sweep",
            "n/a",
            Backend::Dense,
            SeedPlan::THREE_RUNS,
            vec![cell],
        );
        Experiment::new(spec, &registry).run(2)
    };
    let (a, b) = (run(), run());
    let a = &a.query_cells().expect("query spec")[0].rows[0];
    let b = &b.query_cells().expect("query spec")[0].rows[0];
    assert_eq!(a.runs.len(), 3);
    // The bands are taken from these runs.
    assert_eq!(a.runs, b.runs);
}
