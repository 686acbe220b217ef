//! Quickstart: see the clustering condition defeat Meridian, then see
//! the UCL hybrid fix it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nearest_peer::prelude::*;

fn main() {
    println!("== nearest-peer quickstart ==\n");
    // Every call that can fan out takes its worker count; results are
    // the same at any count.
    let threads = nearest_peer::util::parallel::available_threads();
    // 1. Build the paper's Figure 8 world at its hardest point: 10
    //    clusters of 125 end-networks, 2 peers each (~2,500 peers), with
    //    tight intra-cluster latency variation (delta = 0.2).
    let scenario = ClusterScenario::paper(125, 0.2, 7, threads);
    println!(
        "world: {} peers, {} overlay members, {} held-out targets",
        scenario.world.len(),
        scenario.overlay.len(),
        scenario.targets.len()
    );
    let t0 = scenario.targets[0];
    println!(
        "sample target {}: cluster {}, end-network {}, hub latency {}",
        t0,
        scenario.world.cluster_of(t0),
        scenario.world.en_of(t0),
        scenario.world.hub_latency(t0),
    );

    // 2. Meridian with the paper's parameters (beta = 0.5, 16 per ring).
    let overlay = Overlay::build(
        &scenario.matrix,
        scenario.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        7,
        threads,
    );
    let meridian = run_queries(&overlay, &scenario, 500, 7, threads);
    println!("\nMeridian alone over 500 queries:");
    println!(
        "  P(correct closest peer) = {:.3}   <- the clustering condition at work",
        meridian.p_correct_closest
    );
    println!(
        "  P(correct cluster)      = {:.3}   <- finding the *cluster* is easy",
        meridian.p_correct_cluster
    );
    println!(
        "  mean probes/query       = {:.1}",
        meridian.mean_probes
    );

    // 3. The paper's remedy: a topology-hint registry consulted first,
    //    Meridian as the fallback. In the cluster world "shares an
    //    upstream router" is "shares an end-network".
    use nearest_peer::core::hybrid::HintSource;
    use std::collections::HashMap;
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
    let mut by_en: HashMap<usize, Vec<PeerId>> = HashMap::new();
    for &p in &scenario.overlay {
        by_en.entry(scenario.world.en_of(p)).or_default().push(p);
    }
    let hints = EnHints {
        by_en,
        en_of: scenario.world.peers().map(|p| (p, scenario.world.en_of(p))).collect(),
    };
    let hybrid = Hybrid::new(&hints, &overlay);
    let fixed = run_queries(&hybrid, &scenario, 500, 7, threads);
    println!("\nUCL hints + Meridian fallback:");
    println!("  P(correct closest peer) = {:.3}", fixed.p_correct_closest);
    println!("  mean probes/query       = {:.1}", fixed.mean_probes);
    println!(
        "\nThe remedy recovers the exact-closest peer ({}x improvement) at {}x fewer probes.",
        (fixed.p_correct_closest / meridian.p_correct_closest.max(1e-9)).round(),
        (meridian.mean_probes / fixed.mean_probes.max(1e-9)).round()
    );
}
