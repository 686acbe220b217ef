//! Gaming-lobby scenario: the paper's motivating application.
//!
//! First-person shooters degrade noticeably when latency rises from 20
//! to 40 ms (the paper's first citation), and LAN parties exist because
//! same-network play is qualitatively better. This example builds a
//! matchmaking lobby over a cluster world and compares the match quality
//! (RTT to the chosen opponent) under three strategies: random
//! matchmaking, Meridian-based, and the UCL-hybrid.
//!
//! ```sh
//! cargo run --release --example gaming_lobby
//! ```

use nearest_peer::core::hybrid::HintSource;
use nearest_peer::prelude::*;
use np_util::rng::rng_from;
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

fn main() {
    println!("== gaming lobby: who do you get matched with? ==\n");
    // A regional game: 25 metro areas (clusters), 25 campuses/ISP pods
    // each, two players per pod wanting a match.
    let spec = ClusterWorldSpec {
        clusters: 25,
        en_per_cluster: 25,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: 25,
    };
    let threads = nearest_peer::util::parallel::available_threads();
    let scenario = ClusterScenario::build(spec, 50, 99, threads);
    let overlay = Overlay::build(
        &scenario.matrix,
        scenario.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        99,
        threads,
    );
    let mut by_en: HashMap<usize, Vec<PeerId>> = HashMap::new();
    for &p in &scenario.overlay {
        by_en.entry(scenario.world.en_of(p)).or_default().push(p);
    }
    let hints = EnHints {
        by_en,
        en_of: scenario.world.peers().map(|p| (p, scenario.world.en_of(p))).collect(),
    };
    let hybrid = Hybrid::new(&hints, &overlay);
    let random = nearest_peer::metric::nearest::RandomChoice::new(
        &scenario.matrix,
        scenario.overlay.clone(),
    );

    let mut rng = rng_from(3);
    let strategies: [(&str, &dyn NearestPeerAlgo); 3] =
        [("random", &random), ("meridian", &overlay), ("ucl+meridian", &hybrid)];
    println!(
        "{:<14} {:>12} {:>12} {:>14}",
        "matchmaker", "median RTT", "p90 RTT", "<=20ms matches"
    );
    for (name, algo) in strategies {
        let mut rtts = Vec::new();
        for &t in &scenario.targets {
            let target = Target::new(t, &scenario.matrix);
            let out = algo.find_nearest(&target, &mut rng);
            rtts.push(out.rtt_to_target.as_ms());
        }
        let med = np_util::stats::median(&rtts).unwrap_or(f64::NAN);
        let p90 = np_util::stats::percentile(&rtts, 90.0).unwrap_or(f64::NAN);
        let good = rtts.iter().filter(|&&r| r <= 20.0).count();
        println!(
            "{:<14} {:>9.2} ms {:>9.2} ms {:>9}/{}",
            name,
            med,
            p90,
            good,
            rtts.len()
        );
    }
    println!(
        "\nWith UCL hints, players who share a campus get LAN-grade matches\n\
         (0.1 ms) instead of metro-grade ones (~10 ms) — the order-of-\n\
         magnitude opportunity the paper's introduction describes."
    );
}
