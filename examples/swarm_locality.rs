//! File-sharing swarm locality: how much traffic stays inside the
//! network boundary?
//!
//! The paper's other motivating application: "significant savings in
//! bandwidth costs are achieved if bulk data transmission happens
//! between peers in the same network, rather than across the network
//! boundary." This example builds an Azureus-like swarm on the full
//! Internet model, picks upload neighbours with and without the UCL
//! registry, and reports the boundary-crossing ratio.
//!
//! ```sh
//! cargo run --release --example swarm_locality
//! ```

use nearest_peer::prelude::*;
use np_util::rng::rng_from;
use rand::seq::SliceRandom;

fn main() {
    println!("== swarm locality: keeping bulk traffic inside the network ==\n");
    let world = InternetModel::generate(WorldParams::quick_scale(), 2024);
    // The swarm: every fifth Azureus peer is in this torrent.
    let swarm: Vec<HostId> = world.azureus_peers().step_by(5).collect();
    println!("swarm size: {} peers", swarm.len());

    // Strategy A: random neighbour selection (vanilla BitTorrent).
    let mut rng = rng_from(5);
    let mut random_local = 0usize;
    let mut random_rtts = Vec::new();
    for &p in &swarm {
        let &q = swarm.choose(&mut rng).expect("non-empty");
        if q != p {
            random_rtts.push(world.rtt(p, q).as_ms());
            if world.end_net_of(p).is_some() && world.end_net_of(p) == world.end_net_of(q) {
                random_local += 1;
            }
        }
    }

    // Strategy B: the UCL registry (the paper's perfect key-value map);
    // pick the best estimated candidate, else fall back to random.
    let mut reg = UclRegistry::new(&world, 3);
    for &p in &swarm {
        reg.insert(p);
    }
    let mut ucl_local = 0usize;
    let mut ucl_rtts = Vec::new();
    for &p in &swarm {
        let cands = reg.candidates_within(p, Micros::from_ms_u64(10));
        let q = cands
            .first()
            .map(|&(h, _)| h)
            .unwrap_or_else(|| *swarm.choose(&mut rng).expect("non-empty"));
        if q != p {
            ucl_rtts.push(world.rtt(p, q).as_ms());
            if world.end_net_of(p).is_some() && world.end_net_of(p) == world.end_net_of(q) {
                ucl_local += 1;
            }
        }
    }

    let med = |v: &[f64]| np_util::stats::median(v).unwrap_or(f64::NAN);
    println!("\n{:<18} {:>16} {:>18}", "selection", "median RTT", "same-network links");
    println!(
        "{:<18} {:>13.2} ms {:>12}/{}",
        "random",
        med(&random_rtts),
        random_local,
        swarm.len()
    );
    println!(
        "{:<18} {:>13.2} ms {:>12}/{}",
        "ucl registry",
        med(&ucl_rtts),
        ucl_local,
        swarm.len()
    );
    println!(
        "\nEvery same-network link keeps a bulk transfer off the ISP boundary;\n\
         the UCL registry finds those links where latency-only methods cannot\n\
         (the registry's estimates also discarded far candidates without probing)."
    );
}
