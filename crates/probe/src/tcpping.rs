//! TCP-ping: latency as TCP connect time to the Azureus port (6881).
//!
//! Paper §3.2: "ping and traceroute, the usual tools of choice, mostly
//! fail here: most peers do not respond [...] we instead measure the
//! latency to a peer as the time it takes to complete a TCP 'connect' to
//! the port at the peer."

use crate::NoiseConfig;
use np_topology::{HostId, InternetModel};
use np_util::dist;
use np_util::rng::rng_for;
use np_util::Micros;
use rand::rngs::StdRng;

/// The TCP-ping tool bound to a source host.
pub struct TcpPing<'w> {
    world: &'w InternetModel,
    src: HostId,
    noise: NoiseConfig,
    rng: StdRng,
}

impl<'w> TcpPing<'w> {
    /// Create the tool. Noise stream: `sub_seed(seed, 0x544350)`.
    pub fn new(world: &'w InternetModel, src: HostId, noise: NoiseConfig, seed: u64) -> TcpPing<'w> {
        TcpPing {
            world,
            src,
            noise,
            rng: rng_for(seed, 0x54_43_50), // "TCP"
        }
    }

    /// Connect-time to `dst`'s Azureus port; `None` when the peer does
    /// not accept (NAT, firewall, or client gone).
    pub fn measure(&mut self, dst: HostId) -> Option<Micros> {
        if !self.world.host(dst).tcp_responsive {
            return None;
        }
        let truth = self.world.rtt(self.src, dst);
        let accept_lag = dist::exponential(&mut self.rng, self.noise.tcp_lag_mean_us);
        Some(self.noise.sample_rtt(truth, &mut self.rng) + Micros::from_us(accept_lag as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn world() -> InternetModel {
        InternetModel::generate(WorldParams::quick_scale(), 19)
    }

    #[test]
    fn only_tcp_responsive_peers_answer() {
        let w = world();
        let vp = w.vantage_points[0];
        let mut t = TcpPing::new(&w, vp, NoiseConfig::default(), 1);
        let up = w.azureus_peers().find(|&p| w.host(p).tcp_responsive).expect("some respond");
        let down = w.azureus_peers().find(|&p| !w.host(p).tcp_responsive).expect("most do not");
        assert!(t.measure(up).is_some());
        assert_eq!(t.measure(down), None);
    }

    #[test]
    fn connect_time_brackets_truth() {
        let w = world();
        let vp = w.vantage_points[2];
        let mut t = TcpPing::new(&w, vp, NoiseConfig::default(), 2);
        let peer = w.azureus_peers().find(|&p| w.host(p).tcp_responsive).expect("responder");
        let truth = w.rtt(vp, peer);
        for _ in 0..20 {
            let m = t.measure(peer).expect("responsive");
            assert!(m >= truth.scale(0.96), "connect below light speed: {m} vs {truth}");
            assert!(m <= truth.scale(1.04) + Micros::from_ms(5.0), "connect absurdly slow: {m}");
        }
    }
}
