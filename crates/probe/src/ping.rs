//! ICMP ping.

use crate::NoiseConfig;
use np_topology::{HostId, InternetModel, RouterId};
use np_util::rng::rng_for;
use np_util::Micros;
use rand::rngs::StdRng;

/// A ping tool bound to a source host (usually a vantage point).
pub struct Pinger<'w> {
    world: &'w InternetModel,
    src: HostId,
    noise: NoiseConfig,
    rng: StdRng,
}

impl<'w> Pinger<'w> {
    /// Create a pinger at `src`. Noise stream: `sub_seed(seed, 0x50494E47)`.
    pub fn new(world: &'w InternetModel, src: HostId, noise: NoiseConfig, seed: u64) -> Pinger<'w> {
        Pinger {
            world,
            src,
            noise,
            rng: rng_for(seed, 0x5049_4E47), // "PING"
        }
    }

    /// The source host.
    pub fn source(&self) -> HostId {
        self.src
    }

    /// Ping a host. `None` when it filters ICMP.
    pub fn ping_host(&mut self, dst: HostId) -> Option<Micros> {
        if !self.world.host(dst).icmp_responsive {
            return None;
        }
        let truth = self.world.rtt(self.src, dst);
        Some(self.noise.sample_rtt(truth, &mut self.rng))
    }

    /// Ping a router. `None` when it filters ICMP.
    pub fn ping_router(&mut self, dst: RouterId) -> Option<Micros> {
        if !self.world.router(dst).responsive {
            return None;
        }
        let truth = self.world.rtt_host_router(self.src, dst);
        Some(self.noise.sample_rtt(truth, &mut self.rng))
    }

    /// Minimum of `n` pings to a host — the standard technique for
    /// suppressing jitter (the pipelines use `min_ping_host(·, 3)`).
    pub fn min_ping_host(&mut self, dst: HostId, n: usize) -> Option<Micros> {
        let mut best: Option<Micros> = None;
        for _ in 0..n.max(1) {
            let s = self.ping_host(dst)?;
            best = Some(best.map(|b| b.min(s)).unwrap_or(s));
        }
        best
    }

    /// Minimum of `n` pings to a router.
    pub fn min_ping_router(&mut self, dst: RouterId, n: usize) -> Option<Micros> {
        let mut best: Option<Micros> = None;
        for _ in 0..n.max(1) {
            let s = self.ping_router(dst)?;
            best = Some(best.map(|b| b.min(s)).unwrap_or(s));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn world() -> InternetModel {
        InternetModel::generate(WorldParams::quick_scale(), 11)
    }

    #[test]
    fn ping_tracks_ground_truth_within_jitter() {
        let w = world();
        let vp = w.vantage_points[0];
        let mut p = Pinger::new(&w, vp, NoiseConfig::default(), 1);
        let dst = w.dns_servers().find(|&h| w.host(h).icmp_responsive).expect("responsive dns");
        let truth = w.rtt(vp, dst);
        for _ in 0..50 {
            let m = p.ping_host(dst).expect("responsive");
            assert!(m >= truth, "samples never undercut propagation: {m} < {truth}");
            let err = m.as_ms() - truth.as_ms();
            assert!(
                err <= truth.as_ms() * 0.01 + 3.0,
                "ping {m} too far above truth {truth}"
            );
        }
    }

    #[test]
    fn unresponsive_targets_yield_none() {
        let w = world();
        let vp = w.vantage_points[0];
        let mut p = Pinger::new(&w, vp, NoiseConfig::default(), 2);
        if let Some(dead) = w.azureus_peers().find(|&h| !w.host(h).icmp_responsive) {
            assert_eq!(p.ping_host(dead), None);
        }
        if let Some(dead_r) = (0..w.routers.len() as u32)
            .map(np_topology::RouterId)
            .find(|&r| !w.router(r).responsive)
        {
            assert_eq!(p.ping_router(dead_r), None);
        }
    }

    #[test]
    fn min_ping_reduces_noise() {
        let w = world();
        let vp = w.vantage_points[0];
        let dst = w.dns_servers().find(|&h| w.host(h).icmp_responsive).expect("responsive");
        let truth = w.rtt(vp, dst);
        let mut single_err = 0.0;
        let mut min_err = 0.0;
        let mut p1 = Pinger::new(&w, vp, NoiseConfig::default(), 3);
        let mut p2 = Pinger::new(&w, vp, NoiseConfig::default(), 4);
        for _ in 0..100 {
            single_err += (p1.ping_host(dst).expect("resp").as_ms() - truth.as_ms()).abs();
            min_err += (p2.min_ping_host(dst, 5).expect("resp").as_ms() - truth.as_ms()).abs();
        }
        // min-of-5 biases low but its |error| spread is not larger than a
        // single sample's on average.
        assert!(min_err <= single_err * 1.5, "min {min_err} vs single {single_err}");
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let w = world();
        let vp = w.vantage_points[1];
        let dst = w.dns_servers().find(|&h| w.host(h).icmp_responsive).expect("responsive");
        let mut a = Pinger::new(&w, vp, NoiseConfig::default(), 9);
        let mut b = Pinger::new(&w, vp, NoiseConfig::default(), 9);
        assert_eq!(a.ping_host(dst), b.ping_host(dst));
    }
}
