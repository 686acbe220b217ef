//! # np-probe
//!
//! The measurement tools of the paper's §3, simulated over
//! [`np_topology::InternetModel`]:
//!
//! * [`Pinger`] — ICMP ping to hosts and routers: ground-truth RTT plus
//!   multiplicative jitter; unresponsive targets return `None`,
//! * [`Tracer`] — traceroute/rockettrace: the hop list with per-hop RTTs
//!   and `(AS, city)` annotations, with unresponsive routers showing as
//!   anonymous hops, unstable last hops differing across vantage points,
//!   and cached VP-side prefixes so campaigns over 10⁵ peers stay fast,
//! * [`King`] — the recursive-DNS latency estimator (Gummadi et al.):
//!   true RTT plus *DNS processing lag* on both ends (the paper's
//!   explanation for inflated measurements at low latencies); refuses
//!   same-domain pairs exactly like the real technique,
//! * [`TcpPing`] — the paper's TCP-connect latency to the Azureus port,
//! * [`vantage`] — the Table 1 vantage-point presentation names.
//!
//! All tools draw noise from their own seeded RNG stream, so campaigns
//! are reproducible.

pub mod king;
pub mod ping;
pub mod tcpping;
pub mod trace;
pub mod vantage;

pub use king::King;
pub use ping::Pinger;
pub use tcpping::TcpPing;
pub use trace::{ObservedHop, Trace, Tracer};

use np_util::Micros;
use rand::rngs::StdRng;
use rand::Rng;

/// Common noise parameters.
///
/// The model follows how real RTT samples behave: latency never drops
/// below the propagation floor; on top of it sit a small *one-sided*
/// multiplicative wobble (path/serialisation variation) and an
/// exponential queueing delay. Minimum-of-n probing therefore converges
/// towards the truth from above — which is what makes the paper's
/// ping-subtraction rule workable at all (a symmetric ±3 % model would
/// bury a 300 µs LAN latency under milliseconds of noise at 80 ms RTTs,
/// which real min-filtered pings do not do).
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// One-sided multiplicative jitter: samples are inflated by
    /// `U(0, jitter)` of the true RTT.
    pub jitter: f64,
    /// Mean of the additive exponential queueing delay (µs).
    pub queue_mean_us: f64,
    /// Mean DNS processing lag per server, for King (µs).
    pub dns_lag_mean_us: f64,
    /// Mean TCP accept lag, for TCP-ping (µs).
    pub tcp_lag_mean_us: f64,
    /// Additive per-probe floor (kernel/serialisation, µs).
    pub floor_us: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            jitter: 0.008,
            queue_mean_us: 250.0,
            dns_lag_mean_us: 400.0,
            tcp_lag_mean_us: 250.0,
            floor_us: 30,
        }
    }
}

impl NoiseConfig {
    /// Apply the noise model to a ground-truth RTT.
    pub(crate) fn sample_rtt(&self, truth: Micros, rng: &mut StdRng) -> Micros {
        let f = 1.0 + self.jitter * rng.gen::<f64>();
        let queue = np_util::dist::exponential(rng, self.queue_mean_us.max(1e-9));
        truth.scale(f) + Micros::from_us(self.floor_us + queue as u64)
    }
}
