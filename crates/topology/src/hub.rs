//! The inter-hub latency matrix.
//!
//! Paper §4: *"We use the Meridian DNS-server latency dataset to simulate
//! latencies between the cluster-hubs: each cluster-hub is represented by
//! a randomly picked DNS server from the dataset. DNS-server pairs in the
//! Meridian dataset have a median latency of around 65 ms."*
//!
//! The Meridian dataset is no longer distributed, so [`HubMatrix`]
//! synthesises an equivalent: hubs are geographic sites (continent model
//! from [`crate::geo`]) with detour-inflated propagation RTTs, then the
//! whole matrix is rescaled so the median pair latency matches the
//! dataset's documented 65 ms. This module doc is the record of that
//! substitution; `median_is_calibrated` pins the calibration.

use crate::geo;
use np_util::parallel::par_for_rows;
use np_util::rng::rng_for;
use np_util::{Micros, Summary};
use rand::Rng;

/// The Meridian dataset's documented median inter-pair latency.
pub const MERIDIAN_MEDIAN_MS: f64 = 65.0;

/// Words of the hub stream one [`geo::sample_site`] call draws: three
/// `f64`s of two words each.
const SITE_WORDS: u128 = 6;

/// Words of the hub stream one [`geo::rtt_between`] call draws: two
/// `f64`s (one Box–Muller normal) of two words each.
const PAIR_WORDS: u128 = 4;

/// Pairs per synthesis worker. Below 2^16 pairs (about 360 hubs) the
/// whole fill takes a few milliseconds, so it stays on the calling
/// thread: the paper's 10-hub worlds never spawn a worker, and so never
/// pay for thread start-up or for the per-thread glibc malloc arenas
/// that raise a process's peak RSS.
const PAIRS_PER_WORKER: usize = 1 << 16;

/// A symmetric matrix of inter-hub RTTs.
#[derive(Debug, Clone)]
pub struct HubMatrix {
    n: usize,
    /// Full row-major storage in whole µs, symmetric, zero diagonal.
    rtt_us: Vec<u32>,
}

impl HubMatrix {
    /// Synthesise `n` hubs calibrated to `median_ms` on up to `threads`
    /// workers.
    ///
    /// Tag discipline: RNG stream is `sub_seed(seed, 0x48_5542)` ("HUB").
    ///
    /// The matrix is that of one stream drawn in order — the `n` sites,
    /// then each pair `(i, j)` with `i < j`, row by row — floored at
    /// 2 ms and rescaled so the median pair is `median_ms`. Each row
    /// seeks its own generator to where that stream reaches it, so rows
    /// fill on any worker in any order and the result is the same, bit
    /// for bit, at every worker count. At most one worker runs per
    /// [`PAIRS_PER_WORKER`] pairs.
    pub fn synthetic(n: usize, median_ms: f64, seed: u64, threads: usize) -> HubMatrix {
        assert!(n >= 2, "need at least two hubs");
        let stream = rng_for(seed, 0x48_5542);
        let mut rng = stream.clone();
        let continents = geo::default_continents();
        let sites: Vec<geo::GeoPoint> = (0..n)
            .map(|_| geo::sample_site(&continents, &mut rng).0)
            .collect();
        let workers = threads.min(n * (n - 1) / 2 / PAIRS_PER_WORKER).max(1);
        let mut rtt_us = vec![0u32; n * n];
        par_for_rows(workers, &mut rtt_us, n, |i, row| {
            let pairs_before = (i * (2 * n - i - 1) / 2) as u128;
            let mut rng = stream.clone();
            rng.set_word_pos(SITE_WORDS * n as u128 + PAIR_WORDS * pairs_before);
            for (j, cell) in row.iter_mut().enumerate().skip(i + 1) {
                let r = geo::rtt_between(&sites[i], &sites[j], &mut rng);
                // Floor: two distinct hubs are never closer than 2 ms —
                // they are, by construction, distinct PoP sites.
                *cell = checked_us(r.max(Micros::from_ms(2.0)));
            }
        });
        let mut m = HubMatrix { n, rtt_us };
        // The floor keeps the median positive.
        let f = Micros::from_ms(median_ms).as_us() as f64 / m.median_pair().as_us() as f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = checked_us(Micros(u64::from(m.rtt_us[i * n + j])).scale(f));
                m.rtt_us[i * n + j] = v;
                m.rtt_us[j * n + i] = v;
            }
        }
        m
    }

    /// Number of hubs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the matrix is empty (never constructed so; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// RTT between two hubs (zero on the diagonal).
    #[inline]
    pub fn rtt(&self, a: usize, b: usize) -> Micros {
        Micros(u64::from(self.rtt_us[a * self.n + b]))
    }

    /// The `n(n-1)/2` pair RTTs (the strict upper triangle) in µs.
    fn pair_rtts_us(&self) -> Vec<u32> {
        let n = self.n;
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            pairs.extend_from_slice(&self.rtt_us[i * n + i + 1..(i + 1) * n]);
        }
        pairs
    }

    /// Median pair RTT (the upper middle one of an even count), by
    /// selection instead of a full sort. Synthesis calibrates to it.
    pub fn median_pair(&self) -> Micros {
        let mut pairs = self.pair_rtts_us();
        let mid = pairs.len() / 2;
        Micros(u64::from(*pairs.select_nth_unstable(mid).1))
    }

    /// Summary of pair latencies in ms (for reports).
    pub fn pair_summary_ms(&self) -> Summary {
        let v: Vec<f64> = self
            .pair_rtts_us()
            .into_iter()
            .map(|us| f64::from(us) / 1_000.0)
            .collect();
        Summary::of(&v)
    }

    /// Pick `k` distinct random hub indices (the paper picks a random DNS
    /// server per cluster-hub).
    pub fn pick_hubs<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<usize> {
        use rand::seq::SliceRandom;
        assert!(k <= self.n, "not enough hubs: want {k}, have {}", self.n);
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.shuffle(rng);
        idx.truncate(k);
        idx
    }
}

/// A hub RTT as stored: whole µs in a `u32`, which holds 71 minutes.
fn checked_us(rtt: Micros) -> u32 {
    u32::try_from(rtt.as_us()).expect("hub RTT exceeds u32 µs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::rng::rng_from;

    // The serial generator `synthetic` must reproduce, shared
    // with the workspace's `tests/parallel_determinism.rs`.
    include!("hub_reference.rs");

    #[test]
    fn synthetic_threads_matches_the_serial_reference() {
        // 2,500 hubs is the first size here at which two workers split
        // the rows.
        for n in [2, 3, 17, 250, 2_500] {
            let reference = serial_hub_matrix(n, MERIDIAN_MEDIAN_MS, 13);
            for threads in [1, 2] {
                let m = HubMatrix::synthetic(n, MERIDIAN_MEDIAN_MS, 13, threads);
                let got: Vec<u64> = m.rtt_us.iter().map(|&v| u64::from(v)).collect();
                assert!(got == reference, "{n} hubs diverged at {threads} workers");
            }
        }
    }

    #[test]
    fn median_is_calibrated() {
        let m = HubMatrix::synthetic(120, MERIDIAN_MEDIAN_MS, 7, 1);
        let med = m.median_pair().as_ms();
        assert!(
            (med - MERIDIAN_MEDIAN_MS).abs() < 1.0,
            "median {med} vs target {MERIDIAN_MEDIAN_MS}"
        );
    }

    #[test]
    fn matrix_is_symmetric_zero_diagonal() {
        let m = HubMatrix::synthetic(40, 65.0, 3, 1);
        for i in 0..m.len() {
            assert_eq!(m.rtt(i, i), Micros::ZERO);
            for j in 0..m.len() {
                assert_eq!(m.rtt(i, j), m.rtt(j, i));
            }
        }
    }

    #[test]
    fn hubs_are_never_too_close() {
        let m = HubMatrix::synthetic(60, 65.0, 11, 1);
        let mut min = Micros::INFINITY;
        for i in 0..m.len() {
            for j in (i + 1)..m.len() {
                min = min.min(m.rtt(i, j));
            }
        }
        // 2 ms floor, possibly scaled during calibration; it must stay
        // well above end-network latencies (100 µs).
        assert!(min > Micros::from_ms(1.0), "min hub distance {min}");
    }

    #[test]
    fn distribution_is_multimodal_spread() {
        let m = HubMatrix::synthetic(100, MERIDIAN_MEDIAN_MS, 5, 1);
        let s = m.pair_summary_ms();
        // Intra-continent pairs well below the median, inter-continent far
        // above: expect a wide spread.
        assert!(s.min < 35.0, "min {}", s.min);
        assert!(s.max > 100.0, "max {}", s.max);
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = HubMatrix::synthetic(30, 65.0, 9, 1);
        let b = HubMatrix::synthetic(30, 65.0, 9, 1);
        let c = HubMatrix::synthetic(30, 65.0, 10, 1);
        assert_eq!(a.rtt(3, 17), b.rtt(3, 17));
        assert_ne!(
            (0..30).map(|i| a.rtt(0, i).as_us()).sum::<u64>(),
            (0..30).map(|i| c.rtt(0, i).as_us()).sum::<u64>()
        );
    }

    #[test]
    fn pick_hubs_distinct() {
        let m = HubMatrix::synthetic(25, 65.0, 2, 1);
        let mut rng = rng_from(1);
        let picked = m.pick_hubs(10, &mut rng);
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "hubs must be distinct");
    }
}
