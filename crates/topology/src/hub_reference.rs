// The serial hub generator that `HubMatrix::synthetic` must
// reproduce bit for bit. Test code only: it is `include!`d by the test
// module of `hub.rs` and by `tests/parallel_determinism.rs`, each of
// which brings `geo`, `rng_for` and `Micros` into scope.

/// One stream drawn in order: `n` sites, then every pair `(i, j)` with
/// `i < j`, row by row, floored at 2 ms; then every cell rescaled so
/// that the upper middle of the sorted pairs is `median_ms`. Returns
/// the full row-major matrix in µs.
pub(crate) fn serial_hub_matrix(n: usize, median_ms: f64, seed: u64) -> Vec<u64> {
    let mut rng = rng_for(seed, 0x48_5542);
    let continents = geo::default_continents();
    let sites: Vec<geo::GeoPoint> = (0..n)
        .map(|_| geo::sample_site(&continents, &mut rng).0)
        .collect();
    let mut rtt_us = vec![0u64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let r = geo::rtt_between(&sites[i], &sites[j], &mut rng);
            let r = r.max(Micros::from_ms(2.0)).as_us();
            rtt_us[i * n + j] = r;
            rtt_us[j * n + i] = r;
        }
    }
    let mut pairs: Vec<u64> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push(rtt_us[i * n + j]);
        }
    }
    pairs.sort_unstable();
    let f = Micros::from_ms(median_ms).as_us() as f64 / pairs[pairs.len() / 2] as f64;
    for v in &mut rtt_us {
        *v = (*v as f64 * f).round() as u64;
    }
    rtt_us
}
