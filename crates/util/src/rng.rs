//! Deterministic randomness.
//!
//! Every stochastic component in the workspace — topology generation,
//! measurement noise, Meridian gossip, query target selection — takes an
//! explicit `u64` seed. Sub-components derive their own seeds with
//! [`sub_seed`] so that, e.g., changing the number of Meridian queries does
//! not perturb the topology. The paper reports median/min/max over three
//! simulation runs; the experiment pipeline's three-run seed plan
//! (`np_core::SeedPlan::THREE_RUNS`) reproduces that with one seed
//! derived from each of `{base, base+1, base+2}`.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The base seed used by the experiment binaries unless overridden.
pub const DEFAULT_SEED: u64 = 0x1EC_2008; // IMC 2008

/// SplitMix64 — the standard 64-bit mixing function (Steele et al., 2014).
///
/// Used both as a seed deriver and as the (non-cryptographic) hash that
/// puts peers onto the Kademlia identifier ring.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent sub-seed from `(seed, tag)`.
///
/// Tags are small literal constants unique per call site (documented at the
/// call site), so different subsystems sharing a base seed draw independent
/// streams.
#[inline]
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Construct the workspace-standard RNG from a seed.
///
/// `StdRng` (currently ChaCha12) is deliberately used instead of a small
/// xorshift so statistical quality is never the suspect when an experiment
/// misbehaves.
#[inline]
pub fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Construct an RNG for a tagged subsystem.
#[inline]
pub fn rng_for(seed: u64, tag: u64) -> StdRng {
    rng_from(sub_seed(seed, tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Single-bit input changes should flip roughly half the output bits.
        let a = splitmix64(0x1234);
        let b = splitmix64(0x1235);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "poor avalanche: {flipped}");
    }

    #[test]
    fn sub_seed_separates_tags() {
        let s = 42;
        assert_ne!(sub_seed(s, 1), sub_seed(s, 2));
        assert_ne!(sub_seed(1, 7), sub_seed(2, 7));
        assert_eq!(sub_seed(s, 1), sub_seed(s, 1));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = rng_for(9, 3);
        let mut b = rng_for(9, 3);
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn rng_streams_differ_across_tags() {
        let mut a = rng_for(9, 3);
        let mut b = rng_for(9, 4);
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }
}
