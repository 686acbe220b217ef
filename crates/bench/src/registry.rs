//! The harness's algorithm registry.
//!
//! The one place an algorithm name is defined: every crate's
//! [`AlgoFactory`] meets here under its canonical name, and spec
//! files, the benches and the conformance suite all resolve names
//! through [`full_registry`].

use np_baselines::{BeaconingFactory, KargerRuhlFactory, TapestryFactory, TiersFactory};
use np_coords::CoordWalkFactory;
use np_core::experiment::{AlgoRegistry, BruteForceFactory, RandomChoiceFactory};
use np_dht::{KademliaConfig, KademliaFactory, NswConfig, NswFactory};
use np_meridian::{BuildMode, MeridianConfig, MeridianFactory};
use np_remedies::HybridHintFactory;

/// Every algorithm the workspace implements, registered under its
/// canonical name:
///
/// | name | algorithm |
/// |---|---|
/// | `brute-force` | probe every member (reference) |
/// | `random` | one random member (lower bound) |
/// | `meridian` | Meridian, omniscient fill, β = 0.5 |
/// | `meridian-gossip` | Meridian, gossip warm-up (8 rounds, fanout 8) |
/// | `karger-ruhl` | distance-based sampling |
/// | `tapestry` | identifier-prefix routing |
/// | `tiers` | hierarchical clustering |
/// | `beaconing` | beacon latency vectors |
/// | `coord-walk` | Vivaldi coordinates + greedy walk |
/// | `ucl+meridian` | §5 UCL registry (full coverage) + Meridian fallback |
/// | `ablate-b25`, `ablate-b75` | Meridian at β = 0.25 / 0.75 (Ext D) |
/// | `ablate-nomanage` | Meridian without ring management (Ext D) |
/// | `ucl{0,25,50,75}+meridian` | the hybrid at partial registry coverage (Ext C) |
/// | `kademlia`, `kademlia-a1`, `kademlia-k16` | Kademlia XOR lookup: k=8/α=3, α=1, k=16 (Ext F) |
/// | `nsw`, `nsw-m10`, `nsw-s1` | NSW graph walk: M=5/3 starts, M=10, one start (Ext F) |
///
/// Ext D's baseline and gossip rows are `meridian` and
/// `meridian-gossip`, and Ext C's full-coverage row is `ucl+meridian`.
/// A checked-in `experiments/*.toml` may reference any of these names;
/// registering an entry costs nothing until a cell names it.
pub fn full_registry() -> AlgoRegistry {
    let mut reg = AlgoRegistry::new();
    let meridian = MeridianConfig::default();
    let ucl = |name: &str, coverage| {
        Box::new(HybridHintFactory::new(
            name,
            coverage,
            MeridianFactory::omniscient(),
        ))
    };
    reg.register(Box::new(BruteForceFactory));
    reg.register(Box::new(RandomChoiceFactory));
    reg.register(Box::new(MeridianFactory::omniscient()));
    reg.register(Box::new(MeridianFactory::gossip(8, 8)));
    reg.register(Box::new(KargerRuhlFactory::default()));
    reg.register(Box::new(TapestryFactory));
    reg.register(Box::new(TiersFactory::default()));
    reg.register(Box::new(BeaconingFactory::default()));
    reg.register(Box::new(CoordWalkFactory::default()));
    reg.register(ucl("ucl+meridian", 1.0));
    reg.register(Box::new(MeridianFactory::custom(
        "ablate-b25",
        MeridianConfig {
            beta: 0.25,
            ..meridian
        },
        BuildMode::Omniscient,
    )));
    reg.register(Box::new(MeridianFactory::custom(
        "ablate-b75",
        MeridianConfig {
            beta: 0.75,
            ..meridian
        },
        BuildMode::Omniscient,
    )));
    reg.register(Box::new(MeridianFactory::custom(
        "ablate-nomanage",
        MeridianConfig {
            manage_rounds: 0,
            ..meridian
        },
        BuildMode::Omniscient,
    )));
    reg.register(ucl("ucl0+meridian", 0.0));
    reg.register(ucl("ucl25+meridian", 0.25));
    reg.register(ucl("ucl50+meridian", 0.5));
    reg.register(ucl("ucl75+meridian", 0.75));
    reg.register(Box::new(KademliaFactory::new()));
    reg.register(Box::new(KademliaFactory::with_config(
        "kademlia-a1",
        KademliaConfig { k: 8, alpha: 1 },
    )));
    reg.register(Box::new(KademliaFactory::with_config(
        "kademlia-k16",
        KademliaConfig { k: 16, alpha: 3 },
    )));
    reg.register(Box::new(NswFactory::new()));
    reg.register(Box::new(NswFactory::with_config(
        "nsw-m10",
        NswConfig { m: 10, starts: 3 },
    )));
    reg.register(Box::new(NswFactory::with_config(
        "nsw-s1",
        NswConfig { m: 5, starts: 1 },
    )));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_names_are_stable() {
        let reg = full_registry();
        let names = reg.names();
        for expected in [
            "brute-force",
            "random",
            "meridian",
            "meridian-gossip",
            "karger-ruhl",
            "tapestry",
            "tiers",
            "beaconing",
            "coord-walk",
            "ucl+meridian",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Every entry self-describes for `np-bench list`.
        for (name, desc) in reg.catalogue() {
            assert!(!desc.is_empty(), "{name} has no description");
        }
    }

    #[test]
    fn full_registry_adds_the_extension_variants() {
        let reg = full_registry();
        assert_eq!(reg.len(), 10 + 3 + 4 + 6);
        for expected in [
            "ablate-b25",
            "ablate-b75",
            "ablate-nomanage",
            "ucl0+meridian",
            "ucl25+meridian",
            "ucl50+meridian",
            "ucl75+meridian",
            "kademlia",
            "kademlia-a1",
            "kademlia-k16",
            "nsw",
            "nsw-m10",
            "nsw-s1",
        ] {
            assert!(reg.get(expected).is_some(), "missing {expected}");
        }
    }
}
