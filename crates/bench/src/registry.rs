//! The harness's algorithm registry.
//!
//! One place where every crate's [`AlgoFactory`] meets under its
//! canonical name: spec files, the benches and the conformance suite
//! all resolve names through [`full_registry`].

use np_baselines::{BeaconingFactory, KargerRuhlFactory, TapestryFactory, TiersFactory};
use np_coords::CoordWalkFactory;
use np_core::experiment::{AlgoRegistry, BruteForceFactory, RandomChoiceFactory};
use np_dht::{KademliaFactory, NswFactory};
use np_meridian::MeridianFactory;
use np_remedies::HybridHintFactory;

/// Every algorithm the workspace implements, registered under its
/// canonical name. The paper's algorithms and the UCL remedy:
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
///
/// plus every extension-figure entry: the Ext D Meridian ablations
/// (`ablate-*`), the Ext C hybrid coverage sweep
/// (`ucl{0,25,50,75,100}+meridian`), and the Ext F structured-overlay
/// searchers (`kademlia`/`nsw` and their parameter variants). A
/// checked-in `experiments/*.toml` may reference any of these names;
/// registering an entry costs nothing until a cell names it.
pub fn full_registry() -> AlgoRegistry {
    let mut reg = AlgoRegistry::new();
    reg.register(Box::new(BruteForceFactory));
    reg.register(Box::new(RandomChoiceFactory));
    reg.register(Box::new(MeridianFactory::omniscient()));
    reg.register(Box::new(MeridianFactory::gossip(8, 8)));
    reg.register(Box::new(KargerRuhlFactory::default()));
    reg.register(Box::new(TapestryFactory));
    reg.register(Box::new(TiersFactory::default()));
    reg.register(Box::new(BeaconingFactory::default()));
    reg.register(Box::new(CoordWalkFactory::default()));
    reg.register(Box::new(HybridHintFactory::new(
        "ucl+meridian",
        1.0,
        MeridianFactory::omniscient(),
    )));
    for factory in crate::specs::ext_ablation::variant_factories() {
        reg.register(Box::new(factory));
    }
    for factory in crate::specs::ext_hybrid::coverage_factories() {
        reg.register(Box::new(factory));
    }
    reg.register(Box::new(KademliaFactory::new()));
    reg.register(Box::new(NswFactory::new()));
    for factory in crate::specs::ext_dht::variant_factories() {
        reg.register(factory);
    }
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
        assert_eq!(reg.len(), 10 + 5 + 5 + 2 + 4);
        for expected in [
            "ablate-base",
            "ablate-b25",
            "ablate-b75",
            "ablate-nomanage",
            "ablate-gossip",
            "ucl0+meridian",
            "ucl25+meridian",
            "ucl50+meridian",
            "ucl75+meridian",
            "ucl100+meridian",
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
