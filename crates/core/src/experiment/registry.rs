//! The object-safe algorithm factory registry.
//!
//! An [`AlgoFactory`] builds one configured [`NearestPeerAlgo`] over a
//! scenario's latency backend. Factories are registered by name in an
//! [`AlgoRegistry`]; an [`crate::experiment::ExperimentSpec`] cell then
//! refers to algorithms purely by those names, which is what makes the
//! spec serialisable-by-eye and a new scenario a ~15-line diff.
//!
//! The factory contract is deliberately `dyn`-first: the build context
//! hands out `&dyn WorldStore`, so one factory serves the dense matrix
//! and the compressed hierarchical backend alike, and the returned
//! algorithm is a `Box<dyn NearestPeerAlgo>` borrowing only the
//! context's lifetime. Determinism: a factory must derive all
//! randomness from `ctx.seed` (sub-tagged as needed) — never from
//! thread identity — so reports stay bit-identical at any thread
//! count.

use np_metric::nearest::{BruteForce, RandomChoice};
use np_metric::{NearestPeerAlgo, PeerId, WorldStore};
use np_topology::ClusterWorld;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A per-(cell, seed) cache of expensive world-independent build
/// artifacts, shared by every factory instantiated over one scenario.
///
/// Several registry entries may wrap the same inner structure — the
/// hybrid coverage sweep builds six Meridian fallbacks over one
/// scenario — and rebuilding an O(n²) ring fill per entry would undo
/// the sharing the old hand-rolled binaries had. Factories key their
/// artifact by configuration (the cache already scopes world and
/// seed), so identical sub-builds are constructed once and cloned out.
/// Cached values must be `'static` (own no scenario borrows) and a
/// pure function of `(scenario, key)` — determinism requires a cache
/// hit to be indistinguishable from a rebuild.
#[derive(Default)]
pub struct BuildCache {
    slots: Mutex<BTreeMap<String, Arc<dyn Any + Send + Sync>>>,
}

impl BuildCache {
    pub fn new() -> BuildCache {
        BuildCache::default()
    }

    /// Fetch the artifact under `key`, building it with `f` on the
    /// first request. Panics if `key` was previously used with a
    /// different type.
    ///
    /// A panicking factory elsewhere in the cell poisons this mutex;
    /// the lock recovers the inner value instead of propagating, so
    /// one failed build does not cascade into "build cache" panics
    /// across the remaining seeds and algorithms (any artifact already
    /// cached is complete — insertion happens after construction).
    pub fn get_or_build<T: Send + Sync + 'static>(
        &self,
        key: &str,
        f: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(existing) = slots.get(key) {
            return existing
                .clone()
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("build-cache key {key:?} reused with another type"));
        }
        let built = Arc::new(f());
        slots.insert(key.to_string(), built.clone() as Arc<dyn Any + Send + Sync>);
        built
    }
}

/// Everything a factory may consume when instantiating an algorithm
/// for one (cell, seed) scenario.
pub struct AlgoContext<'a> {
    /// The latency backend (dense or hierarchical — factories must not
    /// care).
    pub store: &'a dyn WorldStore,
    /// The generated cluster world (topology metadata: end-networks,
    /// clusters, hubs — what §5 hint registries key on).
    pub world: &'a ClusterWorld,
    /// The overlay membership (sorted, targets held out).
    pub overlay: &'a [PeerId],
    /// The run's seed; all factory randomness derives from it.
    pub seed: u64,
    /// Worker threads available for parallel construction (e.g. the
    /// Meridian omniscient ring fill). Never affects results.
    pub threads: usize,
    /// Shared build artifacts for this (cell, seed) — see [`BuildCache`].
    pub shared: &'a BuildCache,
}

/// An object-safe builder of one named, configured algorithm.
pub trait AlgoFactory: Sync {
    /// The registry key ("meridian", "brute-force", "ucl+meridian", ...).
    fn name(&self) -> &str;

    /// One-line description for `np-bench list`.
    fn description(&self) -> String {
        String::new()
    }

    /// Instantiate over a scenario. The returned algorithm may borrow
    /// the context's store/world/overlay.
    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a>;

    /// Optional churn-aware wrapper for dynamic (event-clocked) runs.
    ///
    /// The default `None` gives the factory the universal
    /// rebuild-each-epoch behaviour (see [`crate::churn::dynamic_algo`],
    /// which callers go through instead of calling this directly).
    /// Factories with cheaper-than-rebuild maintenance override it —
    /// Meridian returns its incremental ring-repair wrapper. The same
    /// determinism contract as [`AlgoFactory::build`] applies.
    fn dynamic_override<'a>(
        &'a self,
        _ctx: &AlgoContext<'a>,
    ) -> Option<Box<dyn crate::churn::DynamicAlgo<'a> + 'a>> {
        None
    }
}

/// A name → factory map with deterministic iteration order.
#[derive(Default)]
pub struct AlgoRegistry {
    factories: BTreeMap<String, Box<dyn AlgoFactory>>,
}

impl AlgoRegistry {
    /// An empty registry. Most callers want their harness's full
    /// registry (`np-bench`'s `full_registry()`) and extend it.
    pub fn new() -> AlgoRegistry {
        AlgoRegistry::default()
    }

    /// Register a factory under [`AlgoFactory::name`]. Re-registering a
    /// name replaces the previous factory (binaries override standard
    /// entries with custom configs).
    pub fn register(&mut self, factory: Box<dyn AlgoFactory>) -> &mut Self {
        self.factories.insert(factory.name().to_string(), factory);
        self
    }

    /// Look up a factory.
    pub fn get(&self, name: &str) -> Option<&dyn AlgoFactory> {
        self.factories.get(name).map(|f| f.as_ref())
    }

    /// Look up a factory, with a diagnostic-quality error on a miss:
    /// the full catalogue plus (when something registered is close) a
    /// nearest-name hint. CLI layers print this and exit 2; there is no
    /// reason for an unknown *user-supplied* name to reach a panic.
    pub fn lookup(&self, name: &str) -> Result<&dyn AlgoFactory, UnknownAlgo> {
        self.get(name).ok_or_else(|| UnknownAlgo {
            name: name.to_string(),
            hint: self.nearest_name(name),
            registered: self.names().iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Look up a factory, panicking with the available names on a miss.
    /// For registry-internal/static names only — anything that can
    /// carry a user-typed name goes through [`AlgoRegistry::lookup`].
    pub fn expect(&self, name: &str) -> &dyn AlgoFactory {
        self.lookup(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The registered name closest to `name` by edit distance, when
    /// close enough to plausibly be a typo.
    fn nearest_name(&self, name: &str) -> Option<String> {
        let budget = (name.chars().count() / 3).max(2);
        self.factories
            .keys()
            .map(|k| (edit_distance(name, k), k))
            .filter(|&(d, _)| d <= budget)
            .min_by_key(|&(d, k)| (d, k.clone()))
            .map(|(_, k)| k.clone())
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// (name, description) pairs, sorted by name.
    pub fn catalogue(&self) -> Vec<(&str, String)> {
        self.factories
            .iter()
            .map(|(n, f)| (n.as_str(), f.description()))
            .collect()
    }

    /// Number of registered factories.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

/// An algorithm name no factory is registered under: the name, the
/// catalogue, and — when plausible — the typo the caller meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgo {
    pub name: String,
    /// Closest registered name by edit distance, if close enough.
    pub hint: Option<String>,
    /// Every registered name, sorted.
    pub registered: Vec<String>,
}

impl std::fmt::Display for UnknownAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no algorithm {:?} in the registry", self.name)?;
        if let Some(hint) = &self.hint {
            write!(f, " (did you mean {hint:?}?)")?;
        }
        write!(f, "; registered: {:?}", self.registered)
    }
}

impl std::error::Error for UnknownAlgo {}

/// Levenshtein distance (for the unknown-algorithm and unknown-backend
/// nearest-name hints).
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Factory for the probe-everything reference algorithm.
pub struct BruteForceFactory;

impl AlgoFactory for BruteForceFactory {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn description(&self) -> String {
        "probe every overlay member; optimal accuracy, worst cost".into()
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(BruteForce::new(ctx.store, ctx.overlay.to_vec()))
    }
}

/// Factory for the zero-intelligence baseline.
pub struct RandomChoiceFactory;

impl AlgoFactory for RandomChoiceFactory {
    fn name(&self) -> &str {
        "random"
    }

    fn description(&self) -> String {
        "pick one random member; lower bound on accuracy".into()
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(RandomChoice::new(ctx.store, ctx.overlay.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::{LatencyMatrix, Target};
    use np_topology::ClusterWorldSpec;
    use np_util::rng::rng_from;
    use np_util::Micros;

    fn small_ctx() -> (ClusterWorld, LatencyMatrix, Vec<PeerId>) {
        let spec = ClusterWorldSpec {
            clusters: 3,
            en_per_cluster: 6,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 4,
        };
        let world = ClusterWorld::generate(spec, 5);
        let matrix = world.to_matrix();
        let overlay: Vec<PeerId> = world.peers().skip(4).collect();
        (world, matrix, overlay)
    }

    #[test]
    fn registry_roundtrip_and_names() {
        let mut reg = AlgoRegistry::new();
        assert!(reg.is_empty());
        reg.register(Box::new(BruteForceFactory));
        reg.register(Box::new(RandomChoiceFactory));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["brute-force", "random"]);
        assert!(reg.get("brute-force").is_some());
        assert!(reg.get("meridian").is_none());
        let cat = reg.catalogue();
        assert_eq!(cat[0].0, "brute-force");
        assert!(cat[0].1.contains("probe every"));
    }

    #[test]
    #[should_panic(expected = "no algorithm \"nope\"")]
    fn expect_names_the_missing_algo() {
        AlgoRegistry::new().expect("nope");
    }

    #[test]
    fn lookup_reports_catalogue_and_typo_hint() {
        let mut reg = AlgoRegistry::new();
        reg.register(Box::new(BruteForceFactory));
        reg.register(Box::new(RandomChoiceFactory));
        assert!(reg.lookup("random").is_ok());
        let Err(err) = reg.lookup("randmo") else {
            panic!("lookup of a typo must fail")
        };
        assert_eq!(err.name, "randmo");
        assert_eq!(err.hint.as_deref(), Some("random"));
        assert_eq!(err.registered, vec!["brute-force", "random"]);
        let msg = err.to_string();
        assert!(msg.contains("did you mean \"random\"?"), "{msg}");
        assert!(msg.contains("brute-force"), "{msg}");
        // Nothing close: no hint, catalogue still listed.
        let Err(err) = reg.lookup("meridian") else {
            panic!("lookup of an unregistered name must fail")
        };
        assert_eq!(err.hint, None);
        assert!(err.to_string().contains("registered"), "{err}");
    }

    #[test]
    fn edit_distance_smoke() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("meridian", "meridian"), 0);
        assert_eq!(edit_distance("meridain", "meridian"), 2);
        assert_eq!(edit_distance("tiers", "tapestry"), 5);
    }

    #[test]
    fn build_cache_recovers_from_poison() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = BuildCache::new();
        cache.get_or_build("good", || 1u32);
        // A factory that panics *while holding the cache lock* poisons
        // the mutex; later callers must still be served.
        let result = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build::<u32>("bad", || panic!("factory exploded"));
        }));
        assert!(result.is_err(), "panic propagates to the failing cell");
        assert_eq!(*cache.get_or_build("good", || 99u32), 1, "cache state survives");
        assert_eq!(*cache.get_or_build("fresh", || 7u32), 7, "new builds still work");
    }

    #[test]
    fn built_algos_run_over_dyn_store() {
        let (world, matrix, overlay) = small_ctx();
        let shared = BuildCache::new();
        let ctx = AlgoContext {
            store: &matrix,
            world: &world,
            overlay: &overlay,
            seed: 7,
            threads: 1,
            shared: &shared,
        };
        let bf = BruteForceFactory.build(&ctx);
        let rnd = RandomChoiceFactory.build(&ctx);
        assert_eq!(bf.name(), "brute-force");
        assert_eq!(rnd.name(), "random");
        let target = world.peers().next().expect("non-empty world");
        let t = Target::new(target, &matrix);
        let out = bf.find_nearest(&t, &mut rng_from(1));
        assert_eq!(out.found, matrix.nearest_within(target, &overlay).unwrap());
        let t2 = Target::new(target, &matrix);
        let out2 = rnd.find_nearest(&t2, &mut rng_from(1));
        assert_eq!(out2.probes, 1);
    }

    #[test]
    fn reregistering_replaces() {
        struct Custom;
        impl AlgoFactory for Custom {
            fn name(&self) -> &str {
                "brute-force"
            }
            fn description(&self) -> String {
                "custom".into()
            }
            fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
                Box::new(RandomChoice::new(ctx.store, ctx.overlay.to_vec()))
            }
        }
        let mut reg = AlgoRegistry::new();
        reg.register(Box::new(BruteForceFactory));
        reg.register(Box::new(Custom));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.expect("brute-force").description(), "custom");
    }
}
