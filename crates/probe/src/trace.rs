//! Traceroute and the rockettrace annotation layer.
//!
//! The observed trace differs from ground truth the way real traces do:
//! unresponsive routers appear as anonymous hops (`router: None` — the
//! `* * *` lines), every hop RTT carries jitter, router names parse into
//! `(AS, city)` annotations that are occasionally mis-configured (stored
//! on the router at world-generation time), the destination host answers
//! only when ICMP-responsive, and *route-unstable* targets hide their
//! final router from half the vantage points (per-(host, VP) determinism)
//! — the paper's reason for demanding upstream-router agreement across
//! all seven vantage points.

use crate::NoiseConfig;
use np_topology::internet::TraceHop;
use np_topology::names::Annotation;
use np_topology::{HostId, InternetModel, RouterId};
use np_util::rng::{rng_for, splitmix64};
use np_util::Micros;
use rand::rngs::StdRng;

/// One observed hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedHop {
    /// The router, or `None` for an anonymous (`* * *`) hop.
    pub router: Option<RouterId>,
    /// The rockettrace annotation, when the router responded and its
    /// name parsed.
    pub anno: Option<Annotation>,
    /// Measured RTT to the hop (meaningless for anonymous hops).
    pub rtt: Micros,
}

/// An observed traceroute.
#[derive(Debug, Clone)]
pub struct Trace {
    pub vp_idx: usize,
    pub target: HostId,
    pub hops: Vec<ObservedHop>,
    /// Did the destination itself answer (final ICMP echo)?
    pub dest_responded: bool,
    /// RTT to the destination when it answered.
    pub dest_rtt: Option<Micros>,
}

impl Trace {
    /// The paper's "closest upstream router": the last hop with a valid
    /// router. ("If none of the entries in the penultimate hop are valid,
    /// we go up to the next hop(s).")
    pub fn last_valid_router(&self) -> Option<RouterId> {
        self.hops.iter().rev().find_map(|h| h.router)
    }

    /// RTT of the last valid router's hop.
    pub fn last_valid_rtt(&self) -> Option<Micros> {
        self.hops.iter().rev().find(|h| h.router.is_some()).map(|h| h.rtt)
    }
}

/// The traceroute campaign tool.
pub struct Tracer<'w> {
    world: &'w InternetModel,
    noise: NoiseConfig,
    rng: StdRng,
    /// Cached VP access chains (identical prefix of every trace).
    chains: Vec<Vec<TraceHop>>,
}

impl<'w> Tracer<'w> {
    /// Create a tracer. Noise stream: `sub_seed(seed, 0x54524143)`.
    pub fn new(world: &'w InternetModel, noise: NoiseConfig, seed: u64) -> Tracer<'w> {
        let chains = (0..world.vantage_points.len())
            .map(|v| world.vp_chain(v))
            .collect();
        Tracer {
            world,
            noise,
            rng: rng_for(seed, 0x5452_4143), // "TRAC"
            chains,
        }
    }

    /// Run a traceroute from vantage point `vp_idx` to `target`.
    pub fn trace(&mut self, vp_idx: usize, target: HostId) -> Trace {
        let truth = self
            .world
            .trace_route_with_prefix(vp_idx, target, &self.chains[vp_idx]);
        let host = self.world.host(target);
        // Route-unstable targets: vantage points see the access tail cut
        // at different depths (ECMP / ICMP rate-limiting at the access
        // edge). Three deterministic states per (host, VP): full tail,
        // last hop hidden, last two hops hidden — so even targets behind
        // unresponsive access gear still disagree across vantage points.
        let cut = if host.route_stable {
            0
        } else {
            (splitmix64(target.0 as u64 ^ ((vp_idx as u64) << 32)) % 3) as usize
        };
        let visible = &truth[..truth.len().saturating_sub(cut).max(1)];
        let hops = visible
            .iter()
            .map(|h| {
                let r = self.world.router(h.router);
                if r.responsive {
                    ObservedHop {
                        router: Some(h.router),
                        anno: r.anno,
                        rtt: self.noise.sample_rtt(h.rtt, &mut self.rng),
                    }
                } else {
                    ObservedHop {
                        router: None,
                        anno: None,
                        rtt: Micros::ZERO,
                    }
                }
            })
            .collect();
        let dest_rtt = if host.icmp_responsive {
            let t = self.world.rtt(self.world.vantage_points[vp_idx], target);
            Some(self.noise.sample_rtt(t, &mut self.rng))
        } else {
            None
        };
        Trace {
            vp_idx,
            target,
            hops,
            dest_responded: dest_rtt.is_some(),
            dest_rtt,
        }
    }

    /// Render a merged tree of traces to a set of targets — Figure 2's
    /// "sample tree of traceroutes from the measuring host".
    pub fn trace_tree(&mut self, vp_idx: usize, targets: &[HostId]) -> String {
        use std::collections::BTreeMap;
        // children: router -> set of next hops (or target leaves).
        let mut traces = Vec::new();
        for &t in targets {
            traces.push(self.trace(vp_idx, t));
        }
        let mut out = String::new();
        out.push_str(&format!("measuring host (vp{vp_idx})\n"));
        // Group traces by shared prefixes, rendering depth-first.
        fn render(
            traces: &[(usize, &Trace)],
            depth: usize,
            world: &InternetModel,
            out: &mut String,
        ) {
            // Partition by the router at `depth`.
            let mut groups: BTreeMap<Option<u32>, Vec<(usize, &Trace)>> = BTreeMap::new();
            let mut leaves: Vec<&Trace> = Vec::new();
            for &(_, t) in traces {
                match t.hops.get(depth) {
                    Some(h) => groups
                        .entry(h.router.map(|r| r.0))
                        .or_default()
                        .push((depth, t)),
                    None => leaves.push(t),
                }
            }
            for t in leaves {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!("`- host {}\n", world.host(t.target).ip));
            }
            for (router, group) in groups {
                out.push_str(&"  ".repeat(depth + 1));
                match router {
                    Some(r) => {
                        let rt = world.router(RouterId(r));
                        let name = rt
                            .anno
                            .map(|a| np_topology::names::router_name(a, r))
                            .unwrap_or_else(|| format!("{}", rt.ip));
                        out.push_str(&format!("+ {name}\n"));
                    }
                    None => out.push_str("+ * * *\n"),
                }
                render(&group, depth + 1, world, out);
            }
        }
        let refs: Vec<(usize, &Trace)> = traces.iter().map(|t| (0usize, t)).collect();
        render(&refs, 0, self.world, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn world() -> InternetModel {
        InternetModel::generate(WorldParams::quick_scale(), 13)
    }

    #[test]
    fn trace_matches_ground_truth_hops() {
        let w = world();
        let mut tr = Tracer::new(&w, NoiseConfig::default(), 1);
        let target = w.dns_servers().next().expect("dns servers exist");
        let obs = tr.trace(0, target);
        let truth = w.trace_route(0, target);
        assert_eq!(obs.hops.len(), truth.len());
        for (o, t) in obs.hops.iter().zip(&truth) {
            if let Some(r) = o.router {
                assert_eq!(r, t.router);
            } else {
                assert!(!w.router(t.router).responsive, "hidden hop must be unresponsive");
            }
        }
    }

    #[test]
    fn last_valid_router_skips_anonymous_hops() {
        let w = world();
        let mut tr = Tracer::new(&w, NoiseConfig::default(), 2);
        // Find a peer whose attach router is unresponsive.
        for p in w.azureus_peers().take(5_000) {
            if w.host(p).route_stable && !w.router(w.attach_router(p)).responsive {
                let obs = tr.trace(0, p);
                let lv = obs.last_valid_router();
                assert_ne!(lv, Some(w.attach_router(p)));
                if let Some(lv) = lv {
                    assert!(w.router(lv).responsive);
                }
                return;
            }
        }
        panic!("no peer with unresponsive attach router found");
    }

    #[test]
    fn unstable_routes_disagree_across_vps() {
        let w = world();
        let mut tr = Tracer::new(&w, NoiseConfig::default(), 3);
        let mut found_disagreement = false;
        for p in w.azureus_peers().take(2_000) {
            if w.host(p).route_stable {
                continue;
            }
            let answers: Vec<Option<RouterId>> = (0..w.vantage_points.len())
                .map(|v| tr.trace(v, p).last_valid_router())
                .collect();
            if answers.windows(2).any(|w| w[0] != w[1]) {
                found_disagreement = true;
                break;
            }
        }
        assert!(found_disagreement, "unstable peers never disagreed");
    }

    #[test]
    fn stable_peers_agree_across_vps() {
        let w = world();
        let mut tr = Tracer::new(&w, NoiseConfig::default(), 4);
        let mut checked = 0;
        for p in w.azureus_peers().take(2_000) {
            let host = w.host(p);
            if !host.route_stable {
                continue;
            }
            // Multihomed targets may legitimately flip; skip them.
            if let Some(e) = w.end_net_of(p) {
                if w.end_nets[e.idx()].secondary_pop.is_some() {
                    continue;
                }
            }
            let answers: Vec<Option<RouterId>> = (0..w.vantage_points.len())
                .map(|v| tr.trace(v, p).last_valid_router())
                .collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "stable single-homed peer disagreed: {answers:?}"
            );
            checked += 1;
            if checked > 50 {
                break;
            }
        }
        assert!(checked > 10, "too few stable peers checked");
    }

    #[test]
    fn trace_tree_renders() {
        let w = world();
        let mut tr = Tracer::new(&w, NoiseConfig::default(), 5);
        let targets: Vec<HostId> = w.dns_servers().take(6).collect();
        let tree = tr.trace_tree(0, &targets);
        assert!(tree.contains("measuring host"));
        assert!(tree.matches("host ").count() >= 4, "tree:\n{tree}");
    }
}
