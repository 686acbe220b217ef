//! Generation of the [`InternetModel`].
//!
//! The build proceeds top-down: ASes and their PoPs (backbone), then each
//! region's access infrastructure, then the populations (orgs/DNS
//! servers, Azureus peers, vantage points), then cross-links and cached
//! shortest paths. All sizing choices are commented with the paper (or
//! general Internet-measurement) rationale.

use super::*;
use crate::hub::{HubMatrix, MERIDIAN_MEDIAN_MS};
use crate::ip::IpAllocator;
use crate::names::Annotation;
use np_metric::graph::{Graph, NodeId};
use np_util::dist::{self, Zipf};
use np_util::rng::{rng_for, sub_seed};
use rand::rngs::StdRng;
use rand::Rng;

/// Mutable world-in-progress.
struct Builder {
    params: WorldParams,
    pops: Vec<Pop>,
    routers: Vec<Router>,
    end_nets: Vec<EndNet>,
    hosts: Vec<Host>,
    alloc: IpAllocator,
    /// Per-pop bookkeeping.
    per_pop: Vec<PopState>,
    /// Per-AS infra address block and router sequence.
    as_infra: Vec<(crate::ip::Prefix, u32)>,
    pop_as: Vec<u16>,
    /// Next host index per end-network (indexed by `EndNetId`).
    en_host_seq: Vec<u32>,
    /// Per-AS national home pool (/13) and its next /22 index. Consumer
    /// ISPs allocate home addresses from country-wide pools, which is
    /// what keeps Figure 11's false-positive floor high: a 13/14-bit
    /// prefix match says "same ISP", not "same city".
    as_national: Vec<(crate::ip::Prefix, u64)>,
}

struct PopState {
    /// /15 block of the pop; lower /16 = end-nets, upper /16 = home pools.
    block: crate::ip::Prefix,
    aggs: Vec<RouterId>,
    dslams: Vec<RouterId>,
    dslam_home_seq: Vec<u32>,
    /// Per-DSLAM access-technology factor: cable/fibre areas run faster
    /// last miles than interleaved DSL ones, which is what spreads the
    /// latency *levels* of Figure 7's clusters apart.
    dslam_tech: Vec<f64>,
    /// Per-DSLAM home address pool (/22) — either carved from the PoP's
    /// block or from the AS-wide national pool.
    dslam_pool: Vec<crate::ip::Prefix>,
    en_count: u32,
    attach_seq: u32,
    /// Generic (non-org) end-networks available for peer placement.
    generic_ens: Vec<EndNetId>,
}

/// Max end-networks per PoP (bounded by the /24s in the lower /16).
const MAX_ENS_PER_POP: u32 = 250;
/// Max homes per DSLAM pool (/22 minus network/broadcast slack).
const MAX_HOMES_PER_DSLAM: u32 = 1_020;

impl Builder {
    fn add_router(
        &mut self,
        pop: PopId,
        kind: RouterKind,
        parent: Option<RouterId>,
        up_lat: Micros,
        anno: Option<Annotation>,
        responsive: bool,
    ) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        let (pop_lat, depth) = match parent {
            None => (Micros::ZERO, 0),
            Some(p) => {
                let pr = &self.routers[p.idx()];
                debug_assert_eq!(pr.pop, pop, "parent in another region");
                (pr.pop_lat + up_lat, pr.depth + 1)
            }
        };
        let as_idx = self.pop_as[pop.idx()] as usize;
        let (infra, seq) = &mut self.as_infra[as_idx];
        let ip = infra.addr((*seq as u64) % infra.size());
        *seq += 1;
        let local = self.pops[pop.idx()].routers.len() as u32;
        self.routers.push(Router {
            pop,
            kind,
            parent,
            up_lat,
            pop_lat,
            depth,
            anno,
            responsive,
            ip,
            local,
            core_dist: Micros::ZERO, // filled in finalise()
        });
        self.pops[pop.idx()].routers.push(id);
        id
    }

    /// ISP annotation for a region, with the configured mis-annotation
    /// rate (wrong city — the rockettrace failure mode the paper calls
    /// out).
    fn isp_anno(&self, pop: PopId, rng: &mut StdRng) -> Option<Annotation> {
        let p = &self.pops[pop.idx()];
        let city = if dist::coin(rng, self.params.p_misconfig) {
            rng.gen_range(0..self.pops.len() as u16)
        } else {
            p.city_id
        };
        Some(Annotation {
            as_id: p.as_id,
            city_id: city,
        })
    }

    /// Pick (or lazily create) the aggregation router a new attach router
    /// should hang off. Roughly one agg per 6 attachments; aggs sit close
    /// to the core (metro links), occasionally chained one level deeper.
    fn pick_parent(&mut self, pop: PopId, rng: &mut StdRng) -> (RouterId, bool) {
        let st = &self.per_pop[pop.idx()];
        let want_aggs = (st.attach_seq / 6 + 1) as usize;
        // Most attachments go through one or two aggregation levels —
        // metro access trees are deeper than a pure star, which is what
        // Figure 10's hop-length distribution measures.
        if dist::coin(rng, 0.3) {
            return (self.pops[pop.idx()].core, false);
        }
        if self.per_pop[pop.idx()].aggs.len() < want_aggs {
            let chain = dist::coin(rng, 0.45) && !self.per_pop[pop.idx()].aggs.is_empty();
            let parent = if chain {
                let aggs = &self.per_pop[pop.idx()].aggs;
                aggs[rng.gen_range(0..aggs.len())]
            } else {
                self.pops[pop.idx()].core
            };
            let up = Micros::from_ms(dist::uniform(rng, 0.3, 2.0));
            let anno = self.isp_anno(pop, rng);
            let responsive = dist::coin(rng, self.params.p_router_responsive);
            let agg = self.add_router(pop, RouterKind::Agg, Some(parent), up, anno, responsive);
            self.per_pop[pop.idx()].aggs.push(agg);
        }
        let aggs = &self.per_pop[pop.idx()].aggs;
        (aggs[rng.gen_range(0..aggs.len())], true)
    }

    /// Create an end-network in `pop`.
    fn add_end_net(&mut self, pop: PopId, org: Option<OrgId>, rng: &mut StdRng) -> EndNetId {
        let (parent, _) = self.pick_parent(pop, rng);
        // The customer access link carries the bulk of the last-hop
        // latency (0.5–8 ms): this is the paper's "end-networks at about
        // the same [few-ms] latency from the PoP".
        let up = Micros::from_ms(dist::uniform(rng, 0.5, 8.0));
        // Customer gateways carry no ISP annotation (rockettrace cannot
        // map them to an ISP PoP) and answer probes often enough.
        let gw = self.add_router(pop, RouterKind::Gateway, Some(parent), up, None, {
            dist::coin(rng, 0.8)
        });
        self.per_pop[pop.idx()].attach_seq += 1;
        let multihomed = dist::coin(rng, self.params.p_multihomed);
        let st = &mut self.per_pop[pop.idx()];
        let prefix = if multihomed {
            self.alloc.pi_slash24()
        } else {
            let en_idx = st.en_count.min(MAX_ENS_PER_POP - 1);
            st.block.subnet(16, 0).subnet(24, en_idx as u64)
        };
        st.en_count += 1;
        let secondary_pop = if multihomed {
            let n = self.pops.len();
            let other = (pop.idx() + 1 + rng.gen_range(0..n - 1)) % n;
            Some(PopId(other as u16))
        } else {
            None
        };
        let id = EndNetId(self.end_nets.len() as u32);
        self.end_nets.push(EndNet {
            pop,
            gateway: gw,
            prefix,
            org,
            secondary_pop,
        });
        self.en_host_seq.push(0);
        if org.is_none() {
            self.per_pop[pop.idx()].generic_ens.push(id);
        }
        id
    }

    fn add_host_in_en(
        &mut self,
        en: EndNetId,
        kind: HostKind,
        icmp: bool,
        tcp: bool,
        route_stable: bool,
        rng: &mut StdRng,
    ) -> HostId {
        let seq = &mut self.en_host_seq[en.idx()];
        let host_idx = (*seq as u64 % 253) + 1; // skip network address
        *seq += 1;
        let ip = self.end_nets[en.idx()].prefix.addr(host_idx);
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            kind,
            attach: Attachment::EndNet(en),
            access_lat: Micros::from_us(dist::uniform(rng, 50.0, 400.0) as u64),
            ip,
            icmp_responsive: icmp,
            tcp_responsive: tcp,
            route_stable,
        });
        id
    }
}

impl InternetModel {
    /// Generate a world from `params` and `seed`.
    pub fn generate(params: WorldParams, seed: u64) -> InternetModel {
        assert!(params.pops_per_as.1 <= 7, "a /12 holds at most 7 pop /15s");
        assert!(params.dslams_per_pop.1 <= 60, "a /16 holds 64 /22 pools");
        let mut rng = rng_for(seed, 0x49_4E_54); // "INT"

        // ---- ASes and PoPs ----------------------------------------------
        let mut pop_as: Vec<u16> = Vec::new();
        for a in 0..params.n_as as u16 {
            let k = rng.gen_range(params.pops_per_as.0..=params.pops_per_as.1);
            for _ in 0..k {
                pop_as.push(a);
            }
        }
        let n_pops = pop_as.len();
        // One worker: a second joins only at 2 x 2^16 pairs, and the
        // paper-scale world draws about 440 PoPs (96,580 pairs at the
        // figures' seed; 419-463 at seeds 1, 7 and 42), the quick one
        // 77. The bits are the same at any worker count
        // (`synthetic_threads_matches_the_serial_reference`).
        let hubs = HubMatrix::synthetic(n_pops.max(2), MERIDIAN_MEDIAN_MS, sub_seed(seed, 1), 1);

        // ---- backbone: PoP graph ----------------------------------------
        let mut pop_graph = Graph::with_nodes(n_pops);
        let add_pop_edge = |g: &mut Graph, a: usize, b: usize| {
            if a != b {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), hubs.rtt(a, b));
            }
        };
        // Intra-AS chains.
        for a in 0..params.n_as as u16 {
            let mine: Vec<usize> = (0..n_pops).filter(|&p| pop_as[p] == a).collect();
            for w in mine.windows(2) {
                add_pop_edge(&mut pop_graph, w[0], w[1]);
            }
        }
        // Inter-AS: ring over first PoPs (connectivity) + random peering.
        let first_pop: Vec<usize> = (0..params.n_as as u16)
            .filter_map(|a| (0..n_pops).find(|&p| pop_as[p] == a))
            .collect();
        for i in 0..first_pop.len() {
            add_pop_edge(
                &mut pop_graph,
                first_pop[i],
                first_pop[(i + 1) % first_pop.len()],
            );
        }
        for &p in &first_pop {
            // Two extra peering links per AS spread path diversity.
            for _ in 0..2 {
                let q = rng.gen_range(0..n_pops);
                add_pop_edge(&mut pop_graph, p, q);
            }
        }

        // All-pairs PoP distances.
        let mut pop_dist = vec![0u32; n_pops * n_pops];
        let mut pop_sp = Vec::with_capacity(n_pops);
        for p in 0..n_pops {
            let sp = pop_graph.dijkstra(NodeId(p as u32), Micros::INFINITY);
            for q in 0..n_pops {
                let d = sp.dist(NodeId(q as u32));
                assert!(!d.is_infinite(), "backbone must be connected");
                pop_dist[p * n_pops + q] = d.as_us() as u32;
            }
            pop_sp.push(sp);
        }

        // ---- vantage-point PoPs: farthest-point sampling -----------------
        let mut vp_pops: Vec<usize> = vec![0];
        while vp_pops.len() < 7.min(n_pops) {
            let next = (0..n_pops)
                .filter(|p| !vp_pops.contains(p))
                .max_by_key(|&p| {
                    vp_pops
                        .iter()
                        .map(|&v| pop_dist[p * n_pops + v])
                        .min()
                        .unwrap_or(0)
                })
                .expect("pops remain");
            vp_pops.push(next);
        }
        let vp_pop_parent: Vec<Vec<u16>> = vp_pops
            .iter()
            .map(|&v| {
                (0..n_pops)
                    .map(|q| match pop_sp[v].path_to(NodeId(q as u32)) {
                        Some(path) if path.len() >= 2 => path[path.len() - 2].0 as u16,
                        _ => u16::MAX,
                    })
                    .collect()
            })
            .collect();
        drop(pop_sp);

        // ---- regions ------------------------------------------------------
        let mut b = Builder {
            params: params.clone(),
            pops: Vec::with_capacity(n_pops),
            routers: Vec::new(),
            end_nets: Vec::new(),
            hosts: Vec::new(),
            alloc: IpAllocator::new(),
            per_pop: Vec::with_capacity(n_pops),
            as_infra: Vec::new(),
            pop_as: pop_as.clone(),
            en_host_seq: Vec::new(),
            as_national: Vec::new(),
        };
        // Address blocks: a /12 per AS; its /16 #15 is router infra.
        let mut as_pop_counter = vec![0u64; params.n_as];
        let mut as_blocks = Vec::with_capacity(params.n_as);
        for _ in 0..params.n_as {
            let block = b.alloc.provider_block(12);
            b.as_infra.push((block.subnet(16, 15), 0));
            as_blocks.push(block);
            b.as_national.push((b.alloc.provider_block(13), 0));
        }
        for (p, &as_id) in pop_as.iter().enumerate() {
            let as_idx = as_id as usize;
            let k = as_pop_counter[as_idx];
            as_pop_counter[as_idx] += 1;
            let block = as_blocks[as_idx].subnet(15, k);
            b.pops.push(Pop {
                as_id,
                city_id: p as u16,
                core: RouterId(u32::MAX), // set below
                routers: Vec::new(),
                graph: Graph::default(), // set in finalise
            });
            b.per_pop.push(PopState {
                block,
                aggs: Vec::new(),
                dslams: Vec::new(),
                dslam_home_seq: Vec::new(),
                dslam_tech: Vec::new(),
                dslam_pool: Vec::new(),
                en_count: 0,
                attach_seq: 0,
                generic_ens: Vec::new(),
            });
            let anno = Some(Annotation {
                as_id: pop_as[p],
                city_id: p as u16,
            });
            // PoP cores answer probes: they are the paper's cluster-hubs.
            let core = b.add_router(PopId(p as u16), RouterKind::PopCore, None, Micros::ZERO, anno, true);
            b.pops[p].core = core;
            // DSLAMs for home users.
            let n_dslam = rng.gen_range(params.dslams_per_pop.0..=params.dslams_per_pop.1);
            for _ in 0..n_dslam {
                let (parent, _) = b.pick_parent(PopId(p as u16), &mut rng);
                let up = Micros::from_ms(dist::uniform(&mut rng, 0.5, 3.0));
                let anno = b.isp_anno(PopId(p as u16), &mut rng);
                let responsive = dist::coin(&mut rng, params.p_dslam_responsive);
                let d = b.add_router(
                    PopId(p as u16),
                    RouterKind::Dslam,
                    Some(parent),
                    up,
                    anno,
                    responsive,
                );
                b.per_pop[p].dslams.push(d);
                let di = b.per_pop[p].dslam_home_seq.len();
                b.per_pop[p].dslam_home_seq.push(0);
                let tech = dist::log_normal(&mut rng, 0.0, 0.5).clamp(0.95, 4.0);
                b.per_pop[p].dslam_tech.push(tech);
                // Half the pools are national (AS-wide), half PoP-local.
                let pool = if dist::coin(&mut rng, 0.5) {
                    let (national, next) = &mut b.as_national[as_idx];
                    let idx = *next % 512;
                    *next += 1;
                    national.subnet(22, idx)
                } else {
                    b.per_pop[p].block.subnet(16, 1).subnet(22, (di % 64) as u64)
                };
                b.per_pop[p].dslam_pool.push(pool);
            }
        }

        // PoP popularity: Zipf with mild skew (s = 0.5) so metro PoPs host
        // many orgs/peers without blowing the per-PoP address budget.
        let zipf = Zipf::new(n_pops, 0.5);
        // Home users concentrate harder than orgs do (big consumer metro
        // PoPs): a steeper Zipf drives the large clusters of Figure 6.
        let home_zipf = Zipf::new(n_pops, 0.7);
        let mut pop_order: Vec<usize> = (0..n_pops).collect();
        use rand::seq::SliceRandom;
        pop_order.shuffle(&mut rng);
        let pick_pop = |rng: &mut StdRng, b: &Builder| -> PopId {
            let mut p = PopId(pop_order[zipf.sample(rng) - 1] as u16);
            // Redirect when the pop's EN budget is exhausted.
            let mut guard = 0;
            while b.per_pop[p.idx()].en_count >= MAX_ENS_PER_POP {
                p = PopId(rng.gen_range(0..n_pops) as u16);
                guard += 1;
                assert!(guard < 1_000, "EN budget exhausted everywhere");
            }
            p
        };

        // ---- orgs and DNS servers ----------------------------------------
        let dns_start = b.hosts.len() as u32;
        for org in 0..params.n_orgs as u32 {
            let org = OrgId(org);
            let pop1 = pick_pop(&mut rng, &b);
            let en1 = b.add_end_net(pop1, Some(org), &mut rng);
            // Geographically split org: second site in another PoP.
            let en2 = if dist::coin(&mut rng, params.p_org_split) {
                let pop2 = pick_pop(&mut rng, &b);
                Some(b.add_end_net(pop2, Some(org), &mut rng))
            } else {
                None
            };
            let n_servers = rng.gen_range(params.dns_per_org.0..=params.dns_per_org.1);
            for s in 0..n_servers {
                let en = match en2 {
                    Some(e2) if s % 2 == 1 => e2,
                    _ => en1,
                };
                let icmp = dist::coin(&mut rng, params.p_dns_icmp);
                b.add_host_in_en(en, HostKind::Dns { org }, icmp, false, true, &mut rng);
            }
        }
        let dns_end = b.hosts.len() as u32;

        // ---- Azureus peers -------------------------------------------------
        let az_start = b.hosts.len() as u32;
        for _ in 0..params.n_azureus {
            let tcp = dist::coin(&mut rng, params.p_azureus_tcp);
            let stable = dist::coin(&mut rng, params.p_route_stable);
            if dist::coin(&mut rng, params.p_home_peer) {
                // Home user behind a DSLAM; heavy-tailed last mile.
                let pop = PopId(pop_order[home_zipf.sample(&mut rng) - 1] as u16);
                let st = &mut b.per_pop[pop.idx()];
                let di = rng.gen_range(0..st.dslams.len());
                let dslam = st.dslams[di];
                let seq = st.dslam_home_seq[di];
                st.dslam_home_seq[di] += 1;
                let pool = st.dslam_pool[di];
                // Address reuse past the pool size models CGNAT blocks.
                let ip = pool.addr((seq % MAX_HOMES_PER_DSLAM) as u64 + 2);
                let tech = st.dslam_tech[di];
                let last_mile_ms =
                    (tech * dist::log_normal(&mut rng, 9.0f64.ln(), 0.35)).clamp(2.0, 60.0);
                b.hosts.push(Host {
                    kind: HostKind::Azureus,
                    attach: Attachment::Home { dslam },
                    access_lat: Micros::from_ms(last_mile_ms),
                    ip,
                    icmp_responsive: dist::coin(&mut rng, 0.05),
                    tcp_responsive: tcp,
                    route_stable: stable,
                });
            } else {
                // Campus/corporate peer in a (mostly shared) generic EN.
                let pop = pick_pop(&mut rng, &b);
                let reuse = {
                    let pool = &b.per_pop[pop.idx()].generic_ens;
                    if !pool.is_empty() && dist::coin(&mut rng, 0.85) {
                        Some(pool[rng.gen_range(0..pool.len())])
                    } else {
                        None
                    }
                };
                let en = match reuse {
                    Some(e) => e,
                    None => b.add_end_net(pop, None, &mut rng),
                };
                b.add_host_in_en(
                    en,
                    HostKind::Azureus,
                    dist::coin(&mut rng, 0.1),
                    tcp,
                    stable,
                    &mut rng,
                );
            }
        }
        let az_end = b.hosts.len() as u32;

        // ---- vantage points -------------------------------------------------
        let mut vantage_points = Vec::with_capacity(vp_pops.len());
        for &vp in &vp_pops {
            let en = b.add_end_net(PopId(vp as u16), None, &mut rng);
            // Vantage points are well-connected university networks: force
            // a short, stable access path.
            let gw = b.end_nets[en.idx()].gateway;
            let parent = b.routers[gw.idx()].parent.expect("gateway has a parent");
            let parent_pop_lat = b.routers[parent.idx()].pop_lat;
            b.routers[gw.idx()].up_lat = Micros::from_ms(0.5);
            b.routers[gw.idx()].pop_lat = parent_pop_lat + Micros::from_ms(0.5);
            b.routers[gw.idx()].responsive = true;
            b.end_nets[en.idx()].secondary_pop = None;
            let h = b.add_host_in_en(en, HostKind::Vantage, true, true, true, &mut rng);
            vantage_points.push(h);
        }

        // ---- cross-links + region graphs + cached core distances ----------
        let mut model = InternetModel {
            params,
            pops: b.pops,
            routers: b.routers,
            end_nets: b.end_nets,
            hosts: b.hosts,
            n_orgs: b.params.n_orgs,
            dns_range: dns_start..dns_end,
            azureus_range: az_start..az_end,
            vantage_points,
            pop_dist,
            vp_pop_parent,
        };
        model.finalise_regions(&mut rng);
        model
    }

    /// Build per-region graphs (tree uplinks + cross-links) and cache each
    /// router's shortest-path distance to its PoP core.
    fn finalise_regions(&mut self, rng: &mut StdRng) {
        for p in 0..self.pops.len() {
            let router_ids = self.pops[p].routers.clone();
            let mut g = Graph::with_nodes(router_ids.len());
            for (local, &rid) in router_ids.iter().enumerate() {
                let r = &self.routers[rid.idx()];
                debug_assert_eq!(r.local as usize, local);
                if let Some(parent) = r.parent {
                    let pl = self.routers[parent.idx()].local;
                    g.add_edge(NodeId(local as u32), NodeId(pl), r.up_lat);
                }
            }
            // Cross-links: alternate intra-metro paths invisible to the
            // traceroute tree (the Figure-4 "measured < predicted" source).
            let expected = self.params.cross_link_density * router_ids.len() as f64;
            let n_links = expected.floor() as usize
                + usize::from(dist::coin(rng, expected.fract()));
            if router_ids.len() >= 3 {
                for _ in 0..n_links {
                    let a = rng.gen_range(1..router_ids.len()); // skip core
                    let bq = rng.gen_range(1..router_ids.len());
                    if a != bq {
                        let w = Micros::from_ms(dist::uniform(rng, 0.3, 2.0));
                        g.add_edge(NodeId(a as u32), NodeId(bq as u32), w);
                    }
                }
            }
            // Metro IXP: a fraction of the gateways peer pairwise; each
            // member has one access leg, and member pairs meet at the sum
            // of their legs. Invisible to traceroute (like cross-links).
            let mut ixp_legs: Vec<(usize, f64)> = Vec::new();
            for (local, &rid) in router_ids.iter().enumerate() {
                if self.routers[rid.idx()].kind == RouterKind::Gateway
                    && dist::coin(rng, self.params.p_ixp)
                {
                    ixp_legs.push((local, dist::uniform(rng, 0.2, 1.5)));
                }
            }
            for (i, &(la, lega)) in ixp_legs.iter().enumerate() {
                for &(lb, legb) in ixp_legs.iter().skip(i + 1) {
                    g.add_edge(
                        NodeId(la as u32),
                        NodeId(lb as u32),
                        Micros::from_ms(lega + legb),
                    );
                }
            }
            // Cache core distances over the region graph.
            let core_local = self.routers[self.pops[p].core.idx()].local;
            let sp = g.dijkstra(NodeId(core_local), Micros::INFINITY);
            for (local, &rid) in router_ids.iter().enumerate() {
                let d = sp.dist(NodeId(local as u32));
                debug_assert!(!d.is_infinite(), "region must be connected");
                self.routers[rid.idx()].core_dist = d;
            }
            self.pops[p].graph = g;
        }
    }
}
