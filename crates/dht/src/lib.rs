//! # np-dht
//!
//! A Chord distributed hash table (Stoica et al., SIGCOMM 2001).
//!
//! Paper §5: *"The participant peers can themselves host the key-value
//! maps required above, using one of several distributed hash table
//! (DHT) designs available (Chord, CAN, Pastry, etc.). Many DHTs assume
//! that keys are uniformly distributed, which may not be the case with
//! IP addresses. In such scenarios, the IP addresses can be hashed to
//! compute the keys."*
//!
//! This crate supplies exactly that substrate for the UCL and IP-prefix
//! registries in `np-remedies`:
//!
//! * [`hash`] — the 64-bit identifier ring and interval arithmetic
//!   (SplitMix64 as the documented non-cryptographic SHA-1 stand-in,
//!   giving the uniform key distribution the quote above asks for),
//! * [`chord`] — the ring: finger tables, successor lists, iterative
//!   lookup with hop accounting, node join and (idealised) stabilisation,
//! * [`kv`] — the [`kv::KeyValueMap`] facade: [`kv::PerfectMap`] (the
//!   paper's "we assume a perfect key-value map here") and
//!   [`kv::ChordMap`] (the same interface over the real ring, with
//!   lookup-hop telemetry).
//!
//! Two structured-overlay *searchers* also live here (the ROADMAP's
//! "DHT and graph-walk" family), registered as first-class
//! `AlgoFactory` entries so every figure and world backend applies:
//!
//! * [`kademlia`] — iterative XOR-metric lookup with a k-closest
//!   frontier and α parallel probes per round,
//! * [`nsw`] — a navigable small-world graph built by greedy seeded
//!   insertion in latency space, queried by multi-start greedy descent.

pub mod chord;
pub mod hash;
pub mod kademlia;
pub mod kv;
pub mod nsw;

pub use chord::ChordRing;
pub use hash::Key;
pub use kademlia::{KademliaConfig, KademliaFactory, KademliaLookup, KademliaRing};
pub use kv::{ChordMap, KeyValueMap, PerfectMap};
pub use nsw::{NswConfig, NswFactory, NswGraph, NswWalk};
