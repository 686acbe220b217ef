//! # np-dht
//!
//! Two structured-overlay *searchers* (the ROADMAP's "DHT and
//! graph-walk" family), registered as first-class `AlgoFactory` entries
//! so every figure and world backend applies:
//!
//! * [`kademlia`] — iterative XOR-metric lookup with a k-closest
//!   frontier and α parallel probes per round,
//! * [`nsw`] — a navigable small-world graph built by greedy seeded
//!   insertion in latency space, queried by multi-start greedy descent.
//!
//! Paper §5 names DHTs (Chord, CAN, Pastry) only as a place a
//! deployment could host the remedies' key-value map, and evaluates
//! the remedies over "a perfect key-value map", which `np-remedies`
//! keeps in process. This crate asks a sharper question: does
//! structured-overlay *search* find the nearest peer?

pub mod kademlia;
pub mod nsw;

pub use kademlia::{KademliaConfig, KademliaFactory, KademliaLookup, KademliaRing};
pub use nsw::{NswConfig, NswFactory, NswGraph, NswWalk};
