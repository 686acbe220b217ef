//! # np-coords
//!
//! Network-coordinate systems and the coordinate-driven nearest-peer
//! search. Paper §2.3: *"under the clustering condition, to assign
//! coordinates to each peer without error would need an impractically
//! huge number of dimensions. With a small number of dimensions, all
//! peers within a cluster would end up having almost the same
//! coordinates, thus making it impossible to tell them apart."* These
//! implementations let the workspace test that argument empirically
//! (extension experiment Ext A).
//!
//! * [`vivaldi`] — Vivaldi (Dabek et al., SIGCOMM'04) with height
//!   vectors and the adaptive timestep of the paper's §2.3,
//! * [`walk`] — the greedy closest-peer walk over coordinates with final
//!   probing, implementing [`np_metric::NearestPeerAlgo`].

pub mod factory;
pub mod vivaldi;
pub mod walk;

pub use vivaldi::{Coord, VivaldiConfig, VivaldiSystem};
pub use factory::CoordWalkFactory;
pub use walk::CoordWalk;
