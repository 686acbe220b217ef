//! # np-meridian
//!
//! A reimplementation of **Meridian** (Wong, Slivkins & Sirer, SIGCOMM
//! 2005) — the nearest-node algorithm the paper under reproduction uses
//! as its reference system (§2.3 analysis, §4 simulations).
//!
//! Structure:
//!
//! * [`rings`] — the per-node multi-ring structure: ring `i` holds peers
//!   with RTT in `[α·sⁱ⁻¹, α·sⁱ)` (α = 1 ms, s = 2), with up to `k`
//!   primary and `l` secondary members per ring,
//! * [`hypervolume`] — ring-membership management: among `k+l` candidates
//!   keep the `k` whose latency-simplex has maximal hypervolume
//!   (Cayley–Menger determinant, greedy backward elimination) — the
//!   "high hypervolume" member selection the paper's §2.3 discusses,
//! * [`overlay`] — overlay construction (omniscient fill, as in the
//!   authors' simulator, or gossip warm-up) and the [`overlay::Overlay`]
//!   type implementing [`np_metric::NearestPeerAlgo`] via β-routing:
//!   probe ring members within `[(1-β)d, (1+β)d]`, forward when the best
//!   reply improves on `β·d`, stop otherwise (β = 0.5, 16 per ring — the
//!   paper's §4 settings).

pub mod factory;
pub mod hypervolume;
pub mod overlay;
pub mod rings;

pub use factory::MeridianFactory;
pub use overlay::{BuildMode, FillOrigin, MeridianConfig, Overlay, RepairStats};
