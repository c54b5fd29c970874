//! Packing/legalization into a regular PLB array by recursive quadrisection
//! (§3.1 of the paper).
//!
//! "Our packing algorithm does this by recursive quadrisection. At each
//! quadrisection level, the component cells are relocated to other regions
//! of the chip depending on the availability of the corresponding resource
//! ... The cost function used in this algorithm takes into consideration
//! the criticality of the cells being moved and also tries to minimize
//! perturbation of the ASIC-style placement."
//!
//! * [`PlbArray`] — the legalized result: a cols×rows grid of
//!   [`vpga_core::PlbInstance`]s with every component cell (or compaction
//!   group) assigned to one PLB; its die area is the flow-b area of
//!   Table 1. The array is sized so the binding resource class is at most
//!   [`TARGET_FILL`] full, and grown up to [`GROWTH_RETRIES`] times if the
//!   design does not fit.
//! * [`pack`] — one quadrisection pass from an ASIC-style placement.
//! * [`pack_iterative`] — the §3.1 loop: pack, pin the well-placed cells,
//!   re-run physical synthesis ([`vpga_place::refine`]) for the rest, and
//!   repack, so that "the performance degradation due to legalizing the
//!   ASIC-style placement is minimal".
//! * [`swap_optimize`] — PLB-level detailed placement after packing.
//!
//! These three are the crate's only entry points. Each returns its
//! engine's stats ([`PackStats`], [`SwapStats`]); the packers take the
//! per-cell criticalities that weight their relocation cost as an
//! argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arena;
mod array;
pub(crate) mod quadrisect;
mod swap;

pub use array::{PackError, PlbArray};
pub use quadrisect::{
    apply_to_placement, pack, pack_iterative, PackConfig, PackStats, GROWTH_RETRIES, TARGET_FILL,
};
pub use swap::{swap_optimize, SwapConfig, SwapStats};
