//! Timing-driven placement and physical synthesis — the Dolphin substitute.
//!
//! The paper's flow uses "a commercial tool called Dolphin from Monterey
//! Design Systems to perform physical synthesis and placement ... a
//! detailed ASIC-style placement that has been optimized for performance,
//! area and routability" (§3.1), including buffer insertion. This crate
//! provides the open equivalent:
//!
//! * [`Placement`] — cell coordinates on a uniform site grid sized from the
//!   total cell area and a utilization target, with primary I/O pinned to
//!   the die periphery,
//! * [`place`] — VPR-style simulated annealing minimizing
//!   criticality-weighted half-perimeter wirelength, with adaptive range
//!   limiting and support for region constraints and fixed cells (the hooks
//!   the packing iteration of §3.1 uses),
//! * [`insert_buffers`] — post-placement repeater insertion on long or
//!   high-fanout nets (the physical-synthesis netlist edits the paper
//!   attributes to Dolphin).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod buffers;
mod error;
mod grid;

pub use anneal::{
    place, place_with_stats, refine, refine_with_stats, try_place_with_stats,
    try_refine_with_stats, PlaceConfig, PlaceStats,
};
pub use buffers::{insert_buffers, BufferReport};
pub use error::PlaceError;
pub use grid::{Placement, Rect};
