//! Timing-driven placement and physical synthesis — the Dolphin substitute.
//!
//! The paper's flow uses "a commercial tool called Dolphin from Monterey
//! Design Systems to perform physical synthesis and placement ... a
//! detailed ASIC-style placement that has been optimized for performance,
//! area and routability" (§3.1), including buffer insertion. This crate
//! provides the open equivalent:
//!
//! * [`Placement`] — cell coordinates on a uniform site grid sized from the
//!   total cell area at [`UTILIZATION`], with primary I/O pinned to the die
//!   periphery,
//! * [`place`] — VPR-style simulated annealing minimizing
//!   criticality-weighted half-perimeter wirelength, [`MOVES_PER_CELL`]
//!   moves per cell per temperature step, with adaptive range limiting,
//! * [`refine`] — the same annealer from an existing placement at reduced
//!   temperature, honouring region constraints and fixed cells (the hooks
//!   the packing iteration of §3.1 uses),
//! * [`insert_buffers`] — post-placement repeater insertion on long or
//!   high-fanout nets (the physical-synthesis netlist edits the paper
//!   attributes to Dolphin).
//!
//! [`place`] and [`refine`] are the crate's only entry points; both return
//! the annealer's [`PlaceStats`] and report infeasible inputs as a
//! [`PlaceError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod buffers;
mod error;
mod grid;

pub use anneal::{place, refine, PlaceConfig, PlaceStats, MOVES_PER_CELL, UTILIZATION};
pub use buffers::{insert_buffers, BufferReport};
pub use error::PlaceError;
pub use grid::{Placement, Rect};
