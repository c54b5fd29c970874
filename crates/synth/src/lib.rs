//! Technology mapping onto restricted VPGA component libraries — the
//! "Synthesis, Mapping (Design Compiler)" stage of the paper's flow
//! (Figure 6).
//!
//! [`map_netlist_fast`] is a per-gate translator, the model of what a
//! commercial synthesizer does with a *restricted* component library
//! (§3.1): each generic gate becomes the cheapest component cell that
//! implements it, Boolean-matched onto the target
//! [`vpga_core::PlbArchitecture`] by pin binding + via configuration (see
//! `vpga_core::matcher`), or the cheapest multi-cell PLB configuration
//! when no single cell does. Cross-gate collapsing is left to the
//! regularity-driven compaction of `vpga-compact`, which the flow runs
//! next.
//!
//! Mapping preserves function; the test-suite proves it by co-simulating
//! the generic and mapped netlists on random stimulus.
//!
//! # Example
//!
//! ```
//! use vpga_core::PlbArchitecture;
//! use vpga_designs::{alu, DesignParams};
//! use vpga_netlist::library::generic;
//! use vpga_synth::map_netlist_fast;
//!
//! let design = alu(&DesignParams::tiny());
//! let arch = PlbArchitecture::granular();
//! let mapped = map_netlist_fast(&design, &generic::library(), &arch)?;
//! assert!(mapped.validate(arch.library()).is_ok());
//! # Ok::<(), vpga_synth::SynthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod map;

pub use error::SynthError;
pub use map::{map_netlist_fast, MappingStats};
