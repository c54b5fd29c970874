//! # vpga — Via-Patterned Gate Array logic-block granularity exploration
//!
//! A from-scratch Rust reproduction of *Exploring Logic Block Granularity
//! for Regular Fabrics* (Koorapaty, Kheterpal, Gopalakrishnan, Fu, Pileggi —
//! DATE 2004): the paper's granular heterogeneous patternable logic block
//! (PLB), the LUT-based PLB it is compared against, and the complete CAD
//! flow (synthesis/mapping, regularity-driven logic compaction,
//! timing-driven placement, quadrisection packing, routing, and static
//! timing analysis) used to regenerate every table and figure of its
//! evaluation.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`logic`] | `vpga-logic` | truth tables, NPN classes, S3/Figure-2 analysis |
//! | [`netlist`] | `vpga-netlist` | netlists, component libraries, simulation |
//! | [`core`] | `vpga-core` | the PLB architectures, configs, characterization |
//! | [`synth`] | `vpga-synth` | per-gate technology mapping |
//! | [`designs`] | `vpga-designs` | ALU / FPU / switch / Firewire generators |
//! | [`flowmap`] | `vpga-flowmap` | FlowMap max-flow/min-cut labeling |
//! | [`compact`] | `vpga-compact` | regularity-driven logic compaction |
//! | [`place`] | `vpga-place` | annealing placement + buffer insertion |
//! | [`pack`] | `vpga-pack` | recursive-quadrisection PLB packing |
//! | [`route`] | `vpga-route` | negotiated-congestion global routing |
//! | [`timing`] | `vpga-timing` | post-layout static timing analysis |
//! | [`flow`] | `vpga-flow` | flows a/b, Table 1/2 assembly, §3.2 claims |
//! | [`fabric`] | `vpga-fabric` | via-pattern generation and reconstruction |
//! | [`interchange`] | `vpga-interchange` | SDF timing export, `.vxdl` text codec |
//! | [`serve`] | `vpga-serve` | flow daemon: HTTP jobs, artifact cache, drain |
//!
//! # Quickstart
//!
//! ```
//! use vpga::core::PlbArchitecture;
//! use vpga::designs::{alu, DesignParams};
//! use vpga::flow::{run_design, FlowConfig};
//!
//! let design = alu(&DesignParams::tiny());
//! let arch = PlbArchitecture::granular();
//! let outcome = run_design(&design, &arch, &FlowConfig::default())?;
//! println!("die area: {:.0} µm²", outcome.flow_b.die_area);
//! # Ok::<(), vpga::flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vpga_compact as compact;
pub use vpga_core as core;
pub use vpga_designs as designs;
pub use vpga_fabric as fabric;
pub use vpga_flow as flow;
pub use vpga_flowmap as flowmap;
pub use vpga_interchange as interchange;
pub use vpga_logic as logic;
pub use vpga_netlist as netlist;
pub use vpga_pack as pack;
pub use vpga_place as place;
pub use vpga_route as route;
pub use vpga_serve as serve;
pub use vpga_synth as synth;
pub use vpga_timing as timing;
