//! Boolean function kernel for VPGA logic-block architecture exploration.
//!
//! This crate implements the combinational-logic mathematics that the DATE
//! 2004 paper *Exploring Logic Block Granularity for Regular Fabrics* builds
//! its patternable-logic-block (PLB) architecture study on:
//!
//! * compact [`Tt2`]/[`Tt3`] truth tables for 2- and 3-input functions,
//! * Shannon cofactoring ([`Tt3::cofactors`]) — the decomposition
//!   `f(a,b,s) = s'·g(a,b) + s·h(a,b)` from §2.1 of the paper,
//! * NPN canonicalization ([`npn`]), which groups the 256 three-input
//!   functions into their 14 classes for the Figure 2 census,
//! * feasibility sets for the primitive via-patternable cells (ND2WI, ND3WI,
//!   2:1 MUX) and the composite logic configurations the granular PLB offers
//!   (NDMX, XOAMX, XOANDMX) — see [`cells`],
//! * the S3-gate analysis of §2.1 — which of the 256 three-input functions a
//!   MUX fed by two ND2WI gates implements ("at least 196"), the five
//!   categories of infeasible functions from Figure 2, and the *modified S3*
//!   cell of Figure 3 that covers all 256 — see [`s3`],
//! * the full-adder decomposition of §2.2 ([`adder`]).
//!
//! # Example
//!
//! ```
//! use vpga_logic::{Tt3, s3};
//!
//! // 3-input XOR has complementary cofactors everywhere: S3-infeasible.
//! let parity = Tt3::XOR3;
//! assert!(!s3::s3_feasible(parity));
//! // ...but the modified S3 cell of Figure 3 implements every function.
//! assert!(s3::modified_s3_set().contains(parity));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod cells;
mod error;
pub mod lut;
pub mod npn;
pub mod s3;
mod sets;
mod tt3;

pub use error::ArityError;
pub use sets::FunctionSet256;
pub use tt3::{Literal, Tt2, Tt3, Var};
