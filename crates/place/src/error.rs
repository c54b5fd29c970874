//! Typed errors for placement configuration and feasibility.

use std::error::Error;
use std::fmt;

/// Recoverable placement failures surfaced by [`crate::place`] and
/// [`crate::refine`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PlaceError {
    /// `heat` outside `(0, 1]` — the refinement schedule is undefined.
    InvalidHeat(f64),
    /// The site grid cannot seat every movable cell (infeasible start).
    GridTooSmall {
        /// Movable library cells needing a site.
        cells: usize,
        /// Sites the grid provides.
        sites: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::InvalidHeat(h) => write!(f, "refinement heat {h} outside (0, 1]"),
            PlaceError::GridTooSmall { cells, sites } => {
                write!(
                    f,
                    "site grid too small: {cells} movable cells, {sites} sites"
                )
            }
        }
    }
}

impl Error for PlaceError {}
