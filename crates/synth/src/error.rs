//! Error type for technology mapping.

use std::error::Error;
use std::fmt;

use vpga_netlist::NetlistError;

/// Errors raised while mapping a netlist onto a library.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SynthError {
    /// The input netlist was malformed.
    Netlist(NetlistError),
    /// A gate function could not be matched onto any cell or
    /// configuration of the target library (the library is not
    /// functionally complete for the design).
    Unmappable {
        /// The function that failed to match.
        function: vpga_logic::Tt3,
        /// Number of inputs the function was matched over.
        leaves: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Netlist(e) => write!(f, "netlist error during synthesis: {e}"),
            SynthError::Unmappable { function, leaves } => write!(
                f,
                "no library cell implements gate function {function} over {leaves} inputs"
            ),
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SynthError {
    fn from(e: NetlistError) -> SynthError {
        SynthError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SynthError::Unmappable {
            function: vpga_logic::Tt3::XOR3,
            leaves: 3,
        };
        assert!(e.to_string().contains("0x96"));
    }
}
