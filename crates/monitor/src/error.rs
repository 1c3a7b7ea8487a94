//! Error type of the runtime-monitoring crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building an envelope or assembling a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// The monitor's cut layer or envelope does not fit the network.
    Mismatch(String),
    /// An envelope was requested over zero activation samples; an envelope is
    /// the hull of observed data, so there is nothing to build it from.
    EmptyActivations,
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Mismatch(msg) => write!(f, "monitor mismatch: {msg}"),
            MonitorError::EmptyActivations => {
                write!(f, "cannot build an envelope from zero activations")
            }
        }
    }
}

impl Error for MonitorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MonitorError::Mismatch("dim".into())
            .to_string()
            .contains("dim"));
        assert!(MonitorError::EmptyActivations
            .to_string()
            .contains("zero activations"));
    }
}
