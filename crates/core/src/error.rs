//! Error type of the verification crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building or running a verification workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The verified tail (or the characterizer) contains a layer the MILP
    /// encoder cannot represent exactly.
    NotPiecewiseLinear(String),
    /// A dimension or layer-index mismatch between the pieces of a problem.
    Inconsistent(String),
    /// Training data could not be assembled.
    Data(String),
    /// The underlying MILP solver gave up (node limit) — the result is
    /// neither "safe" nor "unsafe".
    SolverLimit(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotPiecewiseLinear(msg) => {
                write!(f, "layer is not piecewise linear: {msg}")
            }
            CoreError::Inconsistent(msg) => write!(f, "inconsistent problem: {msg}"),
            CoreError::Data(msg) => write!(f, "data error: {msg}"),
            CoreError::SolverLimit(msg) => write!(f, "solver limit reached: {msg}"),
        }
    }
}

impl Error for CoreError {}

impl From<dpv_nn::NnError> for CoreError {
    fn from(value: dpv_nn::NnError) -> Self {
        CoreError::Data(value.to_string())
    }
}

impl From<dpv_tensor::TensorError> for CoreError {
    fn from(value: dpv_tensor::TensorError) -> Self {
        CoreError::Inconsistent(value.to_string())
    }
}

impl From<dpv_tensor::ShapeError> for CoreError {
    fn from(value: dpv_tensor::ShapeError) -> Self {
        CoreError::Inconsistent(value.to_string())
    }
}

impl From<dpv_monitor::MonitorError> for CoreError {
    fn from(value: dpv_monitor::MonitorError) -> Self {
        match value {
            dpv_monitor::MonitorError::Mismatch(msg) => CoreError::Inconsistent(msg),
            dpv_monitor::MonitorError::EmptyActivations => {
                CoreError::Data("cannot build an envelope from zero activations".into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::NotPiecewiseLinear("sigmoid".into())
            .to_string()
            .contains("sigmoid"));
        assert!(CoreError::Inconsistent("dim".into())
            .to_string()
            .contains("dim"));
        assert!(CoreError::Data("empty".into())
            .to_string()
            .contains("empty"));
        assert!(CoreError::SolverLimit("nodes".into())
            .to_string()
            .contains("nodes"));
    }

    #[test]
    fn converts_nn_errors() {
        let err: CoreError = dpv_nn::NnError::InvalidDataset("x".into()).into();
        assert!(matches!(err, CoreError::Data(_)));
    }

    #[test]
    fn converts_tensor_errors() {
        let err: CoreError = dpv_tensor::TensorError::Numerical("nan".into()).into();
        assert!(matches!(err, CoreError::Inconsistent(_)));
        let err: CoreError = dpv_tensor::ShapeError::new("matmul", (2, 3), (4, 5)).into();
        assert!(err.to_string().contains("matmul"));
    }

    #[test]
    fn converts_monitor_errors() {
        let err: CoreError = dpv_monitor::MonitorError::Mismatch("dim".into()).into();
        assert!(matches!(err, CoreError::Inconsistent(_)));
        let err: CoreError = dpv_monitor::MonitorError::EmptyActivations.into();
        assert!(matches!(err, CoreError::Data(_)));
    }
}
