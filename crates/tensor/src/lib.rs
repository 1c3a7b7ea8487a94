//! # dpv-tensor
//!
//! Dense linear-algebra substrate for the direct-perception verification
//! workspace. The crate intentionally stays small and dependency-free
//! (besides `rand` for initialisation): the
//! networks verified in the paper are modest in size once the verification
//! is restricted to close-to-output layers, so a straightforward dense
//! [`Matrix`]/[`Vector`] pair with `f64` elements is sufficient and keeps
//! the numerical behaviour easy to reason about.
//!
//! ## Example
//!
//! ```
//! use dpv_tensor::{Matrix, Vector};
//!
//! let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let x = Vector::from_slice(&[1.0, -1.0]);
//! let y = w.matvec(&x);
//! assert_eq!(y.as_slice(), &[-1.0, -1.0]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod init;
mod matrix;
mod stats;
mod vector;

pub use error::{ShapeError, TensorError};
pub use init::{he_normal, uniform_init, xavier_uniform, Initializer};
pub use matrix::Matrix;
pub use stats::{OnlineStats, RunningMinMax};
pub use vector::Vector;

/// Absolute tolerance used by the approximate comparison helpers.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Returns `true` if two floating point numbers are within `tol` of each
/// other (absolute difference).
///
/// ```
/// assert!(dpv_tensor::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!dpv_tensor::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Returns `true` if two slices have equal length and are element-wise
/// within `tol` of each other.
pub fn approx_eq_slice(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(0.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 5e-10, 1e-9));
        assert!(!approx_eq(1.0, 1.0 + 5e-9, 1e-9));
    }

    #[test]
    fn approx_eq_slice_checks_length() {
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0], 1e-9));
    }
}
