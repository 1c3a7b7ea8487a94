//! Element-wise activation functions.

use dpv_tensor::{Matrix, Vector};

/// Element-wise activation functions supported by the library.
///
/// The verification crates only accept piecewise-linear activations
/// ([`Activation::ReLU`], [`Activation::LeakyReLU`], [`Activation::Identity`]);
/// the smooth ones are available for training-only parts of a model (e.g.
/// the logistic output of a characterizer, which the verifier replaces by a
/// linear threshold on the pre-activation logit).
///
/// ```
/// use dpv_nn::Activation;
/// assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
/// assert_eq!(Activation::ReLU.apply(3.0), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// The identity function (no-op). Useful as a named cut point.
    Identity,
    /// Rectified linear unit `max(0, x)`.
    ReLU,
    /// Leaky ReLU with the given negative slope.
    LeakyReLU(f64),
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::ReLU => x.max(0.0),
            Activation::LeakyReLU(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative of the activation evaluated at pre-activation `x`.
    ///
    /// For ReLU the sub-gradient at `0` is taken to be `0`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyReLU(slope) => {
                if x > 0.0 {
                    1.0
                } else {
                    slope
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => 1.0 - x.tanh().powi(2),
        }
    }

    /// Applies the activation element-wise to a vector.
    pub fn apply_vector(self, x: &Vector) -> Vector {
        x.map(|v| self.apply(v))
    }

    /// Applies the activation element-wise to a feature-major frame batch.
    /// Same per-element function as [`Activation::apply_vector`], so each
    /// column matches the scalar path bit for bit.
    pub fn apply_matrix(self, x: &Matrix) -> Matrix {
        x.map(|v| self.apply(v))
    }

    /// Returns `true` when the activation is piecewise linear and therefore
    /// exactly encodable in the MILP verifier.
    pub fn is_piecewise_linear(self) -> bool {
        matches!(
            self,
            Activation::Identity | Activation::ReLU | Activation::LeakyReLU(_)
        )
    }

    /// Short lowercase name used by the text serialisation format.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::ReLU => "relu",
            Activation::LeakyReLU(_) => "leaky_relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::ReLU.apply(-1.0), 0.0);
        assert_eq!(Activation::ReLU.apply(0.0), 0.0);
        assert_eq!(Activation::ReLU.apply(2.5), 2.5);
        assert_eq!(Activation::ReLU.derivative(-1.0), 0.0);
        assert_eq!(Activation::ReLU.derivative(1.0), 1.0);
    }

    #[test]
    fn leaky_relu_behaviour() {
        let a = Activation::LeakyReLU(0.1);
        assert!((a.apply(-2.0) + 0.2).abs() < 1e-12);
        assert_eq!(a.apply(3.0), 3.0);
        assert_eq!(a.derivative(-1.0), 0.1);
        assert_eq!(a.derivative(1.0), 1.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(10.0) > 0.99);
        assert!(s.apply(-10.0) < 0.01);
        assert!(s.apply(1.0) > s.apply(0.5));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [
            Activation::Identity,
            Activation::ReLU,
            Activation::LeakyReLU(0.05),
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            for x in [-1.7, -0.3, 0.4, 2.2] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (act.derivative(x) - numeric).abs() < 1e-5,
                    "{act:?} derivative mismatch at {x}"
                );
            }
        }
    }

    #[test]
    fn piecewise_linear_flag() {
        assert!(Activation::ReLU.is_piecewise_linear());
        assert!(Activation::LeakyReLU(0.1).is_piecewise_linear());
        assert!(Activation::Identity.is_piecewise_linear());
        assert!(!Activation::Sigmoid.is_piecewise_linear());
        assert!(!Activation::Tanh.is_piecewise_linear());
    }

    #[test]
    fn apply_vector_maps_elementwise() {
        let v = Vector::from_slice(&[-1.0, 2.0]);
        assert_eq!(Activation::ReLU.apply_vector(&v).as_slice(), &[0.0, 2.0]);
    }
}
