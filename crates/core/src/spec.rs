//! Specifications: input properties φ and output risk conditions ψ.

use std::fmt;

use dpv_tensor::Vector;

/// An input property φ — a predicate over input images that cannot be
/// written as pixel constraints and is therefore characterised by a learned
/// classifier ([`crate::Characterizer`]).
///
/// The struct itself only carries the name and prose description; the
/// semantics live in the labelled examples used to train the characterizer
/// (produced by an oracle — in this workspace, the scene generator's hidden
/// parameters; in the paper, a human expert).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputProperty {
    name: String,
    description: String,
}

impl InputProperty {
    /// Creates a property with a short name and a prose description.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
        }
    }

    /// Short identifier (used in reports and benchmark labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Prose description of the property.
    pub fn description(&self) -> &str {
        &self.description
    }
}

impl fmt::Display for InputProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.description)
    }
}

/// Direction of a linear inequality over the network output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputOp {
    /// `Σ coeff_i · out_i ≤ rhs`
    Le,
    /// `Σ coeff_i · out_i ≥ rhs`
    Ge,
}

/// One linear inequality over the network output vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInequality {
    /// Dense coefficients over the output dimensions.
    pub coeffs: Vec<f64>,
    /// Direction of the inequality.
    pub op: OutputOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl LinearInequality {
    /// Evaluates the inequality on a concrete output vector.
    ///
    /// # Panics
    /// Panics when `output.len() != self.coeffs.len()`.
    pub fn is_satisfied(&self, output: &Vector, tol: f64) -> bool {
        assert_eq!(output.len(), self.coeffs.len(), "output dimension mismatch");
        let lhs: f64 = self
            .coeffs
            .iter()
            .zip(output.iter())
            .map(|(c, v)| c * v)
            .sum();
        match self.op {
            OutputOp::Le => lhs <= self.rhs + tol,
            OutputOp::Ge => lhs >= self.rhs - tol,
        }
    }
}

/// A risk condition ψ: a conjunction of linear inequalities over the network
/// output describing the *undesired* behaviour (Definition 1 of the paper).
/// The network is safe under (φ, ψ) when no input satisfying φ produces an
/// output satisfying ψ.
///
/// ```
/// use dpv_core::RiskCondition;
/// use dpv_tensor::Vector;
/// // "the network suggests steering hard left": waypoint offset <= -0.5.
/// let psi = RiskCondition::new("steer hard left").output_le(0, -0.5);
/// assert!(psi.is_satisfied(&Vector::from_slice(&[-0.7, 0.0]), 0.0));
/// assert!(!psi.is_satisfied(&Vector::from_slice(&[0.2, 0.0]), 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RiskCondition {
    name: String,
    inequalities: Vec<LinearInequality>,
}

impl RiskCondition {
    /// Creates an empty (always-true) risk condition with a name; add
    /// inequalities with the builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            inequalities: Vec::new(),
        }
    }

    /// Name of the risk condition.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The conjunction of inequalities.
    pub fn inequalities(&self) -> &[LinearInequality] {
        &self.inequalities
    }

    /// Adds the constraint `out[index] ≤ bound`.
    pub fn output_le(mut self, index: usize, bound: f64) -> Self {
        self.inequalities.push(LinearInequality {
            coeffs: indicator(index),
            op: OutputOp::Le,
            rhs: bound,
        });
        self
    }

    /// Adds the constraint `out[index] ≥ bound`.
    pub fn output_ge(mut self, index: usize, bound: f64) -> Self {
        self.inequalities.push(LinearInequality {
            coeffs: indicator(index),
            op: OutputOp::Ge,
            rhs: bound,
        });
        self
    }

    /// Adds a general linear constraint `Σ coeffs·out  op  rhs`.
    pub fn linear(mut self, coeffs: Vec<f64>, op: OutputOp, rhs: f64) -> Self {
        self.inequalities.push(LinearInequality { coeffs, op, rhs });
        self
    }

    /// Number of output dimensions referenced (the longest coefficient list).
    pub fn output_dim(&self) -> usize {
        self.inequalities
            .iter()
            .map(|i| i.coeffs.len())
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the conjunction on a concrete output vector. Each
    /// inequality's coefficient list is padded with zeros to the output
    /// length before evaluation.
    pub fn is_satisfied(&self, output: &Vector, tol: f64) -> bool {
        self.inequalities.iter().all(|ineq| {
            let mut coeffs = ineq.coeffs.clone();
            coeffs.resize(output.len(), 0.0);
            LinearInequality {
                coeffs,
                op: ineq.op,
                rhs: ineq.rhs,
            }
            .is_satisfied(output, tol)
        })
    }
}

fn indicator(index: usize) -> Vec<f64> {
    let mut coeffs = vec![0.0; index + 1];
    coeffs[index] = 1.0;
    coeffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_property_accessors() {
        let p = InputProperty::new("bends_right", "the road strongly bends to the right");
        assert_eq!(p.name(), "bends_right");
        assert!(p.description().contains("bends"));
        assert!(p.to_string().contains("bends_right"));
    }

    #[test]
    fn single_output_bounds() {
        let psi = RiskCondition::new("hard left").output_le(0, -0.5);
        assert_eq!(psi.name(), "hard left");
        assert_eq!(psi.inequalities().len(), 1);
        assert!(psi.is_satisfied(&Vector::from_slice(&[-0.6, 0.3]), 0.0));
        assert!(!psi.is_satisfied(&Vector::from_slice(&[-0.4, 0.3]), 0.0));
    }

    #[test]
    fn conjunction_requires_all_inequalities() {
        // "steering straight": |offset| <= 0.1 encoded as two inequalities.
        let psi = RiskCondition::new("straight")
            .output_le(0, 0.1)
            .output_ge(0, -0.1);
        assert!(psi.is_satisfied(&Vector::from_slice(&[0.05, 0.9]), 0.0));
        assert!(!psi.is_satisfied(&Vector::from_slice(&[0.2, 0.9]), 0.0));
        assert!(!psi.is_satisfied(&Vector::from_slice(&[-0.2, 0.9]), 0.0));
    }

    #[test]
    fn general_linear_constraints() {
        // out0 - out1 >= 0.5
        let psi = RiskCondition::new("divergent").linear(vec![1.0, -1.0], OutputOp::Ge, 0.5);
        assert!(psi.is_satisfied(&Vector::from_slice(&[1.0, 0.3]), 0.0));
        assert!(!psi.is_satisfied(&Vector::from_slice(&[0.5, 0.3]), 0.0));
        assert_eq!(psi.output_dim(), 2);
    }

    #[test]
    fn empty_condition_is_always_satisfied() {
        let psi = RiskCondition::new("trivial");
        assert!(psi.is_satisfied(&Vector::from_slice(&[1.0]), 0.0));
        assert_eq!(psi.output_dim(), 0);
    }

    #[test]
    fn coefficients_are_padded_to_output_length() {
        let psi = RiskCondition::new("first output").output_ge(0, 0.5);
        assert!(psi.is_satisfied(&Vector::from_slice(&[0.6, -3.0, 7.0]), 0.0));
    }
}
