//! Loss functions.

use dpv_tensor::Vector;

/// The loss functions used in this workspace.
///
/// * [`LossKind::Mse`] trains the affordance regression head of the
///   perception network.
/// * [`LossKind::BceWithLogits`] trains the binary input-property
///   characterizer; the network outputs a raw logit and the sigmoid is folded
///   into the loss, so the trained characterizer can be verified with a
///   *linear* threshold (`logit >= 0`) instead of a non-linear sigmoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Mean squared error.
    Mse,
    /// Binary cross entropy on logits (numerically stable formulation).
    BceWithLogits,
}

/// A computed loss value and its gradient with respect to the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Loss {
    /// Scalar loss value.
    pub value: f64,
    /// Gradient of the loss with respect to each prediction component.
    pub grad: Vector,
}

impl LossKind {
    /// Evaluates the loss and its gradient for one `(prediction, target)` pair.
    ///
    /// # Panics
    /// Panics when the prediction and target lengths differ.
    pub fn evaluate(self, prediction: &Vector, target: &Vector) -> Loss {
        assert_eq!(
            prediction.len(),
            target.len(),
            "loss requires prediction and target of equal length"
        );
        match self {
            LossKind::Mse => {
                let n = prediction.len().max(1) as f64;
                let diff = prediction - target;
                let value = diff.dot(&diff) / n;
                let grad = diff.scale(2.0 / n);
                Loss { value, grad }
            }
            LossKind::BceWithLogits => {
                let n = prediction.len().max(1) as f64;
                let mut value = 0.0;
                let mut grad = Vector::zeros(prediction.len());
                for i in 0..prediction.len() {
                    let z = prediction[i];
                    let y = target[i];
                    // Numerically stable: max(z,0) - z*y + ln(1 + e^-|z|).
                    value += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
                    let sigmoid = 1.0 / (1.0 + (-z).exp());
                    grad[i] = (sigmoid - y) / n;
                }
                Loss {
                    value: value / n,
                    grad,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_tensor::approx_eq;

    #[test]
    fn mse_of_equal_vectors_is_zero() {
        let p = Vector::from_slice(&[1.0, 2.0]);
        let loss = LossKind::Mse.evaluate(&p, &p);
        assert_eq!(loss.value, 0.0);
        assert_eq!(loss.grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn mse_value_and_gradient() {
        let p = Vector::from_slice(&[1.0, 3.0]);
        let t = Vector::from_slice(&[0.0, 1.0]);
        let loss = LossKind::Mse.evaluate(&p, &t);
        assert!(approx_eq(loss.value, (1.0 + 4.0) / 2.0, 1e-12));
        assert_eq!(loss.grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn bce_is_low_for_confident_correct_predictions() {
        let correct = LossKind::BceWithLogits
            .evaluate(&Vector::from_slice(&[8.0]), &Vector::from_slice(&[1.0]));
        let wrong = LossKind::BceWithLogits
            .evaluate(&Vector::from_slice(&[8.0]), &Vector::from_slice(&[0.0]));
        assert!(correct.value < 0.01);
        assert!(wrong.value > 5.0);
    }

    #[test]
    fn bce_gradient_matches_finite_differences() {
        let target = Vector::from_slice(&[1.0, 0.0]);
        let z = Vector::from_slice(&[0.3, -0.8]);
        let loss = LossKind::BceWithLogits.evaluate(&z, &target);
        let eps = 1e-6;
        for i in 0..2 {
            let mut zp = z.clone();
            zp[i] += eps;
            let mut zm = z.clone();
            zm[i] -= eps;
            let numeric = (LossKind::BceWithLogits.evaluate(&zp, &target).value
                - LossKind::BceWithLogits.evaluate(&zm, &target).value)
                / (2.0 * eps);
            assert!((loss.grad[i] - numeric).abs() < 1e-6);
        }
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let target = Vector::from_slice(&[0.5, -1.0, 2.0]);
        let p = Vector::from_slice(&[0.1, 0.2, 0.3]);
        let loss = LossKind::Mse.evaluate(&p, &target);
        let eps = 1e-6;
        for i in 0..3 {
            let mut pp = p.clone();
            pp[i] += eps;
            let mut pm = p.clone();
            pm[i] -= eps;
            let numeric = (LossKind::Mse.evaluate(&pp, &target).value
                - LossKind::Mse.evaluate(&pm, &target).value)
                / (2.0 * eps);
            assert!((loss.grad[i] - numeric).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = LossKind::Mse.evaluate(&Vector::zeros(2), &Vector::zeros(3));
    }
}
