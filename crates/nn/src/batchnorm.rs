//! One-dimensional batch normalisation.

use dpv_tensor::{Matrix, Vector};

/// Batch normalisation over a 1-D feature vector.
///
/// The paper's Audi network uses batch-normalisation layers close to the
/// output; at verification time those are frozen affine transforms
/// `y_i = gamma_i * (x_i - mean_i) / sqrt(var_i + eps) + beta_i`.
///
/// During training this implementation normalises against *running*
/// statistics that are updated from each observed sample (exponential
/// moving average with `momentum`). This keeps single-sample training
/// simple, and — more importantly for this workspace — guarantees that the
/// function analysed by the verifier (`forward`) is identical to the
/// function used during training, avoiding a train/inference semantic gap.
///
/// ```
/// use dpv_nn::BatchNorm1d;
/// use dpv_tensor::Vector;
/// let bn = BatchNorm1d::new(3);
/// let x = Vector::from_slice(&[1.0, -2.0, 0.5]);
/// // Fresh layer has mean 0, var 1, gamma 1, beta 0: identity up to eps.
/// let y = bn.forward(&x);
/// assert!(y.iter().zip(x.iter()).all(|(a, b)| (a - b).abs() < 1e-4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm1d {
    gamma: Vector,
    beta: Vector,
    running_mean: Vector,
    running_var: Vector,
    eps: f64,
    momentum: f64,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `dim` features with unit scale, zero
    /// shift, zero running mean and unit running variance.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Vector::ones(dim),
            beta: Vector::zeros(dim),
            running_mean: Vector::zeros(dim),
            running_var: Vector::ones(dim),
            eps: 1e-5,
            momentum: 0.01,
        }
    }

    /// Builds a frozen batch-norm layer from explicit statistics and affine
    /// parameters — the form in which a trained TensorFlow model would be
    /// imported.
    ///
    /// # Panics
    /// Panics when the four vectors do not share the same length.
    pub fn from_parts(gamma: Vector, beta: Vector, mean: Vector, var: Vector, eps: f64) -> Self {
        assert!(
            gamma.len() == beta.len() && beta.len() == mean.len() && mean.len() == var.len(),
            "batch-norm parameter vectors must share one length"
        );
        Self {
            gamma,
            beta,
            running_mean: mean,
            running_var: var,
            eps,
            momentum: 0.01,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Scale parameters `gamma`.
    pub fn gamma(&self) -> &Vector {
        &self.gamma
    }

    /// Shift parameters `beta`.
    pub fn beta(&self) -> &Vector {
        &self.beta
    }

    /// Running mean.
    pub fn running_mean(&self) -> &Vector {
        &self.running_mean
    }

    /// Running variance.
    pub fn running_var(&self) -> &Vector {
        &self.running_var
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Effective affine form `y = a * x + b` of the (frozen) layer, returned
    /// as `(a, b)` vectors. This is what the abstract-interpretation and
    /// MILP encodings consume.
    pub fn affine_form(&self) -> (Vector, Vector) {
        let dim = self.dim();
        let mut a = Vector::zeros(dim);
        let mut b = Vector::zeros(dim);
        for i in 0..dim {
            let denom = (self.running_var[i] + self.eps).sqrt();
            a[i] = self.gamma[i] / denom;
            b[i] = self.beta[i] - self.gamma[i] * self.running_mean[i] / denom;
        }
        (a, b)
    }

    /// Forward pass using the running statistics (both training and inference).
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.dim(), "batch-norm input dimension mismatch");
        let (a, b) = self.affine_form();
        &x.hadamard(&a) + &b
    }

    /// Batched inference forward pass over a feature-major frame batch
    /// (rows = channel, columns = frames). Applies the same frozen affine
    /// form `y = a * x + b` as [`BatchNorm1d::forward`] with the identical
    /// multiply-then-add per element, so every column matches the scalar
    /// path bit for bit.
    ///
    /// # Panics
    /// Panics when `x.rows() != self.dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.dim(), "batch-norm input dimension mismatch");
        let (a, b) = self.affine_form();
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            let (ai, bi) = (a[i], b[i]);
            let src = x.row(i);
            for (o, &v) in out.row_mut(i).iter_mut().zip(src.iter()) {
                *o = v * ai + bi;
            }
        }
        out
    }

    /// Updates the running statistics from one observed pre-normalisation
    /// sample (exponential moving average).
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn update_statistics(&mut self, x: &Vector) {
        assert_eq!(x.len(), self.dim(), "batch-norm input dimension mismatch");
        let m = self.momentum;
        for i in 0..self.dim() {
            self.running_mean[i] = (1.0 - m) * self.running_mean[i] + m * x[i];
            let centred = x[i] - self.running_mean[i];
            self.running_var[i] = (1.0 - m) * self.running_var[i] + m * centred * centred;
        }
    }

    /// Backward pass with frozen statistics. Returns
    /// `(grad_input, grad_gamma, grad_beta)`.
    pub fn backward(&self, input: &Vector, grad_output: &Vector) -> (Vector, Vector, Vector) {
        let dim = self.dim();
        let mut grad_input = Vector::zeros(dim);
        let mut grad_gamma = Vector::zeros(dim);
        let mut grad_beta = Vector::zeros(dim);
        for i in 0..dim {
            let denom = (self.running_var[i] + self.eps).sqrt();
            let normalised = (input[i] - self.running_mean[i]) / denom;
            grad_input[i] = grad_output[i] * self.gamma[i] / denom;
            grad_gamma[i] = grad_output[i] * normalised;
            grad_beta[i] = grad_output[i];
        }
        (grad_input, grad_gamma, grad_beta)
    }

    /// Applies a gradient step to `gamma` and `beta`.
    pub fn apply_gradients(&mut self, lr: f64, grad_gamma: &Vector, grad_beta: &Vector) {
        self.gamma -= &grad_gamma.scale(lr);
        self.beta -= &grad_beta.scale(lr);
    }

    /// Mutable access to gamma (used by the optimisers).
    pub fn gamma_mut(&mut self) -> &mut Vector {
        &mut self.gamma
    }

    /// Mutable access to beta (used by the optimisers).
    pub fn beta_mut(&mut self) -> &mut Vector {
        &mut self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_tensor::approx_eq_slice;

    #[test]
    fn fresh_layer_is_identity_up_to_eps() {
        let bn = BatchNorm1d::new(2);
        let x = Vector::from_slice(&[3.0, -1.5]);
        let y = bn.forward(&x);
        assert!(approx_eq_slice(
            y.as_slice(),
            &[2.99998500011, -1.49999250006],
            1e-6
        ));
    }

    #[test]
    fn affine_form_matches_forward() {
        let bn = BatchNorm1d::from_parts(
            Vector::from_slice(&[2.0, 0.5]),
            Vector::from_slice(&[1.0, -1.0]),
            Vector::from_slice(&[0.5, 0.0]),
            Vector::from_slice(&[4.0, 1.0]),
            0.0,
        );
        let x = Vector::from_slice(&[1.5, 2.0]);
        let (a, b) = bn.affine_form();
        let via_affine = &x.hadamard(&a) + &b;
        assert!(approx_eq_slice(
            via_affine.as_slice(),
            bn.forward(&x).as_slice(),
            1e-12
        ));
        // Manual check: (1.5 - 0.5)/2 * 2 + 1 = 2; (2 - 0)/1 * 0.5 - 1 = 0.
        assert!(approx_eq_slice(
            bn.forward(&x).as_slice(),
            &[2.0, 0.0],
            1e-12
        ));
    }

    #[test]
    fn update_statistics_tracks_mean() {
        let mut bn = BatchNorm1d::new(1);
        for _ in 0..2000 {
            bn.update_statistics(&Vector::from_slice(&[5.0]));
        }
        assert!((bn.running_mean()[0] - 5.0).abs() < 0.1);
        assert!(bn.running_var()[0] < 0.2);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let bn = BatchNorm1d::from_parts(
            Vector::from_slice(&[1.3, 0.7]),
            Vector::from_slice(&[0.2, -0.4]),
            Vector::from_slice(&[0.1, -0.2]),
            Vector::from_slice(&[0.9, 2.0]),
            1e-5,
        );
        let x = Vector::from_slice(&[0.6, -1.1]);
        let grad_out = Vector::ones(2);
        let (grad_in, grad_gamma, grad_beta) = bn.backward(&x, &grad_out);
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (bn.forward(&xp).sum() - bn.forward(&xm).sum()) / (2.0 * eps);
            assert!((grad_in[i] - numeric).abs() < 1e-6);
        }
        for i in 0..2 {
            let mut bp = bn.clone();
            bp.gamma_mut()[i] += eps;
            let mut bm = bn.clone();
            bm.gamma_mut()[i] -= eps;
            let numeric = (bp.forward(&x).sum() - bm.forward(&x).sum()) / (2.0 * eps);
            assert!((grad_gamma[i] - numeric).abs() < 1e-6);
        }
        assert!(approx_eq_slice(grad_beta.as_slice(), &[1.0, 1.0], 1e-12));
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn from_parts_validates_lengths() {
        let _ = BatchNorm1d::from_parts(
            Vector::zeros(2),
            Vector::zeros(2),
            Vector::zeros(3),
            Vector::zeros(2),
            1e-5,
        );
    }
}
