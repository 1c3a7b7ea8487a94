//! Fully connected (dense / affine) layer.

use dpv_tensor::{Initializer, Matrix, Vector};
use rand::Rng;

/// A fully connected layer computing `W x + b`.
///
/// ```
/// use dpv_nn::Dense;
/// use dpv_tensor::{Matrix, Vector};
/// let layer = Dense::from_parts(
///     Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]).unwrap(),
///     Vector::from_slice(&[0.5, 0.5]),
/// );
/// let y = layer.forward(&Vector::from_slice(&[2.0, 3.0]));
/// assert_eq!(y.as_slice(), &[2.5, -2.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vector,
}

impl Dense {
    /// Creates a randomly initialised dense layer mapping `input_dim` to `output_dim`.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        init: Initializer,
        rng: &mut R,
    ) -> Self {
        Self {
            weights: init.matrix(output_dim, input_dim, rng),
            bias: init.bias(output_dim, rng),
        }
    }

    /// Builds a dense layer from an explicit weight matrix and bias vector.
    ///
    /// # Panics
    /// Panics when `weights.rows() != bias.len()`.
    pub fn from_parts(weights: Matrix, bias: Vector) -> Self {
        assert_eq!(
            weights.rows(),
            bias.len(),
            "bias length must equal the number of output rows"
        );
        Self { weights, bias }
    }

    /// Input dimension (number of columns of the weight matrix).
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (number of rows of the weight matrix).
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by the optimisers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable access to the bias vector (used by the optimisers).
    pub fn bias_mut(&mut self) -> &mut Vector {
        &mut self.bias
    }

    /// Forward pass `W x + b`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        &self.weights.matvec(x) + &self.bias
    }

    /// Batched forward pass `W X + b` over a feature-major frame batch
    /// (rows = `input_dim`, columns = frames).
    ///
    /// Column `f` of the result is bit-identical to `forward` of column `f`:
    /// per output row the inputs are accumulated in ascending index order
    /// with no zero-skipping (exactly [`Matrix::matvec`]) and the bias is
    /// added in a separate final pass (exactly the `matvec + bias` sum of
    /// the scalar path). The inner loops run over the contiguous frame
    /// lanes, which is what lets the compiler vectorise them.
    ///
    /// # Panics
    /// Panics when `x.rows() != self.input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.input_dim(),
            "dense batch dimension mismatch: {}x{} * {}x{}",
            self.output_dim(),
            self.input_dim(),
            x.rows(),
            x.cols()
        );
        let mut out = Matrix::zeros(self.output_dim(), x.cols());
        for r in 0..self.weights.rows() {
            let row = self.weights.row(r);
            let out_row = out.row_mut(r);
            for (c, &w) in row.iter().enumerate() {
                let src = x.row(c);
                for (acc, &v) in out_row.iter_mut().zip(src.iter()) {
                    *acc += w * v;
                }
            }
            let b = self.bias[r];
            for acc in out_row.iter_mut() {
                *acc += b;
            }
        }
        out
    }

    /// Backward pass. Given the gradient of the loss with respect to the
    /// layer output and the cached input, returns
    /// `(grad_input, grad_weights, grad_bias)`.
    pub fn backward(&self, input: &Vector, grad_output: &Vector) -> (Vector, Matrix, Vector) {
        let grad_input = self.weights.matvec_transposed(grad_output);
        let grad_weights = Matrix::outer(grad_output, input);
        let grad_bias = grad_output.clone();
        (grad_input, grad_weights, grad_bias)
    }

    /// Applies a gradient step `W -= lr * dW`, `b -= lr * db`.
    pub fn apply_gradients(&mut self, lr: f64, grad_weights: &Matrix, grad_bias: &Vector) {
        self.weights.add_scaled(-lr, grad_weights);
        let update = grad_bias.scale(lr);
        self.bias -= &update;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_tensor::approx_eq_slice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let layer = Dense::from_parts(
            Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 1.0]]).unwrap(),
            Vector::from_slice(&[1.0, -1.0]),
        );
        let y = layer.forward(&Vector::from_slice(&[1.0, 2.0]));
        assert!(approx_eq_slice(y.as_slice(), &[3.0, 2.0], 1e-12));
        assert_eq!(layer.input_dim(), 2);
        assert_eq!(layer.output_dim(), 2);
    }

    #[test]
    fn random_construction_has_right_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(5, 3, Initializer::HeNormal, &mut rng);
        assert_eq!(layer.weights().shape(), (3, 5));
        assert_eq!(layer.bias().len(), 3);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(3, 2, Initializer::XavierUniform, &mut rng);
        let x = Vector::from_slice(&[0.3, -0.7, 1.1]);
        // Loss = sum of outputs, so grad_output = ones.
        let grad_out = Vector::ones(2);
        let (grad_in, grad_w, grad_b) = layer.backward(&x, &grad_out);

        let eps = 1e-6;
        // Check input gradient.
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * eps);
            assert!((grad_in[i] - numeric).abs() < 1e-6);
        }
        // Check weight gradient for a couple of entries.
        for (r, c) in [(0usize, 0usize), (1, 2)] {
            let mut lp = layer.clone();
            lp.weights_mut()[(r, c)] += eps;
            let mut lm = layer.clone();
            lm.weights_mut()[(r, c)] -= eps;
            let numeric = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * eps);
            assert!((grad_w[(r, c)] - numeric).abs() < 1e-6);
        }
        // Bias gradient equals grad_output.
        assert!(approx_eq_slice(
            grad_b.as_slice(),
            grad_out.as_slice(),
            1e-12
        ));
    }

    #[test]
    fn apply_gradients_moves_parameters() {
        let mut layer = Dense::from_parts(Matrix::identity(2), Vector::zeros(2));
        let gw = Matrix::filled(2, 2, 1.0);
        let gb = Vector::ones(2);
        layer.apply_gradients(0.1, &gw, &gb);
        assert!((layer.weights()[(0, 0)] - 0.9).abs() < 1e-12);
        assert!((layer.bias()[0] + 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn from_parts_validates_shapes() {
        let _ = Dense::from_parts(Matrix::identity(2), Vector::zeros(3));
    }
}
