//! Two-dimensional convolution over flattened channel-major images.

use dpv_tensor::{Initializer, Matrix, Vector};
use rand::Rng;

use crate::layer::TensorShape;

/// A 2-D convolution layer.
///
/// Inputs and outputs are flattened channel-major vectors (`c * h * w`):
/// index `(c, y, x)` lives at `c * h * w + y * w + x`. This matches the
/// flattening used by [`crate::Flatten`] and by the scene generator, so a
/// convolutional perception front-end can feed a dense verification tail
/// without reshaping glue.
///
/// The kernel weights are stored as a matrix of shape
/// `(out_channels, in_channels * kernel * kernel)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_shape: TensorShape,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    weights: Matrix,
    bias: Vector,
}

impl Conv2d {
    /// Creates a randomly initialised convolution layer.
    ///
    /// # Panics
    /// Panics when `kernel` is zero, `stride` is zero, or the kernel does not
    /// fit inside the input spatial dimensions.
    pub fn new<R: Rng + ?Sized>(
        in_shape: TensorShape,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        init: Initializer,
        rng: &mut R,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            kernel <= in_shape.height && kernel <= in_shape.width,
            "kernel {}x{} does not fit input {}x{}",
            kernel,
            kernel,
            in_shape.height,
            in_shape.width
        );
        let fan_in = in_shape.channels * kernel * kernel;
        Self {
            in_shape,
            out_channels,
            kernel,
            stride,
            weights: init.matrix(out_channels, fan_in, rng),
            bias: init.bias(out_channels, rng),
        }
    }

    /// Input shape.
    pub fn input_shape(&self) -> TensorShape {
        self.in_shape
    }

    /// Output shape after the convolution.
    pub fn output_shape(&self) -> TensorShape {
        TensorShape {
            channels: self.out_channels,
            height: (self.in_shape.height - self.kernel) / self.stride + 1,
            width: (self.in_shape.width - self.kernel) / self.stride + 1,
        }
    }

    /// Flattened input dimension.
    pub fn input_dim(&self) -> usize {
        self.in_shape.len()
    }

    /// Flattened output dimension.
    pub fn output_dim(&self) -> usize {
        self.output_shape().len()
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Kernel weight matrix of shape `(out_channels, in_channels * k * k)`.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Bias vector (one entry per output channel).
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// Mutable kernel weights (used by the optimisers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable bias (used by the optimisers).
    pub fn bias_mut(&mut self) -> &mut Vector {
        &mut self.bias
    }

    fn patch(&self, x: &Vector, oy: usize, ox: usize) -> Vector {
        let TensorShape {
            channels,
            height,
            width,
        } = self.in_shape;
        let mut patch = Vec::with_capacity(channels * self.kernel * self.kernel);
        for c in 0..channels {
            for ky in 0..self.kernel {
                for kx in 0..self.kernel {
                    let y = oy * self.stride + ky;
                    let xx = ox * self.stride + kx;
                    debug_assert!(y < height && xx < width);
                    patch.push(x[c * height * width + y * width + xx]);
                }
            }
        }
        Vector::from_vec(patch)
    }

    /// Forward pass over a flattened channel-major input.
    ///
    /// # Panics
    /// Panics when `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.input_dim(), "conv2d input dimension mismatch");
        let out_shape = self.output_shape();
        let mut out = Vector::zeros(out_shape.len());
        for oc in 0..self.out_channels {
            let kernel_row = Vector::from_slice(self.weights.row(oc));
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let patch = self.patch(x, oy, ox);
                    let value = kernel_row.dot(&patch) + self.bias[oc];
                    out[oc * out_shape.height * out_shape.width + oy * out_shape.width + ox] =
                        value;
                }
            }
        }
        out
    }

    /// Batched forward pass over feature-major columns: `xs` has one row per
    /// input feature and one column per frame; the result has one row per
    /// output feature and the same columns.
    ///
    /// Bit-exact with [`Conv2d::forward`] per frame: for every output
    /// position the patch columns are accumulated in the same `(channel,
    /// ky, kx)` order the scalar dot product walks them in, with the bias
    /// added last — the batch kernel only widens the inner loop across
    /// frames (and skips the per-position patch allocation, which is where
    /// the throughput win comes from).
    ///
    /// # Panics
    /// Panics when `xs.rows() != self.input_dim()`.
    pub fn forward_batch(&self, xs: &Matrix) -> Matrix {
        assert_eq!(
            xs.rows(),
            self.input_dim(),
            "conv2d batch input dimension mismatch"
        );
        let TensorShape { height, width, .. } = self.in_shape;
        let out_shape = self.output_shape();
        let mut out = Matrix::zeros(out_shape.len(), xs.cols());
        for oc in 0..self.out_channels {
            let kernel_row = self.weights.row(oc);
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let out_row = out.row_mut(
                        oc * out_shape.height * out_shape.width + oy * out_shape.width + ox,
                    );
                    let mut col = 0usize;
                    for c in 0..self.in_shape.channels {
                        for ky in 0..self.kernel {
                            let y = oy * self.stride + ky;
                            for kx in 0..self.kernel {
                                let xx = ox * self.stride + kx;
                                let w = kernel_row[col];
                                let src = xs.row(c * height * width + y * width + xx);
                                for (acc, &v) in out_row.iter_mut().zip(src.iter()) {
                                    *acc += w * v;
                                }
                                col += 1;
                            }
                        }
                    }
                    let b = self.bias[oc];
                    for acc in out_row.iter_mut() {
                        *acc += b;
                    }
                }
            }
        }
        out
    }

    /// Backward pass. Returns `(grad_input, grad_weights, grad_bias)`.
    pub fn backward(&self, input: &Vector, grad_output: &Vector) -> (Vector, Matrix, Vector) {
        let out_shape = self.output_shape();
        assert_eq!(
            grad_output.len(),
            out_shape.len(),
            "conv2d grad_output dimension mismatch"
        );
        let TensorShape {
            channels,
            height,
            width,
        } = self.in_shape;
        let mut grad_input = Vector::zeros(self.input_dim());
        let mut grad_weights = Matrix::zeros(self.weights.rows(), self.weights.cols());
        let mut grad_bias = Vector::zeros(self.out_channels);
        for oc in 0..self.out_channels {
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let go = grad_output
                        [oc * out_shape.height * out_shape.width + oy * out_shape.width + ox];
                    if go == 0.0 {
                        continue;
                    }
                    grad_bias[oc] += go;
                    let mut col = 0usize;
                    for c in 0..channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let y = oy * self.stride + ky;
                                let xx = ox * self.stride + kx;
                                let in_idx = c * height * width + y * width + xx;
                                grad_weights[(oc, col)] += go * input[in_idx];
                                grad_input[in_idx] += go * self.weights[(oc, col)];
                                col += 1;
                            }
                        }
                    }
                }
            }
        }
        (grad_input, grad_weights, grad_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_shape() -> TensorShape {
        TensorShape {
            channels: 1,
            height: 4,
            width: 4,
        }
    }

    #[test]
    fn output_shape_accounts_for_stride() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(small_shape(), 2, 2, 2, Initializer::HeNormal, &mut rng);
        let out = conv.output_shape();
        assert_eq!((out.channels, out.height, out.width), (2, 2, 2));
        assert_eq!(conv.output_dim(), 8);
    }

    #[test]
    fn forward_computes_known_convolution() {
        // Single 1x3x3 input, one 2x2 kernel of all ones, stride 1.
        let shape = TensorShape {
            channels: 1,
            height: 3,
            width: 3,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(shape, 1, 2, 1, Initializer::Zeros, &mut rng);
        for c in 0..4 {
            conv.weights_mut()[(0, c)] = 1.0;
        }
        let x = Vector::from_vec((1..=9).map(|v| v as f64).collect());
        let y = conv.forward(&x);
        // Sliding 2x2 sums of [[1,2,3],[4,5,6],[7,8,9]].
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn batched_forward_matches_scalar_exactly() {
        let shape = TensorShape {
            channels: 2,
            height: 5,
            width: 6,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(shape, 3, 2, 2, Initializer::XavierUniform, &mut rng);
        let frames: Vec<Vector> = (0..7)
            .map(|f| {
                Vector::from_vec(
                    (0..shape.len())
                        .map(|i| ((i + f * 31) as f64 * 0.17).sin())
                        .collect(),
                )
            })
            .collect();
        let batched = conv.forward_batch(&Matrix::from_columns(&frames).unwrap());
        for (f, frame) in frames.iter().enumerate() {
            let scalar = conv.forward(frame);
            // Bit-exact, not approximate: the batch kernel replays the
            // scalar accumulation order.
            assert_eq!(batched.col_vector(f), scalar, "frame {f} drifted");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let shape = TensorShape {
            channels: 2,
            height: 3,
            width: 3,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(shape, 2, 2, 1, Initializer::XavierUniform, &mut rng);
        let x = Vector::from_vec((0..shape.len()).map(|i| (i as f64 * 0.37).sin()).collect());
        let grad_out = Vector::ones(conv.output_dim());
        let (grad_in, grad_w, grad_b) = conv.backward(&x, &grad_out);
        let eps = 1e-6;
        for i in [0usize, 5, 11, 17] {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (conv.forward(&xp).sum() - conv.forward(&xm).sum()) / (2.0 * eps);
            assert!(
                (grad_in[i] - numeric).abs() < 1e-5,
                "input grad mismatch at {i}"
            );
        }
        for (r, c) in [(0usize, 0usize), (1, 3), (1, 7)] {
            let mut cp = conv.clone();
            cp.weights_mut()[(r, c)] += eps;
            let mut cm = conv.clone();
            cm.weights_mut()[(r, c)] -= eps;
            let numeric = (cp.forward(&x).sum() - cm.forward(&x).sum()) / (2.0 * eps);
            assert!(
                (grad_w[(r, c)] - numeric).abs() < 1e-5,
                "weight grad mismatch at {r},{c}"
            );
        }
        for i in 0..2 {
            let mut cp = conv.clone();
            cp.bias_mut()[i] += eps;
            let mut cm = conv.clone();
            cm.bias_mut()[i] -= eps;
            let numeric = (cp.forward(&x).sum() - cm.forward(&x).sum()) / (2.0 * eps);
            assert!((grad_b[i] - numeric).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn kernel_must_fit() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Conv2d::new(
            TensorShape {
                channels: 1,
                height: 2,
                width: 2,
            },
            1,
            3,
            1,
            Initializer::Zeros,
            &mut rng,
        );
    }
}
