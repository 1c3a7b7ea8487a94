//! Max-pooling and flattening layers.

use dpv_tensor::Vector;

use crate::layer::TensorShape;

/// 2-D max pooling over flattened channel-major images.
///
/// The pooling window is square (`pool` × `pool`) and the stride equals the
/// window size (non-overlapping pooling), which is how the perception
/// front-end downsamples feature maps.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPool2d {
    in_shape: TensorShape,
    pool: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    /// Panics when `pool` is zero or larger than either spatial dimension.
    pub fn new(in_shape: TensorShape, pool: usize) -> Self {
        assert!(pool > 0, "pool size must be positive");
        assert!(
            pool <= in_shape.height && pool <= in_shape.width,
            "pool window {}x{} does not fit input {}x{}",
            pool,
            pool,
            in_shape.height,
            in_shape.width
        );
        Self { in_shape, pool }
    }

    /// Input shape.
    pub fn input_shape(&self) -> TensorShape {
        self.in_shape
    }

    /// Output shape.
    pub fn output_shape(&self) -> TensorShape {
        TensorShape {
            channels: self.in_shape.channels,
            height: self.in_shape.height / self.pool,
            width: self.in_shape.width / self.pool,
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

    /// Pooling window size.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Forward pass. Also returns the argmax indices so the backward pass can
    /// route gradients; use [`MaxPool2d::forward`] when only the value is needed.
    pub fn forward_with_indices(&self, x: &Vector) -> (Vector, Vec<usize>) {
        assert_eq!(
            x.len(),
            self.input_dim(),
            "max-pool input dimension mismatch"
        );
        let out_shape = self.output_shape();
        let mut out = Vector::zeros(out_shape.len());
        let mut indices = vec![0usize; out_shape.len()];
        let (h, w) = (self.in_shape.height, self.in_shape.width);
        for c in 0..self.in_shape.channels {
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..self.pool {
                        for kx in 0..self.pool {
                            let y = oy * self.pool + ky;
                            let xx = ox * self.pool + kx;
                            let idx = c * h * w + y * w + xx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let out_idx =
                        c * out_shape.height * out_shape.width + oy * out_shape.width + ox;
                    out[out_idx] = best;
                    indices[out_idx] = best_idx;
                }
            }
        }
        (out, indices)
    }

    /// Forward pass returning only the pooled values.
    pub fn forward(&self, x: &Vector) -> Vector {
        self.forward_with_indices(x).0
    }

    /// Backward pass: routes each output gradient to the input position that
    /// produced the maximum.
    pub fn backward(&self, indices: &[usize], grad_output: &Vector) -> Vector {
        assert_eq!(
            grad_output.len(),
            indices.len(),
            "max-pool grad_output dimension mismatch"
        );
        let mut grad_input = Vector::zeros(self.input_dim());
        for (out_idx, in_idx) in indices.iter().enumerate() {
            grad_input[*in_idx] += grad_output[out_idx];
        }
        grad_input
    }
}

/// Marker layer recording that a `(c, h, w)` feature map is from here on
/// treated as a flat vector. Numerically it is the identity (inputs are
/// already flat vectors); it exists so a network's shape bookkeeping stays
/// explicit and serialisable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flatten {
    shape: TensorShape,
}

impl Flatten {
    /// Creates a flatten marker for the given feature-map shape.
    pub fn new(shape: TensorShape) -> Self {
        Self { shape }
    }

    /// The feature-map shape being flattened.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Flattened dimension.
    pub fn dim(&self) -> usize {
        self.shape.len()
    }

    /// Identity forward pass.
    ///
    /// # Panics
    /// Panics when `x.len()` does not equal the recorded shape's length.
    pub fn forward(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.dim(), "flatten input dimension mismatch");
        x.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(c: usize, h: usize, w: usize) -> TensorShape {
        TensorShape {
            channels: c,
            height: h,
            width: w,
        }
    }

    #[test]
    fn max_pool_reduces_spatial_dims() {
        let mp = MaxPool2d::new(shape(1, 4, 4), 2);
        assert_eq!(mp.output_dim(), 4);
        let x = Vector::from_vec((0..16).map(|v| v as f64).collect());
        let y = mp.forward(&x);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_multi_channel() {
        let mp = MaxPool2d::new(shape(2, 2, 2), 2);
        let x = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]);
        let y = mp.forward(&x);
        assert_eq!(y.as_slice(), &[4.0, -1.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mp = MaxPool2d::new(shape(1, 2, 2), 2);
        let x = Vector::from_slice(&[1.0, 5.0, 3.0, 2.0]);
        let (y, idx) = mp.forward_with_indices(&x);
        assert_eq!(y.as_slice(), &[5.0]);
        let grad = mp.backward(&idx, &Vector::from_slice(&[2.0]));
        assert_eq!(grad.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn flatten_is_identity() {
        let f = Flatten::new(shape(1, 2, 3));
        assert_eq!(f.dim(), 6);
        let x = Vector::from_vec((0..6).map(|v| v as f64).collect());
        assert_eq!(f.forward(&x), x);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pool_window_must_fit() {
        let _ = MaxPool2d::new(shape(1, 2, 2), 3);
    }
}
