//! Feed-forward network container.

use dpv_tensor::{Matrix, Vector};

use crate::layer::LayerCache;
use crate::{Layer, LayerGrad, NnError};

/// The activation vectors produced by every layer for a single input, in
/// order: `trace[0]` is the input itself and `trace[i]` is the output of
/// layer `i - 1` (so `trace.last()` is the network output).
///
/// This is the object from which the paper's activation envelope `S̃` is
/// built: record the trace of every training sample and aggregate the
/// entries at the cut layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationTrace {
    values: Vec<Vector>,
}

impl ActivationTrace {
    /// The recorded vectors (input first, output last).
    pub fn values(&self) -> &[Vector] {
        &self.values
    }

    /// Activation after layer `layer` (zero-based), i.e. `f^(layer+1)(in)`.
    /// `layer_output(l)` therefore corresponds to the paper's `f^(l)` with
    /// one-based `l = layer + 1`.
    pub fn layer_output(&self, layer: usize) -> &Vector {
        &self.values[layer + 1]
    }

    /// The network input.
    pub fn input(&self) -> &Vector {
        &self.values[0]
    }

    /// The network output.
    pub fn output(&self) -> &Vector {
        self.values.last().expect("trace always contains the input")
    }
}

/// A feed-forward neural network: an ordered list of [`Layer`]s.
///
/// ```
/// use dpv_nn::{Activation, NetworkBuilder};
/// use dpv_tensor::Vector;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let net = NetworkBuilder::new(4)
///     .dense(8, &mut rng)
///     .activation(Activation::ReLU)
///     .dense(2, &mut rng)
///     .build();
/// assert_eq!(net.output_dim(), 2);
/// assert_eq!(net.forward(&Vector::zeros(4)).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    input_dim: usize,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from an explicit layer list.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidNetwork`] when consecutive layer dimensions
    /// are inconsistent.
    pub fn new(input_dim: usize, layers: Vec<Layer>) -> Result<Self, NnError> {
        let mut dim = input_dim;
        for (i, layer) in layers.iter().enumerate() {
            if let Some(expected) = layer.input_dim() {
                if expected != dim {
                    return Err(NnError::InvalidNetwork(format!(
                        "layer {i} ({}) expects input dimension {expected} but receives {dim}",
                        layer.describe()
                    )));
                }
            }
            dim = layer.output_dim(dim);
        }
        Ok(Self { input_dim, layers })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers
            .iter()
            .fold(self.input_dim, |dim, layer| layer.output_dim(dim))
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the optimisers).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Dimension of the activation vector after layer `layer` (zero-based).
    ///
    /// # Panics
    /// Panics when `layer >= self.len()`.
    pub fn layer_output_dim(&self, layer: usize) -> usize {
        assert!(layer < self.len(), "layer index out of bounds");
        self.layers[..=layer]
            .iter()
            .fold(self.input_dim, |dim, l| l.output_dim(dim))
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::parameter_count).sum()
    }

    /// Returns `true` when every layer is piecewise linear, i.e. the whole
    /// network is exactly encodable by the MILP verifier.
    pub fn is_piecewise_linear(&self) -> bool {
        self.layers.iter().all(Layer::is_piecewise_linear)
    }

    /// Human-readable architecture summary, one layer per line.
    pub fn summary(&self) -> String {
        let mut out = format!("input dim {}\n", self.input_dim);
        let mut dim = self.input_dim;
        for (i, layer) in self.layers.iter().enumerate() {
            dim = layer.output_dim(dim);
            out.push_str(&format!("  [{i}] {} -> {}\n", layer.describe(), dim));
        }
        out.push_str(&format!("parameters: {}", self.parameter_count()));
        out
    }

    /// Inference-mode forward pass.
    ///
    /// # Panics
    /// Panics when `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.input_dim, "network input dimension mismatch");
        self.layers
            .iter()
            .fold(x.clone(), |acc, layer| layer.forward(&acc))
    }

    /// Forward pass recording the activation after every layer.
    pub fn forward_trace(&self, x: &Vector) -> ActivationTrace {
        assert_eq!(x.len(), self.input_dim, "network input dimension mismatch");
        let mut values = Vec::with_capacity(self.layers.len() + 1);
        values.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(values.last().expect("trace is non-empty"));
            values.push(next);
        }
        ActivationTrace { values }
    }

    /// Activation vector after layer `layer` (zero-based), the paper's
    /// `f^(l)(in)` with `l = layer + 1`.
    pub fn activation_at(&self, layer: usize, x: &Vector) -> Vector {
        assert!(layer < self.len(), "layer index out of bounds");
        let mut acc = x.clone();
        for l in &self.layers[..=layer] {
            acc = l.forward(&acc);
        }
        acc
    }

    /// Batched [`Network::activation_at`]: evaluates the cut-layer
    /// activation of every frame in one matrix–matrix pass per layer
    /// instead of a matrix–vector pass per frame.
    ///
    /// The result is **bit-identical** to calling `activation_at` on each
    /// frame: the batch kernels keep the per-frame accumulation order of
    /// the scalar kernels and only widen the loop across frames (see
    /// [`Layer::forward_batch`]), so monitors built on either path agree
    /// exactly.
    ///
    /// # Panics
    /// Panics when `layer` is out of bounds or any frame's length differs
    /// from the network input dimension.
    pub fn activation_at_batch(&self, layer: usize, inputs: &[Vector]) -> Vec<Vector> {
        let activations = self.activation_matrix_at(layer, inputs);
        (0..activations.cols())
            .map(|f| activations.col_vector(f))
            .collect()
    }

    /// Batched activations at `layer` in feature-major layout: row `d` of
    /// the result holds activation coordinate `d` of every frame
    /// contiguously (columns = frames, in input order). This is the form
    /// the batched monitors sweep directly; [`Network::activation_at_batch`]
    /// is the column-unpacked convenience wrapper.
    ///
    /// # Panics
    /// Panics when `layer` is out of bounds or any frame's length differs
    /// from the network input dimension.
    pub fn activation_matrix_at(&self, layer: usize, inputs: &[Vector]) -> Matrix {
        assert!(layer < self.len(), "layer index out of bounds");
        if inputs.is_empty() {
            return Matrix::zeros(self.layer_output_dim(layer), 0);
        }
        let mut acc =
            Matrix::from_columns(inputs).expect("all frames must share the input dimension");
        assert_eq!(
            acc.rows(),
            self.input_dim,
            "frame length must equal the network input dimension"
        );
        for l in &self.layers[..=layer] {
            acc = l.forward_batch(&acc);
        }
        acc
    }

    /// Runs the forward pass from the activation at layer `layer` (zero-based)
    /// to the output, i.e. evaluates the *tail* `g^(L) ∘ … ∘ g^(layer+2)`.
    pub fn forward_from(&self, layer: usize, activation: &Vector) -> Vector {
        assert!(layer < self.len(), "layer index out of bounds");
        let mut acc = activation.clone();
        for l in &self.layers[layer + 1..] {
            acc = l.forward(&acc);
        }
        acc
    }

    /// Splits the network after layer `layer` (zero-based) into
    /// `(head, tail)`: `head` computes `f^(layer+1)` and `tail` maps that
    /// activation to the network output. The tail is what the paper verifies.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidNetwork`] when `layer >= self.len()`.
    pub fn split_at(&self, layer: usize) -> Result<(Network, Network), NnError> {
        if layer >= self.len() {
            return Err(NnError::InvalidNetwork(format!(
                "cannot split after layer {layer}: network has {} layers",
                self.len()
            )));
        }
        let cut_dim = self.layer_output_dim(layer);
        let head = Network::new(self.input_dim, self.layers[..=layer].to_vec())?;
        let tail = Network::new(cut_dim, self.layers[layer + 1..].to_vec())?;
        Ok((head, tail))
    }

    /// Training-mode forward pass; returns the output and per-layer caches.
    pub(crate) fn forward_train(&mut self, x: &Vector) -> (Vector, Vec<LayerCache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut acc = x.clone();
        for layer in &mut self.layers {
            let (next, cache) = layer.forward_train(&acc);
            caches.push(cache);
            acc = next;
        }
        (acc, caches)
    }

    /// Backward pass; returns the per-layer parameter gradients (aligned with
    /// `self.layers()`) and the gradient with respect to the network input.
    pub(crate) fn backward(
        &self,
        caches: &[LayerCache],
        grad_output: &Vector,
    ) -> (Vec<LayerGrad>, Vector) {
        let mut grads = vec![LayerGrad::None; self.layers.len()];
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (grad_in, layer_grad) = layer.backward(&caches[i], &grad);
            grads[i] = layer_grad;
            grad = grad_in;
        }
        (grads, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, BatchNorm1d, Dense, NetworkBuilder};
    use dpv_tensor::{approx_eq_slice, Initializer, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_network() -> Network {
        // 2 -> 3 (relu) -> 2, hand-crafted weights.
        let w1 = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let w2 = Matrix::from_rows(&[vec![1.0, -1.0, 0.5], vec![0.0, 1.0, -0.5]]).unwrap();
        Network::new(
            2,
            vec![
                Layer::Dense(Dense::from_parts(w1, Vector::zeros(3))),
                Layer::Activation(Activation::ReLU),
                Layer::Dense(Dense::from_parts(w2, Vector::from_slice(&[0.1, -0.1]))),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_are_validated() {
        let bad = Network::new(
            3,
            vec![Layer::Dense(Dense::from_parts(
                Matrix::zeros(2, 2),
                Vector::zeros(2),
            ))],
        );
        assert!(bad.is_err());
        let net = tiny_network();
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.len(), 3);
        assert_eq!(net.layer_output_dim(0), 3);
        assert_eq!(net.layer_output_dim(2), 2);
        assert_eq!(net.parameter_count(), 6 + 3 + 6 + 2);
    }

    #[test]
    fn forward_computes_expected_values() {
        let net = tiny_network();
        let x = Vector::from_slice(&[1.0, -2.0]);
        // h = relu([1, -2, -1]) = [1, 0, 0]; y = [1*1 + 0 + 0 + 0.1, 0 + 0 + 0 - 0.1].
        let y = net.forward(&x);
        assert!(approx_eq_slice(y.as_slice(), &[1.1, -0.1], 1e-12));
    }

    #[test]
    fn trace_and_activation_at_agree() {
        let net = tiny_network();
        let x = Vector::from_slice(&[0.5, 0.25]);
        let trace = net.forward_trace(&x);
        assert_eq!(trace.input(), &x);
        assert_eq!(trace.values().len(), 4);
        for l in 0..net.len() {
            assert_eq!(trace.layer_output(l), &net.activation_at(l, &x));
        }
        assert_eq!(trace.output(), &net.forward(&x));
    }

    #[test]
    fn split_and_forward_from_compose_to_full_network() {
        let net = tiny_network();
        let x = Vector::from_slice(&[0.3, 0.9]);
        for cut in 0..net.len() - 1 {
            let (head, tail) = net.split_at(cut).unwrap();
            let mid = head.forward(&x);
            let composed = tail.forward(&mid);
            assert!(approx_eq_slice(
                composed.as_slice(),
                net.forward(&x).as_slice(),
                1e-12
            ));
            let via_forward_from = net.forward_from(cut, &mid);
            assert!(approx_eq_slice(
                via_forward_from.as_slice(),
                net.forward(&x).as_slice(),
                1e-12
            ));
        }
        assert!(net.split_at(10).is_err());
    }

    #[test]
    fn summary_mentions_each_layer() {
        let net = tiny_network();
        let s = net.summary();
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
        assert!(s.contains("parameters"));
    }

    #[test]
    fn piecewise_linear_detection() {
        let net = tiny_network();
        assert!(net.is_piecewise_linear());
        let mut rng = StdRng::seed_from_u64(0);
        let smooth = NetworkBuilder::new(2)
            .dense(2, &mut rng)
            .activation(Activation::Sigmoid)
            .build();
        assert!(!smooth.is_piecewise_linear());
    }

    #[test]
    fn backward_produces_gradient_per_layer() {
        let mut net = tiny_network();
        let x = Vector::from_slice(&[1.0, 1.0]);
        let (out, caches) = net.forward_train(&x);
        assert_eq!(out.len(), 2);
        let (grads, grad_in) = net.backward(&caches, &Vector::ones(2));
        assert_eq!(grads.len(), 3);
        assert_eq!(grad_in.len(), 2);
        assert!(matches!(grads[0], LayerGrad::WeightBias { .. }));
        assert!(matches!(grads[1], LayerGrad::None));
    }

    #[test]
    fn batchnorm_layer_integrates() {
        let net = Network::new(
            2,
            vec![
                Layer::Dense(Dense::from_parts(Matrix::identity(2), Vector::zeros(2))),
                Layer::BatchNorm(BatchNorm1d::new(2)),
                Layer::Activation(Activation::ReLU),
            ],
        )
        .unwrap();
        let y = net.forward(&Vector::from_slice(&[1.0, -1.0]));
        assert!(y[0] > 0.99 && y[1] == 0.0);
    }

    #[test]
    fn network_builder_and_initializer_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(6)
            .dense_with(10, Initializer::XavierUniform, &mut rng)
            .activation(Activation::ReLU)
            .batch_norm()
            .dense(3, &mut rng)
            .build();
        assert_eq!(net.input_dim(), 6);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.len(), 4);
    }
}
