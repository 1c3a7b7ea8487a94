//! The box (interval vector) abstract domain.

use dpv_nn::{Activation, Layer};
use dpv_tensor::Vector;

use crate::{AbstractDomain, Interval};

/// A vector of independent per-neuron intervals.
///
/// The cheapest sound abstraction — and, as the paper observes in Section V,
/// often too coarse on its own, which is why the monitored envelope also
/// records adjacent-neuron differences ([`crate::OctagonLite`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxDomain {
    bounds: Vec<Interval>,
}

impl BoxDomain {
    /// The box `[lo, hi]^dim`.
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Self {
        Self {
            bounds: vec![Interval::new(lo, hi); dim],
        }
    }

    /// The degenerate box containing exactly one point.
    pub fn from_point(point: &Vector) -> Self {
        Self {
            bounds: point.iter().map(|v| Interval::point(*v)).collect(),
        }
    }

    /// Builds the smallest box containing every sample.
    ///
    /// # Panics
    /// Panics when `samples` is empty or the samples have differing lengths.
    pub fn from_samples(samples: &[Vector]) -> Self {
        assert!(!samples.is_empty(), "cannot build a box from zero samples");
        let dim = samples[0].len();
        let mut bounds = vec![Interval::point(samples[0][0]); dim];
        for (i, bound) in bounds.iter_mut().enumerate() {
            *bound = Interval::point(samples[0][i]);
        }
        for sample in &samples[1..] {
            assert_eq!(sample.len(), dim, "sample dimension mismatch");
            for i in 0..dim {
                *bounds.get_mut(i).expect("index in range") =
                    bounds[i].join(&Interval::point(sample[i]));
            }
        }
        Self { bounds }
    }

    /// The per-neuron intervals.
    pub fn bounds(&self) -> &[Interval] {
        &self.bounds
    }

    /// Lower bounds as a vector.
    pub fn lower(&self) -> Vector {
        self.bounds.iter().map(|i| i.lo).collect()
    }

    /// Upper bounds as a vector.
    pub fn upper(&self) -> Vector {
        self.bounds.iter().map(|i| i.hi).collect()
    }

    /// Widens every interval by `margin` on both sides.
    pub fn widen(&mut self, margin: f64) {
        for b in &mut self.bounds {
            *b = Interval::new(b.lo - margin, b.hi + margin);
        }
    }

    /// Total width (sum of interval widths), a scalar coarseness measure.
    pub fn total_width(&self) -> f64 {
        self.bounds.iter().map(Interval::width).sum()
    }

    /// Intersects with another box of the same dimension; `None` when the
    /// intersection is empty in any coordinate.
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn meet(&self, other: &BoxDomain) -> Option<BoxDomain> {
        assert_eq!(self.dim(), other.dim(), "box meet dimension mismatch");
        let bounds: Option<Vec<Interval>> = self
            .bounds
            .iter()
            .zip(other.bounds.iter())
            .map(|(a, b)| a.meet(b))
            .collect();
        bounds.map(|bounds| BoxDomain { bounds })
    }

    fn affine_dense(&self, weights: &dpv_tensor::Matrix, bias: &Vector) -> BoxDomain {
        let mut out = Vec::with_capacity(weights.rows());
        for r in 0..weights.rows() {
            let row = weights.row(r);
            let mut acc = Interval::point(bias[r]);
            for (c, w) in row.iter().enumerate() {
                acc = acc.add(&self.bounds[c].scale(*w));
            }
            out.push(acc);
        }
        BoxDomain { bounds: out }
    }

    fn activation_interval(interval: &Interval, activation: Activation) -> Interval {
        match activation {
            Activation::Identity => *interval,
            Activation::ReLU => interval.relu(),
            Activation::LeakyReLU(slope) => interval.leaky_relu(slope),
            // Sigmoid and tanh are monotone, so the endpoint images bound the interval.
            Activation::Sigmoid | Activation::Tanh => {
                Interval::new(activation.apply(interval.lo), activation.apply(interval.hi))
            }
        }
    }

    fn activation(&self, activation: Activation) -> BoxDomain {
        let bounds = self
            .bounds
            .iter()
            .map(|i| Self::activation_interval(i, activation))
            .collect();
        BoxDomain { bounds }
    }

    /// [`AbstractDomain::apply_layer`] into a caller-provided output box,
    /// reusing its interval buffer instead of allocating a fresh `BoxDomain`
    /// per layer. Hot encoders (the MILP layer-skeleton template in
    /// `dpv-core`) ping-pong two boxes through a whole network with this.
    ///
    /// Dense, batch-norm, activation and flatten layers — the shapes the MILP
    /// encoder accepts — are written in place; the remaining layer kinds fall
    /// back to [`AbstractDomain::apply_layer`].
    ///
    /// # Panics
    /// Panics on dimension mismatches, exactly like
    /// [`AbstractDomain::apply_layer`].
    pub fn apply_layer_into(&self, layer: &Layer, out: &mut BoxDomain) {
        match layer {
            Layer::Dense(d) => {
                assert_eq!(self.dim(), d.input_dim(), "box/dense dimension mismatch");
                out.bounds.clear();
                let weights = d.weights();
                for r in 0..weights.rows() {
                    let row = weights.row(r);
                    let mut acc = Interval::point(d.bias()[r]);
                    for (c, w) in row.iter().enumerate() {
                        acc = acc.add(&self.bounds[c].scale(*w));
                    }
                    out.bounds.push(acc);
                }
            }
            Layer::BatchNorm(bn) => {
                assert_eq!(self.dim(), bn.dim(), "box/batch-norm dimension mismatch");
                let (a, b) = bn.affine_form();
                out.bounds.clear();
                out.bounds.extend(
                    self.bounds
                        .iter()
                        .enumerate()
                        .map(|(i, interval)| interval.scale(a[i]).add_scalar(b[i])),
                );
            }
            Layer::Activation(a) => {
                out.bounds.clear();
                out.bounds
                    .extend(self.bounds.iter().map(|i| Self::activation_interval(i, *a)));
            }
            Layer::Flatten(_) => {
                out.bounds.clear();
                out.bounds.extend_from_slice(&self.bounds);
            }
            other => *out = self.apply_layer(other),
        }
    }
}

impl AbstractDomain for BoxDomain {
    fn from_intervals(bounds: Vec<Interval>) -> Self {
        Self { bounds }
    }

    fn to_box(&self) -> Vec<Interval> {
        self.bounds.clone()
    }

    fn dim(&self) -> usize {
        self.bounds.len()
    }

    fn apply_layer(&self, layer: &Layer) -> Self {
        match layer {
            Layer::Dense(d) => {
                assert_eq!(self.dim(), d.input_dim(), "box/dense dimension mismatch");
                self.affine_dense(d.weights(), d.bias())
            }
            Layer::Activation(a) => self.activation(*a),
            Layer::BatchNorm(bn) => {
                assert_eq!(self.dim(), bn.dim(), "box/batch-norm dimension mismatch");
                let (a, b) = bn.affine_form();
                let bounds = self
                    .bounds
                    .iter()
                    .enumerate()
                    .map(|(i, interval)| interval.scale(a[i]).add_scalar(b[i]))
                    .collect();
                BoxDomain { bounds }
            }
            Layer::Conv2d(c) => {
                assert_eq!(self.dim(), c.input_dim(), "box/conv dimension mismatch");
                // Exact interval propagation through the (linear) convolution:
                // walk every output cell's receptive field and accumulate the
                // per-pixel intervals scaled by the kernel weights, exactly as
                // the dense transformer does for its rows.
                let in_shape = c.input_shape();
                let out_shape = c.output_shape();
                let (h, w) = (in_shape.height, in_shape.width);
                let kernel = c.kernel();
                let stride = c.stride();
                let mut out = Vec::with_capacity(c.output_dim());
                for oc in 0..out_shape.channels {
                    for oy in 0..out_shape.height {
                        for ox in 0..out_shape.width {
                            let mut acc = Interval::point(c.bias()[oc]);
                            let mut col = 0usize;
                            for ch in 0..in_shape.channels {
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        let y = oy * stride + ky;
                                        let x = ox * stride + kx;
                                        let in_idx = ch * h * w + y * w + x;
                                        let weight = c.weights()[(oc, col)];
                                        acc = acc.add(&self.bounds[in_idx].scale(weight));
                                        col += 1;
                                    }
                                }
                            }
                            out.push(acc);
                        }
                    }
                }
                BoxDomain { bounds: out }
            }
            Layer::MaxPool2d(p) => {
                assert_eq!(self.dim(), p.input_dim(), "box/max-pool dimension mismatch");
                // Pool the lower bounds and the upper bounds independently;
                // the max of intervals is the interval of the max.
                let lo = p.forward(&self.lower());
                let hi = p.forward(&self.upper());
                let bounds = lo
                    .iter()
                    .zip(hi.iter())
                    .map(|(l, h)| Interval::new(*l, *h))
                    .collect();
                BoxDomain { bounds }
            }
            Layer::Flatten(_) => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Dense, NetworkBuilder};
    use dpv_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_samples_covers_all_samples() {
        let samples = vec![
            Vector::from_slice(&[0.0, 1.0]),
            Vector::from_slice(&[-1.0, 0.5]),
            Vector::from_slice(&[0.3, 2.0]),
        ];
        let b = BoxDomain::from_samples(&samples);
        assert_eq!(b.bounds()[0], Interval::new(-1.0, 0.3));
        assert_eq!(b.bounds()[1], Interval::new(0.5, 2.0));
        for s in &samples {
            assert!(b.box_contains(s.as_slice(), 0.0));
        }
    }

    #[test]
    fn dense_transformer_is_exact_for_points() {
        let w = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.5]]).unwrap();
        let layer = Layer::Dense(Dense::from_parts(w, Vector::from_slice(&[1.0, 0.0])));
        let point = Vector::from_slice(&[0.3, -0.7]);
        let image = layer.forward(&point);
        let b = BoxDomain::from_point(&point).apply_layer(&layer);
        for (i, interval) in b.bounds().iter().enumerate() {
            assert!(interval.width() < 1e-12);
            assert!(interval.contains(image[i], 1e-12));
        }
    }

    #[test]
    fn relu_transformer_clamps_lower_bounds() {
        let b =
            BoxDomain::from_intervals(vec![Interval::new(-1.0, 2.0), Interval::new(-3.0, -1.0)]);
        let out = b.apply_layer(&Layer::Activation(Activation::ReLU));
        assert_eq!(out.bounds()[0], Interval::new(0.0, 2.0));
        assert_eq!(out.bounds()[1], Interval::new(0.0, 0.0));
    }

    #[test]
    fn propagation_is_sound_on_random_networks() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .batch_norm()
            .dense(2, &mut rng)
            .build();
        let input_box = BoxDomain::uniform(3, -1.0, 1.0);
        let out = input_box.propagate(net.layers());
        use rand::Rng;
        for _ in 0..200 {
            let x = Vector::from_vec((0..3).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let y = net.forward(&x);
            assert!(
                out.box_contains(y.as_slice(), 1e-9),
                "output {y} escapes {:?}",
                out.to_box()
            );
        }
    }

    #[test]
    fn conv_and_pool_propagation_is_sound() {
        use dpv_nn::TensorShape;
        let mut rng = StdRng::seed_from_u64(9);
        let net = NetworkBuilder::with_image_input(TensorShape::new(1, 6, 6))
            .conv2d(2, 3, 1, &mut rng)
            .activation(Activation::ReLU)
            .max_pool(2)
            .flatten()
            .dense(2, &mut rng)
            .build();
        let input_box = BoxDomain::uniform(36, 0.0, 1.0);
        let out = input_box.propagate(net.layers());
        use rand::Rng;
        for _ in 0..100 {
            let x = Vector::from_vec((0..36).map(|_| rng.gen_range(0.0..1.0)).collect());
            let y = net.forward(&x);
            assert!(out.box_contains(y.as_slice(), 1e-6));
        }
    }

    #[test]
    fn apply_layer_into_matches_apply_layer() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = NetworkBuilder::new(3)
            .dense(5, &mut rng)
            .activation(Activation::ReLU)
            .batch_norm()
            .dense(2, &mut rng)
            .build();
        let mut cur = BoxDomain::uniform(3, -1.0, 1.0);
        let mut next = BoxDomain::uniform(0, 0.0, 0.0);
        for layer in net.layers() {
            let fresh = cur.apply_layer(layer);
            cur.apply_layer_into(layer, &mut next);
            assert_eq!(fresh, next, "in-place image differs for {layer:?}");
            std::mem::swap(&mut cur, &mut next);
        }
    }

    #[test]
    fn meet_and_widen() {
        let a = BoxDomain::uniform(2, 0.0, 1.0);
        let b = BoxDomain::uniform(2, 0.5, 2.0);
        let m = a.meet(&b).unwrap();
        assert_eq!(m.bounds()[0], Interval::new(0.5, 1.0));
        assert!(a.meet(&BoxDomain::uniform(2, 3.0, 4.0)).is_none());
        let mut w = a.clone();
        w.widen(0.25);
        assert_eq!(w.bounds()[0], Interval::new(-0.25, 1.25));
        assert!(w.total_width() > a.total_width());
    }

    #[test]
    fn smooth_activations_use_monotonicity() {
        let b = BoxDomain::from_intervals(vec![Interval::new(-1.0, 1.0)]);
        let out = b.apply_layer(&Layer::Activation(Activation::Sigmoid));
        let lo = 1.0 / (1.0 + 1.0_f64.exp());
        let hi = 1.0 / (1.0 + (-1.0_f64).exp());
        assert!((out.bounds()[0].lo - lo).abs() < 1e-12);
        assert!((out.bounds()[0].hi - hi).abs() < 1e-12);
    }
}
