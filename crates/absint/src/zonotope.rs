//! The zonotope abstract domain (affine forms with shared noise symbols).

use dpv_nn::{Activation, Layer};
use dpv_tensor::Vector;

use crate::{AbstractDomain, BoxDomain, Interval};

/// A zonotope `{ c + Σ_k ε_k g_k  |  ε_k ∈ [-1, 1] }` with centre `c` and
/// generator vectors `g_k`.
///
/// Affine layers (dense, batch-norm, convolution, flatten) are handled
/// *exactly*; unstable ReLUs use the standard minimal-area relaxation that
/// introduces one fresh noise symbol per unstable neuron; max-pool falls back
/// to the box abstraction of the affected window (sound, coarser).
#[derive(Debug, Clone, PartialEq)]
pub struct Zonotope {
    centre: Vector,
    generators: Vec<Vector>,
}

impl Zonotope {
    /// Builds a zonotope from an explicit centre and generator set.
    ///
    /// # Panics
    /// Panics when any generator's length differs from the centre's.
    pub fn from_parts(centre: Vector, generators: Vec<Vector>) -> Self {
        for g in &generators {
            assert_eq!(g.len(), centre.len(), "generator dimension mismatch");
        }
        Self { centre, generators }
    }

    /// The centre point.
    pub fn centre(&self) -> &Vector {
        &self.centre
    }

    /// The generators.
    pub fn generators(&self) -> &[Vector] {
        &self.generators
    }

    /// Number of noise symbols.
    pub fn num_generators(&self) -> usize {
        self.generators.len()
    }

    /// Radius (sum of absolute generator coefficients) of dimension `i`.
    pub fn radius(&self, i: usize) -> f64 {
        self.generators.iter().map(|g| g[i].abs()).sum()
    }

    /// Applies an affine map given as a closure over concrete vectors. The
    /// closure must be affine (`f(x) = A x + b`): the generators are mapped
    /// through the linear part by evaluating `f(c + g) − f(c)`.
    fn affine_map(&self, f: impl Fn(&Vector) -> Vector) -> Zonotope {
        let new_centre = f(&self.centre);
        let generators = self
            .generators
            .iter()
            .map(|g| &f(&(&self.centre + g)) - &new_centre)
            .collect();
        Zonotope {
            centre: new_centre,
            generators,
        }
    }

    fn relu(&self) -> Zonotope {
        let dim = self.centre.len();
        let box_bounds = self.to_box();
        let mut centre = self.centre.clone();
        let mut generators = self.generators.clone();
        let mut fresh: Vec<(usize, f64)> = Vec::new();

        for i in 0..dim {
            let Interval { lo, hi } = box_bounds[i];
            if lo >= 0.0 {
                // Stable active: identity.
                continue;
            }
            if hi <= 0.0 {
                // Stable inactive: output is exactly zero.
                centre[i] = 0.0;
                for g in &mut generators {
                    g[i] = 0.0;
                }
                continue;
            }
            // Unstable: y = λ·x + μ ± μ with λ = hi/(hi−lo), μ = −λ·lo/2.
            let lambda = hi / (hi - lo);
            let mu = -lambda * lo / 2.0;
            centre[i] = lambda * centre[i] + mu;
            for g in &mut generators {
                g[i] *= lambda;
            }
            fresh.push((i, mu));
        }

        for (i, mu) in fresh {
            let mut g = Vector::zeros(dim);
            g[i] = mu;
            generators.push(g);
        }
        Zonotope { centre, generators }
    }

    fn leaky_relu(&self, slope: f64) -> Zonotope {
        // Sound fallback: treat as ReLU on the positive part plus the scaled
        // negative part via the box abstraction when unstable. For simplicity
        // (leaky ReLU is rare in the verified tails) use the box fallback.
        let bounds = self
            .to_box()
            .into_iter()
            .map(|i| i.leaky_relu(slope))
            .collect();
        Zonotope::from_intervals(bounds)
    }

    fn monotone_box_fallback(&self, f: impl Fn(f64) -> f64) -> Zonotope {
        let bounds = self
            .to_box()
            .into_iter()
            .map(|i| Interval::new(f(i.lo), f(i.hi)))
            .collect();
        Zonotope::from_intervals(bounds)
    }
}

impl AbstractDomain for Zonotope {
    fn from_intervals(bounds: Vec<Interval>) -> Self {
        let dim = bounds.len();
        let centre: Vector = bounds.iter().map(Interval::midpoint).collect();
        let mut generators = Vec::new();
        for (i, b) in bounds.iter().enumerate() {
            let radius = 0.5 * b.width();
            if radius > 0.0 {
                let mut g = Vector::zeros(dim);
                g[i] = radius;
                generators.push(g);
            }
        }
        Self { centre, generators }
    }

    fn to_box(&self) -> Vec<Interval> {
        (0..self.centre.len())
            .map(|i| {
                let r = self.radius(i);
                Interval::new(self.centre[i] - r, self.centre[i] + r)
            })
            .collect()
    }

    fn dim(&self) -> usize {
        self.centre.len()
    }

    fn apply_layer(&self, layer: &Layer) -> Self {
        match layer {
            Layer::Dense(d) => self.affine_map(|x| d.forward(x)),
            Layer::BatchNorm(bn) => self.affine_map(|x| bn.forward(x)),
            Layer::Conv2d(c) => self.affine_map(|x| c.forward(x)),
            Layer::Flatten(_) => self.clone(),
            Layer::Activation(a) => match a {
                Activation::Identity => self.clone(),
                Activation::ReLU => self.relu(),
                Activation::LeakyReLU(slope) => self.leaky_relu(*slope),
                Activation::Sigmoid | Activation::Tanh => {
                    self.monotone_box_fallback(|x| a.apply(x))
                }
            },
            Layer::MaxPool2d(p) => {
                // Box fallback: pool the box enclosure.
                let box_domain = BoxDomain::from_intervals(self.to_box());
                let pooled = box_domain.apply_layer(&Layer::MaxPool2d(p.clone()));
                Zonotope::from_intervals(pooled.to_box())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Dense, NetworkBuilder};
    use dpv_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn box_roundtrip() {
        let z = Zonotope::from_intervals(vec![Interval::new(-1.0, 1.0), Interval::new(0.0, 2.0)]);
        let b = z.to_box();
        assert_eq!(b[0], Interval::new(-1.0, 1.0));
        assert_eq!(b[1], Interval::new(0.0, 2.0));
        assert_eq!(z.dim(), 2);
        assert_eq!(z.num_generators(), 2);
    }

    #[test]
    fn affine_layers_are_exact() {
        // A rotation-ish dense layer: the zonotope box must match the exact
        // interval arithmetic result for a single affine layer.
        let w = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]]).unwrap();
        let layer = Layer::Dense(Dense::from_parts(w, Vector::zeros(2)));
        let z = Zonotope::from_intervals(vec![Interval::new(-1.0, 1.0); 2]).apply_layer(&layer);
        let b = z.to_box();
        assert_eq!(b[0], Interval::new(-2.0, 2.0));
        assert_eq!(b[1], Interval::new(-2.0, 2.0));
    }

    #[test]
    fn zonotope_tracks_correlations_better_than_box() {
        // y = x - x is exactly 0; the box domain cannot see that, the
        // zonotope can.
        let w1 = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let w2 = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let layers = vec![
            Layer::Dense(Dense::from_parts(w1, Vector::zeros(2))),
            Layer::Dense(Dense::from_parts(w2, Vector::zeros(1))),
        ];
        let start = vec![Interval::new(-1.0, 1.0)];
        let z = Zonotope::from_intervals(start.clone()).propagate(&layers);
        let b = BoxDomain::from_intervals(start).propagate(&layers);
        assert!(z.to_box()[0].width() < 1e-12, "zonotope should be exact");
        assert!(b.to_box()[0].width() > 3.9, "box loses the correlation");
    }

    #[test]
    fn relu_transformer_is_sound() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(3)
            .dense(8, &mut rng)
            .activation(Activation::ReLU)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let start = vec![Interval::new(-1.0, 1.0); 3];
        let z = Zonotope::from_intervals(start).propagate(net.layers());
        for _ in 0..300 {
            let x = Vector::from_vec((0..3).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let y = net.forward(&x);
            assert!(z.box_contains(y.as_slice(), 1e-7), "{y} escapes zonotope");
        }
    }

    #[test]
    fn zonotope_is_tighter_than_box_on_deep_networks() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = NetworkBuilder::new(4)
            .dense(10, &mut rng)
            .activation(Activation::ReLU)
            .dense(10, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let start = vec![Interval::new(-0.5, 0.5); 4];
        let z = Zonotope::from_intervals(start.clone()).propagate(net.layers());
        let b = BoxDomain::from_intervals(start).propagate(net.layers());
        let z_width: f64 = z.to_box().iter().map(Interval::width).sum();
        let b_width: f64 = b.to_box().iter().map(Interval::width).sum();
        assert!(
            z_width <= b_width + 1e-9,
            "zonotope ({z_width}) should not be looser than box ({b_width})"
        );
    }

    #[test]
    fn stable_relu_neurons_stay_exact() {
        let z = Zonotope::from_intervals(vec![Interval::new(0.5, 1.5), Interval::new(-2.0, -1.0)]);
        let out = z.apply_layer(&Layer::Activation(Activation::ReLU));
        let b = out.to_box();
        assert_eq!(b[0], Interval::new(0.5, 1.5));
        assert_eq!(b[1], Interval::new(0.0, 0.0));
        // No fresh generator is needed for stable neurons.
        assert_eq!(out.num_generators(), z.num_generators());
    }

    #[test]
    fn smooth_activation_falls_back_to_box() {
        let z = Zonotope::from_intervals(vec![Interval::new(-1.0, 1.0)]);
        let out = z.apply_layer(&Layer::Activation(Activation::Tanh));
        let b = out.to_box();
        assert!((b[0].lo - (-1.0f64).tanh()).abs() < 1e-12);
        assert!((b[0].hi - 1.0f64.tanh()).abs() < 1e-12);
    }
}
