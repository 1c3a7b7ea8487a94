//! The "octagon-lite" domain: a box plus bounds on adjacent-neuron
//! differences.

use dpv_tensor::Vector;

use crate::{AbstractDomain, BoxDomain, Interval};

/// Linear-constraint rows `(index, lo, hi)` as consumed by the MILP encoder:
/// per-neuron bounds are `lo ≤ x[i] ≤ hi`, difference rows bound
/// `x[i+1] − x[i]`.
pub type BoundRows = Vec<(usize, f64, f64)>;

/// A box refined with interval bounds on the differences of *adjacent*
/// neurons: for every `i`, `diff[i]` bounds `x[i+1] − x[i]`.
///
/// This is exactly the refinement the paper reports as necessary in
/// Section V: "it is commonly not sufficient to only record the minimum and
/// maximum value for each neuron … we also record the minimum and maximum
/// difference between two adjacent neurons in a layer", and footnote 8 notes
/// the `diff(n)` operation that computes it. Unlike a full octagon domain it
/// only tracks the `d−1` adjacent pairs, which keeps both the runtime
/// monitor and the MILP encoding linear in the layer width.
#[derive(Debug, Clone, PartialEq)]
pub struct OctagonLite {
    bounds: Vec<Interval>,
    diffs: Vec<Interval>,
}

impl OctagonLite {
    /// Builds the octagon-lite hull of a set of sample vectors: per-neuron
    /// min/max plus per-adjacent-pair difference min/max.
    ///
    /// # Panics
    /// Panics when `samples` is empty or dimensions are inconsistent.
    pub fn from_samples(samples: &[Vector]) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot build an octagon from zero samples"
        );
        let box_part = BoxDomain::from_samples(samples);
        let dim = samples[0].len();
        let diffs = if dim < 2 {
            Vec::new()
        } else {
            let diff_samples: Vec<Vector> =
                samples.iter().map(Vector::adjacent_differences).collect();
            BoxDomain::from_samples(&diff_samples).bounds().to_vec()
        };
        Self {
            bounds: box_part.bounds().to_vec(),
            diffs,
        }
    }

    /// Builds an octagon-lite from explicit per-neuron and per-difference
    /// intervals.
    ///
    /// # Panics
    /// Panics when `diffs.len() + 1 != bounds.len()` (unless both describe a
    /// 0/1-dimensional space).
    pub fn from_parts(bounds: Vec<Interval>, diffs: Vec<Interval>) -> Self {
        if bounds.len() >= 2 {
            assert_eq!(
                diffs.len(),
                bounds.len() - 1,
                "need one difference per adjacent pair"
            );
        }
        Self { bounds, diffs }
    }

    /// A pure box (no difference constraints).
    pub fn from_box(box_domain: &BoxDomain) -> Self {
        let dim = box_domain.dim();
        let diffs = if dim < 2 {
            Vec::new()
        } else {
            (0..dim - 1)
                .map(|i| {
                    let a = box_domain.bounds()[i];
                    let b = box_domain.bounds()[i + 1];
                    Interval::new(b.lo - a.hi, b.hi - a.lo)
                })
                .collect()
        };
        Self {
            bounds: box_domain.bounds().to_vec(),
            diffs,
        }
    }

    /// Dimension of the described vectors.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// Per-neuron interval bounds.
    pub fn bounds(&self) -> &[Interval] {
        &self.bounds
    }

    /// Adjacent-difference interval bounds (`diffs()[i]` bounds `x[i+1] − x[i]`).
    pub fn diffs(&self) -> &[Interval] {
        &self.diffs
    }

    /// The box part of the domain.
    pub fn to_box_domain(&self) -> BoxDomain {
        BoxDomain::from_intervals(self.bounds.clone())
    }

    /// Widens all intervals (neurons and differences) by `margin`.
    pub fn widen(&mut self, margin: f64) {
        for b in self.bounds.iter_mut().chain(self.diffs.iter_mut()) {
            *b = Interval::new(b.lo - margin, b.hi + margin);
        }
    }

    /// Returns `true` when `point` satisfies every neuron bound and every
    /// adjacent-difference bound (within `tol`).
    pub fn contains(&self, point: &[f64], tol: f64) -> bool {
        if point.len() != self.dim() {
            return false;
        }
        let box_ok = self
            .bounds
            .iter()
            .zip(point.iter())
            .all(|(interval, v)| interval.contains(*v, tol));
        if !box_ok {
            return false;
        }
        self.diffs
            .iter()
            .enumerate()
            .all(|(i, interval)| interval.contains(point[i + 1] - point[i], tol))
    }

    /// Propagates the domain through the tightening closure: difference
    /// bounds can shrink neuron bounds and vice versa. One pass of the
    /// closure is applied (sufficient for the chain structure of adjacent
    /// differences to converge after `dim` calls; callers may iterate).
    pub fn tighten(&mut self) {
        let n = self.dim();
        if n < 2 {
            return;
        }
        // Forward pass: x[i+1] ∈ x[i] + d[i].
        for i in 0..n - 1 {
            let implied = self.bounds[i].add(&self.diffs[i]);
            if let Some(meet) = self.bounds[i + 1].meet(&implied) {
                self.bounds[i + 1] = meet;
            }
        }
        // Backward pass: x[i] ∈ x[i+1] − d[i].
        for i in (0..n - 1).rev() {
            let implied = self.bounds[i + 1].add(&self.diffs[i].scale(-1.0));
            if let Some(meet) = self.bounds[i].meet(&implied) {
                self.bounds[i] = meet;
            }
        }
        // Difference tightening from the boxes.
        for i in 0..n - 1 {
            let implied = Interval::new(
                self.bounds[i + 1].lo - self.bounds[i].hi,
                self.bounds[i + 1].hi - self.bounds[i].lo,
            );
            if let Some(meet) = self.diffs[i].meet(&implied) {
                self.diffs[i] = meet;
            }
        }
    }

    /// Emits the domain as linear constraints over variables `vars[i]`
    /// (per-neuron bounds are returned as `(i, lo, hi)` and difference
    /// constraints as `(i, lo, hi)` over `x[i+1] − x[i]`) — the shape
    /// consumed by the MILP encoder in `dpv-core`.
    pub fn constraint_data(&self) -> (BoundRows, BoundRows) {
        let neuron = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.lo, b.hi))
            .collect();
        let diff = self
            .diffs
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.lo, d.hi))
            .collect();
        (neuron, diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Vector> {
        vec![
            Vector::from_slice(&[0.0, 0.1, 0.2]),
            Vector::from_slice(&[0.5, 0.4, 0.6]),
            Vector::from_slice(&[-0.1, 0.0, 0.3]),
        ]
    }

    #[test]
    fn from_samples_contains_all_samples() {
        let oct = OctagonLite::from_samples(&samples());
        for s in samples() {
            assert!(oct.contains(s.as_slice(), 1e-12));
        }
        assert_eq!(oct.dim(), 3);
        assert_eq!(oct.diffs().len(), 2);
    }

    #[test]
    fn difference_bounds_reject_points_the_box_accepts() {
        // Samples where x1 - x0 is always 0.1, but the box alone allows 0.6.
        let samples = vec![
            Vector::from_slice(&[0.0, 0.1]),
            Vector::from_slice(&[0.5, 0.6]),
        ];
        let oct = OctagonLite::from_samples(&samples);
        // In the box but violating the difference constraint:
        let candidate = [0.0, 0.6];
        assert!(oct.to_box_domain().bounds()[0].contains(candidate[0], 0.0));
        assert!(oct.to_box_domain().bounds()[1].contains(candidate[1], 0.0));
        assert!(
            !oct.contains(&candidate, 1e-9),
            "octagon must exclude the corner"
        );
    }

    #[test]
    fn from_box_imposes_no_extra_restriction() {
        use crate::AbstractDomain;
        let b = BoxDomain::from_intervals(vec![Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]);
        let oct = OctagonLite::from_box(&b);
        // Every corner of the box satisfies the derived difference bounds.
        for x0 in [0.0, 1.0] {
            for x1 in [2.0, 3.0] {
                assert!(oct.contains(&[x0, x1], 1e-12));
            }
        }
    }

    #[test]
    fn tighten_propagates_difference_information() {
        // x0 in [0, 10], x1 in [0, 10], but x1 - x0 in [5, 6] forces x1 >= 5.
        let mut oct = OctagonLite::from_parts(
            vec![Interval::new(0.0, 10.0), Interval::new(0.0, 10.0)],
            vec![Interval::new(5.0, 6.0)],
        );
        oct.tighten();
        assert!(oct.bounds()[1].lo >= 5.0 - 1e-12);
        assert!(oct.bounds()[0].hi <= 5.0 + 1e-12);
    }

    #[test]
    fn widen_relaxes_everything() {
        let mut oct = OctagonLite::from_samples(&samples());
        let before = oct.clone();
        oct.widen(0.1);
        assert!(oct.bounds()[0].width() > before.bounds()[0].width());
        assert!(oct.diffs()[0].width() > before.diffs()[0].width());
    }

    #[test]
    fn constraint_data_matches_intervals() {
        let oct = OctagonLite::from_samples(&samples());
        let (neuron, diff) = oct.constraint_data();
        assert_eq!(neuron.len(), 3);
        assert_eq!(diff.len(), 2);
        assert_eq!(neuron[0].1, oct.bounds()[0].lo);
        assert_eq!(diff[1].2, oct.diffs()[1].hi);
    }

    #[test]
    fn one_dimensional_case_has_no_diffs() {
        let oct =
            OctagonLite::from_samples(&[Vector::from_slice(&[1.0]), Vector::from_slice(&[2.0])]);
        assert!(oct.diffs().is_empty());
        assert!(oct.contains(&[1.5], 0.0));
        assert!(!oct.contains(&[2.5], 0.0));
    }

    #[test]
    #[should_panic(expected = "one difference per adjacent pair")]
    fn from_parts_validates_lengths() {
        let _ = OctagonLite::from_parts(vec![Interval::new(0.0, 1.0); 3], vec![]);
    }
}
