//! Closed intervals of `f64` with outward-directed arithmetic.

use std::fmt;

/// A closed interval `[lo, hi]`.
///
/// ```
/// use dpv_absint::Interval;
/// let a = Interval::new(-1.0, 2.0);
/// let b = a.relu();
/// assert_eq!(b, Interval::new(0.0, 2.0));
/// assert!(a.contains(0.5, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval bounds must not be NaN"
        );
        assert!(lo <= hi, "interval is empty: [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The interval `[0, 0]`.
    pub fn zero() -> Self {
        Self::point(0.0)
    }

    /// Width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint `(hi + lo) / 2`.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.hi + self.lo)
    }

    /// Returns `true` when `v` lies in the interval, enlarged by `tol` on
    /// both sides.
    pub fn contains(&self, v: f64, tol: f64) -> bool {
        v >= self.lo - tol && v <= self.hi + tol
    }

    /// Returns `true` when `other` is entirely inside `self` (within `tol`).
    pub fn encloses(&self, other: &Interval, tol: f64) -> bool {
        other.lo >= self.lo - tol && other.hi <= self.hi + tol
    }

    /// Interval sum.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, v: f64) -> Interval {
        Interval::new(self.lo + v, self.hi + v)
    }

    /// Multiplies by a scalar (flipping the bounds for negative scalars).
    pub fn scale(&self, factor: f64) -> Interval {
        if factor >= 0.0 {
            Interval::new(self.lo * factor, self.hi * factor)
        } else {
            Interval::new(self.hi * factor, self.lo * factor)
        }
    }

    /// Image under the ReLU function.
    pub fn relu(&self) -> Interval {
        Interval::new(self.lo.max(0.0), self.hi.max(0.0))
    }

    /// Image under the leaky-ReLU function with the given negative slope
    /// (assumed in `[0, 1]`).
    pub fn leaky_relu(&self, slope: f64) -> Interval {
        let f = |x: f64| if x >= 0.0 { x } else { slope * x };
        Interval::new(f(self.lo), f(self.hi))
    }

    /// Interval product: the tightest interval containing `a · b` for every
    /// `a ∈ self`, `b ∈ other` — the min/max over the four endpoint
    /// products. Needed when *both* factors are uncertain (e.g. an
    /// interval-valued weight applied to an interval-valued activation in
    /// the delta-verification absorption check); for a known scalar factor
    /// [`Interval::scale`] is the cheaper special case.
    pub fn mul(&self, other: &Interval) -> Interval {
        let products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        let mut lo = products[0];
        let mut hi = products[0];
        for &p in &products[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Interval::new(lo, hi)
    }

    /// Smallest interval containing both operands (join / convex hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Intersection, or `None` when the operands are disjoint.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// Interval maximum (used by the max-pool transformer).
    pub fn max(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-1.0, 3.0);
        assert_eq!(i.width(), 4.0);
        assert_eq!(i.midpoint(), 1.0);
        assert_eq!(Interval::point(2.0).width(), 0.0);
        assert_eq!(Interval::zero(), Interval::point(0.0));
    }

    #[test]
    fn containment_and_enclosure() {
        let i = Interval::new(0.0, 1.0);
        assert!(i.contains(0.5, 0.0));
        assert!(!i.contains(1.1, 0.0));
        assert!(i.contains(1.05, 0.1));
        assert!(i.encloses(&Interval::new(0.2, 0.8), 0.0));
        assert!(!i.encloses(&Interval::new(-0.2, 0.8), 0.0));
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(0.5, 1.0);
        assert_eq!(a.add(&b), Interval::new(-0.5, 3.0));
        assert_eq!(a.add_scalar(1.0), Interval::new(0.0, 3.0));
        assert_eq!(a.scale(2.0), Interval::new(-2.0, 4.0));
        assert_eq!(a.scale(-1.0), Interval::new(-2.0, 1.0));
    }

    #[test]
    fn activation_transformers() {
        let a = Interval::new(-2.0, 3.0);
        assert_eq!(a.relu(), Interval::new(0.0, 3.0));
        assert_eq!(Interval::new(-3.0, -1.0).relu(), Interval::new(0.0, 0.0));
        assert_eq!(a.leaky_relu(0.1), Interval::new(-0.2, 3.0));
    }

    #[test]
    fn interval_product_covers_all_sign_combinations() {
        let cases = [
            (Interval::new(1.0, 2.0), Interval::new(3.0, 4.0)),
            (Interval::new(-2.0, -1.0), Interval::new(3.0, 4.0)),
            (Interval::new(-2.0, 3.0), Interval::new(-1.0, 4.0)),
            (Interval::new(-2.0, 3.0), Interval::new(-4.0, -1.0)),
            (Interval::new(0.0, 0.0), Interval::new(-5.0, 7.0)),
        ];
        for (a, b) in cases {
            let prod = a.mul(&b);
            // Sample the operands densely; every concrete product must land
            // inside, and the endpoints must be achieved at corners.
            for i in 0..=10 {
                for j in 0..=10 {
                    let x = a.lo + a.width() * (i as f64) / 10.0;
                    let y = b.lo + b.width() * (j as f64) / 10.0;
                    assert!(prod.contains(x * y, 1e-12), "{x}*{y} escapes {prod}");
                }
            }
            let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            let min = corners.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(prod, Interval::new(min, max));
        }
    }

    #[test]
    fn interval_product_degenerates_to_scale() {
        let a = Interval::new(-1.0, 2.0);
        for factor in [-3.0, 0.0, 2.5] {
            assert_eq!(a.mul(&Interval::point(factor)), a.scale(factor));
        }
    }

    #[test]
    fn lattice_operations() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.join(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.meet(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.meet(&Interval::new(5.0, 6.0)), None);
        assert_eq!(a.max(&b), Interval::new(1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_interval_panics() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    fn display_formats_bounds() {
        assert_eq!(Interval::new(0.0, 1.0).to_string(), "[0.0000, 1.0000]");
    }
}
