//! Streaming statistics used to build activation envelopes and batch-norm
//! statistics without storing every sample.

/// Per-dimension running minimum and maximum over a stream of vectors.
///
/// This is exactly the "abstraction by aggregating visited neuron values"
/// from the paper's Figure 1: feeding every observed activation vector of a
/// layer produces the `[min, max]` interval per neuron.
///
/// ```
/// use dpv_tensor::RunningMinMax;
/// let mut mm = RunningMinMax::new(2);
/// mm.observe(&[0.0, 1.0]);
/// mm.observe(&[-0.1, 0.6]);
/// assert_eq!(mm.min(0), Some(-0.1));
/// assert_eq!(mm.max(1), Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunningMinMax {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    count: usize,
}

impl RunningMinMax {
    /// Creates a tracker for vectors of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            mins: vec![f64::INFINITY; dim],
            maxs: vec![f64::NEG_INFINITY; dim],
            count: 0,
        }
    }

    /// Dimension being tracked.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns `true` when no observation has been made yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics when `values.len() != self.dim()`.
    pub fn observe(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.dim(), "observation dimension mismatch");
        for (i, v) in values.iter().enumerate() {
            if *v < self.mins[i] {
                self.mins[i] = *v;
            }
            if *v > self.maxs[i] {
                self.maxs[i] = *v;
            }
        }
        self.count += 1;
    }

    /// Minimum observed value of dimension `i`, or `None` before any observation.
    pub fn min(&self, i: usize) -> Option<f64> {
        (self.count > 0).then(|| self.mins[i])
    }

    /// Maximum observed value of dimension `i`, or `None` before any observation.
    pub fn max(&self, i: usize) -> Option<f64> {
        (self.count > 0).then(|| self.maxs[i])
    }

    /// All minima (empty-slice semantics are up to the caller before any observation).
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// All maxima.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Merges another tracker of the same dimension into this one.
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn merge(&mut self, other: &RunningMinMax) {
        assert_eq!(self.dim(), other.dim(), "merge dimension mismatch");
        for i in 0..self.dim() {
            self.mins[i] = self.mins[i].min(other.mins[i]);
            self.maxs[i] = self.maxs[i].max(other.maxs[i]);
        }
        self.count += other.count;
    }

    /// Widens every interval by `margin` on both sides (used to add slack to
    /// assume-guarantee envelopes).
    pub fn widen(&mut self, margin: f64) {
        for i in 0..self.dim() {
            self.mins[i] -= margin;
            self.maxs[i] += margin;
        }
    }

    /// Returns `true` when `values` lies inside all per-dimension intervals.
    ///
    /// # Panics
    /// Panics when `values.len() != self.dim()`.
    pub fn contains(&self, values: &[f64]) -> bool {
        assert_eq!(values.len(), self.dim(), "containment dimension mismatch");
        if self.count == 0 {
            return false;
        }
        values
            .iter()
            .enumerate()
            .all(|(i, v)| *v >= self.mins[i] && *v <= self.maxs[i])
    }
}

/// Welford online mean/variance accumulator for a single scalar stream.
///
/// ```
/// use dpv_tensor::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0] { s.push(v); }
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.variance() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the observations (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_tracks_paper_example() {
        // Figure 1: visited values {0, 0.1, -0.1, 0.6} abstract to [-0.1, 0.6].
        let mut mm = RunningMinMax::new(1);
        for v in [0.0, 0.1, -0.1, 0.6] {
            mm.observe(&[v]);
        }
        assert_eq!(mm.min(0), Some(-0.1));
        assert_eq!(mm.max(0), Some(0.6));
        assert!(mm.contains(&[0.3]));
        assert!(!mm.contains(&[0.7]));
        assert_eq!(mm.count(), 4);
    }

    #[test]
    fn empty_tracker_contains_nothing() {
        let mm = RunningMinMax::new(2);
        assert!(mm.is_empty());
        assert!(!mm.contains(&[0.0, 0.0]));
        assert_eq!(mm.min(0), None);
    }

    #[test]
    fn merge_combines_ranges() {
        let mut a = RunningMinMax::new(1);
        a.observe(&[1.0]);
        let mut b = RunningMinMax::new(1);
        b.observe(&[-2.0]);
        a.merge(&b);
        assert_eq!(a.min(0), Some(-2.0));
        assert_eq!(a.max(0), Some(1.0));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn widen_adds_margin() {
        let mut mm = RunningMinMax::new(1);
        mm.observe(&[0.0]);
        mm.widen(0.5);
        assert!(mm.contains(&[0.4]));
        assert!(!mm.contains(&[0.6]));
    }

    #[test]
    fn online_stats_mean_variance() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }
}
