//! Dependency-free k-means over activation vectors.
//!
//! The sharded envelope needs nothing more than Lloyd's algorithm with a
//! good seeding: the build environment has no clustering crate, and the
//! workspace's [`rand`] shim provides the only randomness. Three details
//! matter for the verification use case and are therefore implemented
//! explicitly:
//!
//! * **k-means++ seeding** — centroids are drawn proportionally to the
//!   squared distance from the already-chosen ones, so the straight-road
//!   and tight-curve activation modes of a multi-modal dataset start in
//!   different clusters instead of splitting one mode twice.
//! * **Empty-cluster reseeding** — a cluster that loses every member is
//!   re-anchored at the sample currently farthest from its assigned
//!   centroid. The sharded envelope relies on every cluster being
//!   non-empty (an empty cluster would produce an envelope over zero
//!   samples).
//! * **Determinism** — everything is driven by a caller-provided seed
//!   through the workspace's deterministic `StdRng`, so shard layouts are
//!   reproducible run to run, which the verification determinism rule
//!   (lowest-index counterexample wins) depends on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpv_tensor::Vector;

/// Hyper-parameters of one k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Maximum number of Lloyd iterations (assignment + mean update).
    pub max_iterations: usize,
    /// Seed of the deterministic RNG driving the k-means++ initialisation.
    pub seed: u64,
    /// Convergence threshold: iteration stops once no centroid moves
    /// farther than this (Euclidean distance).
    pub tolerance: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            max_iterations: 64,
            seed: 7,
            tolerance: 1e-9,
        }
    }
}

/// The result of a k-means run: centroids, per-sample assignments and the
/// summed squared distance of every sample to its centroid (inertia).
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centres, indexed by cluster id.
    pub centroids: Vec<Vector>,
    /// For every input sample, the id of the cluster it belongs to.
    pub assignments: Vec<usize>,
    /// Sum over samples of the squared distance to the assigned centroid —
    /// the objective Lloyd's algorithm minimises.
    pub inertia: f64,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Number of members per cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Squared Euclidean distance (no square root — k-means only compares).
pub(crate) fn squared_distance(a: &Vector, b: &Vector) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the centroid nearest to `point` (ties break to the lowest
/// index, keeping assignments deterministic). Shared with the sharded
/// envelope's nearest-shard lookup so both sides use one tie-break rule.
pub(crate) fn nearest_centroid(centroids: &[Vector], point: &Vector) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d2 = squared_distance(c, point);
        if d2 < best_d2 {
            best = i;
            best_d2 = d2;
        }
    }
    (best, best_d2)
}

/// k-means++ initialisation: the first centroid is uniform, every later one
/// is drawn with probability proportional to the squared distance from the
/// nearest already-chosen centroid.
fn seed_centroids(samples: &[Vector], k: usize, rng: &mut StdRng) -> Vec<Vector> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(samples[rng.gen_range(0..samples.len())].clone());
    let mut dist2: Vec<f64> = samples
        .iter()
        .map(|s| squared_distance(s, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let pick = if total > 0.0 {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = samples.len() - 1;
            for (i, &d2) in dist2.iter().enumerate() {
                if target < d2 {
                    chosen = i;
                    break;
                }
                target -= d2;
            }
            chosen
        } else {
            // Every sample coincides with a centroid already; any index
            // works (the duplicate centroid owns an empty region that the
            // Lloyd loop's reseeding will handle or leave empty).
            rng.gen_range(0..samples.len())
        };
        let centroid = samples[pick].clone();
        for (d2, s) in dist2.iter_mut().zip(samples) {
            *d2 = d2.min(squared_distance(s, &centroid));
        }
        centroids.push(centroid);
    }
    centroids
}

/// Runs k-means over `samples` with `k` clusters (clamped to the sample
/// count). Returns deterministic, non-empty clusters whose union is exactly
/// the sample set.
///
/// # Panics
/// Panics when `samples` is empty — callers building envelopes check for
/// the empty case first and surface it as an error.
pub fn kmeans(samples: &[Vector], k: usize, config: &KMeansConfig) -> Clustering {
    assert!(!samples.is_empty(), "k-means over zero samples");
    let k = k.clamp(1, samples.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let centroids = seed_centroids(samples, k, &mut rng);
    lloyd(samples, centroids, config)
}

/// Runs k-means over `samples` starting from the given centroids instead of
/// a fresh k-means++ draw. This is the **warm re-clustering** entry point
/// for continuous delta-verification: after a retrain shifts the cut-layer
/// activations, re-clustering seeded at the *previous* envelope's converged
/// centroids keeps shard identity stable (shard `i` tracks the mode that
/// centroid `i` already described) instead of re-rolling the partition from
/// scratch — so per-shard obligations line up across checkpoints.
///
/// The Lloyd loop (assignment, empty-cluster reseeding, convergence
/// tolerance, final empty-cluster dropping) is exactly the one behind
/// [`kmeans`]; only the initialisation differs, and no randomness is
/// consumed.
///
/// # Panics
/// Panics when `samples` or `centroids` is empty, or when a centroid's
/// dimension differs from the samples'.
pub fn kmeans_seeded(
    samples: &[Vector],
    centroids: &[Vector],
    config: &KMeansConfig,
) -> Clustering {
    assert!(!samples.is_empty(), "k-means over zero samples");
    assert!(
        !centroids.is_empty(),
        "seeded k-means needs at least one centroid"
    );
    let dim = samples[0].len();
    for c in centroids {
        assert_eq!(c.len(), dim, "seed centroid dimension mismatch");
    }
    lloyd(samples, centroids.to_vec(), config)
}

/// The shared Lloyd iteration behind [`kmeans`] and [`kmeans_seeded`]:
/// assignment, empty-cluster reseeding at the worst-fitted sample, mean
/// update with a squared-shift convergence stop, then a final assignment
/// and empty-cluster drop.
fn lloyd(samples: &[Vector], mut centroids: Vec<Vector>, config: &KMeansConfig) -> Clustering {
    let k = centroids.len();
    let dim = samples[0].len();
    let mut assignments = vec![0usize; samples.len()];
    let mut dist2 = vec![0.0f64; samples.len()];

    for _ in 0..config.max_iterations.max(1) {
        // Assignment step.
        for (i, s) in samples.iter().enumerate() {
            let (a, d2) = nearest_centroid(&centroids, s);
            assignments[i] = a;
            dist2[i] = d2;
        }
        let mut sizes = vec![0usize; k];
        for &a in &assignments {
            sizes[a] += 1;
        }
        // Empty-cluster reseeding: re-anchor at the worst-fitted sample of
        // a cluster that can spare one.
        for c in 0..k {
            if sizes[c] > 0 {
                continue;
            }
            let far = dist2
                .iter()
                .enumerate()
                .filter(|&(i, _)| sizes[assignments[i]] > 1)
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
                .map(|(i, _)| i);
            if let Some(far) = far {
                sizes[assignments[far]] -= 1;
                assignments[far] = c;
                sizes[c] = 1;
                centroids[c] = samples[far].clone();
                dist2[far] = 0.0;
            }
        }
        // Update step.
        let mut shift2: f64 = 0.0;
        let mut sums = vec![Vector::zeros(dim); k];
        for (s, &a) in samples.iter().zip(&assignments) {
            sums[a] += s;
        }
        for c in 0..k {
            if sizes[c] == 0 {
                continue; // duplicate-point corner case; centroid stays.
            }
            let mean = sums[c].scale(1.0 / sizes[c] as f64);
            shift2 = shift2.max(squared_distance(&mean, &centroids[c]));
            centroids[c] = mean;
        }
        if shift2 <= config.tolerance * config.tolerance {
            break;
        }
    }

    // Final assignment against the converged centroids, plus inertia.
    let mut inertia = 0.0;
    for (i, s) in samples.iter().enumerate() {
        let (a, d2) = nearest_centroid(&centroids, s);
        assignments[i] = a;
        inertia += d2;
    }
    // Drop clusters that ended empty (possible only when samples contain
    // fewer distinct points than k): the sharded envelope must not carry
    // shards over zero samples.
    let mut sizes = vec![0usize; k];
    for &a in &assignments {
        sizes[a] += 1;
    }
    if sizes.contains(&0) {
        let mut remap = vec![usize::MAX; k];
        let mut kept = Vec::new();
        for (c, centroid) in centroids.into_iter().enumerate() {
            if sizes[c] > 0 {
                remap[c] = kept.len();
                kept.push(centroid);
            }
        }
        for a in &mut assignments {
            *a = remap[*a];
        }
        centroids = kept;
    }
    Clustering {
        centroids,
        assignments,
        inertia,
    }
}

/// Inertia-based `k` sweep: clusters at `k = 1..=max_k` and keeps adding
/// clusters while the inertia improves by at least `min_gain` (relative to
/// the previous `k`'s inertia) — the classic elbow rule. Returns the last
/// accepted clustering (at least one cluster), so the winner does not have
/// to be re-clustered.
pub fn kmeans_auto(
    samples: &[Vector],
    max_k: usize,
    min_gain: f64,
    config: &KMeansConfig,
) -> Clustering {
    assert!(!samples.is_empty(), "k selection over zero samples");
    let max_k = max_k.clamp(1, samples.len());
    let mut best = kmeans(samples, 1, config);
    for k in 2..=max_k {
        if best.inertia <= 0.0 {
            break; // already a perfect fit; more clusters cannot help
        }
        let candidate = kmeans(samples, k, config);
        if (best.inertia - candidate.inertia) / best.inertia < min_gain {
            break;
        }
        best = candidate;
    }
    best
}

/// The cluster count [`kmeans_auto`] settles on (at least 1).
pub fn select_k(samples: &[Vector], max_k: usize, min_gain: f64, config: &KMeansConfig) -> usize {
    kmeans_auto(samples, max_k, min_gain, config).k()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs around `(0, 0)` and `(10, 10)`.
    fn two_blobs(n: usize) -> Vec<Vector> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 10.0 };
                Vector::from_slice(&[
                    base + rng.gen_range(-0.5..0.5),
                    base + rng.gen_range(-0.5..0.5),
                ])
            })
            .collect()
    }

    #[test]
    fn two_blobs_are_separated_cleanly() {
        let samples = two_blobs(60);
        let clustering = kmeans(&samples, 2, &KMeansConfig::default());
        assert_eq!(clustering.k(), 2);
        // All even-index samples share a cluster, all odd-index the other.
        let first = clustering.assignments[0];
        for (i, &a) in clustering.assignments.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, first);
            } else {
                assert_ne!(a, first);
            }
        }
        // Inertia of the correct 2-clustering is far below the 1-cluster fit.
        let single = kmeans(&samples, 1, &KMeansConfig::default());
        assert!(clustering.inertia < 0.1 * single.inertia);
    }

    #[test]
    fn runs_are_deterministic_given_a_seed() {
        let samples = two_blobs(40);
        let a = kmeans(&samples, 3, &KMeansConfig::default());
        let b = kmeans(&samples, 3, &KMeansConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn k_is_clamped_and_clusters_are_never_empty() {
        let samples = two_blobs(5);
        let clustering = kmeans(&samples, 12, &KMeansConfig::default());
        assert!(clustering.k() <= 5);
        assert!(clustering.cluster_sizes().iter().all(|&s| s > 0));
        assert_eq!(clustering.assignments.len(), 5);
    }

    #[test]
    fn duplicate_points_collapse_to_one_cluster() {
        let samples = vec![Vector::from_slice(&[1.0, 2.0]); 8];
        let clustering = kmeans(&samples, 4, &KMeansConfig::default());
        assert!(clustering.cluster_sizes().iter().all(|&s| s > 0));
        assert_eq!(clustering.inertia, 0.0);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let samples = two_blobs(50);
        let config = KMeansConfig::default();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let inertia = kmeans(&samples, k, &config).inertia;
            assert!(inertia <= last + 1e-9, "inertia rose at k = {k}");
            last = inertia;
        }
    }

    #[test]
    fn seeded_restart_at_converged_centroids_is_a_fixed_point() {
        let samples = two_blobs(60);
        let config = KMeansConfig::default();
        let converged = kmeans(&samples, 2, &config);
        let restarted = kmeans_seeded(&samples, &converged.centroids, &config);
        assert_eq!(restarted, converged, "converged centroids must be stable");
    }

    #[test]
    fn seeded_clustering_keeps_cluster_identity_under_drift() {
        // Seed at the converged centroids of the original blobs, then
        // cluster a shifted copy: cluster i must keep tracking blob i.
        let samples = two_blobs(60);
        let config = KMeansConfig::default();
        let original = kmeans(&samples, 2, &config);
        let drifted: Vec<Vector> = samples
            .iter()
            .map(|s| Vector::from_slice(&[s[0] + 0.3, s[1] - 0.2]))
            .collect();
        let refit = kmeans_seeded(&drifted, &original.centroids, &config);
        assert_eq!(refit.k(), 2);
        assert_eq!(refit.assignments, original.assignments, "identity drifted");
        for (new_c, old_c) in refit.centroids.iter().zip(&original.centroids) {
            assert!(
                squared_distance(new_c, old_c) < 0.3f64.powi(2) + 0.2f64.powi(2) + 1e-9,
                "centroid moved farther than the injected drift"
            );
        }
    }

    #[test]
    fn seeded_clustering_drops_empty_clusters() {
        // Eight identical points cannot support three clusters: the
        // duplicates collapse and surplus clusters are dropped.
        let samples = vec![Vector::from_slice(&[1.0, 2.0]); 8];
        let seeds = vec![
            Vector::from_slice(&[1.0, 2.0]),
            Vector::from_slice(&[5.0, 5.0]),
            Vector::from_slice(&[-4.0, 0.0]),
        ];
        let clustering = kmeans_seeded(&samples, &seeds, &KMeansConfig::default());
        assert_eq!(clustering.k(), 1);
        assert_eq!(clustering.inertia, 0.0);
        assert!(clustering.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn select_k_finds_the_two_blobs() {
        let samples = two_blobs(60);
        let k = select_k(&samples, 6, 0.2, &KMeansConfig::default());
        assert_eq!(k, 2, "elbow should stop right after the real mode count");
    }

    #[test]
    fn select_k_on_identical_points_returns_one() {
        let samples = vec![Vector::from_slice(&[3.0]); 10];
        assert_eq!(select_k(&samples, 5, 0.2, &KMeansConfig::default()), 1);
    }
}
