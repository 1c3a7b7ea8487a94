//! Envelope refinement by region splitting — the "incremental
//! abstraction-refinement" direction the paper sketches as future work in
//! its concluding remarks.
//!
//! The assume-guarantee start region `S̃` is a *single* box (plus difference
//! constraints) around every training-data activation, so the MILP may
//! return counterexamples that live in empty corners of that box: activation
//! patterns no realistic input ever produces. Because the MILP encoding is
//! exact, splitting the box cannot remove such a point from the search — but
//! it can isolate it in a sub-box that contains **no recorded activation at
//! all**, and such sub-boxes can be dropped from the envelope without
//! weakening its coverage of the data.
//!
//! The refinement loop therefore maintains a work list of sub-boxes and, for
//! each one:
//!
//! 1. **prunes** it when it contains no reference activation (the envelope
//!    then simply no longer covers that empty corner; the runtime monitor
//!    must check membership in the refined union instead of the single box);
//! 2. otherwise **verifies** it; `Safe` keeps it, a counterexample close to
//!    a reference activation is reported as genuinely `Unsafe`;
//! 3. otherwise **splits** it along its widest dimension and recurses, until
//!    the split budget is exhausted.
//!
//! The work list goes one generation (split depth) at a time; see
//! [`RefinementVerifier`] for why its result does not depend on the worker
//! count.
//!
//! The result, when every kept sub-box verifies, is a proof that holds for
//! every activation inside the refined union — which still contains every
//! training activation, so the assume-guarantee contract (monitor the
//! envelope at run time) is unchanged, just with a tighter envelope.

use std::sync::atomic::{AtomicUsize, Ordering};

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_lp::{default_backend, SolveStats, SolverBackend};
use dpv_tensor::Vector;

use crate::{
    CoreError, CounterExample, ProblemTemplate, RegionBounds, SolveOptions, StartRegion, Verdict,
    VerificationProblem,
};

/// Outcome of a refinement run.
#[derive(Debug, Clone, PartialEq)]
pub enum RefinedVerdict {
    /// Every kept sub-box was proved safe. The proof is conditional on the
    /// runtime monitor checking membership in the *refined* envelope (the
    /// union of kept boxes), exactly as the original assume-guarantee proof
    /// was conditional on the single-box envelope.
    Safe,
    /// A counterexample close to a recorded activation was found — a genuine
    /// (data-supported) violation.
    Unsafe(CounterExample),
    /// The split budget was exhausted before every sub-box could be either
    /// pruned, proved safe, or shown to contain a data-supported violation.
    Inconclusive {
        /// The last counterexample encountered.
        last_counterexample: CounterExample,
        /// Number of sub-boxes proved safe before giving up.
        safe_subregions: usize,
    },
}

impl RefinedVerdict {
    /// Returns `true` for [`RefinedVerdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, RefinedVerdict::Safe)
    }
}

/// Statistics and artefacts of a refinement run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefinementReport {
    /// Number of MILP verification calls.
    pub verification_calls: usize,
    /// Number of region splits performed.
    pub splits: usize,
    /// Number of sub-boxes proved safe (they form the refined envelope
    /// together with any sub-boxes never visited because their parent was
    /// already safe).
    pub safe_subregions: usize,
    /// Number of sub-boxes pruned because they contain no reference
    /// activation.
    pub pruned_subregions: usize,
    /// Counterexamples dismissed because they were far from every reference.
    pub spurious_counterexamples: usize,
    /// Aggregated solver statistics over every MILP call folded into the
    /// run (summed across workers), so benchmarks can report search
    /// throughput as nodes per second.
    pub solver_stats: SolveStats,
    /// The kept (safe) sub-boxes — the refined envelope.
    pub refined_envelope: Vec<BoxDomain>,
}

impl RefinementReport {
    /// Returns `true` when every reference activation passed to
    /// [`RefinementVerifier::verify`] is covered by the refined envelope.
    /// This is the invariant that keeps the assume-guarantee argument intact
    /// and is re-checked by the property tests.
    pub fn covers(&self, references: &[Vector], tol: f64) -> bool {
        references.iter().all(|r| {
            self.refined_envelope
                .iter()
                .any(|b| b.box_contains(r.as_slice(), tol))
        })
    }
}

/// Envelope-refining verifier on top of a [`VerificationProblem`].
///
/// One work-list serves every worker count: the sub-boxes of one split
/// depth (a *generation*) are independent MILP solves, so they are solved
/// across [`RefinementVerifier::workers`] scoped threads (the backends
/// behind the seam are `Send + Sync`) and then folded back sequentially in
/// work-list order, left child before right. The verdict, and in
/// particular which data-supported counterexample is reported, therefore
/// depends neither on thread scheduling nor on the worker count.
#[derive(Debug, Clone)]
pub struct RefinementVerifier {
    max_splits: usize,
    realizability_tolerance: f64,
    workers: usize,
}

impl Default for RefinementVerifier {
    fn default() -> Self {
        Self::new(256, 0.05)
    }
}

impl RefinementVerifier {
    /// Creates a verifier with a budget of at most `max_splits` region splits
    /// and the given L∞ tolerance for accepting a counterexample as
    /// data-supported. It solves on the calling thread until
    /// [`RefinementVerifier::with_workers`] says otherwise.
    pub fn new(max_splits: usize, realizability_tolerance: f64) -> Self {
        Self {
            max_splits,
            realizability_tolerance: realizability_tolerance.max(0.0),
            workers: 1,
        }
    }

    /// Solves each generation's sub-boxes across `workers` scoped worker
    /// threads; one (or zero) keeps every solve on the calling thread.
    /// Verdicts and reports are the same for every worker count: reported
    /// statistics count only the sub-boxes folded into the verdict, even
    /// though a run that ends mid-generation has solved the rest of that
    /// generation too.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The number of worker threads a generation is solved across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The split budget.
    pub fn max_splits(&self) -> usize {
        self.max_splits
    }

    /// The L∞ tolerance under which a counterexample counts as realizable.
    pub fn realizability_tolerance(&self) -> f64 {
        self.realizability_tolerance
    }

    /// Runs the refinement loop with the default solver backend. See
    /// [`RefinementVerifier::verify_with`].
    ///
    /// # Errors
    /// Propagates encoding errors and solver-limit conditions from the
    /// underlying verification.
    pub fn verify(
        &self,
        problem: &VerificationProblem,
        region: &BoxDomain,
        references: &[Vector],
    ) -> Result<(RefinedVerdict, RefinementReport), CoreError> {
        self.verify_with(problem, region, references, &default_backend())
    }

    /// Runs the refinement loop starting from `region` (typically the
    /// envelope's box), with `references` the recorded cut-layer activations
    /// of the training data, solving every sub-region through `backend`.
    ///
    /// # Errors
    /// Propagates encoding errors and solver-limit conditions from the
    /// underlying verification.
    pub fn verify_with(
        &self,
        problem: &VerificationProblem,
        region: &BoxDomain,
        references: &[Vector],
        backend: &dyn SolverBackend,
    ) -> Result<(RefinedVerdict, RefinementReport), CoreError> {
        // One template for the whole sweep, shared read-only across the
        // worker threads.
        let template = problem.encoding_template(&StartRegion::Box(region.clone()))?;
        let mut report = RefinementReport::default();
        let mut generation: Vec<BoxDomain> = vec![region.clone()];

        while !generation.is_empty() {
            let outcomes = solve_generation(
                problem,
                &template,
                &generation,
                references,
                backend,
                self.workers,
            );
            let mut next = Vec::new();
            for (current, outcome) in generation.into_iter().zip(outcomes) {
                let (verdict, stats) = match outcome? {
                    BoxOutcome::Pruned => {
                        report.pruned_subregions += 1;
                        continue;
                    }
                    BoxOutcome::Solved { verdict, stats } => (verdict, stats),
                };
                report.verification_calls += 1;
                report.solver_stats += stats;
                let counterexample = match verdict {
                    Verdict::Safe => {
                        report.safe_subregions += 1;
                        report.refined_envelope.push(current);
                        continue;
                    }
                    Verdict::Unknown(reason) => return Err(CoreError::SolverLimit(reason)),
                    Verdict::Unsafe(counterexample) => counterexample,
                };
                // Fold order makes the lowest-index data-supported
                // counterexample win: boxes before this one were all
                // pruned, safe, or spurious.
                let realizable = references.iter().any(|r| {
                    (r - &counterexample.activation).norm_linf() <= self.realizability_tolerance
                });
                if realizable {
                    return Ok((RefinedVerdict::Unsafe(counterexample), report));
                }
                report.spurious_counterexamples += 1;
                if report.splits >= self.max_splits {
                    return Ok((
                        RefinedVerdict::Inconclusive {
                            last_counterexample: counterexample,
                            safe_subregions: report.safe_subregions,
                        },
                        report,
                    ));
                }
                let (left, right) = split_box(&current);
                report.splits += 1;
                next.push(left);
                next.push(right);
            }
            generation = next;
        }

        // The work-list drained: every sub-box was pruned (empty of data) or
        // proved safe, so the refined envelope — which still covers every
        // reference activation — satisfies the property.
        Ok((RefinedVerdict::Safe, report))
    }
}

/// Per-sub-box outcome of one generation.
enum BoxOutcome {
    /// The box contains no reference activation and was dropped unsolved.
    Pruned,
    /// The box was verified; `stats` are the solver statistics of the call.
    Solved { verdict: Verdict, stats: SolveStats },
}

/// Solves every box of `generation` across `workers` worker threads and
/// returns the outcomes indexed like the input (position `i` holds box
/// `i`'s result), so the caller's fold is scheduling-independent. Every box
/// is a sub-box of the template's root and goes through
/// [`VerificationProblem::solve_with_template`].
///
/// Before the workers spawn, the bound propagation for every surviving
/// (non-pruned) sibling is done in **one batched SoA sweep**
/// ([`crate::EncodingTemplate::region_bounds_batch`]) — the workers then
/// only build from the precomputed bounds and solve. The batched lanes are
/// bit-identical to scalar propagation, so verdicts are unchanged.
fn solve_generation(
    problem: &VerificationProblem,
    template: &ProblemTemplate,
    generation: &[BoxDomain],
    references: &[Vector],
    backend: &dyn SolverBackend,
    workers: usize,
) -> Vec<Result<BoxOutcome, CoreError>> {
    let pruned: Vec<bool> = generation
        .iter()
        .map(|current| {
            !references
                .iter()
                .any(|r| current.box_contains(r.as_slice(), 1e-9))
        })
        .collect();
    let bounds = batch_region_bounds(template, generation, &pruned);
    fan_out(generation.len(), workers, |index| {
        if pruned[index] {
            return Ok(BoxOutcome::Pruned);
        }
        let region = StartRegion::Box(generation[index].clone());
        problem
            .solve_with_template(
                template,
                &region,
                &mut SolveOptions::new()
                    .bounds(bounds[index].as_ref())
                    .backend(backend),
            )
            .map(|(verdict, solution)| BoxOutcome::Solved {
                verdict,
                stats: solution.stats,
            })
    })
}

/// Runs `work(index)` for every `index` in `0..count` and returns the
/// results indexed like the input, so a caller folding them in order is
/// scheduling-independent. Up to `workers` scoped threads pull indices from
/// a shared cursor; with `workers <= 1` everything runs inline on the
/// caller. A panic in `work` is re-raised on the caller.
///
/// This is the one work-index dispenser of the crate: the refinement
/// generations and the sharded obligations both fan out through it.
pub(crate) fn fan_out<T>(count: usize, workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T>
where
    T: Send,
{
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(work).collect();
    }
    // The cursor only hands out distinct indices; results travel back
    // through `join`, which orders them after the worker's writes.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            return done;
                        }
                        done.push((index, work(index)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (index, result) in done {
                        slots[index] = Some(result);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands out every index exactly once"))
        .collect()
}

/// The batched propagate half of one generation: every box that will
/// actually be solved (not pruned) gets its per-stage bounds from one
/// [`crate::EncodingTemplate::region_bounds_batch`] sweep; pruned boxes are
/// never solved and stay `None`.
fn batch_region_bounds(
    template: &ProblemTemplate,
    generation: &[BoxDomain],
    pruned: &[bool],
) -> Vec<Option<RegionBounds>> {
    let mut slots: Vec<Option<RegionBounds>> = (0..generation.len()).map(|_| None).collect();
    let mut indices = Vec::new();
    let mut boxes = Vec::new();
    for (index, current) in generation.iter().enumerate() {
        if !pruned[index] {
            indices.push(index);
            boxes.push(current);
        }
    }
    if let Ok(all) = template.encoding().region_bounds_batch(&boxes) {
        for (index, bounds) in indices.into_iter().zip(all) {
            slots[index] = Some(bounds);
        }
    }
    slots
}

/// Splits a box along its widest dimension at the midpoint. The two halves
/// cover the original box exactly (they share the splitting hyperplane).
/// Public because the refinement loop and the obligation server's sub-box
/// decomposition (`dpv-serve`) must bisect identically for their obligations
/// to dedup against each other.
pub fn split_box(region: &BoxDomain) -> (BoxDomain, BoxDomain) {
    let bounds = region.bounds();
    let widest = bounds
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.width().partial_cmp(&b.width()).expect("finite widths"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let interval = bounds[widest];
    let mid = interval.midpoint();
    let mut left = bounds.to_vec();
    let mut right = bounds.to_vec();
    left[widest] = Interval::new(interval.lo, mid);
    right[widest] = Interval::new(mid, interval.hi);
    (
        BoxDomain::from_intervals(left),
        BoxDomain::from_intervals(right),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Characterizer, CharacterizerConfig, InputProperty, RiskCondition};
    use dpv_nn::{Activation, Dense, Layer, Network, NetworkBuilder};
    use dpv_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A hand-crafted problem where the single-box envelope admits spurious
    /// counterexamples in a data-free corner that refinement can prune.
    ///
    /// * tail output = x0 + x1 (after an identity/ReLU head),
    /// * characterizer always fires,
    /// * realizable activations lie on the diagonal x0 = x1 ≤ 0.7 (maximum
    ///   sum 1.4),
    /// * the bounding box `[0, 1] × [0, 0.7]` reaches sums up to 1.7, so the
    ///   risk "sum ≥ 1.5" has box counterexamples but no data-supported ones.
    fn hand_crafted_problem() -> (VerificationProblem, BoxDomain, Vec<Vector>) {
        let perception = Network::new(
            2,
            vec![
                Layer::Dense(Dense::from_parts(Matrix::identity(2), Vector::zeros(2))),
                Layer::Activation(Activation::ReLU),
                Layer::Dense(Dense::from_parts(
                    Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
                    Vector::zeros(1),
                )),
            ],
        )
        .unwrap();
        let ch_net = Network::new(
            2,
            vec![Layer::Dense(Dense::from_parts(
                Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap(),
                Vector::from_slice(&[1.0]),
            ))],
        )
        .unwrap();
        let characterizer = Characterizer::from_network(
            InputProperty::new("always", "always true"),
            1,
            ch_net,
            1.0,
        )
        .unwrap();
        let risk = RiskCondition::new("large sum").output_ge(0, 1.5);
        let problem = VerificationProblem::new(perception, 1, characterizer, risk).unwrap();
        let region =
            BoxDomain::from_intervals(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 0.7)]);
        let references: Vec<Vector> = (0..30)
            .map(|i| {
                let v = 0.7 * i as f64 / 29.0;
                Vector::from_slice(&[v, v])
            })
            .collect();
        (problem, region, references)
    }

    #[test]
    fn single_box_verification_is_unsafe() {
        let (problem, region, references) = hand_crafted_problem();
        // Budget zero: refinement degenerates to one verification call on the
        // whole box, whose corner counterexample is dismissed as spurious and
        // the run ends inconclusive.
        let verifier = RefinementVerifier::new(0, 0.05);
        let (verdict, report) = verifier.verify(&problem, &region, &references).unwrap();
        assert!(
            matches!(verdict, RefinedVerdict::Inconclusive { .. }),
            "expected Inconclusive, got {verdict:?}"
        );
        assert_eq!(report.verification_calls, 1);
        assert_eq!(report.spurious_counterexamples, 1);
    }

    #[test]
    fn refinement_prunes_the_empty_corner_and_proves_safety() {
        let (problem, region, references) = hand_crafted_problem();
        let verifier = RefinementVerifier::new(2000, 0.05);
        let (verdict, report) = verifier.verify(&problem, &region, &references).unwrap();
        assert!(
            verdict.is_safe(),
            "expected refinement to prove safety, got {verdict:?} ({report:?})"
        );
        assert!(report.splits > 0);
        assert!(report.pruned_subregions > 0);
        // The refined envelope must still cover every recorded activation.
        assert!(report.covers(&references, 1e-9));
    }

    #[test]
    fn data_supported_counterexamples_are_reported() {
        let (problem, region, _) = hand_crafted_problem();
        // Reference activations now live inside the risky corner, so the
        // violation is data-supported and must be reported as Unsafe.
        let references: Vec<Vector> = (0..=10)
            .map(|i| Vector::from_slice(&[0.9 + 0.01 * i as f64, 0.7]))
            .collect();
        let verifier = RefinementVerifier::new(2000, 0.35);
        let (verdict, _) = verifier.verify(&problem, &region, &references).unwrap();
        match verdict {
            RefinedVerdict::Unsafe(ce) => assert!(ce.output[0] >= 1.5 - 1e-6),
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn boxes_without_data_are_pruned_immediately() {
        let (problem, region, _) = hand_crafted_problem();
        // No reference lies inside the region at all → everything is pruned
        // and the (vacuous) verdict is Safe without a single solver call.
        let references = vec![Vector::from_slice(&[5.0, 5.0])];
        let verifier = RefinementVerifier::new(10, 0.05);
        let (verdict, report) = verifier.verify(&problem, &region, &references).unwrap();
        assert!(verdict.is_safe());
        assert_eq!(report.verification_calls, 0);
        assert_eq!(report.pruned_subregions, 1);
    }

    #[test]
    fn refinement_integrates_with_trained_networks() {
        // Smoke test on a trained problem: refinement must terminate and
        // agree with plain verification on an easily-safe property.
        let mut rng = StdRng::seed_from_u64(3);
        let mut perception = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let inputs: Vec<Vector> = (0..150)
            .map(|_| Vector::from_vec((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let targets: Vec<Vector> = inputs.iter().map(|x| Vector::from_slice(&[x[0]])).collect();
        let data = dpv_nn::Dataset::new(inputs.clone(), targets).unwrap();
        dpv_nn::train(
            &mut perception,
            &data,
            &dpv_nn::TrainConfig {
                epochs: 30,
                ..Default::default()
            },
            dpv_nn::LossKind::Mse,
            &mut rng,
        );
        let examples: Vec<(Vector, bool)> =
            inputs.iter().map(|x| (x.clone(), x[0] > 0.5)).collect();
        let characterizer = Characterizer::train(
            InputProperty::new("x0_large", "x0 > 0.5"),
            &perception,
            1,
            &examples,
            &CharacterizerConfig::small(),
            &mut rng,
        )
        .unwrap();
        let activations: Vec<Vector> = inputs
            .iter()
            .map(|x| perception.activation_at(1, x))
            .collect();
        let region = BoxDomain::from_samples(&activations);
        let risk = RiskCondition::new("very negative").output_le(0, -5.0);
        let problem = VerificationProblem::new(perception, 1, characterizer, risk).unwrap();
        let verifier = RefinementVerifier::default();
        let (verdict, report) = verifier.verify(&problem, &region, &activations).unwrap();
        assert!(report.verification_calls >= 1);
        assert!(verdict.is_safe(), "got {verdict:?}");
        assert!(report.covers(&activations, 1e-9));
    }

    #[test]
    fn parallel_dispatch_agrees_with_the_serial_loop() {
        let (problem, region, references) = hand_crafted_problem();
        let serial = RefinementVerifier::new(2000, 0.05);
        let parallel = RefinementVerifier::new(2000, 0.05).with_workers(4);
        assert_eq!(serial.workers(), 1);
        assert_eq!(parallel.workers(), 4);
        let (serial_verdict, serial_report) =
            serial.verify(&problem, &region, &references).unwrap();
        let (parallel_verdict, parallel_report) =
            parallel.verify(&problem, &region, &references).unwrap();
        assert!(serial_verdict.is_safe());
        // One work-list for every worker count: the same verdict and the
        // same report, box partition and solver statistics included.
        assert_eq!(serial_verdict, parallel_verdict);
        assert_eq!(serial_report, parallel_report);
        assert!(serial_report.covers(&references, 1e-9));
        assert!(parallel_report.verification_calls >= 1);
        assert!(parallel_report.solver_stats.nodes_explored > 0);
    }

    #[test]
    fn parallel_dispatch_reports_data_supported_counterexamples() {
        let (problem, region, _) = hand_crafted_problem();
        let references: Vec<Vector> = (0..=10)
            .map(|i| Vector::from_slice(&[0.9 + 0.01 * i as f64, 0.7]))
            .collect();
        let serial = RefinementVerifier::new(2000, 0.35);
        let parallel = RefinementVerifier::new(2000, 0.35).with_workers(4);
        let (serial_verdict, _) = serial.verify(&problem, &region, &references).unwrap();
        let (parallel_verdict, _) = parallel.verify(&problem, &region, &references).unwrap();
        // The data-supported counterexample lives in the root box, the sole
        // member of the first generation, so with a deterministic backend
        // the reported counterexamples are identical — not merely both
        // unsafe.
        assert_eq!(serial_verdict, parallel_verdict);
        match parallel_verdict {
            RefinedVerdict::Unsafe(ce) => assert!(ce.output[0] >= 1.5 - 1e-6),
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn parallel_runs_are_reproducible() {
        let (problem, region, references) = hand_crafted_problem();
        let verifier = RefinementVerifier::new(2000, 0.05).with_workers(3);
        let (first_verdict, first_report) =
            verifier.verify(&problem, &region, &references).unwrap();
        let (second_verdict, second_report) =
            verifier.verify(&problem, &region, &references).unwrap();
        assert_eq!(first_verdict, second_verdict);
        assert_eq!(first_report, second_report);
    }

    #[test]
    fn single_worker_parallel_config_uses_the_serial_loop() {
        let (problem, region, references) = hand_crafted_problem();
        let serial = RefinementVerifier::new(2000, 0.05);
        let degenerate = RefinementVerifier::new(2000, 0.05).with_workers(1);
        let (a, ra) = serial.verify(&problem, &region, &references).unwrap();
        let (b, rb) = degenerate.verify(&problem, &region, &references).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn serial_loop_accumulates_solver_stats() {
        let (problem, region, references) = hand_crafted_problem();
        let verifier = RefinementVerifier::new(2000, 0.05);
        let (_, report) = verifier.verify(&problem, &region, &references).unwrap();
        assert!(report.solver_stats.nodes_explored >= report.verification_calls);
    }

    #[test]
    fn fan_out_returns_results_in_input_order() {
        for workers in [1, 2, 8] {
            for count in [0, 1, 5, 64] {
                let results = fan_out(count, workers, |index| index * 10);
                let expected: Vec<usize> = (0..count).map(|index| index * 10).collect();
                assert_eq!(results, expected, "{workers} workers, {count} items");
            }
        }
    }

    #[test]
    fn fan_out_reraises_a_worker_panic_on_the_caller() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(8, workers, |index| {
                    assert_ne!(index, 5, "work item 5 failed");
                    index
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert_ne! formats its message");
            assert!(message.contains("work item 5 failed"), "{message}");
        }
    }

    #[test]
    fn split_box_partitions_the_region() {
        let region =
            BoxDomain::from_intervals(vec![Interval::new(0.0, 4.0), Interval::new(0.0, 1.0)]);
        let (left, right) = split_box(&region);
        assert_eq!(left.bounds()[0], Interval::new(0.0, 2.0));
        assert_eq!(right.bounds()[0], Interval::new(2.0, 4.0));
        assert_eq!(left.bounds()[1], Interval::new(0.0, 1.0));
    }
}
