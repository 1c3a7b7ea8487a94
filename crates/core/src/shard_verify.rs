//! Sharded (per-cluster) verification: one proof obligation per envelope
//! shard, solved in shard order on the calling thread.
//!
//! The monolithic assume-guarantee proof solves **one** MILP whose start
//! region is the envelope of *all* training activations. A
//! [`dpv_shard::ShardedEnvelope`] partitions those activations into
//! k-means clusters with one envelope per cluster, and the property holds
//! on the union iff it holds on every shard — so the single large MILP
//! becomes `k` independent, strictly tighter MILPs:
//!
//! * each shard's region fixes more ReLU phases (fewer free binaries,
//!   smaller branch-and-bound trees);
//! * each obligation is encoded and solved one-shot, exactly as the
//!   monolithic path solves its one region
//!   ([`VerificationProblem::run_solver`]).
//!
//! The obligations are independent. A caller that wants them solved in
//! parallel serves the envelope as a sharded request
//! (`dpv_serve::RegionSpec::Sharded`), whose obligations run on the
//! server's worker pool; both paths derive the same obligations through
//! [`VerificationProblem::shard_regions`].
//!
//! **Soundness.** Every shard is a subset of the monolithic envelope and
//! the shard union contains every training activation (the
//! `ShardedEnvelope` invariant), so "safe on every shard" proves the
//! property for every activation the assume-guarantee contract covers —
//! conditional, as before, on a runtime monitor now checking membership in
//! the *union* ([`dpv_shard::ShardedMonitor`]).
//!
//! **Determinism.** Results are folded in shard-index order and the
//! lowest-index non-safe verdict wins (counterexamples take precedence
//! over solver give-ups), mirroring the refinement work-list's
//! lowest-index rule: reports are identical run to run for a
//! deterministic backend.

use std::time::Instant;

use dpv_lp::{default_backend, SolveStats, SolverBackend};
use dpv_shard::ShardedEnvelope;

use crate::{CoreError, StartRegion, Verdict, VerificationProblem};

/// The result of one shard's proof obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardObligation {
    /// Shard index (aligned with [`dpv_shard::ShardedEnvelope::shards`]).
    pub shard: usize,
    /// Number of activation samples the shard's envelope was built from.
    pub samples: usize,
    /// The shard-local verdict.
    pub verdict: Verdict,
    /// Free binary (ReLU-phase) variables in the shard's MILP.
    pub num_binaries: usize,
    /// ReLU phases fixed by the shard's bounds.
    pub stable_relus: usize,
    /// Solver statistics of the shard's MILP.
    pub stats: SolveStats,
    /// Wall-clock seconds spent on this shard (encoding + solve).
    pub seconds: f64,
}

/// The aggregated result of a sharded verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedVerificationReport {
    /// The aggregate verdict: `Safe` iff every shard is safe; otherwise
    /// the lowest-index counterexample (or, failing that, the lowest-index
    /// solver give-up).
    pub verdict: Verdict,
    /// Per-shard obligations, in shard order.
    pub shards: Vec<ShardObligation>,
    /// Name of the solver backend used.
    pub backend: String,
    /// End-to-end wall-clock seconds for the whole run.
    pub total_seconds: f64,
}

impl ShardedVerificationReport {
    /// Solver statistics summed over every shard obligation.
    pub fn solver_stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for shard in &self.shards {
            total += shard.stats;
        }
        total
    }

    /// Total free binaries across the shard MILPs.
    pub fn total_binaries(&self) -> usize {
        self.shards.iter().map(|s| s.num_binaries).sum()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let verdict = match &self.verdict {
            Verdict::Safe => "SAFE (conditional on the sharded runtime monitor)".to_string(),
            Verdict::Unsafe(_) => "UNSAFE (counterexample found)".to_string(),
            Verdict::Unknown(reason) => format!("UNKNOWN ({reason})"),
        };
        let stats = self.solver_stats();
        format!(
            "{verdict} | {} shards | backend {} | {} total binaries | {} nodes | {:.3}s",
            self.shards.len(),
            self.backend,
            self.total_binaries(),
            stats.nodes_explored,
            self.total_seconds
        )
    }
}

impl VerificationProblem {
    /// Verifies the problem per shard with the default solver backend. See
    /// [`VerificationProblem::verify_sharded_with`].
    ///
    /// # Errors
    /// Propagates encoding and consistency errors.
    pub fn verify_sharded(
        &self,
        envelope: &ShardedEnvelope,
        use_difference_constraints: bool,
    ) -> Result<ShardedVerificationReport, CoreError> {
        self.verify_sharded_with(envelope, use_difference_constraints, &default_backend())
    }

    /// Verifies the problem once per envelope shard, solving the
    /// obligations in shard order on the calling thread, and aggregates
    /// the verdicts: the property holds iff it holds on **every** shard;
    /// otherwise the lowest-index shard's counterexample wins (see the
    /// module docs for the determinism rule). Each shard's region is its
    /// octagon when `use_difference_constraints` is set and its box part
    /// otherwise — the same ablation switch as [`crate::AssumeGuarantee`].
    /// With a single shard this is verdict-identical to the monolithic
    /// [`crate::VerificationStrategy::AssumeGuarantee`] path.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the envelope's layer or
    /// dimension does not match the problem; propagates encoding errors.
    pub fn verify_sharded_with(
        &self,
        envelope: &ShardedEnvelope,
        use_difference_constraints: bool,
        backend: &dyn SolverBackend,
    ) -> Result<ShardedVerificationReport, CoreError> {
        let regions = Self::shard_regions(
            envelope,
            use_difference_constraints,
            self.cut_layer(),
            self.perception().layer_output_dim(self.cut_layer()),
        )?;

        let start_time = Instant::now();
        let shards = regions
            .iter()
            .enumerate()
            .map(|(index, region)| {
                let shard_start = Instant::now();
                let (verdict, encoded, solution) = self.run_solver(region, backend)?;
                Ok(ShardObligation {
                    shard: index,
                    samples: envelope.shard(index).sample_count(),
                    verdict,
                    num_binaries: encoded.num_binaries,
                    stable_relus: encoded.stable_relus,
                    stats: solution.stats,
                    seconds: shard_start.elapsed().as_secs_f64(),
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;

        Ok(ShardedVerificationReport {
            // Counterexamples are conclusive for the whole union, so they
            // take precedence over solver give-ups.
            verdict: Verdict::fold(shards.iter().map(|shard| &shard.verdict)),
            shards,
            backend: backend.name().to_string(),
            total_seconds: start_time.elapsed().as_secs_f64(),
        })
    }

    /// Validates `envelope` against a cut at `cut_layer` whose activations
    /// are `cut_dim` wide (layer and dimension must match) and returns the
    /// per-shard start regions in shard-index order — the octagon of each
    /// shard when `use_difference_constraints` is set, its box part
    /// otherwise. This is the one envelope-to-region mapping:
    /// [`VerificationProblem::verify_sharded_with`] and the obligation
    /// server (`dpv-serve`, which validates and decomposes a request without
    /// building a problem) both call it, so both derive *identical*
    /// obligations from one envelope.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the envelope's layer or
    /// dimension does not match the cut.
    pub fn shard_regions(
        envelope: &ShardedEnvelope,
        use_difference_constraints: bool,
        cut_layer: usize,
        cut_dim: usize,
    ) -> Result<Vec<StartRegion>, CoreError> {
        if envelope.layer() != cut_layer {
            return Err(CoreError::Inconsistent(format!(
                "sharded envelope was built at layer {} but the problem cuts at {cut_layer}",
                envelope.layer()
            )));
        }
        if envelope.dim() != cut_dim {
            return Err(CoreError::Inconsistent(format!(
                "sharded envelope dimension {} does not match cut-layer width {cut_dim}",
                envelope.dim()
            )));
        }
        Ok((0..envelope.shard_count())
            .map(|index| {
                let shard = envelope.shard(index);
                if use_difference_constraints {
                    StartRegion::Octagon(shard.octagon().clone())
                } else {
                    StartRegion::Box(shard.box_only())
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty, RiskCondition,
        VerificationStrategy,
    };
    use dpv_monitor::ActivationEnvelope;
    use dpv_nn::{Activation, Network, NetworkBuilder};
    use dpv_shard::ShardConfig;
    use dpv_tensor::Vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A trained problem over deliberately bimodal inputs: x0 is either
    /// near 0 or near 1, and the network learns output = 2*x0 - 1.
    fn bimodal_setup(seed: u64) -> (Network, Characterizer, Vec<Vector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perception = NetworkBuilder::new(4)
            .dense(8, &mut rng)
            .activation(Activation::ReLU)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let inputs: Vec<Vector> = (0..300)
            .map(|i| {
                let mode = if i % 2 == 0 { 0.05 } else { 0.9 };
                let x0 = mode + rng.gen_range(0.0..0.1);
                let mut v = vec![x0];
                v.extend((0..3).map(|_| rng.gen_range(0.0..1.0)));
                Vector::from_vec(v)
            })
            .collect();
        let targets: Vec<Vector> = inputs
            .iter()
            .map(|x| Vector::from_slice(&[2.0 * x[0] - 1.0]))
            .collect();
        let data = dpv_nn::Dataset::new(inputs.clone(), targets).unwrap();
        dpv_nn::train(
            &mut perception,
            &data,
            &dpv_nn::TrainConfig {
                epochs: 60,
                learning_rate: 0.01,
                ..Default::default()
            },
            dpv_nn::LossKind::Mse,
            &mut rng,
        );
        let examples: Vec<(Vector, bool)> =
            inputs.iter().map(|x| (x.clone(), x[0] > 0.5)).collect();
        let characterizer = Characterizer::train(
            InputProperty::new("x0_large", "the first input exceeds 0.5"),
            &perception,
            3,
            &examples,
            &CharacterizerConfig::small(),
            &mut rng,
        )
        .unwrap();
        (perception, characterizer, inputs)
    }

    fn sharded_envelope(
        perception: &Network,
        inputs: &[Vector],
        k: usize,
    ) -> dpv_shard::ShardedEnvelope {
        dpv_shard::ShardedEnvelope::from_inputs(perception, 3, inputs, 0.0, &ShardConfig::fixed(k))
            .unwrap()
    }

    /// A risk threshold just below anything the monolithic envelope can
    /// reach, so safety is provable on every shard.
    fn provable_risk(perception: &Network, inputs: &[Vector]) -> RiskCondition {
        use dpv_absint::AbstractDomain;
        let envelope = ActivationEnvelope::from_inputs(perception, 3, inputs, 0.0).unwrap();
        let (_, tail) = perception.split_at(3).unwrap();
        let lower = envelope.box_only().propagate(tail.layers()).to_box()[0].lo;
        RiskCondition::new("strongly negative").output_le(0, lower - 0.1)
    }

    #[test]
    fn safe_on_every_shard_aggregates_to_safe() {
        let (perception, characterizer, inputs) = bimodal_setup(1);
        let risk = provable_risk(&perception, &inputs);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        let envelope = sharded_envelope(&perception, &inputs, 4);
        let report = problem.verify_sharded(&envelope, true).unwrap();
        assert!(report.verdict.is_safe(), "{}", report.summary());
        assert_eq!(report.shards.len(), envelope.shard_count());
        assert!(report.shards.iter().all(|s| s.verdict.is_safe()));
        assert!(report.solver_stats().nodes_explored >= report.shards.len());
        assert_eq!(
            report.shards.iter().map(|s| s.samples).sum::<usize>(),
            inputs.len()
        );
    }

    #[test]
    fn single_shard_matches_the_monolithic_path() {
        let (perception, characterizer, inputs) = bimodal_setup(2);
        for (name, risk) in [
            ("provable", provable_risk(&perception, &inputs)),
            ("reachable", RiskCondition::new("weak").output_ge(0, -10.0)),
        ] {
            let problem = VerificationProblem::new(
                perception.clone(),
                3,
                characterizer.clone(),
                risk.clone(),
            )
            .unwrap();
            let envelope = sharded_envelope(&perception, &inputs, 1);
            assert_eq!(envelope.shard_count(), 1);
            for use_diff in [true, false] {
                let monolithic = problem
                    .verify(&VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                        envelope: envelope.merged(),
                        use_difference_constraints: use_diff,
                    }))
                    .unwrap();
                let sharded = problem.verify_sharded(&envelope, use_diff).unwrap();
                assert_eq!(
                    sharded.verdict, monolithic.verdict,
                    "k = 1 diverged from the monolithic path ({name}, diff {use_diff})"
                );
                assert_eq!(sharded.shards[0].num_binaries, monolithic.num_binaries);
                assert_eq!(sharded.shards[0].stable_relus, monolithic.stable_relus);
            }
        }
    }

    #[test]
    fn counterexamples_surface_with_the_lowest_shard_index() {
        let (perception, characterizer, inputs) = bimodal_setup(3);
        // Trivially reachable risk: every shard returns a counterexample.
        let risk = RiskCondition::new("weak").output_ge(0, -10.0);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        let envelope = sharded_envelope(&perception, &inputs, 3);
        let report = problem.verify_sharded(&envelope, true).unwrap();
        assert!(report.verdict.is_unsafe());
        let first_unsafe = report
            .shards
            .iter()
            .find(|s| s.verdict.is_unsafe())
            .expect("at least one unsafe shard");
        assert_eq!(
            Verdict::Unsafe(match &report.verdict {
                Verdict::Unsafe(ce) => ce.clone(),
                _ => unreachable!(),
            }),
            first_unsafe.verdict
        );
        // The winning counterexample lies inside its shard.
        if let Verdict::Unsafe(ce) = &report.verdict {
            assert!(envelope
                .shard(first_unsafe.shard)
                .contains(&ce.activation, 1e-6));
        }
    }

    #[test]
    fn mismatched_envelopes_are_rejected() {
        let (perception, characterizer, inputs) = bimodal_setup(5);
        let risk = RiskCondition::new("r").output_le(0, -5.0);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        // Envelope at the wrong layer.
        let wrong_layer = dpv_shard::ShardedEnvelope::from_inputs(
            &perception,
            1,
            &inputs,
            0.0,
            &ShardConfig::fixed(2),
        )
        .unwrap();
        assert!(problem.verify_sharded(&wrong_layer, true).is_err());
    }

    #[test]
    fn sharded_milps_are_tighter_than_the_monolithic_one() {
        let (perception, characterizer, inputs) = bimodal_setup(6);
        let risk = provable_risk(&perception, &inputs);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        let envelope = sharded_envelope(&perception, &inputs, 4);
        let monolithic = problem
            .verify(&VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                envelope: envelope.merged(),
                use_difference_constraints: true,
            }))
            .unwrap();
        let report = problem.verify_sharded(&envelope, true).unwrap();
        // Every per-shard MILP has at most the monolithic binary count (the
        // tighter region can only stabilise more ReLUs, never fewer).
        for shard in &report.shards {
            assert!(
                shard.num_binaries <= monolithic.num_binaries,
                "shard {} has {} binaries vs monolithic {}",
                shard.shard,
                shard.num_binaries,
                monolithic.num_binaries
            );
        }
    }
}
