//! End-to-end workflow: data generation → training → characterizer →
//! envelope → verification → statistical analysis.
//!
//! This is the executable version of the paper's Figure 1, driven by the
//! synthetic ODD of `dpv-scenegen` instead of the proprietary Audi data.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_lp::{default_backend, SolverBackend};
use dpv_monitor::{ActivationEnvelope, RuntimeMonitor};
use dpv_nn::{
    train, Activation, Dataset, LossKind, Network, NetworkBuilder, OptimizerKind, TensorShape,
    TrainConfig,
};
use dpv_scenegen::{
    affordance, render_scene, DatasetBundle, GeneratorConfig, OddSampler, OddViolation,
    PropertyKind, SceneConfig,
};
use dpv_shard::{ShardConfig, ShardedEnvelope, ShardedMonitor};
use dpv_tensor::Vector;

use dpv_absint::AbstractDomain;

use crate::{
    AssumeGuarantee, Characterizer, CharacterizerConfig, CoreError, DomainKind, InputProperty,
    RiskCondition, ShardedVerificationReport, StatisticalAnalysis, VerificationOutcome,
    VerificationProblem, VerificationStrategy,
};

/// Configuration of the end-to-end workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowConfig {
    /// Scene / image configuration of the synthetic ODD.
    pub scene: SceneConfig,
    /// Number of scenes used to train the perception network (and to build
    /// the activation envelope, as in the paper).
    pub training_samples: usize,
    /// Number of labelled scenes used to train each characterizer.
    pub characterizer_samples: usize,
    /// Number of held-out scenes for the statistical analysis and monitor
    /// coverage measurements.
    pub validation_samples: usize,
    /// Epochs for the perception-network training.
    pub perception_epochs: usize,
    /// Characterizer training hyper-parameters.
    pub characterizer: CharacterizerConfig,
    /// Layer (zero-based) after which the verification cut is placed.
    pub cut_layer: usize,
    /// Widening margin applied to the activation envelope.
    pub envelope_margin: f64,
    /// Number of envelope shards (k-means clusters over the cut-layer
    /// activations). With a value above one the workflow additionally
    /// builds a [`dpv_shard::ShardedEnvelope`], verifies the E1 risk per
    /// shard through [`VerificationProblem::verify_sharded_with`] and
    /// measures the sharded monitor against the monolithic one (see
    /// [`WorkflowOutcome::sharded`]); with one — the default — the sharded
    /// stage is skipped and the workflow behaves exactly as before.
    pub envelope_shards: usize,
    /// Scenes per *scenario family* for the per-class E1 verification of
    /// the scenario-mix stage: every satisfiable [`PropertyKind`] under the
    /// scene configuration defines a family, whose own activation envelope
    /// is verified against the E1 risk (scenario-based compositional
    /// verification). `0` skips the family verification. Unlike the
    /// opt-in sharded stage, this defaults on: family envelopes are
    /// subsets of well-behaved regions, so each verification is typically
    /// a root-infeasible single-node solve (sub-millisecond), and the
    /// stage draws from its own RNG streams — existing stages are
    /// unaffected.
    pub scenario_samples: usize,
    /// Frames per [`OddViolation`] class for the per-class monitor
    /// detection table of the scenario-mix stage (monolithic and — when
    /// [`WorkflowConfig::envelope_shards`] exceeds one — sharded rates on
    /// identical frames). `0` skips the detection table.
    pub violation_samples: usize,
    /// Base RNG seed (the whole workflow is deterministic given the seed).
    pub seed: u64,
}

impl WorkflowConfig {
    /// A configuration small enough for tests and doc examples (a couple of
    /// seconds end to end) while still exercising every stage.
    pub fn small() -> Self {
        Self {
            scene: SceneConfig::small(),
            training_samples: 160,
            characterizer_samples: 160,
            validation_samples: 120,
            perception_epochs: 12,
            characterizer: CharacterizerConfig::small(),
            cut_layer: 6,
            envelope_margin: 0.0,
            envelope_shards: 1,
            scenario_samples: 40,
            violation_samples: 40,
            seed: 42,
        }
    }

    /// A larger configuration for the benchmark harness.
    pub fn bench() -> Self {
        Self {
            training_samples: 400,
            characterizer_samples: 400,
            validation_samples: 300,
            perception_epochs: 25,
            scenario_samples: 120,
            violation_samples: 120,
            ..Self::small()
        }
    }
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// One verification experiment inside a workflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment identifier (e.g. `"E1"`).
    pub id: String,
    /// Human-readable description of φ and ψ.
    pub description: String,
    /// The outcome, per strategy label.
    pub outcomes: Vec<VerificationOutcome>,
}

/// Artefacts of the sharded-envelope stage (only produced when
/// [`WorkflowConfig::envelope_shards`] exceeds one).
#[derive(Debug, Clone)]
pub struct ShardedArtifacts {
    /// The per-cluster envelopes over the training activations.
    pub envelope: ShardedEnvelope,
    /// Per-shard verification of the E1 risk condition.
    pub verification: ShardedVerificationReport,
    /// Fraction of held-out in-ODD frames accepted by the *sharded*
    /// monitor (never above the monolithic rate: the union is tighter).
    pub monitor_in_odd_rate: f64,
    /// Fraction of out-of-ODD frames flagged by the sharded monitor (never
    /// below the monolithic rate).
    pub monitor_out_of_odd_detection: f64,
}

/// Per-class E1 verification of one scenario family: the activation
/// envelope over scenes satisfying one [`PropertyKind`], verified against
/// the E1 risk with the assume-guarantee strategy.
#[derive(Debug, Clone)]
pub struct ScenarioFamilyResult {
    /// The scenario class (family) this envelope was built from.
    pub property: PropertyKind,
    /// Number of scenes the family envelope was built from.
    pub samples: usize,
    /// The verification outcome for this family.
    pub outcome: VerificationOutcome,
}

/// Per-class monitor detection of one [`OddViolation`] class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationDetection {
    /// The out-of-ODD violation class.
    pub class: OddViolation,
    /// Frames sampled from this class.
    pub frames: usize,
    /// Frames the monolithic envelope monitor flagged.
    pub monolithic_flagged: usize,
    /// Frames the sharded monitor flagged (same frames), when the sharded
    /// stage ran. Never below `monolithic_flagged` (union containment).
    pub sharded_flagged: Option<usize>,
}

impl ViolationDetection {
    /// Monolithic detection rate in `[0, 1]` (1.0 when no frames sampled).
    pub fn monolithic_rate(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.monolithic_flagged as f64 / self.frames as f64
        }
    }

    /// Sharded detection rate in `[0, 1]`, when the sharded stage ran.
    pub fn sharded_rate(&self) -> Option<f64> {
        self.sharded_flagged.map(|flagged| {
            if self.frames == 0 {
                1.0
            } else {
                flagged as f64 / self.frames as f64
            }
        })
    }
}

/// Artefacts of the scenario-mix stage: scenario-family E1 verification
/// plus the per-violation-class monitor detection table.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// One E1 verification per satisfiable scenario family (empty when
    /// [`WorkflowConfig::scenario_samples`] is zero).
    pub families: Vec<ScenarioFamilyResult>,
    /// Per-violation-class monitor detection (empty when
    /// [`WorkflowConfig::violation_samples`] is zero).
    pub violations: Vec<ViolationDetection>,
}

impl ScenarioReport {
    /// Returns `true` when every scenario family's E1 verdict is safe.
    pub fn all_families_safe(&self) -> bool {
        self.families.iter().all(|f| f.outcome.verdict.is_safe())
    }

    /// The detection entry for one violation class, if measured.
    pub fn detection(&self, class: OddViolation) -> Option<&ViolationDetection> {
        self.violations.iter().find(|v| v.class == class)
    }
}

/// Everything a workflow run produces.
#[derive(Debug, Clone)]
pub struct WorkflowOutcome {
    /// The trained perception network.
    pub perception: Network,
    /// The cut layer used for verification.
    pub cut_layer: usize,
    /// Final training loss of the perception network.
    pub perception_loss: f64,
    /// The activation envelope built from the training data.
    pub envelope: ActivationEnvelope,
    /// Characterizer for the output-related property ("road bends right").
    pub bend_characterizer: Characterizer,
    /// Held-out accuracy per property name (experiment E3).
    pub characterizer_accuracies: Vec<(String, f64)>,
    /// Verification experiments (E1, E2 and the strategy comparison).
    pub experiments: Vec<ExperimentResult>,
    /// Table-I statistical analysis for the bend characterizer.
    pub statistical: StatisticalAnalysis,
    /// Fraction of held-out in-ODD frames accepted by the runtime monitor.
    pub monitor_in_odd_rate: f64,
    /// Fraction of out-of-ODD frames flagged by the runtime monitor.
    pub monitor_out_of_odd_detection: f64,
    /// Sharded-envelope artefacts, when `envelope_shards > 1`.
    pub sharded: Option<ShardedArtifacts>,
    /// Scenario-mix artefacts (family E1 verification and the per-class
    /// out-of-ODD detection table), when `scenario_samples` or
    /// `violation_samples` is non-zero.
    pub scenario: Option<ScenarioReport>,
}

impl WorkflowOutcome {
    /// Renders a multi-line report covering every experiment.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Direct-perception safety verification workflow ===\n");
        out.push_str(&format!(
            "perception network: {} layers, {} parameters, final training loss {:.4}\n",
            self.perception.len(),
            self.perception.parameter_count(),
            self.perception_loss
        ));
        out.push_str(&format!(
            "cut layer {} (dimension {}), envelope from {} samples\n\n",
            self.cut_layer,
            self.envelope.dim(),
            self.envelope.sample_count()
        ));

        out.push_str("-- E3: characterizer accuracy by property (held out) --\n");
        for (name, acc) in &self.characterizer_accuracies {
            out.push_str(&format!("  {name:<20} {acc:.3}\n"));
        }
        out.push('\n');

        for experiment in &self.experiments {
            out.push_str(&format!(
                "-- {}: {} --\n",
                experiment.id, experiment.description
            ));
            for outcome in &experiment.outcomes {
                out.push_str(&format!("  {}\n", outcome.summary()));
            }
            out.push('\n');
        }

        out.push_str("-- Table I (statistical guarantee) --\n");
        out.push_str(&self.statistical.table().render());
        out.push_str(&format!(
            "\n  unsafe misses among γ-mass examples: {}\n\n",
            self.statistical.unsafe_misses()
        ));

        out.push_str("-- Runtime monitor --\n");
        out.push_str(&format!(
            "  in-ODD acceptance:        {:.3}\n  out-of-ODD detection:     {:.3}\n",
            self.monitor_in_odd_rate, self.monitor_out_of_odd_detection
        ));

        if let Some(sharded) = &self.sharded {
            out.push_str(&format!(
                "\n-- Sharded envelope ({} shards) --\n",
                sharded.envelope.shard_count()
            ));
            out.push_str(&format!(
                "  E1 per-shard: {}\n",
                sharded.verification.summary()
            ));
            out.push_str(&format!(
                "  in-ODD acceptance:        {:.3}\n  out-of-ODD detection:     {:.3} (monolithic {:.3})\n",
                sharded.monitor_in_odd_rate,
                sharded.monitor_out_of_odd_detection,
                self.monitor_out_of_odd_detection
            ));
        }

        if let Some(scenario) = &self.scenario {
            if !scenario.families.is_empty() {
                out.push_str("\n-- Scenario families (per-class E1 verification) --\n");
                for family in &scenario.families {
                    out.push_str(&format!(
                        "  {:<20} ({} scenes)  {}\n",
                        family.property.name(),
                        family.samples,
                        family.outcome.summary()
                    ));
                }
            }
            if !scenario.violations.is_empty() {
                out.push_str("\n-- Out-of-ODD taxonomy (detection per violation class) --\n");
                out.push_str(&format!(
                    "  {:<20} {:>7} {:>11} {:>9}\n",
                    "class", "frames", "monolithic", "sharded"
                ));
                for detection in &scenario.violations {
                    let sharded = detection
                        .sharded_rate()
                        .map_or_else(|| "    -".to_string(), |r| format!("{r:9.3}"));
                    out.push_str(&format!(
                        "  {:<20} {:>7} {:>11.3} {}\n",
                        detection.class.name(),
                        detection.frames,
                        detection.monolithic_rate(),
                        sharded
                    ));
                }
            }
        }
        out
    }
}

/// The end-to-end workflow driver.
#[derive(Debug, Clone)]
pub struct Workflow {
    config: WorkflowConfig,
    backend: Arc<dyn SolverBackend>,
}

impl Workflow {
    /// Creates a workflow from a configuration; verification solves go
    /// through the default backend.
    pub fn new(config: WorkflowConfig) -> Self {
        Self::with_backend(config, Arc::new(default_backend()))
    }

    /// Creates a workflow whose verification stages solve through `backend`.
    pub fn with_backend(config: WorkflowConfig, backend: Arc<dyn SolverBackend>) -> Self {
        Self { config, backend }
    }

    /// The configuration.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// The solver backend used by the verification stages.
    pub fn backend(&self) -> &dyn SolverBackend {
        self.backend.as_ref()
    }

    /// Builds the perception architecture used throughout the experiments:
    /// a small convolutional front-end followed by dense/ReLU layers and a
    /// two-dimensional affordance head (waypoint offset, orientation).
    pub fn build_perception<R: rand::Rng + ?Sized>(scene: &SceneConfig, rng: &mut R) -> Network {
        NetworkBuilder::with_image_input(TensorShape::new(1, scene.height, scene.width))
            .conv2d(4, 3, 2, rng)
            .activation(Activation::ReLU)
            .flatten()
            .dense(32, rng)
            .activation(Activation::ReLU)
            .dense(16, rng)
            .activation(Activation::ReLU)
            .dense(dpv_scenegen::AFFORDANCE_DIM, rng)
            .build()
    }

    /// Runs every stage and collects the results.
    ///
    /// # Errors
    /// Propagates data-assembly and encoding errors.
    pub fn run(&self) -> Result<WorkflowOutcome, CoreError> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // 1. ODD data for the perception task.
        let generator = GeneratorConfig {
            scene: cfg.scene,
            samples: cfg.training_samples,
            seed: cfg.seed ^ 0x11,
            threads: 1,
        };
        let bundle = DatasetBundle::generate(&generator);
        let perception_data = bundle.to_perception_dataset(&cfg.scene)?;

        // 2. Train the perception network.
        let mut perception = Self::build_perception(&cfg.scene, &mut rng);
        let train_config = TrainConfig {
            epochs: cfg.perception_epochs,
            learning_rate: 0.003,
            batch_size: 16,
            optimizer: OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            shuffle: true,
            verbose: false,
        };
        let history = train(
            &mut perception,
            &perception_data,
            &train_config,
            LossKind::Mse,
            &mut rng,
        );
        let cut_layer = cfg.cut_layer.min(perception.len() - 2);

        // 3. Train characterizers: the output-related bend property and the
        //    output-unrelated adjacent-traffic property (experiment E3).
        let bend_examples = self.property_examples(PropertyKind::BendsRight, cfg.seed ^ 0x22);
        let traffic_examples =
            self.property_examples(PropertyKind::AdjacentTraffic, cfg.seed ^ 0x33);
        let bend_characterizer = Characterizer::train(
            InputProperty::new("bends_right", "the road strongly bends to the right"),
            &perception,
            cut_layer,
            &bend_examples,
            &cfg.characterizer,
            &mut rng,
        )?;
        let traffic_characterizer = Characterizer::train(
            InputProperty::new("adjacent_traffic", "a vehicle occupies the adjacent lane"),
            &perception,
            cut_layer,
            &traffic_examples,
            &cfg.characterizer,
            &mut rng,
        )?;

        let bend_holdout = self.property_examples(PropertyKind::BendsRight, cfg.seed ^ 0x44);
        let traffic_holdout =
            self.property_examples(PropertyKind::AdjacentTraffic, cfg.seed ^ 0x55);
        let characterizer_accuracies = vec![
            (
                "bends_right".to_string(),
                bend_characterizer.accuracy(&perception, &bend_holdout),
            ),
            (
                "adjacent_traffic".to_string(),
                traffic_characterizer.accuracy(&perception, &traffic_holdout),
            ),
        ];

        // 4. Activation envelope from the training images (assume-guarantee S̃).
        let envelope = ActivationEnvelope::from_inputs(
            &perception,
            cut_layer,
            &bundle.images,
            cfg.envelope_margin,
        )?;

        // 5. Verification experiments.
        let (_, tail) = perception
            .split_at(cut_layer)
            .map_err(|e| CoreError::Inconsistent(e.to_string()))?;
        let envelope_output_box = envelope.box_only().propagate(tail.layers());
        let output_lower = envelope_output_box.to_box()[0].lo;
        // "Far left" threshold: just below anything the envelope admits, so
        // the assume-guarantee proof can succeed while coarser regions fail.
        let far_left = output_lower - 0.05;

        let e1_risk = RiskCondition::new("suggest steering to the far left").output_le(0, far_left);
        let e1_problem = VerificationProblem::new(
            perception.clone(),
            cut_layer,
            bend_characterizer.clone(),
            e1_risk.clone(),
        )?;
        let e1_strategies = [
            VerificationStrategy::LayerAbstraction { bound: 1000.0 },
            VerificationStrategy::AbstractInterpretation {
                domain: DomainKind::Box,
            },
            VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                envelope: envelope.clone(),
                use_difference_constraints: false,
            }),
            VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                envelope: envelope.clone(),
                use_difference_constraints: true,
            }),
        ];
        let e1_outcomes = e1_strategies
            .iter()
            .map(|strategy| e1_problem.verify_with(strategy, self.backend.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;

        let e2_risk = RiskCondition::new("suggest steering straight")
            .output_le(0, 0.1)
            .output_ge(0, -0.1);
        let e2_problem = VerificationProblem::new(
            perception.clone(),
            cut_layer,
            bend_characterizer.clone(),
            e2_risk.clone(),
        )?;
        let e2_outcome = e2_problem.verify_with(
            &VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                envelope: envelope.clone(),
                use_difference_constraints: true,
            }),
            self.backend.as_ref(),
        )?;

        let experiments = vec![
            ExperimentResult {
                id: "E1".to_string(),
                description: format!(
                    "φ = road bends right, ψ = waypoint offset ≤ {far_left:.3} (far left); strategy comparison"
                ),
                outcomes: e1_outcomes,
            },
            ExperimentResult {
                id: "E2".to_string(),
                description: "φ = road bends right, ψ = waypoint offset in [-0.1, 0.1] (steering straight)"
                    .to_string(),
                outcomes: vec![e2_outcome],
            },
        ];

        // 6. Statistical analysis (Table I) on held-out labelled data.
        let validation = self.property_examples(PropertyKind::BendsRight, cfg.seed ^ 0x66);
        let statistical =
            StatisticalAnalysis::estimate(&perception, &bend_characterizer, &e1_risk, &validation)?;

        // 7. Runtime monitor coverage on in-ODD and out-of-ODD frames. The
        //    frames are rendered up front (in the historical RNG order) so
        //    the sharded monitor below scores the exact same frames.
        let monitor = RuntimeMonitor::new(perception.clone(), cut_layer, envelope.clone())?;
        let sampler = OddSampler::new(cfg.scene);
        let mut monitor_rng = StdRng::seed_from_u64(cfg.seed ^ 0x77);
        let in_odd_images: Vec<Vector> = (0..cfg.validation_samples)
            .map(|_| render_scene(&sampler.sample_in_odd(&mut monitor_rng), &cfg.scene))
            .collect();
        let out_of_odd_images: Vec<Vector> = (0..cfg.validation_samples)
            .map(|_| render_scene(&sampler.sample_out_of_odd(&mut monitor_rng), &cfg.scene))
            .collect();
        // One batched sweep per frame set: the forward passes run
        // matrix–matrix and the envelope containment runs over the SoA
        // bounds, with verdicts identical to per-frame `check`.
        let in_odd_accepted = monitor
            .check_frames(&in_odd_images)
            .iter()
            .filter(|verdict| verdict.is_in_odd())
            .count();
        let out_of_odd_flagged = monitor
            .check_frames(&out_of_odd_images)
            .iter()
            .filter(|verdict| !verdict.is_in_odd())
            .count();
        let n = cfg.validation_samples.max(1) as f64;

        // 8. Sharded-envelope stage (opt-in via `envelope_shards > 1`):
        //    k-means shards over the same training activations, per-shard
        //    verification of the E1 risk, and the sharded monitor scored on
        //    the same held-out frames as the monolithic one.
        let mut sharded_monitor: Option<ShardedMonitor> = None;
        let sharded = if cfg.envelope_shards > 1 {
            let sharded_envelope = ShardedEnvelope::from_inputs(
                &perception,
                cut_layer,
                &bundle.images,
                cfg.envelope_margin,
                &ShardConfig::fixed(cfg.envelope_shards).with_seed(cfg.seed ^ 0x88),
            )?;
            let verification =
                e1_problem.verify_sharded_with(&sharded_envelope, true, self.backend.as_ref())?;
            let monitor_for_shards =
                ShardedMonitor::new(perception.clone(), cut_layer, sharded_envelope.clone())?;
            let sharded_accepted = monitor_for_shards
                .check_frames(&in_odd_images)
                .iter()
                .filter(|verdict| verdict.is_in_odd())
                .count();
            let sharded_flagged = monitor_for_shards
                .check_frames(&out_of_odd_images)
                .iter()
                .filter(|verdict| !verdict.is_in_odd())
                .count();
            sharded_monitor = Some(monitor_for_shards);
            Some(ShardedArtifacts {
                envelope: sharded_envelope,
                verification,
                monitor_in_odd_rate: sharded_accepted as f64 / n,
                monitor_out_of_odd_detection: sharded_flagged as f64 / n,
            })
        } else {
            None
        };

        // 9. Scenario-mix stage: per-class E1 verification over scenario
        //    families (an envelope per satisfiable property class, verified
        //    with the assume-guarantee strategy — the scenario-based
        //    compositional split of the ODD) and the out-of-ODD taxonomy
        //    detection table (per violation class, monolithic and — when
        //    available — sharded monitor rates on identical frames).
        let scenario = if cfg.scenario_samples > 0 || cfg.violation_samples > 0 {
            let mut families = Vec::new();
            if cfg.scenario_samples > 0 {
                let mut family_rng = StdRng::seed_from_u64(cfg.seed ^ 0x99);
                for property in PropertyKind::ALL {
                    if !property.satisfiable_in(&cfg.scene) {
                        continue;
                    }
                    let family_images: Vec<Vector> = (0..cfg.scenario_samples)
                        .map(|_| {
                            let scene = sampler
                                .sample_where(&mut family_rng, |s| property.holds(s, &cfg.scene));
                            render_scene(&scene, &cfg.scene)
                        })
                        .collect();
                    let family_envelope = ActivationEnvelope::from_inputs(
                        &perception,
                        cut_layer,
                        &family_images,
                        cfg.envelope_margin,
                    )?;
                    let outcome = e1_problem.verify_with(
                        &VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
                            envelope: family_envelope,
                            use_difference_constraints: true,
                        }),
                        self.backend.as_ref(),
                    )?;
                    families.push(ScenarioFamilyResult {
                        property,
                        samples: cfg.scenario_samples,
                        outcome,
                    });
                }
            }
            let mut violations = Vec::new();
            if cfg.violation_samples > 0 {
                let mut violation_rng = StdRng::seed_from_u64(cfg.seed ^ 0xaa);
                for class in OddViolation::ALL {
                    // Render the class's frames first (same RNG stream order
                    // as the historical per-frame loop), then score both
                    // monitors with one batched sweep each.
                    let images: Vec<Vector> = (0..cfg.violation_samples)
                        .map(|_| {
                            render_scene(
                                &sampler.sample_violation(class, &mut violation_rng),
                                &cfg.scene,
                            )
                        })
                        .collect();
                    let monolithic_flagged = monitor
                        .check_frames(&images)
                        .iter()
                        .filter(|verdict| !verdict.is_in_odd())
                        .count();
                    let sharded_flagged = sharded_monitor.as_ref().map(|shard_monitor| {
                        shard_monitor
                            .check_frames(&images)
                            .iter()
                            .filter(|verdict| !verdict.is_in_odd())
                            .count()
                    });
                    violations.push(ViolationDetection {
                        class,
                        frames: cfg.violation_samples,
                        monolithic_flagged,
                        sharded_flagged,
                    });
                }
            }
            Some(ScenarioReport {
                families,
                violations,
            })
        } else {
            None
        };

        Ok(WorkflowOutcome {
            perception,
            cut_layer,
            perception_loss: history.final_loss(),
            envelope,
            bend_characterizer,
            characterizer_accuracies,
            experiments,
            statistical,
            monitor_in_odd_rate: in_odd_accepted as f64 / n,
            monitor_out_of_odd_detection: out_of_odd_flagged as f64 / n,
            sharded,
            scenario,
        })
    }

    /// Balanced labelled `(image, φ holds)` examples for a property.
    fn property_examples(&self, property: PropertyKind, seed: u64) -> Vec<(Vector, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        dpv_scenegen::property_examples(
            &self.config.scene,
            property,
            self.config.characterizer_samples,
            &mut rng,
        )
    }

    /// Ground-truth affordance for a scene — exposed so examples can compare
    /// network predictions against the oracle.
    pub fn oracle_affordance(&self, scene: &dpv_scenegen::SceneParams) -> Vector {
        affordance(scene, &self.config.scene)
    }

    /// Renders a dataset for external evaluation (same pipeline the run uses).
    ///
    /// # Errors
    /// Propagates dataset-construction errors.
    pub fn perception_dataset(&self, samples: usize, seed: u64) -> Result<Dataset, CoreError> {
        let generator = GeneratorConfig {
            scene: self.config.scene,
            samples,
            seed,
            threads: 1,
        };
        Ok(DatasetBundle::generate(&generator).to_perception_dataset(&self.config.scene)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;

    fn tiny_config() -> WorkflowConfig {
        WorkflowConfig {
            training_samples: 60,
            characterizer_samples: 60,
            validation_samples: 40,
            perception_epochs: 4,
            characterizer: CharacterizerConfig {
                hidden: vec![6],
                epochs: 30,
                ..CharacterizerConfig::small()
            },
            ..WorkflowConfig::small()
        }
    }

    #[test]
    fn workflow_runs_end_to_end() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        assert_eq!(outcome.experiments.len(), 2);
        assert_eq!(outcome.experiments[0].outcomes.len(), 4);
        // Every training image must be inside the envelope by construction.
        assert!(outcome.monitor_in_odd_rate >= 0.0);
        let report = outcome.report();
        assert!(report.contains("E1"));
        assert!(report.contains("E2"));
        assert!(report.contains("Table I"));
        assert!(report.contains("Runtime monitor"));
    }

    #[test]
    fn assume_guarantee_with_differences_proves_e1() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        let e1 = &outcome.experiments[0];
        // The last strategy is assume-guarantee with difference constraints.
        let ag = e1.outcomes.last().unwrap();
        assert!(
            ag.verdict.is_safe(),
            "assume-guarantee failed to prove E1: {}",
            ag.summary()
        );
        // The conservative Lemma-1 box cannot prove the same property.
        let lemma1 = &e1.outcomes[0];
        assert!(!lemma1.verdict.is_safe(), "Lemma 1 unexpectedly proved E1");
    }

    #[test]
    fn e2_is_not_provable_and_ships_a_counterexample() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        let e2 = &outcome.experiments[1];
        match &e2.outcomes[0].verdict {
            Verdict::Unsafe(ce) => {
                assert_eq!(ce.output.len(), 2);
                assert!(ce.output[0] <= 0.1 + 1e-6 && ce.output[0] >= -0.1 - 1e-6);
            }
            other => panic!("expected E2 to be unprovable, got {other:?}"),
        }
    }

    #[test]
    fn envelope_shards_stage_is_skipped_by_default() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        assert!(outcome.sharded.is_none());
        assert!(!outcome.report().contains("Sharded envelope"));
    }

    #[test]
    fn sharded_stage_produces_consistent_artifacts() {
        let outcome = Workflow::new(WorkflowConfig {
            envelope_shards: 3,
            ..tiny_config()
        })
        .run()
        .unwrap();
        let sharded = outcome.sharded.as_ref().expect("sharded stage requested");
        assert!(sharded.envelope.shard_count() >= 2);
        assert_eq!(
            sharded.verification.shards.len(),
            sharded.envelope.shard_count()
        );
        // The per-shard E1 verdict agrees with the monolithic
        // assume-guarantee outcome (shards are subsets of the envelope, so
        // a monolithic Safe stays Safe per shard).
        let monolithic_e1 = outcome.experiments[0].outcomes.last().unwrap();
        if monolithic_e1.verdict.is_safe() {
            assert!(
                sharded.verification.verdict.is_safe(),
                "{}",
                sharded.verification.summary()
            );
        }
        // The shard union is tighter than the single octagon: acceptance
        // can only drop, detection can only rise (same frames scored).
        assert!(sharded.monitor_in_odd_rate <= outcome.monitor_in_odd_rate);
        assert!(sharded.monitor_out_of_odd_detection >= outcome.monitor_out_of_odd_detection);
        let report = outcome.report();
        assert!(report.contains("Sharded envelope"));
        assert!(report.contains("E1 per-shard"));
    }

    #[test]
    fn scenario_stage_reports_families_and_violation_classes() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        let scenario = outcome
            .scenario
            .as_ref()
            .expect("scenario stage on by default");
        // Under the legacy small scene config only the five historical
        // properties are satisfiable; the diversity families need
        // SceneConfig::diverse().
        assert_eq!(scenario.families.len(), 5);
        assert!(scenario
            .families
            .iter()
            .all(|f| f.samples == tiny_config().scenario_samples));
        assert_eq!(scenario.violations.len(), OddViolation::ALL.len());
        for detection in &scenario.violations {
            assert_eq!(detection.frames, tiny_config().violation_samples);
            assert!(detection.monolithic_rate() >= 0.0 && detection.monolithic_rate() <= 1.0);
            // No sharded stage requested, so no sharded column.
            assert!(detection.sharded_flagged.is_none());
        }
        let report = outcome.report();
        assert!(report.contains("Scenario families"));
        assert!(report.contains("Out-of-ODD taxonomy"));
        assert!(report.contains("extreme-curvature"));
    }

    #[test]
    fn scenario_stage_with_shards_dominates_monolithic_detection() {
        let outcome = Workflow::new(WorkflowConfig {
            envelope_shards: 3,
            scenario_samples: 0,
            ..tiny_config()
        })
        .run()
        .unwrap();
        let scenario = outcome
            .scenario
            .as_ref()
            .expect("violation table requested");
        assert!(scenario.families.is_empty());
        for detection in &scenario.violations {
            let sharded = detection.sharded_flagged.expect("sharded rates measured");
            assert!(
                sharded >= detection.monolithic_flagged,
                "{}: sharded {} < monolithic {}",
                detection.class,
                sharded,
                detection.monolithic_flagged
            );
        }
        assert!(scenario
            .detection(OddViolation::Blackout)
            .is_some_and(|d| d.frames > 0));
    }

    /// The e10 detection tables are produced by batched `check_frames`
    /// sweeps; replaying the same violation RNG stream through per-frame
    /// `check` must reproduce every count exactly — one containment code
    /// path, not two that can drift.
    #[test]
    fn detection_table_matches_per_frame_monitoring() {
        let cfg = tiny_config();
        let outcome = Workflow::new(cfg.clone()).run().unwrap();
        let scenario = outcome.scenario.as_ref().expect("scenario stage");
        assert!(cfg.violation_samples > 0);
        let monitor = RuntimeMonitor::new(
            outcome.perception.clone(),
            outcome.cut_layer,
            outcome.envelope.clone(),
        )
        .unwrap();
        let sampler = OddSampler::new(cfg.scene);
        let mut violation_rng = StdRng::seed_from_u64(cfg.seed ^ 0xaa);
        for detection in &scenario.violations {
            let flagged = (0..cfg.violation_samples)
                .filter(|_| {
                    let image = render_scene(
                        &sampler.sample_violation(detection.class, &mut violation_rng),
                        &cfg.scene,
                    );
                    !monitor.check(&image).is_in_odd()
                })
                .count();
            assert_eq!(
                detection.monolithic_flagged, flagged,
                "{}: batched table drifted from per-frame checks",
                detection.class
            );
        }
    }

    #[test]
    fn scenario_stage_is_skipped_when_disabled() {
        let outcome = Workflow::new(WorkflowConfig {
            scenario_samples: 0,
            violation_samples: 0,
            ..tiny_config()
        })
        .run()
        .unwrap();
        assert!(outcome.scenario.is_none());
        assert!(!outcome.report().contains("Out-of-ODD taxonomy"));
    }

    #[test]
    fn diverse_scene_config_adds_the_diversity_families() {
        let outcome = Workflow::new(WorkflowConfig {
            scene: SceneConfig::diverse(),
            violation_samples: 0,
            ..tiny_config()
        })
        .run()
        .unwrap();
        let scenario = outcome.scenario.as_ref().unwrap();
        assert_eq!(scenario.families.len(), PropertyKind::ALL.len());
        let names: Vec<_> = scenario
            .families
            .iter()
            .map(|f| f.property.name())
            .collect();
        assert!(names.contains(&"occluded"));
        assert!(names.contains(&"heavy_rain"));
        assert!(names.contains(&"dashed_lane"));
    }

    #[test]
    fn information_bottleneck_hurts_the_traffic_characterizer() {
        let outcome = Workflow::new(tiny_config()).run().unwrap();
        let bend = outcome
            .characterizer_accuracies
            .iter()
            .find(|(n, _)| n == "bends_right")
            .unwrap()
            .1;
        let traffic = outcome
            .characterizer_accuracies
            .iter()
            .find(|(n, _)| n == "adjacent_traffic")
            .unwrap()
            .1;
        assert!(
            bend > traffic,
            "expected the output-related property to be easier: bend {bend} vs traffic {traffic}"
        );
    }
}
