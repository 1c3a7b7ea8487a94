//! The verification strategies of the paper: layer abstraction (Lemma 1),
//! abstract interpretation from the input domain (Lemma 2) and the
//! assume-guarantee envelope with runtime monitoring.

use std::time::Instant;

use dpv_absint::{AbstractDomain, BoxDomain, Zonotope};
use dpv_lp::{
    default_backend, BasisSnapshot, CancelToken, MilpSolution, MilpStatus, SolveContext,
    SolverBackend,
};
use dpv_monitor::ActivationEnvelope;
use dpv_nn::Network;
use dpv_tensor::Vector;
use dpv_trace::{TraceEvent, TraceHandle};

use crate::{
    check_finite, encode_verification, Characterizer, CoreError, EncodedProblem, EncodingTemplate,
    Fingerprint, RegionBounds, RiskCondition, StartRegion,
};

/// Which abstract domain computes the Lemma-2 set from the input domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainKind {
    /// Interval (box) propagation.
    Box,
    /// Zonotope propagation (tighter on affine structure).
    Zonotope,
}

/// Configuration of the assume-guarantee strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AssumeGuarantee {
    /// The envelope `S̃` built from training-data activations.
    pub envelope: ActivationEnvelope,
    /// Whether to use the adjacent-difference constraints of the envelope
    /// (`true`) or only its box part (`false`) — the ablation of
    /// experiment E4.
    pub use_difference_constraints: bool,
}

/// How the start region `S` at the cut layer is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum VerificationStrategy {
    /// Lemma 1: all of `R^{d_l}`, approximated by the symmetric box
    /// `[-bound, bound]^{d_l}` (the MILP encoding needs finite big-M
    /// constants; `bound` should dominate any reachable activation).
    LayerAbstraction {
        /// Half-width of the surrogate box for `R^{d_l}`.
        bound: f64,
    },
    /// Lemma 2: propagate the network's input domain (the `[0, 1]` pixel
    /// box) through the head with a sound abstract domain.
    AbstractInterpretation {
        /// The abstract domain used for the propagation.
        domain: DomainKind,
    },
    /// Assume-guarantee: the training-data envelope, to be monitored at
    /// run time.
    AssumeGuarantee(AssumeGuarantee),
}

impl VerificationStrategy {
    /// Short label used in reports and benchmark ids.
    pub fn label(&self) -> String {
        match self {
            VerificationStrategy::LayerAbstraction { bound } => {
                format!("lemma1-box(±{bound})")
            }
            VerificationStrategy::AbstractInterpretation { domain } => match domain {
                DomainKind::Box => "lemma2-interval".to_string(),
                DomainKind::Zonotope => "lemma2-zonotope".to_string(),
            },
            VerificationStrategy::AssumeGuarantee(cfg) => {
                if cfg.use_difference_constraints {
                    "assume-guarantee(box+diff)".to_string()
                } else {
                    "assume-guarantee(box)".to_string()
                }
            }
        }
    }

    /// Returns `true` when a `Safe` verdict under this strategy is
    /// unconditional (Lemmas 1 and 2) rather than conditional on the runtime
    /// monitor (assume-guarantee).
    pub fn is_unconditional(&self) -> bool {
        !matches!(self, VerificationStrategy::AssumeGuarantee(_))
    }
}

/// Tolerance of a counterexample's concrete re-execution: the output may
/// miss the risk condition, and the characterizer logit may fall below
/// zero, by at most this much.
const WITNESS_TOL: f64 = 1e-6;

/// A counterexample at the cut layer: an activation inside the start region
/// whose tail image satisfies the risk condition while the characterizer
/// fires.
///
/// The solver's branch-and-bound search reports the first node LP point, in
/// depth-first order, that passes the counterexample guard: clamped into the
/// start region, it re-executes into the risk and fires the characterizer,
/// both within 1e-6. That point need not be integral in the ReLU
/// indicators. For a given backend and start basis it is a pure function of
/// the obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// The offending cut-layer activation `n̂_l`.
    pub activation: Vector,
    /// The network output it produces.
    pub output: Vector,
    /// The characterizer logit at the activation (non-negative by
    /// construction), when a characterizer was part of the problem.
    pub logit: Option<f64>,
}

/// Verdict of a verification run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No activation in the start region triggers the risk condition. For
    /// the assume-guarantee strategy this is *conditional* on the runtime
    /// monitor.
    Safe,
    /// A counterexample exists within the start region. The witness is the
    /// first node LP point, in depth-first order, that passes the
    /// counterexample guard (see [`CounterExample`]); from the slack basis,
    /// as every served obligation starts, it is a pure function of the
    /// obligation.
    Unsafe(CounterExample),
    /// The solver gave up (node limit) — neither safety nor a counterexample
    /// was established.
    Unknown(String),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe)
    }

    /// Returns `true` for [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe(_))
    }

    /// Folds the verdicts of independent obligations, given in index
    /// order, into the verdict of their conjunction: `Safe` unless some
    /// obligation is not; then the lowest-index counterexample, which
    /// beats any give-up; otherwise the lowest-index give-up. Sharded
    /// verification and the obligation server (`dpv-serve`) both fold
    /// through this, so their aggregate verdicts cannot drift apart.
    pub fn fold<'a>(verdicts: impl IntoIterator<Item = &'a Verdict>) -> Verdict {
        let mut folded = &Verdict::Safe;
        for verdict in verdicts {
            if let (Verdict::Safe, _) | (Verdict::Unknown(_), Verdict::Unsafe(_)) =
                (folded, verdict)
            {
                folded = verdict;
            }
        }
        folded.clone()
    }
}

/// The result of one verification run, with enough metadata to reproduce the
/// paper's qualitative comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Label of the strategy that produced it.
    pub strategy: String,
    /// Name of the solver backend that produced it.
    pub backend: String,
    /// Whether a `Safe` verdict is conditional on runtime monitoring.
    pub conditional: bool,
    /// Number of binary variables in the MILP.
    pub num_binaries: usize,
    /// Number of ReLU phases fixed by the start-region bounds.
    pub stable_relus: usize,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Wall-clock solve time in seconds (encoding + MILP).
    pub solve_seconds: f64,
}

impl VerificationOutcome {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let verdict = match &self.verdict {
            Verdict::Safe => {
                if self.conditional {
                    "SAFE (conditional on runtime monitor)".to_string()
                } else {
                    "SAFE".to_string()
                }
            }
            Verdict::Unsafe(_) => "UNSAFE (counterexample found)".to_string(),
            Verdict::Unknown(reason) => format!("UNKNOWN ({reason})"),
        };
        format!(
            "{verdict} | strategy {} | backend {} | {} binaries ({} stable) | {} nodes | {:.3}s",
            self.strategy,
            self.backend,
            self.num_binaries,
            self.stable_relus,
            self.nodes_explored,
            self.solve_seconds
        )
    }
}

/// A [`VerificationProblem`]'s reusable encoding state: the
/// [`EncodingTemplate`] plus the concretely-executable tail network (for
/// counterexample validation), both derived once per (problem, root region)
/// pair so a refinement sweep does not re-split the network per sub-box.
/// Build with [`VerificationProblem::encoding_template`].
#[derive(Debug, Clone)]
pub struct ProblemTemplate {
    encoding: EncodingTemplate,
    tail: Network,
}

impl ProblemTemplate {
    /// The underlying encoding template.
    pub fn encoding(&self) -> &EncodingTemplate {
        &self.encoding
    }

    /// Content-addressed identity of the underlying encoding template — the
    /// key under which this template is shared in a
    /// [`crate::cache::TemplateCache`].
    pub fn fingerprint(&self) -> Fingerprint {
        self.encoding.fingerprint()
    }
}

/// Per-solve options for [`VerificationProblem::solve_with_template`], the
/// single template solve entry point. The seed, cancellation and tracing
/// levers are handed down to the backend as one [`SolveContext`].
///
/// Every lever is optional and independently composable (the delta
/// re-verification path needs seed + cancellation + tracing
/// simultaneously):
///
/// * [`bounds`](Self::bounds) — precomputed region bounds (one lane of a
///   batched [`crate::EncodingTemplate::region_bounds_batch`] sweep) that
///   skip the propagation of the region.
/// * [`scratch`](Self::scratch) — a caller-owned slot the obligation's
///   problem is built into, whatever it held before, so the caller can read
///   it after the solve; omit it and the problem is dropped. No core or
///   serve path passes one; the lever stays because perfbench's replay
///   names it, and goes with the benchmark change of ROADMAP item 8.
/// * [`seed`](Self::seed) — a caller-owned warm-start basis, primed before
///   the solve and refreshed with the final basis afterwards. Obligations
///   of one template are built from their own bounds and do not share
///   rows, so a basis of one does not fit the next and is declined; the
///   lever stays because perfbench's replay pools bases through it (a
///   [`crate::SnapshotPool`]) until the benchmark change of ROADMAP item 8.
///   The obligation server passes none: a seeded witness depends on the
///   seed. Ignored by escalated solves, which run unseeded by design.
/// * [`cancel`](Self::cancel) — a cooperative [`CancelToken`] polled inside
///   the solver loops; a tripped token can only withhold a verdict
///   ([`Verdict::Unknown`]), never fabricate one.
/// * [`tracer`](Self::tracer) — a [`TraceHandle`] recording the
///   instantiation span; strictly observational. The solve reports its
///   work in the returned [`MilpSolution::stats`], not through the tracer.
/// * [`escalation`](Self::escalation) — a budget scale for the escalated
///   retry path: both search budgets of this solve's problem are raised by
///   the scale, and the solve runs **unseeded**.
/// * [`backend`](Self::backend) — the solver backend; defaults to
///   [`default_backend`].
#[derive(Default)]
pub struct SolveOptions<'a> {
    bounds: Option<&'a RegionBounds>,
    scratch: Option<&'a mut Option<EncodedProblem>>,
    seed: Option<&'a mut Option<BasisSnapshot>>,
    cancel: Option<&'a CancelToken>,
    tracer: Option<&'a TraceHandle>,
    escalation: Option<usize>,
    backend: Option<&'a dyn SolverBackend>,
}

impl<'a> SolveOptions<'a> {
    /// Options with every lever at its default: fresh instantiation, cold
    /// solve, no cancellation, tracing off, stock budgets, default backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies precomputed region bounds instead of re-propagating them.
    /// Accepts `&RegionBounds` or `Option<&RegionBounds>` (`None` keeps
    /// the default).
    pub fn bounds(mut self, bounds: impl Into<Option<&'a RegionBounds>>) -> Self {
        self.bounds = bounds.into();
        self
    }

    /// Builds the obligation's problem into `scratch`, overwriting what it
    /// held. Only perfbench's replay passes one, mirroring a worker slot
    /// the server no longer keeps; every other caller lets the problem
    /// drop.
    pub fn scratch(mut self, scratch: &'a mut Option<EncodedProblem>) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Warm-starts from (and hands the final basis back to) `seed`.
    pub fn seed(mut self, seed: &'a mut Option<BasisSnapshot>) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Polls `cancel` inside the solver loops. Accepts `&CancelToken` or
    /// `Option<&CancelToken>` (`None` keeps the default).
    pub fn cancel(mut self, cancel: impl Into<Option<&'a CancelToken>>) -> Self {
        self.cancel = cancel.into();
        self
    }

    /// Records the instantiation span on `tracer`.
    pub fn tracer(mut self, tracer: &'a TraceHandle) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Escalates the solve: raises both search budgets by `scale` for this
    /// solve only and runs unseeded (any [`seed`](Self::seed) is ignored —
    /// numerical trouble inherited through a basis is the suspected cause
    /// of the outcome being retried).
    pub fn escalation(mut self, scale: usize) -> Self {
        self.escalation = Some(scale);
        self
    }

    /// Solves through `backend` instead of [`default_backend`].
    pub fn backend(mut self, backend: &'a dyn SolverBackend) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// Raises both branch-and-bound search budgets of `milp` by `scale` for an
/// escalated retry: the node limit multiplicatively, and the simplex pivot
/// budget from its current value (or the size-derived estimate when none is
/// set) multiplicatively. Saturating, so absurd scales clamp instead of
/// wrapping.
fn raise_budgets(milp: &mut dpv_lp::MilpProblem, scale: usize) {
    milp.set_node_limit(milp.node_limit().saturating_mul(scale.max(1)));
    let base = milp
        .lp()
        .iteration_limit()
        .unwrap_or_else(|| milp.lp().estimated_iteration_budget());
    milp.lp_mut()
        .set_iteration_limit(Some(base.saturating_mul(scale.max(1))));
}

/// A complete verification problem: the perception network, the cut layer,
/// the characterizer for φ, and the risk condition ψ.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationProblem {
    perception: Network,
    cut_layer: usize,
    characterizer: Characterizer,
    risk: RiskCondition,
}

impl VerificationProblem {
    /// Assembles a verification problem.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the cut layer is out of
    /// range, the characterizer is attached to a different layer, or its
    /// feature dimension does not match the cut-layer width.
    pub fn new(
        perception: Network,
        cut_layer: usize,
        characterizer: Characterizer,
        risk: RiskCondition,
    ) -> Result<Self, CoreError> {
        if cut_layer >= perception.len() {
            return Err(CoreError::Inconsistent(format!(
                "cut layer {cut_layer} out of range for a {}-layer network",
                perception.len()
            )));
        }
        if characterizer.cut_layer() != cut_layer {
            return Err(CoreError::Inconsistent(format!(
                "characterizer is attached at layer {} but the problem cuts at {cut_layer}",
                characterizer.cut_layer()
            )));
        }
        let dim = perception.layer_output_dim(cut_layer);
        if characterizer.feature_dim() != dim {
            return Err(CoreError::Inconsistent(format!(
                "characterizer expects {} features, cut layer has {dim}",
                characterizer.feature_dim()
            )));
        }
        Ok(Self {
            perception,
            cut_layer,
            characterizer,
            risk,
        })
    }

    /// The perception network.
    pub fn perception(&self) -> &Network {
        &self.perception
    }

    /// The cut layer (zero-based).
    pub fn cut_layer(&self) -> usize {
        self.cut_layer
    }

    /// The characterizer for φ.
    pub fn characterizer(&self) -> &Characterizer {
        &self.characterizer
    }

    /// The risk condition ψ.
    pub fn risk(&self) -> &RiskCondition {
        &self.risk
    }

    /// Computes the start region for a strategy.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when an envelope's layer or
    /// dimension does not match the problem.
    pub fn start_region(&self, strategy: &VerificationStrategy) -> Result<StartRegion, CoreError> {
        let dim = self.perception.layer_output_dim(self.cut_layer);
        match strategy {
            VerificationStrategy::LayerAbstraction { bound } => Ok(StartRegion::Box(
                BoxDomain::uniform(dim, -bound.abs(), bound.abs()),
            )),
            VerificationStrategy::AbstractInterpretation { domain } => {
                let (head, _) = self
                    .perception
                    .split_at(self.cut_layer)
                    .map_err(|e| CoreError::Inconsistent(e.to_string()))?;
                let input_dim = self.perception.input_dim();
                let start = match domain {
                    DomainKind::Box => BoxDomain::uniform(input_dim, 0.0, 1.0)
                        .propagate(head.layers())
                        .to_box(),
                    DomainKind::Zonotope => {
                        Zonotope::from_intervals(BoxDomain::uniform(input_dim, 0.0, 1.0).to_box())
                            .propagate(head.layers())
                            .to_box()
                    }
                };
                Ok(StartRegion::Box(BoxDomain::from_intervals(start)))
            }
            VerificationStrategy::AssumeGuarantee(cfg) => {
                if cfg.envelope.layer() != self.cut_layer {
                    return Err(CoreError::Inconsistent(format!(
                        "envelope was built at layer {} but the problem cuts at {}",
                        cfg.envelope.layer(),
                        self.cut_layer
                    )));
                }
                if cfg.envelope.dim() != dim {
                    return Err(CoreError::Inconsistent(format!(
                        "envelope dimension {} does not match cut-layer width {dim}",
                        cfg.envelope.dim()
                    )));
                }
                if cfg.use_difference_constraints {
                    Ok(StartRegion::Octagon(cfg.envelope.octagon().clone()))
                } else {
                    Ok(StartRegion::Box(cfg.envelope.box_only()))
                }
            }
        }
    }

    /// The counterexample guard: the cut-layer part of a MILP point
    /// `values`, clamped into its cut variables' bounds (the obligation's
    /// box), is a counterexample only when the re-executed tail output
    /// meets the risk and the characterizer fires, both within
    /// [`WITNESS_TOL`]. The risk is checked first, so a point that misses
    /// it costs one forward pass.
    fn witness(
        &self,
        encoded: &EncodedProblem,
        values: &[f64],
        tail: &Network,
    ) -> Option<CounterExample> {
        let lp = encoded.milp.lp();
        let activation: Vector = encoded
            .cut_vars
            .iter()
            .map(|&v| {
                let (lo, hi) = lp.bounds(v);
                values[v].max(lo).min(hi)
            })
            .collect();
        let output = tail.forward(&activation);
        if !self.risk.is_satisfied(&output, WITNESS_TOL) {
            return None;
        }
        let logit = self.characterizer.logit(&activation);
        // `>=` is false for NaN, so a NaN logit fails the guard.
        (logit >= -WITNESS_TOL).then_some(CounterExample {
            activation,
            output,
            logit: Some(logit),
        })
    }

    /// Solves `encoded` through `backend` and translates the result into
    /// a [`Verdict`]. Both core solve paths end here: the one-shot encoding
    /// of a whole region ([`Self::run_solver`]) and the instantiation of a
    /// sub-region of a template ([`Self::solve_with_template`]).
    ///
    /// The search gets the counterexample guard ([`Self::witness`]) as its
    /// witness check ([`SolveContext::witness`]), so it stops at the first
    /// node LP point, in depth-first order, that the guard accepts. `seed`
    /// primes the backend's warm start and receives the final basis back.
    fn solve_encoded(
        &self,
        encoded: &EncodedProblem,
        tail: &Network,
        backend: &dyn SolverBackend,
        mut seed: Option<&mut Option<BasisSnapshot>>,
        cancel: Option<&CancelToken>,
    ) -> (Verdict, MilpSolution) {
        let guard = |values: &[f64]| self.witness(encoded, values, tail).is_some();
        let mut ctx = SolveContext {
            seed: seed.as_mut().and_then(|seed| seed.take()),
            cancel,
            witness: Some(&guard),
        };
        let solution = backend.solve_with(&encoded.milp, &mut ctx);
        if let Some(seed) = seed {
            *seed = ctx.seed;
        }
        let verdict = self.interpret_solution(encoded, &solution, tail, backend);
        (verdict, solution)
    }

    /// Translates a MILP solve into a [`Verdict`], re-running the tail
    /// concretely for counterexamples so they are self-contained and
    /// numerically honest.
    ///
    /// An `Optimal` point is reported as [`Verdict::Unsafe`] only when it
    /// passes the counterexample guard ([`Self::witness`]); otherwise the
    /// verdict is `Unknown("invalid-counterexample")`. A search that
    /// stopped at a point the guard accepted therefore always interprets
    /// to `Unsafe` with that point.
    fn interpret_solution(
        &self,
        encoded: &EncodedProblem,
        solution: &MilpSolution,
        tail: &Network,
        backend: &dyn SolverBackend,
    ) -> Verdict {
        match solution.status {
            MilpStatus::Infeasible => Verdict::Safe,
            MilpStatus::Optimal => match self.witness(encoded, &solution.values, tail) {
                Some(counterexample) => Verdict::Unsafe(counterexample),
                None => Verdict::Unknown("invalid-counterexample".to_string()),
            },
            MilpStatus::NodeLimit => Verdict::Unknown(format!("{} node limit", backend.name())),
            // Also a result that failed its check after a slack-basis
            // start (`SolveStats::failed_checks`); the check is
            // deterministic, so such a solve is not retried.
            MilpStatus::IterationLimit => Verdict::Unknown(format!(
                "{} simplex iteration limit or failed result check (numerical trouble; \
                 a failed check is not retried)",
                backend.name()
            )),
            // Callers that thread a deadline (the obligation server) key off
            // `solution.status == Cancelled` for their machine-readable
            // failure code; this string is the human-facing rendition.
            MilpStatus::Cancelled => Verdict::Unknown(format!(
                "{} cancelled (deadline or explicit cancellation)",
                backend.name()
            )),
        }
    }

    /// The tail network after the cut: the part the MILP encodes and the
    /// part counterexamples are re-executed through.
    fn tail(&self) -> Result<Network, CoreError> {
        let (_, tail) = self
            .perception
            .split_at(self.cut_layer)
            .map_err(|e| CoreError::Inconsistent(e.to_string()))?;
        Ok(tail)
    }

    /// [`check_finite`] over this problem's tail, characterizer and risk and
    /// the start `region`.
    fn check_finite(&self, tail: &Network, region: &StartRegion) -> Result<(), CoreError> {
        check_finite(
            tail.layers(),
            self.characterizer.network(),
            [&self.risk],
            [region],
        )
    }

    /// Encodes the problem over `region` and hands the MILP to `backend`,
    /// translating the solver status into a [`Verdict`]. This is the
    /// one-shot solve of a whole region: every strategy (Lemma 1, Lemma 2,
    /// assume-guarantee) and every shard of a sharded run go through it.
    pub(crate) fn run_solver(
        &self,
        region: &StartRegion,
        backend: &dyn SolverBackend,
    ) -> Result<(Verdict, EncodedProblem, MilpSolution), CoreError> {
        let tail = self.tail()?;
        self.check_finite(&tail, region)?;
        let encoded = encode_verification(
            tail.layers(),
            Some(self.characterizer.network()),
            &self.risk,
            region,
        )?;
        let (verdict, solution) = self.solve_encoded(&encoded, &tail, backend, None, None);
        Ok((verdict, encoded, solution))
    }

    /// Builds a reusable [`ProblemTemplate`] over `root`;
    /// [`VerificationProblem::solve_with_template`] then builds each
    /// sub-region's MILP from that sub-region's own bounds, and refuses a
    /// region that `root` does not cover.
    ///
    /// # Errors
    /// Same conditions as [`encode_verification`], plus
    /// [`CoreError::Inconsistent`] when [`check_finite`] rejects the
    /// problem or `root`.
    pub fn encoding_template(&self, root: &StartRegion) -> Result<ProblemTemplate, CoreError> {
        let tail = self.tail()?;
        self.check_finite(&tail, root)?;
        let encoding = EncodingTemplate::build(
            tail.layers(),
            Some(self.characterizer.network()),
            &self.risk,
            root,
        )?;
        Ok(ProblemTemplate { encoding, tail })
    }

    /// The canonical [`Fingerprint`] the template built by
    /// [`VerificationProblem::encoding_template`] over `root` *would* carry —
    /// computed without encoding anything, so cache lookups
    /// ([`crate::cache::TemplateCache::get_or_build`]) can probe before
    /// paying for a build.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the cut layer cannot split
    /// the network.
    pub fn template_fingerprint(&self, root: &StartRegion) -> Result<Fingerprint, CoreError> {
        let tail = self.tail()?;
        Ok(Fingerprint::of_template(
            tail.layers(),
            Some(self.characterizer.network()),
            &self.risk,
            root,
        ))
    }

    /// Solves one obligation (`region` under `template`) with every reuse
    /// and control lever selected through [`SolveOptions`]: the obligation's
    /// MILP is built from the region's own bounds (into the options' scratch
    /// slot, when one is given), precomputed bounds (one lane of a batched
    /// [`crate::EncodingTemplate::region_bounds_batch`] sweep) skip the
    /// propagation, a seed primes the backend's warm-start state
    /// ([`dpv_lp::SolveContext::seed`]) and receives the final basis back,
    /// a [`CancelToken`] is polled inside the solver loops, a
    /// [`TraceHandle`] records the instantiation span, and an escalation
    /// scale turns the call into the budget-raised retry. `region` must lie
    /// in the template's root ([`crate::EncodingTemplate::supports`]).
    ///
    /// Reuse never changes verdicts, only cost: a stale or foreign seed is
    /// rejected inside the LP layer and the node solves cold. Cancellation
    /// surfaces as [`MilpStatus::Cancelled`] → [`Verdict::Unknown`] — it can
    /// only withhold a verdict, never fabricate one. Tracing is
    /// observational only.
    ///
    /// An escalated solve is the retry for budget-exhausted
    /// `IterationLimit`/`NodeLimit` outcomes (not for a failed result
    /// check, see [`dpv_lp::SolveStats::failed_checks`]): it runs unseeded
    /// (numerical trouble inherited through a basis is the suspected
    /// cause) with both search budgets raised by the scale (node limit,
    /// and the simplex pivot budget via
    /// [`dpv_lp::LinearProgram::estimated_iteration_budget`]). The raised
    /// limits apply to this solve's problem only: every solve builds its
    /// problem afresh, so sibling obligations see the stock budgets and
    /// report determinism holds. Because the retry solves the same
    /// instantiation as the canonical unseeded path, a successful retry
    /// returns the bit-identical verdict a fault-free solve would have.
    ///
    /// # Errors
    /// Propagates encoding errors. A region the template does not cover,
    /// and bounds from a different template, yield
    /// [`CoreError::Inconsistent`] before anything is solved.
    pub fn solve_with_template(
        &self,
        template: &ProblemTemplate,
        region: &StartRegion,
        options: &mut SolveOptions<'_>,
    ) -> Result<(Verdict, MilpSolution), CoreError> {
        let default_be;
        let backend: &dyn SolverBackend = match options.backend {
            Some(backend) => backend,
            None => {
                default_be = default_backend();
                &default_be
            }
        };
        let mut local_scratch = None;
        let scratch = match options.scratch.as_deref_mut() {
            Some(scratch) => scratch,
            None => &mut local_scratch,
        };
        let disabled = TraceHandle::disabled();
        let trace = options.tracer.unwrap_or(&disabled);
        let instantiate_started = trace.now_ns();
        let encoded = scratch.insert(match options.bounds {
            Some(bounds) => template.encoding.instantiate_with(region, bounds)?,
            None => template.encoding.instantiate(region)?,
        });
        if trace.is_enabled() {
            trace.event(TraceEvent::span(
                dpv_trace::EventKind::Instantiate,
                instantiate_started,
                trace.now_ns().saturating_sub(instantiate_started),
                u64::from(options.bounds.is_some()),
            ));
        }
        let seed = match options.escalation {
            None => options.seed.as_deref_mut(),
            Some(scale) => {
                raise_budgets(&mut encoded.milp, scale);
                None
            }
        };
        Ok(self.solve_encoded(encoded, &template.tail, backend, seed, options.cancel))
    }

    /// Runs the verification under the given strategy with the default
    /// solver backend.
    ///
    /// # Errors
    /// Propagates encoding errors ([`CoreError::NotPiecewiseLinear`],
    /// [`CoreError::Inconsistent`]); a non-finite tail, characterizer, risk
    /// or region is rejected by [`check_finite`] before anything is encoded.
    pub fn verify(
        &self,
        strategy: &VerificationStrategy,
    ) -> Result<VerificationOutcome, CoreError> {
        self.verify_with(strategy, &default_backend())
    }

    /// Runs the verification under the given strategy, solving through
    /// `backend`.
    ///
    /// # Errors
    /// Propagates encoding errors ([`CoreError::NotPiecewiseLinear`],
    /// [`CoreError::Inconsistent`]).
    pub fn verify_with(
        &self,
        strategy: &VerificationStrategy,
        backend: &dyn SolverBackend,
    ) -> Result<VerificationOutcome, CoreError> {
        let start_time = Instant::now();
        let region = self.start_region(strategy)?;
        let (verdict, encoded, solution) = self.run_solver(&region, backend)?;
        let solve_seconds = start_time.elapsed().as_secs_f64();

        Ok(VerificationOutcome {
            verdict,
            strategy: strategy.label(),
            backend: backend.name().to_string(),
            conditional: !strategy.is_unconditional(),
            num_binaries: encoded.num_binaries,
            stable_relus: encoded.stable_relus,
            nodes_explored: solution.stats.nodes_explored,
            solve_seconds,
        })
    }

    /// Validates a counterexample by executing the tail network concretely:
    /// the activation must lie in the strategy's start region, its output
    /// must satisfy ψ, and the characterizer must fire.
    ///
    /// # Errors
    /// Propagates region-construction errors.
    pub fn confirm_counterexample(
        &self,
        strategy: &VerificationStrategy,
        counterexample: &CounterExample,
        tol: f64,
    ) -> Result<bool, CoreError> {
        let region = self.start_region(strategy)?;
        let output = self.tail()?.forward(&counterexample.activation);
        // The MILP pins the characterizer logit at the `>= 0` boundary, so
        // the concrete re-execution may land a rounding error below it; the
        // characterizer check must share the caller's tolerance.
        Ok(region.contains(counterexample.activation.as_slice(), tol)
            && self.risk.is_satisfied(&output, tol)
            && self.characterizer.logit(&counterexample.activation) >= -tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CharacterizerConfig, InputProperty};
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small synthetic "perception" problem whose structure mirrors the
    /// paper's: 4-dimensional inputs, the first input plays the role of
    /// "curvature" and fully determines both the output and the property.
    fn setup(seed: u64) -> (Network, Characterizer, Vec<(Vector, bool)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perception = NetworkBuilder::new(4)
            .dense(8, &mut rng)
            .activation(Activation::ReLU)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        // Train the perception net to output 2*x0 - 1 (a signed "steering" signal).
        let inputs: Vec<Vector> = (0..300)
            .map(|_| Vector::from_vec((0..4).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let targets: Vec<Vector> = inputs
            .iter()
            .map(|x| Vector::from_slice(&[2.0 * x[0] - 1.0]))
            .collect();
        let data = dpv_nn::Dataset::new(inputs.clone(), targets).unwrap();
        let config = dpv_nn::TrainConfig {
            epochs: 60,
            learning_rate: 0.01,
            ..Default::default()
        };
        dpv_nn::train(
            &mut perception,
            &data,
            &config,
            dpv_nn::LossKind::Mse,
            &mut rng,
        );

        // Property φ: "x0 is large" (analogue of "road bends right").
        let examples: Vec<(Vector, bool)> =
            inputs.iter().map(|x| (x.clone(), x[0] > 0.7)).collect();
        let characterizer = Characterizer::train(
            InputProperty::new("x0_large", "the first input exceeds 0.7"),
            &perception,
            3,
            &examples,
            &CharacterizerConfig::small(),
            &mut rng,
        )
        .unwrap();
        (perception, characterizer, examples)
    }

    /// Threshold chosen just below what the tail can produce on the
    /// envelope: safety under the envelope is then provable, while the same
    /// threshold stays easily reachable inside a huge Lemma-1 box.
    fn envelope_and_threshold(
        perception: &Network,
        examples: &[(Vector, bool)],
    ) -> (ActivationEnvelope, f64) {
        let inputs: Vec<Vector> = examples.iter().map(|(x, _)| x.clone()).collect();
        let envelope = ActivationEnvelope::from_inputs(perception, 3, &inputs, 0.0).unwrap();
        let (_, tail) = perception.split_at(3).unwrap();
        let out_box = envelope.box_only().propagate(tail.layers());
        let lower = out_box.to_box()[0].lo;
        (envelope, lower - 0.1)
    }

    #[test]
    fn assume_guarantee_proves_consistent_property() {
        let (perception, characterizer, examples) = setup(1);
        let (envelope, threshold) = envelope_and_threshold(&perception, &examples);
        // ψ: "output is more negative than anything the envelope allows" —
        // the analogue of "suggest steering to the far left".
        let risk = RiskCondition::new("strongly negative").output_le(0, threshold);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        let strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope,
            use_difference_constraints: true,
        });
        let outcome = problem.verify(&strategy).unwrap();
        assert!(
            outcome.verdict.is_safe(),
            "expected SAFE, got {}",
            outcome.summary()
        );
        assert!(outcome.conditional);
    }

    #[test]
    fn lemma1_box_is_too_coarse_to_prove_the_same_property() {
        let (perception, characterizer, examples) = setup(1);
        let (_, threshold) = envelope_and_threshold(&perception, &examples);
        let risk = RiskCondition::new("strongly negative").output_le(0, threshold);
        let problem = VerificationProblem::new(perception, 3, characterizer, risk).unwrap();
        let strategy = VerificationStrategy::LayerAbstraction { bound: 100.0 };
        let outcome = problem.verify(&strategy).unwrap();
        // With essentially unconstrained activations the risk is reachable, so
        // the conservative strategy cannot prove safety (matches the paper's
        // observation that whole-space bounds are useless for such properties).
        assert!(
            !outcome.verdict.is_safe(),
            "Lemma 1 unexpectedly proved the property: {}",
            outcome.summary()
        );
        assert!(!outcome.conditional);
    }

    #[test]
    fn unsafe_verdicts_come_with_confirmed_counterexamples() {
        let (perception, characterizer, examples) = setup(2);
        // ψ: "output is positive" — this IS reachable when φ holds, so the
        // verifier must return a counterexample.
        let risk = RiskCondition::new("positive output").output_ge(0, 0.2);
        let problem = VerificationProblem::new(perception.clone(), 3, characterizer, risk).unwrap();
        let inputs: Vec<Vector> = examples.iter().map(|(x, _)| x.clone()).collect();
        let envelope = ActivationEnvelope::from_inputs(&perception, 3, &inputs, 0.0).unwrap();
        let strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope,
            use_difference_constraints: true,
        });
        let outcome = problem.verify(&strategy).unwrap();
        match &outcome.verdict {
            Verdict::Unsafe(ce) => {
                assert!(problem.confirm_counterexample(&strategy, ce, 1e-4).unwrap());
                assert!(ce.logit.unwrap() >= -1e-6);
            }
            other => panic!("expected UNSAFE, got {other:?}"),
        }
    }

    #[test]
    fn problem_construction_validates_consistency() {
        let (perception, characterizer, _) = setup(3);
        let risk = RiskCondition::new("r").output_le(0, 0.0);
        assert!(VerificationProblem::new(
            perception.clone(),
            99,
            characterizer.clone(),
            risk.clone()
        )
        .is_err());
        // Wrong cut layer relative to the characterizer.
        assert!(VerificationProblem::new(perception, 1, characterizer, risk).is_err());
    }

    #[test]
    fn non_finite_inputs_are_rejected_before_encoding() {
        let (perception, characterizer, _) = setup(1);
        let risk = RiskCondition::new("r").output_le(0, 0.0);
        let strategy = VerificationStrategy::LayerAbstraction { bound: 1.0 };
        // A +inf tail weight used to panic inside the encoder's interval
        // propagation ("interval bounds must not be NaN").
        let mut infinite_tail = perception.clone();
        match &mut infinite_tail.layers_mut()[4] {
            dpv_nn::Layer::Dense(d) => d.weights_mut()[(0, 0)] = f64::INFINITY,
            other => panic!("layer 4 is {} by construction", other.describe()),
        }
        let problem =
            VerificationProblem::new(infinite_tail, 3, characterizer.clone(), risk.clone())
                .unwrap();
        assert!(matches!(
            problem.verify(&strategy),
            Err(CoreError::Inconsistent(_))
        ));
        let root = problem.start_region(&strategy).unwrap();
        assert!(problem.encoding_template(&root).is_err());

        let nan_threshold = RiskCondition::new("nan").output_le(0, f64::NAN);
        let problem =
            VerificationProblem::new(perception.clone(), 3, characterizer.clone(), nan_threshold)
                .unwrap();
        assert!(problem.verify(&strategy).is_err());

        let problem = VerificationProblem::new(perception, 3, characterizer, risk).unwrap();
        let unbounded = VerificationStrategy::LayerAbstraction {
            bound: f64::INFINITY,
        };
        assert!(problem.verify(&unbounded).is_err());
        assert!(problem.verify(&strategy).is_ok());
    }

    #[test]
    fn interval_overflow_from_finite_inputs_is_an_error() {
        // Every input is finite, but a 1e300 weight in the last dense layer
        // over a ±1e10 region propagates to [−∞, ∞]; the encoder must refuse
        // that bound instead of handing it to the LP layer, which panics.
        let (perception, characterizer, _) = setup(1);
        let risk = RiskCondition::new("r").output_le(0, 0.0);
        let wide = VerificationStrategy::LayerAbstraction { bound: 1e10 };
        let mut huge_tail = perception.clone();
        match &mut huge_tail.layers_mut()[4] {
            dpv_nn::Layer::Dense(d) => d.weights_mut()[(0, 0)] = 1e300,
            other => panic!("layer 4 is {} by construction", other.describe()),
        }
        let problem =
            VerificationProblem::new(huge_tail, 3, characterizer.clone(), risk.clone()).unwrap();
        assert!(matches!(
            problem.verify(&wide),
            Err(CoreError::Inconsistent(_))
        ));
        let root = problem.start_region(&wide).unwrap();
        assert!(problem.encoding_template(&root).is_err());

        // The same overflow in the characterizer's last dense layer.
        let mut head = characterizer.network().clone();
        let last = head.layers().len() - 1;
        match &mut head.layers_mut()[last] {
            dpv_nn::Layer::Dense(d) => d.weights_mut()[(0, 0)] = 1e300,
            other => panic!("the characterizer ends in {}", other.describe()),
        }
        let huge_characterizer = Characterizer::from_network(
            characterizer.property().clone(),
            3,
            head,
            characterizer.training_accuracy(),
        )
        .unwrap();
        let problem = VerificationProblem::new(perception, 3, huge_characterizer, risk).unwrap();
        assert!(matches!(
            problem.verify(&wide),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert!(VerificationStrategy::LayerAbstraction { bound: 10.0 }
            .label()
            .contains("lemma1"));
        assert!(VerificationStrategy::AbstractInterpretation {
            domain: DomainKind::Box
        }
        .label()
        .contains("interval"));
        assert!(VerificationStrategy::AbstractInterpretation {
            domain: DomainKind::Zonotope
        }
        .label()
        .contains("zonotope"));
    }

    #[test]
    fn envelope_mismatch_is_rejected() {
        let (perception, characterizer, examples) = setup(4);
        let inputs: Vec<Vector> = examples.iter().map(|(x, _)| x.clone()).collect();
        // Envelope built at the wrong layer.
        let envelope = ActivationEnvelope::from_inputs(&perception, 1, &inputs, 0.0).unwrap();
        let risk = RiskCondition::new("r").output_le(0, -0.5);
        let problem = VerificationProblem::new(perception, 3, characterizer, risk).unwrap();
        let strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope,
            use_difference_constraints: false,
        });
        assert!(problem.verify(&strategy).is_err());
    }
}
