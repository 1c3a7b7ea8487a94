//! Deterministic fault injection and the degraded-verdict taxonomy.
//!
//! The server's resilience tests need faults that are *reproducible*: the
//! same request with the same [`FaultPlan`] must produce bit-identical
//! reports run after run, regardless of worker scheduling. A plan is a
//! plain obligation-index → [`FaultKind`] map injected through
//! [`crate::ObligationServer::set_fault_plan`] — a test-only seam that is
//! a no-op in production use (the default plan is empty).
//!
//! Degraded verdicts carry a machine-readable [`FailureReason`] code as
//! the payload of [`dpv_core::Verdict::Unknown`], so clients (and the
//! fault-injection proptests) can key off a stable string instead of
//! parsing human-facing prose.

use dpv_core::Verdict;

/// What an injected fault does to the obligation it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics while solving the obligation — on every
    /// attempt, so after the single in-place retry the obligation is
    /// quarantined with [`FailureReason::WorkerPanic`].
    Panic,
    /// Every solve of the obligation, including the escalated retry,
    /// exhausts its simplex iteration budget. Degrades to
    /// [`FailureReason::IterationLimit`].
    ExhaustIterations,
    /// The first solve exhausts its iteration budget; the escalated
    /// retry succeeds, so the final verdict equals the fault-free one
    /// (and `retry_successes` ticks).
    TransientExhaust,
    /// The obligation's solve is seeded with a basis from a foreign,
    /// unrelated LP. The LP layer's structural guard must reject it at
    /// the root and fall back to the slack basis — the verdict is
    /// unchanged.
    PoisonSnapshot,
    /// The worker sleeps before solving — for deadline-expiry tests.
    Delay {
        /// Milliseconds to sleep.
        millis: u64,
    },
}

/// A deterministic fault plan: a map from global obligation index to the
/// fault injected when that obligation is solved. Plans are part of the
/// *input* of a served request for determinism purposes: the report is a
/// pure function of `(request, plan)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

/// `splitmix64` step — a tiny, dependency-free PRNG for seeded plans.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects `kind` at obligation `index`, replacing any fault already
    /// planned there.
    pub fn inject(&mut self, index: usize, kind: FaultKind) -> &mut Self {
        match self.faults.iter_mut().find(|(i, _)| *i == index) {
            Some(slot) => slot.1 = kind,
            None => self.faults.push((index, kind)),
        }
        self
    }

    /// A seeded plan: `count` faults at distinct obligation indices drawn
    /// deterministically from `seed` over `0..total`. The same
    /// `(seed, total, count)` always yields the same plan.
    pub fn from_seed(seed: u64, total: usize, count: usize) -> Self {
        let mut plan = Self::new();
        if total == 0 {
            return plan;
        }
        let mut state = seed;
        let mut placed = 0usize;
        // Bounded probing keeps this total even for pathological counts.
        for _ in 0..count.saturating_mul(8).max(8) {
            if placed >= count.min(total) {
                break;
            }
            let index = (splitmix64(&mut state) % total as u64) as usize;
            if plan.fault_at(index).is_some() {
                continue;
            }
            let kind = match splitmix64(&mut state) % 5 {
                0 => FaultKind::Panic,
                1 => FaultKind::ExhaustIterations,
                2 => FaultKind::TransientExhaust,
                3 => FaultKind::PoisonSnapshot,
                _ => FaultKind::Delay {
                    millis: splitmix64(&mut state) % 3,
                },
            };
            plan.inject(index, kind);
            placed += 1;
        }
        plan
    }

    /// The fault planned at obligation `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, kind)| *kind)
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The machine-readable taxonomy of degraded obligation outcomes. Each
/// reason is reported as the exact payload string of
/// [`Verdict::Unknown`] (see [`FailureReason::code`]), so it is stable
/// across releases and safe to match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The request's deadline expired before (or while) the obligation
    /// was solved; the solver was cancelled cooperatively or skipped
    /// outright.
    DeadlineExceeded,
    /// The obligation's worker panicked twice (original attempt plus the
    /// single in-place retry) and the obligation was quarantined.
    WorkerPanic,
    /// The simplex iteration budget was exhausted on the original solve
    /// *and* on the escalated retry, or an LP result failed its check
    /// after a slack-basis start. A failed check is not retried: the check
    /// is deterministic, so a retry would repeat the same pivots and fail
    /// it again.
    IterationLimit,
    /// The branch-and-bound node budget was exhausted on the original
    /// solve *and* on the escalated retry.
    NodeLimit,
    /// Internal accounting lost the obligation's outcome slot — reported
    /// instead of crashing the submitter. Should never happen; its
    /// presence in a report is a server bug worth filing.
    SlotLost,
}

impl FailureReason {
    /// The stable machine-readable code, used verbatim as the
    /// [`Verdict::Unknown`] payload of degraded outcomes.
    pub fn code(self) -> &'static str {
        match self {
            FailureReason::DeadlineExceeded => "deadline-exceeded",
            FailureReason::WorkerPanic => "worker-panic",
            FailureReason::IterationLimit => "iteration-limit",
            FailureReason::NodeLimit => "node-limit",
            FailureReason::SlotLost => "slot-lost",
        }
    }

    /// Parses the degraded-outcome reason of a verdict: `Some` exactly
    /// when `verdict` is an `Unknown` whose payload is one of the codes
    /// in this taxonomy.
    pub fn of(verdict: &Verdict) -> Option<FailureReason> {
        let Verdict::Unknown(reason) = verdict else {
            return None;
        };
        [
            FailureReason::DeadlineExceeded,
            FailureReason::WorkerPanic,
            FailureReason::IterationLimit,
            FailureReason::NodeLimit,
            FailureReason::SlotLost,
        ]
        .into_iter()
        .find(|candidate| candidate.code() == reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let a = FaultPlan::from_seed(42, 16, 4);
        let b = FaultPlan::from_seed(42, 16, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.len() <= 4);
    }

    #[test]
    fn inject_replaces_existing_fault() {
        let mut plan = FaultPlan::new();
        plan.inject(3, FaultKind::Panic);
        plan.inject(3, FaultKind::PoisonSnapshot);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.fault_at(3), Some(FaultKind::PoisonSnapshot));
        assert_eq!(plan.fault_at(4), None);
    }

    #[test]
    fn empty_universe_yields_empty_plan() {
        assert!(FaultPlan::from_seed(7, 0, 3).is_empty());
    }

    #[test]
    fn failure_reasons_round_trip_through_verdicts() {
        for reason in [
            FailureReason::DeadlineExceeded,
            FailureReason::WorkerPanic,
            FailureReason::IterationLimit,
            FailureReason::NodeLimit,
            FailureReason::SlotLost,
        ] {
            let verdict = Verdict::Unknown(reason.code().to_string());
            assert_eq!(FailureReason::of(&verdict), Some(reason));
        }
        assert_eq!(FailureReason::of(&Verdict::Safe), None);
        assert_eq!(
            FailureReason::of(&Verdict::Unknown("anything else".into())),
            None
        );
    }
}
