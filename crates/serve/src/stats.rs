//! Aggregate statistics of a resident obligation server.

use dpv_core::{CacheStats, SnapshotPoolStats};

/// A point-in-time snapshot of everything a resident server has done:
/// cache effectiveness, dedup rate, queue pressure and per-obligation
/// latency. Returned by [`crate::ObligationServer::stats`] and attached
/// to every [`crate::RequestReport`].
///
/// A view, not an accumulator: every counter is read from the server's
/// one always-on counter store (keyed by [`dpv_trace::CounterId`]),
/// which each event increments exactly once, tracing on or off. The
/// trace export reads the same store, so the two can never disagree.
/// That store also sums the solver work of every solve attempt (nodes,
/// warm and cold LP solves, pivots); no field here repeats it, since each
/// [`crate::ObligationOutcome::stats`] reports it per obligation.
///
/// Counters are cumulative since the server was created. Latency and
/// queue-depth figures are *cost* telemetry and deliberately not part of
/// the deterministic report surface (verdicts are; see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served to completion.
    pub requests: u64,
    /// Obligations decomposed across all requests (solved + deduplicated).
    pub obligations: u64,
    /// Obligations actually handed to the solver pool.
    pub solved: u64,
    /// Obligations answered from the verdict cache without solving.
    pub dedup_hits: u64,
    /// Always 0: the server solves every obligation from the slack basis,
    /// so no witness needs a canonical re-solve. The field stays until
    /// perfbench's replay, which reads it, moves off the old path.
    pub canonical_resolves: u64,
    /// Budget-exhausted solves (node or iteration limit) retried once,
    /// unseeded, with escalated budgets before degrading. A solve whose LP
    /// result failed its check is not retried.
    pub retries: u64,
    /// Escalated retries that produced a definitive verdict, rescuing an
    /// obligation that would otherwise have degraded.
    pub retry_successes: u64,
    /// Worker panics caught and contained (an obligation may contribute
    /// two: the original attempt and the single in-place retry).
    pub worker_panics: u64,
    /// Obligations quarantined after panicking on both attempts; they
    /// report `Unknown("worker-panic")` and are never cached.
    pub quarantined: u64,
    /// Obligations skipped without touching the solver because their
    /// request's deadline had already expired.
    pub deadline_skipped: u64,
    /// Obligations in flight when the snapshot was taken.
    pub queue_depth: usize,
    /// High-water mark of obligations in flight.
    pub max_queue_depth: usize,
    /// Wall-clock nanoseconds spent solving obligations (sum over the
    /// pool's workers, so it can exceed elapsed time).
    pub total_solve_ns: u128,
    /// Template-cache effectiveness (hits, misses, evictions, entries).
    pub templates: CacheStats,
    /// Always the default: the server keeps no basis pool. The field
    /// stays until perfbench's replay, which reads it, moves off the
    /// pool.
    pub snapshots: SnapshotPoolStats,
}

impl ServeStats {
    /// Deduplicated obligations per thousand decomposed, in `0..=1000`.
    pub fn dedup_rate_permille(&self) -> u64 {
        (self.dedup_hits * 1000)
            .checked_div(self.obligations)
            .unwrap_or(0)
    }

    /// Template-cache hits per thousand lookups, in `0..=1000`.
    pub fn template_hit_rate_permille(&self) -> u64 {
        self.templates.hit_rate_permille()
    }

    /// Mean wall-clock nanoseconds per solved obligation.
    pub fn mean_obligation_latency_ns(&self) -> u128 {
        self.total_solve_ns
            .checked_div(u128::from(self.solved))
            .unwrap_or(0)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests | {} obligations ({} solved, {} deduped, {}‰ dedup) | \
             templates {}/{} hit/miss | queue {} (max {}) | \
             {} ns/obligation | {} retries ({} rescued) | {} panics ({} quarantined) | \
             {} deadline-skipped",
            self.requests,
            self.obligations,
            self.solved,
            self.dedup_hits,
            self.dedup_rate_permille(),
            self.templates.hits,
            self.templates.misses,
            self.queue_depth,
            self.max_queue_depth,
            self.mean_obligation_latency_ns(),
            self.retries,
            self.retry_successes,
            self.worker_panics,
            self.quarantined,
            self.deadline_skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_helpers_return_zero_on_zero_denominators() {
        let stats = ServeStats::default();
        assert_eq!(stats.dedup_rate_permille(), 0);
        assert_eq!(stats.template_hit_rate_permille(), 0);
        assert_eq!(stats.mean_obligation_latency_ns(), 0);
        assert_eq!(CacheStats::default().hit_rate_permille(), 0);
        assert_eq!(SnapshotPoolStats::default().hit_rate_permille(), 0);
    }

    #[test]
    fn rate_helpers_compute_permille() {
        let stats = ServeStats {
            obligations: 4,
            dedup_hits: 1,
            solved: 3,
            total_solve_ns: 900,
            templates: CacheStats {
                hits: 3,
                misses: 1,
                ..CacheStats::default()
            },
            ..ServeStats::default()
        };
        assert_eq!(stats.dedup_rate_permille(), 250);
        assert_eq!(stats.template_hit_rate_permille(), 750);
        assert_eq!(stats.mean_obligation_latency_ns(), 300);
    }
}
