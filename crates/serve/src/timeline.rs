//! Per-request timelines reconstructed from a [`TraceSnapshot`].
//!
//! A [`RequestTimeline`] is the serve-level view of the trace: the raw
//! per-worker event streams are filtered down to one request's tag,
//! grouped per obligation, and ordered by timestamp. Because the ring
//! buffers are bounded and drop-oldest, every field that depends on a
//! specific event is an `Option` — a dropped `Enqueue` loses the queue
//! wait, not the whole timeline. Timelines are *cost telemetry*: they
//! are never part of the deterministic report surface.

use dpv_trace::{EventKind, TraceEvent, TraceSnapshot, VerdictClass, NO_OBLIGATION};

/// One solver phase of an obligation: instantiation, a solve attempt or
/// an escalated retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptSpan {
    /// Which phase this span covers.
    pub kind: EventKind,
    /// Start, in nanoseconds since the tracer's epoch.
    pub at_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload (e.g. the budget scale of an escalated
    /// retry).
    pub detail: u64,
}

/// Everything the trace recorded about one obligation of a request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObligationTimeline {
    /// Global obligation index within the request.
    pub index: u64,
    /// When the obligation entered the pool queue.
    pub enqueued_at_ns: Option<u64>,
    /// When a worker picked it up.
    pub dequeued_at_ns: Option<u64>,
    /// Queue wait as recorded by the worker at dequeue.
    pub queue_wait_ns: Option<u64>,
    /// Instantiation / solve / retry spans, in time order.
    pub attempts: Vec<AttemptSpan>,
    /// The verdict class the worker reported.
    pub verdict: Option<VerdictClass>,
    /// Whether the obligation was answered from the dedup cache.
    pub deduped: bool,
}

/// The trace-derived timeline of one served request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTimeline {
    /// The request's trace tag (a server-local sequence number).
    pub request: u64,
    /// When admission began, in nanoseconds since the tracer's epoch.
    pub began_at_ns: Option<u64>,
    /// End-to-end duration recorded by the admission thread.
    pub duration_ns: Option<u64>,
    /// Per-obligation timelines, sorted by obligation index.
    pub obligations: Vec<ObligationTimeline>,
    /// Events lost to ring-buffer overflow across all workers; when
    /// non-zero, gaps in the timelines are expected.
    pub dropped_events: u64,
}

impl RequestTimeline {
    /// Reconstructs the timeline of request `request` from a snapshot.
    ///
    /// Events carrying a different request tag are ignored; events whose
    /// obligation tag is unset contribute to the request-level fields.
    /// Tolerant of dropped events: missing fields stay `None`.
    pub fn from_snapshot(snapshot: &TraceSnapshot, request: u64) -> Self {
        let mut timeline = RequestTimeline {
            request,
            dropped_events: snapshot.dropped_events(),
            ..RequestTimeline::default()
        };
        let mut events: Vec<&TraceEvent> =
            snapshot.events().filter(|e| e.request == request).collect();
        events.sort_by_key(|e| (e.at_ns, e.obligation, e.kind as u8));
        for event in events {
            match event.kind {
                EventKind::RequestBegin => timeline.began_at_ns = Some(event.at_ns),
                EventKind::RequestEnd => timeline.duration_ns = Some(event.dur_ns),
                _ if event.obligation == NO_OBLIGATION => {}
                EventKind::Enqueue => {
                    timeline.obligation_mut(event.obligation).enqueued_at_ns = Some(event.at_ns);
                }
                EventKind::Dequeue => {
                    let obligation = timeline.obligation_mut(event.obligation);
                    obligation.dequeued_at_ns = Some(event.at_ns);
                    obligation.queue_wait_ns = Some(event.detail);
                }
                EventKind::DedupHit => timeline.obligation_mut(event.obligation).deduped = true,
                EventKind::Verdict => {
                    timeline.obligation_mut(event.obligation).verdict =
                        Some(VerdictClass::from_u64(event.detail));
                }
                EventKind::Instantiate | EventKind::SolveAttempt | EventKind::EscalatedRetry => {
                    timeline
                        .obligation_mut(event.obligation)
                        .attempts
                        .push(AttemptSpan {
                            kind: event.kind,
                            at_ns: event.at_ns,
                            dur_ns: event.dur_ns,
                            detail: event.detail,
                        });
                }
            }
        }
        timeline.obligations.sort_by_key(|o| o.index);
        timeline
    }

    fn obligation_mut(&mut self, index: u64) -> &mut ObligationTimeline {
        let position = match self.obligations.iter().position(|o| o.index == index) {
            Some(position) => position,
            None => {
                self.obligations.push(ObligationTimeline {
                    index,
                    ..ObligationTimeline::default()
                });
                self.obligations.len() - 1
            }
        };
        &mut self.obligations[position]
    }

    /// Multi-line human-readable rendering of the timeline.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "request {} | {} obligations | {} dropped events\n",
            self.request,
            self.obligations.len(),
            self.dropped_events
        );
        if let (Some(at), Some(dur)) = (self.began_at_ns, self.duration_ns) {
            out.push_str(&format!("  began +{at}ns, took {dur}ns\n"));
        }
        for obligation in &self.obligations {
            out.push_str(&format!("  obligation {}:", obligation.index));
            if obligation.deduped {
                out.push_str(" deduped");
            }
            if let Some(wait) = obligation.queue_wait_ns {
                out.push_str(&format!(" queued {wait}ns"));
            }
            for attempt in &obligation.attempts {
                out.push_str(&format!(" {} {}ns", attempt.kind.name(), attempt.dur_ns));
            }
            if let Some(verdict) = obligation.verdict {
                out.push_str(&format!(" -> {verdict:?}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_trace::{TraceConfig, Tracer};

    #[test]
    fn reconstructs_obligation_phases_from_events() {
        let tracer = Tracer::with_config(TraceConfig::default());
        let handle = tracer.register();
        let rtrace = handle.tagged(7, NO_OBLIGATION);
        rtrace.event(TraceEvent::instant(EventKind::RequestBegin, 10, 2));
        let otrace = handle.tagged(7, 0);
        otrace.event(TraceEvent::instant(EventKind::Enqueue, 12, 0));
        otrace.event(TraceEvent::instant(EventKind::Dequeue, 20, 8));
        otrace.event(TraceEvent::span(EventKind::SolveAttempt, 21, 5, 1));
        otrace.event(TraceEvent::instant(EventKind::Verdict, 27, 0));
        let dedup = handle.tagged(7, 1);
        dedup.event(TraceEvent::instant(EventKind::DedupHit, 11, 0));
        // A different request's events must not leak in.
        let other = handle.tagged(8, 0);
        other.event(TraceEvent::instant(EventKind::Enqueue, 13, 0));
        rtrace.event(TraceEvent::span(EventKind::RequestEnd, 10, 30, 2));

        let timeline = RequestTimeline::from_snapshot(&tracer.snapshot(), 7);
        assert_eq!(timeline.request, 7);
        assert_eq!(timeline.began_at_ns, Some(10));
        assert_eq!(timeline.duration_ns, Some(30));
        assert_eq!(timeline.dropped_events, 0);
        assert_eq!(timeline.obligations.len(), 2);
        let solved = &timeline.obligations[0];
        assert_eq!(solved.index, 0);
        assert_eq!(solved.enqueued_at_ns, Some(12));
        assert_eq!(solved.dequeued_at_ns, Some(20));
        assert_eq!(solved.queue_wait_ns, Some(8));
        assert_eq!(solved.attempts.len(), 1);
        assert_eq!(solved.attempts[0].kind, EventKind::SolveAttempt);
        assert_eq!(solved.attempts[0].detail, 1);
        assert_eq!(solved.verdict, Some(VerdictClass::Safe));
        assert!(!solved.deduped);
        let deduped = &timeline.obligations[1];
        assert_eq!(deduped.index, 1);
        assert!(deduped.deduped);
        assert!(deduped.attempts.is_empty());
        assert!(timeline.summary().contains("obligation 0"));
    }

    #[test]
    fn missing_events_leave_options_unset() {
        let tracer = Tracer::with_config(TraceConfig::default());
        let handle = tracer.register();
        let otrace = handle.tagged(3, 5);
        // Only a verdict survived (as if Enqueue/Dequeue were dropped).
        otrace.event(TraceEvent::instant(EventKind::Verdict, 40, 2));
        let timeline = RequestTimeline::from_snapshot(&tracer.snapshot(), 3);
        assert_eq!(timeline.began_at_ns, None);
        assert_eq!(timeline.duration_ns, None);
        assert_eq!(timeline.obligations.len(), 1);
        assert_eq!(timeline.obligations[0].enqueued_at_ns, None);
        assert_eq!(timeline.obligations[0].queue_wait_ns, None);
        assert_eq!(timeline.obligations[0].verdict, Some(VerdictClass::Unknown));
    }

    #[test]
    fn empty_snapshot_yields_empty_timeline() {
        let timeline = RequestTimeline::from_snapshot(&TraceSnapshot::default(), 1);
        assert_eq!(timeline.obligations.len(), 0);
        assert_eq!(timeline.began_at_ns, None);
    }
}
