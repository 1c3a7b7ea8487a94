//! The event model: spans and instants encoded as fixed-width words.
//!
//! Every recorded event is six `u64` words — kind + worker, timestamp,
//! duration, request, obligation, detail — so a ring-buffer slot has a
//! fixed shape and recording never allocates. Span hierarchy is implicit
//! in the tags: a request event carries only a request sequence number,
//! an obligation-scoped event carries both the request and the global
//! obligation index, and solver-internal events inherit whatever tags
//! the [`crate::TraceHandle`] they were recorded through carries.

/// Number of `u64` words one encoded event occupies.
pub(crate) const EVENT_WORDS: usize = 6;

/// Request tag meaning "not attached to any request".
pub const NO_REQUEST: u64 = 0;

/// Obligation tag meaning "not attached to any obligation".
pub const NO_OBLIGATION: u64 = u64::MAX;

/// What one recorded event describes. The hierarchy, outermost first:
/// request → obligation → solve attempt → {instantiate, escalated retry}.
/// Nothing is recorded per branch-and-bound node or per LP: a solve's
/// `SolveStats` report those.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered the server (`detail` = obligations decomposed).
    RequestBegin = 0,
    /// A request completed (`dur_ns` = end-to-end wall clock, `detail` =
    /// obligations decomposed).
    RequestEnd = 1,
    /// An obligation was pushed into the work queue.
    Enqueue = 2,
    /// A worker picked the obligation up (`detail` = queue-wait ns).
    Dequeue = 3,
    /// The obligation was answered from the verdict cache, no solve.
    DedupHit = 4,
    /// A template instantiation (the build of one obligation's MILP) span.
    Instantiate = 5,
    /// The primary solve attempt span.
    SolveAttempt = 6,
    /// The escalated cold retry span after budget exhaustion.
    EscalatedRetry = 7,
    /// An obligation's final verdict (`detail` = a
    /// [`VerdictClass`] discriminant).
    Verdict = 8,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 9] = [
        EventKind::RequestBegin,
        EventKind::RequestEnd,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::DedupHit,
        EventKind::Instantiate,
        EventKind::SolveAttempt,
        EventKind::EscalatedRetry,
        EventKind::Verdict,
    ];

    /// Decodes a discriminant; `None` for unknown (e.g. torn) values.
    pub fn from_u8(value: u8) -> Option<EventKind> {
        EventKind::ALL.get(value as usize).copied()
    }

    /// Stable kebab-case name, used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestBegin => "request-begin",
            EventKind::RequestEnd => "request-end",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::DedupHit => "dedup-hit",
            EventKind::Instantiate => "instantiate",
            EventKind::SolveAttempt => "solve-attempt",
            EventKind::EscalatedRetry => "escalated-retry",
            EventKind::Verdict => "verdict",
        }
    }
}

/// Classification carried in the `detail` word of a
/// [`EventKind::Verdict`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VerdictClass {
    /// The obligation is safe.
    Safe = 0,
    /// A counterexample was found.
    Unsafe = 1,
    /// Unknown / degraded (see the per-failure-reason counters for why).
    Unknown = 2,
}

impl VerdictClass {
    /// Decodes a `detail` word; unknown values fold into
    /// [`VerdictClass::Unknown`].
    pub fn from_u64(value: u64) -> VerdictClass {
        match value {
            0 => VerdictClass::Safe,
            1 => VerdictClass::Unsafe,
            _ => VerdictClass::Unknown,
        }
    }
}

/// One recorded event, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Ring buffer (worker) the event was recorded on.
    pub worker: u16,
    /// Nanoseconds since the tracer's epoch (monotonic clock).
    pub at_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Request sequence number, or [`NO_REQUEST`].
    pub request: u64,
    /// Global obligation index, or [`NO_OBLIGATION`].
    pub obligation: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub detail: u64,
}

impl TraceEvent {
    /// An instantaneous event with no duration, untagged (the recording
    /// [`crate::TraceHandle`] fills in worker/request/obligation tags).
    pub fn instant(kind: EventKind, at_ns: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            kind,
            worker: 0,
            at_ns,
            dur_ns: 0,
            request: NO_REQUEST,
            obligation: NO_OBLIGATION,
            detail,
        }
    }

    /// A span starting at `at_ns` lasting `dur_ns`, untagged.
    pub fn span(kind: EventKind, at_ns: u64, dur_ns: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            dur_ns,
            ..TraceEvent::instant(kind, at_ns, detail)
        }
    }

    pub(crate) fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            u64::from(self.kind as u8) | (u64::from(self.worker) << 8),
            self.at_ns,
            self.dur_ns,
            self.request,
            self.obligation,
            self.detail,
        ]
    }

    /// Decodes a slot; `None` when the kind word is invalid (a torn or
    /// never-written slot).
    pub(crate) fn decode(words: &[u64; EVENT_WORDS]) -> Option<TraceEvent> {
        let kind = EventKind::from_u8((words[0] & 0xFF) as u8)?;
        Some(TraceEvent {
            kind,
            worker: ((words[0] >> 8) & 0xFFFF) as u16,
            at_ns: words[1],
            dur_ns: words[2],
            request: words[3],
            obligation: words[4],
            detail: words[5],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_discriminants_and_names() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
            // Names are unique, so an exported name identifies its kind.
            let by_name = EventKind::ALL.into_iter().find(|k| k.name() == kind.name());
            assert_eq!(by_name, Some(kind));
        }
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn events_round_trip_through_words() {
        let mut event = TraceEvent::span(EventKind::SolveAttempt, 123, 456, 1);
        event.worker = 7;
        event.request = 9;
        event.obligation = 31;
        assert_eq!(TraceEvent::decode(&event.encode()), Some(event));
        assert_eq!(TraceEvent::decode(&[0xFF, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn verdict_classes_fold_unknown_values() {
        assert_eq!(VerdictClass::from_u64(0), VerdictClass::Safe);
        assert_eq!(VerdictClass::from_u64(1), VerdictClass::Unsafe);
        assert_eq!(VerdictClass::from_u64(2), VerdictClass::Unknown);
        assert_eq!(VerdictClass::from_u64(99), VerdictClass::Unknown);
    }
}
