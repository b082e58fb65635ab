//! A bounded structured event ring: lifecycle notes and a slow-op log.
//!
//! Counters say *how much*; the ring says *what happened last*. It
//! keeps the most recent `capacity` events (joins, leaves, faults,
//! operations of at least [`SLOW_OP_NS`]) and drops the oldest —
//! bounded memory no matter how long the process runs. The
//! write path takes a short mutex, so it must only be reached for
//! *rare* events: hot paths compare against the threshold first and
//! build the detail string lazily.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (gaps mean the ring dropped events —
    /// it never does today, but readers should not assume density).
    pub seq: u64,
    /// Short machine-readable kind, e.g. `slow_batch`, `site_join`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Duration that triggered a slow-op entry, in nanoseconds
    /// (0 for lifecycle notes).
    pub nanos: u64,
}

#[derive(Debug, Default)]
struct Inner {
    events: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    capacity: usize,
}

/// A bounded, shareable event ring; cloning shares the buffer.
#[derive(Clone, Debug)]
pub struct EventRing {
    inner: Arc<Inner>,
}

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 128;

/// The slow-op threshold: an operation of at least 1 ms is logged.
pub const SLOW_OP_NS: u64 = 1_000_000;

impl Default for EventRing {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let inner = Inner {
            capacity: capacity.max(1),
            ..Inner::default()
        };
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Record a lifecycle note (always kept, regardless of threshold).
    pub fn note(&self, kind: &str, detail: impl Into<String>) {
        if crate::IS_NOOP {
            return;
        }
        self.push(kind, detail.into(), 0);
    }

    /// Record a timed operation *iff* it took at least [`SLOW_OP_NS`].
    /// The detail closure only runs (and allocates) past the gate, so
    /// this is a single compare on the fast path.
    #[inline]
    pub fn record_slow(&self, kind: &str, nanos: u64, detail: impl FnOnce() -> String) {
        if crate::IS_NOOP || nanos < SLOW_OP_NS {
            return;
        }
        self.push(kind, detail(), nanos);
    }

    fn push(&self, kind: &str, detail: String, nanos: u64) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut events = self.inner.events.lock().expect("event ring");
        if events.len() == self.inner.capacity {
            events.pop_front();
        }
        events.push_back(Event {
            seq,
            kind: kind.to_string(),
            detail,
            nanos,
        });
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner
            .events
            .lock()
            .expect("event ring")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.note("tick", format!("n{i}"));
        }
        let events = ring.snapshot();
        if crate::IS_NOOP {
            assert!(events.is_empty());
            return;
        }
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "n2");
        assert_eq!(events[2].detail, "n4");
        assert_eq!(events[2].seq, 4);
    }

    #[test]
    fn slow_op_gate_filters_and_defers_detail() {
        let ring = EventRing::new(8);
        let mut built = false;
        ring.record_slow("fast", SLOW_OP_NS - 1, || {
            built = true;
            "never".into()
        });
        assert!(!built, "detail built below threshold");
        ring.record_slow("slow", SLOW_OP_NS, || "at threshold".into());
        let events = ring.snapshot();
        if crate::IS_NOOP {
            assert!(events.is_empty());
        } else {
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].kind, "slow");
            assert_eq!(events[0].nanos, SLOW_OP_NS);
        }
    }
}
