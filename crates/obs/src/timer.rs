//! Span-style timers for hot paths.
//!
//! A [`SpanTimer`] is borrowed from a [`Histogram`]
//! via [`Histogram::start`](crate::Histogram::start) and records its
//! elapsed nanoseconds when dropped — so a hot path times itself with
//! one line and cannot forget to stop the clock on early returns.
//! Under `obs-noop` no clock is read at either end.

use std::time::Instant;

use crate::hist::Histogram;

/// Records elapsed nanoseconds into a histogram on drop.
///
/// ```
/// use dds_obs::Histogram;
///
/// let hist = Histogram::new();
/// {
///     let _span = hist.start();
///     // ... timed work ...
/// } // recorded here
/// ```
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
    done: bool,
}

impl<'a> SpanTimer<'a> {
    pub(crate) fn new(hist: &'a Histogram) -> Self {
        Self {
            hist,
            start: crate::maybe_now(),
            done: false,
        }
    }

    /// Stop now, record, and return the elapsed nanoseconds (0 under
    /// `obs-noop`) — for callers that also feed a slow-op log.
    #[must_use]
    pub fn stop(mut self) -> u64 {
        self.done = true;
        let nanos = crate::nanos_since(self.start);
        if self.start.is_some() {
            self.hist.observe(nanos);
        }
        nanos
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if !self.done {
            if let Some(start) = self.start {
                self.hist
                    .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }
}

/// Time a block against a histogram: `span!(hist, { work })` evaluates
/// the block while a [`SpanTimer`] is live and yields the block's value.
#[macro_export]
macro_rules! span {
    ($hist:expr, $body:expr) => {{
        let _obs_span = $hist.start();
        $body
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_records_exactly_once() {
        let hist = Histogram::new();
        {
            let _span = hist.start();
        }
        let via_stop = hist.start().stop();
        if crate::IS_NOOP {
            assert_eq!(hist.count(), 0);
            assert_eq!(via_stop, 0);
        } else {
            assert_eq!(hist.count(), 2);
        }
    }

    #[test]
    fn span_macro_yields_the_block_value() {
        let hist = Histogram::new();
        let v = crate::span!(hist, 6 * 7);
        assert_eq!(v, 42);
        if !crate::IS_NOOP {
            assert_eq!(hist.count(), 1);
        }
    }
}
