//! Observability core for the distinct-sampling stack.
//!
//! The paper's headline claims are about *costs* — expected message
//! complexity (Lemma 4) and per-site memory — and the rest of this
//! workspace proves them offline. This crate makes those numbers
//! first-class *runtime* signals: every layer (engine shards, the wire
//! server, cluster sites and coordinator) records into the primitives
//! here, and a point-in-time [`TelemetrySnapshot`] travels over the
//! existing DDSP frame so a client can read them live.
//!
//! Design rules, in order:
//!
//! 1. **Hot paths never lock.** [`Counter`] and [`Gauge`] are single
//!    relaxed atomics; [`Histogram`] is a fixed array of relaxed
//!    atomics. Handles are `Arc`-clones, so recorders share cells
//!    without going back to the [`Registry`].
//! 2. **No external dependencies.** This crate uses `std` and
//!    `dds-core`, whose `Wire` codec lays a snapshot out on the wire
//!    (the impls sit here, beside the types). Every serving crate
//!    already depends on `dds-core`, so this one sits under all of them
//!    without widening the build graph.
//! 3. **Measurably cheap.** With the `obs-noop` feature every record
//!    call (and every clock read behind [`maybe_now`], which with
//!    [`nanos_since`] times every span) compiles to a no-op; the
//!    `ext_obs_overhead` experiment pins the instrumented build within
//!    10% of that baseline.
//!
//! ```
//! use dds_obs::Registry;
//!
//! let registry = Registry::new();
//! let ingested = registry.counter_with("engine_elements_total", &[("shard", "0")]);
//! let latency = registry.histogram("engine_batch_nanos");
//! ingested.add(128);
//! latency.observe(12_500);
//! let snapshot = registry.snapshot();
//! // (reads back 0 when the `obs-noop` measurement build is active)
//! assert!(snapshot.counter_total("engine_elements_total") == 128 || dds_obs::IS_NOOP);
//! println!("{}", snapshot.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod metric;
pub mod registry;
pub mod snapshot;
mod wire;

pub use events::{Event, EventRing};
pub use hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
    BUCKET_COUNT,
};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{HistogramValue, MetricValue, TelemetrySnapshot, TELEMETRY_VERSION};

/// True when this build compiled instrumentation to no-ops (`obs-noop`).
pub const IS_NOOP: bool = cfg!(feature = "obs-noop");

/// A clock read that the `obs-noop` build skips entirely.
///
/// Instrumented code paths time a span by pairing this with
/// [`nanos_since`] and recording the result; under `obs-noop` no
/// syscall/vDSO read happens at all.
#[inline]
#[must_use]
pub fn maybe_now() -> Option<std::time::Instant> {
    if IS_NOOP {
        None
    } else {
        Some(std::time::Instant::now())
    }
}

/// Nanoseconds elapsed since a [`maybe_now`] read (0 under `obs-noop`).
#[inline]
#[must_use]
pub fn nanos_since(start: Option<std::time::Instant>) -> u64 {
    match start {
        Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_helpers_pair_up() {
        let t = maybe_now();
        if IS_NOOP {
            assert!(t.is_none());
            assert_eq!(nanos_since(t), 0);
        } else {
            assert!(t.is_some());
            // Monotonic clocks never run backwards; any reading is fine.
            let _ = nanos_since(t);
        }
    }
}
