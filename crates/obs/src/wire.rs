//! The wire layout of a [`TelemetrySnapshot`]: the payload behind the
//! engine's `Request::Telemetry` and the cluster's
//! `ClusterRequest::Telemetry` (`dds-proto`).
//!
//! A leading version word makes a future layout change a clean
//! `UnsupportedVersion` instead of a mis-parse. Histogram buckets
//! re-validate what the sender's sparse encoding guarantees (indices in
//! range, strictly increasing, counts non-zero), so a decoded snapshot
//! is safe to quantile-query without further checks.

use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter, Wire};
use dds_core::wire_record;

use crate::{
    Event, HistogramSnapshot, HistogramValue, MetricValue, TelemetrySnapshot, BUCKET_COUNT,
    TELEMETRY_VERSION,
};

wire_record! { MetricValue { name: String, labels: Vec<(String, String)>, value: u64 } }
wire_record! { HistogramValue { name: String, labels: Vec<(String, String)>, hist: HistogramSnapshot } }
wire_record! { Event { seq: u64, kind: String, detail: String, nanos: u64 } }

impl Wire for HistogramSnapshot {
    const MIN_BYTES: usize = 8 + 8 + 8 + 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.count);
        w.put(&self.sum);
        w.put(&self.max);
        w.put(&self.buckets);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let (count, sum, max) = r.get()?;
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        r.get_each(|(i, n): (u32, u64)| {
            if i as usize >= BUCKET_COUNT {
                return Err(CheckpointError::Corrupt("histogram bucket out of range"));
            }
            if buckets.last().is_some_and(|&(prev, _)| prev >= i) {
                return Err(CheckpointError::Corrupt("histogram buckets not ascending"));
            }
            if n == 0 {
                return Err(CheckpointError::Corrupt("histogram bucket count is zero"));
            }
            buckets.push((i, n));
            Ok(())
        })?;
        Ok(HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        })
    }
}

/// The version word, then counters, gauges, histograms and events. A
/// foreign version is refused before the body is read.
impl Wire for TelemetrySnapshot {
    const MIN_BYTES: usize = 4 + 4 * 4;

    fn put(&self, w: &mut StateWriter) {
        w.put(&self.version);
        w.put(&self.counters);
        w.put(&self.gauges);
        w.put(&self.histograms);
        w.put(&self.events);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let version: u32 = r.get()?;
        if version != TELEMETRY_VERSION {
            // Saturated, never wrapped: a wrapped 65 537 would read as
            // version 1, the version this build speaks.
            let reported = u16::try_from(version).unwrap_or(u16::MAX);
            return Err(CheckpointError::UnsupportedVersion(reported));
        }
        Ok(TelemetrySnapshot {
            version,
            counters: r.get()?,
            gauges: r.get()?,
            histograms: r.get()?,
            events: r.get()?,
        })
    }
}
