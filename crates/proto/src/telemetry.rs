//! The telemetry payload — a [`TelemetrySnapshot`] behind the engine's
//! `Request::Telemetry` and the cluster's `ClusterRequest::Telemetry`.
//!
//! The snapshot type lives in `dds-obs` (it is a plain value a registry
//! exports), and so does its `Wire` layout, beside the type: a leading
//! version word, so a future layout change is a clean
//! [`CheckpointError::UnsupportedVersion`] instead of a mis-parse
//! (a foreign version is reported saturated at `u16::MAX`, never
//! wrapped), then counters, gauges, histograms and events as `u32`
//! counted sequences of utf-8 strings and fixed-width words. Histogram
//! buckets additionally re-validate the invariants the sender's sparse
//! encoding guarantees (indices in range, strictly increasing), so a
//! decoded snapshot is safe to quantile-query without further checks.
//! This module pins that layout from the wire's side.

#[cfg(doc)]
use dds_core::checkpoint::CheckpointError;
#[cfg(doc)]
use dds_obs::TelemetrySnapshot;

#[cfg(test)]
mod tests {
    use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter};
    use dds_obs::{Event, Histogram, TelemetrySnapshot, BUCKET_COUNT};

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        snap.push_counter("engine_elements_total", &[("shard", "0")], 1_234);
        snap.push_counter("engine_elements_total", &[("shard", "1")], 5_678);
        snap.push_gauge("engine_queue_depth", &[("shard", "0")], 3);
        let h = Histogram::new();
        for v in [100u64, 2_000, 2_000, 9_999_999] {
            h.observe(v);
        }
        snap.push_histogram("engine_batch_nanos", &[], h.snapshot());
        snap.events.push(Event {
            seq: 7,
            kind: "slow_batch".into(),
            detail: "shard 2 took 4ms".into(),
            nanos: 4_000_000,
        });
        snap
    }

    fn encode(snap: &TelemetrySnapshot) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put(snap);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<TelemetrySnapshot, CheckpointError> {
        StateReader::new(bytes).get()
    }

    fn roundtrip(snap: &TelemetrySnapshot) -> Result<TelemetrySnapshot, CheckpointError> {
        let bytes = encode(snap);
        let mut r = StateReader::new(&bytes);
        let out = r.get()?;
        r.expect_end()?;
        Ok(out)
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        assert_eq!(roundtrip(&snap), Ok(snap));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = TelemetrySnapshot::new();
        assert_eq!(roundtrip(&snap), Ok(snap));
    }

    #[test]
    fn wrong_version_is_rejected_before_the_body() {
        let mut snap = sample();
        snap.version = 2;
        assert_eq!(
            decode(&encode(&snap)),
            Err(CheckpointError::UnsupportedVersion(2))
        );
        // A version past `u16::MAX` is reported saturated: wrapped, 65 537
        // would read as version 1, the one this build speaks.
        snap.version = 65_537;
        assert_eq!(
            decode(&encode(&snap)),
            Err(CheckpointError::UnsupportedVersion(u16::MAX))
        );
    }

    #[test]
    fn malformed_buckets_are_rejected() {
        let mut bad = sample();
        bad.histograms[0].hist.buckets = vec![(5, 1), (5, 1)];
        assert!(decode(&encode(&bad)).is_err());

        let mut bad = sample();
        bad.histograms[0].hist.buckets = vec![(BUCKET_COUNT as u32, 1)];
        assert!(decode(&encode(&bad)).is_err());
    }

    #[test]
    fn truncations_fail_cleanly() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            let verdict = r.get::<TelemetrySnapshot>().and_then(|s| {
                r.expect_end()?;
                Ok(s)
            });
            assert!(verdict.is_err(), "prefix {cut} accepted");
        }
    }
}
