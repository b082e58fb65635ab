//! Per-shard operational metrics.
//!
//! Shard workers and ingest callers record into [`ShardMetrics`] — a
//! bundle of [`dds_obs`] handles (lock-free counters, gauges, and
//! histograms) registered under the engine's [`Registry`] with a
//! `shard` label, so the same counters feed both the historical
//! [`EngineMetrics`] tables and the wire-exposed telemetry snapshot.
//! [`Engine::metrics`] materializes [`ShardMetricsSnapshot`]s and wraps
//! them in an [`EngineMetrics`] for aggregate queries and table
//! rendering; [`Engine::telemetry`] exports the whole registry.
//!
//! [`Engine::metrics`]: crate::Engine::metrics
//! [`Engine::telemetry`]: crate::Engine::telemetry

use dds_obs::{Counter, EventRing, Gauge, Histogram, Registry};

/// Live (shared, lock-free) counters of one shard, as registered
/// handles: cloning a handle shares the cell, and the registry renders
/// the same cells into telemetry snapshots.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    /// Ingest batches processed by the worker.
    pub(crate) batches: Counter,
    /// Elements processed by the worker.
    pub(crate) elements: Counter,
    /// Snapshot queries answered (single-tenant and whole-shard alike).
    pub(crate) snapshots: Counter,
    /// Total caller-observed snapshot latency, nanoseconds.
    pub(crate) snapshot_nanos: Counter,
    /// Ingest sends that found the shard queue full and had to block.
    pub(crate) backpressure: Counter,
    /// Tenants currently hosted (gauge, maintained by the worker).
    pub(crate) tenants: Gauge,
    /// Explicit clock-advance commands processed by the worker.
    pub(crate) advances: Counter,
    /// Drained idle tenants parked as checkpoint blobs by
    /// [`Engine::advance`](crate::Engine::advance)-driven eviction.
    pub(crate) evictions: Counter,
    /// Summed length of the shard's parked blobs (gauge, maintained by
    /// the worker at park, rehydrate and restore).
    pub(crate) parked_blob_bytes: Gauge,
    /// Highest slot the shard has seen (gauge, maintained by the worker).
    pub(crate) watermark: Gauge,
    /// Commands queued (gauge, refreshed at snapshot/telemetry time).
    pub(crate) queue_depth: Gauge,
    /// Timestamped observations beyond the lateness horizon, counted
    /// and dropped (never silently re-stamped).
    pub(crate) late_dropped: Counter,
    /// `Engine::advance` calls with `now` below the shard watermark,
    /// refused as explicit no-ops.
    pub(crate) stale_advances: Counter,
    /// Self-driven expiry sweeps (watermark-stride crossings from
    /// timestamped ingest, no caller `advance` involved).
    pub(crate) sweeps: Counter,
    /// Late elements currently held in the reorder buffer (gauge,
    /// maintained by the worker).
    pub(crate) reorder_buffered: Gauge,
    /// Distribution of `watermark - slot` over timestamped ingest (how
    /// late data arrives, in slots; 0 for in-order).
    pub(crate) lateness_slots: Histogram,
    /// Elements per ingest batch.
    pub(crate) batch_elements: Histogram,
    /// Worker-side batch service time, nanoseconds.
    pub(crate) batch_nanos: Histogram,
    /// Queue-wait + service time per snapshot query, nanoseconds.
    pub(crate) snapshot_latency: Histogram,
    /// Worker-side clock-advance (expiry sweep) time, nanoseconds.
    pub(crate) advance_nanos: Histogram,
    /// The engine registry's slow-op / lifecycle event ring.
    pub(crate) events: EventRing,
}

impl ShardMetrics {
    /// Register one shard's handles under `registry`, labelled
    /// `shard=<idx>`.
    pub(crate) fn register(registry: &Registry, shard: usize) -> Self {
        let label: [(&str, String); 1] = [("shard", shard.to_string())];
        let labels: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        Self {
            batches: registry.counter_with("engine_batches_total", &labels),
            elements: registry.counter_with("engine_elements_total", &labels),
            snapshots: registry.counter_with("engine_snapshots_total", &labels),
            snapshot_nanos: registry.counter_with("engine_snapshot_nanos_total", &labels),
            backpressure: registry.counter_with("engine_backpressure_total", &labels),
            tenants: registry.gauge_with("engine_tenants", &labels),
            advances: registry.counter_with("engine_advances_total", &labels),
            evictions: registry.counter_with("engine_evictions_total", &labels),
            parked_blob_bytes: registry.gauge_with("engine_parked_blob_bytes", &labels),
            watermark: registry.gauge_with("engine_watermark_slot", &labels),
            queue_depth: registry.gauge_with("engine_queue_depth", &labels),
            late_dropped: registry.counter_with("engine_late_dropped_total", &labels),
            stale_advances: registry.counter_with("engine_stale_advances_total", &labels),
            sweeps: registry.counter_with("engine_expiry_sweeps_total", &labels),
            reorder_buffered: registry.gauge_with("engine_reorder_buffered", &labels),
            lateness_slots: registry.histogram_with("engine_lateness_slots", &labels),
            batch_elements: registry.histogram_with("engine_batch_elements", &labels),
            batch_nanos: registry.histogram_with("engine_batch_nanos", &labels),
            snapshot_latency: registry.histogram_with("engine_snapshot_nanos", &labels),
            advance_nanos: registry.histogram_with("engine_advance_nanos", &labels),
            events: registry.events().clone(),
        }
    }

    pub(crate) fn snapshot(&self, shard: usize, queue_depth: usize) -> ShardMetricsSnapshot {
        self.queue_depth.set(queue_depth as u64);
        ShardMetricsSnapshot {
            shard,
            batches: self.batches.get(),
            elements: self.elements.get(),
            snapshots: self.snapshots.get(),
            snapshot_nanos: self.snapshot_nanos.get(),
            backpressure: self.backpressure.get(),
            tenants: self.tenants.get() as usize,
            advances: self.advances.get(),
            evictions: self.evictions.get(),
            watermark: self.watermark.get(),
            queue_depth,
            late_dropped: self.late_dropped.get(),
            stale_advances: self.stale_advances.get(),
            sweeps: self.sweeps.get(),
            buffered: self.reorder_buffered.get() as usize,
        }
    }
}

/// Point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMetricsSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Ingest batches processed.
    pub batches: u64,
    /// Elements processed.
    pub elements: u64,
    /// Snapshot queries answered.
    pub snapshots: u64,
    /// Total caller-observed snapshot latency in nanoseconds.
    pub snapshot_nanos: u64,
    /// Ingest sends that hit a full queue and blocked.
    pub backpressure: u64,
    /// Tenants hosted when the snapshot was taken.
    pub tenants: usize,
    /// Explicit clock-advance commands processed.
    pub advances: u64,
    /// Drained idle tenants parked (evicted to checkpoint blobs).
    pub evictions: u64,
    /// Highest slot the shard had seen (0 for untimed workloads).
    pub watermark: u64,
    /// Commands queued when the snapshot was taken.
    pub queue_depth: usize,
    /// Timestamped observations dropped as beyond the lateness horizon.
    pub late_dropped: u64,
    /// Stale `advance` calls refused as explicit no-ops.
    pub stale_advances: u64,
    /// Self-driven expiry sweeps run from ingest-timestamp watermarks.
    pub sweeps: u64,
    /// Late elements held in the reorder buffer at snapshot time.
    pub buffered: usize,
}

// Fifteen words per shard on the wire; the counts are `u64`s too.
dds_core::wire_record! { ShardMetricsSnapshot {
    shard: usize, batches: u64, elements: u64, snapshots: u64, snapshot_nanos: u64,
    backpressure: u64, tenants: usize, advances: u64, evictions: u64, watermark: u64,
    queue_depth: usize, late_dropped: u64, stale_advances: u64, sweeps: u64, buffered: usize,
} }

impl ShardMetricsSnapshot {
    /// Mean snapshot round-trip latency in nanoseconds (0 before the
    /// first snapshot).
    #[must_use]
    pub fn mean_snapshot_latency_ns(&self) -> f64 {
        if self.snapshots == 0 {
            0.0
        } else {
            self.snapshot_nanos as f64 / self.snapshots as f64
        }
    }
}

/// All shards' snapshots, with aggregate accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineMetrics {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardMetricsSnapshot>,
}

dds_core::wire_record! { EngineMetrics { shards: Vec<ShardMetricsSnapshot> } }

impl EngineMetrics {
    /// Elements processed across all shards.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        self.shards.iter().map(|s| s.elements).sum()
    }

    /// Ingest batches processed across all shards.
    #[must_use]
    pub fn total_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Snapshot queries answered across all shards.
    #[must_use]
    pub fn total_snapshots(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshots).sum()
    }

    /// Full-queue (blocking) ingest sends across all shards.
    #[must_use]
    pub fn total_backpressure(&self) -> u64 {
        self.shards.iter().map(|s| s.backpressure).sum()
    }

    /// Tenants hosted across all shards.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.shards.iter().map(|s| s.tenants).sum()
    }

    /// Clock-advance commands processed across all shards.
    #[must_use]
    pub fn total_advances(&self) -> u64 {
        self.shards.iter().map(|s| s.advances).sum()
    }

    /// Drained idle tenants parked as checkpoint blobs across all shards.
    #[must_use]
    pub fn total_evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Late observations counted and dropped across all shards.
    #[must_use]
    pub fn total_late_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.late_dropped).sum()
    }

    /// Stale `advance` no-ops across all shards.
    #[must_use]
    pub fn total_stale_advances(&self) -> u64 {
        self.shards.iter().map(|s| s.stale_advances).sum()
    }

    /// Self-driven expiry sweeps across all shards.
    #[must_use]
    pub fn total_sweeps(&self) -> u64 {
        self.shards.iter().map(|s| s.sweeps).sum()
    }

    /// Late elements held in reorder buffers across all shards.
    #[must_use]
    pub fn total_buffered(&self) -> usize {
        self.shards.iter().map(|s| s.buffered).sum()
    }

    /// The engine-wide watermark: the highest slot any shard has seen.
    /// (Shards advance independently under timestamped ingest; after an
    /// [`Engine::advance`](crate::Engine::advance) + flush all shards
    /// agree.)
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.shards.iter().map(|s| s.watermark).max().unwrap_or(0)
    }

    /// Deepest per-shard command queue at snapshot time.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0)
    }

    /// Render an aligned per-shard table (for examples and logs).
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>9} {:>11} {:>8} {:>11} {:>13} {:>12} {:>10} {:>6} {:>6} {:>10}",
            "shard",
            "tenants",
            "elements",
            "batches",
            "snapshots",
            "mean-snap-us",
            "backpressure",
            "watermark",
            "late",
            "buffd",
            "queue"
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>11} {:>8} {:>11} {:>13.1} {:>12} {:>10} {:>6} {:>6} {:>10}",
                s.shard,
                s.tenants,
                s.elements,
                s.batches,
                s.snapshots,
                s.mean_snapshot_latency_ns() / 1_000.0,
                s.backpressure,
                s.watermark,
                s.late_dropped,
                s.buffered,
                s.queue_depth
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_aggregates() {
        let registry = Registry::new();
        let live = ShardMetrics::register(&registry, 0);
        live.batches.add(3);
        live.elements.add(300);
        live.snapshots.add(2);
        live.snapshot_nanos.add(4_000);
        live.backpressure.inc();
        live.tenants.set(7);
        live.advances.add(4);
        live.evictions.add(2);
        live.watermark.set(99);
        live.late_dropped.add(5);
        live.stale_advances.inc();
        live.sweeps.add(2);
        live.reorder_buffered.set(3);
        let snap = live.snapshot(0, 5);
        if dds_obs::IS_NOOP {
            return; // counters intentionally read 0 in measurement builds
        }
        assert_eq!(snap.queue_depth, 5);
        assert!((snap.mean_snapshot_latency_ns() - 2_000.0).abs() < 1e-9);

        let twin = ShardMetrics::register(&registry, 1);
        twin.batches.add(3);
        twin.elements.add(300);
        twin.snapshots.add(2);
        twin.backpressure.inc();
        twin.tenants.set(7);
        twin.advances.add(4);
        twin.evictions.add(2);
        let m = EngineMetrics {
            shards: vec![snap, twin.snapshot(1, 2)],
        };
        assert_eq!(m.total_elements(), 600);
        assert_eq!(m.total_batches(), 6);
        assert_eq!(m.total_snapshots(), 4);
        assert_eq!(m.total_backpressure(), 2);
        assert_eq!(m.tenants(), 14);
        assert_eq!(m.total_advances(), 8);
        assert_eq!(m.total_evictions(), 4);
        assert_eq!(m.watermark(), 99);
        assert_eq!(m.max_queue_depth(), 5);
        assert_eq!(m.total_late_dropped(), 5);
        assert_eq!(m.total_stale_advances(), 1);
        assert_eq!(m.total_sweeps(), 2);
        assert_eq!(m.total_buffered(), 3);
        let table = m.to_table();
        assert!(table.contains("backpressure"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn latency_mean_defined_before_first_snapshot() {
        let registry = Registry::new();
        let live = ShardMetrics::register(&registry, 0);
        assert_eq!(live.snapshot(0, 0).mean_snapshot_latency_ns(), 0.0);
    }

    #[test]
    fn registered_handles_feed_the_registry_snapshot() {
        let registry = Registry::new();
        let live = ShardMetrics::register(&registry, 3);
        live.elements.add(41);
        live.elements.inc();
        live.watermark.set(17);
        live.batch_elements.observe(10);
        let snap = registry.snapshot();
        if dds_obs::IS_NOOP {
            return;
        }
        assert_eq!(
            snap.counter_value("engine_elements_total", &[("shard", "3")]),
            Some(42)
        );
        assert_eq!(
            snap.gauge_value("engine_watermark_slot", &[("shard", "3")]),
            Some(17)
        );
        let hist = snap
            .histogram("engine_batch_elements", &[("shard", "3")])
            .expect("registered");
        assert_eq!(hist.hist.count, 1);
    }
}
