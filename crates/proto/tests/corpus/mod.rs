//! A fixed corpus of every wire format: all 15 engine requests, all 8
//! responses and all 7 engine errors, the cluster frames a site and a
//! driver send (`SeqUp` for each `SiteUp` kind, `Done`, `Sync` with and
//! without an advance, `SiteBatch` with and without a slot start), a
//! `ClusterSpec` of each kind, one telemetry snapshot, and one `DDSC`
//! envelope of each sampler kind. Every value is built from constants,
//! so its bytes are the same on every run.

#![allow(dead_code)]

use dds_core::sampler::{DistinctSampler, SamplerKind, SamplerSpec};
use dds_engine::{
    EngineError, EngineMetrics, EngineReport, ShardMetricsSnapshot, TenantId, TenantView,
};
use dds_obs::{Event, Histogram, TelemetrySnapshot};
use dds_proto::cluster::{ClusterRequest, ClusterSpec, SiteUp};
use dds_proto::{Request, Response};
use dds_sim::{Element, Slot};

fn shard_metrics(shard: usize) -> ShardMetricsSnapshot {
    let w = shard as u64 * 100;
    ShardMetricsSnapshot {
        shard,
        batches: w + 1,
        elements: w + 2,
        snapshots: w + 3,
        snapshot_nanos: w + 4,
        backpressure: w + 5,
        tenants: shard + 6,
        advances: w + 7,
        evictions: w + 8,
        watermark: w + 9,
        queue_depth: shard + 10,
        late_dropped: w + 11,
        stale_advances: w + 12,
        sweeps: w + 13,
        buffered: shard + 14,
    }
}

fn metrics() -> EngineMetrics {
    EngineMetrics {
        shards: vec![shard_metrics(0), shard_metrics(1)],
    }
}

/// One registry snapshot with two counters, a gauge, a histogram and
/// an event.
pub fn telemetry() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    snap.push_counter("engine_elements_total", &[("shard", "0")], 1_234);
    snap.push_counter("engine_elements_total", &[("shard", "1")], 5_678);
    snap.push_gauge("engine_queue_depth", &[("shard", "0")], 3);
    let h = Histogram::new();
    for v in [100u64, 2_000, 2_000, 9_999_999] {
        h.observe(v);
    }
    snap.push_histogram("engine_batch_nanos", &[("shard", "1")], h.snapshot());
    snap.events.push(Event {
        seq: 7,
        kind: "slow_batch".into(),
        detail: "shard 2 took 4ms".into(),
        nanos: 4_000_000,
    });
    snap
}

/// Every `Request` variant, in opcode order.
pub fn requests() -> Vec<Request> {
    let batch = vec![(TenantId(3), Element(4)), (TenantId(5), Element(6))];
    vec![
        Request::Observe {
            tenant: TenantId(1),
            element: Element(2),
        },
        Request::ObserveAt {
            tenant: TenantId(1),
            element: Element(2),
            now: Slot(9),
        },
        Request::ObserveBatch {
            batch: batch.clone(),
        },
        Request::ObserveBatchAt {
            now: Slot(11),
            batch,
        },
        Request::Advance { now: Slot(12) },
        Request::Snapshot {
            tenant: TenantId(13),
        },
        Request::SnapshotAt {
            tenant: TenantId(14),
            now: Slot(15),
        },
        Request::SnapshotView {
            tenant: TenantId(16),
            at: Some(Slot(17)),
        },
        Request::SnapshotAll { at: None },
        Request::Flush,
        Request::Metrics,
        Request::Checkpoint,
        Request::Restore {
            document: vec![1, 2, 3, 4, 5],
        },
        Request::Shutdown,
        Request::Telemetry,
    ]
}

/// Every `Response` variant, in opcode order.
pub fn responses() -> Vec<Response> {
    vec![
        Response::Ack,
        Response::Sample {
            sample: vec![Element(1), Element(2), Element(3)],
        },
        Response::View {
            view: TenantView {
                sample: vec![Element(4)],
                memory_tuples: 5,
                protocol_messages: 6,
            },
        },
        Response::Census {
            tenants: vec![
                (TenantId(1), vec![Element(7), Element(8)]),
                (TenantId(2), Vec::new()),
            ],
        },
        Response::Metrics { metrics: metrics() },
        Response::CheckpointDocument {
            document: vec![9, 8, 7],
        },
        Response::Goodbye {
            report: EngineReport {
                metrics: metrics(),
                tenants_per_shard: vec![6, 7],
            },
        },
        Response::Telemetry {
            snapshot: telemetry(),
        },
    ]
}

/// Every `EngineError` variant, in tag order.
pub fn engine_errors() -> Vec<EngineError> {
    vec![
        EngineError::UnknownTenant(TenantId(404)),
        EngineError::ShutDown,
        EngineError::ShardDown(3),
        EngineError::Format("bad frame".into()),
        EngineError::Unsupported("no such verb".into()),
        EngineError::Transport("reset by peer".into()),
        EngineError::LateData {
            slot: Slot(2),
            watermark: Slot(9),
        },
    ]
}

/// The sequenced cluster frames: `SeqUp` of each `SiteUp` kind, `Done`,
/// `Sync` with and without an advance, `SiteBatch` with and without a
/// slot start.
pub fn cluster_requests() -> Vec<ClusterRequest> {
    let ups = [
        SiteUp::Infinite {
            element: Element(21),
        },
        SiteUp::Wr {
            copy: 2,
            element: Element(22),
        },
        SiteUp::Sliding {
            element: Element(23),
            expiry: Slot(24),
        },
        SiteUp::SlidingMulti {
            copy: 3,
            element: Element(25),
            expiry: Slot(26),
        },
    ];
    let mut out: Vec<ClusterRequest> = ups
        .into_iter()
        .enumerate()
        .map(|(i, up)| ClusterRequest::SeqUp {
            seq: 30 + i as u64,
            up,
        })
        .collect();
    out.extend([
        ClusterRequest::Done { through: 40 },
        ClusterRequest::Sync {
            through: 41,
            advance: Some((42, Slot(43))),
        },
        ClusterRequest::Sync {
            through: 44,
            advance: None,
        },
        ClusterRequest::SiteBatch {
            elements: vec![(45, Element(46)), (47, Element(48))],
            then_slot: Some((49, Slot(50))),
            through: 51,
        },
        ClusterRequest::SiteBatch {
            elements: vec![(52, Element(53))],
            then_slot: None,
            through: 54,
        },
    ]);
    out
}

/// A `ClusterSpec` of each of the four distributed kinds.
pub fn specs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 61), 4),
        ClusterSpec::new(SamplerSpec::new(SamplerKind::WithReplacement, 3, 62), 2),
        ClusterSpec::new(
            SamplerSpec::new(SamplerKind::Sliding { window: 16 }, 1, 63),
            3,
        ),
        ClusterSpec::new(
            SamplerSpec::new(SamplerKind::SlidingMulti { window: 8 }, 2, 64),
            5,
        ),
    ]
}

/// The five sampler specs whose envelopes the corpus holds.
pub fn sampler_specs() -> Vec<SamplerSpec> {
    vec![
        SamplerSpec::new(SamplerKind::Centralized, 4, 71),
        SamplerSpec::new(SamplerKind::Infinite, 4, 72),
        SamplerSpec::new(SamplerKind::WithReplacement, 3, 73),
        SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 74),
        SamplerSpec::new(SamplerKind::SlidingMulti { window: 4 }, 2, 75),
    ]
}

/// One `DDSC` envelope of each sampler kind, after a few slots of
/// ingest so every structure (samples, candidates, registries) holds
/// state.
pub fn envelopes() -> Vec<Vec<u8>> {
    sampler_specs()
        .into_iter()
        .map(|spec| {
            let mut sampler = spec.instance();
            for slot in 1..=3u64 {
                for e in 0..6u64 {
                    sampler.observe_at(Element(slot * 100 + e * 7), Slot(slot));
                }
            }
            let mut out = Vec::new();
            sampler.checkpoint(&mut out);
            out
        })
        .collect()
}
