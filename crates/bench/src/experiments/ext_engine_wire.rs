//! Extension: wire-transport cost of the served engine — loopback
//! requests per second and bytes per observation, swept over the
//! client's batch capacity and compared against in-process ingest of
//! the identical feed.
//!
//! Each configuration materializes one [`MultiTenantStream`] feed, then
//! drives it three ways:
//!
//! * **in-process** — `Engine::observe_batch` in `batch`-sized chunks
//!   (the PR 2 baseline shape);
//! * **tcp loopback** — a real `dds-server` accept loop on
//!   `127.0.0.1`, a `Client` with `with_batch_capacity(batch)`
//!   (pipelined ingest frames, one flush barrier at the end);
//!
//! and records durable elements per second for both, plus the wire's
//! exact bytes per observation (`client.bytes_sent / elements`,
//! frame overhead included — the number the `dds-proto` frame layout
//! table predicts). Every wire run is verified against an in-process
//! twin fed the same stream — a probe subset of snapshots must agree
//! exactly — so the throughput numbers can never drift away from
//! correctness. A machine-readable `BENCH_engine_wire.json` is written
//! next to the CSVs (`schema` field versions the format).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::EngineHost;
use dds_server::{Client, Server};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Element;

use crate::output::write_record;
use crate::Scale;

const SHARDS: usize = 4;
const TENANTS: u64 = 200;
const SAMPLE_SIZE: usize = 8;
/// Full-scale elements per configuration (divided by the scale
/// divisor, floored so batching still has something to amortize).
const TOTAL_BASE: u64 = 400_000;

/// One measured configuration, destined for `BENCH_engine_wire.json`.
struct Point {
    transport: &'static str,
    batch: usize,
    elements: u64,
    elems_per_sec: f64,
    /// Wire bytes per observation (0 for in-process — no wire).
    bytes_per_observe: f64,
}

fn feed_for(scale: &Scale, run: u32) -> Vec<(TenantId, Element)> {
    let total = (TOTAL_BASE / scale.divisor).max(TENANTS * 10);
    let per_tenant = TraceProfile {
        name: "engine-wire-sweep",
        total: (total / TENANTS).max(1),
        distinct: ((total / TENANTS) / 2).max(1),
    };
    MultiTenantStream::new(TENANTS, per_tenant, 2_000 + u64::from(run))
        .map(|(t, e)| (TenantId(t), e))
        .collect()
}

fn spec(run: u32) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 17 + u64::from(run))
}

/// Durable in-process ingest of `feed` in `batch`-sized chunks.
fn measure_in_process(scale: &Scale, batch: usize) -> Point {
    let mut rate_sum = 0.0;
    let mut elements = 0;
    for run in 0..scale.runs {
        let feed = feed_for(scale, run);
        elements = feed.len() as u64;
        let engine = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
        let started = Instant::now();
        for chunk in feed.chunks(batch) {
            engine.observe_batch(chunk.iter().copied());
        }
        engine.flush();
        rate_sum += elements as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let _ = engine.shutdown();
    }
    Point {
        transport: "in_process",
        batch,
        elements,
        elems_per_sec: rate_sum / f64::from(scale.runs),
        bytes_per_observe: 0.0,
    }
}

/// Durable TCP-loopback ingest of `feed` through a `Client` with
/// `batch`-element client-side batching, verified against an
/// in-process twin.
fn measure_wire(scale: &Scale, batch: usize) -> Point {
    let mut rate_sum = 0.0;
    let mut bytes_sum = 0.0;
    let mut elements = 0;
    for run in 0..scale.runs {
        let feed = feed_for(scale, run);
        elements = feed.len() as u64;

        let engine = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
        let server = Server::bind_tcp("127.0.0.1:0", Arc::new(EngineHost::new(engine)))
            .expect("benchmark server binds");
        let addr = server.local_addr().expect("tcp endpoint");
        let client = Client::connect_tcp(addr)
            .expect("benchmark client connects")
            .with_batch_capacity(batch);

        let started = Instant::now();
        for &(t, e) in &feed {
            client.observe(t, e).expect("wire ingest");
        }
        client.flush().expect("wire barrier");
        rate_sum += elements as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let stats = client.stats();
        bytes_sum += stats.bytes_sent as f64 / elements as f64;

        // Wire numbers are only meaningful if the served samples are
        // right: twin-check a probe subset.
        let twin = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
        twin.observe_batch(feed.iter().copied());
        twin.flush();
        for t in (0..TENANTS).step_by(16) {
            assert_eq!(
                client.snapshot(TenantId(t)).expect("tenant hosted"),
                twin.snapshot(TenantId(t)).expect("twin hosts"),
                "wire-served tenant {t} diverged from in-process twin"
            );
        }
        let _ = twin.shutdown();
        let _ = client.shutdown_engine().expect("served engine stops");
        let _ = server.shutdown();
    }
    Point {
        transport: "tcp",
        batch,
        elements,
        elems_per_sec: rate_sum / f64::from(scale.runs),
        bytes_per_observe: bytes_sum / f64::from(scale.runs),
    }
}

/// Render the measurement records as a stable, dependency-free JSON
/// document (`BENCH_engine_wire.json`).
fn to_json(scale: &Scale, points: &[Point]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-wire/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"shards\": {SHARDS},");
    let _ = writeln!(out, "  \"tenants\": {TENANTS},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"transport\": \"{}\", \"batch\": {}, \"elements\": {}, \
             \"elems_per_sec\": {:.1}, \"bytes_per_observe\": {:.2}}}{comma}",
            p.transport, p.batch, p.elements, p.elems_per_sec, p.bytes_per_observe
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the wire-vs-in-process sweep and persist
/// `BENCH_engine_wire.json`.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let batch_grid = [1usize, 16, 256, 1024];
    let mut points = Vec::new();
    let mut rate_set = SeriesSet::new(
        format!(
            "Extension (engine, wire) [{}]: durable ingest rate vs client batch",
            scale.label
        ),
        "client batch capacity",
        "elements / second",
    );
    let mut cost_set = SeriesSet::new(
        format!(
            "Extension (engine, wire) [{}]: wire cost vs client batch",
            scale.label
        ),
        "client batch capacity",
        "bytes / observation",
    );
    let mut in_process = Series::new("in-process".to_string());
    let mut tcp = Series::new("tcp loopback".to_string());
    let mut cost = Series::new("tcp loopback".to_string());
    for &batch in &batch_grid {
        let p = measure_in_process(scale, batch);
        in_process.push(batch as f64, p.elems_per_sec);
        points.push(p);
        let p = measure_wire(scale, batch);
        tcp.push(batch as f64, p.elems_per_sec);
        cost.push(batch as f64, p.bytes_per_observe);
        points.push(p);
    }
    rate_set.push(in_process);
    rate_set.push(tcp);
    cost_set.push(cost);
    write_record(dir, "BENCH_engine_wire.json", &to_json(scale, &points));
    vec![rate_set, cost_set]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::test_dir;

    fn tiny() -> Scale {
        Scale {
            divisor: 2_000,
            runs: 1,
            label: "test",
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_json_is_wellformed() {
        let dir = test_dir("ext_engine_wire");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].series.len(), 2, "rate: in-process + tcp");
        assert_eq!(sets[1].series.len(), 1, "cost: tcp only");
        for series in sets.iter().flat_map(|s| &s.series) {
            assert_eq!(series.points.len(), 4);
            assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        }
        // Batching must amortize the wire cost monotonically enough
        // that the extremes are ordered.
        let cost = &sets[1].series[0].points;
        assert!(
            cost[0].1 > cost[cost.len() - 1].1,
            "batch 1 should cost more bytes/observe than batch 1024"
        );
        let json = std::fs::read_to_string(dir.join("BENCH_engine_wire.json"))
            .expect("BENCH_engine_wire.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-wire/v1\""));
        assert_eq!(json.matches("\"transport\"").count(), 8);
        assert!(!json.contains(",\n  ]"), "trailing comma in results");
    }
}
