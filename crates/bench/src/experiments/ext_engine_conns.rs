//! Extension: the evented server under many connections — the
//! tentpole gates for the `dds-reactor` rearchitecture.
//!
//! Three claims are measured and gated, writing
//! `BENCH_engine_conns.json` (CI greps its `gate` field):
//!
//! * **Parity** — at 16 connections the evented server's pipelined
//!   ingest throughput is ≥ [`PARITY_FLOOR`]× the threaded server's on
//!   the identical workload (best-of-runs on both sides so scheduler
//!   noise cannot flip the gate).
//! * **Byte-exactness** — on the same feed the two server modes
//!   produce identical client byte counters and identical probe
//!   snapshots: the event loop is a transparent transport swap.
//! * **Scale** — one evented listener holds the full connection sweep
//!   (16 → 4096) with every probed idle connection still answering,
//!   and the resident-set growth per idle connection stays under
//!   [`MEM_CEILING_BYTES`] — connections cost buffers, not threads.
//!
//! The idle crowd is raw `TcpStream`s (no client-side buffering), so
//! the per-connection memory delta is dominated by the server side:
//! one registered fd, one slab slot, empty decode/write buffers. The
//! delta also absorbs engine growth from the probe requests, which is
//! why the ceiling is generous rather than tight.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::{EngineHost, Request};
use dds_server::{Client, Server, ServerConfig};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Element;

use crate::output::write_record;
use crate::Scale;

const SHARDS: usize = 2;
const TENANTS: u64 = 64;
const SAMPLE_SIZE: usize = 8;
/// Full-scale elements per configuration. The floor keeps the parity
/// timing window wide enough to gate on even at test scale.
const TOTAL_BASE: u64 = 2_000_000;
const MIN_ELEMENTS: u64 = 24_000;
/// Evented throughput must reach this fraction of threaded at 16
/// connections.
const PARITY_FLOOR: f64 = 0.9;
/// Resident-set ceiling per idle connection on the evented server.
const MEM_CEILING_BYTES: f64 = 32.0 * 1024.0;
/// Connection sweep; the largest point also carries the memory gate.
const CONNS_GRID: [usize; 4] = [16, 256, 1024, 4096];
/// Client batch capacities for the parity comparison at 16 conns.
const BATCH_GRID: [usize; 2] = [16, 256];
/// Batch capacity used for the connection sweep.
const SWEEP_BATCH: usize = 256;

struct Point {
    config: &'static str,
    conns: usize,
    batch: usize,
    elems_per_sec: f64,
}

/// One measured wire run: rate plus the exactness artifacts.
struct WireRun {
    eps: f64,
    bytes_sent: u64,
    bytes_received: u64,
    probes: Vec<Vec<Element>>,
    /// Resident-set growth per idle connection (None off-Linux).
    per_idle_bytes: Option<f64>,
    live_idle: usize,
}

fn feed_for(scale: &Scale, run: u32) -> Vec<(TenantId, Element)> {
    let total = (TOTAL_BASE / scale.divisor).max(MIN_ELEMENTS);
    let per_tenant = TraceProfile {
        name: "engine-conns-sweep",
        total: (total / TENANTS).max(1),
        distinct: ((total / TENANTS) / 2).max(1),
    };
    MultiTenantStream::new(TENANTS, per_tenant, 9_000 + u64::from(run))
        .map(|(t, e)| (TenantId(t), e))
        .collect()
}

fn spec(run: u32) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 23 + u64::from(run))
}

fn rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb * 1024.0)
}

/// One full protocol round trip on a raw socket proves the connection
/// is live end to end.
fn probe_live(stream: &mut TcpStream) -> bool {
    if stream.write_all(&Request::Metrics.encode()).is_err() {
        return false;
    }
    matches!(dds_proto::frame::read_frame(stream), Ok(Some(_)))
}

/// Drive one configuration: `conns - 1` idle raw connections plus one
/// active pipelined client on the same listener.
fn measure(config: ServerConfig, conns: usize, batch: usize, scale: &Scale, run: u32) -> WireRun {
    let feed = feed_for(scale, run);
    let engine = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
    let server = Server::bind_tcp_with("127.0.0.1:0", Arc::new(EngineHost::new(engine)), config)
        .expect("benchmark server binds");
    let addr: SocketAddr = server.local_addr().expect("tcp endpoint");

    // The idle crowd first, with RSS sampled around it. Probing the
    // last connection forces the accept backlog to drain (accepts are
    // FIFO), so the delta covers every installed connection.
    let idle_count = conns.saturating_sub(1);
    let rss_before = rss_bytes();
    let mut idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let mut live_idle = 0;
    if let Some(last) = idle.last_mut() {
        assert!(probe_live(last), "last idle connection never accepted");
        live_idle += 1;
    }
    let per_idle_bytes = match (rss_before, rss_bytes()) {
        (Some(before), Some(after)) if idle_count > 0 => {
            Some(((after - before).max(0.0)) / idle_count as f64)
        }
        _ => None,
    };

    let client = Client::connect_tcp(addr)
        .expect("benchmark client connects")
        .with_batch_capacity(batch);
    let started = Instant::now();
    for &(t, e) in &feed {
        client.observe(t, e).expect("wire ingest");
    }
    client.flush().expect("wire barrier");
    let eps = feed.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);

    // Interleaved liveness: a sample of the idle crowd (and always the
    // first) still answers after the active connection's burst.
    for (i, stream) in idle.iter_mut().enumerate() {
        if i % 128 == 0 {
            assert!(probe_live(stream), "idle connection {i} died under load");
            live_idle += 1;
        }
    }

    let probes: Vec<Vec<Element>> = (0..TENANTS)
        .step_by(16)
        .map(|t| client.snapshot(TenantId(t)).expect("tenant hosted"))
        .collect();
    let stats = client.stats();
    drop(idle);
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
    WireRun {
        eps,
        bytes_sent: stats.bytes_sent,
        bytes_received: stats.bytes_received,
        probes,
        per_idle_bytes,
        live_idle,
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    scale: &Scale,
    points: &[Point],
    parity_ratio: f64,
    byte_exact: bool,
    max_live_conns: usize,
    per_idle_bytes: f64,
    gate: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-conns/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"shards\": {SHARDS}, \"tenants\": {TENANTS},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"config\": \"{}\", \"conns\": {}, \"batch\": {}, \
             \"elems_per_sec\": {:.1}}}{comma}",
            p.config, p.conns, p.batch, p.elems_per_sec
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"parity\": {{\"ratio\": {parity_ratio:.4}, \"floor\": {PARITY_FLOOR}}},"
    );
    let _ = writeln!(out, "  \"byte_exact\": {byte_exact},");
    let _ = writeln!(out, "  \"max_live_conns\": {max_live_conns},");
    let _ = writeln!(
        out,
        "  \"per_idle_conn_bytes\": {per_idle_bytes:.1}, \"mem_ceiling_bytes\": {MEM_CEILING_BYTES},"
    );
    let _ = writeln!(out, "  \"gate\": \"{gate}\"");
    out.push_str("}\n");
    out
}

/// Run the connection sweep and parity comparison; persist
/// `BENCH_engine_conns.json` with its pass/fail gate.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let mut points = Vec::new();

    // Phase 1 — parity + byte-exactness at 16 connections, per batch.
    // Best-of-runs on both sides; run 0's artifacts (same seeded feed)
    // carry the exactness comparison.
    let mut parity_ratio = f64::INFINITY;
    let mut byte_exact = true;
    let mut batch_series: Vec<(&'static str, Series)> = vec![
        ("threaded", Series::new("threaded @16 conns".to_string())),
        ("evented", Series::new("evented @16 conns".to_string())),
    ];
    for &batch in &BATCH_GRID {
        let mut best = [0.0f64; 2];
        let mut first: [Option<WireRun>; 2] = [None, None];
        for run in 0..scale.runs.max(2) {
            let configs = [ServerConfig::Threaded, ServerConfig::Evented { workers: 1 }];
            for (i, config) in configs.into_iter().enumerate() {
                let measured = measure(config, 16, batch, scale, run);
                best[i] = best[i].max(measured.eps);
                if run == 0 {
                    first[i] = Some(measured);
                }
            }
        }
        let threaded = first[0].take().expect("threaded run 0");
        let evented = first[1].take().expect("evented run 0");
        byte_exact &= threaded.bytes_sent == evented.bytes_sent
            && threaded.bytes_received == evented.bytes_received
            && threaded.probes == evented.probes;
        parity_ratio = parity_ratio.min(best[1] / best[0].max(1e-9));
        for (i, (name, series)) in batch_series.iter_mut().enumerate() {
            series.push(batch as f64, best[i]);
            points.push(Point {
                config: name,
                conns: 16,
                batch,
                elems_per_sec: best[i],
            });
        }
    }

    // Phase 2 — the evented connection sweep; the largest point also
    // carries the memory and liveness gates.
    let mut max_live_conns = 0usize;
    let mut per_idle_bytes = 0.0f64;
    let mut conn_series = Series::new(format!("evented, batch {SWEEP_BATCH}"));
    for &conns in &CONNS_GRID {
        let measured = measure(
            ServerConfig::Evented { workers: 1 },
            conns,
            SWEEP_BATCH,
            scale,
            0,
        );
        // Probes answered on a crowd of `conns` total sockets: the
        // whole listener population was live at once.
        if measured.live_idle > 0 {
            max_live_conns = max_live_conns.max(conns);
        }
        if conns == *CONNS_GRID.iter().max().expect("non-empty grid") {
            per_idle_bytes = measured.per_idle_bytes.unwrap_or(0.0);
        }
        conn_series.push(conns as f64, measured.eps);
        points.push(Point {
            config: "evented",
            conns,
            batch: SWEEP_BATCH,
            elems_per_sec: measured.eps,
        });
    }

    let gate = if parity_ratio >= PARITY_FLOOR
        && byte_exact
        && max_live_conns >= 1024
        && per_idle_bytes <= MEM_CEILING_BYTES
    {
        "pass"
    } else {
        "fail"
    };

    let mut parity_set = SeriesSet::new(
        format!(
            "Extension (engine, conns) [{}]: threaded vs evented ingest at 16 connections",
            scale.label
        ),
        "client batch capacity",
        "elements / second",
    );
    for (_, series) in batch_series {
        parity_set.push(series);
    }
    let mut sweep_set = SeriesSet::new(
        format!(
            "Extension (engine, conns) [{}]: evented ingest rate vs connection count",
            scale.label
        ),
        "concurrent connections",
        "elements / second",
    );
    sweep_set.push(conn_series);

    let json = to_json(
        scale,
        &points,
        parity_ratio,
        byte_exact,
        max_live_conns,
        per_idle_bytes,
        gate,
    );
    write_record(dir, "BENCH_engine_conns.json", &json);
    vec![parity_set, sweep_set]
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
    fn sweep_gates_exactness_and_writes_the_record() {
        let dir = test_dir("ext_engine_conns");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].series.len(), 2, "parity: threaded + evented");
        assert_eq!(sets[1].series.len(), 1, "sweep: evented only");
        assert_eq!(sets[1].series[0].points.len(), CONNS_GRID.len());
        for series in sets.iter().flat_map(|s| &s.series) {
            assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        }
        let json = std::fs::read_to_string(dir.join("BENCH_engine_conns.json"))
            .expect("BENCH_engine_conns.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-conns/v1\""));
        // Exactness and scale must hold even at test scale; only the
        // timing-dependent parity ratio may flip the overall gate.
        assert!(json.contains("\"byte_exact\": true"), "twin drift:\n{json}");
        assert!(
            json.contains("\"max_live_conns\": 4096"),
            "crowd died:\n{json}"
        );
        assert!(json.contains("\"gate\": \"pass\"") || json.contains("\"gate\": \"fail\""));
    }
}
