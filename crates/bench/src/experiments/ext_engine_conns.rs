//! Extension: the wire server under many connections — the gates for
//! the `dds-reactor` event loop.
//!
//! Three claims are measured and gated, writing
//! `BENCH_engine_conns.json` (CI greps its `gate` field):
//!
//! * **Wire ratio** — 16 producer threads ingest the same feed, in the
//!   same batches, once over 16 connections to the server and once by
//!   calling the in-process engine. Each producer makes one call per
//!   batch and sends the next once it returns; on the wire that is one
//!   acknowledged request per batch. The geometric mean over the batch
//!   sizes of wire over in-process throughput (best-of-runs on both
//!   sides, so scheduler noise cannot flip the gate) must reach
//!   `WIRE_FLOOR`. A loop that stalls each turn shows up here: the
//!   in-process side has no loop, and a producer waiting for its ack
//!   cannot hide the stall behind a pipelining window.
//! * **Byte-exactness** — the served engine's census equals the
//!   in-process twin's, and the clients' byte counters equal the
//!   server's: the wire adds no bytes it does not count and changes no
//!   sample.
//! * **Scale** — one listener holds the full connection sweep
//!   (16 → 4096) with every probed idle connection still answering,
//!   and the memory per idle connection is above zero and under
//!   `MEM_CEILING_BYTES` — connections cost buffers, not threads.
//!
//! The memory figure is the rise of the server's
//! `server_loop_conn_bytes` gauge across the idle crowd: the slab's
//! slots plus each connection's decoder, write and pending buffers,
//! counted by the loop itself. A resident-set delta cannot stand in for
//! it: the allocator hands pages freed by earlier runs to the crowd, and
//! such a delta read 0–161 B per connection. The crowd is raw
//! `TcpStream`s with no client-side buffering; only the probed
//! connection holds buffers. The gauge reads 0 in an `obs-noop` build,
//! which fails the gate: nothing was measured.

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
/// Full-scale elements per configuration. The floor keeps every timed
/// run at tens of milliseconds even at quick and test scale.
const TOTAL_BASE: u64 = 2_000_000;
const MIN_ELEMENTS: u64 = 384_000;
/// Producer threads in the wire-ratio comparison, and connections on
/// its wire side.
const PRODUCERS: usize = 16;
/// Floor on the geometric mean, over `BATCH_GRID`, of wire over
/// in-process ingest at `PRODUCERS` producers.
///
/// Ten alternating quick-scale runs on a 2-vCPU VM read 0.23–0.33 here
/// and 0.55–0.87 at the commit before engine queues moved to std
/// channels. Wire ingest was the same on both (0.9–1.4 M elem/s at
/// batch 16, 9–15 M at batch 256); the in-process producers were the
/// difference, 0.8–1.7 M elem/s at batch 16 on the old channels against
/// 3.6–6.9 M on std's. With the event loop sleeping 200 µs per turn the
/// ratio read 0.13–0.16. 0.18 sits below every run of both trees and
/// above every run of the stalled loop.
const WIRE_FLOOR: f64 = 0.18;
/// Fewest runs per side of the wire-ratio comparison (best of them
/// counts).
const RATIO_RUNS: u32 = 5;
/// Ceiling on the connection bytes per idle connection.
const MEM_CEILING_BYTES: f64 = 32.0 * 1024.0;
/// Connection sweep; the largest point also carries the memory gate.
const CONNS_GRID: [usize; 4] = [16, 256, 1024, 4096];
/// Producer batch sizes for the wire-ratio comparison.
const BATCH_GRID: [usize; 2] = [16, 256];
/// Batch capacity used for the connection sweep.
const SWEEP_BATCH: usize = 256;

struct Point {
    config: &'static str,
    conns: usize,
    batch: usize,
    elems_per_sec: f64,
}

/// One sweep point: the active client's rate plus the crowd's
/// liveness and memory.
struct SweepRun {
    eps: f64,
    /// Rise of `server_loop_conn_bytes` per idle connection.
    per_idle_bytes: Option<f64>,
    live_idle: usize,
}

/// Every hosted tenant's sample, ascending by tenant.
type Census = Vec<(TenantId, Vec<Element>)>;

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

/// The feed split into one share per producer, by tenant, so each
/// tenant's elements arrive in one producer's order on either
/// transport.
fn producer_shares(scale: &Scale, run: u32) -> Vec<Vec<(TenantId, Element)>> {
    let mut shares = vec![Vec::new(); PRODUCERS];
    for (t, e) in feed_for(scale, run) {
        shares[(t.0 % PRODUCERS as u64) as usize].push((t, e));
    }
    shares
}

fn spec(run: u32) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 23 + u64::from(run))
}

fn serve(run: u32) -> Server {
    let engine = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
    Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("benchmark server binds")
}

fn conn_bytes(server: &Server) -> Option<f64> {
    server
        .telemetry()
        .gauge_value("server_loop_conn_bytes", &[])
        .map(|b| b as f64)
}

/// One full protocol round trip on a raw socket proves the connection
/// is live end to end.
fn probe_live(stream: &mut TcpStream) -> bool {
    if stream.write_all(&Request::Metrics.encode()).is_err() {
        return false;
    }
    matches!(dds_proto::frame::read_frame(stream), Ok(Some(_)))
}

/// One timed run of the producers: each of `PRODUCERS` threads sends
/// its share of the feed through `send`, one `batch`-element call at a
/// time, then `settle` ends the timing. Returns elements per second.
fn time_producers(
    scale: &Scale,
    run: u32,
    batch: usize,
    send: impl Fn(usize, &[(TenantId, Element)]) + Sync,
    settle: impl FnOnce(),
) -> f64 {
    let shares = producer_shares(scale, run);
    let total: usize = shares.iter().map(Vec::len).sum();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (producer, share) in shares.iter().enumerate() {
            let send = &send;
            scope.spawn(move || share.chunks(batch).for_each(|chunk| send(producer, chunk)));
        }
    });
    settle();
    total as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// The producers calling the in-process engine; one flush ends the
/// timing. Returns the rate and the census.
fn in_process(batch: usize, scale: &Scale, run: u32) -> (f64, Census) {
    let engine = Engine::spawn(EngineConfig::new(spec(run)).with_shards(SHARDS));
    let eps = time_producers(
        scale,
        run,
        batch,
        |_, chunk| engine.observe_batch(chunk.iter().copied()),
        || engine.flush(),
    );
    let census = engine.snapshot_all();
    let _ = engine.shutdown();
    (eps, census)
}

/// The same producers over the wire, one connection each: every batch
/// is one request, answered before the producer sends the next, and one
/// flush after the last ends the timing. Returns the rate, the census,
/// and whether the clients and the server counted the same bytes.
fn over_the_wire(batch: usize, scale: &Scale, run: u32) -> (f64, Census, bool) {
    let server = serve(run);
    let addr = server.local_addr().expect("tcp endpoint");
    let clients: Vec<Client> = (0..PRODUCERS)
        .map(|_| Client::connect_tcp(addr).expect("benchmark client connects"))
        .collect();
    let eps = time_producers(
        scale,
        run,
        batch,
        |producer, chunk| {
            let request = Request::ObserveBatch {
                batch: chunk.to_vec(),
            };
            clients[producer]
                .call_remote(&request)
                .expect("wire ingest");
        },
        || clients[0].flush().expect("wire barrier"),
    );
    let census = clients[0].snapshot_all().expect("census over the wire");
    let sent: u64 = clients.iter().map(|c| c.stats().bytes_sent).sum();
    let received: u64 = clients.iter().map(|c| c.stats().bytes_received).sum();
    let served = server.stats();
    let _ = clients[0].shutdown_engine().expect("served engine stops");
    drop(clients);
    let _ = server.shutdown();
    let bytes_exact = sent == served.bytes_received && received == served.bytes_sent;
    (eps, census, bytes_exact)
}

/// One sweep point: `conns - 1` idle raw connections plus one active
/// pipelined client on the same listener.
fn measure(conns: usize, scale: &Scale) -> SweepRun {
    let feed = feed_for(scale, 0);
    let server = serve(0);
    let addr: SocketAddr = server.local_addr().expect("tcp endpoint");

    // The idle crowd first, with the connection-bytes gauge read around
    // it. Probing the last connection forces the accept backlog to
    // drain (accepts are FIFO), so the rise covers every installed
    // connection.
    let idle_count = conns.saturating_sub(1);
    let bytes_before = conn_bytes(&server);
    let mut idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let mut live_idle = 0;
    if let Some(last) = idle.last_mut() {
        assert!(probe_live(last), "last idle connection never accepted");
        live_idle += 1;
    }
    let per_idle_bytes = match (bytes_before, conn_bytes(&server)) {
        (Some(before), Some(after)) if idle_count > 0 => {
            Some((after - before).max(0.0) / idle_count as f64)
        }
        _ => None,
    };

    let client = Client::connect_tcp(addr)
        .expect("benchmark client connects")
        .with_batch_capacity(SWEEP_BATCH);
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
    drop(idle);
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
    SweepRun {
        eps,
        per_idle_bytes,
        live_idle,
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    scale: &Scale,
    points: &[Point],
    wire_ratio: f64,
    byte_exact: bool,
    max_live_conns: usize,
    per_idle_bytes: f64,
    gate: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-conns/v2\",");
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
        "  \"wire_ratio\": {{\"geomean\": {wire_ratio:.4}, \"floor\": {WIRE_FLOOR}, \
         \"producers\": {PRODUCERS}}},"
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

/// Run the wire-ratio comparison and the connection sweep; persist
/// `BENCH_engine_conns.json` with its pass/fail gate.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let mut points = Vec::new();

    // Phase 1 — wire vs in-process at 16 producers, per batch size.
    // Best-of-runs on both sides; run 0's census carries the exactness
    // comparison.
    let mut batch_ratios = Vec::new();
    let mut byte_exact = true;
    let mut batch_series: Vec<(&'static str, Series)> = vec![
        (
            "in-process",
            Series::new(format!("in-process @{PRODUCERS} producers")),
        ),
        ("wire", Series::new(format!("wire @{PRODUCERS} conns"))),
    ];
    for &batch in &BATCH_GRID {
        let mut best = [0.0f64; 2];
        for run in 0..scale.runs.max(RATIO_RUNS) {
            let (twin_eps, twin_census) = in_process(batch, scale, run);
            let (wire_eps, wire_census, bytes_exact) = over_the_wire(batch, scale, run);
            if run == 0 {
                byte_exact &= bytes_exact && wire_census == twin_census;
            }
            best[0] = best[0].max(twin_eps);
            best[1] = best[1].max(wire_eps);
        }
        batch_ratios.push(best[1] / best[0].max(1e-9));
        for (i, (name, series)) in batch_series.iter_mut().enumerate() {
            series.push(batch as f64, best[i]);
            points.push(Point {
                config: name,
                conns: PRODUCERS,
                batch,
                elems_per_sec: best[i],
            });
        }
    }

    // Phase 2 — the connection sweep; the largest point also carries
    // the memory and liveness gates.
    let mut max_live_conns = 0usize;
    let mut per_idle_bytes = 0.0f64;
    let mut conn_series = Series::new(format!("wire, batch {SWEEP_BATCH}"));
    for &conns in &CONNS_GRID {
        let measured = measure(conns, scale);
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
            config: "wire",
            conns,
            batch: SWEEP_BATCH,
            elems_per_sec: measured.eps,
        });
    }

    // Geometric mean: each batch size counts the same, whatever its
    // absolute rate.
    let wire_ratio =
        (batch_ratios.iter().map(|r| r.ln()).sum::<f64>() / batch_ratios.len() as f64).exp();
    let gate = if wire_ratio >= WIRE_FLOOR
        && byte_exact
        && max_live_conns >= 1024
        && per_idle_bytes > 0.0
        && per_idle_bytes <= MEM_CEILING_BYTES
    {
        "pass"
    } else {
        "fail"
    };

    let mut ratio_set = SeriesSet::new(
        format!(
            "Extension (engine, conns) [{}]: wire vs in-process ingest at {PRODUCERS} producers",
            scale.label
        ),
        "producer batch size",
        "elements / second",
    );
    for (_, series) in batch_series {
        ratio_set.push(series);
    }
    let mut sweep_set = SeriesSet::new(
        format!(
            "Extension (engine, conns) [{}]: wire ingest rate vs connection count",
            scale.label
        ),
        "concurrent connections",
        "elements / second",
    );
    sweep_set.push(conn_series);

    let json = to_json(
        scale,
        &points,
        wire_ratio,
        byte_exact,
        max_live_conns,
        per_idle_bytes,
        gate,
    );
    write_record(dir, "BENCH_engine_conns.json", &json);
    vec![ratio_set, sweep_set]
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
        assert_eq!(sets[0].series.len(), 2, "ratio: in-process + wire");
        assert_eq!(sets[1].series.len(), 1, "sweep: wire only");
        assert_eq!(sets[1].series[0].points.len(), CONNS_GRID.len());
        for series in sets.iter().flat_map(|s| &s.series) {
            assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        }
        let json = std::fs::read_to_string(dir.join("BENCH_engine_conns.json"))
            .expect("BENCH_engine_conns.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-conns/v2\""));
        // Exactness and scale must hold even at test scale; only the
        // timing-dependent wire ratio may flip the overall gate.
        assert!(json.contains("\"byte_exact\": true"), "twin drift:\n{json}");
        assert!(
            json.contains("\"max_live_conns\": 4096"),
            "crowd died:\n{json}"
        );
        assert!(
            !json.contains("\"per_idle_conn_bytes\": 0.0,"),
            "idle connections measured as free:\n{json}"
        );
        assert!(json.contains("\"gate\": \"pass\"") || json.contains("\"gate\": \"fail\""));
    }
}
