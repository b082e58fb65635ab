//! `wire_serve`: writes beside reads on the service as deployed.
//!
//! An evented server (one worker) hosts a 2-shard engine of `Infinite`
//! samplers (s = 8). One connection sends pipelined 64-element batches
//! in a closed loop; a second connection asks for Zipf-drawn tenants'
//! snapshots at a fixed 100/s, each timed from when it was due.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::Zipf;
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_hash::splitmix::SplitMix64;
use dds_proto::message::Request;
use dds_proto::{EngineHost, EngineService};
use dds_server::{Client, Server, ServerConfig};

use crate::feed::{zipf_pairs, BatchFeed};
use crate::stats::{self, merged_histogram, ratio, Schedule, Throughput, WindowedLatencies};
use crate::trace::{SpanSet, Tracer};
use crate::{layers, Config, Metrics, Ops, Report};

const SHARDS: usize = 2;
const S: usize = 8;
const BATCH: usize = 64;
/// Every n-th traced query also samples the engine's queue depths.
const DEPTH_EVERY: u64 = 10;

struct Params {
    tenants: u64,
    cycle: usize,
    warm_batches: u64,
    setups: usize,
    hot: u64,
    random: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            tenants: 500,
            cycle: 1 << 14,
            warm_batches: 32,
            setups: 3,
            hot: 16,
            random: 16,
        }
    } else {
        Params {
            tenants: 20_000,
            cycle: 1 << 20,
            warm_batches: 1_024,
            setups: 25,
            hot: 16,
            random: 64,
        }
    }
}

fn spec(seed: u64) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, S, seed)
}

fn engine_config(spec: SamplerSpec) -> EngineConfig {
    EngineConfig::new(spec).with_shards(SHARDS)
}

/// The deployed system: server, ingest connection, query connection.
struct System {
    server: Server,
    ingest: Client,
    query: Client,
}

impl System {
    fn start(spec: SamplerSpec) -> Result<System, String> {
        let engine = Engine::spawn(engine_config(spec));
        let host: Arc<dyn EngineService> = Arc::new(EngineHost::new(engine));
        let server =
            Server::bind_tcp_with("127.0.0.1:0", host, ServerConfig::Evented { workers: 1 })
                .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("server has no TCP address")?;
        let ingest = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        let query = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(System {
            server,
            ingest,
            query,
        })
    }

    fn stop(self) -> Result<(), String> {
        let down = self.ingest.shutdown_engine();
        drop(self.ingest);
        drop(self.query);
        self.server.shutdown();
        down.map(|_| ())
            .map_err(|e| format!("engine shutdown: {e}"))
    }
}

/// What one measured phase saw.
struct Phase {
    elements: u64,
    throughput: Throughput,
    wall: Duration,
    flush: Duration,
    next_batch: u64,
    ops: Ops,
    queries: WindowedLatencies,
    lags: WindowedLatencies,
    acks_pending: Vec<u64>,
    queue_depths: Vec<u64>,
    ingest_trace: Tracer,
    query_trace: Tracer,
}

fn phase(
    sys: &System,
    feed: &BatchFeed,
    queries: &[TenantId],
    first_batch: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tr = Tracer::new(traced, epoch);
            let mut ops = Ops::default();
            let mut lat = WindowedLatencies::default();
            let mut lags = WindowedLatencies::default();
            let mut depths = Vec::new();
            let mut sched = Schedule::new(t0, crate::READ_RATE);
            let mut k = 0u64;
            while sched.peek() < deadline {
                let due = sched.take();
                stats::sleep_until(due);
                lags.push(t0, due, Some(due.elapsed()));
                let tenant = queries[k as usize % queries.len()];
                tr.enter("gen.query", k);
                let r = tr.span("client.snapshot", k, || sys.query.snapshot(tenant));
                let done = ops.count(r).map(|_| due.elapsed());
                lat.push(t0, due, done);
                if traced && k.is_multiple_of(DEPTH_EVERY) {
                    let m = tr.span("client.metrics", k, || sys.query.metrics());
                    if let Some(m) = ops.count(m) {
                        depths.push(m.shards.iter().map(|s| s.queue_depth as u64).sum());
                    }
                }
                tr.exit();
                k += 1;
            }
            (tr, ops, lat, lags, depths)
        });
        let mut tr = Tracer::new(traced, epoch);
        let mut ops = Ops::default();
        let mut acks = Vec::new();
        let mut throughput = Throughput::new(t0);
        let mut b = first_batch;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            tr.enter("gen.ingest", b);
            let r = tr.span("client.observe_batch", b, || {
                sys.ingest.observe_batch(feed.batch(b))
            });
            if ops.count(r).is_some() {
                throughput.add(now, BATCH as u64);
            }
            if traced {
                acks.push(sys.ingest.stats().acks_pending);
            }
            tr.exit();
            b += 1;
        }
        let f0 = Instant::now();
        let r = tr.span("client.flush", b, || sys.ingest.flush());
        ops.count(r);
        let flush = f0.elapsed();
        let wall = t0.elapsed();
        let (query_trace, qops, queries, lags, queue_depths) =
            reader.join().expect("query thread exits cleanly");
        ops.merge(qops);
        Phase {
            elements: throughput.total(),
            throughput,
            wall,
            flush,
            next_batch: b,
            ops,
            queries,
            lags,
            acks_pending: acks,
            queue_depths,
            ingest_trace: tr,
            query_trace,
        }
    })
}

/// Zipf-drawn query tenants, restricted to tenants the warm-up has
/// already created (a snapshot of an unknown tenant is an error).
fn query_tenants(seed: u64, tenants: u64, warm: &BTreeSet<u64>) -> Vec<TenantId> {
    let zipf = Zipf::new(tenants, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x9e0e_51e5);
    (0..4_096)
        .map(|_| {
            let rank = (0..64)
                .map(|_| zipf.sample(&mut rng))
                .find(|r| warm.contains(r))
                .unwrap_or(1);
            TenantId(rank)
        })
        .collect()
}

/// Outcome of the twin check.
struct Checked {
    failures: Vec<String>,
    ops: Ops,
    memory_tuples: u64,
    msgs_per_kelem: f64,
}

/// Snapshots of the hottest tenants plus random ones must equal an
/// in-process engine twin fed exactly what was sent.
fn check(
    sys: &System,
    feed: &BatchFeed,
    sent_batches: u64,
    p: &Params,
    twin_spec: SamplerSpec,
    seed: u64,
) -> Checked {
    let mut appeared = vec![false; p.tenants as usize + 1];
    let scanned = sent_batches.min(feed.batches_per_cycle()) as usize * BATCH;
    for (t, _) in &feed.cycle()[..scanned] {
        appeared[t.0 as usize] = true;
    }
    let live: Vec<u64> = (1..=p.tenants).filter(|&t| appeared[t as usize]).collect();
    let mut chosen: BTreeSet<u64> = (1..=p.hot).filter(|&t| appeared[t as usize]).collect();
    let mut rng = SplitMix64::new(seed ^ 0xc4ec_0001);
    for _ in 0..p.random {
        chosen.insert(live[rng.next_below(live.len() as u64) as usize]);
    }
    let mut picked = vec![false; p.tenants as usize + 1];
    for &t in &chosen {
        picked[t as usize] = true;
    }
    let twin = Engine::spawn(engine_config(twin_spec));
    let mut elements = 0u64;
    for b in 0..sent_batches {
        let part: Vec<_> = feed
            .batch(b)
            .filter(|(t, _)| picked[t.0 as usize])
            .collect();
        elements += part.len() as u64;
        twin.observe_batch(part);
    }
    twin.flush();
    let mut out = Checked {
        failures: Vec::new(),
        ops: Ops::default(),
        memory_tuples: 0,
        msgs_per_kelem: 0.0,
    };
    let mut msgs = 0u64;
    for &t in &chosen {
        let tenant = TenantId(t);
        let expect = twin.snapshot_view(tenant, None);
        match (out.ops.count(sys.query.snapshot_view(tenant, None)), expect) {
            (Some(got), Some(expect)) if got.sample == expect.sample => {
                out.memory_tuples += got.memory_tuples as u64;
                msgs += got.protocol_messages;
            }
            (got, _) => {
                out.failures.push(format!(
                    "wire_serve twin check: tenant {t} served {:?}, twin engine has a different sample",
                    got.map(|v| v.sample)
                ));
                break;
            }
        }
    }
    let _ = twin.shutdown();
    out.msgs_per_kelem = ratio(msgs as f64 * 1e3, elements as f64);
    out
}

/// Run the workload.
///
/// # Errors
/// Set-up failures and trace-dump I/O errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let p = params(cfg.tiny);
    let spec = spec(cfg.seed);
    let feed = BatchFeed::new(cfg.seed, zipf_pairs(cfg.seed, p.tenants, p.cycle), BATCH);
    let warm: BTreeSet<u64> = (0..p.warm_batches)
        .flat_map(|b| feed.batch(b).map(|(t, _)| t.0))
        .collect();
    let queries = query_tenants(cfg.seed, p.tenants, &warm);

    let rss0 = stats::rss_bytes();
    let mut setups = Vec::with_capacity(p.setups);
    for _ in 1..p.setups {
        let t = Instant::now();
        let sys = System::start(spec)?;
        setups.push(t.elapsed());
        sys.stop()?;
    }
    let t = Instant::now();
    let sys = System::start(spec)?;
    setups.push(t.elapsed());

    let mut ops = Ops::default();
    for b in 0..p.warm_batches {
        ops.count(sys.ingest.observe_batch(feed.batch(b)));
    }
    ops.count(sys.ingest.flush());

    let epoch = Instant::now();
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = phase(
        &sys,
        &feed,
        &queries,
        p.warm_batches,
        plain_secs,
        false,
        epoch,
    );
    // The engine's apply time before the traced phase, so its busy
    // share covers that phase alone.
    let busy_before = if cfg.trace {
        ops.count(sys.query.telemetry())
            .map_or(0, |tel| merged_histogram(&tel, "engine_batch_nanos").sum)
    } else {
        0
    };
    let traced = cfg.trace.then(|| {
        phase(
            &sys,
            &feed,
            &queries,
            plain.next_batch,
            cfg.seconds / 2.0,
            true,
            epoch,
        )
    });
    let peak = stats::peak_rss_bytes();
    let sent = traced.as_ref().map_or(plain.next_batch, |t| t.next_batch);

    let mut m = Metrics::default();
    ops.merge(plain.ops);
    let mut queries_lat = plain.queries.clone();
    let mut lags = plain.lags.clone();
    if let Some(t) = &traced {
        ops.merge(t.ops);
        queries_lat.extend(&t.queries);
        lags.extend(&t.lags);
    }
    let eps = crate::put_end_to_end(
        &mut m,
        &plain.throughput,
        plain.wall,
        &queries_lat,
        &lags,
        &setups,
        peak.saturating_sub(rss0),
    );
    let client_stats = sys.ingest.stats();
    // A redial is a transport failure the client recovered from: count
    // it as a failed operation.
    let reconnects = client_stats.reconnects + sys.query.stats().reconnects;
    ops.attempted += reconnects;
    ops.failed += reconnects;
    m.put(
        "wire_bytes_per_elem",
        ratio(
            client_stats.bytes_sent as f64,
            client_stats.elements_observed as f64,
        ),
    );

    let twin_spec = if cfg.diverge {
        spec_diverged(spec)
    } else {
        spec
    };
    let checked = check(&sys, &feed, sent, &p, twin_spec, cfg.seed);
    ops.merge(checked.ops);
    m.put("msgs_per_kelem", checked.msgs_per_kelem);
    m.put("sampler.memory_tuples", checked.memory_tuples as f64);

    if let Some(t) = &traced {
        let mut spans = SpanSet::default();
        spans.add("ingest", &t.ingest_trace);
        spans.add("query", &t.query_trace);
        per_layer(
            &mut m,
            &sys,
            &feed,
            spec,
            eps,
            t,
            &spans,
            busy_before,
            &mut ops,
        );
        crate::put_span_metrics(&mut m, &spans, t.elements);
        crate::write_trace_files(cfg, &spans, &m)?;
    }
    let stopped = sys.stop();
    if let Err(e) = stopped {
        ops.attempted += 1;
        ops.failed += 1;
        eprintln!("wire_serve: {e}");
    }
    Ok(crate::finish(cfg, m, ops, checked.failures))
}

/// A twin that must disagree: the same protocol on another hash seed.
fn spec_diverged(spec: SamplerSpec) -> SamplerSpec {
    SamplerSpec::new(spec.kind, spec.s, spec.seed ^ 1)
}

/// Per-layer metrics of the traced phase, plus the isolated replays of
/// one feed cycle.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    sys: &System,
    feed: &BatchFeed,
    spec: SamplerSpec,
    plain_eps: f64,
    t: &Phase,
    spans: &SpanSet,
    busy_before: u64,
    ops: &mut Ops,
) {
    let traced_eps = t.throughput.median_rate(t.wall);
    m.put("trace.overhead", ratio(traced_eps, plain_eps));
    let calls = crate::span_latencies(spans, "client.observe_batch");
    m.put("client.call_us.p50", calls.quantile_us(0.5));
    m.put("client.call_us.p99", calls.quantile_us(0.99));
    m.put("client.flush_ms", t.flush.as_secs_f64() * 1e3);
    m.put("client.acks_pending.mean", crate::mean(&t.acks_pending));
    m.put(
        "client.reconnects",
        (sys.ingest.stats().reconnects + sys.query.stats().reconnects) as f64,
    );
    m.put("engine.queue_depth.mean", crate::mean(&t.queue_depths));

    let server = sys.server.telemetry();
    let requests = sys.server.stats().requests;
    m.put(
        "server.wakeups_per_request",
        ratio(
            server.counter_total("server_poll_wakeups_total") as f64,
            requests as f64,
        ),
    );
    m.put(
        "server.ready_events.mean",
        merged_histogram(&server, "server_poll_ready_events").mean(),
    );
    m.put(
        "server.respond_us.p50",
        merged_histogram(&server, "server_respond_nanos").quantile(0.5) as f64 / 1e3,
    );

    if let Some(tel) = ops.count(sys.query.telemetry()) {
        let busy = merged_histogram(&tel, "engine_batch_nanos").sum - busy_before;
        m.put(
            "engine.apply_busy_share",
            ratio(busy as f64, SHARDS as f64 * t.wall.as_secs_f64() * 1e9),
        );
        m.put(
            "engine.snapshot_us.p50",
            merged_histogram(&tel, "engine_snapshot_nanos").quantile(0.5) as f64 / 1e3,
        );
    }
    if let Some(em) = ops.count(sys.query.metrics()) {
        m.put(
            "engine.backpressure_per_batch",
            ratio(em.total_backpressure() as f64, em.total_batches() as f64),
        );
        m.put("engine.late_dropped", em.total_late_dropped() as f64);
    }

    // Isolated replays of one cycle.
    let cycle = feed.cycle();
    let elements: Vec<u64> = cycle.iter().map(|(_, e)| e.0).collect();
    m.put(
        "hash.ns_per_elem",
        layers::hash_ns_per_elem(spec, 1, &elements, BATCH),
    );
    let grouped = layers::group_by_tenant(cycle.chunks(BATCH).map(|b| (None, b)), BATCH);
    m.put(
        "sampler.ns_per_elem",
        layers::sampler_ns_per_elem(spec, &grouped),
    );
    let (engine, replay) =
        layers::engine_replay(engine_config(spec), cycle.chunks(BATCH).map(|b| (None, b)));
    let _ = engine.shutdown();
    m.put("engine.ns_per_elem", replay.ns_per_elem);
    m.put("engine.call_us.p50", replay.calls.quantile_us(0.5));
    m.put("engine.call_us.p99", replay.calls.quantile_us(0.99));
    m.put("engine.pool_hit_ratio", replay.pool_hit_ratio);
    let requests: Vec<Request> = cycle
        .chunks(BATCH)
        .map(|b| Request::ObserveBatch { batch: b.to_vec() })
        .collect();
    let (enc, dec) = layers::proto_ns_per_elem(&requests);
    m.put("proto.encode_ns_per_elem", enc);
    m.put("proto.decode_ns_per_elem", dec);
    let sample: Vec<_> = elements
        .iter()
        .take(1 << 16)
        .map(|&e| dds_sim::Element(e))
        .collect();
    m.put(
        "proto.cluster_codec_ns_per_msg",
        layers::cluster_codec_ns_per_msg(&sample, 64, S as u32),
    );

    // Not on this workload's path.
    for name in [
        "engine.checkpoint_bytes",
        "checkpoint_ms",
        "cluster.observe_us.p50",
        "cluster.observe_us.p99",
        "cluster.advance_us.p50",
        "cluster.settle_us.p50",
        "cluster.up_msgs",
        "cluster.down_msgs",
        "cluster.late_up_msgs",
        "cluster.coord_memory_tuples",
    ] {
        m.put(name, 0.0);
    }
}
