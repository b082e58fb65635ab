//! `cluster_sliding`: the paper's setting.
//!
//! A coordinator and k = 2 site daemons run over loopback TCP with
//! `SlidingMulti { window: 64 }` samplers (s = 8, Algorithm 4). One
//! feeding thread sends a repeating trace-like stream round-robin, 8
//! elements per slot, in a closed loop, and asks the coordinator for
//! its sample at a fixed 100/s between slots, each timed from when it
//! was due.

use std::time::{Duration, Instant};

use dds_cluster::{ClusterHandle, ClusterSpec, LocalCluster};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::sliding_multi::MultiSlidingConfig;
use dds_engine::{EngineConfig, TenantId};
use dds_proto::message::Request;
use dds_sim::{Element, SiteId, Slot};

use crate::feed::StreamFeed;
use crate::stats::{self, merged_histogram, ratio, Schedule, Throughput, WindowedLatencies};
use crate::trace::{SpanSet, Tracer};
use crate::{layers, Config, Metrics, Ops, Report};

const K: usize = 2;
const S: usize = 8;
const WINDOW: u64 = 64;
const PER_SLOT: u64 = 8;

struct Params {
    feed_len: u64,
    warm_slots: u64,
    setups: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            feed_len: 1 << 12,
            warm_slots: 16,
            setups: 3,
        }
    } else {
        Params {
            feed_len: 1 << 20,
            warm_slots: 64,
            setups: 25,
        }
    }
}

fn sampler(seed: u64) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::SlidingMulti { window: WINDOW }, S, seed)
}

/// What one measured phase saw.
struct Phase {
    elements: u64,
    throughput: Throughput,
    wall: Duration,
    next_element: u64,
    ops: Ops,
    queries: WindowedLatencies,
    lags: WindowedLatencies,
    trace: Tracer,
}

/// Observe one slot's elements round-robin, then advance the clock.
fn drive_slot(
    handle: &mut ClusterHandle,
    feed: &StreamFeed,
    first: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
) {
    for i in first..first + PER_SLOT {
        let site = SiteId((i % K as u64) as usize);
        let e = feed.element(i);
        ops.count(tr.span("cluster.observe", i, || handle.observe(site, e)));
    }
    ops.count(tr.span("cluster.advance_slot", first, || handle.advance_slot()));
}

fn phase(
    handle: &mut ClusterHandle,
    feed: &StreamFeed,
    first_element: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let mut tr = Tracer::new(traced, epoch);
    let mut ops = Ops::default();
    let mut queries = WindowedLatencies::default();
    let mut lags = WindowedLatencies::default();
    let t0 = Instant::now();
    let mut throughput = Throughput::new(t0);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut sched = Schedule::new(t0, crate::READ_RATE);
    let mut i = first_element;
    let mut k = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        tr.enter("gen.ingest", i);
        drive_slot(handle, feed, i, &mut tr, &mut ops);
        tr.exit();
        throughput.add(now, PER_SLOT);
        i += PER_SLOT;
        while sched.peek() <= Instant::now() && sched.peek() < deadline {
            let due = sched.take();
            lags.push(t0, due, Some(due.elapsed()));
            tr.enter("gen.query", k);
            let done = ops
                .count(tr.span("cluster.sample", k, || handle.sample()))
                .map(|_| due.elapsed());
            queries.push(t0, due, done);
            tr.exit();
            k += 1;
        }
    }
    ops.count(tr.span("cluster.stats", i, || handle.stats()));
    Phase {
        elements: i - first_element,
        throughput,
        wall: t0.elapsed(),
        next_element: i,
        ops,
        queries,
        lags,
        trace: tr,
    }
}

/// The deployment's sample and per-site message counters must equal
/// the `dds-sim` twin fed the same schedule.
fn check(
    handle: &mut ClusterHandle,
    feed: &StreamFeed,
    sent: u64,
    twin_seed: u64,
    ops: &mut Ops,
) -> Vec<String> {
    let mut twin = MultiSlidingConfig::with_seed(S, WINDOW, twin_seed).cluster(K);
    for i in 0..sent {
        twin.observe(SiteId((i % K as u64) as usize), feed.element(i));
        if (i + 1) % PER_SLOT == 0 {
            twin.advance_slot();
        }
    }
    let mut failures = Vec::new();
    if ops.count(handle.sample()) != Some(twin.sample()) {
        failures.push(
            "cluster_sliding twin check: the coordinator's sample differs from the dds-sim twin"
                .into(),
        );
    }
    match ops.count(handle.stats()) {
        Some(stats) if &stats.counters == twin.counters() => {}
        _ => failures.push(
            "cluster_sliding twin check: per-site message counters differ from the dds-sim twin"
                .into(),
        ),
    }
    failures
}

/// Run the workload.
///
/// # Errors
/// Set-up failures and trace-dump I/O errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let p = params(cfg.tiny);
    let spec = ClusterSpec::new(sampler(cfg.seed), K);
    let feed = StreamFeed::new(cfg.seed, p.feed_len);

    let rss0 = stats::rss_bytes();
    let mut setups = Vec::with_capacity(p.setups);
    for _ in 1..p.setups {
        let t = Instant::now();
        let cluster = LocalCluster::spawn(spec).map_err(|e| format!("cluster spawn: {e}"))?;
        setups.push(t.elapsed());
        cluster
            .shutdown()
            .map_err(|e| format!("cluster shutdown: {e}"))?;
    }
    let t = Instant::now();
    let mut cluster = LocalCluster::spawn(spec).map_err(|e| format!("cluster spawn: {e}"))?;
    setups.push(t.elapsed());

    let mut ops = Ops::default();
    let mut off = Tracer::new(false, Instant::now());
    for slot in 0..p.warm_slots {
        drive_slot(cluster.handle(), &feed, slot * PER_SLOT, &mut off, &mut ops);
    }
    let warm = p.warm_slots * PER_SLOT;

    let epoch = Instant::now();
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = phase(cluster.handle(), &feed, warm, plain_secs, false, epoch);
    let traced = cfg.trace.then(|| {
        phase(
            cluster.handle(),
            &feed,
            plain.next_element,
            cfg.seconds / 2.0,
            true,
            epoch,
        )
    });
    let peak = stats::peak_rss_bytes();
    let sent = traced
        .as_ref()
        .map_or(plain.next_element, |t| t.next_element);

    let mut m = Metrics::default();
    ops.merge(plain.ops);
    let mut queries = plain.queries.clone();
    let mut lags = plain.lags.clone();
    if let Some(t) = &traced {
        ops.merge(t.ops);
        queries.extend(&t.queries);
        lags.extend(&t.lags);
    }
    let eps = crate::put_end_to_end(
        &mut m,
        &plain.throughput,
        plain.wall,
        &queries,
        &lags,
        &setups,
        peak.saturating_sub(rss0),
    );

    let twin_seed = if cfg.diverge { cfg.seed ^ 1 } else { cfg.seed };
    let failures = check(cluster.handle(), &feed, sent, twin_seed, &mut ops);
    if let Some(stats) = ops.count(cluster.handle().stats()) {
        m.put(
            "msgs_per_kelem",
            ratio(stats.counters.total_messages() as f64 * 1e3, sent as f64),
        );
        m.put("cluster.up_msgs", stats.counters.up_messages() as f64);
        m.put("cluster.down_msgs", stats.counters.down_messages() as f64);
        m.put("cluster.coord_memory_tuples", stats.memory_tuples as f64);
        let mut site_memory = 0;
        for i in 0..K {
            if let Some(ss) = ops.count(cluster.handle().site_stats(SiteId(i))) {
                site_memory += ss.memory_tuples;
            }
        }
        m.put(
            "sampler.memory_tuples",
            (stats.memory_tuples + site_memory) as f64,
        );
    }

    if let Some(t) = &traced {
        let mut spans = SpanSet::default();
        spans.add("feeder", &t.trace);
        per_layer(
            &mut m,
            cluster.handle(),
            &feed,
            cfg.seed,
            eps,
            t,
            &spans,
            &mut ops,
        );
        crate::put_span_metrics(&mut m, &spans, t.elements);
        crate::write_trace_files(cfg, &spans, &m)?;
    }
    if let Err(e) = cluster.shutdown() {
        ops.attempted += 1;
        ops.failed += 1;
        eprintln!("cluster_sliding: shutdown: {e}");
    }
    Ok(crate::finish(cfg, m, ops, failures))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    handle: &mut ClusterHandle,
    feed: &StreamFeed,
    seed: u64,
    plain_eps: f64,
    t: &Phase,
    spans: &SpanSet,
    ops: &mut Ops,
) {
    let traced_eps = t.throughput.median_rate(t.wall);
    m.put("trace.overhead", ratio(traced_eps, plain_eps));
    let observe = crate::span_latencies(spans, "cluster.observe");
    m.put("cluster.observe_us.p50", observe.quantile_us(0.5));
    m.put("cluster.observe_us.p99", observe.quantile_us(0.99));
    m.put(
        "cluster.advance_us.p50",
        crate::span_latencies(spans, "cluster.advance_slot").quantile_us(0.5),
    );
    let mut settle = dds_obs::HistogramSnapshot::default();
    for i in 0..K {
        if let Some(tel) = ops.count(handle.site_telemetry(SiteId(i))) {
            settle.merge(&merged_histogram(&tel, "site_settle_nanos"));
        }
    }
    m.put("cluster.settle_us.p50", settle.quantile(0.5) as f64 / 1e3);
    if let Some(tel) = ops.count(handle.telemetry()) {
        m.put(
            "cluster.late_up_msgs",
            tel.counter_total("cluster_late_up_msgs_total") as f64,
        );
    }

    // Isolated replays of the feed: one sampler for the whole stream;
    // an engine hosting one tenant per site.
    let spec = sampler(seed);
    let n = feed.cycle().len().min(1 << 18) as u64;
    let slots: Vec<(Slot, Vec<(TenantId, Element)>)> = (0..n / PER_SLOT)
        .map(|s| {
            let batch = (s * PER_SLOT..(s + 1) * PER_SLOT)
                .map(|i| (TenantId(i % K as u64), feed.element(i)))
                .collect();
            (Slot(s + 1), batch)
        })
        .collect();
    let elements: Vec<u64> = feed.cycle()[..n as usize].iter().map(|e| e.0).collect();
    m.put(
        "hash.ns_per_elem",
        layers::hash_ns_per_elem(spec, S, &elements, PER_SLOT as usize),
    );
    let whole_stream = vec![slots
        .iter()
        .map(|(s, b)| (Some(*s), b.iter().map(|&(_, e)| e).collect()))
        .collect()];
    m.put(
        "sampler.ns_per_elem",
        layers::sampler_ns_per_elem(spec, &whole_stream),
    );
    let (engine, replay) = layers::engine_replay(
        EngineConfig::new(spec).with_shards(K),
        slots.iter().map(|(s, b)| (Some(*s), b.as_slice())),
    );
    let _ = engine.shutdown();
    m.put("engine.ns_per_elem", replay.ns_per_elem);
    m.put("engine.call_us.p50", replay.calls.quantile_us(0.5));
    m.put("engine.call_us.p99", replay.calls.quantile_us(0.99));
    m.put(
        "engine.backpressure_per_batch",
        replay.backpressure_per_batch,
    );
    m.put("engine.pool_hit_ratio", replay.pool_hit_ratio);
    let requests: Vec<Request> = slots
        .iter()
        .map(|(s, b)| Request::ObserveBatchAt {
            now: *s,
            batch: b.clone(),
        })
        .collect();
    let (enc, dec) = layers::proto_ns_per_elem(&requests);
    m.put("proto.encode_ns_per_elem", enc);
    m.put("proto.decode_ns_per_elem", dec);
    let sample: Vec<Element> = feed.cycle().iter().take(1 << 16).copied().collect();
    m.put(
        "proto.cluster_codec_ns_per_msg",
        layers::cluster_codec_ns_per_msg(&sample, WINDOW, S as u32),
    );

    // Not on this workload's path.
    for name in [
        "engine.apply_busy_share",
        "engine.queue_depth.mean",
        "engine.snapshot_us.p50",
        "engine.checkpoint_bytes",
        "engine.late_dropped",
        "checkpoint_ms",
        "client.call_us.p50",
        "client.call_us.p99",
        "client.flush_ms",
        "client.acks_pending.mean",
        "client.reconnects",
        "server.wakeups_per_request",
        "server.ready_events.mean",
        "server.respond_us.p50",
        "wire_bytes_per_elem",
    ] {
        m.put(name, 0.0);
    }
}
