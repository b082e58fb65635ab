//! `embedded_sliding`: an in-process engine with no wire, bound by the
//! samplers.
//!
//! Two shards host 64 Zipf tenants of `SlidingMulti { window: 4096 }`
//! samplers (s = 8) with a lateness horizon of 8 slots. The ingest
//! thread sends one 1024-element batch per slot; about 5 % of batches
//! arrive 1–4 slots late. Every 64 slots it takes a delta checkpoint
//! against the previous document and folds it in with `compact`. A
//! second thread reads tenant views at a fixed 100/s, each timed from
//! when it was due.
//!
//! A read drains the reorder buffer and seals the queried tenant's
//! clock at the watermark, so a late batch that a read overtook would
//! be dropped. The two threads therefore share a lock: the ingest
//! thread holds it from the first batch that overtakes a late slot
//! until the late slot is sent, and each read holds it while it is
//! answered. A read's wait for the lock counts in its latency.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::Zipf;
use dds_engine::checkpoint::compact;
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_hash::splitmix::SplitMix64;
use dds_proto::message::Request;
use dds_sim::Slot;

use crate::feed::{zipf_pairs, SlotFeed};
use crate::stats::{
    self, merged_histogram, ratio, Latencies, Schedule, Throughput, WindowedLatencies,
};
use crate::trace::{SpanSet, Tracer};
use crate::{layers, Config, Metrics, Ops, Report};

const SHARDS: usize = 2;
const S: usize = 8;
const WINDOW: u64 = 4_096;
const LATENESS: u64 = 8;
const PER_SLOT: usize = 1_024;
const TENANTS: u64 = 64;
const CHECKPOINT_EVERY: u64 = 64;
/// Per-step chance of holding a slot back (≈ 5 % of batches late).
const LATE_P: f64 = 0.057;
/// Shard queue capacity in commands (512 elements each). A read waits
/// behind the queued batches and holds the reorder lock meanwhile, so a
/// short queue keeps reads from throttling ingest through the lock.
const QUEUE: usize = 8;

struct Params {
    cycle_slots: usize,
    warm_steps: u64,
    setups: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            cycle_slots: 64,
            warm_steps: 16,
            setups: 3,
        }
    } else {
        Params {
            cycle_slots: 1_024,
            warm_steps: 256,
            setups: 25,
        }
    }
}

fn spec(seed: u64) -> SamplerSpec {
    SamplerSpec::new(SamplerKind::SlidingMulti { window: WINDOW }, S, seed)
}

fn engine_config(spec: SamplerSpec) -> EngineConfig {
    EngineConfig::new(spec)
        .with_shards(SHARDS)
        .with_queue_capacity(QUEUE)
        .with_lateness(LATENESS)
}

/// The delta-checkpoint chain: the running full document, and the
/// document and delta before the latest fold (for the chain check).
struct Chain {
    doc: Vec<u8>,
    prev: Option<(Vec<u8>, Vec<u8>)>,
    latencies: Latencies,
    delta_bytes: Vec<u64>,
}

/// What one measured phase saw.
struct Phase {
    elements: u64,
    throughput: Throughput,
    wall: Duration,
    next_step: u64,
    max_slot: Slot,
    ops: Ops,
    queries: WindowedLatencies,
    lags: WindowedLatencies,
    queue_depths: Vec<u64>,
    ingest_trace: Tracer,
    query_trace: Tracer,
}

/// Take a delta against the running document and fold it in.
fn checkpoint(engine: &Engine, chain: &mut Chain, tr: &mut Tracer, n: u64, ops: &mut Ops) {
    let t = Instant::now();
    let delta = tr.span("engine.checkpoint_delta", n, || {
        engine.checkpoint_delta(&chain.doc)
    });
    chain.latencies.push(t.elapsed());
    let Some(delta) = ops.count(delta) else {
        return;
    };
    chain.delta_bytes.push(delta.len() as u64);
    let folded = tr.span("engine.compact", n, || {
        compact(&chain.doc, std::slice::from_ref(&delta))
    });
    if let Some(doc) = ops.count(folded) {
        let before = std::mem::replace(&mut chain.doc, doc);
        chain.prev = Some((before, delta));
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    engine: &Engine,
    feed: &SlotFeed,
    queries: &[TenantId],
    chain: &mut Chain,
    first_step: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let reorder = Mutex::new(());
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
                let view = {
                    let _window_closed = reorder.lock().expect("reorder lock not poisoned");
                    tr.span("engine.snapshot_view", k, || {
                        engine.try_snapshot_view(tenant, None)
                    })
                };
                let done = ops.count(view).map(|_| due.elapsed());
                lat.push(t0, due, done);
                if traced {
                    let m = engine.metrics();
                    depths.push(m.shards.iter().map(|s| s.queue_depth as u64).sum());
                }
                tr.exit();
                k += 1;
            }
            (tr, ops, lat, lags, depths)
        });
        let mut tr = Tracer::new(traced, epoch);
        let mut ops = Ops::default();
        let mut n = first_step;
        let mut throughput = Throughput::new(t0);
        let mut max_slot = Slot(0);
        let mut window = None;
        loop {
            let (step, slot) = feed.step(n);
            let now = Instant::now();
            if window.is_none() && !step.close && now >= deadline {
                break;
            }
            if step.open {
                window = Some(reorder.lock().expect("reorder lock not poisoned"));
            }
            tr.enter("gen.ingest", n);
            let sent = tr.span("engine.observe_batch_at", n, || {
                engine.try_observe_batch_at(slot, feed.slot_batch(slot))
            });
            if ops.count(sent).is_some() {
                throughput.add(now, PER_SLOT as u64);
            }
            if step.close {
                window = None;
            }
            max_slot = max_slot.max(slot);
            n += 1;
            if n.is_multiple_of(CHECKPOINT_EVERY) {
                checkpoint(engine, chain, &mut tr, n, &mut ops);
            }
            tr.exit();
        }
        drop(window);
        ops.count(tr.span("engine.flush", n, || engine.try_flush()));
        let wall = t0.elapsed();
        let (query_trace, qops, queries, lags, queue_depths) =
            reader.join().expect("query thread exits cleanly");
        ops.merge(qops);
        Phase {
            elements: throughput.total(),
            throughput,
            wall,
            next_step: n,
            max_slot,
            ops,
            queries,
            lags,
            queue_depths,
            ingest_trace: tr,
            query_trace,
        }
    })
}

/// Send the warm-up steps (ending outside any out-of-order window).
fn warm_up(engine: &Engine, feed: &SlotFeed, steps: u64, ops: &mut Ops) -> (u64, Slot) {
    let mut n = 0;
    let mut open = false;
    let mut max_slot = Slot(0);
    while n < steps || open {
        let (step, slot) = feed.step(n);
        open = (open || step.open) && !step.close;
        ops.count(engine.try_observe_batch_at(slot, feed.slot_batch(slot)));
        max_slot = max_slot.max(slot);
        n += 1;
    }
    ops.count(engine.try_flush());
    (n, max_slot)
}

/// The correctness checks: the delta chain folds to the live
/// checkpoint byte for byte, and every tenant's sample equals a fresh
/// sampler fed the window in slot order. Returns failures, the views'
/// memory tuples, and protocol messages.
fn check(
    engine: &Engine,
    feed: &SlotFeed,
    chain: &Chain,
    max_slot: Slot,
    oracle_spec: SamplerSpec,
    diverge: bool,
    ops: &mut Ops,
) -> (Vec<String>, u64, u64) {
    let mut failures = Vec::new();
    let last = ops.count(engine.checkpoint_delta(&chain.doc));
    let live = engine.checkpoint();
    match (last, &chain.prev) {
        (Some(last), Some((prev_doc, prev_delta))) => {
            let chained = if diverge {
                compact(prev_doc, std::slice::from_ref(&last))
            } else {
                compact(prev_doc, &[prev_delta.clone(), last.clone()])
            };
            let folded = compact(&chain.doc, &[last]);
            if !matches!((&chained, &folded), (Ok(a), Ok(b)) if *a == live && *b == live) {
                failures.push(
                    "embedded_sliding checkpoint check: the compacted delta chain differs \
                     from the live checkpoint"
                        .to_string(),
                );
            }
        }
        _ => failures.push("embedded_sliding checkpoint check: no delta chain to fold".into()),
    }

    ops.count(engine.try_advance(max_slot));
    ops.count(engine.try_flush());
    // Elements older than the window have expired, so samplers fed the
    // last window (plus the lateness horizon) are exact oracles.
    let from = max_slot.0.saturating_sub(WINDOW + LATENESS + 8).max(1);
    let oracles = layers::slot_order_samplers(
        oracle_spec,
        (from..=max_slot.0).map(|s| (Slot(s), feed.slot_batch(Slot(s)).collect())),
        max_slot,
    );
    let mut memory = 0u64;
    let mut messages = 0u64;
    for t in 1..=TENANTS {
        let tenant = TenantId(t);
        let expect = oracles.get(&tenant).map(|s| s.sample()).unwrap_or_default();
        match ops.count(engine.try_snapshot_view(tenant, None)) {
            Some(view) if view.sample == expect => {
                memory += view.memory_tuples as u64;
                messages += view.protocol_messages;
            }
            got => {
                failures.push(format!(
                    "embedded_sliding oracle check: tenant {t} sample {:?} != slot-order sampler {expect:?}",
                    got.map(|v| v.sample)
                ));
                break;
            }
        }
    }
    (failures, memory, messages)
}

/// Run the workload.
///
/// # Errors
/// Trace-dump I/O errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let p = params(cfg.tiny);
    let spec = spec(cfg.seed);
    let feed = SlotFeed::new(
        cfg.seed,
        zipf_pairs(cfg.seed, TENANTS, p.cycle_slots * PER_SLOT),
        PER_SLOT,
        LATE_P,
    );
    let zipf = Zipf::new(TENANTS, 1.0);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x9e0e_51e5);
    let queries: Vec<TenantId> = (0..4_096)
        .map(|_| TenantId(zipf.sample(&mut rng)))
        .collect();

    let rss0 = stats::rss_bytes();
    let mut setups = Vec::with_capacity(p.setups);
    for _ in 1..p.setups {
        let t = Instant::now();
        let engine = Engine::spawn(engine_config(spec));
        setups.push(t.elapsed());
        let _ = engine.shutdown();
    }
    let t = Instant::now();
    let engine = Engine::spawn(engine_config(spec));
    setups.push(t.elapsed());

    let mut ops = Ops::default();
    let (warm_steps, warm_max) = warm_up(&engine, &feed, p.warm_steps, &mut ops);
    let mut chain = Chain {
        doc: engine.checkpoint(),
        prev: None,
        latencies: Latencies::default(),
        delta_bytes: Vec::new(),
    };

    let epoch = Instant::now();
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = phase(
        &engine, &feed, &queries, &mut chain, warm_steps, plain_secs, false, epoch,
    );
    let busy_before = merged_histogram(&engine.telemetry(), "engine_batch_nanos").sum;
    let traced = cfg.trace.then(|| {
        phase(
            &engine,
            &feed,
            &queries,
            &mut chain,
            plain.next_step,
            cfg.seconds / 2.0,
            true,
            epoch,
        )
    });
    let peak = stats::peak_rss_bytes();
    let max_slot = traced
        .as_ref()
        .map_or(plain.max_slot, |t| t.max_slot)
        .max(warm_max);
    let total_elements =
        warm_steps * PER_SLOT as u64 + plain.elements + traced.as_ref().map_or(0, |t| t.elements);

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
    m.put("checkpoint_ms", chain.latencies.quantile_us(0.5) / 1e3);

    let oracle_spec = if cfg.diverge {
        SamplerSpec::new(spec.kind, spec.s, spec.seed ^ 1)
    } else {
        spec
    };
    let (failures, memory, messages) = check(
        &engine,
        &feed,
        &chain,
        max_slot,
        oracle_spec,
        cfg.diverge,
        &mut ops,
    );
    m.put("sampler.memory_tuples", memory as f64);
    m.put(
        "msgs_per_kelem",
        ratio(messages as f64 * 1e3, total_elements as f64),
    );

    if let Some(t) = &traced {
        let mut spans = SpanSet::default();
        spans.add("ingest", &t.ingest_trace);
        spans.add("query", &t.query_trace);
        per_layer(
            &mut m,
            &engine,
            &feed,
            spec,
            eps,
            t,
            &spans,
            busy_before,
            &chain,
        );
        crate::put_span_metrics(&mut m, &spans, t.elements);
        crate::write_trace_files(cfg, &spans, &m)?;
    }
    let _ = engine.shutdown();
    Ok(crate::finish(cfg, m, ops, failures))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    engine: &Engine,
    feed: &SlotFeed,
    spec: SamplerSpec,
    plain_eps: f64,
    t: &Phase,
    spans: &SpanSet,
    busy_before: u64,
    chain: &Chain,
) {
    let traced_eps = t.throughput.median_rate(t.wall);
    m.put("trace.overhead", ratio(traced_eps, plain_eps));
    let calls = crate::span_latencies(spans, "engine.observe_batch_at");
    m.put("engine.call_us.p50", calls.quantile_us(0.5));
    m.put("engine.call_us.p99", calls.quantile_us(0.99));
    m.put("engine.queue_depth.mean", crate::mean(&t.queue_depths));
    let tel = engine.telemetry();
    let busy = merged_histogram(&tel, "engine_batch_nanos").sum - busy_before;
    m.put(
        "engine.apply_busy_share",
        ratio(busy as f64, SHARDS as f64 * t.wall.as_secs_f64() * 1e9),
    );
    m.put(
        "engine.snapshot_us.p50",
        merged_histogram(&tel, "engine_snapshot_nanos").quantile(0.5) as f64 / 1e3,
    );
    let em = engine.metrics();
    m.put(
        "engine.backpressure_per_batch",
        ratio(em.total_backpressure() as f64, em.total_batches() as f64),
    );
    m.put("engine.late_dropped", em.total_late_dropped() as f64);
    let pool = engine.batch_pool_stats();
    m.put(
        "engine.pool_hit_ratio",
        ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    );
    m.put("engine.checkpoint_bytes", crate::mean(&chain.delta_bytes));

    // Isolated replays of one cycle, in slot order.
    let slots: Vec<(Slot, Vec<_>)> = (0..feed.slots_per_cycle() as u32)
        .map(|i| {
            let slot = feed.slot_of(0, i);
            (slot, feed.slot_batch(slot).collect())
        })
        .collect();
    let elements: Vec<u64> = slots
        .iter()
        .flat_map(|(_, b)| b.iter().map(|(_, e)| e.0))
        .collect();
    m.put(
        "hash.ns_per_elem",
        layers::hash_ns_per_elem(spec, S, &elements, PER_SLOT / TENANTS as usize),
    );
    let grouped = layers::group_by_tenant(
        slots.iter().map(|(s, b)| (Some(*s), b.as_slice())),
        PER_SLOT,
    );
    m.put(
        "sampler.ns_per_elem",
        layers::sampler_ns_per_elem(spec, &grouped),
    );
    let (replayed, replay) = layers::engine_replay(
        engine_config(spec),
        slots.iter().map(|(s, b)| (Some(*s), b.as_slice())),
    );
    let _ = replayed.shutdown();
    m.put("engine.ns_per_elem", replay.ns_per_elem);
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
    let sample: Vec<_> = elements
        .iter()
        .take(1 << 16)
        .map(|&e| dds_sim::Element(e))
        .collect();
    m.put(
        "proto.cluster_codec_ns_per_msg",
        layers::cluster_codec_ns_per_msg(&sample, WINDOW, S as u32),
    );

    // Not on this workload's path.
    for name in [
        "client.call_us.p50",
        "client.call_us.p99",
        "client.flush_ms",
        "client.acks_pending.mean",
        "client.reconnects",
        "server.wakeups_per_request",
        "server.ready_events.mean",
        "server.respond_us.p50",
        "wire_bytes_per_elem",
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
