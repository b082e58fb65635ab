//! Isolated layer replays: the same feed sent through one layer alone.
//! Adjacent rows of this waterfall bound a layer's cost — the gap
//! between the sampler row and the engine row is routing, channels and
//! the tenant table; the gap between the engine row and the end-to-end
//! ingest rate is the wire (or the cluster).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dds_core::sampler::{DistinctSampler, SamplerSpec};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::cluster::{ClusterRequest, SiteUp};
use dds_proto::frame::decode_frame;
use dds_proto::message::{decode_batch_request, Request};
use dds_sim::{Element, Slot};

use crate::stats::{ratio, Latencies};

/// Minimum timed work per replay, so short feeds still give a stable
/// figure.
const MIN_REPLAY: Duration = Duration::from_millis(40);

/// Repeat `pass` (which processes `per_pass` items) until at least
/// [`MIN_REPLAY`] has elapsed; nanoseconds per item.
fn ns_per_item(per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < MIN_REPLAY {
        pass();
        passes += 1;
    }
    ratio(
        start.elapsed().as_nanos() as f64,
        (passes * per_pass as u64) as f64,
    )
}

/// `SeededHash::hash_u64_batch_into` over `elements` in batches of
/// `batch`, once per member of the spec's hash family the sampler uses
/// (`copies`): nanoseconds per element.
#[must_use]
pub fn hash_ns_per_elem(spec: SamplerSpec, copies: usize, elements: &[u64], batch: usize) -> f64 {
    let family = spec.family();
    let hashes: Vec<_> = family.members(copies).collect();
    let mut out = Vec::with_capacity(batch);
    ns_per_item(elements.len(), || {
        for chunk in elements.chunks(batch) {
            for h in &hashes {
                h.hash_u64_batch_into(chunk.iter().copied(), &mut out);
                black_box(&out);
            }
        }
    })
}

/// One tenant's input for the sampler replay: `(slot, elements)` runs
/// in slot order (slot `None` for untimed input).
pub type TenantRuns = Vec<(Option<Slot>, Vec<Element>)>;

/// Per-tenant `SamplerSpec::build` + `observe_batch{,_at}` over
/// pre-grouped runs: nanoseconds per element.
#[must_use]
pub fn sampler_ns_per_elem(spec: SamplerSpec, tenants: &[TenantRuns]) -> f64 {
    let elements: usize = tenants
        .iter()
        .flat_map(|runs| runs.iter().map(|(_, r)| r.len()))
        .sum();
    ns_per_item(elements, || {
        for runs in tenants {
            let mut s = spec.build();
            for (slot, run) in runs {
                match slot {
                    Some(slot) => s.observe_batch_at(*slot, run),
                    None => s.observe_batch(run),
                }
            }
            black_box(s.sample());
        }
    })
}

/// Group `(slot, batch)` input per tenant, preserving order, cutting
/// untimed input into runs of at most `max_run`.
#[must_use]
pub fn group_by_tenant<'a>(
    batches: impl Iterator<Item = (Option<Slot>, &'a [(TenantId, Element)])>,
    max_run: usize,
) -> Vec<TenantRuns> {
    let mut by_tenant: std::collections::BTreeMap<u64, TenantRuns> = Default::default();
    for (slot, batch) in batches {
        for &(t, e) in batch {
            let runs = by_tenant.entry(t.0).or_default();
            match runs.last_mut() {
                Some((s, run)) if *s == slot && (slot.is_some() || run.len() < max_run) => {
                    run.push(e);
                }
                _ => runs.push((slot, vec![e])),
            }
        }
    }
    by_tenant.into_values().collect()
}

/// What the isolated engine replay measured.
#[derive(Debug, Clone)]
pub struct EngineReplay {
    /// Wall time per element, first call to final flush.
    pub ns_per_elem: f64,
    /// Caller-side time of each ingest call.
    pub calls: Latencies,
    /// Full-queue sends per ingest batch.
    pub backpressure_per_batch: f64,
    /// Share of batch buffers served from the pool.
    pub pool_hit_ratio: f64,
}

/// A fresh engine of `config` fed `batches` (`(slot, batch)`; untimed
/// when the slot is `None`) and flushed, timed from outside; the engine
/// is returned so callers can query it.
pub fn engine_replay<'a>(
    config: EngineConfig,
    batches: impl Iterator<Item = (Option<Slot>, &'a [(TenantId, Element)])>,
) -> (Engine, EngineReplay) {
    let engine = Engine::spawn(config);
    let mut calls = Latencies::default();
    let mut elements = 0usize;
    let start = Instant::now();
    for (slot, batch) in batches {
        elements += batch.len();
        let t = Instant::now();
        match slot {
            Some(slot) => engine.observe_batch_at(slot, batch.iter().copied()),
            None => engine.observe_batch(batch.iter().copied()),
        }
        calls.push(t.elapsed());
    }
    engine.flush();
    let wall = start.elapsed();
    let m = engine.metrics();
    let pool = engine.batch_pool_stats();
    let replay = EngineReplay {
        ns_per_elem: ratio(wall.as_nanos() as f64, elements as f64),
        calls,
        backpressure_per_batch: ratio(m.total_backpressure() as f64, m.total_batches() as f64),
        pool_hit_ratio: ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    };
    (engine, replay)
}

/// `Request::encode` and `decode_frame` + `decode_batch_request` over
/// the feed's ingest batches: (encode, decode) nanoseconds per element.
#[must_use]
pub fn proto_ns_per_elem(requests: &[Request]) -> (f64, f64) {
    let elements: usize = requests
        .iter()
        .map(|r| match r {
            Request::ObserveBatch { batch } | Request::ObserveBatchAt { batch, .. } => batch.len(),
            _ => 0,
        })
        .sum();
    let frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let encode = ns_per_item(elements, || {
        for r in requests {
            black_box(r.encode());
        }
    });
    let mut buf = Vec::new();
    let decode = ns_per_item(elements, || {
        for f in &frames {
            let (op, payload) = decode_frame(f).expect("own frame decodes");
            black_box(decode_batch_request(op, payload, &mut buf).expect("own batch decodes"));
        }
    });
    (encode, decode)
}

/// Encode + decode of the cluster dialect's per-element traffic: the
/// handle's `SiteObserve` and a sliding-multi `Up` per element;
/// nanoseconds per message.
#[must_use]
pub fn cluster_codec_ns_per_msg(elements: &[Element], window: u64, copies: u32) -> f64 {
    let messages: Vec<ClusterRequest> = elements
        .iter()
        .enumerate()
        .flat_map(|(i, &element)| {
            [
                ClusterRequest::SiteObserve { element },
                ClusterRequest::Up(SiteUp::SlidingMulti {
                    copy: i as u32 % copies,
                    element,
                    expiry: Slot(i as u64 / 8 + window),
                }),
            ]
        })
        .collect();
    ns_per_item(messages.len(), || {
        for m in &messages {
            let frame = m.encode();
            black_box(ClusterRequest::decode_frame(&frame).expect("own frame decodes"));
        }
    })
}

/// Feed a fresh sampler per tenant in slot order (stable within a
/// slot), then advance each to `until`: the embedded workload's oracle.
#[must_use]
pub fn slot_order_samplers<'a>(
    spec: SamplerSpec,
    slots: impl Iterator<Item = (Slot, Vec<(TenantId, Element)>)> + 'a,
    until: Slot,
) -> std::collections::BTreeMap<TenantId, Box<dyn DistinctSampler>> {
    let mut samplers: std::collections::BTreeMap<TenantId, Box<dyn DistinctSampler>> =
        Default::default();
    let mut run: Vec<Element> = Vec::new();
    for (slot, mut batch) in slots {
        batch.sort_by_key(|&(t, _)| t);
        let mut from = 0;
        while from < batch.len() {
            let tenant = batch[from].0;
            run.clear();
            while from < batch.len() && batch[from].0 == tenant {
                run.push(batch[from].1);
                from += 1;
            }
            samplers
                .entry(tenant)
                .or_insert_with(|| spec.build())
                .observe_batch_at(slot, &run);
        }
    }
    for s in samplers.values_mut() {
        s.advance(until);
    }
    samplers
}
