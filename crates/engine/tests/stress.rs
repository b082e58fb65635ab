//! Scale and concurrency stress — the acceptance bar for the serving
//! layer: ≥ 4 shards, ≥ 1 000 tenants, batched ingest, and exact oracle
//! agreement at every snapshot; plus a snapshot-under-load test with
//! concurrent producers.

use std::collections::HashMap;
use std::sync::Arc;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::CentralizedSampler;
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_hash::splitmix::splitmix64_keyed;
use dds_sim::Element;

fn spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, 8, 20_2026)
}

/// 1 200 tenants on 4 shards, ingest in 512-element batches, with a full
/// all-tenant oracle comparison at four mid-stream checkpoints and at the
/// end. Element ids are drawn from a small shared range so tenants'
/// streams collide heavily — exactly the regime where cross-tenant
/// leakage would show.
#[test]
fn thousand_tenants_exact_at_every_snapshot() {
    const TENANTS: u64 = 1_200;
    const TOTAL: u64 = 120_000;
    const BATCH: usize = 512;
    let engine = Engine::spawn(
        EngineConfig::new(spec())
            .with_shards(4)
            .with_queue_capacity(16),
    );
    let mut oracles: HashMap<u64, CentralizedSampler> = HashMap::new();
    let mut batch: Vec<(TenantId, Element)> = Vec::with_capacity(BATCH);
    let checkpoint_every = TOTAL / 5;

    let verify_all = |engine: &Engine, oracles: &HashMap<u64, CentralizedSampler>, at: u64| {
        let all = engine.snapshot_all();
        assert_eq!(all.len(), oracles.len(), "tenant count wrong at {at}");
        for (tenant, sample) in all {
            let oracle = &oracles[&tenant.0];
            assert_eq!(sample, oracle.sample(), "tenant {} wrong at {at}", tenant.0);
        }
    };

    for i in 0..TOTAL {
        let t = splitmix64_keyed(i, 1) % TENANTS;
        let e = Element(splitmix64_keyed(i, 2) % 700);
        oracles
            .entry(t)
            .or_insert_with(|| spec().oracle())
            .observe(e);
        batch.push((TenantId(t), e));
        if batch.len() == BATCH {
            engine.observe_batch(batch.drain(..).collect::<Vec<_>>());
        }
        if i % checkpoint_every == checkpoint_every - 1 {
            engine.observe_batch(batch.drain(..).collect::<Vec<_>>());
            verify_all(&engine, &oracles, i);
        }
    }
    engine.observe_batch(batch);
    verify_all(&engine, &oracles, TOTAL);

    // The per-tenant query path agrees with the bulk path.
    for t in [0, 1, 7, 500, TENANTS - 1] {
        if let Some(oracle) = oracles.get(&t) {
            assert_eq!(engine.snapshot(TenantId(t)), Some(oracle.sample()));
        }
    }

    assert!(oracles.len() >= 1_000, "stream touched too few tenants");
    let report = engine.shutdown();
    assert_eq!(report.metrics.total_elements(), TOTAL);
    assert_eq!(report.metrics.tenants(), oracles.len());
    assert_eq!(report.tenants_per_shard.len(), 4);
    assert!(
        report.tenants_per_shard.iter().all(|&n| n > 0),
        "a shard hosts no tenants: {:?}",
        report.tenants_per_shard
    );
}

/// Four producer threads flood disjoint tenant ranges through tiny
/// queues while the main thread takes continuous snapshots. Mid-flight
/// snapshots must never show an element outside the queried tenant's
/// private universe (isolation under contention); after the producers
/// join, every tenant must match its oracle exactly.
#[test]
fn snapshot_under_load_stress() {
    const PRODUCERS: u64 = 4;
    const TENANTS_PER_PRODUCER: u64 = 300;
    const ROUNDS: u64 = 60;
    const BATCH: u64 = 250;
    let engine = Arc::new(Engine::spawn(
        EngineConfig::new(spec())
            .with_shards(8)
            .with_queue_capacity(4),
    ));

    // Tenant t's elements all live in [t·10⁶, t·10⁶ + 10⁶).
    let element_of = |t: u64, x: u64| Element(t * 1_000_000 + x % 1_000_000);

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut oracles: HashMap<u64, CentralizedSampler> = HashMap::new();
                for round in 0..ROUNDS {
                    let batch: Vec<(TenantId, Element)> = (0..BATCH)
                        .map(|i| {
                            let seq = round * BATCH + i;
                            let t = p * TENANTS_PER_PRODUCER
                                + splitmix64_keyed(seq, p) % TENANTS_PER_PRODUCER;
                            let e = element_of(t, splitmix64_keyed(seq, p + 100) % 400);
                            (TenantId(t), e)
                        })
                        .collect();
                    for &(t, e) in &batch {
                        oracles
                            .entry(t.0)
                            .or_insert_with(|| spec().oracle())
                            .observe(e);
                    }
                    engine.observe_batch(batch);
                }
                oracles
            })
        })
        .collect();

    // Concurrent snapshots: isolation must hold mid-flight.
    for probe in 0..200u64 {
        let t = probe % (PRODUCERS * TENANTS_PER_PRODUCER);
        if let Some(sample) = engine.snapshot(TenantId(t)) {
            for e in sample {
                assert!(
                    e.0 / 1_000_000 == t,
                    "tenant {t} snapshot leaked element {e:?} from tenant {}",
                    e.0 / 1_000_000
                );
            }
        }
    }

    let mut oracles: HashMap<u64, CentralizedSampler> = HashMap::new();
    for h in producers {
        oracles.extend(h.join().unwrap());
    }

    // Quiescent: every tenant exact.
    engine.flush();
    let all = engine.snapshot_all();
    assert_eq!(all.len(), oracles.len());
    for (tenant, sample) in all {
        assert_eq!(
            sample,
            oracles[&tenant.0].sample(),
            "tenant {} diverged after load",
            tenant.0
        );
    }

    let m = engine.metrics();
    assert_eq!(m.total_elements(), PRODUCERS * ROUNDS * BATCH);
    assert!(m.tenants() >= 1_000);
    let engine = Arc::into_inner(engine).expect("sole owner after joins");
    let _ = engine.shutdown();
}
