//! Extension: the raw-speed program's gates — batch-fused ingest,
//! incremental checkpoints, and the wire-vs-in-process gap, measured
//! and pinned in one machine-readable record.
//!
//! Three measurements, one JSON (`BENCH_hot_path.json`):
//!
//! * **Sampler batch fusion.** A boxed [`DistinctSampler`] fed the same
//!   stream two ways: one virtual `observe` per element (the pre-fusion
//!   shape) versus `observe_batch` in chunks of ≥ 256 (one virtual call
//!   and one fused hashing pass per chunk). Gated: the batched rate
//!   must be at least [`SPEEDUP_FLOOR`] × the per-element rate.
//! * **Incremental checkpoints.** A 1200-tenant engine, a full base
//!   document, 1 % of tenants churned, then `checkpoint_delta`. Gated:
//!   the delta must be at most [`DELTA_CEILING`] of the full document's
//!   bytes — and `compact(base, [delta])` must equal the live full
//!   checkpoint byte-for-byte, so the small number is also the right
//!   one.
//! * **Wire ratio** (report-only). Durable TCP-loopback ingest at
//!   client batch 1024 against in-process ingest of the identical feed,
//!   reported as a fraction. Loopback scheduling is too noisy to gate
//!   in CI; the JSON records it next to [`WIRE_RATIO_TARGET`] so a
//!   regression is visible in the artifact.
//!
//! The `gate` field is `"pass"` only when both gated invariants hold;
//! CI greps for it after a smoke run.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dds_core::sampler::{DistinctSampler, SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{checkpoint::compact, Engine, EngineConfig, TenantId};
use dds_proto::EngineHost;
use dds_server::{Client, Server};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Element;

use crate::output::write_record;
use crate::Scale;

const SAMPLE_SIZE: usize = 8;
const SHARDS: usize = 4;
/// Full-scale elements for the sampler fusion measurement.
const SAMPLER_TOTAL_BASE: u64 = 4_000_000;
/// Chunk size for the batched shape (comfortably ≥ the 256-element
/// floor where fusion is claimed to pay).
const FUSED_BATCH: usize = 1024;
/// The batched rate must be at least this multiple of the per-element
/// rate.
const SPEEDUP_FLOOR: f64 = 1.3;

/// Tenants in the delta-checkpoint measurement.
const DELTA_TENANTS: u64 = 1200;
/// Elements seeded per tenant before the base checkpoint.
const DELTA_SEED_PER_TENANT: u64 = 20;
/// Fraction of tenants churned between base and delta (1 %).
const DELTA_CHURN: u64 = DELTA_TENANTS / 100;
/// The delta may be at most this fraction of the full document.
const DELTA_CEILING: f64 = 0.05;

/// Full-scale elements for the wire-ratio measurement.
const WIRE_TOTAL_BASE: u64 = 400_000;
const WIRE_TENANTS: u64 = 200;
const WIRE_BATCH: usize = 1024;
/// Aspirational wire/in-process ratio, recorded (not gated).
const WIRE_RATIO_TARGET: f64 = 0.60;

fn sampler_feed(scale: &Scale, run: u32) -> Vec<Element> {
    let total = (SAMPLER_TOTAL_BASE / scale.divisor).max(10_000);
    let profile = TraceProfile {
        name: "hot-path-fusion",
        total,
        distinct: (total / 2).max(1),
    };
    MultiTenantStream::new(1, profile, 6_000 + u64::from(run))
        .map(|(_, e)| e)
        .collect()
}

/// Best-of-runs rates for the two ingest shapes over one boxed sampler.
/// Returns `(looped_eps, batched_eps)`; the pair is sample-checked for
/// agreement so the fast shape cannot drift from the slow one.
fn measure_sampler(scale: &Scale) -> (f64, f64) {
    let mut best_looped = 0.0f64;
    let mut best_batched = 0.0f64;
    for run in 0..scale.runs {
        let feed = sampler_feed(scale, run);
        let elements = feed.len() as f64;
        let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 91 + u64::from(run));

        let mut looped: Box<dyn DistinctSampler> = spec.build();
        let started = Instant::now();
        for &e in &feed {
            looped.observe(e);
        }
        best_looped = best_looped.max(elements / started.elapsed().as_secs_f64().max(1e-9));

        let mut batched: Box<dyn DistinctSampler> = spec.build();
        let started = Instant::now();
        for chunk in feed.chunks(FUSED_BATCH) {
            batched.observe_batch(chunk);
        }
        best_batched = best_batched.max(elements / started.elapsed().as_secs_f64().max(1e-9));

        assert_eq!(
            batched.sample(),
            looped.sample(),
            "batched ingest diverged from the per-element loop"
        );
    }
    (best_looped, best_batched)
}

/// Delta-vs-full checkpoint sizes at 1 % churn, with the compaction
/// verified byte-exact against the live document.
/// Returns `(full_bytes, delta_bytes)`.
fn measure_delta() -> (usize, usize) {
    let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 4_242);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
    let seed_batch: Vec<(TenantId, Element)> = (0..DELTA_TENANTS)
        .flat_map(|t| {
            (0..DELTA_SEED_PER_TENANT).map(move |i| (TenantId(t), Element(t * 1_000 + i)))
        })
        .collect();
    engine.observe_batch(seed_batch);
    let base = engine.checkpoint();
    let churn: Vec<(TenantId, Element)> = (0..DELTA_CHURN)
        .map(|t| (TenantId(t * 97 % DELTA_TENANTS), Element(999_000 + t)))
        .collect();
    engine.observe_batch(churn);
    let delta = engine
        .checkpoint_delta(&base)
        .expect("delta against own base");
    let folded = compact(&base, std::slice::from_ref(&delta)).expect("chain folds");
    assert_eq!(
        folded,
        engine.checkpoint(),
        "compacted delta chain diverged from the live full checkpoint"
    );
    let _ = engine.shutdown();
    (base.len(), delta.len())
}

/// Best-of-runs durable ingest rates at batch [`WIRE_BATCH`]:
/// `(in_process_eps, wire_eps)`, twin-verified.
fn measure_wire(scale: &Scale) -> (f64, f64) {
    let total = (WIRE_TOTAL_BASE / scale.divisor).max(WIRE_TENANTS * 10);
    let per_tenant = TraceProfile {
        name: "hot-path-wire",
        total: (total / WIRE_TENANTS).max(1),
        distinct: ((total / WIRE_TENANTS) / 2).max(1),
    };
    let mut best_local = 0.0f64;
    let mut best_wire = 0.0f64;
    for run in 0..scale.runs {
        let feed: Vec<(TenantId, Element)> =
            MultiTenantStream::new(WIRE_TENANTS, per_tenant, 7_000 + u64::from(run))
                .map(|(t, e)| (TenantId(t), e))
                .collect();
        let elements = feed.len() as f64;
        let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 23 + u64::from(run));

        let local = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
        let started = Instant::now();
        for chunk in feed.chunks(WIRE_BATCH) {
            local.observe_batch(chunk.iter().copied());
        }
        local.flush();
        best_local = best_local.max(elements / started.elapsed().as_secs_f64().max(1e-9));

        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
        let server = Server::bind_tcp("127.0.0.1:0", Arc::new(EngineHost::new(engine)))
            .expect("benchmark server binds");
        let addr = server.local_addr().expect("tcp endpoint");
        let client = Client::connect_tcp(addr)
            .expect("benchmark client connects")
            .with_batch_capacity(WIRE_BATCH);
        let started = Instant::now();
        for &(t, e) in &feed {
            client.observe(t, e).expect("wire ingest");
        }
        client.flush().expect("wire barrier");
        best_wire = best_wire.max(elements / started.elapsed().as_secs_f64().max(1e-9));

        for t in (0..WIRE_TENANTS).step_by(32) {
            assert_eq!(
                client.snapshot(TenantId(t)).expect("tenant hosted"),
                local.snapshot(TenantId(t)).expect("twin hosts"),
                "wire-served tenant {t} diverged from the in-process twin"
            );
        }
        let _ = local.shutdown();
        let _ = client.shutdown_engine().expect("served engine stops");
        let _ = server.shutdown();
    }
    (best_local, best_wire)
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    scale: &Scale,
    looped_eps: f64,
    batched_eps: f64,
    full_bytes: usize,
    delta_bytes: usize,
    local_eps: f64,
    wire_eps: f64,
    gate: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-hot-path/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"sampler\": {{");
    let _ = writeln!(out, "    \"batch\": {FUSED_BATCH},");
    let _ = writeln!(out, "    \"looped_elems_per_sec\": {looped_eps:.1},");
    let _ = writeln!(out, "    \"batched_elems_per_sec\": {batched_eps:.1},");
    let _ = writeln!(
        out,
        "    \"speedup\": {:.3},",
        batched_eps / looped_eps.max(1e-9)
    );
    let _ = writeln!(out, "    \"speedup_floor\": {SPEEDUP_FLOOR}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"delta_checkpoint\": {{");
    let _ = writeln!(
        out,
        "    \"tenants\": {DELTA_TENANTS}, \"churned\": {DELTA_CHURN},"
    );
    let _ = writeln!(out, "    \"full_bytes\": {full_bytes},");
    let _ = writeln!(out, "    \"delta_bytes\": {delta_bytes},");
    #[allow(clippy::cast_precision_loss)]
    let ratio = delta_bytes as f64 / (full_bytes as f64).max(1e-9);
    let _ = writeln!(out, "    \"ratio\": {ratio:.4},");
    let _ = writeln!(out, "    \"ceiling\": {DELTA_CEILING}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"wire\": {{");
    let _ = writeln!(out, "    \"batch\": {WIRE_BATCH},");
    let _ = writeln!(out, "    \"in_process_elems_per_sec\": {local_eps:.1},");
    let _ = writeln!(out, "    \"wire_elems_per_sec\": {wire_eps:.1},");
    let _ = writeln!(out, "    \"ratio\": {:.3},", wire_eps / local_eps.max(1e-9));
    let _ = writeln!(
        out,
        "    \"ratio_target\": {WIRE_RATIO_TARGET}, \"gated\": false"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"gate\": \"{gate}\"");
    out.push_str("}\n");
    out
}

/// Run the three hot-path measurements and persist
/// `BENCH_hot_path.json` with its pass/fail gate.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let (looped_eps, batched_eps) = measure_sampler(scale);
    let (full_bytes, delta_bytes) = measure_delta();
    let (local_eps, wire_eps) = measure_wire(scale);

    let speedup = batched_eps / looped_eps.max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let delta_ratio = delta_bytes as f64 / (full_bytes as f64).max(1e-9);
    let gate = if speedup >= SPEEDUP_FLOOR && delta_ratio <= DELTA_CEILING {
        "pass"
    } else {
        "fail"
    };

    let mut rate_set = SeriesSet::new(
        format!(
            "Extension (hot path) [{}]: fused-batch vs per-element sampler ingest",
            scale.label
        ),
        "ingest shape",
        "elements / second",
    );
    let mut series = Series::new("boxed sampler");
    series.push(1.0, looped_eps);
    #[allow(clippy::cast_precision_loss)]
    series.push(FUSED_BATCH as f64, batched_eps);
    rate_set.push(series);

    let mut wire_set = SeriesSet::new(
        format!(
            "Extension (hot path) [{}]: wire vs in-process durable ingest at batch {WIRE_BATCH}",
            scale.label
        ),
        "transport (1 = in-process, 2 = tcp)",
        "elements / second",
    );
    let mut series = Series::new("durable ingest");
    series.push(1.0, local_eps);
    series.push(2.0, wire_eps);
    wire_set.push(series);

    let json = to_json(
        scale,
        looped_eps,
        batched_eps,
        full_bytes,
        delta_bytes,
        local_eps,
        wire_eps,
        gate,
    );
    write_record(dir, "BENCH_hot_path.json", &json);
    vec![rate_set, wire_set]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::test_dir;

    fn tiny() -> Scale {
        Scale {
            divisor: 4_000,
            runs: 1,
            label: "test",
        }
    }

    #[test]
    fn writes_the_hot_path_record_with_a_gate() {
        let dir = test_dir("ext_hot_path");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 2);
        for series in sets.iter().flat_map(|s| &s.series) {
            assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        }
        let json =
            std::fs::read_to_string(dir.join("BENCH_hot_path.json")).expect("record written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-hot-path/v1\""));
        assert!(json.contains("\"gate\": \"pass\"") || json.contains("\"gate\": \"fail\""));
        // The delta bound is deterministic (no timing involved): at this
        // scale it must already hold.
        assert!(json.contains("\"ceiling\": 0.05"));
    }

    #[test]
    fn delta_measurement_is_within_its_ceiling() {
        let (full, delta) = measure_delta();
        #[allow(clippy::cast_precision_loss)]
        let ratio = delta as f64 / full as f64;
        assert!(
            ratio <= DELTA_CEILING,
            "1 % churn delta is {ratio:.4} of the full document (ceiling {DELTA_CEILING})"
        );
    }
}
