//! Extension: the time-robustness path's cost — reorder-buffered ingest
//! throughput across lateness horizons, gated against the in-order
//! baseline.
//!
//! Four configurations ingest the same multi-tenant windowed feed:
//!
//! * **baseline** — the legacy immediate-apply engine (no horizon);
//! * **lateness 0** — the horizon machinery enabled but degenerate: the
//!   in-order fast path must apply elements directly, so its throughput
//!   is the *cost of the bookkeeping alone*. Gated: the baseline may be
//!   at most `OVERHEAD_CEILING` × faster.
//! * **lateness 16 / 256** — the same feed arriving out of order
//!   (deterministic block-reversed interleaving whose displacement stays
//!   inside the horizon, so nothing drops), exercising the buffered
//!   path end to end. Report-only: buffering is expected to cost, the
//!   JSON records how much.
//!
//! Every horizon run's final census is verified against the baseline
//! engine's, so the throughput numbers can never drift away from
//! correctness. A second, deterministic check feeds a known number of
//! beyond-horizon elements and demands `engine_late_dropped_total`
//! account for every one — the drop counter is part of the gate, not
//! just the timing. `BENCH_engine_lateness.json` carries the record;
//! CI greps its `gate` field after a smoke run.

use std::path::Path;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::{Element, Slot};

use crate::output::write_record;
use crate::Scale;

const SHARDS: usize = 4;
const TENANTS: u64 = 200;
const WINDOW: u64 = 64;
const PER_SLOT: usize = 256;
/// Full-scale per-tenant stream length (divided by the scale divisor).
const PER_TENANT_BASE: u64 = 10_000;
/// Out-of-order horizons measured in addition to the degenerate 0.
const LATENESS_GRID: [u64; 2] = [16, 256];
/// The in-order baseline may be at most this multiple of the
/// lateness-0 rate: the reorder bookkeeping may cost at most 10 %.
const OVERHEAD_CEILING: f64 = 1.10;
/// Beyond-horizon elements injected by the drop-counter validation.
const VALIDATION_DROPS: u64 = 257;

/// One slotted feed: `(slot, batch)` in slot order.
fn feed(scale: &Scale, run: u32) -> Vec<(Slot, Vec<(TenantId, Element)>)> {
    let per_tenant = TraceProfile {
        name: "engine-lateness-sweep",
        total: (PER_TENANT_BASE / scale.divisor).max(50),
        distinct: (PER_TENANT_BASE / scale.divisor / 2).max(25),
    };
    MultiTenantStream::new(TENANTS, per_tenant, 88_000 + u64::from(run))
        .with_shared_ids(100)
        .slotted(PER_SLOT)
        .map(|(slot, batch)| {
            (
                slot,
                batch.into_iter().map(|(t, e)| (TenantId(t), e)).collect(),
            )
        })
        .collect()
}

/// Reverse the feed within blocks of `lateness` consecutive slots: a
/// deterministic out-of-order interleaving whose slot displacement is
/// strictly inside the horizon, so the drop rule never fires and the
/// final state must equal the in-order run's.
fn block_reversed(
    feed: &[(Slot, Vec<(TenantId, Element)>)],
    lateness: u64,
) -> Vec<(Slot, Vec<(TenantId, Element)>)> {
    let block = usize::try_from(lateness).unwrap_or(usize::MAX).max(1);
    let mut out = feed.to_vec();
    for chunk in out.chunks_mut(block) {
        chunk.reverse();
    }
    out
}

/// Time one full ingest of `batches` into a fresh engine; returns the
/// rate and the engine (for census verification), post-barrier.
fn measure(
    lateness: Option<u64>,
    batches: &[(Slot, Vec<(TenantId, Element)>)],
    seed: u64,
) -> (f64, Engine) {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: WINDOW }, 1, seed);
    let mut config = EngineConfig::new(spec).with_shards(SHARDS);
    if let Some(l) = lateness {
        config = config.with_lateness(l);
    }
    let engine = Engine::spawn(config);
    let elements: u64 = batches.iter().map(|(_, b)| b.len() as u64).sum();
    let last = batches.iter().map(|&(s, _)| s).max().unwrap_or(Slot(0));

    let started = Instant::now();
    for (slot, batch) in batches {
        engine.observe_batch_at(*slot, batch.iter().copied());
    }
    // Seal time at the end so every configuration pays for full
    // application (the horizon runs must drain their buffers).
    engine.advance(last);
    engine.flush();
    #[allow(clippy::cast_precision_loss)]
    let eps = elements as f64 / started.elapsed().as_secs_f64().max(1e-9);
    (eps, engine)
}

/// Deterministic drop accounting: raise the watermark, then inject a
/// known number of beyond-horizon elements. Returns `(expected,
/// counted)` — the gate demands they agree exactly.
fn validate_drop_counter() -> (u64, u64) {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: WINDOW }, 1, 99);
    let engine = Engine::spawn(
        EngineConfig::new(spec)
            .with_shards(SHARDS)
            .with_lateness(16),
    );
    for t in 0..8u64 {
        engine.observe_at(TenantId(t), Element(t), Slot(1_000));
    }
    engine.flush();
    for i in 0..VALIDATION_DROPS {
        // Slots far behind the horizon (watermark 1000, cut 984).
        engine.observe_at(TenantId(i % 8), Element(i), Slot(i % 100));
    }
    engine.flush();
    let counted = engine.metrics().total_late_dropped();
    let _ = engine.shutdown();
    (VALIDATION_DROPS, counted)
}

struct Measurement {
    label: &'static str,
    lateness: Option<u64>,
    eps: f64,
}

fn to_json(
    scale: &Scale,
    results: &[Measurement],
    overhead: f64,
    drops: (u64, u64),
    gate: &str,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-lateness/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(
        out,
        "  \"shards\": {SHARDS}, \"tenants\": {TENANTS}, \"window\": {WINDOW},"
    );
    let _ = writeln!(out, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let lateness = m
            .lateness
            .map_or_else(|| "null".to_string(), |l| l.to_string());
        let _ = writeln!(
            out,
            "    {{\"config\": \"{}\", \"lateness\": {lateness}, \
             \"elems_per_sec\": {:.1}}}{comma}",
            m.label, m.eps
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"overhead_at_zero\": {overhead:.4},");
    let _ = writeln!(out, "  \"overhead_ceiling\": {OVERHEAD_CEILING},");
    let _ = writeln!(
        out,
        "  \"late_drop_validation\": {{\"expected\": {}, \"counted\": {}}},",
        drops.0, drops.1
    );
    let _ = writeln!(out, "  \"gate\": \"{gate}\"");
    out.push_str("}\n");
    out
}

/// Run the lateness throughput sweep plus the drop-counter validation
/// and persist `BENCH_engine_lateness.json` with its pass/fail gate.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    // Best-of-runs for the two gated rates so scheduler noise cannot
    // flip the gate; the out-of-order horizons ride the last run.
    let mut best_baseline = 0.0f64;
    let mut best_zero = 0.0f64;
    let mut ooo: Vec<Measurement> = Vec::new();
    for run in 0..scale.runs.max(2) {
        let in_order = feed(scale, run);
        let (baseline_eps, baseline) = measure(None, &in_order, 7 + u64::from(run));
        let (zero_eps, zero) = measure(Some(0), &in_order, 7 + u64::from(run));
        best_baseline = best_baseline.max(baseline_eps);
        best_zero = best_zero.max(zero_eps);
        let reference = baseline.snapshot_all();
        assert_eq!(
            zero.snapshot_all(),
            reference,
            "lateness-0 ingest diverged from the legacy baseline"
        );
        ooo.clear();
        for lateness in LATENESS_GRID {
            let shuffled = block_reversed(&in_order, lateness);
            let (eps, engine) = measure(Some(lateness), &shuffled, 7 + u64::from(run));
            assert_eq!(
                engine.snapshot_all(),
                reference,
                "out-of-order ingest at lateness {lateness} diverged from the sorted baseline"
            );
            assert_eq!(
                engine.metrics().total_late_dropped(),
                0,
                "within-horizon interleaving must not drop"
            );
            let label = match lateness {
                16 => "ooo_lateness_16",
                _ => "ooo_lateness_256",
            };
            ooo.push(Measurement {
                label,
                lateness: Some(lateness),
                eps,
            });
            let _ = engine.shutdown();
        }
        let _ = baseline.shutdown();
        let _ = zero.shutdown();
    }

    let mut results = vec![
        Measurement {
            label: "baseline_in_order",
            lateness: None,
            eps: best_baseline,
        },
        Measurement {
            label: "lateness_0",
            lateness: Some(0),
            eps: best_zero,
        },
    ];
    results.append(&mut ooo);

    let overhead = best_baseline / best_zero.max(1e-9);
    let drops = validate_drop_counter();
    let gate = if overhead <= OVERHEAD_CEILING && drops.0 == drops.1 {
        "pass"
    } else {
        "fail"
    };

    let mut set = SeriesSet::new(
        format!(
            "Extension (engine, lateness) [{}]: ingest throughput vs lateness horizon",
            scale.label
        ),
        "lateness (slots; 0 = horizon machinery on, in-order)",
        "elements / second",
    );
    let mut series = Series::new("sliding, s=1".to_string());
    for m in &results {
        #[allow(clippy::cast_precision_loss)]
        series.push(m.lateness.unwrap_or(0) as f64, m.eps);
    }
    set.push(series);

    let json = to_json(scale, &results, overhead, drops, gate);
    write_record(dir, "BENCH_engine_lateness.json", &json);
    vec![set]
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
    fn sweep_verifies_correctness_and_writes_the_gated_record() {
        let dir = test_dir("ext_engine_lateness");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].series[0].points.len(), 4);
        assert!(sets[0].series[0].points.iter().all(|&(_, y)| y > 0.0));
        let json = std::fs::read_to_string(dir.join("BENCH_engine_lateness.json"))
            .expect("BENCH_engine_lateness.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-lateness/v1\""));
        assert!(json.contains("\"gate\": \"pass\"") || json.contains("\"gate\": \"fail\""));
        assert!(json.contains("\"overhead_ceiling\": 1.1"));
    }

    #[test]
    fn drop_counter_accounts_for_every_beyond_horizon_element() {
        let (expected, counted) = validate_drop_counter();
        assert_eq!(
            expected, counted,
            "engine_late_dropped_total lost track of refused elements"
        );
    }
}
