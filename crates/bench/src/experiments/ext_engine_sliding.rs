//! Extension: time-aware engine ingest throughput over sliding-window
//! tenants, swept over shard count × tenant count × window size.
//!
//! Each configuration pre-materializes a slotted
//! [`MultiTenantStream`] feed (timeline mode — generator cost stays out
//! of the measurement), then times timestamped batched ingest
//! ([`Engine::observe_batch_at`]) through a fresh engine of
//! `Sliding { window }` tenants, up to and including the final
//! [`Engine::flush`] barrier — durable elements per second, with every
//! tenant's window clock advanced as the feed's slots pass.
//!
//! Like `ext_engine`, a machine-readable `BENCH_engine_sliding.json` is
//! written next to the CSVs: one record per configuration (`schema`
//! field versions the format), giving later PRs a windowed-serving perf
//! trajectory to diff against.

use std::path::Path;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Slot;

use crate::output::write_record;
use crate::Scale;

const BASE_SHARDS: usize = 4;
const BASE_TENANTS: u64 = 1_000;
const BASE_WINDOW: u64 = 128;
/// One slot's worth of feed per `observe_batch_at` call.
const PER_SLOT: usize = 256;
/// Full-scale elements per configuration (divided by the scale divisor,
/// floored so every tenant still sees a handful of elements).
const TOTAL_BASE: u64 = 2_000_000;

/// One measured configuration, destined for `BENCH_engine_sliding.json`.
struct Point {
    sweep: &'static str,
    shards: usize,
    tenants: u64,
    window: u64,
    elements: u64,
    elems_per_sec: f64,
}

fn total_for(scale: &Scale, tenants: u64) -> u64 {
    (TOTAL_BASE / scale.divisor).max(tenants * 10)
}

/// Time one configuration: returns (elements ingested, mean elements/s).
fn measure(scale: &Scale, shards: usize, tenants: u64, window: u64) -> (u64, f64) {
    let total = total_for(scale, tenants);
    let per_tenant = TraceProfile {
        name: "engine-sliding-sweep",
        total: (total / tenants).max(1),
        distinct: ((total / tenants) / 2).max(1),
    };
    let elements = per_tenant.total * tenants;
    let mut rate_sum = 0.0;
    for run in 0..scale.sliding_runs() {
        let feed: Vec<(Slot, Vec<(TenantId, dds_sim::Element)>)> =
            MultiTenantStream::new(tenants, per_tenant, 2_000 + u64::from(run))
                .slotted(PER_SLOT)
                .map(|(slot, batch)| {
                    (
                        slot,
                        batch.into_iter().map(|(t, e)| (TenantId(t), e)).collect(),
                    )
                })
                .collect();
        let spec = SamplerSpec::new(SamplerKind::Sliding { window }, 1, 7 + u64::from(run));
        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(shards));
        let started = Instant::now();
        for (slot, batch) in &feed {
            engine.observe_batch_at(*slot, batch.iter().copied());
        }
        engine.flush();
        let secs = started.elapsed().as_secs_f64();
        rate_sum += elements as f64 / secs.max(1e-9);
        let _ = engine.shutdown();
    }
    (elements, rate_sum / f64::from(scale.sliding_runs()))
}

fn sweep<T: Copy + Into<f64>>(
    scale: &Scale,
    name: &'static str,
    values: &[T],
    configure: impl Fn(T) -> (usize, u64, u64),
    points: &mut Vec<Point>,
) -> SeriesSet {
    let mut set = SeriesSet::new(
        format!(
            "Extension (engine, sliding) [{}]: durable timestamped ingest rate vs {name}",
            scale.label
        ),
        name,
        "elements / second",
    );
    let mut series = Series::new("sliding, s=1".to_string());
    for &v in values {
        let (shards, tenants, window) = configure(v);
        let (elements, rate) = measure(scale, shards, tenants, window);
        series.push(v.into(), rate);
        points.push(Point {
            sweep: name,
            shards,
            tenants,
            window,
            elements,
            elems_per_sec: rate,
        });
    }
    set.push(series);
    set
}

/// Render the measurement records as a stable, dependency-free JSON
/// document (`BENCH_engine_sliding.json`).
fn to_json(scale: &Scale, points: &[Point]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-sliding/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"sampler\": \"sliding\",");
    let _ = writeln!(out, "  \"per_slot\": {PER_SLOT},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"sweep\": \"{}\", \"shards\": {}, \"tenants\": {}, \"window\": {}, \
             \"elements\": {}, \"elems_per_sec\": {:.1}}}{comma}",
            p.sweep, p.shards, p.tenants, p.window, p.elements, p.elems_per_sec
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the three sweeps and persist `BENCH_engine_sliding.json` into
/// `dir`.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let mut points = Vec::new();
    let sets = vec![
        sweep(
            scale,
            "shards",
            &[1u32, 2, 4, 8],
            |v| (v as usize, BASE_TENANTS, BASE_WINDOW),
            &mut points,
        ),
        sweep(
            scale,
            "tenants",
            &[10u32, 100, 1_000, 10_000],
            |v| (BASE_SHARDS, u64::from(v), BASE_WINDOW),
            &mut points,
        ),
        sweep(
            scale,
            "window (slots)",
            &[16u32, 128, 1_024, 8_192],
            |v| (BASE_SHARDS, BASE_TENANTS, u64::from(v)),
            &mut points,
        ),
    ];
    write_record(dir, "BENCH_engine_sliding.json", &to_json(scale, &points));
    sets
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
    fn sweeps_cover_the_grid_and_json_is_wellformed() {
        let dir = test_dir("ext_engine_sliding");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 3);
        for set in &sets {
            assert_eq!(set.series.len(), 1);
            assert_eq!(set.series[0].points.len(), 4);
            assert!(
                set.series[0].points.iter().all(|&(_, y)| y > 0.0),
                "non-positive throughput in {}",
                set.title
            );
        }
        let json = std::fs::read_to_string(dir.join("BENCH_engine_sliding.json"))
            .expect("BENCH_engine_sliding.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-sliding/v1\""));
        assert_eq!(json.matches("\"sweep\"").count(), 12);
        assert!(!json.contains(",\n  ]"), "trailing comma in results");
    }
}
