//! Extension: multi-tenant engine ingest throughput, swept over shard
//! count × tenant count × ingest batch size.
//!
//! Each configuration pre-materializes a [`MultiTenantStream`] feed
//! (so generator cost stays out of the measurement), then times batched
//! ingest through a fresh [`Engine`] up to and including the final
//! [`Engine::flush`] barrier — i.e. the number reported is *durable*
//! elements per second, not enqueue rate.
//!
//! Besides the usual figure CSVs, this experiment writes a
//! machine-readable `BENCH_engine.json` next to them: one record per
//! configuration with its elements/s, giving later PRs a perf trajectory
//! to diff against (`schema` field versions the format). A report-only
//! `single_element` record sets one-element ingest through
//! [`Engine::observe`] against a one-element [`Engine::observe_batch`].

use std::path::Path;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};

use crate::output::write_record;
use crate::Scale;

const BASE_SHARDS: usize = 4;
const BASE_TENANTS: u64 = 1_000;
const BASE_BATCH: usize = 256;
const SAMPLE_SIZE: usize = 8;
/// Full-scale elements per configuration (divided by the scale divisor,
/// floored so every tenant still sees a handful of elements).
const TOTAL_BASE: u64 = 4_000_000;
/// The single-element point's configuration.
const SINGLE_SHARDS: usize = 2;
const SINGLE_TENANTS: u64 = 100;

/// One measured configuration, destined for `BENCH_engine.json`.
struct Point {
    sweep: &'static str,
    shards: usize,
    tenants: u64,
    batch: usize,
    elements: u64,
    elems_per_sec: f64,
}

fn total_for(scale: &Scale, tenants: u64) -> u64 {
    (TOTAL_BASE / scale.divisor).max(tenants * 10)
}

/// One-element ingest, two ways: `one_cmd` sends each element as one
/// allocation-free shard command ([`Engine::observe`]); `batch_of_one`
/// sends it as a one-element batch.
struct SingleElement {
    elements: u64,
    one_cmd: f64,
    batch_of_one: f64,
}

fn single_element(scale: &Scale) -> SingleElement {
    let (elements, one_cmd) = measure_with(scale, SINGLE_SHARDS, SINGLE_TENANTS, |engine, feed| {
        for &(t, e) in feed {
            engine.observe(t, e);
        }
    });
    let (_, batch_of_one) = measure(scale, SINGLE_SHARDS, SINGLE_TENANTS, 1);
    SingleElement {
        elements,
        one_cmd,
        batch_of_one,
    }
}

/// Time one configuration: returns (elements ingested, mean elements/s).
fn measure(scale: &Scale, shards: usize, tenants: u64, batch: usize) -> (u64, f64) {
    measure_with(scale, shards, tenants, |engine, feed| {
        for chunk in feed.chunks(batch) {
            engine.observe_batch(chunk.iter().copied());
        }
    })
}

/// [`measure`] with the feed handed to the engine by `ingest`.
fn measure_with(
    scale: &Scale,
    shards: usize,
    tenants: u64,
    ingest: impl Fn(&Engine, &[(TenantId, dds_sim::Element)]),
) -> (u64, f64) {
    let total = total_for(scale, tenants);
    let per_tenant = TraceProfile {
        name: "engine-sweep",
        total: (total / tenants).max(1),
        distinct: ((total / tenants) / 2).max(1),
    };
    let elements = per_tenant.total * tenants;
    let mut rate_sum = 0.0;
    for run in 0..scale.runs {
        let feed: Vec<(TenantId, dds_sim::Element)> =
            MultiTenantStream::new(tenants, per_tenant, 1_000 + u64::from(run))
                .map(|(t, e)| (TenantId(t), e))
                .collect();
        let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 7 + u64::from(run));
        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(shards));
        let started = Instant::now();
        ingest(&engine, &feed);
        engine.flush();
        let secs = started.elapsed().as_secs_f64();
        rate_sum += elements as f64 / secs.max(1e-9);
        let _ = engine.shutdown();
    }
    (elements, rate_sum / f64::from(scale.runs))
}

fn sweep<T: Copy + Into<f64>>(
    scale: &Scale,
    name: &'static str,
    values: &[T],
    configure: impl Fn(T) -> (usize, u64, usize),
    points: &mut Vec<Point>,
) -> SeriesSet {
    let mut set = SeriesSet::new(
        format!(
            "Extension (engine) [{}]: durable ingest rate vs {name}",
            scale.label
        ),
        name,
        "elements / second",
    );
    let mut series = Series::new(format!("infinite, s={SAMPLE_SIZE}"));
    for &v in values {
        let (shards, tenants, batch) = configure(v);
        let (elements, rate) = measure(scale, shards, tenants, batch);
        series.push(v.into(), rate);
        points.push(Point {
            sweep: name,
            shards,
            tenants,
            batch,
            elements,
            elems_per_sec: rate,
        });
    }
    set.push(series);
    set
}

/// Render the measurement records as a stable, dependency-free JSON
/// document (`BENCH_engine.json`).
fn to_json(scale: &Scale, points: &[Point], single: &SingleElement) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-throughput/v2\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"sampler\": \"infinite\",");
    let _ = writeln!(out, "  \"sample_size\": {SAMPLE_SIZE},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"sweep\": \"{}\", \"shards\": {}, \"tenants\": {}, \"batch\": {}, \
             \"elements\": {}, \"elems_per_sec\": {:.1}}}{comma}",
            p.sweep, p.shards, p.tenants, p.batch, p.elements, p.elems_per_sec
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"single_element\": {{\"shards\": {SINGLE_SHARDS}, \"tenants\": {SINGLE_TENANTS}, \
         \"elements\": {}, \"one_cmd_elems_per_sec\": {:.1}, \
         \"batch_of_one_elems_per_sec\": {:.1}}}",
        single.elements, single.one_cmd, single.batch_of_one
    );
    out.push_str("}\n");
    out
}

/// Run the three sweeps and the single-element point, and persist
/// `BENCH_engine.json` into `dir`.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let mut points = Vec::new();
    let sets = vec![
        sweep(
            scale,
            "shards",
            &[1u32, 2, 4, 8],
            |v| (v as usize, BASE_TENANTS, BASE_BATCH),
            &mut points,
        ),
        sweep(
            scale,
            "tenants",
            &[10u32, 100, 1_000, 10_000],
            |v| (BASE_SHARDS, u64::from(v), BASE_BATCH),
            &mut points,
        ),
        sweep(
            scale,
            "batch size",
            &[1u32, 16, 256, 4_096],
            |v| (BASE_SHARDS, BASE_TENANTS, v as usize),
            &mut points,
        ),
    ];
    let single = single_element(scale);
    println!(
        "single-element ingest ({SINGLE_SHARDS} shards, {SINGLE_TENANTS} tenants): \
         observe {:.0} elem/s, one-element observe_batch {:.0} elem/s ({:.2}×)\n",
        single.one_cmd,
        single.batch_of_one,
        single.one_cmd / single.batch_of_one
    );
    write_record(dir, "BENCH_engine.json", &to_json(scale, &points, &single));
    sets
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
    fn sweeps_cover_the_grid_and_json_is_wellformed() {
        let dir = test_dir("ext_engine");
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
        let json = std::fs::read_to_string(dir.join("BENCH_engine.json"))
            .expect("BENCH_engine.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-throughput/v2\""));
        assert_eq!(json.matches("\"sweep\"").count(), 12);
        assert!(json.contains("\"single_element\": {\"shards\": 2, \"tenants\": 100,"));
        assert!(!json.contains(",\n  ]"), "trailing comma in results");
    }

    #[test]
    fn batching_beats_single_element_sends() {
        // The point of batched ingest: at any scale, batch=256 should
        // comfortably outrun batch=1 (one channel message per element).
        let scale = tiny();
        let (_, single) = measure(&scale, 2, 100, 1);
        let (_, batched) = measure(&scale, 2, 100, 256);
        assert!(
            batched > 1.2 * single,
            "batched {batched:.0} elem/s not faster than single {single:.0} elem/s"
        );
    }
}
