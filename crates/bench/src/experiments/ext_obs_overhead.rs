//! Extension: what does the observability layer cost?
//!
//! Times durable batched ingest through a fresh [`Engine`] — the most
//! instrumented hot path in the workspace (per-shard counters, batch
//! histograms, queue-depth gauges) — and reports elements/second for
//! the build it was compiled into:
//!
//! * **instrumented** (default): every `dds-obs` recording live;
//! * **noop** (`--features obs-noop`): the same binary shape with all
//!   recording and clock reads compiled out — the "we never built an
//!   observability layer" baseline.
//!
//! Each mode times at least `MIN_RUNS` runs of at least `RUN_TIME`
//! each, whatever the scale: a run re-feeds its engine (each pass with
//! fresh element ids) until the time is up. The record carries the
//! median, minimum and maximum rate, and the gate compares medians. Runs
//! of ~1 ms (10 000 elements at quick scale) read −35 % to +188 % on an
//! unchanged engine and failed the gate in 7 of 13 rounds.
//!
//! The noop build writes `BENCH_obs_overhead_noop.json`; the
//! instrumented build writes `BENCH_obs_overhead.json`, and when the
//! noop baseline file is present it also computes a `gate`: `"pass"`
//! when instrumented ingest is within `MAX_OVERHEAD_FRACTION` of the
//! baseline, `"fail"` otherwise, `"n/a"` when no baseline has been
//! recorded. CI runs the noop build first and then greps the
//! instrumented file for `"gate": "pass"` — the observability layer is
//! overhead-pinned, not just overhead-measured.

use std::path::Path;
use std::time::{Duration, Instant};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Element;

use crate::output::write_record;
use crate::Scale;

const SHARDS: usize = 4;
const TENANTS: u64 = 500;
const BATCH: usize = 256;
const SAMPLE_SIZE: usize = 8;
/// Full-scale elements per pass (divided by the scale divisor).
const TOTAL_BASE: u64 = 4_000_000;
/// Fewest timed runs per mode.
const MIN_RUNS: u32 = 5;
/// Shortest timed run: passes repeat until it is reached.
const RUN_TIME: Duration = Duration::from_millis(200);
/// The gate: instrumented ingest may be at most this much slower than
/// the obs-noop baseline.
const MAX_OVERHEAD_FRACTION: f64 = 0.10;

/// Time batched ingest: at least `MIN_RUNS` runs, each at least
/// `RUN_TIME` long. Returns the elements of one pass and each run's
/// elements per second, ascending.
fn measure(scale: &Scale) -> (u64, Vec<f64>) {
    let total = (TOTAL_BASE / scale.divisor).max(TENANTS * 10);
    let per_tenant = TraceProfile {
        name: "obs-overhead",
        total: (total / TENANTS).max(1),
        distinct: ((total / TENANTS) / 2).max(1),
    };
    let pass_elements = per_tenant.total * TENANTS;
    let mut rates = Vec::new();
    for run in 0..scale.runs.max(MIN_RUNS) {
        let feed: Vec<(TenantId, Element)> =
            MultiTenantStream::new(TENANTS, per_tenant, 4_000 + u64::from(run))
                .map(|(t, e)| (TenantId(t), e))
                .collect();
        let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 17 + u64::from(run));
        let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
        let mut elements = 0u64;
        let started = Instant::now();
        for pass in 0u64.. {
            // Each pass's ids are new to every tenant, so later passes
            // do a first pass's sampling work rather than rejecting
            // repeats.
            let offset = pass << 40;
            for chunk in feed.chunks(BATCH) {
                engine.observe_batch(
                    chunk
                        .iter()
                        .map(|&(t, e)| (t, Element(e.0.wrapping_add(offset)))),
                );
            }
            elements += pass_elements;
            if started.elapsed() >= RUN_TIME {
                break;
            }
        }
        engine.flush();
        let secs = started.elapsed().as_secs_f64();
        rates.push(elements as f64 / secs.max(1e-9));
        if !dds_obs::IS_NOOP && run == 0 {
            // The thing being priced must also be *right*: the registry
            // must have counted exactly what was ingested.
            let counted = engine.telemetry().counter_total("engine_elements_total");
            assert_eq!(counted, elements, "registry lost elements");
        }
        let _ = engine.shutdown();
    }
    rates.sort_by(f64::total_cmp);
    (pass_elements, rates)
}

/// Pull `"elems_per_sec": <number>` out of a baseline JSON file without
/// a JSON dependency — the file is ours and the key appears once.
fn extract_rate(json: &str) -> Option<f64> {
    let key = "\"elems_per_sec\": ";
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The median of ascending rates: the figure the gate compares.
fn median(rates: &[f64]) -> f64 {
    rates[rates.len() / 2]
}

fn to_json(
    scale: &Scale,
    elements: u64,
    rates: &[f64],
    noop_rate: Option<f64>,
    gate: Option<&str>,
) -> String {
    use std::fmt::Write;
    let mode = if dds_obs::IS_NOOP {
        "noop"
    } else {
        "instrumented"
    };
    let rate = median(rates);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-obs-overhead/v2\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        out,
        "  \"shards\": {SHARDS}, \"tenants\": {TENANTS}, \"batch\": {BATCH},"
    );
    let _ = writeln!(out, "  \"elements_per_pass\": {elements},");
    let _ = writeln!(
        out,
        "  \"runs\": {}, \"min_run_ms\": {},",
        rates.len(),
        RUN_TIME.as_millis()
    );
    let _ = writeln!(out, "  \"elems_per_sec\": {rate:.1},");
    let _ = writeln!(
        out,
        "  \"elems_per_sec_min\": {:.1}, \"elems_per_sec_max\": {:.1},",
        rates[0],
        rates[rates.len() - 1]
    );
    match noop_rate {
        Some(nr) => {
            let _ = writeln!(out, "  \"noop_elems_per_sec\": {nr:.1},");
            let _ = writeln!(
                out,
                "  \"overhead_pct\": {:.2},",
                (nr / rate.max(1e-9) - 1.0) * 100.0
            );
        }
        None => {
            let _ = writeln!(out, "  \"noop_elems_per_sec\": null,");
            let _ = writeln!(out, "  \"overhead_pct\": null,");
        }
    }
    let _ = writeln!(out, "  \"max_overhead_fraction\": {MAX_OVERHEAD_FRACTION},");
    let _ = writeln!(out, "  \"gate\": \"{}\"", gate.unwrap_or("n/a"));
    out.push_str("}\n");
    out
}

/// Measure this build's ingest rate and persist the overhead record
/// into `dir` (an instrumented build reads the noop baseline from it).
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let (elements, rates) = measure(scale);
    let rate = median(&rates);
    let mode = if dds_obs::IS_NOOP {
        "noop"
    } else {
        "instrumented"
    };
    let mut set = SeriesSet::new(
        format!(
            "Extension (obs overhead) [{}]: durable ingest rate (median of {} runs), {mode} build",
            scale.label,
            rates.len()
        ),
        "build",
        "elements / second",
    );
    let mut series = Series::new(mode);
    series.push(1.0, rate);
    set.push(series);

    let (name, json) = if dds_obs::IS_NOOP {
        (
            "BENCH_obs_overhead_noop.json",
            to_json(scale, elements, &rates, None, None),
        )
    } else {
        let noop_rate = std::fs::read_to_string(dir.join("BENCH_obs_overhead_noop.json"))
            .ok()
            .and_then(|s| extract_rate(&s));
        let gate = noop_rate.map(|nr| {
            if rate >= (1.0 - MAX_OVERHEAD_FRACTION) * nr {
                "pass"
            } else {
                "fail"
            }
        });
        (
            "BENCH_obs_overhead.json",
            to_json(scale, elements, &rates, noop_rate, gate),
        )
    };
    write_record(dir, name, &json);
    vec![set]
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
    fn writes_the_overhead_record_for_this_build() {
        let dir = test_dir("ext_obs_overhead");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 1);
        assert!(sets[0].series[0].points[0].1 > 0.0, "non-positive rate");
        let name = if dds_obs::IS_NOOP {
            "BENCH_obs_overhead_noop.json"
        } else {
            "BENCH_obs_overhead.json"
        };
        let json = std::fs::read_to_string(dir.join(name)).expect("record written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-obs-overhead/v2\""));
        assert!(json.contains("\"gate\": ") || dds_obs::IS_NOOP);
        let rate = extract_rate(&json).expect("elems_per_sec parses back");
        assert!(rate > 0.0);
    }

    #[test]
    fn gate_logic_reads_the_baseline() {
        assert_eq!(extract_rate("{\"elems_per_sec\": 1234.5,"), Some(1234.5));
        assert_eq!(
            extract_rate("{\"elems_per_sec\": 7.5, \"elems_per_sec_min\": 1.0}"),
            Some(7.5)
        );
        assert_eq!(extract_rate("{\"elems_per_sec\": 10}"), Some(10.0));
        assert_eq!(extract_rate("{}"), None);
    }
}
