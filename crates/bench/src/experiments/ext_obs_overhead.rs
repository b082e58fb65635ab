//! Extension: what does the observability layer cost?
//!
//! Times durable batched ingest through a fresh [`Engine`] — the most
//! instrumented hot path in the workspace (per-shard counters, batch
//! histograms, queue-depth gauges) — in the build it was compiled into:
//!
//! * **instrumented** (default): every `dds-obs` recording live;
//! * **noop** (`--features obs-noop`): the same binary shape with all
//!   recording and clock reads compiled out — the "we never built an
//!   observability layer" baseline.
//!
//! On its own, `ext_obs_overhead` times one round: one run of at least
//! `RUN_TIME`, re-feeding its engine (each pass with fresh element ids)
//! until the time is up. The noop build records it in
//! `BENCH_obs_overhead_noop.json`, the instrumented build in
//! `BENCH_obs_overhead.json` with `"gate": "n/a"`.
//!
//! The gate is `experiments ext_obs_overhead --noop-bin <path>` from
//! the instrumented build, `<path>` being the obs-noop build of the
//! same binary. It runs at least `MIN_ROUNDS` rounds per build, each
//! round a fresh process of each build running the round above, and
//! alternates which build goes first. `BENCH_obs_overhead.json` then
//! carries both builds' median, minimum and maximum rates and a `gate`:
//! `"pass"` when the instrumented median is within
//! `MAX_OVERHEAD_FRACTION` of the noop median, `"fail"` otherwise.
//! CI greps it for `"gate": "pass"`. The two builds used to run as two
//! whole measurements one after the other, and on a 2-vCPU VM with
//! noisy neighbours their medians drifted ±20 % apart: an unchanged
//! tree failed 12 of 54 and 12 of 44 rounds. Interleaved, both builds
//! sample the same drift.

use std::path::Path;
use std::process::{Command, Stdio};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::Element;

use super::{in_turn, timed_rate, RUN_TIME};
use crate::output::{default_output_dir, write_record};
use crate::Scale;

const SHARDS: usize = 4;
const TENANTS: u64 = 500;
const BATCH: usize = 256;
const SAMPLE_SIZE: usize = 8;
/// Full-scale elements per pass (divided by the scale divisor).
const TOTAL_BASE: u64 = 4_000_000;
/// Fewest gate rounds per build. One round's rate varies by ~8 %
/// (coefficient of variation on a 2-vCPU VM), so medians of 5 rounds
/// failed an unchanged tree in 4 of 20 gates; of 21, in 0 of 20.
const MIN_ROUNDS: u32 = 21;
/// The gate: instrumented ingest may be at most this much slower than
/// the obs-noop baseline.
const MAX_OVERHEAD_FRACTION: f64 = 0.10;
/// Where each build records its round.
const NOOP_RECORD: &str = "BENCH_obs_overhead_noop.json";
const RECORD: &str = "BENCH_obs_overhead.json";

/// One tenant's share of a pass at this scale.
fn per_tenant(scale: &Scale) -> TraceProfile {
    let total = (TOTAL_BASE / scale.divisor).max(TENANTS * 10);
    TraceProfile {
        name: "obs-overhead",
        total: (total / TENANTS).max(1),
        distinct: ((total / TENANTS) / 2).max(1),
    }
}

/// Time one round of batched ingest in this process: elements per
/// second over one run of at least `RUN_TIME`.
fn measure(scale: &Scale) -> f64 {
    let per_tenant = per_tenant(scale);
    let feed: Vec<(TenantId, Element)> = MultiTenantStream::new(TENANTS, per_tenant, 4_000)
        .map(|(t, e)| (TenantId(t), e))
        .collect();
    let spec = SamplerSpec::new(SamplerKind::Infinite, SAMPLE_SIZE, 17);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
    let mut elements = 0u64;
    let rate = timed_rate(
        |pass| {
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
            elements += per_tenant.total * TENANTS;
            per_tenant.total * TENANTS
        },
        || engine.flush(),
    );
    if !dds_obs::IS_NOOP {
        // The thing being priced must also be *right*: the registry
        // must have counted exactly what was ingested.
        let counted = engine.telemetry().counter_total("engine_elements_total");
        assert_eq!(counted, elements, "registry lost elements");
    }
    let _ = engine.shutdown();
    rate
}

/// One round of the build at `bin`: its `ext_obs_overhead` in a fresh
/// process, read back from the `record` it writes where the
/// `experiments` binary writes.
fn round(bin: &Path, scale: &Scale, record: &str) -> f64 {
    let path = default_output_dir().join(record);
    // A stale record must not stand in for a round that wrote none.
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(bin);
    cmd.arg("ext_obs_overhead").args(scale.flag());
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()));
    assert!(status.success(), "{} failed: {status}", bin.display());
    std::fs::read_to_string(&path)
        .ok()
        .and_then(|json| extract_rate(&json))
        .unwrap_or_else(|| panic!("{} recorded no {record}", bin.display()))
}

/// Pull `"elems_per_sec": <number>` out of a record without a JSON
/// dependency — the file is ours and the key appears once.
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

/// `"pass"` when the instrumented median is within
/// `MAX_OVERHEAD_FRACTION` of the noop median.
fn verdict(instrumented: f64, noop: f64) -> &'static str {
    if instrumented >= (1.0 - MAX_OVERHEAD_FRACTION) * noop {
        "pass"
    } else {
        "fail"
    }
}

/// The record: this build's ascending `rates`, and with `noop` the
/// baseline's ascending rates and the gate.
fn to_json(scale: &Scale, rates: &[f64], noop: Option<&[f64]>) -> String {
    use std::fmt::Write;
    let mode = if dds_obs::IS_NOOP {
        "noop"
    } else {
        "instrumented"
    };
    let rate = median(rates);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-obs-overhead/v3\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        out,
        "  \"shards\": {SHARDS}, \"tenants\": {TENANTS}, \"batch\": {BATCH},"
    );
    let _ = writeln!(
        out,
        "  \"elements_per_pass\": {},",
        per_tenant(scale).total * TENANTS
    );
    let _ = writeln!(
        out,
        "  \"rounds\": {}, \"min_run_ms\": {},",
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
    let gate = match noop {
        Some(noop) => {
            let nr = median(noop);
            let _ = writeln!(out, "  \"noop_elems_per_sec\": {nr:.1},");
            let _ = writeln!(
                out,
                "  \"noop_elems_per_sec_min\": {:.1}, \"noop_elems_per_sec_max\": {:.1},",
                noop[0],
                noop[noop.len() - 1]
            );
            let _ = writeln!(
                out,
                "  \"overhead_pct\": {:.2},",
                (nr / rate.max(1e-9) - 1.0) * 100.0
            );
            verdict(rate, nr)
        }
        None => {
            let _ = writeln!(out, "  \"noop_elems_per_sec\": null,");
            let _ = writeln!(out, "  \"overhead_pct\": null,");
            "n/a"
        }
    };
    let _ = writeln!(out, "  \"max_overhead_fraction\": {MAX_OVERHEAD_FRACTION},");
    let _ = writeln!(out, "  \"gate\": \"{gate}\"");
    out.push_str("}\n");
    out
}

/// The figure: one median rate per build.
fn figure(scale: &Scale, rounds: usize, medians: &[(&str, f64)]) -> SeriesSet {
    let mut set = SeriesSet::new(
        format!(
            "Extension (obs overhead) [{}]: durable ingest rate (median of {rounds} rounds)",
            scale.label
        ),
        "build",
        "elements / second",
    );
    for &(mode, rate) in medians {
        let mut series = Series::new(mode);
        series.push(1.0, rate);
        set.push(series);
    }
    set
}

/// Time one round of this build and persist its record into `dir`.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let rate = measure(scale);
    let (mode, name) = if dds_obs::IS_NOOP {
        ("noop", NOOP_RECORD)
    } else {
        ("instrumented", RECORD)
    };
    write_record(dir, name, &to_json(scale, &[rate], None));
    vec![figure(scale, 1, &[(mode, rate)])]
}

/// The gate: alternate rounds of the obs-noop build at `noop_bin` and
/// of this (instrumented) build, each a fresh process, and persist
/// `BENCH_obs_overhead.json` with the verdict into `dir`.
///
/// # Panics
/// In an obs-noop build, or if a round's process fails or records no
/// rate (for example because `noop_bin` is not an obs-noop build).
#[must_use]
pub fn gate(scale: &Scale, dir: &Path, noop_bin: &Path) -> Vec<SeriesSet> {
    assert!(
        !dds_obs::IS_NOOP,
        "the gate runs from the instrumented build"
    );
    let this = std::env::current_exe().expect("the running binary's path");
    let (mut noop, mut instrumented) = (Vec::new(), Vec::new());
    for r in 0..scale.runs.max(MIN_ROUNDS) {
        let (n, i) = in_turn(
            r,
            || round(noop_bin, scale, NOOP_RECORD),
            || round(&this, scale, RECORD),
        );
        noop.push(n);
        instrumented.push(i);
    }
    noop.sort_by(f64::total_cmp);
    instrumented.sort_by(f64::total_cmp);
    write_record(dir, RECORD, &to_json(scale, &instrumented, Some(&noop)));
    vec![figure(
        scale,
        noop.len(),
        &[
            ("noop", median(&noop)),
            ("instrumented", median(&instrumented)),
        ],
    )]
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
            NOOP_RECORD
        } else {
            RECORD
        };
        let json = std::fs::read_to_string(dir.join(name)).expect("record written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-obs-overhead/v3\""));
        assert!(json.contains("\"gate\": \"n/a\""));
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
        let json = to_json(&tiny(), &[90.0, 95.0, 99.0], Some(&[100.0, 104.0, 110.0]));
        assert_eq!(extract_rate(&json), Some(95.0));
        assert!(json.contains("\"noop_elems_per_sec\": 104.0,"));
        assert!(json.contains("\"gate\": \"pass\""));
        assert_eq!(verdict(90.0, 100.0), "pass");
        assert_eq!(verdict(89.9, 100.0), "fail");
    }
}
