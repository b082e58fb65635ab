//! Extension: engine checkpoint/restore throughput and snapshot size,
//! swept over tenant count for the infinite- and sliding-window sampler
//! kinds.
//!
//! Each configuration ingests a slotted [`MultiTenantStream`] feed into
//! a fresh engine, then measures three durability quantities:
//!
//! * **checkpoint rate** — tenants serialized per second by
//!   [`Engine::checkpoint`] (FIFO flush barrier included);
//! * **restore rate** — tenants rebuilt per second by
//!   [`Engine::restore`] (spawn + decode + install + flush);
//! * **bytes per tenant** — the checkpoint document size divided by the
//!   hosted tenant count, the number a capacity planner multiplies by
//!   a fleet's tenant population.
//!
//! Every restore is verified against the source engine's samples for a
//! probe subset, so the numbers can never drift away from correctness.
//! A machine-readable `BENCH_engine_checkpoint.json` is written next to
//! the CSVs (`schema` field versions the format), giving later PRs a
//! durability-path trajectory to diff against.

use std::path::Path;
use std::time::Instant;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::metrics::{Series, SeriesSet};

use crate::output::write_record;
use crate::Scale;

const SHARDS: usize = 4;
const PER_SLOT: usize = 256;
const WINDOW: u64 = 128;
/// Full-scale per-tenant stream length (divided by the scale divisor,
/// floored so every tenant still has state worth checkpointing).
const PER_TENANT_BASE: u64 = 2_000;

/// One measured configuration, destined for
/// `BENCH_engine_checkpoint.json`.
struct Point {
    sampler: &'static str,
    tenants: u64,
    bytes: usize,
    bytes_per_tenant: f64,
    checkpoint_tenants_per_sec: f64,
    restore_tenants_per_sec: f64,
}

/// Build and fill one engine, then time checkpoint and restore.
fn measure(scale: &Scale, kind: SamplerKind, s: usize, tenants: u64) -> Point {
    let per_tenant = TraceProfile {
        name: "engine-checkpoint-sweep",
        total: (PER_TENANT_BASE / scale.divisor).max(20),
        distinct: (PER_TENANT_BASE / scale.divisor / 2).max(10),
    };
    let spec = SamplerSpec::new(kind, s, 31);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
    let feed = MultiTenantStream::new(tenants, per_tenant, 77).slotted(PER_SLOT);
    for (slot, batch) in feed {
        engine.observe_batch_at(slot, batch.into_iter().map(|(t, e)| (TenantId(t), e)));
    }
    engine.flush();

    let started = Instant::now();
    let bytes = engine.checkpoint();
    let checkpoint_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let restored = Engine::restore(&bytes).expect("benchmark checkpoint restores");
    let restore_secs = started.elapsed().as_secs_f64();

    // Durability numbers are only meaningful if the restore is right.
    for t in (0..tenants).step_by((tenants / 16).max(1) as usize) {
        assert_eq!(
            engine.snapshot(TenantId(t)),
            restored.snapshot(TenantId(t)),
            "restored tenant {t} diverged"
        );
    }
    let hosted = restored.metrics().tenants();
    assert_eq!(hosted as u64, tenants);
    let _ = engine.shutdown();
    let _ = restored.shutdown();

    let name = match kind {
        SamplerKind::Sliding { .. } => "sliding",
        _ => "infinite",
    };
    Point {
        sampler: name,
        tenants,
        bytes: bytes.len(),
        bytes_per_tenant: bytes.len() as f64 / tenants as f64,
        checkpoint_tenants_per_sec: tenants as f64 / checkpoint_secs.max(1e-9),
        restore_tenants_per_sec: tenants as f64 / restore_secs.max(1e-9),
    }
}

/// Render the measurement records as a stable, dependency-free JSON
/// document (`BENCH_engine_checkpoint.json`).
fn to_json(scale: &Scale, points: &[Point]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-engine-checkpoint/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"shards\": {SHARDS},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"sampler\": \"{}\", \"tenants\": {}, \"bytes\": {}, \
             \"bytes_per_tenant\": {:.1}, \"checkpoint_tenants_per_sec\": {:.1}, \
             \"restore_tenants_per_sec\": {:.1}}}{comma}",
            p.sampler,
            p.tenants,
            p.bytes,
            p.bytes_per_tenant,
            p.checkpoint_tenants_per_sec,
            p.restore_tenants_per_sec
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the checkpoint/restore sweep and persist
/// `BENCH_engine_checkpoint.json`.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let tenant_grid = [100u64, 1_000, 5_000];
    let kinds: [(&str, SamplerKind, usize); 2] = [
        ("infinite, s=8", SamplerKind::Infinite, 8),
        ("sliding, s=1", SamplerKind::Sliding { window: WINDOW }, 1),
    ];
    let mut points = Vec::new();
    let mut rate_set = SeriesSet::new(
        format!(
            "Extension (engine, checkpoint) [{}]: checkpoint rate vs tenants",
            scale.label
        ),
        "tenants",
        "checkpointed tenants / second",
    );
    let mut size_set = SeriesSet::new(
        format!(
            "Extension (engine, checkpoint) [{}]: snapshot size vs tenants",
            scale.label
        ),
        "tenants",
        "bytes / tenant",
    );
    for (label, kind, s) in kinds {
        let mut rate = Series::new(label.to_string());
        let mut size = Series::new(label.to_string());
        for &tenants in &tenant_grid {
            let p = measure(scale, kind, s, tenants);
            rate.push(tenants as f64, p.checkpoint_tenants_per_sec);
            size.push(tenants as f64, p.bytes_per_tenant);
            points.push(p);
        }
        rate_set.push(rate);
        size_set.push(size);
    }
    write_record(
        dir,
        "BENCH_engine_checkpoint.json",
        &to_json(scale, &points),
    );
    vec![rate_set, size_set]
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
    fn sweep_covers_the_grid_and_json_is_wellformed() {
        let dir = test_dir("ext_engine_checkpoint");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 2);
        for set in &sets {
            assert_eq!(set.series.len(), 2);
            for series in &set.series {
                assert_eq!(series.points.len(), 3);
                assert!(
                    series.points.iter().all(|&(_, y)| y > 0.0),
                    "non-positive measurement in {}",
                    set.title
                );
            }
        }
        let json = std::fs::read_to_string(dir.join("BENCH_engine_checkpoint.json"))
            .expect("BENCH_engine_checkpoint.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-engine-checkpoint/v1\""));
        assert_eq!(json.matches("\"sampler\"").count(), 6);
        assert!(!json.contains(",\n  ]"), "trailing comma in results");
    }
}
