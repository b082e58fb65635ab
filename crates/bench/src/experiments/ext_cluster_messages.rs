//! Extension: message complexity of the *real* distributed deployment.
//!
//! Every other experiment counts messages inside the simulator; this
//! one counts them on the wire. Each configuration boots a
//! `dds-cluster` deployment (coordinator + `k` site daemons on
//! loopback TCP — the same code paths as separate hosts), streams `n`
//! pairwise-distinct elements round-robin (the protocol's worst case:
//! every arrival is a new distinct element), and reads the exact
//! protocol message count from the coordinator's [`ClusterStats`](dds_cluster::ClusterStats).
//!
//! The sweep runs k × n × s and **asserts** the observed totals stay
//! inside the Lemma 4 envelope `E[Y] ≤ 2ks(1 + H_d − H_s)` (3× slack
//! for seed variance, the same margin `ext_bounds` uses), reports the
//! Θ(k·log n / log(k/s)) DRS yardstick, and measures the gap to the
//! Broadcast baseline — the broadcast-free protocol is the paper's
//! point, and the deployment must keep its advantage on real sockets.
//! A machine-readable `BENCH_cluster_messages.json` is written next to
//! the CSVs (`schema` field versions the format).

use std::path::Path;

use dds_cluster::LocalCluster;
use dds_core::bounds::{drs_theta, lemma4_upper};
use dds_core::broadcast::BroadcastConfig;
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::DistinctOnlyStream;
use dds_proto::cluster::ClusterSpec;
use dds_sim::metrics::{Series, SeriesSet};
use dds_sim::SiteId;

use crate::output::write_record;
use crate::Scale;

/// Full-scale elements per configuration (divided by the scale
/// divisor, floored so every site still participates).
const TOTAL_BASE: u64 = 40_000;

/// One measured configuration, destined for
/// `BENCH_cluster_messages.json`.
struct Point {
    k: usize,
    s: usize,
    elements: u64,
    /// Protocol messages observed on the wire (both directions).
    messages: u64,
    /// Protocol payload bytes observed on the wire.
    bytes: u64,
    /// Lemma 4 expectation bound for this (k, s, d).
    lemma4: f64,
    /// The DRS Θ(k log n / log(k/s)) yardstick.
    theta: f64,
    /// The Broadcast baseline's count on the identical stream.
    broadcast: u64,
}

/// Boot a real deployment, stream `n` distinct elements, return the
/// coordinator's exact accounting.
fn measure_cluster(k: usize, s: usize, n: u64, seed: u64) -> (u64, u64) {
    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, s, seed), k);
    let mut cluster = LocalCluster::spawn(spec).expect("cluster boots");
    for (i, e) in DistinctOnlyStream::new(n, seed).enumerate() {
        cluster
            .handle()
            .observe(SiteId(i % k), e)
            .expect("cluster ingest");
    }
    assert_eq!(
        cluster.handle().sample().expect("cluster sample").len(),
        s,
        "deployment failed to fill its sample"
    );
    let stats = cluster.shutdown().expect("graceful teardown");
    (
        stats.counters.total_messages(),
        stats.counters.total_bytes(),
    )
}

/// The Broadcast baseline on the identical stream (simulated — its
/// message count is what we compare against, not its transport).
fn measure_broadcast(k: usize, s: usize, n: u64, seed: u64) -> u64 {
    let mut cluster = BroadcastConfig::with_seed(s, seed).cluster(k);
    for (i, e) in DistinctOnlyStream::new(n, seed).enumerate() {
        cluster.observe(SiteId(i % k), e);
    }
    cluster.counters().total_messages()
}

fn measure(scale: &Scale, k: usize, s: usize) -> Point {
    let n = (TOTAL_BASE / scale.divisor)
        .max(8 * k as u64)
        .max(4 * s as u64);
    let mut messages = 0u64;
    let mut bytes = 0u64;
    let mut broadcast = 0u64;
    for run in 0..scale.runs {
        let seed = 9_000 + u64::from(run) * 131 + (k as u64) * 17 + s as u64;
        let (m, b) = measure_cluster(k, s, n, seed);
        messages += m;
        bytes += b;
        broadcast += measure_broadcast(k, s, n, seed);
    }
    let runs = u64::from(scale.runs);
    Point {
        k,
        s,
        elements: n,
        messages: messages / runs,
        bytes: bytes / runs,
        lemma4: lemma4_upper(k, s, n),
        theta: drs_theta(k, s, n),
        broadcast: broadcast / runs,
    }
}

/// Render the measurement records as a stable, dependency-free JSON
/// document (`BENCH_cluster_messages.json`).
fn to_json(scale: &Scale, points: &[Point]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"dds-cluster-messages/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(out, "  \"transport\": \"tcp-loopback\",");
    let _ = writeln!(out, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"k\": {}, \"s\": {}, \"elements\": {}, \"messages\": {}, \
             \"bytes\": {}, \"lemma4_bound\": {:.1}, \"drs_theta\": {:.1}, \
             \"broadcast_messages\": {}, \"vs_bound\": {:.3}, \"vs_broadcast\": {:.3}}}{comma}",
            p.k,
            p.s,
            p.elements,
            p.messages,
            p.bytes,
            p.lemma4,
            p.theta,
            p.broadcast,
            p.messages as f64 / p.lemma4,
            p.messages as f64 / p.broadcast.max(1) as f64,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the deployment message sweep and persist
/// `BENCH_cluster_messages.json`.
///
/// # Panics
/// Panics if any configuration exceeds the Lemma 4 envelope — the
/// deployment claiming the paper's communication bound is the whole
/// point of this experiment.
#[must_use]
pub fn run(scale: &Scale, dir: &Path) -> Vec<SeriesSet> {
    let k_grid = [2usize, 4, 8];
    let s_grid = [4usize, 16];
    let mut points = Vec::new();
    let mut msg_set = SeriesSet::new(
        format!(
            "Extension (cluster, wire) [{}]: deployment messages vs sites k",
            scale.label
        ),
        "number of sites k",
        "protocol messages",
    );
    for &s in &s_grid {
        let mut observed = Series::new(format!("deployment (s={s})"));
        let mut bound = Series::new(format!("Lemma 4 bound (s={s})"));
        let mut broadcast = Series::new(format!("broadcast baseline (s={s})"));
        for &k in &k_grid {
            let p = measure(scale, k, s);
            assert!(
                (p.messages as f64) <= 3.0 * p.lemma4,
                "k={k} s={s}: deployment sent {} messages, Lemma 4 envelope is {:.0}",
                p.messages,
                p.lemma4
            );
            observed.push(k as f64, p.messages as f64);
            bound.push(k as f64, p.lemma4);
            broadcast.push(k as f64, p.broadcast as f64);
            points.push(p);
        }
        msg_set.push(observed);
        msg_set.push(bound);
        msg_set.push(broadcast);
    }
    write_record(dir, "BENCH_cluster_messages.json", &to_json(scale, &points));
    vec![msg_set]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::test_dir;

    fn tiny() -> Scale {
        Scale {
            divisor: 100,
            runs: 1,
            label: "test",
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_respects_the_bound() {
        let dir = test_dir("ext_cluster_messages");
        let sets = run(&tiny(), &dir);
        assert_eq!(sets.len(), 1);
        // Two s values × (deployment, bound, broadcast) series.
        assert_eq!(sets[0].series.len(), 6);
        for series in &sets[0].series {
            assert_eq!(series.points.len(), 3, "k grid has three points");
            assert!(series.points.iter().all(|&(_, y)| y > 0.0));
        }
        let json = std::fs::read_to_string(dir.join("BENCH_cluster_messages.json"))
            .expect("BENCH_cluster_messages.json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"schema\": \"dds-cluster-messages/v1\""));
        assert_eq!(json.matches("\"vs_bound\"").count(), 6);
        assert!(!json.contains(",\n  ]"), "trailing comma in results");
    }
}
