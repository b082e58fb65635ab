//! The repository benchmark: three workloads that drive the sampling
//! service through its public API, check every output against an
//! independent twin, and report end-to-end and per-layer metrics.
//!
//! * `wire_serve` — an evented wire server over a 2-shard engine, one
//!   pipelined ingest connection beside an open-loop query connection.
//! * `embedded_sliding` — an in-process engine of sliding-window
//!   tenants with late batches, delta checkpoints and open-loop reads.
//! * `cluster_sliding` — a coordinator and two site daemons over
//!   loopback TCP, the paper's own setting.
//!
//! Every input is generated from the seed before set-up. An untraced
//! run (`trace = false`) reports the end-to-end metrics; a traced run
//! records a span around every call the benchmark makes into the
//! program, replays the feed through each layer alone, and reports the
//! per-layer metrics (see `README.md` in this directory).

pub mod cluster;
pub mod embedded;
pub mod feed;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod wire;

use std::path::PathBuf;

pub use metrics::{Metrics, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Evented wire server, pipelined ingest beside open-loop snapshots.
    WireServe,
    /// In-process sliding-window engine, sampler-bound.
    EmbeddedSliding,
    /// Coordinator plus two site daemons over loopback TCP.
    ClusterSliding,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WireServe,
        Workload::EmbeddedSliding,
        Workload::ClusterSliding,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireServe => "wire_serve",
            Workload::EmbeddedSliding => "embedded_sliding",
            Workload::ClusterSliding => "cluster_sliding",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run, in seconds.
    pub seconds: f64,
    /// Traced run: spans, layer replays and per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its span dump and waterfall.
    pub out_dir: PathBuf,
    /// Test scale: small feeds and few tenants, for the benchmark's own
    /// tests.
    pub tiny: bool,
    /// Test hook: build every twin from a deliberately wrong input, so
    /// each correctness check must fire.
    pub diverge: bool,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Correctness checks that failed (empty when the run is correct).
    pub check_failures: Vec<String>,
    /// Operations attempted against the program.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Metrics,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Run one workload.
///
/// # Errors
/// A set-up failure (bind, connect, spawn) or an I/O error writing the
/// trace dump; correctness failures are reported in the [`Report`].
pub fn run(config: &Config) -> Result<Report, String> {
    match config.workload {
        Workload::WireServe => wire::run(config),
        Workload::EmbeddedSliding => embedded::run(config),
        Workload::ClusterSliding => cluster::run(config),
    }
}

/// Reads per second of every workload's open-loop reader. A read
/// under full ingest takes a few milliseconds on the engine workloads,
/// so this leaves the reader idle most of the time: a faster rate made
/// the reader's own backlog, not the system, set the latency.
pub(crate) const READ_RATE: f64 = 100.0;

/// Close a run: derive `ok_rate`/`error_rate` from the operation
/// counts and keep the metric set the run kind prints.
pub(crate) fn finish(cfg: &Config, mut m: Metrics, ops: Ops, failures: Vec<String>) -> Report {
    let error_rate = stats::ratio(ops.failed as f64, ops.attempted as f64);
    m.put("ok_rate", 1.0 - error_rate);
    m.put("error_rate", error_rate);
    let metrics = m.select(if cfg.trace { PER_LAYER } else { END_TO_END });
    Report {
        check_failures: failures,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}

/// The end-to-end metrics of the untraced phase, plus the read-side
/// ones every run reports: rates and latency percentiles are medians
/// over windows (see [`stats::RATE_WINDOW`] and
/// [`stats::LATENCY_WINDOW`]), `setup_s` the median set-up, and
/// `mem_peak_mb` the peak RSS growth since before set-up. Returns
/// `ingest_eps`.
pub(crate) fn put_end_to_end(
    m: &mut Metrics,
    throughput: &stats::Throughput,
    wall: std::time::Duration,
    queries: &stats::WindowedLatencies,
    lags: &stats::WindowedLatencies,
    setups: &[std::time::Duration],
    mem_growth: u64,
) -> f64 {
    let eps = throughput.median_rate(wall);
    m.put("ingest_eps", eps);
    m.put("query_p50_us", queries.median_quantile_us(0.5));
    m.put("query_p90_us", queries.median_quantile_us(0.9));
    m.put("query_p99_us", queries.median_quantile_us(0.99));
    m.put("query_samples", queries.all().len() as f64);
    m.put("gen.query_lag_us.p99", lags.all().quantile_us(0.99));
    m.put("setup_s", stats::median_secs(setups));
    m.put("mem_peak_mb", mem_growth as f64 / f64::from(1u32 << 20));
    eps
}

/// The layers whose self time a traced run reports.
const SPAN_LAYERS: [&str; 4] = ["gen", "client", "engine", "cluster"];

/// Per-layer self time of the traced phase, per element it ingested.
pub(crate) fn put_span_metrics(m: &mut Metrics, spans: &trace::SpanSet, elements: u64) {
    for layer in SPAN_LAYERS {
        m.put(
            &format!("span.{layer}.self_ns_per_elem"),
            stats::ratio(spans.self_time(layer) as f64, elements as f64),
        );
    }
}

/// Durations of every span called `name`.
pub(crate) fn span_latencies(spans: &trace::SpanSet, name: &str) -> stats::Latencies {
    let mut l = stats::Latencies::default();
    for ns in spans.durations(name) {
        l.push(std::time::Duration::from_nanos(ns));
    }
    l
}

/// Mean of counts (0 when empty).
pub(crate) fn mean(v: &[u64]) -> f64 {
    stats::ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
}

/// Write a traced run's span dump (`<workload>.spans.csv`) and its
/// waterfall (`<workload>.waterfall.txt`, also printed to stderr) into
/// the output directory.
///
/// # Errors
/// I/O errors creating the directory or writing either file.
pub(crate) fn write_trace_files(
    cfg: &Config,
    spans: &trace::SpanSet,
    m: &Metrics,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let io = |e: std::io::Error| format!("writing the trace dump: {e}");
    std::fs::create_dir_all(&cfg.out_dir).map_err(io)?;
    let name = cfg.workload.name();
    spans
        .write_csv(&cfg.out_dir.join(format!("{name}.spans.csv")))
        .map_err(io)?;
    let get = |k: &str| m.get(k).unwrap_or(0.0);
    let eps = get("ingest_eps");
    let rows = [
        ("hash kernel, isolated", get("hash.ns_per_elem")),
        ("fused sampler, isolated", get("sampler.ns_per_elem")),
        ("engine, isolated", get("engine.ns_per_elem")),
        (
            "frame encode + decode, isolated",
            get("proto.encode_ns_per_elem") + get("proto.decode_ns_per_elem"),
        ),
        ("end to end, untraced", stats::ratio(1e9, eps)),
        (
            "end to end, traced",
            stats::ratio(1e9, eps * get("trace.overhead")),
        ),
    ];
    let mut out = format!("waterfall: {name}, seed {}\n", cfg.seed);
    let _ = writeln!(out, "{:<34} {:>12}", "row", "ns/elem");
    for (row, ns) in rows {
        let _ = writeln!(out, "{row:<34} {ns:>12.1}");
    }
    let _ = writeln!(out, "\nself time of the traced phase, by layer");
    for (layer, ns) in spans.self_time_by_layer() {
        let _ = writeln!(out, "{layer:<34} {:>12.3} ms", ns as f64 / 1e6);
    }
    eprint!("{out}");
    std::fs::write(cfg.out_dir.join(format!("{name}.waterfall.txt")), out).map_err(io)
}

/// Counts of operations against the program, merged across threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Ops {
    /// Count one operation and pass its outcome through.
    pub fn count<T, E>(&mut self, outcome: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Fold another thread's counts in.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
