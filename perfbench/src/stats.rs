//! Small statistics helpers: latency recorders, percentiles, process
//! memory, and telemetry histogram roll-ups.

use std::time::{Duration, Instant};

use dds_obs::{HistogramSnapshot, TelemetrySnapshot};

/// Latencies in nanoseconds. A failed operation is recorded as
/// `u64::MAX`, so it counts as missing every percentile.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    nanos: Vec<u64>,
}

impl Latencies {
    /// Record one latency.
    pub fn push(&mut self, d: Duration) {
        self.nanos
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record a failed operation.
    pub fn push_failed(&mut self) {
        self.nanos.push(u64::MAX);
    }

    /// Fold another recorder in.
    pub fn merge(&mut self, other: Latencies) {
        self.nanos.extend(other.nanos);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// The nearest-rank `q`-quantile in microseconds (0 when empty).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut v = self.nanos.clone();
        v.sort_unstable();
        quantile_sorted(&v, q) as f64 / 1e3
    }
}

/// Width of the windows ingest is counted in. `ingest_eps` is the
/// median per-window rate, so a second the host stole from the run
/// moves it by one rank instead of dragging the mean.
pub const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Width of the windows read latencies are grouped in: at 100 reads/s
/// each window's p90 has 50 samples beyond it. Latency percentiles are
/// medians over these windows.
pub const LATENCY_WINDOW: Duration = Duration::from_secs(5);

/// The index of the `width` window holding `at`, in a phase that
/// started at `t0`.
fn window_of(t0: Instant, at: Instant, width: Duration) -> usize {
    (at.saturating_duration_since(t0).as_nanos() / width.as_nanos()) as usize
}

/// Read latencies grouped by the [`LATENCY_WINDOW`] their due time
/// falls in.
#[derive(Debug, Clone, Default)]
pub struct WindowedLatencies {
    windows: Vec<Latencies>,
}

impl WindowedLatencies {
    /// Record a read due at `due` in a phase started at `t0`: its
    /// latency, or `None` when it failed.
    pub fn push(&mut self, t0: Instant, due: Instant, latency: Option<Duration>) {
        let w = window_of(t0, due, LATENCY_WINDOW);
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Latencies::default);
        }
        match latency {
            Some(d) => self.windows[w].push(d),
            None => self.windows[w].push_failed(),
        }
    }

    /// Append another phase's windows.
    pub fn extend(&mut self, other: &WindowedLatencies) {
        self.windows.extend(other.windows.iter().cloned());
    }

    /// Every latency, windows merged.
    #[must_use]
    pub fn all(&self) -> Latencies {
        let mut out = Latencies::default();
        for w in &self.windows {
            out.merge(w.clone());
        }
        out
    }

    /// Median over windows of each window's `q`-quantile, in
    /// microseconds. Windows with fewer than half the fullest window's
    /// samples (a phase's partial last window) are left out.
    #[must_use]
    pub fn median_quantile_us(&self, q: f64) -> f64 {
        let full = self.windows.iter().map(Latencies::len).max().unwrap_or(0);
        let mut per: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty() && w.len() * 2 >= full)
            .map(|w| (w.quantile_us(q) * 1e3) as u64)
            .collect();
        per.sort_unstable();
        quantile_sorted(&per, 0.5) as f64 / 1e3
    }
}

/// Elements ingested per window of a phase.
#[derive(Debug, Clone)]
pub struct Throughput {
    t0: Instant,
    counts: Vec<u64>,
    total: u64,
}

impl Throughput {
    /// A phase starting at `t0`.
    #[must_use]
    pub fn new(t0: Instant) -> Throughput {
        Throughput {
            t0,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// `n` elements sent at `at`.
    pub fn add(&mut self, at: Instant, n: u64) {
        let w = window_of(self.t0, at, RATE_WINDOW);
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0);
        }
        self.counts[w] += n;
        self.total += n;
    }

    /// Elements sent in the phase.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Median per-window rate over the phase's complete windows, in
    /// elements per second; `total / wall` when no window completed.
    #[must_use]
    pub fn median_rate(&self, wall: Duration) -> f64 {
        let complete = (wall.as_nanos() / RATE_WINDOW.as_nanos()) as usize;
        let mut rates: Vec<u64> = self.counts.iter().take(complete).copied().collect();
        if rates.is_empty() {
            return ratio(self.total as f64, wall.as_secs_f64());
        }
        rates.sort_unstable();
        quantile_sorted(&rates, 0.5) as f64 / RATE_WINDOW.as_secs_f64()
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of durations, in seconds.
#[must_use]
pub fn median_secs(samples: &[Duration]) -> f64 {
    let mut v: Vec<u64> = samples.iter().map(|d| d.as_nanos() as u64).collect();
    v.sort_unstable();
    quantile_sorted(&v, 0.5) as f64 / 1e9
}

/// Sleep until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// An open-loop schedule: the `k`-th operation is due at `t0 + k·period`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    t0: Instant,
    period: Duration,
    next: u32,
}

impl Schedule {
    /// `rate` operations per second, starting at `t0`.
    #[must_use]
    pub fn new(t0: Instant, rate: f64) -> Schedule {
        Schedule {
            t0,
            period: Duration::from_secs_f64(1.0 / rate),
            next: 0,
        }
    }

    /// When the next operation is due (without consuming it).
    #[must_use]
    pub fn peek(&self) -> Instant {
        self.t0 + self.period * self.next
    }

    /// Consume and return the next due time.
    pub fn take(&mut self) -> Instant {
        let due = self.peek();
        self.next += 1;
        due
    }
}

/// One `kB` field of `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .trim_start_matches(field)
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Current resident set size, bytes (0 where `/proc` is unavailable).
#[must_use]
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:").unwrap_or(0)
}

/// Peak resident set size over the process lifetime, bytes.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

/// Every shard's (or site's) copy of histogram `name`, merged.
#[must_use]
pub fn merged_histogram(snap: &TelemetrySnapshot, name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for h in snap.histograms.iter().filter(|h| h.name == name) {
        out.merge(&h.hist);
    }
    out
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
