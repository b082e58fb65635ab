//! Benchmark-side spans: one per public call the benchmark makes into
//! the program, kept in memory and written out when the run ends.
//!
//! A span records its name (`layer.call`), start, end, parent span and
//! request id. Spans of one thread nest strictly, so a span's self time
//! is its duration minus the durations of its direct children. With
//! tracing off, [`Tracer::enter`] and [`Tracer::exit`] only test a flag.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `client.observe_batch`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread, if any.
    pub parent: u32,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder that records only when `on`; all recorders of a run
    /// share `epoch`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span (a child of the innermost open one).
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Spans of every thread of a run.
#[derive(Debug, Default)]
pub struct SpanSet {
    threads: Vec<(&'static str, Vec<Span>)>,
}

impl SpanSet {
    /// Add one thread's spans under a thread label.
    pub fn add(&mut self, thread: &'static str, tracer: &Tracer) {
        self.threads.push((thread, tracer.spans().to_vec()));
    }

    /// Durations (ns) of every span called `name`, in any thread.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.threads
            .iter()
            .flat_map(|(_, s)| s.iter())
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Self time (ns) summed per layer: each span's duration minus the
    /// durations of its direct children.
    #[must_use]
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.nanos();
                }
            }
            for (s, children) in spans.iter().zip(child_ns) {
                let own = s.nanos().saturating_sub(children);
                match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                    Some(slot) => slot.1 += own,
                    None => out.push((s.layer(), own)),
                }
            }
        }
        out
    }

    /// Self time of one layer (0 when it has no spans).
    #[must_use]
    pub fn self_time(&self, layer: &str) -> u64 {
        self.self_time_by_layer()
            .into_iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| ns)
    }

    /// Write every span as CSV: `thread,id,parent,req,name,start_ns,end_ns`
    /// (`parent` is empty for a root span).
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "thread,id,parent,req,name,start_ns,end_ns")?;
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                write!(out, "{thread},{i},")?;
                if s.parent != NO_PARENT {
                    write!(out, "{}", s.parent)?;
                }
                writeln!(out, ",{},{},{},{}", s.req, s.name, s.start_ns, s.end_ns)?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("gen.ingest", 1);
        t.span("client.observe_batch", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.exit();
        let mut set = SpanSet::default();
        set.add("ingest", &t);
        let gen = set.self_time("gen");
        let client = set.self_time("client");
        let total = set.durations("gen.ingest")[0];
        assert!(client >= 2_000_000);
        assert_eq!(gen + client, total);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("engine.flush", 0, || ());
        assert!(t.spans().is_empty());
    }
}
