//! The metric catalogue and the name → value map a run fills in.
//!
//! The two tables below must match `BENCHMARK.json`: an untraced run
//! prints exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`],
//! each with its unit. A per-layer metric of a layer that is not on a
//! workload's path reads 0.

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_eps", "elem/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MiB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hash.ns_per_elem", "ns"),
    ("sampler.ns_per_elem", "ns"),
    ("sampler.memory_tuples", "count"),
    ("engine.ns_per_elem", "ns"),
    ("engine.call_us.p50", "us"),
    ("engine.call_us.p99", "us"),
    ("engine.apply_busy_share", "ratio"),
    ("engine.backpressure_per_batch", "ratio"),
    ("engine.queue_depth.mean", "count"),
    ("engine.snapshot_us.p50", "us"),
    ("engine.pool_hit_ratio", "ratio"),
    ("engine.checkpoint_bytes", "B"),
    ("engine.late_dropped", "count"),
    ("proto.encode_ns_per_elem", "ns"),
    ("proto.decode_ns_per_elem", "ns"),
    ("proto.cluster_codec_ns_per_msg", "ns"),
    ("client.call_us.p50", "us"),
    ("client.call_us.p99", "us"),
    ("client.flush_ms", "ms"),
    ("client.acks_pending.mean", "count"),
    ("client.reconnects", "count"),
    ("server.wakeups_per_request", "ratio"),
    ("server.ready_events.mean", "count"),
    ("server.respond_us.p50", "us"),
    ("cluster.observe_us.p50", "us"),
    ("cluster.observe_us.p99", "us"),
    ("cluster.advance_us.p50", "us"),
    ("cluster.settle_us.p50", "us"),
    ("cluster.up_msgs", "count"),
    ("cluster.down_msgs", "count"),
    ("cluster.late_up_msgs", "count"),
    ("cluster.coord_memory_tuples", "count"),
    ("gen.query_lag_us.p99", "us"),
    ("trace.overhead", "ratio"),
    ("span.gen.self_ns_per_elem", "ns"),
    ("span.client.self_ns_per_elem", "ns"),
    ("span.engine.self_ns_per_elem", "ns"),
    ("span.cluster.self_ns_per_elem", "ns"),
    ("checkpoint_ms", "ms"),
    ("wire_bytes_per_elem", "B"),
    ("msgs_per_kelem", "msgs"),
    ("query_p99_us", "us"),
    ("query_samples", "count"),
    ("error_rate", "ratio"),
];

/// Metric values by name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Record `name` (which must be in one of the tables) as `value`.
    ///
    /// # Panics
    /// On a name missing from both tables: a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let value = if value.is_finite() { value } else { f64::MAX };
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => self.values.push((name, unit, value)),
        }
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// Keep exactly the metrics of `table`, in its order.
    ///
    /// # Panics
    /// If a metric of `table` was never recorded: a bug in the
    /// benchmark, caught before a partial result is printed.
    #[must_use]
    pub fn select(&self, table: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            values: table
                .iter()
                .map(|&(name, unit)| {
                    let v = self
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was not measured"));
                    (name, unit, v)
                })
                .collect(),
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
