//! A guided tour of the observability layer, end to end — every claim
//! assertion-backed, so this example doubles as a CI smoke test:
//!
//! * the `dds-obs` primitives themselves: lock-free counters and
//!   gauges, a mergeable log-scale histogram with quantiles, span
//!   timers, the bounded event ring, and Prometheus-style rendering;
//! * a sharded engine behind a real TCP [`Server`], scraped over the
//!   wire with `Request::Telemetry`: the snapshot that travels the
//!   socket carries the engine's counters *exactly* (cross-checked
//!   against [`EngineMetrics`]) merged with the server's own
//!   per-connection and per-opcode accounting;
//! * a live distributed cluster (coordinator + site-daemon processes
//!   over loopback TCP) whose per-site protocol message and byte
//!   counters are read back through `ClusterRequest::Telemetry` and
//!   reconciled against the paper-exact [`ClusterStats`] accounting.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use std::sync::Arc;

use distinct_stream_sampling::obs;
use distinct_stream_sampling::prelude::*;

fn main() {
    registry_basics();
    engine_over_the_wire();
    cluster_per_site_accounting();
    println!("telemetry tour complete; all assertions passed ✓");
}

/// The core kit on its own: handles are cheap clones of atomic cells,
/// snapshots are consistent-enough copies, rendering is deterministic.
fn registry_basics() {
    let registry = Registry::new();
    let frames = registry.counter("tour_frames_total");
    let depth = registry.gauge("tour_queue_depth");
    let nanos = registry.histogram_with("tour_handle_nanos", &[("op", "observe")]);
    for i in 0..1_000u64 {
        frames.inc();
        depth.set(i % 17);
        nanos.observe(i * 31);
    }
    // A span: read the clock (skipped under obs-noop), then record.
    let started = obs::maybe_now();
    let elapsed = obs::nanos_since(started);
    nanos.observe(elapsed);
    registry
        .events()
        .note("tour_start", "registry basics recorded");

    let snap = registry.snapshot();
    if !obs::IS_NOOP {
        assert_eq!(snap.counter_total("tour_frames_total"), 1_000);
        assert_eq!(snap.gauge_value("tour_queue_depth", &[]), Some(999 % 17));
        let h = snap
            .histogram("tour_handle_nanos", &[("op", "observe")])
            .expect("observations recorded");
        assert_eq!(h.hist.count, 1_001, "1000 observes + 1 span");
        assert!(h.hist.quantile(0.99) >= h.hist.quantile(0.50));
        assert_eq!(snap.events.len(), 1);
    }
    let text = snap.render_text();
    assert!(obs::IS_NOOP || text.contains("tour_frames_total"));
    println!(
        "registry basics: 1000 increments, span of {elapsed} ns, {} rendered lines",
        text.lines().count()
    );
}

/// An engine served over loopback TCP: `client.telemetry()` returns the
/// engine's registry snapshot merged with the server's own metrics.
fn engine_over_the_wire() {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 991);
    let config = EngineConfig::new(spec).with_shards(4);
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(Engine::spawn(config))),
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("tcp endpoint");
    let client = Client::connect_tcp(addr)
        .expect("client connects")
        .with_batch_capacity(64);

    let per_tenant = TraceProfile {
        name: "tour-feed",
        total: 120,
        distinct: 40,
    };
    let feed = MultiTenantStream::new(50, per_tenant, 7);
    let mut sent = 0u64;
    for (tenant, element) in feed {
        client
            .observe(TenantId(tenant), element)
            .expect("wire ingest");
        sent += 1;
    }
    client.flush().expect("wire barrier");

    let wire = client.telemetry().expect("telemetry travels the wire");
    let report = client.shutdown_engine().expect("served engine stops");
    if !obs::IS_NOOP {
        // Engine section: the wire-fetched counters equal the engine's
        // own accounting, element for element.
        assert_eq!(wire.counter_total("engine_elements_total"), sent);
        assert_eq!(
            wire.counter_total("engine_elements_total"),
            report.metrics.total_elements()
        );
        assert_eq!(
            wire.counter_total("engine_batches_total"),
            report.metrics.total_batches()
        );
        // Server section: merged into the same snapshot by the serving
        // layer — one connection, non-zero frame and latency accounting.
        assert_eq!(
            wire.counter_value("server_connections_opened_total", &[]),
            Some(1)
        );
        assert!(wire.counter_total("server_frames_total") > 0);
        let handle = wire
            .histogram("server_handle_nanos", &[])
            .expect("handler latency recorded");
        assert!(handle.hist.count > 0);
        println!(
            "engine over the wire: {sent} elements scraped exactly; \
             p99 request handling {} ns over {} frames",
            handle.hist.quantile(0.99),
            wire.counter_total("server_frames_total")
        );
    } else {
        println!("engine over the wire: obs-noop build, counters compiled out");
    }
    let _ = server.shutdown();
}

/// A real cluster on loopback sockets: telemetry per site, reconciled
/// against the paper's message accounting.
fn cluster_per_site_accounting() {
    const K: usize = 3;
    let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 4242), K);
    let mut cluster = LocalCluster::spawn(spec).expect("cluster boots");
    for x in 0u64..600 {
        cluster
            .handle()
            .observe(SiteId((x % K as u64) as usize), Element(x % 200))
            .expect("site ingest");
    }
    let sample = cluster.handle().sample().expect("coordinator answers");
    assert_eq!(sample.len(), 8);

    let stats = cluster.handle().stats().expect("stats");
    let telemetry = cluster.handle().telemetry().expect("cluster telemetry");
    if !obs::IS_NOOP {
        // Per-site wire telemetry is byte-identical to the paper-exact
        // ClusterStats accounting (itself twin-exact with dds-sim).
        for site in 0..K {
            let labels = [("site", site.to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            assert_eq!(
                telemetry.counter_value("cluster_up_msgs_total", &labels),
                Some(stats.counters.up_messages_for(SiteId(site))),
                "site {site} up-message telemetry diverged"
            );
            assert_eq!(
                telemetry.counter_value("cluster_up_bytes_total", &labels),
                Some(stats.counters.up_bytes_for(SiteId(site))),
                "site {site} up-byte telemetry diverged"
            );
        }
        assert_eq!(telemetry.counter_total("cluster_joins_total"), K as u64);
        assert_eq!(
            telemetry.gauge_value("cluster_joined_sites", &[]),
            Some(K as u64)
        );
        println!(
            "cluster telemetry: {} up-messages across {K} sites match ClusterStats exactly",
            stats.counters.up_messages()
        );
    } else {
        println!("cluster telemetry: obs-noop build, counters compiled out");
    }
    // The rendered page an operator would scrape via
    // `dds-cluster-node telemetry <spec-hex> <coordinator-addr>`.
    let page = telemetry.render_text();
    assert!(obs::IS_NOOP || page.contains("cluster_up_msgs_total"));
    let _ = cluster.shutdown();
}
