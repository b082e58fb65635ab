//! Bench target for Figure 5.1 (data-distribution methods): prints the
//! figure series, then times the lazy protocol's end-to-end observation
//! path through the synchronous simulator at the figure's configuration
//! (k = 5, s = 10).

use criterion::{black_box, criterion_group, Criterion};
use dds_bench::{InfiniteProtocol, InfiniteRun};
use dds_data::{Routing, ENRON};

fn protocol_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig51/observe");
    g.sample_size(10);
    let profile = ENRON.scaled_down(1_000);
    g.throughput(criterion::Throughput::Elements(profile.total));
    for routing in [Routing::Flooding, Routing::Random, Routing::RoundRobin] {
        g.bench_function(routing.label(), |b| {
            b.iter(|| {
                let spec = InfiniteRun {
                    k: 5,
                    s: 10,
                    routing,
                    profile,
                    stream_seed: 1,
                    hash_seed: 2,
                    route_seed: 3,
                    snapshots: 0,
                };
                black_box(
                    dds_bench::driver::run_infinite(InfiniteProtocol::Lazy, &spec).total_messages,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, protocol_throughput);

fn main() {
    dds_bench::bench_support::print_experiment("fig51");
    benches();
    Criterion::default().configure_from_args().final_summary();
}
