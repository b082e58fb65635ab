//! # distinct-stream-sampling
//!
//! A production-quality Rust implementation of **distinct random sampling
//! from distributed streams** (Chung & Tirthapura, IPDPS 2015): `k` sites
//! observe local streams; one coordinator continuously maintains a uniform
//! random sample of the *distinct* elements seen anywhere — with provably
//! near-optimal communication (`O(ks·ln(de/s))` messages, within 4× of the
//! lower bound) and O(1) memory per site.
//!
//! ## Quick start
//!
//! ```
//! use distinct_stream_sampling::prelude::*;
//!
//! // 4 sites, sample size 16, shared hash function.
//! let config = InfiniteConfig::new(16);
//! let mut cluster = config.cluster(4);
//!
//! // Observe elements at sites (here: round-robin).
//! for x in 0u64..10_000 {
//!     cluster.observe(SiteId((x % 4) as usize), Element(x % 1_000));
//! }
//!
//! // The coordinator can answer at any instant.
//! let sample = cluster.sample();
//! assert_eq!(sample.len(), 16);
//!
//! // Estimate the distinct count from the sample threshold.
//! let est = KmvEstimate::from_threshold_u64(16, cluster.coordinator().threshold().0);
//! assert!((est.estimate - 1_000.0).abs() / 1_000.0 < 0.8); // s=16 ⇒ coarse
//!
//! // Communication is the whole point: inspect it.
//! println!("{} messages", cluster.counters().total_messages());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`dds_core`] | the paper's algorithms: infinite window (Alg. 1–2), sliding windows (Alg. 3–4), Broadcast baseline, with-replacement, no-feedback variant, DRS baselines, analytic bounds |
//! | [`dds_sim`] | the continuous distributed monitoring model: site/coordinator traits, synchronous runner, exact message accounting |
//! | [`dds_treap`] | candidate-set structures for sliding windows: the flat staircase every sliding site runs (Lemma 10 keeps it logarithmic, so a sorted `Vec` replaces the paper's treap), its naive oracle, the s-skyband generalisation |
//! | [`dds_hash`] | one implementation per job: MurmurHash64A, the sampling hash behind seeded unit-interval families; SplitMix64 for seeding and mixing; FNV-1a 64 for spec digests |
//! | [`dds_data`] | calibrated OC48-like / Enron-like synthetic traces, Zipf, routing strategies, slotted schedules |
//! | [`dds_stats`] | KMV distinct-count estimation, predicate estimators, chi-square / KS machinery |
//! | [`dds_engine`] | sharded multi-tenant serving layer: thousands of sampler instances (infinite- or sliding-window) behind one batched, timestamped ingest path |
//! | [`dds_proto`] | the engine's formal service API: versioned request/response frames, byte-accounted codec, the transport-agnostic `EngineService` trait |
//! | [`dds_reactor`] | zero-dependency readiness core: raw-syscall `epoll` (with a `poll(2)` fallback), edge/level interest, and a cross-thread `Waker` |
//! | [`dds_server`] | wire transport: a TCP/Unix-socket server whose reactor-driven event loop holds thousands of sockets, plus the typed batching, reconnecting `Client` |
//! | [`dds_obs`] | zero-dependency observability core: lock-free counters/gauges, mergeable log-scale histograms, labeled registry, bounded event ring, wire-portable telemetry snapshots |
//! | [`dds_cluster`] | true distributed deployment: site-daemon and coordinator processes speaking the paper's protocols over sockets, byte-exact with the in-process twin |
//!
//! Run the evaluation-reproduction harness with
//! `cargo run -p dds-bench --release --bin experiments -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dds_cluster as cluster;
pub use dds_core as core;
pub use dds_data as data;
pub use dds_engine as engine;
pub use dds_hash as hash;
pub use dds_obs as obs;
pub use dds_proto as proto;
pub use dds_reactor as reactor;
pub use dds_server as server;
pub use dds_sim as sim;
pub use dds_stats as stats;
pub use dds_treap as treap;

/// The items most programs need, re-exported flat.
pub mod prelude {
    pub use dds_cluster::{
        ClusterError, ClusterHandle, ClusterSpec, ClusterStats, LocalCluster, ProcessCluster,
        SiteDaemon, SiteDaemonStats,
    };
    pub use dds_core::bounds::harmonic;
    pub use dds_core::broadcast::BroadcastConfig;
    pub use dds_core::centralized::{BottomS, CentralizedSampler, SlidingOracle};
    pub use dds_core::checkpoint::{restore_sampler, CheckpointError};
    pub use dds_core::infinite::{InfiniteConfig, LazyCoordinator, LazySite};
    pub use dds_core::sampler::{
        DistinctSampler, FusedInfinite, FusedSliding, FusedSlidingMulti, FusedWr, SamplerKind,
        SamplerSpec,
    };
    pub use dds_core::sliding::{CoordinatorMode, SlidingConfig, SwCoordinator, SwSite};
    pub use dds_core::sliding_multi::MultiSlidingConfig;
    pub use dds_core::sliding_nofeedback::NfConfig;
    pub use dds_core::with_replacement::WrConfig;
    pub use dds_data::{
        MultiTenantStream, PairStream, ReplayLog, RouteTarget, Router, Routing, SlottedInput,
        SlottedStream, TraceLikeStream, TraceProfile, ENRON, OC48,
    };
    pub use dds_engine::{
        Engine, EngineConfig, EngineError, EngineMetrics, EngineReport, TenantId, TenantView,
    };
    pub use dds_hash::{HashFamily, SeededHash, UnitHash, UnitValue};
    pub use dds_obs::{Registry, TelemetrySnapshot};
    pub use dds_proto::{EngineHost, EngineService, Request, Response};
    pub use dds_server::{Client, ClientConfig, ClientStats, Server, ServerConfig, ServerStats};
    pub use dds_sim::{Cluster, CoordinatorNode, Element, MessageCounters, SiteId, SiteNode, Slot};
    pub use dds_stats::{KmvEstimate, Summary};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_suffices_for_the_readme_example() {
        let config = InfiniteConfig::new(4);
        let mut cluster = config.cluster(2);
        for x in 0u64..100 {
            cluster.observe(SiteId((x % 2) as usize), Element(x % 10));
        }
        assert_eq!(cluster.sample().len(), 4);
        assert!(cluster.counters().total_messages() > 0);
    }
}
