//! # dds-cluster — true distributed deployment
//!
//! The simulator (`dds-sim`) runs the paper's distributed protocols
//! with an in-process message bus; this crate runs them across real
//! processes. A [`ClusterCoordinator`] runs one event loop over `k`
//! framed socket connections; each [`SiteDaemon`] ingests its share of
//! the stream locally, runs the per-site half of Algorithms 1–4 from
//! Chung & Tirthapura, and speaks a versioned wire dialect
//! ([`dds_proto::cluster`]) over the same `DDSP` framing the engine
//! server uses. A [`ClusterHandle`] drives the whole deployment —
//! observe, advance the sliding-window clock, query the sample, read
//! the exact per-site message/byte accounting. It buffers observations
//! per site and ships them at barriers, numbered so the coordinator can
//! apply the resulting ups in the order an in-process run would; a slot
//! advance does not wait for its own barrier, only for the one before.
//!
//! The load-bearing property is **twin-exactness**: a k-process
//! cluster produces byte-identical samples, identical
//! [`MessageCounters`](dds_sim::MessageCounters), and identical memory
//! footprints to `dds_sim::Cluster` (and through it the fused
//! single-process samplers) at every query point. The wire carries the
//! protocol; it never changes it. The integration tests in this crate
//! prove that for real OS processes via [`ProcessCluster`], and the
//! fault tests prove a site dying mid-stream surfaces as a typed
//! [`ClusterError::SiteDown`] rather than a hang or a wrong answer.
//!
//! ```no_run
//! use dds_cluster::LocalCluster;
//! use dds_core::sampler::{SamplerKind, SamplerSpec};
//! use dds_proto::cluster::ClusterSpec;
//! use dds_sim::Element;
//!
//! let spec = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 42), 4);
//! let mut cluster = LocalCluster::spawn(spec).unwrap();
//! for x in 0u64..10_000 {
//!     cluster.handle().observe_routed(Element(x % 1_000)).unwrap();
//! }
//! let sample = cluster.handle().sample().unwrap();
//! assert_eq!(sample.len(), 8);
//! let stats = cluster.shutdown().unwrap();
//! println!("{} protocol messages", stats.counters.total_messages());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod coordinator;
#[cfg(test)]
mod explorer;
mod handle;
mod local;
mod machine;
mod sequencer;
mod site;
#[cfg(test)]
mod tests;

pub use coordinator::ClusterCoordinator;
pub use handle::{fetch_telemetry, ClusterHandle, SITE_BUFFER_CAP};
pub use local::{LocalCluster, ProcessCluster};
pub use site::SiteDaemon;

// The wire vocabulary every API above speaks.
pub use dds_proto::cluster::{ClusterError, ClusterSpec, ClusterStats, SiteDaemonStats};
