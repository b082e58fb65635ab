//! # dds-sim — the continuous distributed monitoring model, executable
//!
//! The paper's system model (Chapter 2): `k` **sites**, each observing a
//! local stream of elements with non-decreasing integer timestamps, plus one
//! **coordinator** that must *continuously* hold the query answer (the
//! "pro-active" model). Sites and coordinator are time-synchronized and
//! message delay is ignored; the performance measure is **the total number
//! of messages** exchanged.
//!
//! This crate is that model as a library:
//!
//! * [`model`] — element, site-id, and time-slot newtypes.
//! * [`message`] — the [`message::WireMessage`] trait: every protocol
//!   message can encode itself, so the network can account *bytes* as well
//!   as message counts (the paper argues constant message size makes the
//!   two equivalent; we measure both and let the benches verify it).
//! * [`protocol`] — the [`protocol::SiteNode`] / [`protocol::CoordinatorNode`]
//!   traits that the algorithms in `dds-core` implement.
//! * [`network`] — exact per-site, per-direction message and byte counters.
//! * [`runner`] — [`runner::Cluster`]: a deterministic, round-synchronous
//!   executor. An observation triggers the full site → coordinator →
//!   site(s) exchange *within the same time instant*, exactly matching the
//!   paper's zero-delay assumption.
//! * [`metrics`] — time-series recording (messages vs. elements observed,
//!   per-site memory vs. time) and CSV export for the experiment harness.
//! * [`fault`] — delivery-fault injection (duplication, reordering) used by
//!   the test suite to check protocol idempotence margins.
//!
//! The simulator is fully deterministic: same protocols + same observation
//! sequence ⇒ identical message counts, samples, and metrics. All
//! randomness lives in the protocols' hash functions and the workload
//! generators, both seeded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod message;
pub mod metrics;
pub mod model;
pub mod network;
pub mod protocol;
pub mod runner;

pub use message::WireMessage;
pub use model::{Element, SiteId, Slot};
pub use network::{Direction, MessageCounters};
pub use protocol::{CoordinatorNode, Destination, SiteNode};
pub use runner::Cluster;
