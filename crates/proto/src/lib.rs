//! # dds-proto — the engine's formal service API
//!
//! The paper's protocols are message-efficient coordination schemes
//! between remote sites and a coordinator; this crate gives the serving
//! layer the same discipline. It defines the *protocol* — not a
//! transport: versioned [`Request`] / [`Response`] enums covering the
//! full engine surface, a binary frame codec whose byte cost is exact
//! and observable, and the object-safe [`EngineService`] trait that the
//! in-process [`Engine`](dds_engine::Engine) and the wire server
//! (`dds-server`) both implement, so "local" and "remote" are the same
//! interface with different latencies.
//!
//! ## Layers
//!
//! | layer | module | contents |
//! |---|---|---|
//! | frames | [`frame`] | `DDSP` magic, version, opcode, `u32` length, MurmurHash64A checksum seeded with the opcode — 19 bytes of overhead per message, bounded before allocation |
//! | messages | [`message`] | [`Request`] / [`Response`] payload codecs over `dds_core::checkpoint`'s `StateWriter` / `StateReader` primitives; a structural [`EngineError`](dds_engine::EngineError) codec so failures round-trip losslessly |
//! | service | [`service`] | [`EngineService`] (request in → response out), implemented by `Engine` directly and by [`EngineHost`] (a replaceable engine slot that also serves `Restore` and `Shutdown`) |
//! | cluster | [`cluster`] | the site→coordinator dialect `dds-cluster` speaks: protocol ups/downs byte-equivalent to `dds_core::messages`, join/control handshakes keyed by a [`ClusterSpec`] digest, driver commands, typed [`ClusterError`]s |
//!
//! ## Versioning
//!
//! Every frame carries [`frame::VERSION`]; a peer speaking another
//! version is rejected before its payload is interpreted. Adding a
//! request is a new opcode (old servers answer `UnknownKind`, which the
//! client surfaces as a typed `Format` error); changing a payload is a
//! version bump.
//!
//! ## Why not serde
//!
//! The cost model is the point: Chapter 2 counts constant-size
//! messages, and the evaluation (and `ext_engine_wire`) measures bytes
//! per observation. A hand-laid little-endian codec with an explicit
//! overhead constant keeps the wire cost a checkable *number* rather
//! than an implementation detail — and reuses the exact primitives the
//! checkpoint envelope already trusts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod message;
pub mod service;
pub mod telemetry;

pub use cluster::{
    ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, ClusterStats, CoordDown,
    SiteDaemonStats, SiteUp,
};
pub use frame::{FrameError, MAX_PAYLOAD, OVERHEAD_BYTES};
pub use message::{
    decode_outcome, decode_outcome_frame, encode_outcome, opcode, Request, Response,
};
pub use service::{EngineHost, EngineService};
pub use telemetry::{get_telemetry, put_telemetry};

#[cfg(test)]
mod tests {
    use super::*;
    use dds_engine::TenantId;
    use dds_sim::Element;

    #[test]
    fn the_crate_surface_composes() {
        let request = Request::Observe {
            tenant: TenantId(1),
            element: Element(2),
        };
        let frame = request.encode();
        assert_eq!(frame.len(), OVERHEAD_BYTES + 16);
        assert_eq!(Request::decode_frame(&frame), Ok(request));
    }
}
