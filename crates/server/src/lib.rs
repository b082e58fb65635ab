//! # dds-server — wire transport for the engine service
//!
//! `dds-proto` defines the protocol; this crate moves it across real
//! sockets. [`Server`] runs any [`EngineService`](dds_proto::EngineService)
//! (normally an [`EngineHost`](dds_proto::EngineHost) wrapping an
//! engine) behind a TCP or Unix socket: one event loop owns every
//! connection, with framed decode, in-order pipelined responses, and
//! graceful shutdown. That loop, [`evented::EventLoop`], is generic
//! over a [`evented::Handler`]; the cluster coordinator in
//! `dds-cluster` runs the same loop with its own handler.
//! [`Client`] is the typed other end: the engine's full API with
//! client-side batching, ack pipelining, and exact byte accounting on
//! every frame.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dds_core::sampler::{SamplerKind, SamplerSpec};
//! use dds_engine::{Engine, EngineConfig, TenantId};
//! use dds_proto::EngineHost;
//! use dds_server::{Client, Server};
//! use dds_sim::Element;
//!
//! let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 42);
//! let host = Arc::new(EngineHost::new(Engine::spawn(EngineConfig::new(spec))));
//! let server = Server::bind_tcp("127.0.0.1:0", host).unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let client = Client::connect_tcp(addr).unwrap().with_batch_capacity(256);
//! for x in 0u64..10_000 {
//!     client.observe(TenantId(x % 16), Element(x % 1_000)).unwrap();
//! }
//! let sample = client.snapshot(TenantId(3)).unwrap();
//! assert_eq!(sample.len(), 8);
//! println!("{} bytes on the wire", client.stats().bytes_sent);
//! ```
//!
//! The loopback test suite proves a client-driven engine is byte-exact
//! with an in-process twin — same samples, same per-tenant protocol
//! message counts, same metrics — for infinite and sliding kinds, and
//! that `client.bytes_sent == server.bytes_received` exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod evented;
pub mod net;
mod server;

pub use client::{Client, ClientConfig, ClientStats};
pub use net::{Endpoint, Listener, Stream};
pub use server::{Server, ServerConfig, ServerStats};
