//! The transport-agnostic service interface: one object-safe trait,
//! request in → response out.
//!
//! [`EngineService`] is the seam the wire layer plugs into: the
//! in-process [`Engine`] implements it by dispatching to its own
//! methods, a server loop implements "remote" by moving the same frames
//! across a socket, and anything generic over `&dyn EngineService`
//! (tests, benches, the client's loopback twin) cannot tell the two
//! apart — same requests, same responses, same errors.
//!
//! [`EngineHost`] wraps an engine in a replaceable slot so the full
//! protocol — including [`Request::Restore`], which swaps the running
//! engine for one rebuilt from a checkpoint document, and
//! [`Request::Shutdown`], after which every call answers
//! [`EngineError::ShutDown`] — is available to remote peers.

use std::sync::{PoisonError, RwLock};

use dds_engine::{Engine, EngineError, TenantId};
use dds_sim::{Element, Slot};

use crate::message::{Request, Response};

/// An engine reachable through the versioned request/response protocol
/// — in-process or at the far end of a transport.
///
/// Object-safe: servers hold `Arc<dyn EngineService>`, and callers are
/// generic over in-process and remote implementations.
pub trait EngineService: Send + Sync {
    /// Perform one request and produce its response.
    ///
    /// # Errors
    /// The unified [`EngineError`]: unknown tenants, shut-down engines,
    /// dead shard workers, malformed documents, unsupported requests,
    /// and (for remote implementations) transport failures.
    fn call(&self, request: Request) -> Result<Response, EngineError>;

    /// Ingest a decoded batch from a caller-owned buffer — the zero-copy
    /// seam the wire server's ingest fast path dispatches through.
    ///
    /// On success `batch` is drained — emptied with its capacity kept —
    /// so a connection loop can refill and resubmit the same buffer
    /// forever; on error its contents are unspecified but it stays
    /// reusable. `now` selects the timed shape. The default falls back
    /// to [`EngineService::call`] by taking the buffer's contents;
    /// implementations that can consume the drain without an owned
    /// `Vec` (the in-process engine) override it.
    ///
    /// # Errors
    /// As [`EngineService::call`] for the corresponding
    /// `ObserveBatch{,At}` request.
    fn observe_batch_slice(
        &self,
        now: Option<Slot>,
        batch: &mut Vec<(TenantId, Element)>,
    ) -> Result<Response, EngineError> {
        let batch: Vec<(TenantId, Element)> = batch.drain(..).collect();
        match now {
            Some(now) => self.call(Request::ObserveBatchAt { now, batch }),
            None => self.call(Request::ObserveBatch { batch }),
        }
    }
}

impl EngineService for Engine {
    /// Dispatch a protocol request to the engine's own methods.
    ///
    /// Everything maps one-to-one except [`Request::Restore`]: a bare
    /// engine cannot replace itself in place, so restores require an
    /// [`EngineHost`] (or a fresh `Engine::restore`); the request
    /// answers [`EngineError::Unsupported`] here.
    fn call(&self, request: Request) -> Result<Response, EngineError> {
        match request {
            Request::Observe { tenant, element } => {
                self.try_observe(tenant, element).map(|()| Response::Ack)
            }
            Request::ObserveAt {
                tenant,
                element,
                now,
            } => self
                .try_observe_at(tenant, element, now)
                .map(|()| Response::Ack),
            Request::ObserveBatch { batch } => {
                self.try_observe_batch(batch).map(|()| Response::Ack)
            }
            Request::ObserveBatchAt { now, batch } => self
                .try_observe_batch_at(now, batch)
                .map(|()| Response::Ack),
            Request::Advance { now } => self.try_advance(now).map(|()| Response::Ack),
            Request::Snapshot { tenant } => self
                .try_snapshot(tenant)
                .map(|sample| Response::Sample { sample }),
            Request::SnapshotAt { tenant, now } => self
                .try_snapshot_at(tenant, now)
                .map(|sample| Response::Sample { sample }),
            Request::SnapshotView { tenant, at } => self
                .try_snapshot_view(tenant, at)
                .map(|view| Response::View { view }),
            Request::SnapshotAll { at } => self
                .try_snapshot_all(at)
                .map(|tenants| Response::Census { tenants }),
            Request::Flush => self.try_flush().map(|()| Response::Ack),
            Request::Metrics => Ok(Response::Metrics {
                metrics: self.metrics(),
            }),
            Request::Telemetry => Ok(Response::Telemetry {
                snapshot: self.telemetry(),
            }),
            Request::Checkpoint => self
                .try_checkpoint()
                .map(|document| Response::CheckpointDocument { document }),
            Request::Restore { .. } => Err(EngineError::Unsupported(
                "a bare engine cannot replace itself; serve it behind an EngineHost".into(),
            )),
            Request::Shutdown => self
                .begin_shutdown()
                .map(|report| Response::Goodbye { report }),
        }
    }

    /// Drain the caller's buffer straight into the engine's sharded
    /// ingest — no owned `Vec` per batch; the buffer keeps its capacity
    /// for the next frame.
    fn observe_batch_slice(
        &self,
        now: Option<Slot>,
        batch: &mut Vec<(TenantId, Element)>,
    ) -> Result<Response, EngineError> {
        match now {
            Some(now) => self.try_observe_batch_at(now, batch.drain(..)),
            None => self.try_observe_batch(batch.drain(..)),
        }
        .map(|()| Response::Ack)
    }
}

/// An engine in a replaceable slot: the service implementation servers
/// hold, because it supports the *whole* protocol.
///
/// * [`Request::Restore`] rebuilds an engine from the carried
///   checkpoint document, swaps it in, and shuts the old one down — a
///   remote peer can roll a served engine back to any checkpoint.
/// * [`Request::Shutdown`] stops the engine and empties the slot;
///   every later request answers [`EngineError::ShutDown`] (exactly
///   what an in-process caller sees after `begin_shutdown`).
///
/// Reads (every other request) take a shared lock, so concurrent
/// connections dispatch into the engine in parallel; only
/// restore/shutdown serialize.
pub struct EngineHost {
    slot: RwLock<Option<Engine>>,
}

impl EngineHost {
    /// Host `engine` behind the protocol.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        Self {
            slot: RwLock::new(Some(engine)),
        }
    }

    /// Whether the hosted engine is still accepting requests.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.slot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }
}

impl EngineService for EngineHost {
    fn call(&self, request: Request) -> Result<Response, EngineError> {
        match request {
            Request::Restore { document } => {
                let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
                // Shutdown is final: a restore must not resurrect a host
                // the operator already stopped.
                if slot.is_none() {
                    return Err(EngineError::ShutDown);
                }
                // Validate and build the replacement before touching the
                // running engine: a bad document must leave it serving.
                let fresh = Engine::restore(&document)?;
                if let Some(old) = slot.take() {
                    let _ = old.begin_shutdown();
                }
                *slot = Some(fresh);
                Ok(Response::Ack)
            }
            Request::Shutdown => {
                let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
                let engine = slot.take().ok_or(EngineError::ShutDown)?;
                engine
                    .begin_shutdown()
                    .map(|report| Response::Goodbye { report })
            }
            other => {
                let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
                let engine = slot.as_ref().ok_or(EngineError::ShutDown)?;
                engine.call(other)
            }
        }
    }

    /// Forward the zero-copy ingest seam to the hosted engine (shared
    /// lock, like every other read-path request).
    fn observe_batch_slice(
        &self,
        now: Option<Slot>,
        batch: &mut Vec<(TenantId, Element)>,
    ) -> Result<Response, EngineError> {
        let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
        let engine = slot.as_ref().ok_or(EngineError::ShutDown)?;
        engine.observe_batch_slice(now, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::sampler::{SamplerKind, SamplerSpec};
    use dds_engine::{EngineConfig, TenantId};
    use dds_sim::Element;

    fn spec() -> SamplerSpec {
        SamplerSpec::new(SamplerKind::Infinite, 4, 99)
    }

    /// Generic over the trait on purpose: what this asserts holds for
    /// any implementation, including the remote client.
    fn drive(service: &dyn EngineService) {
        for i in 0..500u64 {
            let outcome = service
                .call(Request::Observe {
                    tenant: TenantId(i % 3),
                    element: Element(i % 50),
                })
                .expect("ingest accepted");
            assert_eq!(outcome, Response::Ack);
        }
        let Ok(Response::Sample { sample }) = service.call(Request::Snapshot {
            tenant: TenantId(0),
        }) else {
            panic!("snapshot did not answer a sample");
        };
        assert_eq!(sample.len(), 4);
        assert_eq!(
            service.call(Request::Snapshot {
                tenant: TenantId(404)
            }),
            Err(EngineError::UnknownTenant(TenantId(404)))
        );
    }

    #[test]
    fn engine_dispatch_matches_direct_calls() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        drive(&engine);
        let direct = engine.snapshot(TenantId(1)).expect("tenant exists");
        let Ok(Response::Sample { sample }) = engine.call(Request::Snapshot {
            tenant: TenantId(1),
        }) else {
            panic!("no sample");
        };
        assert_eq!(sample, direct);
        let Ok(Response::Goodbye { report }) = engine.call(Request::Shutdown) else {
            panic!("no goodbye");
        };
        assert_eq!(report.metrics.total_elements(), 500);
        assert_eq!(
            engine.call(Request::Flush),
            Err(EngineError::ShutDown),
            "post-shutdown calls answer typed errors"
        );
    }

    #[test]
    fn observe_batch_slice_drains_and_matches_the_request_path() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let twin = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let host = EngineHost::new(engine);
        let mut buf: Vec<(TenantId, Element)> = Vec::new();
        for round in 0..20u64 {
            buf.extend((0..64u64).map(|i| (TenantId(i % 5), Element(round * 64 + i))));
            let twin_batch = buf.clone();
            let grown = buf.capacity();
            assert_eq!(
                host.observe_batch_slice(None, &mut buf).expect("ingest"),
                Response::Ack
            );
            assert!(buf.is_empty(), "the seam must drain the buffer");
            assert_eq!(buf.capacity(), grown, "the seam must keep the capacity");
            twin.try_observe_batch(twin_batch).expect("twin ingest");
        }
        for t in 0..5u64 {
            assert_eq!(
                host.call(Request::Snapshot {
                    tenant: TenantId(t)
                }),
                Ok(Response::Sample {
                    sample: twin.snapshot(TenantId(t)).expect("twin tenant")
                }),
                "tenant {t} diverged from the owned-Vec request path"
            );
        }
        host.call(Request::Shutdown).expect("shutdown");
        buf.push((TenantId(1), Element(1)));
        assert_eq!(
            host.observe_batch_slice(Some(dds_sim::Slot(3)), &mut buf),
            Err(EngineError::ShutDown)
        );
        let _ = twin.shutdown();
    }

    #[test]
    fn bare_engine_rejects_restore() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        assert!(matches!(
            engine.call(Request::Restore { document: vec![] }),
            Err(EngineError::Unsupported(_))
        ));
        let _ = engine.shutdown();
    }

    #[test]
    fn host_supports_restore_and_shutdown() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let host = EngineHost::new(engine);
        drive(&host);
        // Checkpoint through the protocol, keep ingesting, then roll
        // back by restoring the document: the extra element vanishes.
        let Ok(Response::CheckpointDocument { document }) = host.call(Request::Checkpoint) else {
            panic!("no checkpoint document");
        };
        host.call(Request::Observe {
            tenant: TenantId(7),
            element: Element(1),
        })
        .expect("ingest accepted");
        host.call(Request::Restore { document })
            .expect("restore succeeds");
        assert_eq!(
            host.call(Request::Snapshot {
                tenant: TenantId(7)
            }),
            Err(EngineError::UnknownTenant(TenantId(7))),
            "restored engine predates tenant 7"
        );
        // A malformed document must leave the engine serving.
        assert!(matches!(
            host.call(Request::Restore {
                document: vec![1, 2, 3]
            }),
            Err(EngineError::Format(_))
        ));
        assert!(host.is_running());
        let Ok(Response::Goodbye { .. }) = host.call(Request::Shutdown) else {
            panic!("no goodbye");
        };
        assert!(!host.is_running());
        assert_eq!(host.call(Request::Metrics), Err(EngineError::ShutDown));
        assert_eq!(host.call(Request::Shutdown), Err(EngineError::ShutDown));
        // Shutdown is final: even a valid document cannot resurrect the
        // host.
        assert_eq!(
            host.call(Request::Restore { document: vec![] }),
            Err(EngineError::ShutDown)
        );
    }
}
