//! # dds-engine — a sharded, multi-tenant sampling service layer
//!
//! The paper's protocols maintain **one** distinct sample over one
//! logical stream. A serving deployment (the ROADMAP's north star) hosts
//! *many* independent sampling instances — one per tenant, user, or query
//! key — behind a single ingest path, where per-instance state is tiny
//! (O(s) for the fused infinite-window sampler) and throughput lives or
//! dies on batching and merge structure.
//!
//! [`Engine`] is that layer:
//!
//! * **Sharding.** `shards` worker threads each own a disjoint set of
//!   tenants (`tenant → shard` by seeded hash), so a tenant's stream is
//!   processed by exactly one thread and needs no locking at all — the
//!   shard map is plain owned state, and cross-tenant isolation is
//!   structural rather than synchronized.
//! * **Batched ingest.** [`Engine::observe_batch`] partitions a batch by
//!   shard and forwards one message per shard over a *bounded* std
//!   channel. A full queue exerts backpressure: the send blocks until the
//!   worker catches up, and the event is counted per shard
//!   ([`ShardMetricsSnapshot::backpressure`]) so operators can see which
//!   shards are hot.
//! * **Consistent snapshots.** Queries travel the same FIFO queue as
//!   ingest, so the queue itself is the barrier: by the time a
//!   [`Engine::snapshot`] is answered, every
//!   batch whose `observe_batch` call returned before the snapshot call
//!   began is reflected in the sample. [`Engine::flush`] is the explicit
//!   all-shards barrier.
//! * **Protocol-generic.** Tenant instances are built from a
//!   [`SamplerSpec`] as the closed
//!   [`AnySampler`](dds_core::sampler::AnySampler) enum — centralized,
//!   fused infinite-window (Algorithms 1 & 2), with-replacement, *and*
//!   sliding-window (Algorithms 3 & 4, single- and multi-copy) samplers
//!   all serve unchanged, dispatched by `match` rather than a vtable.
//! * **One tenant table per shard.** A directory from tenant id to a
//!   dense slot index over one `Vec` of 120-byte slots, each holding
//!   the tenant's sampler (or its parked blob) and its dirty stamp
//!   inline: a same-tenant run costs one lookup, and sweeps, advances,
//!   censuses and checkpoints walk the slots. Each shard reports the
//!   bytes its parked blobs hold (`engine_parked_blob_bytes`).
//! * **Time.** Ingest may be timestamped ([`Engine::observe_at`],
//!   [`Engine::observe_batch_at`]): each shard tracks a **watermark** —
//!   the highest slot it has seen — and [`Engine::advance`] pushes the
//!   watermark forward explicitly, driving
//!   [`DistinctSampler::advance`](dds_core::sampler::DistinctSampler::advance)
//!   across *every* hosted tenant so that a
//!   tenant whose stream has gone idle still expires its window
//!   candidates (and frees their memory). Snapshots are
//!   window-parameterized: every query first advances the queried
//!   instance to the shard watermark (or to an explicit
//!   [`Engine::snapshot_at`] slot), so answers are always "the sample as
//!   of now", never a stale pre-expiry view. Untimed ingest on the same
//!   engine keeps working — infinite-window tenants simply ignore the
//!   clock.
//!
//! The correctness contract is inherited from the paper: for
//! `Centralized` and `Infinite` specs, every tenant's snapshot equals a
//! single-threaded [`CentralizedSampler`](dds_core::CentralizedSampler)
//! oracle fed that tenant's stream in the same order — regardless of
//! interleaving with other tenants, shard count, or batch boundaries.
//! For `Sliding` specs the same holds against a per-tenant
//! [`SlidingOracle`](dds_core::SlidingOracle) at every watermark. The
//! integration tests drive both equalities across 1 000+ tenants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod error;
mod metrics;
mod queue;
mod shard;

pub use error::EngineError;
pub use metrics::{EngineMetrics, ShardMetricsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter, Wire};
use dds_core::sampler::SamplerSpec;
use dds_hash::splitmix::splitmix64_keyed;
use dds_obs::{Registry, TelemetrySnapshot};
use dds_sim::{Element, Slot};

use metrics::ShardMetrics;
use queue::QueueTx;
use shard::{shard_loop, ShardCmd};

/// Identifies one tenant (one independent sampling instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// A `u64`.
impl Wire for TenantId {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.0);
    }
    #[inline]
    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(TenantId(r.get_u64()?))
    }
}

/// Salt for the tenant → shard hash, fixed so placement is stable across
/// engine restarts with the same shard count.
const SHARD_SALT: u64 = 0x7e6a_5ce3_9d1b_42f1;

/// Engine deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads / tenant partitions (`≥ 1`).
    pub shards: usize,
    /// Per-shard command-queue capacity (`≥ 1`); smaller values trade
    /// ingest throughput for tighter memory and faster backpressure.
    pub queue_capacity: usize,
    /// How to build each tenant's sampler instance.
    pub spec: SamplerSpec,
    /// Lateness horizon, in slots.
    ///
    /// `None` (the default) is the legacy contract: timestamped ingest
    /// applies immediately at its own slot, and an observation stamped
    /// below its tenant's clock is **counted and dropped**
    /// (`engine_late_dropped_total`) rather than silently re-stamped.
    ///
    /// `Some(L)` turns on horizon mode: each shard keeps a bounded
    /// reorder buffer, replaying timestamped ingest in slot order once
    /// the watermark has passed `slot + L`; data older than
    /// `watermark - L` is refused with [`EngineError::LateData`] on the
    /// `try_*` path (and counted), and shard-local expiry sweeps advance
    /// idle tenants from ingest timestamps alone — no caller
    /// [`Engine::advance`] needed to bound their memory.
    pub lateness: Option<u64>,
}

impl EngineConfig {
    /// Defaults: 4 shards, 128-command queues, legacy time handling
    /// (no lateness horizon).
    #[must_use]
    pub fn new(spec: SamplerSpec) -> Self {
        Self {
            shards: 4,
            queue_capacity: 128,
            spec,
            lateness: None,
        }
    }

    /// Set the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the per-shard queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Enable horizon mode with a lateness of `slots` (see
    /// [`EngineConfig::lateness`]).
    #[must_use]
    pub fn with_lateness(mut self, slots: u64) -> Self {
        self.lateness = Some(slots);
        self
    }
}

/// One tenant's state as answered by a snapshot query: the sample plus
/// the operational facts a serving layer wants alongside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantView {
    /// The current distinct sample (window samplers answer as of the
    /// shard watermark / requested slot).
    pub sample: Vec<Element>,
    /// Stored tuples across the instance's fused halves — the number a
    /// memory-based eviction or rebalancing policy would act on.
    pub memory_tuples: usize,
    /// Site ↔ coordinator messages a distributed deployment of this
    /// instance would have exchanged.
    pub protocol_messages: u64,
}

dds_core::wire_record! { TenantView { sample: Vec<Element>, memory_tuples: usize, protocol_messages: u64 } }

struct Shard {
    /// The shard's command queue; every send goes through it, so its
    /// depth count stays exact.
    tx: QueueTx<ShardCmd>,
    metrics: Arc<ShardMetrics>,
    /// The worker's watermark, published after every raise (Relaxed) —
    /// a monotone lower bound producers consult to refuse
    /// beyond-horizon ingest *before* queueing it.
    watermark_pub: Arc<AtomicU64>,
    /// Taken (and joined) exactly once, by [`Engine::begin_shutdown`].
    handle: Mutex<Option<JoinHandle<usize>>>,
}

/// Final accounting returned by [`Engine::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Per-shard metrics at shutdown.
    pub metrics: EngineMetrics,
    /// Tenants hosted per shard at shutdown.
    pub tenants_per_shard: Vec<usize>,
}

dds_core::wire_record! { EngineReport { metrics: EngineMetrics, tenants_per_shard: Vec<usize> } }

/// Reuse statistics of the engine's shared ingest-buffer pool (see
/// [`Engine::batch_pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPoolStats {
    /// Batch buffers served from the freelist (no allocation).
    pub hits: u64,
    /// Batch buffers allocated fresh because the freelist was empty.
    pub misses: u64,
}

/// A bounded freelist of ingest batch buffers shared by producers and
/// shard workers: [`Engine::try_observe_batch`] pulls per-shard buffers
/// here instead of allocating, and each worker returns its batch after
/// processing — so steady-state batched ingest recycles a fixed set of
/// `Vec`s instead of allocating one per shard per call.
struct BatchPool {
    free: Mutex<Vec<Vec<(TenantId, Element)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Freelist cap (~4× shards): enough for every shard to have one
    /// batch in flight plus one being filled, without hoarding memory
    /// from a burst.
    cap: usize,
}

impl BatchPool {
    fn new(cap: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap,
        }
    }

    /// An empty buffer: recycled if one is free, freshly allocated
    /// otherwise.
    fn get(&self) -> Vec<(TenantId, Element)> {
        let recycled = self.free.lock().expect("pool not poisoned").pop();
        match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a buffer for reuse; buffers beyond the cap (or with no
    /// backing allocation worth keeping) are simply dropped.
    fn put(&self, mut buf: Vec<(TenantId, Element)>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("pool not poisoned");
        if free.len() < self.cap {
            free.push(buf);
        }
    }

    fn stats(&self) -> BatchPoolStats {
        BatchPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A running sharded multi-tenant sampling service.
///
/// All methods take `&self`: wrap the engine in an [`Arc`] to ingest from
/// many producer threads while others snapshot.
pub struct Engine {
    shards: Vec<Shard>,
    spec: SamplerSpec,
    queue_capacity: usize,
    /// Lateness horizon (see [`EngineConfig::lateness`]).
    lateness: Option<u64>,
    /// The engine-owned metric registry every shard records into.
    registry: Arc<Registry>,
    /// Shared freelist of batch buffers, recycled between the batched
    /// ingest paths and the shard workers.
    pool: Arc<BatchPool>,
    /// Set (once) by [`Engine::begin_shutdown`]; afterwards every
    /// fallible method answers [`EngineError::ShutDown`].
    down: AtomicBool,
}

impl Engine {
    /// Spawn the shard workers.
    ///
    /// # Panics
    /// Panics if `config.shards == 0` or `config.queue_capacity == 0`.
    #[must_use]
    pub fn spawn(config: EngineConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.queue_capacity >= 1, "queue capacity must be ≥ 1");
        let registry = Arc::new(Registry::new());
        let pool = Arc::new(BatchPool::new(config.shards * 4));
        let shards = (0..config.shards)
            .map(|i| {
                let (tx, rx) = queue::queue::<ShardCmd>(config.queue_capacity);
                let metrics = Arc::new(ShardMetrics::register(&registry, i));
                let watermark_pub = Arc::new(AtomicU64::new(0));
                let worker_metrics = Arc::clone(&metrics);
                let worker_pool = Arc::clone(&pool);
                let worker_watermark = Arc::clone(&watermark_pub);
                let spec = config.spec;
                let lateness = config.lateness;
                let handle = std::thread::spawn(move || {
                    shard_loop(
                        &rx,
                        spec,
                        lateness,
                        &worker_metrics,
                        &worker_pool,
                        &worker_watermark,
                    )
                });
                Shard {
                    tx,
                    metrics,
                    watermark_pub,
                    handle: Mutex::new(Some(handle)),
                }
            })
            .collect();
        Self {
            shards,
            spec: config.spec,
            queue_capacity: config.queue_capacity,
            lateness: config.lateness,
            registry,
            pool,
            down: AtomicBool::new(false),
        }
    }

    /// Number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The spec every tenant instance is built from.
    #[must_use]
    pub fn spec(&self) -> SamplerSpec {
        self.spec
    }

    /// The lateness horizon this engine was spawned with (see
    /// [`EngineConfig::lateness`]).
    #[must_use]
    pub fn lateness(&self) -> Option<u64> {
        self.lateness
    }

    /// Producer-side lateness gate (horizon mode only): refuse `now`
    /// when it is already beyond the shard's published watermark minus
    /// the horizon. The published watermark is a monotone lower bound of
    /// the worker's, so a refusal here is something the worker would
    /// also have dropped; anything that races past lands in the
    /// worker-side counted drop instead of an error.
    fn late_gate(&self, idx: usize, at: Option<Slot>, elements: u64) -> Result<(), EngineError> {
        let (Some(now), Some(l)) = (at, self.lateness) else {
            return Ok(());
        };
        let w = self.shards[idx].watermark_pub.load(Ordering::Relaxed);
        if now.0.saturating_add(l) < w {
            let metrics = &self.shards[idx].metrics;
            metrics.late_dropped.add(elements);
            metrics.events.note(
                "late_drop",
                format!(
                    "refused {elements} element(s) at slot {} beyond horizon (watermark {w})",
                    now.0
                ),
            );
            return Err(EngineError::LateData {
                slot: now,
                watermark: Slot(w),
            });
        }
        Ok(())
    }

    /// Which shard hosts `tenant` (stable for a fixed shard count).
    #[must_use]
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        (splitmix64_keyed(tenant.0, SHARD_SALT) % self.shards.len() as u64) as usize
    }

    /// The error a failed send or receive on shard `idx` means: the
    /// whole engine being down outranks one missing worker.
    fn down_error(&self, idx: usize) -> EngineError {
        if self.down.load(Ordering::SeqCst) {
            EngineError::ShutDown
        } else {
            EngineError::ShardDown(idx)
        }
    }

    /// Reject requests that arrive after [`Engine::begin_shutdown`].
    fn guard(&self) -> Result<(), EngineError> {
        if self.down.load(Ordering::SeqCst) {
            Err(EngineError::ShutDown)
        } else {
            Ok(())
        }
    }

    /// Producer-side enqueue (ingest and clock advances): try the
    /// non-blocking fast path first; on a full queue, count the
    /// backpressure event and fall back to the blocking send. (Queries
    /// and flushes use [`Engine::plain_send`] — the backpressure metric
    /// means *producer* pressure, the signal a rebalancer would act on.)
    fn send_with_backpressure(&self, idx: usize, cmd: ShardCmd) -> Result<(), EngineError> {
        let shard = &self.shards[idx];
        match shard.tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(cmd)) => {
                shard.metrics.backpressure.inc();
                shard.tx.send(cmd).map_err(|_| self.down_error(idx))
            }
            Err(TrySendError::Disconnected(_)) => Err(self.down_error(idx)),
        }
    }

    /// Non-backpressure-counted enqueue (queries, flushes, barriers).
    fn plain_send(&self, idx: usize, cmd: ShardCmd) -> Result<(), EngineError> {
        self.shards[idx]
            .tx
            .send(cmd)
            .map_err(|_| self.down_error(idx))
    }

    /// Ingest one observation at the tenant's current clock.
    ///
    /// This is the allocation-free single-element path (one enum send,
    /// no per-element `Vec`); prefer [`Engine::try_observe_batch`] when
    /// the caller can amortize channel traffic over many elements.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] after [`Engine::begin_shutdown`];
    /// [`EngineError::ShardDown`] if the owning worker is gone.
    pub fn try_observe(&self, tenant: TenantId, e: Element) -> Result<(), EngineError> {
        self.guard()?;
        self.send_with_backpressure(self.shard_of(tenant), ShardCmd::One(tenant, e, None))
    }

    /// Ingest one observation stamped at slot `now`, raising the owning
    /// shard's watermark to `now`.
    ///
    /// # Errors
    /// As [`Engine::try_observe`]; additionally
    /// [`EngineError::LateData`] in horizon mode when `now` is already
    /// beyond the lateness horizon (the element is counted in
    /// `engine_late_dropped_total` and dropped, never re-stamped).
    pub fn try_observe_at(
        &self,
        tenant: TenantId,
        e: Element,
        now: Slot,
    ) -> Result<(), EngineError> {
        self.guard()?;
        let idx = self.shard_of(tenant);
        self.late_gate(idx, Some(now), 1)?;
        self.send_with_backpressure(idx, ShardCmd::One(tenant, e, Some(now)))
    }

    /// Ingest a batch of observations, preserving per-tenant order.
    ///
    /// The batch is partitioned by owning shard and forwarded as one
    /// message per shard; a full shard queue blocks (and is counted as a
    /// backpressure event) rather than dropping or buffering unboundedly.
    ///
    /// # Errors
    /// As [`Engine::try_observe`]. A mid-batch failure may leave the
    /// already-forwarded per-shard parts applied.
    pub fn try_observe_batch(
        &self,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.ingest_batch(None, batch)
    }

    /// Partition a batch into per-shard parts, drawing the non-empty
    /// parts from the shared buffer pool (the worker returns them once
    /// processed).
    fn partition_pooled(
        &self,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Vec<Vec<(TenantId, Element)>> {
        let mut per_shard: Vec<Vec<(TenantId, Element)>> = Vec::new();
        per_shard.resize_with(self.shards.len(), Vec::new);
        for (tenant, e) in batch {
            let part = &mut per_shard[self.shard_of(tenant)];
            if part.capacity() == 0 {
                // First element for this shard: swap in a pooled buffer.
                *part = self.pool.get();
            }
            part.push((tenant, e));
        }
        per_shard
    }

    /// Ingest a batch of observations all stamped at slot `now` — one
    /// slot's worth of a timestamped feed.
    ///
    /// Raises the watermark of every shard that receives elements; a
    /// shard with no elements in the batch keeps its old watermark until
    /// the next [`Engine::advance`] (the global clock signal).
    ///
    /// # Errors
    /// As [`Engine::try_observe_batch`]; additionally
    /// [`EngineError::LateData`] in horizon mode when `now` is beyond a
    /// receiving shard's lateness horizon. The refusal is
    /// all-or-nothing: every receiving shard is gated (one atomic read
    /// each) *before* anything is sent, so on `LateData` no part of the
    /// batch was ingested and retrying the survivors cannot
    /// double-apply. Only the late shards' elements count as drops;
    /// concurrent producers can still move a watermark between the gate
    /// and the worker, in which case the worker counts and drops the
    /// stragglers as usual.
    pub fn try_observe_batch_at(
        &self,
        now: Slot,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.ingest_batch(Some(now), batch)
    }

    /// Partition a batch, untimed or stamped at `at`; gate every
    /// receiving shard before anything is sent; then send each part.
    fn ingest_batch(
        &self,
        at: Option<Slot>,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.guard()?;
        let parts = self.partition_pooled(batch);
        let mut late: Option<EngineError> = None;
        for (i, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                if let Err(e) = self.late_gate(i, at, part.len() as u64) {
                    late.get_or_insert(e);
                }
            }
        }
        if let Some(e) = late {
            for part in parts {
                if !part.is_empty() {
                    self.pool.put(part);
                }
            }
            return Err(e);
        }
        for (i, part) in parts.into_iter().enumerate() {
            if !part.is_empty() {
                self.send_with_backpressure(i, ShardCmd::Batch(at, part))?;
            }
        }
        Ok(())
    }

    /// Advance the global clock: every shard's watermark rises to `now`
    /// and every hosted tenant's sampler is advanced to it, so tenants
    /// whose streams have gone idle still expire (and free) their window
    /// candidates.
    ///
    /// Asynchronous like ingest — follow with [`Engine::flush`] to wait
    /// for the expiry work to land.
    ///
    /// # Errors
    /// As [`Engine::try_observe`].
    pub fn try_advance(&self, now: Slot) -> Result<(), EngineError> {
        self.guard()?;
        // Producer-side like ingest: a clock driver stalling on a full
        // queue is backpressure an operator should see.
        for i in 0..self.shards.len() {
            self.send_with_backpressure(i, ShardCmd::Advance(now))?;
        }
        Ok(())
    }

    /// One tenant's current sample. Window samplers answer as of the
    /// shard watermark.
    ///
    /// Consistency: reflects every batch whose `observe_batch` call
    /// returned before this call began (FIFO queue barrier), and possibly
    /// later ones still in flight from concurrent producers.
    ///
    /// # Errors
    /// [`EngineError::UnknownTenant`] if the tenant has never been
    /// observed; [`EngineError::ShutDown`] / [`EngineError::ShardDown`]
    /// as for ingest.
    pub fn try_snapshot(&self, tenant: TenantId) -> Result<Vec<Element>, EngineError> {
        self.try_snapshot_view(tenant, None).map(|v| v.sample)
    }

    /// One tenant's sample as of slot `now`: the shard watermark is
    /// raised to `now` and the tenant advanced to it before sampling —
    /// the window-parameterized query.
    ///
    /// # Errors
    /// As [`Engine::try_snapshot`].
    pub fn try_snapshot_at(
        &self,
        tenant: TenantId,
        now: Slot,
    ) -> Result<Vec<Element>, EngineError> {
        self.try_snapshot_view(tenant, Some(now)).map(|v| v.sample)
    }

    /// One tenant's full [`TenantView`] (sample + stored tuples +
    /// would-be wire traffic), optionally as of an explicit slot.
    ///
    /// # Errors
    /// As [`Engine::try_snapshot`].
    pub fn try_snapshot_view(
        &self,
        tenant: TenantId,
        at: Option<Slot>,
    ) -> Result<TenantView, EngineError> {
        self.guard()?;
        let idx = self.shard_of(tenant);
        let (reply_tx, reply_rx) = channel();
        self.plain_send(
            idx,
            ShardCmd::Query {
                tenant,
                at,
                reply: reply_tx,
                enqueued: Instant::now(),
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| self.down_error(idx))?
            .ok_or(EngineError::UnknownTenant(tenant))
    }

    /// Every hosted tenant's sample, ascending by tenant id — optionally
    /// as of an explicit slot (a consistent windowed census: every
    /// shard's watermark is raised to `at` before answering).
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] / [`EngineError::ShardDown`] as for
    /// ingest. An empty engine answers an empty census, not an error.
    pub fn try_snapshot_all(
        &self,
        at: Option<Slot>,
    ) -> Result<Vec<(TenantId, Vec<Element>)>, EngineError> {
        self.guard()?;
        let replies: Vec<Receiver<Vec<(TenantId, Vec<Element>)>>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (reply_tx, reply_rx) = channel();
                self.plain_send(
                    i,
                    ShardCmd::QueryAll {
                        at,
                        reply: reply_tx,
                        enqueued: Instant::now(),
                    },
                )
                .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;
        let mut all = Vec::new();
        for (i, rx) in replies.into_iter().enumerate() {
            all.extend(rx.recv().map_err(|_| self.down_error(i))?);
        }
        all.sort_by_key(|&(t, _)| t);
        Ok(all)
    }

    /// Block until every shard has processed all previously enqueued
    /// commands — the explicit all-shards barrier.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] / [`EngineError::ShardDown`] as for
    /// ingest.
    pub fn try_flush(&self) -> Result<(), EngineError> {
        self.guard()?;
        let replies: Vec<Receiver<()>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (reply_tx, reply_rx) = channel();
                self.plain_send(i, ShardCmd::Flush { reply: reply_tx })
                    .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;
        for (i, rx) in replies.into_iter().enumerate() {
            rx.recv().map_err(|_| self.down_error(i))?;
        }
        Ok(())
    }

    /// Stop all workers *in place* and return the final accounting —
    /// the `&self` half of [`Engine::shutdown`], usable behind an
    /// [`Arc`] (and by the wire server, whose clients may keep sending:
    /// every later request answers [`EngineError::ShutDown`]).
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] if the engine was already shut down.
    ///
    /// # Panics
    /// Panics if a shard worker itself panicked.
    pub fn begin_shutdown(&self) -> Result<EngineReport, EngineError> {
        if self.down.swap(true, Ordering::SeqCst) {
            return Err(EngineError::ShutDown);
        }
        for shard in &self.shards {
            let _ = shard.tx.send(ShardCmd::Shutdown);
        }
        // Join *before* reading metrics: Shutdown queues behind any
        // still-unprocessed commands, so the counters are final only once
        // the worker has exited.
        let mut tenants_per_shard = Vec::with_capacity(self.shards.len());
        let mut snapshots = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let handle = shard
                .handle
                .lock()
                .expect("shutdown joiner not poisoned")
                .take()
                .expect("joined exactly once");
            tenants_per_shard.push(handle.join().expect("shard worker exits cleanly"));
            snapshots.push(shard.metrics.snapshot(i, 0));
        }
        Ok(EngineReport {
            metrics: EngineMetrics { shards: snapshots },
            tenants_per_shard,
        })
    }

    // ------------------------------------------------------------------
    // Source-compatible wrappers over the fallible core. Ingest panics
    // only if the engine was shut down under the caller (previously a
    // type-system impossibility, now a typed error on the `try_` path);
    // snapshots keep their historical `Option` shape.
    // ------------------------------------------------------------------

    /// Infallible wrapper over [`Engine::try_observe`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or the owning worker is gone.
    pub fn observe(&self, tenant: TenantId, e: Element) {
        self.try_observe(tenant, e).expect("engine accepts ingest");
    }

    /// Infallible wrapper over [`Engine::try_observe_at`]. Beyond-horizon
    /// data is a counted drop here, not a panic — callers that need the
    /// refusal as a value use the `try_` path.
    ///
    /// # Panics
    /// Panics if the engine is shut down or the owning worker is gone.
    pub fn observe_at(&self, tenant: TenantId, e: Element, now: Slot) {
        match self.try_observe_at(tenant, e, now) {
            Ok(()) | Err(EngineError::LateData { .. }) => {}
            Err(e) => panic!("engine accepts ingest: {e}"),
        }
    }

    /// Infallible wrapper over [`Engine::try_observe_batch`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn observe_batch(&self, batch: impl IntoIterator<Item = (TenantId, Element)>) {
        self.try_observe_batch(batch)
            .expect("engine accepts ingest");
    }

    /// Infallible flavor of the timestamped batch path. As with
    /// [`Engine::observe_at`], beyond-horizon data is a counted drop,
    /// not a panic — and unlike [`Engine::try_observe_batch_at`]'s
    /// all-or-nothing refusal, this is best-effort per shard: a late
    /// shard's part is counted and dropped while fresh shards' parts
    /// still apply, so no element is lost to a refusal this wrapper
    /// would have swallowed anyway.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn observe_batch_at(
        &self,
        now: Slot,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) {
        self.guard()
            .unwrap_or_else(|e| panic!("engine accepts ingest: {e}"));
        for (i, part) in self.partition_pooled(batch).into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            if self.late_gate(i, Some(now), part.len() as u64).is_err() {
                // Counted and noted by the gate.
                self.pool.put(part);
                continue;
            }
            self.send_with_backpressure(i, ShardCmd::Batch(Some(now), part))
                .unwrap_or_else(|e| panic!("engine accepts ingest: {e}"));
        }
    }

    /// Infallible wrapper over [`Engine::try_advance`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn advance(&self, now: Slot) {
        self.try_advance(now)
            .expect("engine accepts clock advances");
    }

    /// One tenant's current sample, or `None` if the tenant has never
    /// been observed (or the engine is shut down) — the historical
    /// `Option` shape of [`Engine::try_snapshot`].
    #[must_use]
    pub fn snapshot(&self, tenant: TenantId) -> Option<Vec<Element>> {
        self.try_snapshot(tenant).ok()
    }

    /// `Option` wrapper over [`Engine::try_snapshot_at`].
    #[must_use]
    pub fn snapshot_at(&self, tenant: TenantId, now: Slot) -> Option<Vec<Element>> {
        self.try_snapshot_at(tenant, now).ok()
    }

    /// `Option` wrapper over [`Engine::try_snapshot_view`].
    #[must_use]
    pub fn snapshot_view(&self, tenant: TenantId, at: Option<Slot>) -> Option<TenantView> {
        self.try_snapshot_view(tenant, at).ok()
    }

    /// Every hosted tenant's sample, ascending by tenant id.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<(TenantId, Vec<Element>)> {
        self.try_snapshot_all(None).expect("engine answers queries")
    }

    /// Every hosted tenant's sample as of slot `at` — the consistent
    /// windowed census, in one request.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn snapshot_all_at(&self, at: Slot) -> Vec<(TenantId, Vec<Element>)> {
        self.try_snapshot_all(Some(at))
            .expect("engine answers queries")
    }

    /// Infallible wrapper over [`Engine::try_flush`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn flush(&self) {
        self.try_flush().expect("engine reaches the flush barrier");
    }

    /// Current per-shard metrics (counters may lag in-flight traffic;
    /// exact right after [`Engine::flush`]). Readable even after
    /// shutdown — the final counters remain.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| shard.metrics.snapshot(i, shard.tx.len()))
                .collect(),
        }
    }

    /// Reuse statistics of the shared ingest-buffer pool: in steady
    /// state, batched ingest should be nearly all hits — each miss is
    /// one `Vec` allocation on the hot path.
    #[must_use]
    pub fn batch_pool_stats(&self) -> BatchPoolStats {
        self.pool.stats()
    }

    /// The engine's metric registry — every shard's counters, gauges,
    /// histograms, and the slow-op event ring live here, readable (or
    /// further instrumented) by embedding layers.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time telemetry snapshot of the whole registry —
    /// queue-depth gauges are refreshed first, so the export is as
    /// current as [`Engine::metrics`]. This is the payload behind the
    /// wire protocol's `Telemetry` request. Readable even after
    /// shutdown.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        for shard in &self.shards {
            shard.metrics.queue_depth.set(shard.tx.len() as u64);
        }
        self.registry.snapshot()
    }

    /// Stop all workers and return the final accounting (the consuming
    /// wrapper over [`Engine::begin_shutdown`]).
    ///
    /// # Panics
    /// Panics if the engine was already shut down in place.
    #[must_use]
    pub fn shutdown(self) -> EngineReport {
        self.begin_shutdown()
            .expect("engine shut down exactly once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::sampler::SamplerKind;
    use dds_core::CentralizedSampler;
    use std::collections::HashMap;

    fn spec() -> SamplerSpec {
        SamplerSpec::new(SamplerKind::Infinite, 8, 1234)
    }

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(8));
        let mut seen = vec![false; 8];
        for t in 0..1_000 {
            let shard = engine.shard_of(TenantId(t));
            assert_eq!(shard, engine.shard_of(TenantId(t)), "placement not stable");
            seen[shard] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard hosts no tenants");
        let _ = engine.shutdown();
    }

    #[test]
    fn single_tenant_matches_oracle() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(3));
        let mut oracle = spec().oracle();
        let t = TenantId(42);
        for i in 0..5_000u64 {
            let e = Element((i * 31) % 800);
            engine.observe(t, e);
            oracle.observe(e);
        }
        assert_eq!(engine.snapshot(t), Some(oracle.sample()));
        let report = engine.shutdown();
        assert_eq!(report.metrics.total_elements(), 5_000);
        assert_eq!(report.metrics.tenants(), 1);
    }

    #[test]
    fn batched_multi_tenant_matches_per_tenant_oracles() {
        let tenants = 64u64;
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(4));
        let mut oracles: HashMap<u64, CentralizedSampler> = HashMap::new();
        let mut batch = Vec::new();
        for i in 0..40_000u64 {
            let t = i % tenants; // interleave all tenants
            let e = Element((i * 17) % 500); // element ids collide across tenants
            oracles
                .entry(t)
                .or_insert_with(|| spec().oracle())
                .observe(e);
            batch.push((TenantId(t), e));
            if batch.len() == 256 {
                engine.observe_batch(batch.drain(..).collect::<Vec<_>>());
            }
        }
        engine.observe_batch(batch);
        for (&t, oracle) in &oracles {
            assert_eq!(
                engine.snapshot(TenantId(t)),
                Some(oracle.sample()),
                "tenant {t} diverged"
            );
        }
        let all = engine.snapshot_all();
        assert_eq!(all.len(), tenants as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
        let _ = engine.shutdown();
    }

    #[test]
    fn snapshot_of_unknown_tenant_is_none() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        engine.observe(TenantId(1), Element(9));
        assert_eq!(engine.snapshot(TenantId(999)), None);
        assert!(engine.snapshot(TenantId(1)).is_some());
        let _ = engine.shutdown();
    }

    #[test]
    fn flush_makes_metrics_exact() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(4));
        let batch: Vec<(TenantId, Element)> =
            (0..1_000).map(|i| (TenantId(i % 10), Element(i))).collect();
        engine.observe_batch(batch);
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 1_000);
        assert_eq!(m.tenants(), 10);
        assert_eq!(m.max_queue_depth(), 0, "flush leaves queues drained");
        let _ = engine.shutdown();
    }

    #[test]
    fn steady_state_batches_reuse_pooled_buffers() {
        // The alloc-count pin for batched ingest: after the first round
        // warms the pool, every per-shard part must come off the
        // freelist — misses stay at one per shard while hits grow with
        // every subsequent batch.
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let rounds = 50u64;
        for round in 0..rounds {
            let batch: Vec<(TenantId, Element)> = (0..256)
                .map(|i| (TenantId(i % 8), Element(round * 256 + i)))
                .collect();
            engine.observe_batch(batch);
            // The barrier guarantees the workers returned their buffers
            // before the next round draws from the pool.
            engine.flush();
        }
        let stats = engine.batch_pool_stats();
        assert!(
            stats.misses <= 2,
            "steady-state batches allocated: {stats:?}"
        );
        assert!(stats.hits >= (rounds - 1) * 2, "pool not reused: {stats:?}");
        let _ = engine.shutdown();
    }

    #[test]
    fn tiny_queue_exerts_and_counts_backpressure() {
        let engine = Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_queue_capacity(1),
        );
        // Each batch takes the worker far longer to process than the
        // sender needs to enqueue the next one, so with a one-slot queue
        // the try_send fast path must fail (and block) repeatedly.
        for round in 0..50u64 {
            let batch: Vec<(TenantId, Element)> = (0..1_000)
                .map(|i| (TenantId(i % 20), Element(round * 1_000 + i)))
                .collect();
            engine.observe_batch(batch);
        }
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 50_000);
        assert!(
            m.total_backpressure() > 0,
            "50 batches through a 1-slot queue never blocked"
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn with_replacement_tenants_serve_too() {
        let wr = SamplerSpec::new(SamplerKind::WithReplacement, 4, 7);
        let engine = Engine::spawn(EngineConfig::new(wr).with_shards(2));
        for i in 0..2_000u64 {
            engine.observe(TenantId(i % 3), Element(i % 100));
        }
        for t in 0..3 {
            let sample = engine.snapshot(TenantId(t)).expect("tenant exists");
            assert_eq!(sample.len(), 4, "one entry per WR copy");
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn concurrent_producers_and_snapshots_do_not_deadlock() {
        let engine = Arc::new(Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(4)
                .with_queue_capacity(4),
        ));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let batch: Vec<(TenantId, Element)> = (0..200)
                            .map(|i| (TenantId(p * 100 + i % 25), Element(round * 200 + i)))
                            .collect();
                        engine.observe_batch(batch);
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            let _ = engine.snapshot(TenantId(0));
            let _ = engine.snapshot_all();
        }
        for h in producers {
            h.join().unwrap();
        }
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 4 * 50 * 200);
        let engine = Arc::into_inner(engine).expect("sole owner after joins");
        let _ = engine.shutdown();
    }

    #[test]
    fn shutdown_report_counts_all_queued_work() {
        // Regression: shutdown must join workers *before* reading
        // metrics — Shutdown queues behind unprocessed batches, so a
        // premature read under-counts.
        let engine = Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(2)
                .with_queue_capacity(2),
        );
        for _ in 0..20u64 {
            let batch: Vec<(TenantId, Element)> =
                (0..2_500).map(|i| (TenantId(i % 50), Element(i))).collect();
            engine.observe_batch(batch);
        }
        // Deliberately no flush before shutdown.
        let report = engine.shutdown();
        assert_eq!(report.metrics.total_elements(), 50_000);
        assert_eq!(report.metrics.tenants(), 50);
    }

    #[test]
    fn snapshot_latency_is_recorded_by_the_worker() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        engine.observe(TenantId(0), Element(1));
        let _ = engine.snapshot(TenantId(0));
        let _ = engine.snapshot_all();
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_snapshots(), 2);
        assert!(m.shards[0].mean_snapshot_latency_ns() > 0.0);
        let _ = engine.shutdown();
    }

    #[test]
    fn sliding_tenants_serve_and_expire() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 10 }, 1, 42);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(2));
        engine.observe_at(TenantId(0), Element(7), Slot(0));
        engine.observe_at(TenantId(1), Element(7), Slot(5));
        assert_eq!(engine.snapshot(TenantId(0)), Some(vec![Element(7)]));
        // Tenant 0's element dies at slot 10; tenant 1's lives to 15.
        assert_eq!(engine.snapshot_at(TenantId(0), Slot(10)), Some(vec![]));
        assert_eq!(
            engine.snapshot_at(TenantId(1), Slot(12)),
            Some(vec![Element(7)])
        );
        assert_eq!(engine.snapshot_at(TenantId(1), Slot(15)), Some(vec![]));
        let _ = engine.shutdown();
    }

    #[test]
    fn advance_drives_idle_tenant_expiry_and_metrics() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 9);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(3));
        for t in 0..30u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.advance(Slot(100));
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_advances(), 3, "one advance per shard");
        assert_eq!(m.watermark(), 100);
        for t in 0..30u64 {
            let view = engine.snapshot_view(TenantId(t), None).expect("hosted");
            assert!(view.sample.is_empty(), "tenant {t} survived the window");
            assert_eq!(view.memory_tuples, 0, "tenant {t} kept expired state");
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn untimed_engine_is_unaffected_by_time_api() {
        // Infinite-window tenants ignore the clock entirely: advancing
        // far ahead must not change any sample.
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let mut oracle = spec().oracle();
        for i in 0..3_000u64 {
            let e = Element((i * 13) % 400);
            engine.observe(TenantId(5), e);
            oracle.observe(e);
        }
        engine.advance(Slot(1_000_000));
        assert_eq!(engine.snapshot(TenantId(5)), Some(oracle.sample()));
        assert_eq!(
            engine.snapshot_at(TenantId(5), Slot(2_000_000)),
            Some(oracle.sample())
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn snapshot_view_reports_memory_and_messages() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        for i in 0..500u64 {
            engine.observe(TenantId(0), Element(i));
        }
        let view = engine.snapshot_view(TenantId(0), None).expect("hosted");
        assert_eq!(view.sample.len(), 8);
        assert!(view.memory_tuples > 0);
        assert!(view.protocol_messages > 0);
        assert_eq!(engine.snapshot_view(TenantId(404), None), None);
        let _ = engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Engine::spawn(EngineConfig::new(spec()).with_shards(0));
    }

    #[test]
    fn unknown_tenant_is_a_typed_error() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        engine.observe(TenantId(1), Element(9));
        assert_eq!(
            engine.try_snapshot(TenantId(999)),
            Err(EngineError::UnknownTenant(TenantId(999)))
        );
        assert_eq!(
            engine.try_snapshot_view(TenantId(999), None),
            Err(EngineError::UnknownTenant(TenantId(999)))
        );
        assert!(engine.try_snapshot(TenantId(1)).is_ok());
        let _ = engine.shutdown();
    }

    #[test]
    fn requests_after_begin_shutdown_are_typed_errors() {
        let engine = Arc::new(Engine::spawn(EngineConfig::new(spec()).with_shards(2)));
        engine.observe(TenantId(3), Element(1));
        let report = engine.begin_shutdown().expect("first shutdown succeeds");
        assert_eq!(report.metrics.total_elements(), 1);
        // Every fallible entry point now answers ShutDown instead of
        // panicking — including from other Arc holders.
        let holder = Arc::clone(&engine);
        assert_eq!(
            holder.try_observe(TenantId(3), Element(2)),
            Err(EngineError::ShutDown)
        );
        assert_eq!(
            holder.try_observe_batch([(TenantId(3), Element(2))]),
            Err(EngineError::ShutDown)
        );
        assert_eq!(holder.try_advance(Slot(9)), Err(EngineError::ShutDown));
        assert_eq!(holder.try_snapshot(TenantId(3)), Err(EngineError::ShutDown));
        assert_eq!(holder.try_snapshot_all(None), Err(EngineError::ShutDown));
        assert_eq!(holder.try_flush(), Err(EngineError::ShutDown));
        assert_eq!(holder.try_checkpoint(), Err(EngineError::ShutDown));
        assert_eq!(holder.begin_shutdown(), Err(EngineError::ShutDown));
        // Metrics stay readable — the final counters remain.
        assert_eq!(holder.metrics().total_elements(), 1);
    }

    #[test]
    fn snapshot_all_at_is_a_consistent_windowed_census() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 10 }, 1, 13);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(3));
        for t in 0..40u64 {
            // Even tenants observed at slot 0, odd at slot 6.
            engine.observe_at(TenantId(t), Element(t), Slot((t % 2) * 6));
        }
        // At slot 12, the slot-0 observations (expiry 10) are gone and
        // the slot-6 ones (expiry 16) remain — in one request.
        let census = engine.snapshot_all_at(Slot(12));
        assert_eq!(census.len(), 40);
        for (t, sample) in census {
            if t.0 % 2 == 0 {
                assert!(sample.is_empty(), "tenant {} survived its window", t.0);
            } else {
                assert_eq!(sample, vec![Element(t.0)], "tenant {} lost its window", t.0);
            }
        }
        // The census raised every shard's watermark.
        engine.flush();
        assert_eq!(engine.metrics().watermark(), 12);
        let _ = engine.shutdown();
    }
}
