//! The shard worker: one thread that owns a disjoint set of tenants, its
//! reorder buffer and its watermark outright, fed by one FIFO command
//! queue.
//!
//! Tenants live in a [`TenantTable`]: a directory from tenant id to a
//! dense slot index, over one `Vec` of slots that hold each tenant's
//! [`AnySampler`] (or its parked blob) and its dirty stamp inline. A
//! tenant run costs one directory lookup; sweeps, advances, the census,
//! checkpoints and restores walk the slots.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};

use dds_core::sampler::{AnySampler, DistinctSampler, SamplerSpec};
use dds_sim::{Element, Slot};

use crate::metrics::ShardMetrics;
use crate::{BatchPool, TenantId, TenantView};

/// Everything a shard worker can receive. Batches, clock advances, and
/// queries share one FIFO queue — that ordering *is* the
/// snapshot-consistency mechanism.
pub(crate) enum ShardCmd {
    /// Observe a single element at the tenant's current clock (the
    /// allocation-free fast path for unbatched ingest).
    One(TenantId, Element),
    /// Observe a single element at an explicit slot.
    OneAt(TenantId, Element, Slot),
    /// Observe a batch of (tenant, element) pairs owned by this shard.
    Batch(Vec<(TenantId, Element)>),
    /// Observe a batch, all elements timestamped at one slot; raises the
    /// shard watermark to that slot.
    BatchAt(Slot, Vec<(TenantId, Element)>),
    /// Raise the shard watermark and advance every hosted tenant's clock
    /// to it, expiring window candidates of idle tenants.
    Advance(Slot),
    /// Answer one tenant's current view (`None` if never observed),
    /// first advancing it to the shard watermark — raised to `at` if
    /// given. `enqueued` lets the worker account queue-wait + service
    /// time as the shard's snapshot latency.
    Query {
        tenant: TenantId,
        at: Option<Slot>,
        reply: Sender<Option<TenantView>>,
        enqueued: Instant,
    },
    /// Answer every hosted tenant's sample at the shard watermark —
    /// raised to `at` if given — (unordered; the engine sorts the
    /// merged result).
    QueryAll {
        at: Option<Slot>,
        reply: Sender<Vec<(TenantId, Vec<Element>)>>,
        enqueued: Instant,
    },
    /// Serialize the shard's full tenant population (live instances and
    /// parked blobs alike) behind the FIFO barrier — the per-shard half
    /// of [`Engine::checkpoint`](crate::Engine::checkpoint).
    Checkpoint { reply: Sender<ShardState> },
    /// Serialize only the tenants mutated since sequence number `since`
    /// — the per-shard half of
    /// [`Engine::checkpoint_delta`](crate::Engine::checkpoint_delta).
    CheckpointDelta {
        since: u64,
        reply: Sender<ShardState>,
    },
    /// Install restored state (sent by
    /// [`Engine::restore`](crate::Engine::restore) before any traffic
    /// reaches the shard). Each tenant is `(id, dirty-stamp, state)` so
    /// delta chains span a restore; `buffer` is the restored reorder
    /// buffer — late elements that were checkpointed between arrival and
    /// replay.
    Install {
        watermark: Slot,
        seq: u64,
        tenants: Vec<(u64, u64, TenantState)>,
        buffer: Vec<(u64, Vec<(u64, u64)>)>,
    },
    /// Acknowledge once every previously enqueued command is processed.
    Flush { reply: Sender<()> },
    /// Stop the worker.
    Shutdown,
}

/// One shard's serialized population, as answered by
/// [`ShardCmd::Checkpoint`]: the watermark plus every tenant as a
/// self-describing sampler envelope (see `dds_core::checkpoint`),
/// sorted by tenant id so shard snapshots are byte-deterministic.
pub(crate) struct ShardState {
    pub(crate) watermark: Slot,
    /// The shard's mutation sequence number: bumped once per state-
    /// changing command, and the reference point for delta checkpoints.
    pub(crate) seq: u64,
    /// `(tenant, parked, stamp, envelope)` — `parked` tenants are stored
    /// as their eviction blob and rehydrate lazily after a restore,
    /// exactly as they would have in the original engine; `stamp` is the
    /// shard sequence number of the tenant's last mutation.
    pub(crate) tenants: Vec<(u64, bool, u64, Vec<u8>)>,
    /// The reorder buffer, ascending by slot: `(slot, [(tenant,
    /// element)])` — buffered-but-unapplied late data a checkpoint must
    /// carry so crash recovery loses nothing.
    pub(crate) buffer: Vec<(u64, Vec<(u64, u64)>)>,
}

/// Queue-wait + service time of one snapshot query, recorded by the
/// worker as it answers (so a slow sibling shard cannot skew another
/// shard's numbers).
fn record_snapshot_latency(metrics: &ShardMetrics, enqueued: Instant) {
    let nanos = enqueued.elapsed().as_nanos() as u64;
    metrics.snapshots.inc();
    metrics.snapshot_nanos.add(nanos);
    metrics.snapshot_latency.observe(nanos);
    metrics.events.record_slow("slow_snapshot", nanos, || {
        format!("snapshot query took {nanos} ns (queue wait + service)")
    });
}

/// A hosted tenant's sampler: live, or parked as its eviction blob.
///
/// The live sampler is held inline, not boxed: live tenants are the
/// common case, and a box would bring back the pointer chase per tenant
/// run that the slab removes. A parked slot pays the same size.
#[allow(clippy::large_enum_variant)]
pub(crate) enum TenantState {
    /// The running instance.
    Live(AnySampler),
    /// Evicted once its window drained: the final-state checkpoint blob.
    /// A later observe or query rehydrates from it, so eviction frees
    /// memory without forgetting the tenant's clock or message counter.
    Parked(Vec<u8>),
}

/// One tenant's slot in the [`TenantTable`].
struct TenantSlot {
    id: u64,
    /// Shard sequence number of the tenant's last mutation, so a delta
    /// checkpoint can emit exactly the tenants mutated since a base
    /// document's `seq`.
    stamp: u64,
    state: TenantState,
}

/// Every tenant a shard hosts: a directory from tenant id to slot index
/// over one dense `Vec` of slots. Tenants are never removed — a drained
/// one is parked in place — so slot indices are stable.
#[derive(Default)]
struct TenantTable {
    /// Tenant id → index into `slots`. Keeps std's randomly keyed
    /// hasher: tenant ids come from clients, and a fixed key would let
    /// one client pick ids that collide.
    directory: HashMap<u64, u32>,
    slots: Vec<TenantSlot>,
}

impl TenantTable {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn contains(&self, tenant: TenantId) -> bool {
        self.directory.contains_key(&tenant.0)
    }

    /// Tenant `id`'s slot, appended with `fresh()` as its state if the
    /// tenant is new.
    fn slot(&mut self, id: u64, fresh: impl FnOnce() -> TenantState) -> &mut TenantSlot {
        let next = self.slots.len();
        let idx = *self
            .directory
            .entry(id)
            .or_insert_with(|| u32::try_from(next).expect("fewer than 2^32 tenants per shard"))
            as usize;
        if idx == next {
            self.slots.push(TenantSlot {
                id,
                stamp: 0,
                state: fresh(),
            });
        }
        &mut self.slots[idx]
    }

    /// Look up (or create) a tenant's live sampler and stamp it dirty at
    /// `stamp`, rehydrating a parked one to `target` first — the single
    /// entry point every ingest and query path goes through. Ingest
    /// passes the *event's* slot as the target (so a resurrected
    /// tenant's clock never jumps past data it is about to receive);
    /// queries pass the shard watermark.
    fn live(
        &mut self,
        spec: SamplerSpec,
        target: Slot,
        tenant: TenantId,
        stamp: u64,
    ) -> &mut AnySampler {
        let slot = self.slot(tenant.0, || TenantState::Live(spec.instance()));
        slot.stamp = stamp;
        if let TenantState::Parked(blob) = &slot.state {
            slot.state = TenantState::Live(rehydrate(blob, target));
        }
        let TenantState::Live(sampler) = &mut slot.state else {
            unreachable!("parked tenants were rehydrated above")
        };
        sampler
    }

    /// Insert or replace a tenant wholesale (restore).
    fn install(&mut self, id: u64, stamp: u64, state: TenantState) {
        let slot = self.slot(id, || TenantState::Parked(Vec::new()));
        slot.stamp = stamp;
        slot.state = state;
    }

    /// The tenants stamped after `since` (every tenant for `since =
    /// None`) as `(id, parked, stamp, envelope)`, ascending by id.
    fn serialize(&self, since: Option<u64>) -> Vec<(u64, bool, u64, Vec<u8>)> {
        let mut out: Vec<(u64, bool, u64, Vec<u8>)> = self
            .slots
            .iter()
            .filter(|slot| since.map_or(true, |since| slot.stamp > since))
            .map(|slot| match &slot.state {
                TenantState::Live(sampler) => {
                    let mut blob = Vec::new();
                    sampler.checkpoint(&mut blob);
                    (slot.id, false, slot.stamp, blob)
                }
                TenantState::Parked(blob) => (slot.id, true, slot.stamp, blob.clone()),
            })
            .collect();
        out.sort_unstable_by_key(|&(t, _, _, _)| t);
        out
    }
}

/// Rehydrate a parked tenant: rebuild the sampler from its eviction
/// blob and fast-forward it to `target` — a parked window is drained,
/// so the advance is the O(1) quiescent jump and the result is
/// observationally identical to a tenant that was never evicted. A
/// `target` below the blob's own clock leaves the clock where it was
/// (sampler advances are monotonic).
fn rehydrate(blob: &[u8], target: Slot) -> AnySampler {
    let mut sampler = dds_core::checkpoint::restore_instance(blob)
        .expect("eviction blob was produced by this engine and must restore");
    sampler.advance(target);
    sampler
}

/// One shard worker's owned state plus the handles it records into —
/// factored into a struct because the reorder-buffer drain and the
/// self-driven expiry sweep are shared by several command handlers.
struct ShardWorker<'a> {
    spec: SamplerSpec,
    /// `None`: legacy immediate-apply; `Some(L)`: horizon mode with a
    /// reorder buffer and producer-visible refusals.
    lateness: Option<u64>,
    metrics: &'a ShardMetrics,
    watermark_pub: &'a AtomicU64,
    tenants: TenantTable,
    /// Highest slot this shard has seen (timestamped ingest, Advance,
    /// or snapshot_at). Monotonic; queries answer as of this watermark.
    watermark: Slot,
    /// Mutation sequence number: bumped once per state-changing
    /// command. Each touched tenant is stamped with it, so a delta
    /// checkpoint can emit exactly the tenants mutated since a base
    /// document's `seq`.
    seq: u64,
    /// Persistent per-run element scratch for the fused batch path.
    elem_scratch: Vec<Element>,
    /// The reorder buffer (horizon mode): slot → elements stamped at
    /// that slot, awaiting replay. Ordered so the drain replays in slot
    /// order; entries within a slot keep arrival order. Bounded by the
    /// horizon: every key lies in `[watermark - lateness, watermark]`.
    buffer: BTreeMap<u64, Vec<(TenantId, Element)>>,
    /// Elements currently held in `buffer`.
    buffered: usize,
    /// `cut / window` stride index at the last self-driven expiry
    /// sweep (or caller advance), where `cut = watermark - lateness`.
    sweep_stride: u64,
}

impl ShardWorker<'_> {
    /// The replay frontier: slots at or below it can no longer receive
    /// data (arrivals below it are refused), so buffered slots `≤ cut`
    /// are safe to replay and tenant clocks may advance to it.
    fn cut(&self) -> Slot {
        Slot(self.watermark.0.saturating_sub(self.lateness.unwrap_or(0)))
    }

    fn raise_watermark(&mut self, now: Slot) {
        if now > self.watermark {
            self.watermark = now;
            self.metrics.watermark.set(now.0);
            self.watermark_pub.store(now.0, Ordering::Relaxed);
        }
    }

    fn set_tenant_gauge(&self) {
        self.metrics.tenants.set(self.tenants.len() as u64);
    }

    /// One event-ring note per command that dropped late data — the
    /// counter carries the exact count; the ring carries the story.
    fn note_dropped(&self, dropped: u64) {
        if dropped > 0 {
            self.metrics.events.note(
                "late_drop",
                format!(
                    "dropped {dropped} late element(s) beyond the lateness horizon \
                     (watermark {})",
                    self.watermark.0
                ),
            );
        }
    }

    /// Apply one timestamped element at its own slot. An element whose
    /// tenant clock has already passed the slot is counted and dropped
    /// — never silently re-stamped. Returns the number dropped (0 | 1).
    fn apply_one(&mut self, tenant: TenantId, e: Element, now: Slot) -> u64 {
        let s = self.tenants.live(self.spec, now, tenant, self.seq);
        if now < s.clock() {
            self.metrics.late_dropped.inc();
            1
        } else {
            s.observe_at(e, now);
            0
        }
    }

    /// Apply the contiguous same-tenant run `src[from..to]`, all
    /// stamped at `now`, via the fused batch path. Returns drops.
    fn apply_run(&mut self, now: Slot, src: &[(TenantId, Element)], from: usize, to: usize) -> u64 {
        let s = self.tenants.live(self.spec, now, src[from].0, self.seq);
        if now < s.clock() {
            let n = (to - from) as u64;
            self.metrics.late_dropped.add(n);
            n
        } else {
            self.elem_scratch.clear();
            self.elem_scratch
                .extend(src[from..to].iter().map(|&(_, e)| e));
            s.observe_batch_at(now, &self.elem_scratch);
            0
        }
    }

    /// Apply every element of `batch` at slot `now`. Stable by tenant:
    /// per-tenant order (the correctness contract) is preserved while
    /// elements group into contiguous runs — one table lookup and one
    /// fused observe call per run instead of per element. Cross-tenant
    /// reordering is unobservable: tenants are independent samplers.
    fn apply_batch(&mut self, now: Slot, batch: &mut [(TenantId, Element)]) -> u64 {
        batch.sort_by_key(|&(t, _)| t);
        let mut dropped = 0;
        let mut from = 0;
        while from < batch.len() {
            let tenant = batch[from].0;
            let mut to = from + 1;
            while to < batch.len() && batch[to].0 == tenant {
                to += 1;
            }
            dropped += self.apply_run(now, batch, from, to);
            from = to;
        }
        dropped
    }

    /// Replay buffered slots `≤ through` in ascending slot order — the
    /// reorder buffer's single exit. Returns drops (possible only for
    /// tenants whose clock a query already sealed past a buffered slot).
    fn drain_through(&mut self, through: Slot) -> u64 {
        // Replay needs a seq of its own: when the elements were merely
        // *buffered*, the command-level bump stamped no tenant, so a
        // base checkpoint may already be sealed at that seq. A fresh
        // bump keeps the replayed tenants inside the next delta's
        // `stamp > since` filter — otherwise the delta's now-empty
        // buffer would replace the base's copy while the replayed
        // elements appear in neither.
        if self
            .buffer
            .iter()
            .next()
            .is_some_and(|(&slot, _)| slot <= through.0)
        {
            self.seq += 1;
        }
        let mut dropped = 0;
        while let Some((&slot, _)) = self.buffer.iter().next() {
            if slot > through.0 {
                break;
            }
            let mut entries = self.buffer.remove(&slot).expect("first key exists");
            self.buffered -= entries.len();
            dropped += self.apply_batch(Slot(slot), &mut entries);
        }
        self.metrics.reorder_buffered.set(self.buffered as u64);
        dropped
    }

    /// Advance every live tenant to `now` under a fresh seq, stamping
    /// each dirty — an advance can move any lagging tenant clock even
    /// when the shard watermark itself did not change.
    fn advance_all(&mut self, now: Slot) {
        self.seq += 1;
        for slot in &mut self.tenants.slots {
            if let TenantState::Live(sampler) = &mut slot.state {
                sampler.advance(now);
                slot.stamp = self.seq;
            }
        }
    }

    /// Self-driven expiry (horizon mode, windowed specs): when the cut
    /// crosses a window-stride boundary, advance every live tenant to
    /// the cut and park the drained ones — idle tenants' memory stays
    /// bounded from ingest timestamps alone, with no caller
    /// [`Engine::advance`](crate::Engine::advance). Safe at the cut:
    /// arrivals below it are refused and buffered slots `≤ cut` were
    /// drained first, so no acceptable event can land behind a swept
    /// clock.
    fn maybe_sweep(&mut self) {
        let (Some(window), Some(_)) = (self.spec.window(), self.lateness) else {
            return;
        };
        let cut = self.cut();
        let stride = cut.0 / window;
        if stride <= self.sweep_stride {
            return;
        }
        self.sweep_stride = stride;
        self.advance_all(cut);
        self.park_drained();
        self.metrics.sweeps.inc();
        self.set_tenant_gauge();
    }

    /// Park window-bounded tenants whose state has fully drained: the
    /// instance (candidate sets, buffers) is freed, but its final state —
    /// clock, message counter — is recorded so a later observe
    /// *resumes* the tenant instead of resetting it.
    fn park_drained(&mut self) {
        for slot in &mut self.tenants.slots {
            if let TenantState::Live(sampler) = &slot.state {
                if sampler.memory_tuples() == 0 && sampler.sample().is_empty() {
                    let mut blob = Vec::new();
                    sampler.checkpoint(&mut blob);
                    slot.state = TenantState::Parked(blob);
                    self.metrics.evictions.inc();
                }
            }
        }
    }

    /// The OneAt ingest body. Returns drops.
    fn ingest_one_at(&mut self, tenant: TenantId, e: Element, now: Slot) -> u64 {
        let Some(lateness) = self.lateness else {
            // Legacy: apply immediately at the event's own slot; the
            // per-tenant clock check in `apply_one` is the bugfix for
            // the silent re-stamp.
            self.raise_watermark(now);
            return self.apply_one(tenant, e, now);
        };
        self.metrics
            .lateness_slots
            .observe(self.watermark.0.saturating_sub(now.0));
        if now < self.cut() {
            self.metrics.late_dropped.inc();
            return 1;
        }
        if lateness == 0 {
            // In-order fast path: `now ≥ cut = watermark`, so the
            // buffer is provably empty and the event applies directly.
            self.raise_watermark(now);
            let dropped = self.apply_one(tenant, e, now);
            self.maybe_sweep();
            return dropped;
        }
        self.buffer.entry(now.0).or_default().push((tenant, e));
        self.buffered += 1;
        self.raise_watermark(now);
        let dropped = self.drain_through(self.cut());
        self.maybe_sweep();
        dropped
    }

    /// The BatchAt ingest body (all elements stamped `now`). Returns
    /// drops.
    fn ingest_batch_at(&mut self, now: Slot, batch: &mut Vec<(TenantId, Element)>) -> u64 {
        let Some(lateness) = self.lateness else {
            self.raise_watermark(now);
            return self.apply_batch(now, batch);
        };
        self.metrics
            .lateness_slots
            .observe(self.watermark.0.saturating_sub(now.0));
        if now < self.cut() {
            let n = batch.len() as u64;
            self.metrics.late_dropped.add(n);
            return n;
        }
        if lateness == 0 {
            self.raise_watermark(now);
            let dropped = self.apply_batch(now, batch);
            self.maybe_sweep();
            return dropped;
        }
        self.buffered += batch.len();
        self.buffer
            .entry(now.0)
            .or_default()
            .extend(batch.iter().copied());
        self.raise_watermark(now);
        let dropped = self.drain_through(self.cut());
        self.maybe_sweep();
        dropped
    }

    /// The serialized reorder buffer, ascending by slot, for
    /// checkpoints — buffered-but-unapplied data survives a crash.
    fn buffer_state(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        self.buffer
            .iter()
            .map(|(&slot, entries)| (slot, entries.iter().map(|&(t, e)| (t.0, e.0)).collect()))
            .collect()
    }

    /// A checkpoint answer: the tenants stamped after `since` (all of
    /// them for `None`), plus the watermark, seq and buffer.
    fn state(&self, since: Option<u64>) -> ShardState {
        ShardState {
            watermark: self.watermark,
            seq: self.seq,
            tenants: self.tenants.serialize(since),
            buffer: self.buffer_state(),
        }
    }
}

/// The shard worker: owns its tenant table, its reorder buffer, and the
/// shard watermark outright; returns the final tenant count (live +
/// parked) on shutdown.
pub(crate) fn shard_loop(
    rx: &Receiver<ShardCmd>,
    spec: SamplerSpec,
    lateness: Option<u64>,
    metrics: &ShardMetrics,
    pool: &BatchPool,
    watermark_pub: &AtomicU64,
) -> usize {
    let mut w = ShardWorker {
        spec,
        lateness,
        metrics,
        watermark_pub,
        tenants: TenantTable::default(),
        watermark: Slot(0),
        seq: 0,
        elem_scratch: Vec::new(),
        buffer: BTreeMap::new(),
        buffered: 0,
        sweep_stride: 0,
    };

    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::One(tenant, e) => {
                // The allocation-free fast path stays clock-free: two
                // counter bumps, no histogram, no Instant reads.
                metrics.batches.inc();
                metrics.elements.inc();
                w.seq += 1;
                w.tenants.live(spec, w.watermark, tenant, w.seq).observe(e);
                w.set_tenant_gauge();
            }
            ShardCmd::OneAt(tenant, e, now) => {
                metrics.batches.inc();
                metrics.elements.inc();
                w.seq += 1;
                let dropped = w.ingest_one_at(tenant, e, now);
                w.note_dropped(dropped);
                w.set_tenant_gauge();
            }
            ShardCmd::Batch(mut batch) => {
                let start = dds_obs::maybe_now();
                metrics.batches.inc();
                metrics.elements.add(batch.len() as u64);
                metrics.batch_elements.observe(batch.len() as u64);
                w.seq += 1;
                batch.sort_by_key(|&(t, _)| t);
                let mut from = 0;
                while from < batch.len() {
                    let tenant = batch[from].0;
                    let mut to = from + 1;
                    while to < batch.len() && batch[to].0 == tenant {
                        to += 1;
                    }
                    w.elem_scratch.clear();
                    w.elem_scratch
                        .extend(batch[from..to].iter().map(|&(_, e)| e));
                    w.tenants
                        .live(spec, w.watermark, tenant, w.seq)
                        .observe_batch(&w.elem_scratch);
                    from = to;
                }
                pool.put(batch);
                w.set_tenant_gauge();
                let nanos = dds_obs::nanos_since(start);
                metrics.batch_nanos.observe(nanos);
                metrics.events.record_slow("slow_batch", nanos, || {
                    format!("ingest batch took {nanos} ns")
                });
            }
            ShardCmd::BatchAt(now, mut batch) => {
                let start = dds_obs::maybe_now();
                metrics.batches.inc();
                metrics.elements.add(batch.len() as u64);
                metrics.batch_elements.observe(batch.len() as u64);
                w.seq += 1;
                let dropped = w.ingest_batch_at(now, &mut batch);
                w.note_dropped(dropped);
                pool.put(batch);
                w.set_tenant_gauge();
                let nanos = dds_obs::nanos_since(start);
                metrics.batch_nanos.observe(nanos);
                metrics.events.record_slow("slow_batch", nanos, || {
                    format!("timestamped ingest batch took {nanos} ns")
                });
            }
            ShardCmd::Advance(now) => {
                let start = dds_obs::maybe_now();
                if now < w.watermark {
                    // Stale: an explicit no-op — a lagging clock driver
                    // must never interleave with (or rewind under)
                    // in-flight timestamped ingest.
                    metrics.stale_advances.inc();
                    metrics.events.note(
                        "stale_advance",
                        format!(
                            "advance to slot {} refused below watermark {}",
                            now.0, w.watermark.0
                        ),
                    );
                } else {
                    // The caller's clock signal outranks the horizon:
                    // replay the whole buffer (every buffered slot is
                    // ≤ watermark ≤ now) before expiring anything.
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.raise_watermark(now);
                    // Eager: idle tenants expire their candidates *now*,
                    // not at their next query — this is the memory-
                    // reclaim path.
                    w.advance_all(w.watermark);
                    if spec.window().is_some() {
                        w.park_drained();
                    }
                    if let (Some(window), Some(_)) = (spec.window(), w.lateness) {
                        w.sweep_stride = w.sweep_stride.max(w.cut().0 / window);
                    }
                    metrics.advances.inc();
                    w.set_tenant_gauge();
                }
                let nanos = dds_obs::nanos_since(start);
                metrics.advance_nanos.observe(nanos);
                metrics.events.record_slow("slow_advance", nanos, || {
                    format!("clock advance to slot {} took {nanos} ns", w.watermark.0)
                });
            }
            ShardCmd::Query {
                tenant,
                at,
                reply,
                enqueued,
            } => {
                if let Some(now) = at {
                    w.raise_watermark(now);
                }
                // Queries answer "as of the watermark": replay the
                // whole buffer first so the answer reflects every
                // arrived element, then seal the queried tenant's clock
                // at the watermark.
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.maybe_sweep();
                }
                // Answering mutates: a parked tenant rehydrates, and the
                // advance-to-watermark can move the clock.
                let view = w.tenants.contains(tenant).then(|| {
                    w.seq += 1;
                    let target = w.watermark;
                    let s = w.tenants.live(spec, target, tenant, w.seq);
                    s.advance(target);
                    TenantView {
                        sample: s.sample(),
                        memory_tuples: s.memory_tuples(),
                        protocol_messages: s.protocol_messages(),
                    }
                });
                let _ = reply.send(view);
                record_snapshot_latency(metrics, enqueued);
            }
            ShardCmd::QueryAll {
                at,
                reply,
                enqueued,
            } => {
                if let Some(now) = at {
                    w.raise_watermark(now);
                }
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.maybe_sweep();
                }
                w.advance_all(w.watermark);
                // Unordered: the engine sorts the merged result once.
                // Parked tenants answer without rehydrating — a drained
                // window's sample is empty by construction.
                let all: Vec<(TenantId, Vec<Element>)> = w
                    .tenants
                    .slots
                    .iter()
                    .map(|slot| match &slot.state {
                        TenantState::Live(s) => (TenantId(slot.id), s.sample()),
                        TenantState::Parked(_) => (TenantId(slot.id), Vec::new()),
                    })
                    .collect();
                let _ = reply.send(all);
                record_snapshot_latency(metrics, enqueued);
            }
            ShardCmd::Checkpoint { reply } => {
                let _ = reply.send(w.state(None));
            }
            ShardCmd::CheckpointDelta { since, reply } => {
                // Only the tenants stamped after the base document's
                // sequence number — at 1 % churn this is ~1 % of the
                // tenants, so the delta is a few percent of a full
                // checkpoint's bytes. The reorder buffer is tiny (≤ one
                // horizon's worth of late data), so the delta carries it
                // whole and `apply_delta` replaces the base's copy.
                let _ = reply.send(w.state(Some(since)));
            }
            ShardCmd::Install {
                watermark: restored_watermark,
                seq: restored_seq,
                tenants: restored,
                buffer: restored_buffer,
            } => {
                w.raise_watermark(restored_watermark);
                w.seq = w.seq.max(restored_seq);
                for (t, stamp, state) in restored {
                    w.tenants.install(t, stamp, state);
                }
                for (slot, entries) in restored_buffer {
                    w.buffered += entries.len();
                    w.buffer
                        .entry(slot)
                        .or_default()
                        .extend(entries.iter().map(|&(t, e)| (TenantId(t), Element(e))));
                }
                w.metrics.reorder_buffered.set(w.buffered as u64);
                if let (Some(window), Some(_)) = (spec.window(), w.lateness) {
                    // Derived, not persisted: the restored watermark
                    // seeds the sweep stride so the next ingest doesn't
                    // re-sweep a boundary the old engine already crossed.
                    w.sweep_stride = w.sweep_stride.max(w.cut().0 / window);
                }
                w.set_tenant_gauge();
            }
            ShardCmd::Flush { reply } => {
                // Flush is a pure barrier, not a sealing operation: it
                // drains only what the lateness cut has already sealed,
                // so within-horizon data can still arrive and replay in
                // slot order afterwards. Advance and the query paths
                // are the operations that seal time at the watermark.
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.cut());
                    w.note_dropped(dropped);
                }
                let _ = reply.send(());
            }
            ShardCmd::Shutdown => break,
        }
    }
    w.tenants.len()
}
