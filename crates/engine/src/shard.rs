//! The shard worker: one thread that owns a disjoint set of tenants, its
//! reorder buffer and its watermark outright, fed by one FIFO command
//! queue.
//!
//! Tenants live in a [`TenantTable`]: a directory from tenant id to a
//! dense slot index, over one `Vec` of 128-byte slots that hold each
//! tenant's [`AnySampler`] (or its parked blob) and its dirty stamp
//! inline. A tenant run costs one directory lookup; sweeps, advances,
//! the census, checkpoints and restores walk the slots.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::time::Instant;

use dds_core::sampler::{AnySampler, DistinctSampler, SamplerSpec};
use dds_obs::Gauge;
use dds_sim::{Element, Slot};

use crate::metrics::ShardMetrics;
use crate::queue::QueueRx;
use crate::{BatchPool, TenantId, TenantView};

/// Everything a shard worker can receive. Batches, clock advances, and
/// queries share one FIFO queue — that ordering *is* the
/// snapshot-consistency mechanism.
///
/// Ingest comes in two shapes, one element or a batch, and each is
/// untimed (`None`: every tenant observes at its own clock) or stamped
/// at one slot (`Some`: the shard watermark rises to it, under the
/// lateness policy). Both run the worker's one ingest body.
pub(crate) enum ShardCmd {
    /// Observe one element: the allocation-free path for unbatched
    /// ingest, applied as a one-element slice on the worker's stack.
    One(TenantId, Element, Option<Slot>),
    /// Observe a batch of (tenant, element) pairs owned by this shard.
    Batch(Option<Slot>, Vec<(TenantId, Element)>),
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
/// run that the slab removes. Only `AnySampler::Sliding` (`s = 1`
/// sliding windows) is boxed inside the enum, which keeps `AnySampler`
/// at 112 bytes and a [`TenantSlot`] at 128. A parked slot pays the
/// same size.
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
struct TenantTable {
    /// Tenant id → index into `slots`. Keeps std's randomly keyed
    /// hasher: tenant ids come from clients, and a fixed key would let
    /// one client pick ids that collide.
    directory: HashMap<u64, u32>,
    slots: Vec<TenantSlot>,
    /// The shard's `engine_parked_blob_bytes` gauge: the summed length
    /// of every parked blob. Every park and unpark goes through this
    /// table, so it moves only there — never on a live tenant's run.
    parked_bytes: Gauge,
}

impl TenantTable {
    fn new(parked_bytes: Gauge) -> Self {
        Self {
            directory: HashMap::new(),
            slots: Vec::new(),
            parked_bytes,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn contains(&self, tenant: TenantId) -> bool {
        self.directory.contains_key(&tenant.0)
    }

    /// Tenant `id`'s slot index, appending a slot with `fresh()` as its
    /// state if the tenant is new.
    fn slot_index(&mut self, id: u64, fresh: impl FnOnce() -> TenantState) -> usize {
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
        idx
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
        let idx = self.slot_index(tenant.0, || TenantState::Live(spec.instance()));
        let slot = &mut self.slots[idx];
        slot.stamp = stamp;
        if let TenantState::Parked(blob) = &slot.state {
            self.parked_bytes.sub(blob.len() as u64);
            slot.state = TenantState::Live(rehydrate(blob, target));
        }
        let TenantState::Live(sampler) = &mut slot.state else {
            unreachable!("parked tenants were rehydrated above")
        };
        sampler
    }

    /// Insert or replace a tenant wholesale (restore).
    fn install(&mut self, id: u64, stamp: u64, state: TenantState) {
        let idx = self.slot_index(id, || TenantState::Parked(Vec::new()));
        let slot = &mut self.slots[idx];
        slot.stamp = stamp;
        if let TenantState::Parked(blob) = &slot.state {
            self.parked_bytes.sub(blob.len() as u64);
        }
        if let TenantState::Parked(blob) = &state {
            self.parked_bytes.add(blob.len() as u64);
        }
        slot.state = state;
    }

    /// Park window-bounded tenants whose state has fully drained: the
    /// instance (candidate sets, buffers) is freed, but its final state —
    /// clock, message counter — is recorded so a later observe
    /// *resumes* the tenant instead of resetting it. Returns how many
    /// were parked.
    fn park_drained(&mut self) -> u64 {
        let mut parked = 0;
        for slot in &mut self.slots {
            if let TenantState::Live(sampler) = &slot.state {
                if sampler.memory_tuples() == 0 && sampler.sample().is_empty() {
                    let mut blob = Vec::new();
                    sampler.checkpoint(&mut blob);
                    // Kept until the tenant wakes: no growth slack.
                    blob.shrink_to_fit();
                    self.parked_bytes.add(blob.len() as u64);
                    slot.state = TenantState::Parked(blob);
                    parked += 1;
                }
            }
        }
        parked
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

    /// Apply the same-tenant run `run` through the fused batch path:
    /// at the tenant's own clock (`at = None`), or stamped at `at`. A
    /// stamped run whose tenant clock has already passed its slot is
    /// counted and dropped — never silently re-stamped. Returns drops.
    fn apply_run(&mut self, at: Option<Slot>, run: &[(TenantId, Element)]) -> u64 {
        let target = at.unwrap_or(self.watermark);
        let s = self.tenants.live(self.spec, target, run[0].0, self.seq);
        if at.is_some_and(|now| now < s.clock()) {
            let n = run.len() as u64;
            self.metrics.late_dropped.add(n);
            return n;
        }
        self.elem_scratch.clear();
        self.elem_scratch.extend(run.iter().map(|&(_, e)| e));
        match at {
            Some(now) => s.observe_batch_at(now, &self.elem_scratch),
            None => s.observe_batch(&self.elem_scratch),
        }
        0
    }

    /// Apply every element of `batch`, as [`ShardWorker::apply_run`]
    /// does. Stable by tenant: per-tenant order (the correctness
    /// contract) is preserved while elements group into contiguous runs
    /// — one table lookup and one fused observe call per run instead of
    /// per element. Cross-tenant reordering is unobservable: tenants
    /// are independent samplers.
    fn apply(&mut self, at: Option<Slot>, batch: &mut [(TenantId, Element)]) -> u64 {
        batch.sort_by_key(|&(t, _)| t);
        let mut dropped = 0;
        let mut from = 0;
        while from < batch.len() {
            let tenant = batch[from].0;
            let mut to = from + 1;
            while to < batch.len() && batch[to].0 == tenant {
                to += 1;
            }
            dropped += self.apply_run(at, &batch[from..to]);
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
            dropped += self.apply(Some(Slot(slot)), &mut entries);
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
        self.metrics.evictions.add(self.tenants.park_drained());
        self.metrics.sweeps.inc();
        self.set_tenant_gauge();
    }

    /// The one ingest body, for a single element and a batch alike:
    /// apply `batch` at each tenant's clock (`at = None`), or stamped at
    /// slot `at` under the lateness policy. Returns drops.
    fn ingest(&mut self, at: Option<Slot>, batch: &mut [(TenantId, Element)]) -> u64 {
        let Some(now) = at else {
            return self.apply(None, batch);
        };
        let Some(lateness) = self.lateness else {
            // Legacy: apply immediately at the event's own slot; the
            // per-tenant clock check in `apply_run` is the bugfix for
            // the silent re-stamp.
            self.raise_watermark(now);
            return self.apply(at, batch);
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
            // In-order fast path: `now ≥ cut = watermark`, so the
            // buffer is provably empty and the events apply directly.
            self.raise_watermark(now);
            let dropped = self.apply(at, batch);
            self.maybe_sweep();
            return dropped;
        }
        self.buffered += batch.len();
        self.buffer
            .entry(now.0)
            .or_default()
            .extend_from_slice(batch);
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
    rx: &QueueRx<ShardCmd>,
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
        tenants: TenantTable::new(metrics.parked_blob_bytes.clone()),
        watermark: Slot(0),
        seq: 0,
        elem_scratch: Vec::new(),
        buffer: BTreeMap::new(),
        buffered: 0,
        sweep_stride: 0,
    };

    while let Some(cmd) = rx.recv() {
        match cmd {
            ShardCmd::One(tenant, e, at) => {
                // The allocation-free path stays clock-free: two
                // counter bumps, no histogram, no Instant reads.
                metrics.batches.inc();
                metrics.elements.inc();
                w.seq += 1;
                let dropped = w.ingest(at, &mut [(tenant, e)]);
                w.note_dropped(dropped);
                w.set_tenant_gauge();
            }
            ShardCmd::Batch(at, mut batch) => {
                let start = dds_obs::maybe_now();
                metrics.batches.inc();
                metrics.elements.add(batch.len() as u64);
                metrics.batch_elements.observe(batch.len() as u64);
                w.seq += 1;
                let dropped = w.ingest(at, &mut batch);
                w.note_dropped(dropped);
                pool.put(batch);
                w.set_tenant_gauge();
                let nanos = dds_obs::nanos_since(start);
                metrics.batch_nanos.observe(nanos);
                metrics.events.record_slow("slow_batch", nanos, || {
                    format!("ingest batch took {nanos} ns")
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
                        metrics.evictions.add(w.tenants.park_drained());
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every hosted tenant pays one slot, parked or live: a field added
    /// to the slot, or to any sampler `AnySampler` holds inline, must
    /// fail here rather than silently add bytes to every tenant.
    #[test]
    fn tenant_slot_stays_at_128_bytes() {
        let size = std::mem::size_of::<TenantSlot>();
        assert!(size <= 128, "TenantSlot is {size} B");
    }
}
