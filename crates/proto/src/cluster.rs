//! The site→coordinator cluster dialect: the paper's protocols on the
//! wire.
//!
//! `dds-sim` runs Algorithms 1–4 through in-memory message buffers;
//! this module gives those exact messages a versioned byte layout so a
//! `dds-cluster` deployment can run them across real processes over
//! the same `DDSP` framing the engine service uses. Three vocabularies
//! share one opcode space (disjoint from the engine service's):
//!
//! * [`SiteUp`] / [`CoordDown`] — the protocol messages themselves,
//!   one variant per sampler kind, each encoding byte-for-byte the
//!   same payload size as its `dds_core::messages` twin
//!   ([`SiteUp::protocol_bytes`]), so a socket deployment's
//!   [`MessageCounters`] agree *exactly* with the simulator's. Each
//!   variant converts to and from its twin (`From` and `TryFrom`, one
//!   `twin!` line per message), so a cluster node can host any
//!   site/coordinator pair whose messages have twins here.
//! * [`ClusterRequest`] / [`ClusterResponse`] — the envelope dialect:
//!   join/leave handshakes, protocol ups and their batched down
//!   replies, and the driver commands that let a test or benchmark
//!   steer a daemon deterministically from outside. A driver ships a
//!   site its elements in one [`ClusterRequest::SiteBatch`], each
//!   stamped with a global sequence number; the site stamps the ups
//!   they trigger ([`ClusterRequest::SeqUp`]) and reports progress
//!   with one-way [`ClusterRequest::Done`] markers, and the driver's
//!   [`ClusterRequest::Sync`] barrier tells the coordinator which
//!   numbers exist, so it can apply ups in the order an in-process
//!   run would.
//! * [`ClusterError`] — typed failures ([`ClusterError::SiteDown`] is
//!   the one the fault tests pin), round-tripped structurally like
//!   `EngineError`.
//!
//! Most of the dialect is request/reply. Three frames are one-way:
//! `Done`, `SiteCrash`, and a `SiteBatch` that succeeds. A batch is
//! answered only with its error, because the coordinator's answer to
//! the barrier's `Sync` already proves that every live site ran it.
//! A driver can therefore keep one barrier in flight and read only its
//! control connection.
//!
//! [`ClusterSpec`] names a deployment (sampler spec + `k`) and hashes
//! to a [`ClusterSpec::digest`] that join handshakes compare, so a
//! site compiled against different parameters is rejected before it
//! can corrupt the sample.
//!
//! Every layout here is declared once on `dds_core`'s `Wire` codec: the
//! enums one line per variant, the stats records one line each, and
//! outcomes go through the codec the engine dialect uses too
//! (`crate::codec`), under [`opcode::CLUSTER_ERROR`].

use dds_core::checkpoint::{CheckpointError, Padded, StateReader, StateWriter, Wire};
use dds_core::messages::{CopyDown, CopyUp, DownThreshold, SwDown, SwUp, UpElem};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_core::{wire_enum, wire_record};
use dds_hash::fnv::fnv1a_64;
use dds_obs::TelemetrySnapshot;
use dds_sim::{Element, MessageCounters, SiteId, Slot};

use crate::codec::Refusal;
use crate::frame;

/// Opcode assignments for the cluster dialect. Requests sit in
/// `0x80..`, responses in `0xC0..` — both disjoint from the engine
/// service's ranges, so a frame delivered to the wrong decoder fails
/// with [`CheckpointError::UnknownKind`] instead of mis-parsing.
pub mod opcode {
    /// [`super::ClusterRequest::Join`].
    pub const JOIN: u8 = 0x81;
    /// [`super::ClusterRequest::Control`].
    pub const CONTROL: u8 = 0x82;
    /// [`super::ClusterRequest::Leave`].
    pub const LEAVE: u8 = 0x83;
    /// [`super::SiteUp::Infinite`].
    pub const UP_INFINITE: u8 = 0x84;
    /// [`super::SiteUp::Wr`].
    pub const UP_WR: u8 = 0x85;
    /// [`super::SiteUp::Sliding`].
    pub const UP_SLIDING: u8 = 0x86;
    /// [`super::SiteUp::SlidingMulti`].
    pub const UP_SLIDING_MULTI: u8 = 0x87;
    /// [`super::ClusterRequest::Sample`].
    pub const SAMPLE: u8 = 0x89;
    /// [`super::ClusterRequest::Stats`].
    pub const STATS: u8 = 0x8A;
    /// [`super::ClusterRequest::Shutdown`].
    pub const SHUTDOWN: u8 = 0x8B;
    /// [`super::ClusterRequest::Telemetry`].
    pub const TELEMETRY: u8 = 0x8C;
    /// [`super::ClusterRequest::SeqUp`].
    pub const SEQ_UP: u8 = 0x8D;
    /// [`super::ClusterRequest::Done`].
    pub const DONE: u8 = 0x8E;
    /// [`super::ClusterRequest::Sync`].
    pub const SYNC: u8 = 0x8F;
    /// [`super::ClusterRequest::SiteObserve`].
    pub const SITE_OBSERVE: u8 = 0x90;
    /// [`super::ClusterRequest::SiteStats`].
    pub const SITE_STATS: u8 = 0x92;
    /// [`super::ClusterRequest::SiteShutdown`].
    pub const SITE_SHUTDOWN: u8 = 0x93;
    /// [`super::ClusterRequest::SiteCrash`].
    pub const SITE_CRASH: u8 = 0x94;
    /// [`super::ClusterRequest::SiteTelemetry`].
    pub const SITE_TELEMETRY: u8 = 0x95;
    /// [`super::ClusterRequest::SiteBatch`]. Its first opcode, `0x96`,
    /// named a batch answered with an `Ack`. It is retired, so a site
    /// or driver built before batches became one-way refuses the
    /// other's batch frame with `UnknownKind` instead of one side
    /// waiting forever for an `Ack`.
    pub const SITE_BATCH: u8 = 0x97;

    /// [`super::ClusterResponse::Welcome`].
    pub const WELCOME: u8 = 0xC1;
    /// [`super::ClusterResponse::Downs`].
    pub const DOWNS: u8 = 0xC2;
    /// [`super::ClusterResponse::Ack`].
    pub const ACK: u8 = 0xC3;
    /// [`super::ClusterResponse::Sample`].
    pub const SAMPLE_REPLY: u8 = 0xC4;
    /// [`super::ClusterResponse::Stats`].
    pub const STATS_REPLY: u8 = 0xC5;
    /// [`super::ClusterResponse::SiteStats`].
    pub const SITE_STATS_REPLY: u8 = 0xC6;
    /// [`super::ClusterResponse::Goodbye`].
    pub const GOODBYE: u8 = 0xC7;
    /// [`super::ClusterResponse::Telemetry`].
    pub const TELEMETRY_REPLY: u8 = 0xC8;
    /// An `Err(ClusterError)` outcome.
    pub const CLUSTER_ERROR: u8 = 0xFE;
}

// ---------------------------------------------------------------------
// ClusterSpec: what a deployment runs, as data.
// ---------------------------------------------------------------------

/// The identity of a cluster deployment: the sampler every node runs
/// and the number of sites. Sites and coordinator must agree on every
/// field — the join handshake compares [`ClusterSpec::digest`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// The distributed protocol (must not be
    /// [`SamplerKind::Centralized`], which has no site half).
    pub sampler: SamplerSpec,
    /// Number of sites, `k ≥ 1`.
    pub k: usize,
}

/// Kind tags for [`ClusterSpec`] encoding.
const KIND_INFINITE: u8 = 0;
const KIND_WR: u8 = 1;
const KIND_SLIDING: u8 = 2;
const KIND_SLIDING_MULTI: u8 = 3;

impl ClusterSpec {
    /// The most sites a spec accepts: the coordinator allocates per
    /// site, so a spec decoded from outside the program is bounded like
    /// its sample size.
    pub const MAX_K: usize = SamplerSpec::MAX_S;

    /// Name a deployment.
    ///
    /// # Panics
    /// If `k == 0` or `k >` [`ClusterSpec::MAX_K`], or the sampler kind
    /// is [`SamplerKind::Centralized`] (it has no site/coordinator
    /// split to deploy).
    #[must_use]
    pub fn new(sampler: SamplerSpec, k: usize) -> Self {
        Self::checked(sampler, k).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// The spec, or the rule it breaks.
    fn checked(sampler: SamplerSpec, k: usize) -> Result<Self, &'static str> {
        if k == 0 {
            return Err("a cluster needs at least one site");
        }
        if k > Self::MAX_K {
            return Err("site count above ClusterSpec::MAX_K");
        }
        if matches!(sampler.kind, SamplerKind::Centralized) {
            return Err("the centralized sampler has no distributed protocol");
        }
        Ok(Self { sampler, k })
    }

    /// Fixed-layout encoding: kind tag, `s`, seed, window (0 when the
    /// kind has none), `k`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put(self);
        w.into_bytes()
    }

    /// Decode and validate an encoded spec.
    ///
    /// # Errors
    /// [`CheckpointError`] on truncation, unknown kind tags, or
    /// parameter combinations `SamplerSpec::new` would reject.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = StateReader::new(bytes);
        let spec = r.get()?;
        r.expect_end()?;
        Ok(spec)
    }

    /// FNV-1a digest of the encoding — the value join handshakes
    /// compare to reject mismatched deployments.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a_64(&self.encode())
    }

    /// The encoding as lowercase hex — how a spec travels on a command
    /// line to a spawned node process.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.encode().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Inverse of [`ClusterSpec::to_hex`].
    ///
    /// # Errors
    /// [`CheckpointError`] on non-hex input or an invalid spec.
    pub fn from_hex(hex: &str) -> Result<Self, CheckpointError> {
        if hex.len() % 2 != 0 {
            return Err(CheckpointError::Corrupt("odd-length hex spec"));
        }
        let nibble = |c: u8| -> Result<u8, CheckpointError> {
            match c {
                b'0'..=b'9' => Ok(c - b'0'),
                b'a'..=b'f' => Ok(c - b'a' + 10),
                b'A'..=b'F' => Ok(c - b'A' + 10),
                _ => Err(CheckpointError::Corrupt("non-hex byte in spec")),
            }
        };
        let raw = hex.as_bytes();
        let mut bytes = Vec::with_capacity(raw.len() / 2);
        for pair in raw.chunks_exact(2) {
            bytes.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
        }
        Self::decode(&bytes)
    }
}

/// Kind tag, `s`, seed, window (0 when the kind has none), `k`;
/// decoding refuses what `SamplerSpec::new` or `ClusterSpec::new`
/// would.
impl Wire for ClusterSpec {
    const MIN_BYTES: usize = 1 + 4 * 8;

    fn put(&self, w: &mut StateWriter) {
        let (tag, window) = match self.sampler.kind {
            SamplerKind::Infinite => (KIND_INFINITE, 0),
            SamplerKind::WithReplacement => (KIND_WR, 0),
            SamplerKind::Sliding { window } => (KIND_SLIDING, window),
            SamplerKind::SlidingMulti { window } => (KIND_SLIDING_MULTI, window),
            SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
        };
        w.put_u8(tag);
        w.put(&self.sampler.s);
        w.put(&self.sampler.seed);
        w.put(&window);
        w.put(&self.k);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let tag = r.get_u8()?;
        let s: usize = r.get()?;
        let seed = r.get()?;
        let window = r.get()?;
        let k: usize = r.get()?;
        let kind = match tag {
            KIND_INFINITE => SamplerKind::Infinite,
            KIND_WR => SamplerKind::WithReplacement,
            KIND_SLIDING => SamplerKind::Sliding { window },
            KIND_SLIDING_MULTI => SamplerKind::SlidingMulti { window },
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        let sampler = SamplerSpec::try_new(kind, s, seed).map_err(CheckpointError::Corrupt)?;
        Self::checked(sampler, k).map_err(CheckpointError::Corrupt)
    }
}

// ---------------------------------------------------------------------
// Protocol messages: SiteUp / CoordDown.
// ---------------------------------------------------------------------

/// One site→coordinator protocol message — the wire twin of the
/// `dds_core::messages` up types, one variant per sampler kind, each
/// naming its twin. The twin converts into the variant (`From`) and
/// back (`TryFrom`, which hands an up of another kind back as its
/// error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteUp {
    /// Algorithm 1's send: an element whose hash beat the site
    /// threshold (`UpElem`).
    Infinite {
        /// The observed element.
        element: Element,
    },
    /// With-replacement copy send (`CopyUp<UpElem>`).
    Wr {
        /// Which of the `s` independent copies.
        copy: u32,
        /// The observed element.
        element: Element,
    },
    /// Algorithm 3's candidate announcement (`SwUp`).
    Sliding {
        /// The candidate element.
        element: Element,
        /// First slot at which it is out of the window.
        expiry: Slot,
    },
    /// Copy-indexed sliding announcement (`CopyUp<SwUp>`).
    SlidingMulti {
        /// Which of the `s` independent copies.
        copy: u32,
        /// The candidate element.
        element: Element,
        /// First slot at which it is out of the window.
        expiry: Slot,
    },
}

impl SiteUp {
    /// The protocol-accounted size: byte-identical to the
    /// `WireMessage::wire_bytes` of the corresponding
    /// `dds_core::messages` type, so socket-side [`MessageCounters`]
    /// match the simulator's exactly.
    #[must_use]
    pub fn protocol_bytes(&self) -> usize {
        match self {
            SiteUp::Infinite { .. } => 8,
            SiteUp::Wr { .. } => 12,
            SiteUp::Sliding { .. } => 16,
            SiteUp::SlidingMulti { .. } => 20,
        }
    }
}

// Tagged by its opcode: a frame of its own as `ClusterRequest::Up`, the
// opcode byte then the fields inside a `SeqUp`.
wire_enum! { SiteUp {
    opcode::UP_INFINITE => Infinite { element: Element },
    opcode::UP_WR => Wr { copy: u32, element: Element },
    opcode::UP_SLIDING => Sliding { element: Element, expiry: Slot },
    opcode::UP_SLIDING_MULTI => SlidingMulti { copy: u32, element: Element, expiry: Slot },
} }

/// One coordinator→site protocol message — the wire twin of the
/// `dds_core::messages` down types. Several may ride in one
/// [`ClusterResponse::Downs`] envelope, but each is *accounted* as its
/// own protocol message of [`CoordDown::protocol_bytes`] size. Each
/// variant names its twin and converts as [`SiteUp`]'s do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordDown {
    /// Algorithm 2's refreshed global threshold (`DownThreshold`).
    Infinite {
        /// Raw 64-bit threshold.
        u: u64,
    },
    /// Per-copy threshold refresh (`CopyDown<DownThreshold>`).
    Wr {
        /// Which copy.
        copy: u32,
        /// Raw 64-bit threshold.
        u: u64,
    },
    /// Algorithm 4's current global sample (`SwDown`).
    Sliding {
        /// The global sample element.
        element: Element,
        /// Its expiry slot.
        expiry: Slot,
    },
    /// Copy-indexed global sample (`CopyDown<SwDown>`).
    SlidingMulti {
        /// Which copy.
        copy: u32,
        /// The global sample element.
        element: Element,
        /// Its expiry slot.
        expiry: Slot,
    },
}

// Each entry of a `Downs` payload: a tag byte, then the fields.
wire_enum! { CoordDown {
    0 => Infinite { u: u64 },
    1 => Wr { copy: u32, u: u64 },
    2 => Sliding { element: Element, expiry: Slot },
    3 => SlidingMulti { copy: u32, element: Element, expiry: Slot },
} }

impl CoordDown {
    /// Protocol-accounted size; see [`SiteUp::protocol_bytes`].
    #[must_use]
    pub fn protocol_bytes(&self) -> usize {
        match self {
            CoordDown::Infinite { .. } => 8,
            CoordDown::Wr { .. } => 12,
            CoordDown::Sliding { .. } => 16,
            CoordDown::SlidingMulti { .. } => 20,
        }
    }
}

/// Declare a wire variant the twin of a `dds_core::messages` type: `From`
/// the message into the wire enum, and `TryFrom` the wire enum back,
/// handing a message of another kind back as the error. One line per
/// message; its `(pattern): Type` both destructures and rebuilds the
/// message.
macro_rules! twin {
    ($($wire:ident::$variant:ident { $($field:ident),+ } <=> ($($pat:tt)+): $ty:ty;)+) => {$(
        impl From<$ty> for $wire {
            fn from(message: $ty) -> Self {
                let $($pat)+ = message;
                $wire::$variant { $($field),+ }
            }
        }

        impl TryFrom<$wire> for $ty {
            type Error = $wire;

            fn try_from(message: $wire) -> Result<Self, $wire> {
                match message {
                    $wire::$variant { $($field),+ } => Ok($($pat)+),
                    other => Err(other),
                }
            }
        }
    )+};
}

twin! {
    SiteUp::Infinite { element } <=> (UpElem { element }): UpElem;
    SiteUp::Wr { copy, element } <=> (CopyUp { copy, inner: UpElem { element } }): CopyUp<UpElem>;
    SiteUp::Sliding { element, expiry } <=> (SwUp { element, expiry }): SwUp;
    SiteUp::SlidingMulti { copy, element, expiry }
        <=> (CopyUp { copy, inner: SwUp { element, expiry } }): CopyUp<SwUp>;
    CoordDown::Infinite { u } <=> (DownThreshold { u }): DownThreshold;
    CoordDown::Wr { copy, u } <=> (CopyDown { copy, inner: DownThreshold { u } }): CopyDown<DownThreshold>;
    CoordDown::Sliding { element, expiry } <=> (SwDown { element, expiry }): SwDown;
    CoordDown::SlidingMulti { copy, element, expiry }
        <=> (CopyDown { copy, inner: SwDown { element, expiry } }): CopyDown<SwDown>;
}

// ---------------------------------------------------------------------
// Stats payloads.
// ---------------------------------------------------------------------

/// A point-in-time picture of a whole cluster, answered by the
/// coordinator (and the payload behind [`ClusterResponse::Stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Configured number of sites.
    pub k: usize,
    /// The coordinator's slot clock.
    pub now: Slot,
    /// Sites currently joined (connected, not departed or failed).
    pub joined: usize,
    /// Sites that left gracefully.
    pub departed: usize,
    /// Sites whose connection dropped without a `Leave`.
    pub failed: Vec<SiteId>,
    /// Exact per-site protocol message/byte accounting — the same
    /// numbers `dds_sim::Cluster::counters` reports for the fused
    /// twin.
    pub counters: MessageCounters,
    /// Coordinator memory footprint in stored tuples.
    pub memory_tuples: usize,
    /// Current global threshold, for kinds that expose one.
    pub threshold: Option<u64>,
}

/// A site daemon's own accounting, answered over its driver
/// connection ([`ClusterResponse::SiteStats`]). Its message counters
/// must agree exactly with the coordinator's row for this site — a
/// cross-check the twin tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteDaemonStats {
    /// This site's id.
    pub site: SiteId,
    /// The site's slot clock.
    pub now: Slot,
    /// Elements observed locally.
    pub observations: u64,
    /// Site memory footprint in stored tuples.
    pub memory_tuples: usize,
    /// Protocol messages sent up to the coordinator.
    pub up_msgs: u64,
    /// Protocol messages received from the coordinator.
    pub down_msgs: u64,
    /// Protocol bytes sent up.
    pub up_bytes: u64,
    /// Protocol bytes received.
    pub down_bytes: u64,
}

wire_record! { ClusterStats {
    k: usize, now: Slot, joined: usize, departed: usize, failed: Vec<SiteId>,
    counters: MessageCounters, memory_tuples: usize, threshold: Option<u64> as Padded<u64>,
} }

wire_record! { SiteDaemonStats {
    site: SiteId, now: Slot, observations: u64, memory_tuples: usize,
    up_msgs: u64, down_msgs: u64, up_bytes: u64, down_bytes: u64,
} }

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// One frame sent *to* a cluster node — by a joining site, by the
/// coordinator's control connection, or by a site daemon's driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterRequest {
    /// First frame on a site connection: identify and prove the
    /// deployment spec matches.
    Join {
        /// The joining site's id (`0..k`).
        site: SiteId,
        /// [`ClusterSpec::digest`] of the site's configuration.
        digest: u64,
    },
    /// First frame on a control connection (query/steer, not a site).
    Control {
        /// [`ClusterSpec::digest`] of the controller's configuration.
        digest: u64,
    },
    /// Graceful site departure (anything else ending a site
    /// connection marks the site failed).
    Leave,
    /// A protocol message from a joined site, applied on arrival.
    /// Answered with exactly one [`ClusterResponse::Downs`] carrying
    /// this up's replies.
    Up(SiteUp),
    /// A protocol message from a joined site, stamped with the global
    /// sequence number of the element or slot start that caused it.
    /// The coordinator applies sequenced ups in sequence order and
    /// answers each with exactly one [`ClusterResponse::Downs`].
    SeqUp {
        /// Sequence number of the causing event.
        seq: u64,
        /// The protocol message.
        up: SiteUp,
    },
    /// Site → coordinator, one-way and never answered: this site will
    /// stamp no further up with a sequence number `<= through`.
    Done {
        /// The last sequence number the site has finished.
        through: u64,
    },
    /// Control: a barrier. Every coordinator event numbered
    /// `<= through` is now announced (a slot advance is the only
    /// kind); answered once every event through `through` is applied.
    Sync {
        /// The barrier's last sequence number.
        through: u64,
        /// Start `slot` at sequence number `seq` (the coordinator's
        /// half of a slot boundary).
        advance: Option<(u64, Slot)>,
    },
    /// Control: answer the continuous query right now.
    Sample,
    /// Control: report [`ClusterStats`].
    Stats,
    /// Control: stop the coordinator.
    Shutdown,
    /// Control: report the coordinator's telemetry snapshot (registry
    /// metrics plus the exact per-site message/byte counters).
    Telemetry,
    /// One element for a site, unsequenced. Site daemons do not
    /// serve it; drivers send [`ClusterRequest::SiteBatch`].
    /// The codec keeps it because the repository benchmark's codec row
    /// encodes it.
    SiteObserve {
        /// The element.
        element: Element,
    },
    /// Driver → site daemon: observe `elements` in order, each stamped
    /// with its global sequence number; then, if `then_slot` is set,
    /// start that slot at its sequence number; then tell the
    /// coordinator [`ClusterRequest::Done`] through `through`. A batch
    /// that succeeds is never answered: the coordinator's answer to
    /// the barrier's [`ClusterRequest::Sync`] is the proof that it ran.
    /// A batch that fails is answered with its error, and the site
    /// then leaves.
    SiteBatch {
        /// `(sequence number, element)` pairs in sequence order.
        elements: Vec<(u64, Element)>,
        /// `(sequence number, slot)` of this site's slot start.
        then_slot: Option<(u64, Slot)>,
        /// The barrier's last sequence number.
        through: u64,
    },
    /// Driver → site daemon: report [`SiteDaemonStats`].
    SiteStats,
    /// Driver → site daemon: leave the cluster gracefully and exit.
    SiteShutdown,
    /// Driver → site daemon: drop every socket *without* leaving —
    /// fault injection for the failure-detection tests.
    SiteCrash,
    /// Driver → site daemon: report the daemon's telemetry snapshot.
    SiteTelemetry,
}

message! { ClusterRequest {
    opcode::JOIN => Join { site: SiteId, digest: u64 },
    opcode::CONTROL => Control { digest: u64 },
    opcode::LEAVE => Leave,
    opcode::SEQ_UP => SeqUp { seq: u64, up: SiteUp },
    opcode::DONE => Done { through: u64 },
    opcode::SYNC => Sync { through: u64, advance: Option<(u64, Slot)> },
    opcode::SAMPLE => Sample,
    opcode::STATS => Stats,
    opcode::SHUTDOWN => Shutdown,
    opcode::TELEMETRY => Telemetry,
    opcode::SITE_OBSERVE => SiteObserve { element: Element },
    opcode::SITE_BATCH => SiteBatch {
        through: u64,
        then_slot: Option<(u64, Slot)>,
        elements: Vec<(u64, Element)>
    },
    opcode::SITE_STATS => SiteStats,
    opcode::SITE_SHUTDOWN => SiteShutdown,
    opcode::SITE_CRASH => SiteCrash,
    opcode::SITE_TELEMETRY => SiteTelemetry,
    else Up(SiteUp),
} }

// ---------------------------------------------------------------------
// Responses and errors.
// ---------------------------------------------------------------------

/// One successful answer from a cluster node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterResponse {
    /// Join/control handshake accepted.
    Welcome {
        /// The deployment's site count.
        k: usize,
    },
    /// The protocol replies triggered by one [`ClusterRequest::Up`] or
    /// [`ClusterRequest::SeqUp`] — possibly empty. Always sent, so the
    /// site's settle loop stays in lock-step with the coordinator.
    Downs {
        /// The replies, in emission order.
        downs: Vec<CoordDown>,
    },
    /// The request was applied.
    Ack,
    /// The coordinator's current sample.
    Sample {
        /// The distinct sample.
        sample: Vec<Element>,
    },
    /// Whole-cluster accounting.
    Stats {
        /// The stats.
        stats: ClusterStats,
    },
    /// One site daemon's accounting.
    SiteStats {
        /// The stats.
        stats: SiteDaemonStats,
    },
    /// A node's metric registry snapshot — the answer to both
    /// [`ClusterRequest::Telemetry`] (coordinator) and
    /// [`ClusterRequest::SiteTelemetry`] (site daemon).
    Telemetry {
        /// The versioned telemetry snapshot.
        snapshot: dds_obs::TelemetrySnapshot,
    },
    /// The node is shutting this connection (or itself) down.
    Goodbye,
}

message! { ClusterResponse {
    opcode::WELCOME => Welcome { k: usize },
    opcode::DOWNS => Downs { downs: Vec<CoordDown> },
    opcode::ACK => Ack,
    opcode::SAMPLE_REPLY => Sample { sample: Vec<Element> },
    opcode::STATS_REPLY => Stats { stats: ClusterStats },
    opcode::SITE_STATS_REPLY => SiteStats { stats: SiteDaemonStats },
    opcode::TELEMETRY_REPLY => Telemetry { snapshot: TelemetrySnapshot },
    opcode::GOODBYE => Goodbye,
} }

/// A typed cluster failure — every way a deployment can refuse or
/// degrade, round-tripped structurally so remote callers see exactly
/// what a local caller would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A site's connection dropped without a graceful `Leave`; the
    /// sample can no longer be trusted cluster-wide.
    SiteDown(SiteId),
    /// Join/control digest does not match the coordinator's spec.
    ConfigMismatch {
        /// The coordinator's digest.
        expected: u64,
        /// The peer's digest.
        got: u64,
    },
    /// A second connection claimed an already-joined site id.
    DuplicateSite(SiteId),
    /// A site id outside `0..k`.
    UnknownSite(SiteId),
    /// A frame that is valid but not legal on this connection or in
    /// this state (e.g. a driver command on a site connection, or a
    /// non-successor `Advance`).
    Protocol(String),
    /// A frame or payload that could not be decoded.
    Format(String),
    /// The transport failed (connect, read, write, unexpected EOF).
    Transport(String),
    /// The node cannot serve this request.
    Unsupported(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::SiteDown(site) => {
                write!(f, "site {} is down (connection lost mid-protocol)", site.0)
            }
            ClusterError::ConfigMismatch { expected, got } => write!(
                f,
                "cluster spec digest mismatch: coordinator {expected:#018x}, peer {got:#018x}"
            ),
            ClusterError::DuplicateSite(site) => {
                write!(f, "site {} is already joined", site.0)
            }
            ClusterError::UnknownSite(site) => {
                write!(f, "site id {} out of range", site.0)
            }
            ClusterError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClusterError::Format(msg) => write!(f, "malformed cluster frame: {msg}"),
            ClusterError::Transport(msg) => write!(f, "cluster transport failure: {msg}"),
            ClusterError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CheckpointError> for ClusterError {
    fn from(e: CheckpointError) -> Self {
        ClusterError::Format(e.to_string())
    }
}

impl From<frame::FrameError> for ClusterError {
    fn from(e: frame::FrameError) -> Self {
        match e {
            frame::FrameError::Io(err) => ClusterError::Transport(err.to_string()),
            frame::FrameError::Format(err) => ClusterError::Format(err.to_string()),
        }
    }
}

// The payload of an error frame: a tag byte, then the variant's fields.
wire_enum! { ClusterError {
    0 => SiteDown(site: SiteId),
    1 => ConfigMismatch { expected: u64, got: u64 },
    2 => DuplicateSite(site: SiteId),
    3 => UnknownSite(site: SiteId),
    4 => Protocol(msg: String),
    5 => Format(msg: String),
    6 => Transport(msg: String),
    7 => Unsupported(msg: String),
} }

impl Refusal for ClusterError {
    const OPCODE: u8 = opcode::CLUSTER_ERROR;

    fn unsupported(reason: String) -> Self {
        ClusterError::Unsupported(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_outcome_frame, encode_outcome};

    fn spec() -> ClusterSpec {
        ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 42), 4)
    }

    #[test]
    fn spec_hex_round_trips_and_digests_are_spec_sensitive() {
        let a = spec();
        assert_eq!(ClusterSpec::from_hex(&a.to_hex()), Ok(a));
        let b = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 43), 4);
        assert_ne!(a.digest(), b.digest());
        let c = ClusterSpec::new(a.sampler, 5);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn spec_decode_validates() {
        assert!(ClusterSpec::from_hex("zz").is_err());
        assert!(ClusterSpec::from_hex("0102").is_err());
        let decode = |tag: u8, s: u64, window: u64, k: u64| {
            let mut w = StateWriter::new();
            w.put_u8(tag);
            w.put_u64(s);
            w.put_u64(7);
            w.put_u64(window);
            w.put_u64(k);
            ClusterSpec::decode(&w.into_bytes())
        };
        // Each is refused structurally, not by a downstream panic or
        // abort: sliding with s != 1, a with-replacement spec whose
        // sites would allocate 64 GiB of copies, and 2^40 sites.
        assert!(decode(KIND_SLIDING, 2, 16, 3).is_err());
        assert!(decode(KIND_WR, u64::from(u32::MAX), 0, 2).is_err());
        assert!(decode(KIND_INFINITE, 4, 0, 1 << 40).is_err());
        let (s, k) = (SamplerSpec::MAX_S as u64, ClusterSpec::MAX_K as u64);
        assert!(decode(KIND_WR, s, 0, k).is_ok());
    }

    #[test]
    fn protocol_bytes_match_core_wire_sizes() {
        use dds_core::messages::{CopyUp, SwUp, UpElem};
        use dds_sim::WireMessage;
        let e = Element(9);
        assert_eq!(
            SiteUp::Infinite { element: e }.protocol_bytes(),
            UpElem { element: e }.wire_bytes()
        );
        assert_eq!(
            SiteUp::Wr {
                copy: 1,
                element: e
            }
            .protocol_bytes(),
            CopyUp {
                copy: 1,
                inner: UpElem { element: e }
            }
            .wire_bytes()
        );
        assert_eq!(
            SiteUp::Sliding {
                element: e,
                expiry: Slot(3)
            }
            .protocol_bytes(),
            SwUp {
                element: e,
                expiry: Slot(3)
            }
            .wire_bytes()
        );
        assert_eq!(
            SiteUp::SlidingMulti {
                copy: 0,
                element: e,
                expiry: Slot(3)
            }
            .protocol_bytes(),
            20
        );
    }

    #[test]
    fn request_and_outcome_frames_round_trip() {
        let requests = vec![
            ClusterRequest::Join {
                site: SiteId(2),
                digest: spec().digest(),
            },
            ClusterRequest::Up(SiteUp::Sliding {
                element: Element(5),
                expiry: Slot(9),
            }),
            ClusterRequest::SiteObserve {
                element: Element(77),
            },
            ClusterRequest::SeqUp {
                seq: 12,
                up: SiteUp::Wr {
                    copy: 1,
                    element: Element(8),
                },
            },
            ClusterRequest::SiteBatch {
                elements: vec![(3, Element(77)), (5, Element(78))],
                then_slot: Some((6, Slot(2))),
                through: 8,
            },
        ];
        for request in requests {
            assert_eq!(ClusterRequest::decode_frame(&request.encode()), Ok(request));
        }
        let ok: Result<ClusterResponse, ClusterError> = Ok(ClusterResponse::Downs {
            downs: vec![
                CoordDown::Infinite { u: 12 },
                CoordDown::SlidingMulti {
                    copy: 3,
                    element: Element(1),
                    expiry: Slot(2),
                },
            ],
        });
        assert_eq!(decode_outcome_frame(&encode_outcome(&ok)), Ok(ok.clone()));
        let err: Result<ClusterResponse, ClusterError> = Err(ClusterError::SiteDown(SiteId(1)));
        assert_eq!(decode_outcome_frame(&encode_outcome(&err)), Ok(err));
    }
}
