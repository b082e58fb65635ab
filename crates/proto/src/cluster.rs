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
//!   [`MessageCounters`] agree *exactly* with the simulator's.
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

use dds_core::checkpoint::{CheckpointError, StateReader, StateWriter};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_hash::fnv::fnv1a_64;
use dds_sim::{Element, MessageCounters, SiteId, Slot};

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
    /// Name a deployment.
    ///
    /// # Panics
    /// If `k == 0`, or the sampler kind is
    /// [`SamplerKind::Centralized`] (it has no site/coordinator
    /// split to deploy).
    #[must_use]
    pub fn new(sampler: SamplerSpec, k: usize) -> Self {
        assert!(k >= 1, "a cluster needs at least one site");
        assert!(
            !matches!(sampler.kind, SamplerKind::Centralized),
            "the centralized sampler has no distributed protocol"
        );
        Self { sampler, k }
    }

    /// Fixed-layout encoding: kind tag, `s`, seed, window (0 when the
    /// kind has none), `k`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        let (tag, window) = match self.sampler.kind {
            SamplerKind::Infinite => (KIND_INFINITE, 0),
            SamplerKind::WithReplacement => (KIND_WR, 0),
            SamplerKind::Sliding { window } => (KIND_SLIDING, window),
            SamplerKind::SlidingMulti { window } => (KIND_SLIDING_MULTI, window),
            SamplerKind::Centralized => unreachable!("rejected by ClusterSpec::new"),
        };
        w.put_u8(tag);
        w.put_u64(self.sampler.s as u64);
        w.put_u64(self.sampler.seed);
        w.put_u64(window);
        w.put_u64(self.k as u64);
        w.into_bytes()
    }

    /// Decode and validate an encoded spec.
    ///
    /// # Errors
    /// [`CheckpointError`] on truncation, unknown kind tags, or
    /// parameter combinations `SamplerSpec::new` would reject.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = StateReader::new(bytes);
        let tag = r.get_u8()?;
        let s = usize::try_from(r.get_u64()?)
            .map_err(|_| CheckpointError::Corrupt("sample size exceeds usize"))?;
        let seed = r.get_u64()?;
        let window = r.get_u64()?;
        let k = usize::try_from(r.get_u64()?)
            .map_err(|_| CheckpointError::Corrupt("site count exceeds usize"))?;
        r.expect_end()?;
        let kind = match tag {
            KIND_INFINITE => SamplerKind::Infinite,
            KIND_WR => SamplerKind::WithReplacement,
            KIND_SLIDING => SamplerKind::Sliding { window },
            KIND_SLIDING_MULTI => SamplerKind::SlidingMulti { window },
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        if s == 0 {
            return Err(CheckpointError::Corrupt("sample size must be >= 1"));
        }
        if matches!(tag, KIND_SLIDING | KIND_SLIDING_MULTI) && window == 0 {
            return Err(CheckpointError::Corrupt("window must be >= 1"));
        }
        if tag == KIND_SLIDING && s != 1 {
            return Err(CheckpointError::Corrupt(
                "single-sample sliding needs s == 1",
            ));
        }
        if k == 0 {
            return Err(CheckpointError::Corrupt(
                "a cluster needs at least one site",
            ));
        }
        Ok(Self {
            sampler: SamplerSpec::new(kind, s, seed),
            k,
        })
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

// ---------------------------------------------------------------------
// Protocol messages: SiteUp / CoordDown.
// ---------------------------------------------------------------------

/// One site→coordinator protocol message — the wire twin of the
/// `dds_core::messages` up types, one variant per sampler kind.
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

    fn opcode(&self) -> u8 {
        match self {
            SiteUp::Infinite { .. } => opcode::UP_INFINITE,
            SiteUp::Wr { .. } => opcode::UP_WR,
            SiteUp::Sliding { .. } => opcode::UP_SLIDING,
            SiteUp::SlidingMulti { .. } => opcode::UP_SLIDING_MULTI,
        }
    }

    fn put(&self, w: &mut StateWriter) {
        match *self {
            SiteUp::Infinite { element } => w.put_element(element),
            SiteUp::Wr { copy, element } => {
                w.put_u32(copy);
                w.put_element(element);
            }
            SiteUp::Sliding { element, expiry } => {
                w.put_element(element);
                w.put_slot(expiry);
            }
            SiteUp::SlidingMulti {
                copy,
                element,
                expiry,
            } => {
                w.put_u32(copy);
                w.put_element(element);
                w.put_slot(expiry);
            }
        }
    }

    fn get(op: u8, r: &mut StateReader<'_>) -> Result<SiteUp, CheckpointError> {
        Ok(match op {
            opcode::UP_INFINITE => SiteUp::Infinite {
                element: r.get_element()?,
            },
            opcode::UP_WR => SiteUp::Wr {
                copy: r.get_u32()?,
                element: r.get_element()?,
            },
            opcode::UP_SLIDING => SiteUp::Sliding {
                element: r.get_element()?,
                expiry: r.get_slot()?,
            },
            opcode::UP_SLIDING_MULTI => SiteUp::SlidingMulti {
                copy: r.get_u32()?,
                element: r.get_element()?,
                expiry: r.get_slot()?,
            },
            other => return Err(CheckpointError::UnknownKind(other)),
        })
    }
}

/// One coordinator→site protocol message — the wire twin of the
/// `dds_core::messages` down types. Several may ride in one
/// [`ClusterResponse::Downs`] envelope, but each is *accounted* as its
/// own protocol message of [`CoordDown::protocol_bytes`] size.
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

/// Tag bytes for [`CoordDown`] entries inside a `Downs` payload.
const DOWN_INFINITE: u8 = 0;
const DOWN_WR: u8 = 1;
const DOWN_SLIDING: u8 = 2;
const DOWN_SLIDING_MULTI: u8 = 3;

/// Smallest encoded [`CoordDown`] entry (tag + threshold).
const DOWN_MIN_BYTES: usize = 9;

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

    fn put(&self, w: &mut StateWriter) {
        match *self {
            CoordDown::Infinite { u } => {
                w.put_u8(DOWN_INFINITE);
                w.put_u64(u);
            }
            CoordDown::Wr { copy, u } => {
                w.put_u8(DOWN_WR);
                w.put_u32(copy);
                w.put_u64(u);
            }
            CoordDown::Sliding { element, expiry } => {
                w.put_u8(DOWN_SLIDING);
                w.put_element(element);
                w.put_slot(expiry);
            }
            CoordDown::SlidingMulti {
                copy,
                element,
                expiry,
            } => {
                w.put_u8(DOWN_SLIDING_MULTI);
                w.put_u32(copy);
                w.put_element(element);
                w.put_slot(expiry);
            }
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<CoordDown, CheckpointError> {
        Ok(match r.get_u8()? {
            DOWN_INFINITE => CoordDown::Infinite { u: r.get_u64()? },
            DOWN_WR => CoordDown::Wr {
                copy: r.get_u32()?,
                u: r.get_u64()?,
            },
            DOWN_SLIDING => CoordDown::Sliding {
                element: r.get_element()?,
                expiry: r.get_slot()?,
            },
            DOWN_SLIDING_MULTI => CoordDown::SlidingMulti {
                copy: r.get_u32()?,
                element: r.get_element()?,
                expiry: r.get_slot()?,
            },
            other => return Err(CheckpointError::UnknownKind(other)),
        })
    }
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

fn put_site(w: &mut StateWriter, site: SiteId) {
    w.put_u32(u32::try_from(site.0).expect("site id fits u32"));
}

fn get_site(r: &mut StateReader<'_>) -> Result<SiteId, CheckpointError> {
    Ok(SiteId(r.get_u32()? as usize))
}

fn put_usize(w: &mut StateWriter, n: usize) {
    w.put_u64(n as u64);
}

fn get_usize(r: &mut StateReader<'_>) -> Result<usize, CheckpointError> {
    usize::try_from(r.get_u64()?).map_err(|_| CheckpointError::Corrupt("count exceeds usize"))
}

fn put_string(w: &mut StateWriter, s: &str) {
    w.put_len(s.len());
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut StateReader<'_>) -> Result<String, CheckpointError> {
    let n = r.get_len(1)?;
    String::from_utf8(r.get_bytes(n)?.to_vec())
        .map_err(|_| CheckpointError::Corrupt("string is not valid utf-8"))
}

fn put_opt_u64(w: &mut StateWriter, v: Option<u64>) {
    w.put_bool(v.is_some());
    w.put_u64(v.unwrap_or(0));
}

fn get_opt_u64(r: &mut StateReader<'_>) -> Result<Option<u64>, CheckpointError> {
    let present = r.get_bool()?;
    let v = r.get_u64()?;
    Ok(present.then_some(v))
}

fn put_seq_slot(w: &mut StateWriter, v: Option<(u64, Slot)>) {
    w.put_bool(v.is_some());
    if let Some((seq, slot)) = v {
        w.put_u64(seq);
        w.put_slot(slot);
    }
}

fn get_seq_slot(r: &mut StateReader<'_>) -> Result<Option<(u64, Slot)>, CheckpointError> {
    if r.get_bool()? {
        Ok(Some((r.get_u64()?, r.get_slot()?)))
    } else {
        Ok(None)
    }
}

/// Encoded size of one `(sequence number, element)` pair in a
/// [`ClusterRequest::SiteBatch`].
const SEQ_ELEMENT_BYTES: usize = 16;

fn put_counters(w: &mut StateWriter, c: &MessageCounters) {
    w.put_len(c.sites());
    for i in 0..c.sites() {
        let site = SiteId(i);
        w.put_u64(c.up_messages_for(site));
        w.put_u64(c.down_messages_for(site));
        w.put_u64(c.up_bytes_for(site));
        w.put_u64(c.down_bytes_for(site));
    }
}

fn get_counters(r: &mut StateReader<'_>) -> Result<MessageCounters, CheckpointError> {
    let k = r.get_len(32)?;
    let (mut um, mut dm, mut ub, mut db) = (
        Vec::with_capacity(k),
        Vec::with_capacity(k),
        Vec::with_capacity(k),
        Vec::with_capacity(k),
    );
    for _ in 0..k {
        um.push(r.get_u64()?);
        dm.push(r.get_u64()?);
        ub.push(r.get_u64()?);
        db.push(r.get_u64()?);
    }
    Ok(MessageCounters::from_parts(um, dm, ub, db))
}

fn put_cluster_stats(w: &mut StateWriter, s: &ClusterStats) {
    put_usize(w, s.k);
    w.put_slot(s.now);
    put_usize(w, s.joined);
    put_usize(w, s.departed);
    w.put_len(s.failed.len());
    for &site in &s.failed {
        put_site(w, site);
    }
    put_counters(w, &s.counters);
    put_usize(w, s.memory_tuples);
    put_opt_u64(w, s.threshold);
}

fn get_cluster_stats(r: &mut StateReader<'_>) -> Result<ClusterStats, CheckpointError> {
    let k = get_usize(r)?;
    let now = r.get_slot()?;
    let joined = get_usize(r)?;
    let departed = get_usize(r)?;
    let n_failed = r.get_len(4)?;
    let mut failed = Vec::with_capacity(n_failed);
    for _ in 0..n_failed {
        failed.push(get_site(r)?);
    }
    let counters = get_counters(r)?;
    let memory_tuples = get_usize(r)?;
    let threshold = get_opt_u64(r)?;
    Ok(ClusterStats {
        k,
        now,
        joined,
        departed,
        failed,
        counters,
        memory_tuples,
        threshold,
    })
}

fn put_site_stats(w: &mut StateWriter, s: &SiteDaemonStats) {
    put_site(w, s.site);
    w.put_slot(s.now);
    w.put_u64(s.observations);
    put_usize(w, s.memory_tuples);
    w.put_u64(s.up_msgs);
    w.put_u64(s.down_msgs);
    w.put_u64(s.up_bytes);
    w.put_u64(s.down_bytes);
}

fn get_site_stats(r: &mut StateReader<'_>) -> Result<SiteDaemonStats, CheckpointError> {
    Ok(SiteDaemonStats {
        site: get_site(r)?,
        now: r.get_slot()?,
        observations: r.get_u64()?,
        memory_tuples: get_usize(r)?,
        up_msgs: r.get_u64()?,
        down_msgs: r.get_u64()?,
        up_bytes: r.get_u64()?,
        down_bytes: r.get_u64()?,
    })
}

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

impl ClusterRequest {
    /// This request's frame opcode.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            ClusterRequest::Join { .. } => opcode::JOIN,
            ClusterRequest::Control { .. } => opcode::CONTROL,
            ClusterRequest::Leave => opcode::LEAVE,
            ClusterRequest::Up(up) => up.opcode(),
            ClusterRequest::SeqUp { .. } => opcode::SEQ_UP,
            ClusterRequest::Done { .. } => opcode::DONE,
            ClusterRequest::Sync { .. } => opcode::SYNC,
            ClusterRequest::Sample => opcode::SAMPLE,
            ClusterRequest::Stats => opcode::STATS,
            ClusterRequest::Shutdown => opcode::SHUTDOWN,
            ClusterRequest::Telemetry => opcode::TELEMETRY,
            ClusterRequest::SiteObserve { .. } => opcode::SITE_OBSERVE,
            ClusterRequest::SiteBatch { .. } => opcode::SITE_BATCH,
            ClusterRequest::SiteStats => opcode::SITE_STATS,
            ClusterRequest::SiteShutdown => opcode::SITE_SHUTDOWN,
            ClusterRequest::SiteCrash => opcode::SITE_CRASH,
            ClusterRequest::SiteTelemetry => opcode::SITE_TELEMETRY,
        }
    }

    /// This request's payload bytes.
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            ClusterRequest::Join { site, digest } => {
                put_site(&mut w, *site);
                w.put_u64(*digest);
            }
            ClusterRequest::Control { digest } => w.put_u64(*digest),
            ClusterRequest::Up(up) => up.put(&mut w),
            ClusterRequest::SeqUp { seq, up } => {
                w.put_u64(*seq);
                w.put_u8(up.opcode());
                up.put(&mut w);
            }
            ClusterRequest::Done { through } => w.put_u64(*through),
            ClusterRequest::Sync { through, advance } => {
                w.put_u64(*through);
                put_seq_slot(&mut w, *advance);
            }
            ClusterRequest::SiteObserve { element } => w.put_element(*element),
            ClusterRequest::SiteBatch {
                elements,
                then_slot,
                through,
            } => {
                w.reserve(SEQ_ELEMENT_BYTES * elements.len());
                w.put_u64(*through);
                put_seq_slot(&mut w, *then_slot);
                w.put_len(elements.len());
                for &(seq, element) in elements {
                    w.put_u64(seq);
                    w.put_element(element);
                }
            }
            ClusterRequest::Leave
            | ClusterRequest::Sample
            | ClusterRequest::Stats
            | ClusterRequest::Shutdown
            | ClusterRequest::Telemetry
            | ClusterRequest::SiteStats
            | ClusterRequest::SiteShutdown
            | ClusterRequest::SiteCrash
            | ClusterRequest::SiteTelemetry => {}
        }
        w.into_bytes()
    }

    /// Encode into one `DDSP` frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        frame::frame_bytes(self.opcode(), &self.payload())
    }

    /// Decode from an opcode + payload.
    ///
    /// # Errors
    /// [`CheckpointError`] on unknown opcodes or malformed payloads.
    pub fn decode(op: u8, payload: &[u8]) -> Result<ClusterRequest, CheckpointError> {
        let mut r = StateReader::new(payload);
        let request = match op {
            opcode::UP_INFINITE | opcode::UP_WR | opcode::UP_SLIDING | opcode::UP_SLIDING_MULTI => {
                ClusterRequest::Up(SiteUp::get(op, &mut r)?)
            }
            opcode::SEQ_UP => {
                let seq = r.get_u64()?;
                let kind = r.get_u8()?;
                ClusterRequest::SeqUp {
                    seq,
                    up: SiteUp::get(kind, &mut r)?,
                }
            }
            opcode::DONE => ClusterRequest::Done {
                through: r.get_u64()?,
            },
            opcode::SYNC => ClusterRequest::Sync {
                through: r.get_u64()?,
                advance: get_seq_slot(&mut r)?,
            },
            opcode::JOIN => ClusterRequest::Join {
                site: get_site(&mut r)?,
                digest: r.get_u64()?,
            },
            opcode::CONTROL => ClusterRequest::Control {
                digest: r.get_u64()?,
            },
            opcode::LEAVE => ClusterRequest::Leave,
            opcode::SAMPLE => ClusterRequest::Sample,
            opcode::STATS => ClusterRequest::Stats,
            opcode::SHUTDOWN => ClusterRequest::Shutdown,
            opcode::TELEMETRY => ClusterRequest::Telemetry,
            opcode::SITE_OBSERVE => ClusterRequest::SiteObserve {
                element: r.get_element()?,
            },
            opcode::SITE_BATCH => {
                let through = r.get_u64()?;
                let then_slot = get_seq_slot(&mut r)?;
                let n = r.get_len(SEQ_ELEMENT_BYTES)?;
                // No capacity from the count: it is the peer's claim.
                let mut elements = Vec::new();
                for _ in 0..n {
                    elements.push((r.get_u64()?, r.get_element()?));
                }
                ClusterRequest::SiteBatch {
                    elements,
                    then_slot,
                    through,
                }
            }
            opcode::SITE_STATS => ClusterRequest::SiteStats,
            opcode::SITE_SHUTDOWN => ClusterRequest::SiteShutdown,
            opcode::SITE_CRASH => ClusterRequest::SiteCrash,
            opcode::SITE_TELEMETRY => ClusterRequest::SiteTelemetry,
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        r.expect_end()?;
        Ok(request)
    }

    /// Decode from a whole frame.
    ///
    /// # Errors
    /// [`CheckpointError`] on any framing or payload defect.
    pub fn decode_frame(bytes: &[u8]) -> Result<ClusterRequest, CheckpointError> {
        let (op, payload) = frame::decode_frame(bytes)?;
        ClusterRequest::decode(op, payload)
    }
}

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

impl ClusterResponse {
    /// This response's frame opcode.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            ClusterResponse::Welcome { .. } => opcode::WELCOME,
            ClusterResponse::Downs { .. } => opcode::DOWNS,
            ClusterResponse::Ack => opcode::ACK,
            ClusterResponse::Sample { .. } => opcode::SAMPLE_REPLY,
            ClusterResponse::Stats { .. } => opcode::STATS_REPLY,
            ClusterResponse::SiteStats { .. } => opcode::SITE_STATS_REPLY,
            ClusterResponse::Telemetry { .. } => opcode::TELEMETRY_REPLY,
            ClusterResponse::Goodbye => opcode::GOODBYE,
        }
    }

    /// This response's payload bytes.
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            ClusterResponse::Welcome { k } => put_usize(&mut w, *k),
            ClusterResponse::Downs { downs } => {
                w.put_len(downs.len());
                for down in downs {
                    down.put(&mut w);
                }
            }
            ClusterResponse::Sample { sample } => {
                w.put_len(sample.len());
                for &e in sample {
                    w.put_element(e);
                }
            }
            ClusterResponse::Stats { stats } => put_cluster_stats(&mut w, stats),
            ClusterResponse::SiteStats { stats } => put_site_stats(&mut w, stats),
            ClusterResponse::Telemetry { snapshot } => {
                crate::telemetry::put_telemetry(&mut w, snapshot);
            }
            ClusterResponse::Ack | ClusterResponse::Goodbye => {}
        }
        w.into_bytes()
    }

    /// Encode into one `DDSP` frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        frame::frame_bytes(self.opcode(), &self.payload())
    }

    /// Decode from an opcode + payload.
    ///
    /// # Errors
    /// [`CheckpointError`] on unknown opcodes or malformed payloads.
    pub fn decode(op: u8, payload: &[u8]) -> Result<ClusterResponse, CheckpointError> {
        let mut r = StateReader::new(payload);
        let response = match op {
            opcode::WELCOME => ClusterResponse::Welcome {
                k: get_usize(&mut r)?,
            },
            opcode::DOWNS => {
                let n = r.get_len(DOWN_MIN_BYTES)?;
                let mut downs = Vec::with_capacity(n);
                for _ in 0..n {
                    downs.push(CoordDown::get(&mut r)?);
                }
                ClusterResponse::Downs { downs }
            }
            opcode::ACK => ClusterResponse::Ack,
            opcode::SAMPLE_REPLY => {
                let n = r.get_len(8)?;
                let mut sample = Vec::with_capacity(n);
                for _ in 0..n {
                    sample.push(r.get_element()?);
                }
                ClusterResponse::Sample { sample }
            }
            opcode::STATS_REPLY => ClusterResponse::Stats {
                stats: get_cluster_stats(&mut r)?,
            },
            opcode::SITE_STATS_REPLY => ClusterResponse::SiteStats {
                stats: get_site_stats(&mut r)?,
            },
            opcode::TELEMETRY_REPLY => ClusterResponse::Telemetry {
                snapshot: crate::telemetry::get_telemetry(&mut r)?,
            },
            opcode::GOODBYE => ClusterResponse::Goodbye,
            other => return Err(CheckpointError::UnknownKind(other)),
        };
        r.expect_end()?;
        Ok(response)
    }
}

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

/// Encode a [`ClusterError`] into `w` (tag byte + variant fields).
pub fn put_cluster_error(w: &mut StateWriter, error: &ClusterError) {
    match error {
        ClusterError::SiteDown(site) => {
            w.put_u8(0);
            put_site(w, *site);
        }
        ClusterError::ConfigMismatch { expected, got } => {
            w.put_u8(1);
            w.put_u64(*expected);
            w.put_u64(*got);
        }
        ClusterError::DuplicateSite(site) => {
            w.put_u8(2);
            put_site(w, *site);
        }
        ClusterError::UnknownSite(site) => {
            w.put_u8(3);
            put_site(w, *site);
        }
        ClusterError::Protocol(msg) => {
            w.put_u8(4);
            put_string(w, msg);
        }
        ClusterError::Format(msg) => {
            w.put_u8(5);
            put_string(w, msg);
        }
        ClusterError::Transport(msg) => {
            w.put_u8(6);
            put_string(w, msg);
        }
        ClusterError::Unsupported(msg) => {
            w.put_u8(7);
            put_string(w, msg);
        }
    }
}

/// Decode a [`ClusterError`] from `r`.
///
/// # Errors
/// [`CheckpointError`] on unknown tags or malformed fields.
pub fn get_cluster_error(r: &mut StateReader<'_>) -> Result<ClusterError, CheckpointError> {
    Ok(match r.get_u8()? {
        0 => ClusterError::SiteDown(get_site(r)?),
        1 => ClusterError::ConfigMismatch {
            expected: r.get_u64()?,
            got: r.get_u64()?,
        },
        2 => ClusterError::DuplicateSite(get_site(r)?),
        3 => ClusterError::UnknownSite(get_site(r)?),
        4 => ClusterError::Protocol(get_string(r)?),
        5 => ClusterError::Format(get_string(r)?),
        6 => ClusterError::Transport(get_string(r)?),
        7 => ClusterError::Unsupported(get_string(r)?),
        other => return Err(CheckpointError::UnknownKind(other)),
    })
}

/// Encode a full cluster outcome as one frame: the response's own
/// opcode on success, [`opcode::CLUSTER_ERROR`] on failure.
#[must_use]
pub fn encode_cluster_outcome(outcome: &Result<ClusterResponse, ClusterError>) -> Vec<u8> {
    match outcome {
        Ok(response) => response.encode(),
        Err(error) => {
            let mut w = StateWriter::new();
            put_cluster_error(&mut w, error);
            frame::frame_bytes(opcode::CLUSTER_ERROR, &w.into_bytes())
        }
    }
}

/// Decode a cluster outcome from an opcode + payload.
///
/// # Errors
/// [`CheckpointError`] on unknown opcodes or malformed payloads.
pub fn decode_cluster_outcome(
    op: u8,
    payload: &[u8],
) -> Result<Result<ClusterResponse, ClusterError>, CheckpointError> {
    if op == opcode::CLUSTER_ERROR {
        let mut r = StateReader::new(payload);
        let error = get_cluster_error(&mut r)?;
        r.expect_end()?;
        return Ok(Err(error));
    }
    Ok(Ok(ClusterResponse::decode(op, payload)?))
}

/// Decode a cluster outcome from a whole frame.
///
/// # Errors
/// [`CheckpointError`] on any framing or payload defect.
pub fn decode_cluster_outcome_frame(
    bytes: &[u8],
) -> Result<Result<ClusterResponse, ClusterError>, CheckpointError> {
    let (op, payload) = frame::decode_frame(bytes)?;
    decode_cluster_outcome(op, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Sliding with s != 1 must be rejected structurally, not by a
        // downstream panic.
        let mut w = StateWriter::new();
        w.put_u8(super::KIND_SLIDING);
        w.put_u64(2);
        w.put_u64(7);
        w.put_u64(16);
        w.put_u64(3);
        assert!(ClusterSpec::decode(&w.into_bytes()).is_err());
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
        assert_eq!(
            decode_cluster_outcome_frame(&encode_cluster_outcome(&ok)),
            Ok(ok.clone())
        );
        let err: Result<ClusterResponse, ClusterError> = Err(ClusterError::SiteDown(SiteId(1)));
        assert_eq!(
            decode_cluster_outcome_frame(&encode_cluster_outcome(&err)),
            Ok(err)
        );
    }
}
