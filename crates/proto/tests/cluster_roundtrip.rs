//! Property: `encode → decode` is the identity for every message of
//! the cluster wire dialect — every [`ClusterRequest`] variant, every
//! [`ClusterResponse`] variant, every [`ClusterError`] variant — and
//! malformed frames fail *cleanly* (truncations, bit flips, oversized
//! length claims, forged batch counts), mirroring `proto_roundtrip.rs`
//! for the engine dialect. The frames that predate sequenced batches
//! are pinned byte for byte.

use dds_core::checkpoint::{CheckpointError, StateWriter};
use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_obs::{HistogramSnapshot, TelemetrySnapshot, BUCKET_COUNT};
use dds_proto::cluster::{
    opcode, ClusterError, ClusterRequest, ClusterResponse, ClusterSpec, ClusterStats, CoordDown,
    SiteDaemonStats, SiteUp,
};
use dds_proto::frame;
use dds_proto::{decode_outcome_frame, encode_outcome};
use dds_sim::{Element, MessageCounters, SiteId, Slot};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Builders: proptest picks a variant index plus a pool of field values;
// these map them onto concrete messages so every variant is reachable.
// ---------------------------------------------------------------------

fn site_up_from(idx: u8, copy: u32, element: u64, expiry: u64) -> SiteUp {
    match idx % 4 {
        0 => SiteUp::Infinite {
            element: Element(element),
        },
        1 => SiteUp::Wr {
            copy,
            element: Element(element),
        },
        2 => SiteUp::Sliding {
            element: Element(element),
            expiry: Slot(expiry),
        },
        _ => SiteUp::SlidingMulti {
            copy,
            element: Element(element),
            expiry: Slot(expiry),
        },
    }
}

fn coord_down_from(idx: u8, copy: u32, word: u64, expiry: u64) -> CoordDown {
    match idx % 4 {
        0 => CoordDown::Infinite { u: word },
        1 => CoordDown::Wr { copy, u: word },
        2 => CoordDown::Sliding {
            element: Element(word),
            expiry: Slot(expiry),
        },
        _ => CoordDown::SlidingMulti {
            copy,
            element: Element(word),
            expiry: Slot(expiry),
        },
    }
}

fn request_from(
    idx: u8,
    site: u32,
    digest: u64,
    element: u64,
    slot: u64,
    copy: u32,
) -> ClusterRequest {
    // Odd copies leave the optional slot fields out.
    let seq_slot = (copy % 2 == 0).then_some((slot, Slot(element)));
    match idx % REQUEST_VARIANTS {
        0 => ClusterRequest::Join {
            site: SiteId(site as usize),
            digest,
        },
        1 => ClusterRequest::Control { digest },
        2 => ClusterRequest::Leave,
        i @ 3..=6 => ClusterRequest::Up(site_up_from(i - 3, copy, element, slot)),
        7 => ClusterRequest::SeqUp {
            seq: digest,
            up: site_up_from(copy as u8, copy, element, slot),
        },
        8 => ClusterRequest::Sample,
        9 => ClusterRequest::Stats,
        10 => ClusterRequest::Shutdown,
        11 => ClusterRequest::SiteObserve {
            element: Element(element),
        },
        12 => ClusterRequest::SiteBatch {
            elements: (0..element % 5)
                .map(|i| (slot.wrapping_add(i), Element(element ^ i)))
                .collect(),
            then_slot: seq_slot,
            through: digest,
        },
        13 => ClusterRequest::SiteStats,
        14 => ClusterRequest::SiteShutdown,
        15 => ClusterRequest::SiteCrash,
        16 => ClusterRequest::Telemetry,
        17 => ClusterRequest::SiteTelemetry,
        18 => ClusterRequest::Done { through: digest },
        _ => ClusterRequest::Sync {
            through: digest,
            advance: seq_slot,
        },
    }
}

/// How many request shapes `request_from` builds.
const REQUEST_VARIANTS: u8 = 20;

/// A telemetry snapshot derived from the generated word pool that
/// always satisfies the decoder's sparse-histogram invariants
/// (strictly ascending in-range bucket indices, nonzero counts).
fn snapshot_from(words: &[u64], text: &[u8]) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    let tag = String::from_utf8_lossy(text).into_owned();
    for (i, &w) in words.iter().enumerate().take(3) {
        let site = i.to_string();
        snap.push_counter("c_up_msgs_total", &[("site", site.as_str())], w);
        snap.push_gauge("c_now_slot", &[("site", site.as_str())], w ^ 0xa5a5);
    }
    let mut idxs: Vec<u32> = words
        .iter()
        .map(|&w| (w % BUCKET_COUNT as u64) as u32)
        .collect();
    idxs.sort_unstable();
    idxs.dedup();
    let buckets: Vec<(u32, u64)> = idxs
        .into_iter()
        .enumerate()
        .map(|(i, ix)| (ix, i as u64 + 1))
        .collect();
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    snap.push_histogram(
        "c_settle_nanos",
        &[("tag", tag.as_str())],
        HistogramSnapshot {
            count,
            sum: count.wrapping_mul(13),
            max: words.iter().copied().max().unwrap_or(0),
            buckets,
        },
    );
    snap.events.push(dds_obs::Event {
        seq: words.len() as u64,
        kind: "proptest".into(),
        detail: tag,
        nanos: 7,
    });
    snap
}

fn stats_from(k: usize, words: &[u64], failed: &[u32], threshold: Option<u64>) -> ClusterStats {
    let col = |off: usize| -> Vec<u64> {
        (0..k)
            .map(|i| words.get(off * k + i).copied().unwrap_or(off as u64))
            .collect()
    };
    ClusterStats {
        k,
        now: Slot(words.first().copied().unwrap_or(0)),
        joined: k,
        departed: words.get(1).copied().unwrap_or(0) as usize % (k + 1),
        failed: failed
            .iter()
            .map(|&f| SiteId(f as usize % (k.max(1))))
            .collect(),
        counters: MessageCounters::from_parts(col(0), col(1), col(2), col(3)),
        memory_tuples: words.get(2).copied().unwrap_or(7) as usize,
        threshold,
    }
}

fn site_stats_from(site: u32, words: &[u64]) -> SiteDaemonStats {
    let w = |i: usize| words.get(i).copied().unwrap_or(i as u64);
    SiteDaemonStats {
        site: SiteId(site as usize),
        now: Slot(w(0)),
        observations: w(1),
        memory_tuples: w(2) as usize,
        up_msgs: w(3),
        down_msgs: w(4),
        up_bytes: w(5),
        down_bytes: w(6),
    }
}

#[allow(clippy::too_many_arguments)]
fn response_from(
    idx: u8,
    k: usize,
    elements: &[u64],
    downs: &[(u8, u32, u64, u64)],
    words: &[u64],
    failed: &[u32],
    site: u32,
    threshold: Option<u64>,
) -> ClusterResponse {
    match idx % 8 {
        0 => ClusterResponse::Welcome { k },
        1 => ClusterResponse::Downs {
            downs: downs
                .iter()
                .map(|&(i, copy, word, expiry)| coord_down_from(i, copy, word, expiry))
                .collect(),
        },
        2 => ClusterResponse::Ack,
        3 => ClusterResponse::Sample {
            sample: elements.iter().copied().map(Element).collect(),
        },
        4 => ClusterResponse::Stats {
            stats: stats_from(k, words, failed, threshold),
        },
        5 => ClusterResponse::SiteStats {
            stats: site_stats_from(site, words),
        },
        6 => ClusterResponse::Telemetry {
            snapshot: snapshot_from(words, b"twin"),
        },
        _ => ClusterResponse::Goodbye,
    }
}

fn error_from(idx: u8, site: u32, a: u64, b: u64, text: &[u8]) -> ClusterError {
    let msg = String::from_utf8_lossy(text).into_owned();
    match idx % 8 {
        0 => ClusterError::SiteDown(SiteId(site as usize)),
        1 => ClusterError::ConfigMismatch {
            expected: a,
            got: b,
        },
        2 => ClusterError::DuplicateSite(SiteId(site as usize)),
        3 => ClusterError::UnknownSite(SiteId(site as usize)),
        4 => ClusterError::Protocol(msg),
        5 => ClusterError::Format(msg),
        6 => ClusterError::Transport(msg),
        _ => ClusterError::Unsupported(msg),
    }
}

/// One concrete message per variant — the corpus the deterministic
/// corruption sweeps run over.
fn corpus() -> (
    Vec<ClusterRequest>,
    Vec<Result<ClusterResponse, ClusterError>>,
) {
    let requests: Vec<ClusterRequest> = (0..REQUEST_VARIANTS)
        .flat_map(|i| {
            [
                request_from(i, 3, 0xfeed_beef, 42, 7, 2),
                request_from(i, 3, 0xfeed_beef, 44, 7, 1),
            ]
        })
        .collect();
    let words: Vec<u64> = (0..16).collect();
    let downs = [
        (0u8, 1u32, 10u64, 3u64),
        (1, 2, 20, 4),
        (2, 0, 30, 5),
        (3, 3, 40, 6),
    ];
    let mut outcomes: Vec<Result<ClusterResponse, ClusterError>> = (0..8)
        .map(|i| {
            Ok(response_from(
                i,
                3,
                &[5, 6, 7],
                &downs,
                &words,
                &[1],
                2,
                Some(99),
            ))
        })
        .collect();
    outcomes.extend((0..8).map(|i| Err(error_from(i, 1, 11, 22, b"boom"))));
    (requests, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request round-trips through its wire frame unchanged and
    /// deterministically.
    #[test]
    fn request_roundtrip_is_identity(
        idx in 0u8..REQUEST_VARIANTS,
        site in proptest::prelude::any::<u32>(),
        digest in proptest::prelude::any::<u64>(),
        element in proptest::prelude::any::<u64>(),
        slot in proptest::prelude::any::<u64>(),
        copy in proptest::prelude::any::<u32>(),
    ) {
        let request = request_from(idx, site, digest, element, slot, copy);
        let frame = request.encode();
        prop_assert_eq!(ClusterRequest::decode_frame(&frame), Ok(request.clone()));
        prop_assert_eq!(frame, request.encode());
    }

    /// Every outcome — all response variants and all error variants —
    /// round-trips unchanged.
    #[test]
    fn outcome_roundtrip_is_identity(
        ok in 0u8..2,
        ridx in 0u8..8,
        eidx in 0u8..8,
        k in 1usize..6,
        elements in prop::collection::vec(proptest::prelude::any::<u64>(), 0..12),
        downs in prop::collection::vec(
            (0u8..4, proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            0..8,
        ),
        words in prop::collection::vec(proptest::prelude::any::<u64>(), 24..25),
        failed in prop::collection::vec(proptest::prelude::any::<u32>(), 0..4),
        site in proptest::prelude::any::<u32>(),
        has_threshold in proptest::prelude::any::<bool>(),
        threshold_value in proptest::prelude::any::<u64>(),
        text in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let threshold = has_threshold.then_some(threshold_value);
        let outcome: Result<ClusterResponse, ClusterError> = if ok == 0 {
            Ok(response_from(ridx, k, &elements, &downs, &words, &failed, site, threshold))
        } else {
            Err(error_from(eidx, site, words[0], words[1], &text))
        };
        let frame = encode_outcome(&outcome);
        prop_assert_eq!(decode_outcome_frame(&frame), Ok(outcome));
    }

    /// Any single-bit corruption of any request frame is detected.
    #[test]
    fn random_bitflips_never_pass(
        idx in 0u8..REQUEST_VARIANTS,
        pos_seed in proptest::prelude::any::<u64>(),
        bit in 0u8..8,
    ) {
        let request = request_from(idx, 2, 0xabcd, 11, 22, 1);
        let mut frame = request.encode();
        let pos = (pos_seed % frame.len() as u64) as usize;
        frame[pos] ^= 1 << bit;
        prop_assert!(ClusterRequest::decode_frame(&frame).is_err(),
            "flip of bit {} at byte {} accepted", bit, pos);
    }
}

#[test]
fn every_variant_fails_cleanly_on_truncation_and_bitflips() {
    let (requests, outcomes) = corpus();
    for request in &requests {
        let frame = request.encode();
        for cut in 0..frame.len() {
            assert!(
                ClusterRequest::decode_frame(&frame[..cut]).is_err(),
                "{request:?}: prefix {cut} accepted"
            );
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            assert!(
                ClusterRequest::decode_frame(&bad).is_err(),
                "{request:?}: flip at byte {i} accepted"
            );
        }
    }
    for outcome in &outcomes {
        let frame = encode_outcome(outcome);
        for cut in 0..frame.len() {
            assert!(
                decode_outcome_frame::<ClusterResponse, ClusterError>(&frame[..cut]).is_err(),
                "{outcome:?}: prefix {cut} accepted"
            );
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_outcome_frame::<ClusterResponse, ClusterError>(&bad).is_err(),
                "{outcome:?}: flip at byte {i} accepted"
            );
        }
    }
}

#[test]
fn oversized_and_lying_length_claims_fail_cleanly() {
    // A header claiming a payload beyond MAX_PAYLOAD is rejected as
    // corrupt before any allocation happens.
    let frame = ClusterRequest::Sample.encode();
    let mut oversized = frame.clone();
    let too_big = (frame::MAX_PAYLOAD as u32 + 1).to_le_bytes();
    oversized[7..11].copy_from_slice(&too_big);
    assert!(matches!(
        ClusterRequest::decode_frame(&oversized),
        Err(dds_core::checkpoint::CheckpointError::Corrupt(_))
    ));

    // A length claim that disagrees with the actual frame size never
    // mis-parses.
    let frame = ClusterRequest::Up(SiteUp::SlidingMulti {
        copy: 1,
        element: Element(2),
        expiry: Slot(3),
    })
    .encode();
    for lie in [0u32, 1, 2, 100] {
        let mut bad = frame.clone();
        bad[7..11].copy_from_slice(&lie.to_le_bytes());
        assert!(
            ClusterRequest::decode_frame(&bad).is_err(),
            "length lie {lie} accepted"
        );
    }
}

#[test]
fn a_forged_batch_count_over_a_short_payload_is_refused() {
    // A batch claiming far more elements than its payload carries is
    // refused by the count check, before any element is read.
    for claimed in [2u32, 1 << 20, u32::MAX] {
        let mut w = StateWriter::new();
        w.put_u64(9); // through
        w.put_bool(false); // no slot start
        w.put_u32(claimed);
        w.put_u64(3); // one (sequence number, element) pair
        w.put_u64(77);
        let frame = frame::frame_bytes(opcode::SITE_BATCH, &w.into_bytes());
        assert_eq!(
            ClusterRequest::decode_frame(&frame),
            Err(CheckpointError::Truncated),
            "count {claimed} over one element accepted"
        );
    }
}

#[test]
fn the_retired_acked_batch_opcode_is_refused() {
    // 0x96 carried the same payload as `SiteBatch`, but its peer owed
    // an `Ack`. A well-formed frame under it must not decode, so a
    // mixed-version pair fails at once instead of waiting for a reply.
    let batch = ClusterRequest::SiteBatch {
        elements: vec![(3, Element(77)), (4, Element(78))],
        then_slot: Some((5, Slot(2))),
        through: 6,
    };
    assert_ne!(opcode::SITE_BATCH, 0x96);
    let frame = frame::frame_bytes(0x96, &batch.payload());
    assert_eq!(
        ClusterRequest::decode_frame(&frame),
        Err(CheckpointError::UnknownKind(0x96))
    );
    assert_eq!(
        ClusterRequest::decode_frame(&batch.encode()),
        Ok(batch.clone())
    );
}

/// Every frame a pre-batching peer could send or receive, in a fixed
/// order: requests with fixed fields, then the corpus outcomes.
fn pre_batching_frames() -> Vec<u8> {
    let requests = [
        ClusterRequest::Join {
            site: SiteId(3),
            digest: 0xfeed_beef,
        },
        ClusterRequest::Control {
            digest: 0xfeed_beef,
        },
        ClusterRequest::Leave,
        ClusterRequest::Up(site_up_from(0, 2, 42, 7)),
        ClusterRequest::Up(site_up_from(1, 2, 42, 7)),
        ClusterRequest::Up(site_up_from(2, 2, 42, 7)),
        ClusterRequest::Up(site_up_from(3, 2, 42, 7)),
        ClusterRequest::Sample,
        ClusterRequest::Stats,
        ClusterRequest::Shutdown,
        ClusterRequest::Telemetry,
        ClusterRequest::SiteObserve {
            element: Element(42),
        },
        ClusterRequest::SiteStats,
        ClusterRequest::SiteShutdown,
        ClusterRequest::SiteCrash,
        ClusterRequest::SiteTelemetry,
    ];
    let words: Vec<u64> = (0..16).collect();
    let downs = [
        (0u8, 1u32, 10u64, 3u64),
        (1, 2, 20, 4),
        (2, 0, 30, 5),
        (3, 3, 40, 6),
    ];
    let mut bytes: Vec<u8> = requests.iter().flat_map(ClusterRequest::encode).collect();
    for i in 0..8 {
        let ok: Result<_, ClusterError> = Ok(response_from(
            i,
            3,
            &[5, 6, 7],
            &downs,
            &words,
            &[1],
            2,
            Some(99),
        ));
        bytes.extend(encode_outcome(&ok));
        bytes.extend(encode_outcome(&Err::<ClusterResponse, _>(error_from(
            i, 1, 11, 22, b"boom",
        ))));
    }
    bytes
}

#[test]
fn pre_batching_frames_are_byte_identical() {
    // Length and FNV-1a 64 of the frames above, computed before the
    // sequenced frames were added: adding opcodes changed none of them.
    let bytes = pre_batching_frames();
    assert_eq!(bytes.len(), 1_639);
    assert_eq!(dds_hash::fnv::fnv1a_64(&bytes), 0x77ab_338d_acba_6da1);
}

#[test]
fn spec_digest_separates_deployments() {
    // Any parameter difference — kind, s, seed, window, k — must change
    // the digest, because the digest is the *only* thing guarding a
    // mixed-version deployment at Join time.
    let base = ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 42), 4);
    let variants = [
        ClusterSpec::new(SamplerSpec::new(SamplerKind::WithReplacement, 8, 42), 4),
        ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 9, 42), 4),
        ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 43), 4),
        ClusterSpec::new(SamplerSpec::new(SamplerKind::Infinite, 8, 42), 5),
        ClusterSpec::new(
            SamplerSpec::new(SamplerKind::SlidingMulti { window: 8 }, 8, 42),
            4,
        ),
    ];
    for v in &variants {
        assert_ne!(base.digest(), v.digest(), "digest collision: {v:?}");
    }
    // And the hex transport of a spec is the identity.
    for v in variants.iter().chain([&base]) {
        assert_eq!(&ClusterSpec::from_hex(&v.to_hex()).expect("decodes"), v);
    }
}
