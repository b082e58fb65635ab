//! Property: `encode → decode` is the identity for every protocol
//! message — every [`Request`] variant, every [`Response`] variant, and
//! every [`EngineError`] variant — and malformed frames fail *cleanly*
//! (truncations, bit flips, oversized length claims), mirroring
//! `checkpoint_roundtrip.rs` for the wire dialect.

use dds_engine::{
    EngineError, EngineMetrics, EngineReport, ShardMetricsSnapshot, TenantId, TenantView,
};
use dds_obs::{HistogramSnapshot, TelemetrySnapshot, BUCKET_COUNT};
use dds_proto::frame::{self, OVERHEAD_BYTES};
use dds_proto::{decode_outcome_frame, encode_outcome};
use dds_proto::{Request, Response};
use dds_sim::{Element, Slot};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Builders: proptest picks a variant index plus a pool of field values;
// these map them onto concrete messages so every variant is reachable.
// ---------------------------------------------------------------------

fn batch_of(pairs: &[(u64, u64)]) -> Vec<(TenantId, Element)> {
    pairs
        .iter()
        .map(|&(t, e)| (TenantId(t), Element(e)))
        .collect()
}

fn request_from(
    idx: u8,
    tenant: u64,
    element: u64,
    slot: u64,
    pairs: &[(u64, u64)],
    doc: &[u8],
) -> Request {
    let at = (slot % 2 == 0).then_some(Slot(slot));
    match idx % 15 {
        0 => Request::Observe {
            tenant: TenantId(tenant),
            element: Element(element),
        },
        1 => Request::ObserveAt {
            tenant: TenantId(tenant),
            element: Element(element),
            now: Slot(slot),
        },
        2 => Request::ObserveBatch {
            batch: batch_of(pairs),
        },
        3 => Request::ObserveBatchAt {
            now: Slot(slot),
            batch: batch_of(pairs),
        },
        4 => Request::Advance { now: Slot(slot) },
        5 => Request::Snapshot {
            tenant: TenantId(tenant),
        },
        6 => Request::SnapshotAt {
            tenant: TenantId(tenant),
            now: Slot(slot),
        },
        7 => Request::SnapshotView {
            tenant: TenantId(tenant),
            at,
        },
        8 => Request::SnapshotAll { at },
        9 => Request::Flush,
        10 => Request::Metrics,
        11 => Request::Checkpoint,
        12 => Request::Restore {
            document: doc.to_vec(),
        },
        13 => Request::Telemetry,
        _ => Request::Shutdown,
    }
}

/// A telemetry snapshot whose content is driven by the generated word
/// pool but always satisfies the sparse-histogram invariants the
/// decoder re-validates (strictly ascending in-range bucket indices,
/// nonzero counts).
fn snapshot_from(words: &[u64], text: &[u8]) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    let tag = String::from_utf8_lossy(text).into_owned();
    for (i, &w) in words.iter().enumerate().take(3) {
        let shard = i.to_string();
        snap.push_counter("p_counter_total", &[("shard", shard.as_str())], w);
        snap.push_gauge("p_gauge", &[("shard", shard.as_str())], w ^ 0x5a5a);
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
        "p_nanos",
        &[("tag", tag.as_str())],
        HistogramSnapshot {
            count,
            sum: count.wrapping_mul(7),
            max: words.iter().copied().max().unwrap_or(0),
            buckets,
        },
    );
    snap.events.push(dds_obs::Event {
        seq: words.len() as u64,
        kind: "proptest".into(),
        detail: tag,
        nanos: 42,
    });
    snap
}

fn metrics_from(words: &[u64]) -> EngineMetrics {
    EngineMetrics {
        shards: words
            .chunks_exact(15)
            .map(|w| ShardMetricsSnapshot {
                shard: w[0] as usize,
                batches: w[1],
                elements: w[2],
                snapshots: w[3],
                snapshot_nanos: w[4],
                backpressure: w[5],
                tenants: w[6] as usize,
                advances: w[7],
                evictions: w[8],
                watermark: w[9],
                queue_depth: w[10] as usize,
                late_dropped: w[11],
                stale_advances: w[12],
                sweeps: w[13],
                buffered: w[14] as usize,
            })
            .collect(),
    }
}

fn response_from(
    idx: u8,
    elements: &[u64],
    census: &[(u64, Vec<u64>)],
    words: &[u64],
    doc: &[u8],
    memory: u64,
    messages: u64,
) -> Response {
    let sample: Vec<Element> = elements.iter().copied().map(Element).collect();
    match idx % 8 {
        0 => Response::Ack,
        1 => Response::Sample { sample },
        2 => Response::View {
            view: TenantView {
                sample,
                memory_tuples: memory as usize,
                protocol_messages: messages,
            },
        },
        3 => Response::Census {
            tenants: census
                .iter()
                .map(|(t, es)| (TenantId(*t), es.iter().copied().map(Element).collect()))
                .collect(),
        },
        4 => Response::Metrics {
            metrics: metrics_from(words),
        },
        5 => Response::CheckpointDocument {
            document: doc.to_vec(),
        },
        6 => Response::Telemetry {
            snapshot: snapshot_from(words, doc),
        },
        _ => Response::Goodbye {
            report: EngineReport {
                metrics: metrics_from(words),
                tenants_per_shard: elements.iter().map(|&e| e as usize).collect(),
            },
        },
    }
}

fn error_from(idx: u8, value: u64, text: &[u8]) -> EngineError {
    let msg = String::from_utf8_lossy(text).into_owned();
    match idx % 7 {
        0 => EngineError::UnknownTenant(TenantId(value)),
        1 => EngineError::ShutDown,
        2 => EngineError::ShardDown(value as usize),
        3 => EngineError::Format(msg),
        4 => EngineError::Unsupported(msg),
        5 => EngineError::Transport(msg),
        _ => EngineError::LateData {
            slot: Slot(value),
            watermark: Slot(value.wrapping_mul(3)),
        },
    }
}

/// One concrete message per variant — the corpus the deterministic
/// corruption sweeps run over.
fn corpus() -> (Vec<Request>, Vec<Result<Response, EngineError>>) {
    let pairs = [(1u64, 2u64), (3, 4), (u64::MAX, 0)];
    let doc = [9u8, 8, 7, 6, 5];
    let requests: Vec<Request> = (0..15)
        .map(|i| request_from(i, 42, 7, 13, &pairs, &doc))
        .collect();
    let words: Vec<u64> = (0..30).collect();
    let census = vec![(5u64, vec![1u64, 2]), (6, vec![])];
    let mut outcomes: Vec<Result<Response, EngineError>> = (0..8)
        .map(|i| Ok(response_from(i, &[10, 20, 30], &census, &words, &doc, 4, 9)))
        .collect();
    outcomes.extend((0..7).map(|i| Err(error_from(i, 3, b"boom"))));
    (requests, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request round-trips through its wire frame unchanged, and
    /// the frame's size is exactly `OVERHEAD_BYTES + payload`.
    #[test]
    fn request_roundtrip_is_identity(
        idx in 0u8..15,
        tenant in proptest::prelude::any::<u64>(),
        element in proptest::prelude::any::<u64>(),
        slot in proptest::prelude::any::<u64>(),
        pairs in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..20),
        doc in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let request = request_from(idx, tenant, element, slot, &pairs, &doc);
        let frame = request.encode();
        prop_assert_eq!(frame.len(), request.wire_bytes());
        prop_assert_eq!(Request::decode_frame(&frame), Ok(request.clone()));
        // Deterministic: the same message encodes to the same bytes.
        prop_assert_eq!(frame, request.encode());
    }

    /// Every service outcome — all response variants and all error
    /// variants — round-trips unchanged.
    #[test]
    fn outcome_roundtrip_is_identity(
        ok in 0u8..2,
        ridx in 0u8..8,
        eidx in 0u8..7,
        elements in prop::collection::vec(proptest::prelude::any::<u64>(), 0..16),
        census in prop::collection::vec(
            (0u64..u64::MAX, prop::collection::vec(proptest::prelude::any::<u64>(), 0..6)),
            0..8,
        ),
        words in prop::collection::vec(proptest::prelude::any::<u64>(), 0..45),
        doc in prop::collection::vec(0u8..=255, 0..64),
        memory in 0u64..1 << 40,
        messages in proptest::prelude::any::<u64>(),
        text in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let outcome: Result<Response, EngineError> = if ok == 0 {
            Ok(response_from(ridx, &elements, &census, &words, &doc, memory, messages))
        } else {
            Err(error_from(eidx, memory, &text))
        };
        let frame = encode_outcome(&outcome);
        prop_assert_eq!(decode_outcome_frame(&frame), Ok(outcome));
    }

    /// Any single byte corruption of any request frame is detected.
    #[test]
    fn random_bitflips_never_pass(
        idx in 0u8..15,
        pos_seed in proptest::prelude::any::<u64>(),
        bit in 0u8..8,
    ) {
        let request = request_from(idx, 11, 22, 33, &[(1, 2), (3, 4)], &[5, 6]);
        let mut frame = request.encode();
        let pos = (pos_seed % frame.len() as u64) as usize;
        frame[pos] ^= 1 << bit;
        prop_assert!(Request::decode_frame(&frame).is_err(),
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
                Request::decode_frame(&frame[..cut]).is_err(),
                "{request:?}: prefix {cut} accepted"
            );
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            assert!(
                Request::decode_frame(&bad).is_err(),
                "{request:?}: flip at byte {i} accepted"
            );
        }
    }
    for outcome in &outcomes {
        let frame = encode_outcome(outcome);
        for cut in 0..frame.len() {
            assert!(
                decode_outcome_frame::<Response, EngineError>(&frame[..cut]).is_err(),
                "{outcome:?}: prefix {cut} accepted"
            );
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_outcome_frame::<Response, EngineError>(&bad).is_err(),
                "{outcome:?}: flip at byte {i} accepted"
            );
        }
    }
}

#[test]
fn oversized_and_lying_length_claims_fail_cleanly() {
    // A header that claims a payload larger than MAX_PAYLOAD must be
    // rejected as corrupt before any allocation happens.
    let frame = Request::Flush.encode();
    let mut oversized = frame.clone();
    let too_big = (frame::MAX_PAYLOAD as u32 + 1).to_le_bytes();
    oversized[7..11].copy_from_slice(&too_big);
    assert!(matches!(
        Request::decode_frame(&oversized),
        Err(dds_core::checkpoint::CheckpointError::Corrupt(_))
    ));

    // A length claim that disagrees with the actual frame size is a
    // truncation (too long) or trailing garbage (too short), never a
    // mis-parse.
    let frame = Request::Restore {
        document: vec![1, 2, 3, 4],
    }
    .encode();
    for lie in [0u32, 1, 2, 100] {
        let mut bad = frame.clone();
        bad[7..11].copy_from_slice(&lie.to_le_bytes());
        assert!(
            Request::decode_frame(&bad).is_err(),
            "length lie {lie} accepted"
        );
    }
}

#[test]
fn wire_cost_of_ingest_is_flat_and_documented() {
    // The cost model the bench sweeps rely on: a single observe is
    // OVERHEAD + 16; a batch of n is OVERHEAD + 8 (slot) + 4 + 16n for
    // the slotted shape.
    let one = Request::Observe {
        tenant: TenantId(1),
        element: Element(2),
    };
    assert_eq!(one.wire_bytes(), OVERHEAD_BYTES + 16);
    for n in [1usize, 10, 256] {
        let batch = Request::ObserveBatchAt {
            now: Slot(4),
            batch: (0..n as u64).map(|i| (TenantId(i), Element(i))).collect(),
        };
        assert_eq!(batch.wire_bytes(), OVERHEAD_BYTES + 8 + 4 + 16 * n);
    }
}
