//! Property tests over the whole wire vocabulary.
//!
//! Three families:
//!
//! 1. **Roundtrip identity** — for every message type, a randomized
//!    instance encoded to bytes and decoded back compares equal (bitwise
//!    for floats: the codecs ship IEEE bit patterns, so NaNs and -0.0
//!    survive); so do up to 1 024 dispatches or 64 completions sent as one
//!    frame, in order.
//! 2. **Hostile bytes** — truncating an encoded frame or a multi-message
//!    payload at any cut, flipping any byte, or handing any decoder an
//!    arbitrary payload under its own tag must yield a typed [`NetError`],
//!    never a panic and never a silently-wrong message of the same type.
//! 3. **Pinned bytes** — a one-message frame is the version-4 encoding
//!    with only the version byte changed, and a version-4 frame is refused.

use bat_kvcache::CacheKey;
use bat_net::{
    crc32, decode_frame, encode_frame, CompletionMsg, DispatchMsg, Frame, HelloMsg, KvSegmentMsg,
    NetError, ShutdownMsg, WireCodec, WireOutcome, VERSION,
};
use bat_types::{ItemId, RejectReason, UserId};
use proptest::prelude::*;
use proptest::TestRng;

/// Draws an arbitrary f64 bit pattern — includes NaNs, infinities,
/// subnormals, and -0.0, which is the point.
fn any_f64(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn any_f32(rng: &mut TestRng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

fn any_key(rng: &mut TestRng) -> CacheKey {
    if rng.next_u64().is_multiple_of(2) {
        CacheKey::User(UserId::new(rng.next_u64()))
    } else {
        CacheKey::Item(ItemId::new(rng.next_u64()))
    }
}

fn any_dispatch(rng: &mut TestRng) -> DispatchMsg {
    DispatchMsg {
        seq: rng.next_u64(),
        arrival_virtual: any_f64(rng),
        suffix_tokens: rng.next_u64(),
        service_virtual: any_f64(rng),
        deadline_rel: if rng.next_u64().is_multiple_of(2) {
            Some(any_f64(rng))
        } else {
            None
        },
    }
}

fn any_completion(rng: &mut TestRng) -> CompletionMsg {
    CompletionMsg {
        worker: rng.next_u64() as u32,
        seq: rng.next_u64(),
        suffix_tokens: rng.next_u64(),
        outcome: any_outcome(rng),
    }
}

fn any_outcome(rng: &mut TestRng) -> WireOutcome {
    match rng.next_u64() % 5 {
        0 | 3 => WireOutcome::Completed {
            latency_virtual: any_f64(rng),
            missed: rng.next_u64().is_multiple_of(2),
        },
        1 => WireOutcome::Shed,
        _ => WireOutcome::Rejected(match rng.next_u64() % 3 {
            0 => RejectReason::QueueFull,
            1 => RejectReason::DeadlineInfeasible,
            _ => RejectReason::BrownoutShed,
        }),
    }
}

/// Decodes `payload` as an `M` frame, one message and all of them:
/// messages or a payload error, since the tag is `M`'s own.
fn decode_soup<M: WireCodec>(payload: &[u8]) {
    let frame = Frame::new(M::MSG_TYPE, payload.to_vec());
    let mut all = Vec::new();
    for decoded in [
        M::from_frame(&frame).map(drop),
        M::batch_from_frame(&frame, &mut all),
    ] {
        match decoded {
            Ok(()) | Err(NetError::Truncated { .. } | NetError::Decode(_)) => {}
            Err(other) => panic!("tag {}: unexpected error {other:?}", M::MSG_TYPE),
        }
    }
}

/// `msgs` through one frame's bytes and back: the same messages, bit for
/// bit (compared as their encodings, since floats may be NaN) and in order.
fn assert_batch_roundtrip<M: WireCodec>(msgs: &[M]) {
    let bytes = encode_frame(&M::batch_to_frame(msgs));
    let (frame, used) = decode_frame(&bytes).expect("well-formed frame must decode");
    assert_eq!(used, bytes.len());
    let mut back = Vec::new();
    M::batch_from_frame(&frame, &mut back).expect("every message must decode");
    assert_eq!(back.len(), msgs.len());
    for (sent, got) in msgs.iter().zip(&back) {
        assert_eq!(
            encode_frame(&got.to_frame()),
            encode_frame(&sent.to_frame())
        );
    }
    assert_eq!(encode_frame(&M::batch_to_frame(&back)), bytes);
}

/// Cuts the payload of `msgs`' frame at every byte: a cut on a message
/// boundary decodes the messages before it, any other cut (the empty
/// payload included) is [`NetError::Truncated`] and leaves the output as
/// it was.
fn assert_every_payload_cut_is_typed<M: WireCodec>(msgs: &[M]) {
    let payload = M::batch_to_frame(msgs).payload;
    let mut ends = Vec::new();
    for i in 1..=msgs.len() {
        ends.push(M::batch_to_frame(&msgs[..i]).payload.len());
    }
    for cut in 0..=payload.len() {
        let frame = Frame::new(M::MSG_TYPE, payload[..cut].to_vec());
        let mut out = Vec::new();
        match (
            ends.iter().position(|&e| e == cut),
            M::batch_from_frame(&frame, &mut out),
        ) {
            (Some(i), Ok(())) => assert_eq!(out.len(), i + 1, "cut {cut}"),
            (None, Err(NetError::Truncated { .. })) => assert!(out.is_empty(), "cut {cut}"),
            (_, other) => panic!("cut {cut} of {}: {other:?}", payload.len()),
        }
    }
}

/// Version-4 bytes of `DispatchMsg { seq: 7, arrival_virtual: 12.5,
/// suffix_tokens: 256, service_virtual: 0.0125, deadline_rel: Some(0.2) }`.
const DISPATCH_V4: [u8; 57] = [
    229, 13, 124, 186, 4, 2, 0, 0, 41, 0, 0, 0, 226, 47, 167, 159, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 41, 64, 0, 1, 0, 0, 0, 0, 0, 0, 154, 153, 153, 153, 153, 153, 137, 63, 1, 154, 153,
    153, 153, 153, 153, 201, 63,
];

/// Version-4 bytes of `CompletionMsg { worker: 1, seq: 7, suffix_tokens:
/// 256, outcome: Completed { latency_virtual: 0.02, missed: true } }`.
const COMPLETION_V4: [u8; 46] = [
    229, 13, 124, 186, 4, 3, 0, 0, 30, 0, 0, 0, 78, 228, 44, 84, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0,
    0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 123, 20, 174, 71, 225, 122, 148, 63, 1,
];

/// `v4` with the version byte set to today's, and its header CRC redone.
fn as_current(v4: &[u8]) -> Vec<u8> {
    let mut bytes = v4.to_vec();
    bytes[4] = VERSION;
    let crc = crc32(&bytes[..12]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn a_one_message_frame_keeps_the_version_4_bytes_but_the_version() {
    assert_eq!(VERSION, 5);
    let dispatch = DispatchMsg {
        seq: 7,
        arrival_virtual: 12.5,
        suffix_tokens: 256,
        service_virtual: 0.0125,
        deadline_rel: Some(0.2),
    };
    let completion = CompletionMsg {
        worker: 1,
        seq: 7,
        suffix_tokens: 256,
        outcome: WireOutcome::Completed {
            latency_virtual: 0.02,
            missed: true,
        },
    };
    assert_eq!(encode_frame(&dispatch.to_frame()), as_current(&DISPATCH_V4));
    assert_eq!(
        encode_frame(&CompletionMsg::batch_to_frame(&[completion])),
        as_current(&COMPLETION_V4)
    );
    for v4 in [&DISPATCH_V4[..], &COMPLETION_V4[..]] {
        assert_eq!(decode_frame(v4), Err(NetError::BadVersion { found: 4 }));
    }
}

#[test]
fn from_frame_refuses_a_two_message_frame() {
    let mut rng = TestRng::from_seed(5);
    let two = [any_dispatch(&mut rng), any_dispatch(&mut rng)];
    let frame = DispatchMsg::batch_to_frame(&two);
    assert!(matches!(
        DispatchMsg::from_frame(&frame),
        Err(NetError::Decode(_))
    ));
    let replies = [any_completion(&mut rng), any_completion(&mut rng)];
    let frame = CompletionMsg::batch_to_frame(&replies);
    assert!(matches!(
        CompletionMsg::from_frame(&frame),
        Err(NetError::Decode(_))
    ));
    // Two shutdowns are the bytes of one: the frame is one message.
    assert_eq!(
        ShutdownMsg::batch_to_frame(&[ShutdownMsg, ShutdownMsg]),
        ShutdownMsg.to_frame()
    );
}

/// An empty payload under `M`'s tag, one message or all of them.
fn empty_payload<M: WireCodec>() -> [Result<(), NetError>; 2] {
    let empty = Frame::new(M::MSG_TYPE, Vec::new());
    [
        M::from_frame(&empty).map(drop),
        M::batch_from_frame(&empty, &mut Vec::new()),
    ]
}

#[test]
fn an_empty_payload_is_typed() {
    for decoded in [
        empty_payload::<HelloMsg>(),
        empty_payload::<DispatchMsg>(),
        empty_payload::<CompletionMsg>(),
        empty_payload::<KvSegmentMsg>(),
    ]
    .into_iter()
    .flatten()
    {
        assert!(matches!(decoded, Err(NetError::Truncated { .. })));
    }
    // A shutdown is zero bytes: its empty payload is the message, and a
    // byte after it is trailing garbage, not a second shutdown.
    assert_eq!(empty_payload::<ShutdownMsg>(), [Ok(()), Ok(())]);
    let trailing = Frame::new(ShutdownMsg::MSG_TYPE, vec![0]);
    let mut out = Vec::new();
    assert!(matches!(
        ShutdownMsg::batch_from_frame(&trailing, &mut out),
        Err(NetError::Decode(_))
    ));
    assert!(out.is_empty());
}

/// A [`KvSegmentMsg`] payload: an item key, layer 0, the claimed shape,
/// then `planes` bytes.
fn kv_segment_payload(rows: u32, cols: u32, planes: usize) -> Vec<u8> {
    let mut payload = vec![1];
    payload.extend(7u64.to_le_bytes());
    for word in [0, rows, cols] {
        payload.extend(word.to_le_bytes());
    }
    payload.resize(payload.len() + planes, 0);
    payload
}

#[test]
fn kv_segment_shape_past_its_payload_is_typed() {
    // 2^16 × 2^16 = 2^32 values claimed over 16 bytes.
    let claims_2_32 = kv_segment_payload(1 << 16, 1 << 16, 16);
    let frame = Frame::new(KvSegmentMsg::MSG_TYPE, claims_2_32);
    assert!(matches!(
        KvSegmentMsg::from_frame(&frame),
        Err(NetError::Truncated { .. })
    ));
    // rows × cols × 4 bytes overflows usize.
    let overflows = kv_segment_payload(u32::MAX, u32::MAX, 16);
    let frame = Frame::new(KvSegmentMsg::MSG_TYPE, overflows);
    assert!(matches!(
        KvSegmentMsg::from_frame(&frame),
        Err(NetError::Decode(_))
    ));
}

/// Bitwise equality for messages whose floats may be NaN: compare the
/// encoded bytes, which are the floats' bit patterns.
fn assert_roundtrip<M: WireCodec>(msg: &M) {
    let frame = msg.to_frame();
    let bytes = encode_frame(&frame);
    let (decoded, used) = decode_frame(&bytes).expect("well-formed frame must decode");
    assert_eq!(used, bytes.len());
    let back = M::from_frame(&decoded).expect("payload must decode");
    assert_eq!(
        encode_frame(&back.to_frame()),
        bytes,
        "re-encoding must reproduce the exact bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&HelloMsg {
            worker: rng.next_u64() as u32,
            scale: any_f64(&mut rng),
            virtual_now: any_f64(&mut rng),
        });
    }

    #[test]
    fn dispatch_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&any_dispatch(&mut rng));
    }

    #[test]
    fn completion_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&any_completion(&mut rng));
    }

    #[test]
    fn dispatch_batches_roundtrip_in_order(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = 1 + (rng.next_u64() % 1024) as usize;
        let rounds: Vec<DispatchMsg> = (0..n).map(|_| any_dispatch(&mut rng)).collect();
        assert_batch_roundtrip(&rounds);
    }

    #[test]
    fn completion_batches_roundtrip_in_order(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = 1 + (rng.next_u64() % 64) as usize;
        let replies: Vec<CompletionMsg> = (0..n).map(|_| any_completion(&mut rng)).collect();
        assert_batch_roundtrip(&replies);
    }

    /// Every cut of a multi-message frame, bytes or payload, is typed.
    #[test]
    fn batch_truncation_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = 2 + (rng.next_u64() % 7) as usize;
        let rounds: Vec<DispatchMsg> = (0..n).map(|_| any_dispatch(&mut rng)).collect();
        let replies: Vec<CompletionMsg> = (0..n).map(|_| any_completion(&mut rng)).collect();
        assert_every_payload_cut_is_typed(&rounds);
        assert_every_payload_cut_is_typed(&replies);
        let bytes = encode_frame(&DispatchMsg::batch_to_frame(&rounds));
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_roundtrips(_seed in 0u64..u64::MAX) {
        assert_roundtrip(&ShutdownMsg);
    }

    #[test]
    fn kv_segment_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let rows = (rng.next_u64() % 8 + 1) as u32;
        let cols = (rng.next_u64() % 32) as u32;
        let n = (rows * cols) as usize;
        let planes: Vec<f32> = (0..n).map(|_| any_f32(&mut rng)).collect();
        assert_roundtrip(&KvSegmentMsg {
            key: any_key(&mut rng),
            layer: rng.next_u64() as u32,
            rows,
            cols,
            planes,
        });
    }

    /// Truncating a valid encoded frame at ANY cut point is a typed error.
    #[test]
    fn truncation_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let bytes = encode_frame(&any_dispatch(&mut rng).to_frame());
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Flipping any single byte of a valid frame either still decodes to
    /// the same message type's payload length (payload bit flips are the
    /// codec's to catch) or surfaces a typed error — never a panic.
    #[test]
    fn corruption_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let msg = any_dispatch(&mut rng);
        let clean = encode_frame(&msg.to_frame());
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 1 << (rng.next_u64() % 8);
            if bytes[i] == clean[i] {
                continue;
            }
            match decode_frame(&bytes) {
                Ok((frame, _)) => {
                    // Header survived (the flip was in the payload): the
                    // typed decoder must not panic either.
                    let _ = DispatchMsg::from_frame(&frame);
                }
                Err(
                    NetError::BadMagic { .. }
                    | NetError::BadVersion { .. }
                    | NetError::BadHeaderCrc { .. }
                    | NetError::FrameTooLarge { .. }
                    | NetError::Truncated { .. }
                    | NetError::Decode(_),
                ) => {}
                Err(other) => panic!("byte {i}: unexpected error {other:?}"),
            }
        }
    }

    /// An arbitrary payload under each decoder's own tag is a message or a
    /// typed error.
    #[test]
    fn arbitrary_payloads_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = (rng.next_u64() % 513) as usize;
        let soup: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        decode_soup::<HelloMsg>(&soup);
        decode_soup::<DispatchMsg>(&soup);
        decode_soup::<CompletionMsg>(&soup);
        decode_soup::<ShutdownMsg>(&soup);
        decode_soup::<KvSegmentMsg>(&soup);
    }

    /// A random byte soup fed to the stream reader is a typed error.
    #[test]
    fn random_bytes_never_decode_silently(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = (rng.next_u64() % 64) as usize;
        let soup: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        // Skip the astronomically-unlikely case of a valid header.
        match decode_frame(&soup) {
            Ok(_) => {}
            Err(e) => {
                // Must be one of the typed variants; Display must not panic.
                let _ = e.to_string();
            }
        }
    }
}
