//! Property tests over the whole wire vocabulary.
//!
//! Two families:
//!
//! 1. **Roundtrip identity** — for every message type, a randomized
//!    instance encoded to bytes and decoded back compares equal (bitwise
//!    for floats: the codecs ship IEEE bit patterns, so NaNs and -0.0
//!    survive).
//! 2. **Hostile bytes** — truncating an encoded frame at any cut, flipping
//!    any byte, or handing any decoder an arbitrary payload under its own
//!    tag must yield a typed [`NetError`], never a panic and never a
//!    silently-wrong message of the same type.

use bat_kvcache::CacheKey;
use bat_net::{
    decode_frame, encode_frame, CompletionMsg, DispatchMsg, Frame, HelloMsg, KvSegmentMsg,
    NetError, ShutdownMsg, WireCodec, WireOutcome,
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

/// Decodes `payload` as an `M` frame: a message or a payload error, since
/// the tag is `M`'s own.
fn decode_soup<M: WireCodec>(payload: &[u8]) {
    match M::from_frame(&Frame::new(M::MSG_TYPE, payload.to_vec())) {
        Ok(_) | Err(NetError::Truncated { .. } | NetError::Decode(_)) => {}
        Err(other) => panic!("tag {}: unexpected error {other:?}", M::MSG_TYPE),
    }
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
        assert_roundtrip(&CompletionMsg {
            worker: rng.next_u64() as u32,
            seq: rng.next_u64(),
            suffix_tokens: rng.next_u64(),
            outcome: any_outcome(&mut rng),
        });
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
