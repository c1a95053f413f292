//! Hostile-input property tests for the serving dialect
//! (`serve::protocol`), in the idiom of
//! `crates/core/tests/checkpoint_proptests.rs`.
//!
//! Whatever a socket delivers that the frame decoder accepts —
//! `comms/tests/framing_proptests.rs` covers the bytes — reaches
//! `parse_server_bound` / `parse_client_bound` as an arbitrary
//! `Message`. For any tag and any payload the parsers return `Ok` or
//! `Err`, never panic; a frame outside the dialect's epoch is always an
//! `Err`; and an `Ok` carries exactly what the frame held.

use comms::tcp::framing;
use comms::{Kind, Message, Payload, Tag};
use proptest::prelude::*;
use serve::protocol::{
    parse_client_bound, parse_server_bound, ClientBound, ServerBound, PROTO_EPOCH, SHUTDOWN_ACK_ID,
    SHUTDOWN_ID,
};
use tensor::f16::F16;

const KINDS: [Kind; 7] = [
    Kind::AllReduce,
    Kind::AllGather,
    Kind::Broadcast,
    Kind::Barrier,
    Kind::P2p,
    Kind::Telemetry,
    Kind::Heartbeat,
];

/// Ids and steps the dialect gives a meaning to, next to arbitrary ones.
const IDS: [u64; 5] = [SHUTDOWN_ID, SHUTDOWN_ACK_ID, u64::MAX - 1, u64::MAX, 42];

/// Any message a decoded frame can be: the dialect's epoch or a foreign
/// one, every kind, meaningful and arbitrary ids/steps, every payload
/// type over arbitrary bytes.
fn message(epoch: u32, codes: (usize, usize, usize), id: u64, step: u32, raw: &[u8]) -> Message {
    let (kind, ptype, id_pick) = codes;
    let id = IDS.get(id_pick).copied().unwrap_or(id);
    let words = |n: usize| raw.chunks_exact(n);
    let payload = match ptype {
        0 => Payload::F16(
            words(2)
                .map(|c| F16::from_bits(u16::from_le_bytes([c[0], c[1]])))
                .collect(),
        ),
        1 => Payload::F32(
            words(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        ),
        2 => Payload::F64(
            words(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        ),
        _ => Payload::Bytes(raw.to_vec()),
    };
    Message {
        tag: Tag {
            epoch,
            kind: KINDS[kind],
            id,
            step,
        },
        payload,
    }
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn arbitrary_messages_parse_or_err_and_ok_carries_the_frame(
        in_dialect in any::<bool>(),
        epoch in any::<u32>(),
        codes in (0usize..7, 0usize..4, 0usize..8),
        id in any::<u64>(),
        step in 0u32..3,
        raw in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let epoch = if in_dialect { PROTO_EPOCH } else { epoch };
        // `Message` is not `Clone`: build it once per parser.
        let make = || message(epoch, codes, id, step, &raw);
        let msg = make();
        let (tag, floats) = (msg.tag, match &msg.payload {
            Payload::F32(v) => Some(f32_bits(v)),
            _ => None,
        });
        let server = parse_server_bound(make());
        let client = parse_client_bound(make());
        if tag.epoch != PROTO_EPOCH {
            prop_assert!(server.is_err() && client.is_err(), "foreign epoch {:#x} accepted", tag.epoch);
        }
        match server {
            Ok(ServerBound::Request { id, features }) => {
                prop_assert_eq!((tag.kind, id), (Kind::P2p, tag.id));
                prop_assert_eq!(Some(f32_bits(&features)), floats.clone(), "feature bits survive");
            }
            Ok(ServerBound::Shutdown) => prop_assert_eq!((tag.kind, tag.id), (Kind::Barrier, SHUTDOWN_ID)),
            Ok(ServerBound::Ping) => prop_assert_eq!((tag.kind, tag.step), (Kind::Heartbeat, 0)),
            Err(text) => prop_assert!(!text.is_empty()),
        }
        match client {
            Ok(ClientBound::Reply { id, step, output }) => {
                prop_assert_eq!((tag.kind, id, step), (Kind::P2p, tag.id, u64::from(tag.step)));
                prop_assert_eq!(Some(f32_bits(&output)), floats, "output bits survive");
            }
            Ok(ClientBound::Error { id, text }) => {
                prop_assert_eq!((tag.kind, id), (Kind::Telemetry, tag.id));
                prop_assert_eq!(text, String::from_utf8_lossy(&raw).into_owned());
            }
            Ok(ClientBound::ShutdownAck) => prop_assert_eq!((tag.kind, tag.id), (Kind::Barrier, SHUTDOWN_ACK_ID)),
            Ok(ClientBound::Pong) => prop_assert_eq!((tag.kind, tag.step), (Kind::Heartbeat, 1)),
            Err(text) => prop_assert!(!text.is_empty()),
        }
        // Only an F32 inference frame is a request or a reply; every
        // other payload under `P2p` is refused, not reinterpreted.
        if tag.kind == Kind::P2p && tag.epoch == PROTO_EPOCH {
            let is_f32 = matches!(msg.payload, Payload::F32(_));
            prop_assert_eq!(parse_server_bound(make()).is_ok(), is_f32);
            prop_assert_eq!(parse_client_bound(msg).is_ok(), is_f32);
        }
    }

    /// The whole inbound path over arbitrary socket bytes: whatever the
    /// frame decoder lets through, both parsers survive.
    #[test]
    fn arbitrary_frame_bodies_never_panic_the_parsers(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        in_dialect in any::<bool>(),
    ) {
        let mut body = body;
        if in_dialect && body.len() >= 6 {
            body[2..6].copy_from_slice(&PROTO_EPOCH.to_le_bytes());
            (body[0], body[1]) = (body[0] % 4, body[1] % 7);
        }
        if let (Ok(a), Ok(b)) = (framing::decode(&body), framing::decode(&body)) {
            let _ = parse_server_bound(a);
            let _ = parse_client_bound(b);
        }
    }
}
