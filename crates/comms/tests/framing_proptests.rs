//! Hostile-input property tests for the one frame decoder every socket
//! byte goes through (`comms::tcp::framing`), in the idiom of
//! `crates/core/tests/checkpoint_proptests.rs`.
//!
//! A frame read off a socket is untrusted input. For *every* truncation
//! prefix and *every* single-bit flip of a valid frame of each
//! `Kind` × `Payload` type — and for arbitrary garbage — `decode`
//! returns `Ok` or `Err`, never panics, and the verdict is exactly the
//! one an independent reading of the layout predicts: a body shorter
//! than the header, an unknown payload or kind code, or a payload whose
//! byte count is not a multiple of its element size is an `Err`;
//! everything else decodes to a message that re-encodes to the same
//! bytes. The length word is guarded before the body is allocated or
//! read (`read_message` over a real socket).

use comms::tcp::framing;
use comms::{Kind, Message, Payload, Tag};
use proptest::prelude::*;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
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

/// `[ptype | kind | epoch | id | step | delay]`, from the layout in the
/// `comms::tcp` header: what an empty frame's body is long.
fn header_len() -> usize {
    let empty = Message {
        tag: tag(Kind::Barrier),
        payload: Payload::Bytes(Vec::new()),
    };
    framing::encode(&empty).len() - 4
}

fn tag(kind: Kind) -> Tag {
    Tag {
        epoch: 0x0102_0304,
        kind,
        id: 0x1122_3344_5566_7788,
        step: 0x0a0b_0c0d,
    }
}

/// One payload of each type holding `n` elements with awkward bit
/// patterns (NaN, −0, subnormals) that must survive untouched.
fn payloads(n: usize) -> [Payload; 4] {
    let bits = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 0x7ff0_0000_0000_0001;
    [
        Payload::F16((0..n).map(|i| F16::from_bits(bits(i) as u16)).collect()),
        Payload::F32(
            (0..n)
                .map(|i| f32::from_bits((bits(i) >> 7) as u32))
                .collect(),
        ),
        Payload::F64((0..n).map(|i| f64::from_bits(bits(i))).collect()),
        Payload::Bytes((0..n).map(|i| bits(i) as u8).collect()),
    ]
}

/// The body (everything after the length word) of a valid frame of
/// every kind × payload type, empty and non-empty.
fn valid_bodies() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for kind in KINDS {
        for n in [0, 3] {
            for payload in payloads(n) {
                let frame = framing::encode(&Message {
                    tag: tag(kind),
                    payload,
                });
                let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
                assert_eq!(len, frame.len() - 4, "length word counts the body");
                out.push(frame[4..].to_vec());
            }
        }
    }
    out
}

/// What the layout says about `body`, independently of the decoder:
/// element size by payload code, 7 kind codes.
fn well_formed(body: &[u8]) -> bool {
    let elem = |ptype: u8| [2usize, 4, 8, 1].get(ptype as usize).copied();
    body.len() >= header_len()
        && (body[1] as usize) < KINDS.len()
        && elem(body[0]).is_some_and(|size| (body.len() - header_len()).is_multiple_of(size))
}

/// `decode` agrees with [`well_formed`], and what it accepts re-encodes
/// to the bytes it was given (the `delay_us` word, which the framing
/// module does not surface, reads back as zero).
fn check(body: &[u8]) -> Result<(), String> {
    match (framing::decode(body), well_formed(body)) {
        (Err(_), false) => Ok(()),
        (Ok(msg), true) => {
            let mut want = body.to_vec();
            want[header_len() - 4..header_len()].fill(0);
            let back = framing::encode(&msg);
            if back[4..] == want[..] {
                Ok(())
            } else {
                Err(format!(
                    "decoded {msg:?} re-encodes to {:?}, not {want:?}",
                    &back[4..]
                ))
            }
        }
        (Ok(msg), false) => Err(format!("malformed body {body:?} decoded to {msg:?}")),
        (Err(e), true) => Err(format!("well-formed body {body:?} rejected: {e}")),
    }
}

/// Every truncation prefix: `Err` below the header and wherever the cut
/// splits an element, a shorter message otherwise. Exhaustive.
#[test]
fn every_truncation_prefix_is_ok_or_err_as_the_layout_says() {
    for body in valid_bodies() {
        for len in 0..=body.len() {
            check(&body[..len]).unwrap_or_else(|e| panic!("prefix {len}: {e}"));
        }
        for len in 0..header_len() {
            assert!(
                framing::decode(&body[..len]).is_err(),
                "{len} bytes is no header"
            );
        }
    }
}

/// Every single-bit flip: a flipped payload or kind code that leaves
/// the table, or a payload code whose element size no longer divides
/// the data, is an `Err`; a flip anywhere else changes a tag field or a
/// payload value and nothing more. Exhaustive.
#[test]
fn every_single_bit_flip_is_ok_or_err_as_the_layout_says() {
    for body in valid_bodies() {
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut corrupt = body.clone();
                corrupt[pos] ^= 1 << bit;
                check(&corrupt).unwrap_or_else(|e| panic!("bit {bit} of byte {pos}: {e}"));
                if pos < 2 && bit >= 3 {
                    assert!(
                        framing::decode(&corrupt).is_err(),
                        "code {} is unknown",
                        corrupt[pos]
                    );
                }
            }
        }
    }
}

proptest! {
    /// Arbitrary garbage never panics the decoder, and is accepted
    /// exactly when it happens to be well-formed.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..96)) {
        prop_assert!(check(&data).is_ok(), "{:?}", check(&data));
    }

    /// Garbage behind a plausible header (valid codes, so the payload
    /// length rule is what decides).
    #[test]
    fn arbitrary_payload_bytes_behind_a_valid_header(
        ptype in 0u8..4,
        kind in 0u8..7,
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut body = vec![0u8; header_len()];
        (body[0], body[1]) = (ptype, kind);
        body.extend(data);
        prop_assert!(check(&body).is_ok(), "{:?}", check(&body));
    }
}

/// Reads one message from a socket whose peer wrote only `len_word`,
/// then nothing, and keeps the socket open. A reader that trusted the
/// length would wait for (and allocate) the body; the watchdog turns
/// that hang into `Ok(None)`.
fn read_after_length_word(len_word: u32) -> std::io::Result<Option<Message>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut writer = TcpStream::connect(addr).unwrap();
    let (mut reader, _) = listener.accept().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    writer.write_all(&len_word.to_le_bytes()).unwrap();
    let shutdown = AtomicBool::new(false);
    let (done, watchdog) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let shutdown = &shutdown;
        s.spawn(move || {
            let _ = watchdog.recv_timeout(Duration::from_secs(1));
            shutdown.store(true, Ordering::Relaxed);
        });
        let got = framing::read_message(&mut reader, shutdown);
        drop((writer, done));
        got
    })
}

/// The length-word guard: below the header or above `MAX_FRAME_BYTES`
/// is `InvalidData` straight away — the body is neither allocated nor
/// waited for.
#[test]
fn length_words_outside_the_frame_bounds_are_invalid_data() {
    let header = header_len() as u32;
    for len in [0, 1, header - 1, framing::MAX_FRAME_BYTES + 1, u32::MAX] {
        let err = read_after_length_word(len).expect_err("a corrupt length word is an error");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "length {len}: {err}"
        );
    }
    // The bounds themselves are legal lengths: the reader goes on to
    // wait for the body (here: until the watchdog stops it).
    assert!(matches!(read_after_length_word(header + 2), Ok(None)));
}
