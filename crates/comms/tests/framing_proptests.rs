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
//! bytes. The bootstrap's handshake messages ride the same frames and
//! sit in the same tables: whatever the decoder accepts,
//! `Handshake::decode` classifies or refuses without panicking, and
//! what it classifies survives its own encoding.
//!
//! The second half drives the one reader every socket is read through
//! (`FrameReader`) over a scripted stream: frames cut at every byte
//! offset and under arbitrary chunking come out exactly as they went
//! in, truncation anywhere ends in "stopped" or "closed", and a length
//! word alone — any `u32` — never makes the reader hold more than one
//! growth step.

use comms::bootstrap::Handshake;
use comms::tcp::framing::{self, FrameReader};
use comms::{Kind, Message, Payload, Tag};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
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

/// One of each bootstrap message, as the frames the rendezvous and the
/// data-link preamble put on the wire.
fn handshakes() -> Vec<Message> {
    let addr = |s: &str| s.parse().unwrap();
    [
        Handshake::Register {
            rank: 2,
            world: 3,
            epoch: 0x0506_0708,
            addr: addr("127.0.0.1:4242"),
        },
        Handshake::Book {
            generation: 1,
            epoch: 9,
            addrs: vec![addr("127.0.0.1:1"), addr("[::1]:65535")],
        },
        Handshake::Reject("rank 7 out of range for world 3".to_string()),
        Handshake::Preamble {
            rank: 1,
            generation: 4,
        },
    ]
    .iter()
    .map(Handshake::encode)
    .collect()
}

/// Complete frames (length word included) of every kind × payload type,
/// empty and non-empty, and of every handshake message.
fn valid_frames() -> Vec<Vec<u8>> {
    let mut messages = handshakes();
    for kind in KINDS {
        for n in [0, 3] {
            messages.extend(payloads(n).map(|payload| Message {
                tag: tag(kind),
                payload,
            }));
        }
    }
    let frames: Vec<Vec<u8>> = messages.iter().map(framing::encode).collect();
    for frame in &frames {
        let len = u32::from_le_bytes(*frame.first_chunk().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length word counts the body");
    }
    frames
}

/// The body (everything after the length word) of each valid frame.
fn valid_bodies() -> Vec<Vec<u8>> {
    valid_frames().iter().map(|f| f[4..].to_vec()).collect()
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
            if back[4..] != want[..] {
                return Err(format!(
                    "decoded {msg:?} re-encodes to {:?}, not {want:?}",
                    &back[4..]
                ));
            }
            // One layer up: a frame the bootstrap would be handed is
            // classified or refused, and a classified one is stable.
            match Handshake::decode(msg) {
                Ok(hs) if Handshake::decode(hs.encode()) != Ok(hs.clone()) => {
                    Err(format!("{hs:?} does not survive its own encoding"))
                }
                _ => Ok(()),
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

/// What a scripted stream does on one `read`: hands over bytes (as
/// many as the caller has room for; the rest stay for the next read),
/// or reports that it would block. A script that has run out is a
/// closed stream (an empty `Bytes` is skipped, not mistaken for one).
enum Step {
    Bytes(Vec<u8>),
    Block,
}

struct Script(VecDeque<Step>);

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.pop_front() {
            None => Ok(0),
            Some(Step::Block) => Err(ErrorKind::WouldBlock.into()),
            Some(Step::Bytes(bytes)) if bytes.is_empty() => self.read(buf),
            Some(Step::Bytes(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.0.push_front(Step::Bytes(bytes.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

/// Everything a reader yields from `script` under a caller that stops
/// waiting at once: the frames (re-encoded), how many times the wait
/// was stopped, and the error that ended the stream.
fn drain(script: Vec<Step>) -> (Vec<Vec<u8>>, usize, ErrorKind) {
    let mut reader = FrameReader::new(Script(script.into()));
    let (mut frames, mut stops) = (Vec::new(), 0);
    loop {
        match reader.recv(|| true) {
            Ok(Some(msg)) => frames.push(framing::encode(&msg)),
            Ok(None) => stops += 1,
            Err(e) => return (frames, stops, e.kind()),
        }
    }
}

/// Every frame of the tables back to back, as one byte stream.
fn stream() -> (Vec<Vec<u8>>, Vec<u8>) {
    let frames = valid_frames();
    let bytes = frames.concat();
    (frames, bytes)
}

/// The stream cut in two at every byte offset, the reader stopped in
/// between (a stopped wait ends the call; the next call resumes from
/// the buffered prefix): exactly the frames that went in, in order.
/// Exhaustive.
#[test]
fn frames_cut_at_every_byte_offset_come_out_whole() {
    let (frames, bytes) = stream();
    for cut in 0..=bytes.len() {
        let (head, tail) = bytes.split_at(cut);
        let script = vec![
            Step::Bytes(head.to_vec()),
            Step::Block,
            Step::Bytes(tail.to_vec()),
        ];
        let (got, stops, end) = drain(script);
        assert_eq!(got, frames, "cut at {cut}");
        assert!(stops >= 1, "cut at {cut}: the blocked read ends a call");
        assert_eq!(end, ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

/// The stream truncated at every byte offset: the whole frames of the
/// prefix, then "closed" when the peer hung up and "stopped" for as
/// long as it merely went silent — never a panic, a hang or an invented
/// frame. Exhaustive.
#[test]
fn truncation_anywhere_ends_in_stopped_or_closed() {
    let (frames, bytes) = stream();
    for cut in 0..bytes.len() {
        let whole = {
            let mut end = 0;
            frames
                .iter()
                .take_while(|f| {
                    end += f.len();
                    end <= cut
                })
                .count()
        };
        let (got, _, end) = drain(vec![Step::Bytes(bytes[..cut].to_vec())]);
        assert_eq!(got, frames[..whole], "hung up at {cut}");
        assert_eq!(end, ErrorKind::UnexpectedEof, "hung up at {cut}");
        let silent = vec![Step::Bytes(bytes[..cut].to_vec()), Step::Block, Step::Block];
        let (got, stops, _) = drain(silent);
        assert_eq!(got, frames[..whole], "silent at {cut}");
        assert!(stops >= 2, "silent at {cut}: every blocked read is a stop");
    }
}

/// What a reader holds after `len_word` and nothing else arrived, and
/// how that read ended.
fn after_length_word(len_word: u32) -> (usize, std::io::Result<Option<Message>>) {
    let script = vec![Step::Bytes(len_word.to_le_bytes().to_vec()), Step::Block];
    let mut reader = FrameReader::new(Script(script.into()));
    let got = reader.recv(|| true);
    (reader.capacity(), got)
}

/// The length-word guard: below the header or above `MAX_FRAME_BYTES`
/// is `InvalidData` straight away; the bounds themselves are legal, and
/// the reader goes on to wait for the body without reserving it.
#[test]
fn length_words_outside_the_frame_bounds_are_invalid_data() {
    let header = header_len() as u32;
    for len in [0, 1, header - 1, framing::MAX_FRAME_BYTES + 1, u32::MAX] {
        let (_, got) = after_length_word(len);
        let err = got.expect_err("a corrupt length word is an error");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "length {len}: {err}");
    }
    for len in [header, header + 2, framing::MAX_FRAME_BYTES] {
        let (held, got) = after_length_word(len);
        assert!(matches!(got, Ok(None)), "length {len}: {got:?}");
        assert!(
            held <= FrameReader::<Script>::GROW_STEP,
            "length {len}: {held} B"
        );
    }
}

/// A frame as large as the format allows, arriving slowly: what the
/// reader holds follows what has arrived, not what was announced.
#[test]
fn a_huge_announced_frame_grows_the_buffer_only_as_it_arrives() {
    let step = FrameReader::<Script>::GROW_STEP;
    let mut script = vec![Step::Bytes(framing::MAX_FRAME_BYTES.to_le_bytes().to_vec())];
    script.extend((0..40).map(|_| Step::Bytes(vec![0; 10_000])));
    script.push(Step::Block);
    let mut reader = FrameReader::new(Script(script.into()));
    assert!(matches!(reader.recv(|| true), Ok(None)));
    let arrived = 4 + 40 * 10_000;
    assert!(
        reader.capacity() <= 2 * arrived + step,
        "{} B held for {arrived} B received",
        reader.capacity()
    );
}

proptest! {
    /// Arbitrary chunking — any read sizes, blocked reads anywhere —
    /// yields exactly the frames that went in.
    #[test]
    fn arbitrary_chunking_yields_exactly_the_frames(
        picks in proptest::collection::vec(0usize..32, 1..6),
        chunks in proptest::collection::vec((1usize..48, any::<bool>()), 1..64),
    ) {
        let table = valid_frames();
        let frames: Vec<Vec<u8>> = picks.iter().map(|&i| table[i % table.len()].clone()).collect();
        let bytes = frames.concat();
        let (mut script, mut at) = (Vec::new(), 0);
        for (size, blocked) in chunks.iter().cycle() {
            if at == bytes.len() {
                break;
            }
            let end = (at + size).min(bytes.len());
            script.push(Step::Bytes(bytes[at..end].to_vec()));
            if *blocked {
                script.push(Step::Block);
            }
            at = end;
        }
        let (got, _, end) = drain(script);
        prop_assert_eq!(got, frames);
        prop_assert_eq!(end, ErrorKind::UnexpectedEof);
    }

    /// Any length word at all: an error or a wait, and at most one
    /// growth step held either way.
    #[test]
    fn any_length_word_holds_at_most_one_growth_step(len in any::<u32>()) {
        let (held, got) = after_length_word(len);
        let legal = (header_len() as u32..=framing::MAX_FRAME_BYTES).contains(&len);
        prop_assert_eq!(got.is_ok(), legal, "length {}", len);
        prop_assert!(held <= FrameReader::<Script>::GROW_STEP, "{} B held", held);
    }
}
