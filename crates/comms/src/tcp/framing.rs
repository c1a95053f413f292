//! The socket boundary: the one place a byte stream becomes
//! [`Message`]s and back.
//!
//! Every stream of the workspace — mesh links, the rendezvous, data-link
//! preambles, the serving tier in both directions — is read by a
//! [`FrameReader`] and written by a [`FrameWriter`]; nothing else calls
//! `read` or `write` on a socket (CI greps for it).
//!
//! # Wire format
//!
//! Every frame is `[len: u32 LE]` followed by `len` bytes:
//!
//! ```text
//! ptype: u8 | kind: u8 | epoch: u32 | id: u64 | step: u32 | delay_us: u32 | payload…
//! ```
//!
//! (all integers little-endian; f16 as raw bit patterns, so payloads
//! round-trip bitwise). `delay_us` carries a
//! [`FaultController`](crate::FaultController) injected delivery delay
//! on mesh links and is 0 everywhere else.
//!
//! # What a peer can make us do
//!
//! * **Read side.** A length word outside `[22, MAX_FRAME_BYTES]` is
//!   `InvalidData` before a byte of body is waited for. A legal one
//!   reserves nothing: the reader's one buffer grows by
//!   [`FrameReader::GROW_STEP`] when it is *full of received bytes*, so a
//!   peer holds us to what it actually sent. A read that would block
//!   asks the caller's `stop` condition (a deadline, a shutdown flag)
//!   and resumes from the buffered prefix on the next call — a stream is
//!   never torn by giving up mid-frame.
//! * **Write side.** A frame that cannot be written within the writer's
//!   deadline closes the link: the error is typed, the socket is shut
//!   down, and every later send fails at once — no partial frame is ever
//!   followed by another, and no thread parks in `write` behind a peer
//!   that stopped reading.

use crate::transport::{Kind, Message, Payload, Tag};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tensor::f16::F16;

/// Frame body bytes before the payload (everything after the length
/// word): ptype + kind + epoch + id + step + delay_us.
const FRAME_HEADER: u32 = 22;
/// Largest frame body a reader accepts — anything larger is a corrupt
/// length word, not a real message.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

/// Wire code → kind; the code of a kind is its discriminant.
const KINDS: [Kind; 7] = [
    Kind::AllReduce,
    Kind::AllGather,
    Kind::Broadcast,
    Kind::Barrier,
    Kind::P2p,
    Kind::Telemetry,
    Kind::Heartbeat,
];

/// Encodes one message as a complete frame, length word included.
pub fn encode(msg: &Message) -> Vec<u8> {
    encode_frame(msg, 0)
}

/// Decodes one frame body (everything after the length word).
pub fn decode(body: &[u8]) -> Result<Message, String> {
    decode_frame(body).map(|(msg, _delay)| msg)
}

/// [`encode`] plus the injected delivery delay of a mesh link.
pub(crate) fn encode_frame(msg: &Message, delay_us: u32) -> Vec<u8> {
    let body_len = FRAME_HEADER as usize + msg.payload.data_bytes() as usize;
    let mut buf = Vec::with_capacity(4 + body_len);
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    let ptype = match &msg.payload {
        Payload::F16(_) => 0u8,
        Payload::F32(_) => 1,
        Payload::F64(_) => 2,
        Payload::Bytes(_) => 3,
    };
    buf.extend_from_slice(&[ptype, msg.tag.kind as u8]);
    buf.extend_from_slice(&msg.tag.epoch.to_le_bytes());
    buf.extend_from_slice(&msg.tag.id.to_le_bytes());
    buf.extend_from_slice(&msg.tag.step.to_le_bytes());
    buf.extend_from_slice(&delay_us.to_le_bytes());
    let head = buf.len();
    buf.resize(4 + body_len, 0);
    let data = &mut buf[head..];
    match &msg.payload {
        Payload::F16(v) => put(data, v, |x| x.to_bits().to_le_bytes()),
        Payload::F32(v) => put(data, v, |x| x.to_le_bytes()),
        Payload::F64(v) => put(data, v, |x| x.to_le_bytes()),
        Payload::Bytes(v) => data.copy_from_slice(v),
    }
    buf
}

/// Writes `src` into `data` as `N`-byte little-endian elements; `data`
/// is exactly that long.
fn put<const N: usize, E: Copy>(data: &mut [u8], src: &[E], to_le: impl Fn(E) -> [u8; N]) {
    let (chunks, rest) = data.as_chunks_mut::<N>();
    debug_assert!(rest.is_empty() && chunks.len() == src.len());
    for (chunk, &x) in chunks.iter_mut().zip(src) {
        *chunk = to_le(x);
    }
}

/// The checked cursor of the decoder: the next `N` bytes of `body`, or
/// an error naming how short it fell.
fn take<const N: usize>(body: &mut &[u8]) -> Result<[u8; N], String> {
    let (head, rest) = body
        .split_first_chunk::<N>()
        .ok_or_else(|| format!("frame body too short: {} bytes where {N} are due", body.len()))?;
    *body = rest;
    Ok(*head)
}

/// `data` as `N`-byte little-endian elements; a ragged tail is an error.
fn elems<const N: usize, E>(data: &[u8], from_le: impl Fn([u8; N]) -> E) -> Result<Vec<E>, String> {
    let (chunks, rest) = data.as_chunks::<N>();
    if !rest.is_empty() {
        return Err(format!("payload of {} bytes is not whole {N}-byte elements", data.len()));
    }
    Ok(chunks.iter().map(|c| from_le(*c)).collect())
}

/// [`decode`] plus the frame's `delay_us` word.
pub(crate) fn decode_frame(mut body: &[u8]) -> Result<(Message, u32), String> {
    let [ptype, kind] = take(&mut body)?;
    let kind = *KINDS.get(usize::from(kind)).ok_or_else(|| format!("unknown kind code {kind}"))?;
    let epoch = u32::from_le_bytes(take(&mut body)?);
    let id = u64::from_le_bytes(take(&mut body)?);
    let step = u32::from_le_bytes(take(&mut body)?);
    let delay_us = u32::from_le_bytes(take(&mut body)?);
    let payload = match ptype {
        0 => Payload::F16(elems(body, |b| F16::from_bits(u16::from_le_bytes(b)))?),
        1 => Payload::F32(elems(body, f32::from_le_bytes)?),
        2 => Payload::F64(elems(body, f64::from_le_bytes)?),
        3 => Payload::Bytes(body.to_vec()),
        _ => return Err(format!("unknown payload code {ptype}")),
    };
    Ok((Message { tag: Tag { epoch, kind, id, step }, payload }, delay_us))
}

fn invalid(what: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what)
}

/// A resumable frame reader over one byte stream, with the stream's one
/// receive buffer.
///
/// [`recv`](Self::recv) returns `Ok(Some(message))` for each frame in
/// order, `Ok(None)` when the caller's `stop` condition ended the wait
/// (what has arrived stays buffered; call again to resume),
/// `UnexpectedEof` when the stream closed, and `InvalidData` for a bad
/// length word or an undecodable body — after which the stream is dead:
/// every further call returns the same error.
pub struct FrameReader<R> {
    src: R,
    /// Initialised storage; `buf[start..end]` is received and not yet
    /// consumed. Reused across frames, so steady state neither allocates
    /// nor zeroes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// How much the buffer grows at a time, and therefore the most a
    /// length word alone can make a reader hold.
    pub const GROW_STEP: usize = 64 << 10;

    pub fn new(src: R) -> FrameReader<R> {
        FrameReader { src, buf: Vec::new(), start: 0, end: 0 }
    }

    /// The stream (for socket options; reading from it directly would
    /// tear the framing).
    pub fn get_ref(&self) -> &R {
        &self.src
    }

    /// Gives the stream back, dropping whatever was read ahead.
    pub fn into_inner(self) -> R {
        self.src
    }

    /// Bytes of buffer this reader holds.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The next message. `stop` is asked after every read that left the
    /// frame incomplete — never before the first, so `|| true` is a
    /// non-blocking poll on a non-blocking stream — and a `true` ends the
    /// call with `Ok(None)`.
    pub fn recv(&mut self, stop: impl FnMut() -> bool) -> io::Result<Option<Message>> {
        Ok(self.recv_delayed(stop)?.map(|(msg, _delay)| msg))
    }

    /// [`Self::recv`] plus the frame's `delay_us` word.
    pub(crate) fn recv_delayed(
        &mut self,
        mut stop: impl FnMut() -> bool,
    ) -> io::Result<Option<(Message, u32)>> {
        let mut tried = false;
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            if tried && stop() {
                return Ok(None);
            }
            tried = true;
            // Room for the read: the partial frame moves to the front
            // (once per frame at most), and a buffer full of received
            // bytes grows by one step — never by the length word.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.end + Self::GROW_STEP, 0);
            }
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if would_block(&e) || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Decodes and consumes the next frame if all of it has arrived.
    fn take_buffered(&mut self) -> io::Result<Option<(Message, u32)>> {
        let have = &self.buf[self.start..self.end];
        let Some(len) = have.first_chunk().map(|word| u32::from_le_bytes(*word)) else {
            return Ok(None);
        };
        if !(FRAME_HEADER..=MAX_FRAME_BYTES).contains(&len) {
            return Err(invalid(format!("corrupt frame length {len}")));
        }
        let total = 4 + len as usize;
        let Some(body) = have.get(4..total) else {
            return Ok(None);
        };
        let frame = decode_frame(body).map_err(invalid)?;
        self.start += total;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }
}

/// A socket timeout: `WouldBlock` on Unix, `TimedOut` on Windows.
fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The write half of one connection, shared by every thread that sends
/// on it (frames from concurrent senders must not interleave).
///
/// A send either writes the whole frame or closes the link: `TimedOut`
/// when the peer took none of it for the deadline, or had not taken all
/// of it a deadline after the first partial write; the OS error when the
/// socket failed; `NotConnected` for every send after that.
pub struct FrameWriter {
    /// `None` once the link is closed.
    stream: Mutex<Option<TcpStream>>,
    deadline: Duration,
}

/// Both halves of one connection: its reader, and a writer with
/// `write_deadline` over a second handle to the same socket.
pub fn split(
    stream: TcpStream,
    write_deadline: Duration,
) -> io::Result<(FrameReader<TcpStream>, FrameWriter)> {
    let writer = FrameWriter::new(stream.try_clone()?, write_deadline)?;
    Ok((FrameReader::new(stream), writer))
}

impl FrameWriter {
    /// Takes over the write half of `stream` (blocking mode), with
    /// `deadline` as its write timeout.
    pub fn new(stream: TcpStream, deadline: Duration) -> io::Result<FrameWriter> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(deadline))?;
        Ok(FrameWriter { stream: Mutex::new(Some(stream)), deadline })
    }

    /// Writes `msg` as one frame.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        self.send_delayed(msg, 0)
    }

    /// [`Self::send`] with the injected delivery delay of a mesh link.
    pub(crate) fn send_delayed(&self, msg: &Message, delay_us: u32) -> io::Result<()> {
        let frame = encode_frame(msg, delay_us);
        // A poisoned lock is a sender that panicked mid-frame: the stream
        // may end in half a frame, so the link counts as closed.
        let mut guard = self.stream.lock().map_err(|_| ErrorKind::NotConnected)?;
        let stream = guard.as_mut().ok_or(ErrorKind::NotConnected)?;
        let res = write_within(stream, &frame, self.deadline);
        if res.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
        }
        res
    }

    /// Closes the link: the peer's reader sees EOF, later sends fail.
    pub fn close(&self) {
        if let Some(stream) = self.stream.lock().ok().and_then(|mut guard| guard.take()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Writes all of `rest` or gives up: a single `write` is bounded by the
/// socket's write timeout, the frame as a whole by `deadline` counted
/// from its first partial write (the common one-write frame reads no
/// clock).
fn write_within(stream: &mut TcpStream, mut rest: &[u8], deadline: Duration) -> io::Result<()> {
    let mut partial_since = None;
    loop {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if would_block(&e) => return Err(ErrorKind::TimedOut.into()),
            Err(e) => return Err(e),
        }
        if rest.is_empty() {
            return Ok(());
        }
        if partial_since.get_or_insert_with(Instant::now).elapsed() >= deadline {
            return Err(ErrorKind::TimedOut.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn msg(kind: Kind, id: u64, payload: Payload) -> Message {
        Message { tag: Tag { epoch: 3, kind, id, step: 7 }, payload }
    }

    /// Payloads compared by bit pattern (`PartialEq` on floats fails on
    /// NaN).
    fn bits(p: &Payload) -> Vec<u64> {
        match p {
            Payload::F16(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
            Payload::F32(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
            Payload::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Payload::Bytes(v) => v.iter().map(|x| u64::from(*x)).collect(),
        }
    }

    fn cases() -> Vec<Message> {
        vec![
            msg(Kind::AllReduce, 1, Payload::F16(vec![
                F16::from_bits(0x3c00),
                F16::from_bits(0x8001), // -min subnormal: bit pattern must survive
                F16::from_bits(0x8000), // -0.0
                F16::from_bits(0x7e00), // NaN
                F16::from_bits(0xfd23), // signalling NaN with a payload
            ])),
            msg(Kind::P2p, 2, Payload::F32(vec![1.5, -0.0, f32::NAN, f32::from_bits(0xffa0_1234)])),
            msg(Kind::AllGather, 3, Payload::F64(vec![2.0_f64.powi(-40), -0.0, f64::from_bits(0x7ff4_0000_0000_00a5)])),
            msg(Kind::Barrier, 4, Payload::Bytes(vec![0, 255, 7])),
            msg(Kind::Heartbeat, 5, Payload::Bytes(Vec::new())),
        ]
    }

    #[test]
    fn frames_roundtrip_every_payload_type_bitwise() {
        for m in cases() {
            let frame = encode_frame(&m, 1234);
            let len = u32::from_le_bytes(*frame.first_chunk().unwrap());
            assert_eq!(len as usize, frame.len() - 4);
            let (back, delay) = decode_frame(&frame[4..]).unwrap();
            assert_eq!((delay, back.tag), (1234, m.tag));
            assert_eq!(std::mem::discriminant(&back.payload), std::mem::discriminant(&m.payload));
            assert_eq!(bits(&back.payload), bits(&m.payload));
            // The payload is its elements' little-endian bytes, in order,
            // straight after the 26-byte head.
            let le: Vec<u8> = match &m.payload {
                Payload::F16(v) => v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect(),
                Payload::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
                Payload::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
                Payload::Bytes(v) => v.clone(),
            };
            assert_eq!(frame[4 + FRAME_HEADER as usize..], le[..], "{:?}", m.tag.kind);
        }
        for (code, kind) in KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, code, "a kind's wire code is its discriminant");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        assert!(decode_frame(&[0u8; 5]).is_err(), "truncated header");
        let good = encode_frame(&msg(Kind::Barrier, 0, Payload::Bytes(vec![])), 0);
        let mut bad_kind = good[4..].to_vec();
        bad_kind[1] = 99;
        assert!(decode_frame(&bad_kind).is_err());
        let mut bad_ptype = good[4..].to_vec();
        bad_ptype[0] = 42;
        assert!(decode_frame(&bad_ptype).is_err());
        // Payloads whose byte count is not a multiple of the element size.
        for (payload, cut) in [
            (Payload::F16(vec![F16::ONE; 3]), 1),
            (Payload::F32(vec![1.0; 2]), 3),
            (Payload::F64(vec![1.0]), 3),
        ] {
            let mut ragged = encode_frame(&msg(Kind::AllReduce, 0, payload), 0);
            ragged.truncate(ragged.len() - cut);
            assert!(decode_frame(&ragged[4..]).is_err(), "ragged by {cut}");
        }
    }

    #[test]
    fn reader_and_writer_roundtrip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (mut reader, echo) = split(stream, Duration::from_secs(5)).unwrap();
            // Echo frames until the client hangs up.
            loop {
                match reader.recv(|| false) {
                    Ok(Some(m)) => echo.send(&m).unwrap(),
                    Ok(None) => unreachable!("the wait is never stopped"),
                    Err(e) => break assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
                }
            }
        });
        let client = TcpStream::connect(addr).unwrap();
        let (mut reader, writer) = split(client, Duration::from_secs(5)).unwrap();
        for m in cases() {
            writer.send(&m).unwrap();
            let back = reader.recv(|| false).unwrap().unwrap();
            assert_eq!(back.tag, m.tag);
            assert_eq!(bits(&back.payload), bits(&m.payload));
        }
        writer.close();
        assert_eq!(writer.send(&cases()[0]).unwrap_err().kind(), ErrorKind::NotConnected);
        server.join().unwrap();
    }

    #[test]
    fn wire_bytes_model_matches_frame_overhead_order() {
        // The accounting model charges HEADER_BYTES = 16 per message;
        // the real frame spends 4 (len) + 22 (header) = 26. Both are
        // O(1) per message — assert the real header stays a small
        // constant so the model remains a sane proxy.
        let m = msg(Kind::AllReduce, 9, Payload::F16(vec![F16::from_f32(1.0); 10]));
        assert_eq!(encode(&m).len(), 4 + 22 + 20);
    }
}
