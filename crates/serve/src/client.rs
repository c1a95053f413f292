//! A blocking serving client: one TCP connection, closed-loop
//! request/reply, deadline-aware reads.
//!
//! An SLA load generator must be able to *give up* on a reply at its
//! deadline and keep the connection usable. The one frame reader
//! (`comms::tcp::framing::FrameReader`) is resumable for exactly that:
//! the deadline is the stop condition the client hands it, a read that
//! hits it mid-frame resumes from the buffered prefix on the next call,
//! and a late reply for an abandoned request is skipped by `id` when it
//! finally lands — the stream never desynchronizes.

use crate::protocol::{self, ClientBound};
use comms::tcp::framing::{self, FrameReader, FrameWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Matches the server's poll cadence.
const POLL: Duration = Duration::from_millis(20);

/// A reply to one inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    pub id: u64,
    /// Checkpoint step of the model that produced the output.
    pub step: u64,
    pub output: Vec<f32>,
}

/// Client-visible failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No reply by the deadline; the request may still complete later.
    Timeout,
    /// The server answered with an error frame.
    Server(String),
    /// The connection died.
    Closed,
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Timeout => f.write_str("timed out waiting for a reply"),
            ServeError::Server(e) => write!(f, "server error: {e}"),
            ServeError::Closed => f.write_str("connection closed"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

pub struct ServeClient {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter,
    next_id: u64,
}

impl ServeClient {
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_read_timeout(Some(POLL)).map_err(io)?;
        let (reader, writer) = framing::split(stream, protocol::WRITE_DEADLINE).map_err(io)?;
        Ok(ServeClient { reader, writer, next_id: 1 })
    }

    /// Sends `features` and blocks for the matching reply until
    /// `deadline`. Late replies to earlier abandoned requests are
    /// discarded by id.
    pub fn infer_deadline(
        &mut self,
        features: &[f32],
        deadline: Duration,
    ) -> Result<InferReply, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&protocol::request(id, features.to_vec()))?;
        let until = Instant::now() + deadline;
        loop {
            match self.read_frame(until)? {
                None => return Err(ServeError::Timeout),
                Some(ClientBound::Reply { id: rid, step, output }) if rid == id => {
                    return Ok(InferReply { id, step, output })
                }
                Some(ClientBound::Error { id: rid, text }) if rid == id || rid == 0 => {
                    return Err(ServeError::Server(text))
                }
                Some(_) => continue, // stale reply or pong: skip
            }
        }
    }

    /// [`Self::infer_deadline`] with a generous 30 s deadline.
    pub fn infer(&mut self, features: &[f32]) -> Result<InferReply, ServeError> {
        self.infer_deadline(features, Duration::from_secs(30))
    }

    /// Round-trips a liveness ping.
    pub fn ping(&mut self, deadline: Duration) -> Result<(), ServeError> {
        self.send(&protocol::ping())?;
        let until = Instant::now() + deadline;
        loop {
            match self.read_frame(until)? {
                None => return Err(ServeError::Timeout),
                Some(ClientBound::Pong) => return Ok(()),
                Some(_) => continue,
            }
        }
    }

    /// Requests a clean server shutdown and waits for the ack (or the
    /// server closing the stream, which means the same thing).
    pub fn shutdown_server(&mut self, deadline: Duration) -> Result<(), ServeError> {
        self.send(&protocol::shutdown())?;
        let until = Instant::now() + deadline;
        loop {
            match self.read_frame(until) {
                Ok(None) => return Err(ServeError::Timeout),
                Ok(Some(ClientBound::ShutdownAck)) | Err(ServeError::Closed) => return Ok(()),
                Ok(Some(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn send(&mut self, msg: &comms::Message) -> Result<(), ServeError> {
        self.writer.send(msg).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::NotConnected => ServeError::Closed,
            _ => ServeError::Io(e.to_string()),
        })
    }

    /// Reads one frame, resuming any buffered partial frame. `Ok(None)`
    /// on deadline; the partial stays buffered for the next call.
    fn read_frame(&mut self, until: Instant) -> Result<Option<ClientBound>, ServeError> {
        match self.reader.recv(|| Instant::now() >= until) {
            Ok(None) => Ok(None),
            Ok(Some(msg)) => protocol::parse_client_bound(msg).map(Some).map_err(ServeError::Io),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(ServeError::Closed),
            Err(e) => Err(ServeError::Io(e.to_string())),
        }
    }
}
