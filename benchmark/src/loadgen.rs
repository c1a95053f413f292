//! The open-loop load generator: one thread, a few non-blocking
//! connections, requests pipelined by id.
//!
//! The crate's own `serve::loadgen` is closed-loop (a client sends its
//! next request only after the previous reply), so a slow server receives
//! less load and no queue can build. Here requests leave on a schedule
//! whatever the server does, and each is timed **from its due time**, so
//! the wait a stall imposes on later requests is counted. How late the
//! generator itself ran is reported beside the latencies.

use comms::tcp::framing;
use serve::protocol::{self, ClientBound};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request still unanswered this long after its due time has failed.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Longest sleep between polls of the sockets.
const POLL: Duration = Duration::from_micros(100);

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time, seconds from the start of the run.
    pub due_s: f64,
    /// Index of the phase the request belongs to.
    pub phase: usize,
    pub features: Vec<f32>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// A reply with the checkpoint step it was computed on.
    Ok { step: u64, output: Vec<f32> },
    /// The server answered with an error, or the connection broke.
    Failed(String),
    /// No reply within [`DEADLINE`] of the due time.
    TimedOut,
}

/// What happened to one request; times are seconds from the run's start.
#[derive(Debug, Clone)]
pub struct Record {
    pub phase: usize,
    pub conn: usize,
    pub due_s: f64,
    pub sent_s: f64,
    /// When the reply (or the failure) was seen.
    pub done_s: f64,
    pub status: Status,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }

    pub fn ok(&self) -> bool {
        matches!(self.status, Status::Ok { .. })
    }
}

struct Conn {
    stream: TcpStream,
    /// Bytes accepted for sending that the socket has not taken yet.
    out: Vec<u8>,
    /// Bytes read that do not yet make a whole frame.
    inb: Vec<u8>,
    /// Bytes the socket has taken and given, frame headers included.
    wire_bytes: u64,
    broken: Option<String>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inb: Vec::new(),
            wire_bytes: 0,
            broken: None,
        })
    }

    fn flush(&mut self) {
        while !self.out.is_empty() && self.broken.is_none() {
            match self.stream.write(&self.out) {
                Ok(0) => self.broken = Some("connection closed while writing".to_string()),
                Ok(n) => {
                    self.out.drain(..n);
                    self.wire_bytes += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.broken = Some(format!("write: {e}")),
            }
        }
    }

    /// Reads what the socket holds and returns every whole frame decoded.
    fn poll(&mut self) -> Vec<ClientBound> {
        let mut buf = [0u8; 16 * 1024];
        while self.broken.is_none() {
            match self.stream.read(&mut buf) {
                Ok(0) => self.broken = Some("server closed the connection".to_string()),
                Ok(n) => {
                    self.inb.extend_from_slice(&buf[..n]);
                    self.wire_bytes += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.broken = Some(format!("read: {e}")),
            }
        }
        let mut frames = Vec::new();
        let mut at = 0;
        while self.inb.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.inb[at..at + 4].try_into().expect("four bytes")) as usize;
            if len > framing::MAX_FRAME_BYTES as usize {
                self.broken = Some(format!("corrupt frame length {len}"));
                break;
            }
            if self.inb.len() - at - 4 < len {
                break;
            }
            match framing::decode(&self.inb[at + 4..at + 4 + len])
                .and_then(protocol::parse_client_bound)
            {
                Ok(msg) => frames.push(msg),
                Err(e) => {
                    self.broken = Some(format!("undecodable frame: {e}"));
                    break;
                }
            }
            at += 4 + len;
        }
        self.inb.drain(..at);
        frames
    }
}

/// The generator: connects once, then runs schedules.
pub struct LoadGen {
    conns: Vec<Conn>,
    next_id: u64,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr, connections: usize) -> Result<LoadGen, String> {
        Ok(LoadGen {
            conns: (0..connections)
                .map(|_| Conn::connect(addr))
                .collect::<Result<_, _>>()?,
            next_id: 1,
        })
    }

    /// Bytes sent and received on the client sockets so far.
    pub fn wire_bytes(&self) -> u64 {
        self.conns.iter().map(|c| c.wire_bytes).sum()
    }

    /// Runs `schedule` (ascending due times) to completion: every request
    /// is sent when due, round-robin over the connections, and the call
    /// returns when each has a reply, a failure or a missed deadline.
    /// `on_phase(p)` is called just before the first request of phase `p`.
    pub fn run(&mut self, schedule: &[Arrival], mut on_phase: impl FnMut(usize)) -> Vec<Record> {
        let t0 = Instant::now();
        let now_s = || t0.elapsed().as_secs_f64();
        let base_id = self.next_id;
        self.next_id += schedule.len() as u64;
        let conns = self.conns.len();
        let mut sent_s = vec![f64::NAN; schedule.len()];
        // When each request was settled, and how.
        let mut settled: Vec<Option<(f64, Status)>> = vec![None; schedule.len()];
        let (mut next, mut open, mut phase) = (0usize, 0usize, usize::MAX);
        // Every request before this one is settled.
        let mut oldest_open = 0usize;
        while next < schedule.len() || open > 0 {
            let now = now_s();
            while next < schedule.len() && schedule[next].due_s <= now {
                let a = &schedule[next];
                if a.phase != phase {
                    phase = a.phase;
                    on_phase(phase);
                }
                let id = base_id + next as u64;
                let conn = &mut self.conns[next % conns];
                conn.out
                    .extend_from_slice(&framing::encode(&protocol::request(
                        id,
                        a.features.clone(),
                    )));
                conn.flush();
                sent_s[next] = now_s();
                open += 1;
                next += 1;
            }
            for conn in &mut self.conns {
                conn.flush();
                for msg in conn.poll() {
                    let (id, status) = match msg {
                        ClientBound::Reply { id, step, output } => {
                            (id, Status::Ok { step, output })
                        }
                        ClientBound::Error { id, text } => (id, Status::Failed(text)),
                        ClientBound::ShutdownAck | ClientBound::Pong => continue,
                    };
                    // Replies to requests of an earlier run, or to ones
                    // already timed out, are dropped.
                    let slot = id
                        .checked_sub(base_id)
                        .and_then(|i| settled[..next].get_mut(i as usize));
                    if let Some(slot @ None) = slot {
                        *slot = Some((now_s(), status));
                        open -= 1;
                    }
                }
            }
            let now = now_s();
            while oldest_open < next {
                if settled[oldest_open].is_none() {
                    let late = now - schedule[oldest_open].due_s > DEADLINE.as_secs_f64();
                    let status = match &self.conns[oldest_open % conns].broken {
                        Some(why) => Status::Failed(why.clone()),
                        None if late => Status::TimedOut,
                        None => break,
                    };
                    settled[oldest_open] = Some((now, status));
                    open -= 1;
                }
                oldest_open += 1;
            }
            let until_due = schedule
                .get(next)
                .map_or(POLL.as_secs_f64(), |a| a.due_s - now_s());
            if until_due > 0.0 {
                std::thread::sleep(POLL.min(Duration::from_secs_f64(until_due)));
            }
        }
        schedule
            .iter()
            .zip(sent_s)
            .zip(settled)
            .enumerate()
            .map(|(i, ((a, sent_s), settled))| {
                let (done_s, status) =
                    settled.expect("the loop ends only when every request is settled");
                Record {
                    phase: a.phase,
                    conn: i % conns,
                    due_s: a.due_s,
                    sent_s,
                    done_s,
                    status,
                }
            })
            .collect()
    }
}
