//! Cross-process transport: length-prefixed frames over `TcpStream`.
//!
//! [`TcpTransport`] implements the same [`Transport`] trait as the
//! in-process mesh, so [`crate::Communicator`], the ring collectives,
//! and both threaded runtimes run over it unchanged. Each directed
//! link is its own TCP connection: the outbound stream is written
//! through one shared [`FrameWriter`] (by `send`, the heartbeat thread
//! and the pong-answering reader), the inbound stream is owned by a
//! per-peer **reader thread** that pulls frames off a [`FrameReader`]
//! and feeds the same `Mailbox` the in-process transport waits on —
//! so the held-envelope/deadline-receive logic exists once. The wire
//! format and what a peer can make either half do are [`framing`]'s.
//!
//! A [`FaultController`] injected delivery delay rides in the frame's
//! `delay_us` word: the *sender* stamps it and the *reader* turns it
//! into a future `deliver_at` at enqueue time, so a delayed link never
//! blocks the reader thread and per-link FIFO order is preserved —
//! exactly the in-process semantics.
//!
//! # Failure detection
//!
//! A background heartbeat thread pings every peer each
//! [`HeartbeatConfig::interval`] and declares a peer dead after
//! [`HeartbeatConfig::window`] of silence (any inbound frame counts as
//! liveness). Receives from a dead peer return
//! [`CommsError::PeerDead`] immediately — detection is bounded by the
//! heartbeat window even when the collective deadline is much longer.
//! The same window is every writer's deadline: a peer that stops
//! *reading* fails the send ([`CommsError::Timeout`]), the ping or the
//! pong that filled its socket, and closes that link, instead of
//! parking the thread in `write`. A SIGKILLed peer usually surfaces
//! even faster: the OS closes its sockets, the reader sees EOF, and the
//! inbox disconnect becomes [`CommsError::Closed`].

pub mod framing;

use crate::fault::{Decision, FaultController};
use crate::heartbeat::{Health, HeartbeatConfig};
use crate::transport::{Envelope, Kind, LinkTx, Mailbox, Message, Payload, Tag, Transport};
use crate::CommsError;
use framing::{FrameReader, FrameWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::json::Json;

/// Reader-thread read timeout and receive poll slice: bounds both
/// shutdown latency and how stale a `PeerDead` check can be.
const POLL: Duration = Duration::from_millis(20);

fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// A heartbeat probe: `step` 0 pings, 1 answers; `id` is the ping's
/// send time in unix micros.
fn heartbeat(id: u64, step: u32) -> Message {
    let tag = Tag { epoch: 0, kind: Kind::Heartbeat, id, step };
    Message { tag, payload: Payload::Bytes(Vec::new()) }
}

/// Per-peer reader: pulls inbound frames, refreshes the liveness
/// clock, answers heartbeat pings in line, and enqueues data frames
/// with their injected-delay delivery instant. Exits (dropping the
/// inbox sender, which surfaces as [`CommsError::Closed`]) on EOF,
/// socket error, corrupt frame, or transport shutdown.
fn reader_loop(
    rank: usize,
    peer: usize,
    mut reader: FrameReader<TcpStream>,
    tx: LinkTx,
    pong: Option<Arc<FrameWriter>>,
    health: Arc<Health>,
    shutdown: Arc<AtomicBool>,
) {
    // The flag is looked at before the first read too: an endpoint dropped
    // as soon as it was built finds this thread not yet in its 20 ms read.
    while !shutdown.load(Ordering::Relaxed) {
        let (msg, delay_us) = match reader.recv_delayed(|| shutdown.load(Ordering::Relaxed)) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    telemetry::log_warn!("rank {rank}: {e} from peer {peer}; closing link");
                }
                return;
            }
        };
        health.note_seen(peer);
        match msg.tag.kind {
            Kind::Heartbeat if msg.tag.step == 0 => {
                // Ping: answer with a pong carrying the same timestamp.
                if let Some(w) = &pong {
                    let _ = w.send(&heartbeat(msg.tag.id, 1));
                }
            }
            Kind::Heartbeat => {
                let rtt = unix_micros().saturating_sub(msg.tag.id);
                health.record_rtt(peer, rtt);
                if telemetry::enabled() {
                    telemetry::global()
                        .gauge(&format!("comms.tcp.rtt_us.{rank}->{peer}"))
                        .set(rtt as f64);
                }
            }
            _ => {
                let deliver_at =
                    (delay_us > 0).then(|| Instant::now() + Duration::from_micros(delay_us.into()));
                if !tx.send(Envelope { deliver_at, msg }) {
                    return;
                }
            }
        }
    }
}

/// Heartbeat monitor: pings every live peer each interval and declares
/// peers dead after a full window of silence. Pings consult
/// [`FaultController::is_cut`] — a *non-consuming* probe, so the
/// background traffic never perturbs seeded drop/jitter schedules —
/// which makes a cut link starve the remote monitor exactly like a
/// dead process.
fn monitor_loop(
    rank: usize,
    world: usize,
    writers: Vec<Option<Arc<FrameWriter>>>,
    health: Arc<Health>,
    faults: Arc<FaultController>,
    shutdown: Arc<AtomicBool>,
) {
    let interval = health.config().interval;
    let mut warned = vec![false; world];
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let nap = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(nap);
            slept += nap;
        }
        for peer in 0..world {
            if peer == rank || health.is_dead(peer) {
                continue;
            }
            if !faults.is_cut(rank, peer) {
                if let Some(w) = &writers[peer] {
                    let _ = w.send(&heartbeat(unix_micros(), 0));
                }
            }
            let silent = health.silent_for(peer);
            if silent <= interval {
                warned[peer] = false;
            } else if !warned[peer] && silent > interval * 2 {
                warned[peer] = true;
                telemetry::log_warn!(
                    "rank {rank}: peer {peer} silent for {}ms (heartbeat misses)",
                    silent.as_millis()
                );
                if telemetry::enabled() {
                    telemetry::global().counter("comms.tcp.heartbeat_misses").inc();
                }
                telemetry::jsonl::emit_link_event(
                    "heartbeat_miss",
                    rank,
                    Some(peer),
                    vec![("silent_ms".into(), Json::UInt(silent.as_millis() as u64))],
                );
            }
            if health.overdue(peer) && health.mark_dead(peer) {
                telemetry::log_warn!(
                    "rank {rank}: peer {peer} silent for {}ms — declaring dead",
                    silent.as_millis()
                );
                if telemetry::enabled() {
                    telemetry::global().counter("comms.tcp.peers_dead").inc();
                }
                telemetry::jsonl::emit_link_event(
                    "peer_dead",
                    rank,
                    Some(peer),
                    vec![("silent_ms".into(), Json::UInt(silent.as_millis() as u64))],
                );
            }
        }
    }
}

/// A cross-process mesh endpoint: one TCP connection per directed
/// link, per-peer reader threads, and a heartbeat failure detector.
/// Built by [`crate::bootstrap_tcp`] (multi-process rendezvous) or
/// [`TcpTransport::local_mesh`] (in-process loopback, for tests and
/// benches).
pub struct TcpTransport {
    rank: usize,
    world: usize,
    mesh_id: u64,
    writers: Vec<Option<Arc<FrameWriter>>>,
    mailbox: Mailbox,
    health: Arc<Health>,
    faults: Arc<FaultController>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    bytes_sent: u64,
    msgs_sent: u64,
    msgs_dropped: u64,
}

impl TcpTransport {
    /// Wires one endpoint from already-connected links: `outbound[p]`
    /// writes to peer `p`, `inbound[p]` is read by a dedicated thread
    /// (with whatever its reader already buffered behind a preamble).
    /// Spawns `world − 1` readers plus the heartbeat monitor.
    pub(crate) fn from_links(
        rank: usize,
        world: usize,
        mesh_id: u64,
        outbound: Vec<Option<FrameWriter>>,
        inbound: Vec<Option<FrameReader<TcpStream>>>,
        faults: Arc<FaultController>,
        hb: HeartbeatConfig,
    ) -> Result<TcpTransport, CommsError> {
        assert_eq!(outbound.len(), world);
        assert_eq!(inbound.len(), world);
        let io_err = |what: &str, e: std::io::Error| CommsError::Io(format!("{what}: {e}"));
        let writers: Vec<Option<Arc<FrameWriter>>> =
            outbound.into_iter().map(|w| w.map(Arc::new)).collect();
        let health = Arc::new(Health::new(world, hb));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut mailbox = Mailbox::new(rank, world, Some((Arc::clone(&health), POLL)));
        let mut threads = Vec::new();
        for (peer, reader) in inbound.into_iter().enumerate() {
            let Some(reader) = reader else {
                continue;
            };
            let stream = reader.get_ref();
            stream.set_read_timeout(Some(POLL)).map_err(|e| io_err("set_read_timeout", e))?;
            let tx = mailbox.open(peer);
            let pong = writers[peer].clone();
            let h = Arc::clone(&health);
            let sd = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tcp-rd-{rank}<{peer}"))
                    .spawn(move || reader_loop(rank, peer, reader, tx, pong, h, sd))
                    .map_err(|e| io_err("spawn reader", e))?,
            );
        }
        let w = writers.clone();
        let h = Arc::clone(&health);
        let f = Arc::clone(&faults);
        let sd = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name(format!("tcp-hb-{rank}"))
                .spawn(move || monitor_loop(rank, world, w, h, f, sd))
                .map_err(|e| io_err("spawn heartbeat", e))?,
        );
        Ok(TcpTransport {
            rank,
            world,
            mesh_id,
            writers,
            mailbox,
            health,
            faults,
            shutdown,
            threads,
            bytes_sent: 0,
            msgs_sent: 0,
            msgs_dropped: 0,
        })
    }

    /// A fault-free loopback mesh with default heartbeat parameters.
    pub fn local_mesh(world: usize) -> Result<Vec<TcpTransport>, CommsError> {
        Self::local_mesh_with(world, Arc::new(FaultController::new()), HeartbeatConfig::default())
    }

    /// Builds a full mesh of `world` endpoints over 127.0.0.1 sockets in
    /// one process — real TCP framing and reader threads, no rendezvous.
    /// Every link consults `faults` on send, exactly like
    /// [`InProcTransport::mesh_with_faults`](crate::InProcTransport::mesh_with_faults).
    pub fn local_mesh_with(
        world: usize,
        faults: Arc<FaultController>,
        hb: HeartbeatConfig,
    ) -> Result<Vec<TcpTransport>, CommsError> {
        assert!(world >= 1, "a mesh needs at least one rank");
        let io_err = |what: &str, e: std::io::Error| CommsError::Io(format!("{what}: {e}"));
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind loopback", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let mut outbound: Vec<Vec<Option<FrameWriter>>> =
            (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
        let mut inbound: Vec<Vec<Option<FrameReader<TcpStream>>>> =
            (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
        for from in 0..world {
            for to in 0..world {
                if from == to {
                    continue;
                }
                // The listener backlog queues the connection, so a
                // sequential connect-then-accept cannot deadlock.
                let c = TcpStream::connect(addr).map_err(|e| io_err("connect loopback", e))?;
                let (a, _) = listener.accept().map_err(|e| io_err("accept loopback", e))?;
                let w = FrameWriter::new(c, hb.window()).map_err(|e| io_err("link writer", e))?;
                outbound[from][to] = Some(w);
                inbound[to][from] = Some(FrameReader::new(a));
            }
        }
        let mesh_id = next_mesh_id();
        outbound
            .into_iter()
            .zip(inbound)
            .enumerate()
            .map(|(rank, (out, inb))| {
                Self::from_links(rank, world, mesh_id, out, inb, Arc::clone(&faults), hb)
            })
            .collect()
    }

    /// The shared fault controller (for tests that only hold endpoints).
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.faults
    }

    /// Whether the failure detector has declared `peer` dead.
    pub fn peer_dead(&self, peer: usize) -> bool {
        self.health.is_dead(peer)
    }

    /// Last measured heartbeat round trip to `peer`, if any pong has
    /// come back yet.
    pub fn rtt_us(&self, peer: usize) -> Option<u64> {
        self.health.rtt_us(peer)
    }
}

/// Process-unique mesh ids for loopback meshes, salted into a distinct
/// range from in-process mesh ids so flow-trace ids never collide.
fn next_mesh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    (1 << 32) | NEXT.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("mesh_id", &self.mesh_id)
            .finish_non_exhaustive()
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn mesh_id(&self) -> u64 {
        self.mesh_id
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), CommsError> {
        let Some(w) = self.writers.get(to).and_then(|o| o.as_ref()) else {
            return Err(CommsError::Mismatch(format!("send to invalid rank {to}")));
        };
        self.bytes_sent += msg.payload.wire_bytes();
        self.msgs_sent += 1;
        if self.health.is_dead(to) {
            self.msgs_dropped += 1;
            return Err(CommsError::PeerDead { rank: self.rank, peer: to });
        }
        match self.faults.decide(self.rank, to) {
            Decision::Drop => {
                self.msgs_dropped += 1;
                Ok(())
            }
            Decision::Deliver(delay) => {
                let delay_us =
                    delay.map_or(0u32, |d| d.as_micros().min(u128::from(u32::MAX)) as u32);
                w.send_delayed(&msg, delay_us).map_err(|e| match e.kind() {
                    std::io::ErrorKind::TimedOut => CommsError::Timeout { rank: self.rank, from: to },
                    _ => CommsError::Io(format!("write to rank {to}: {e}")),
                })
            }
        }
    }

    fn recv_from(&mut self, from: usize, deadline: Instant) -> Result<Message, CommsError> {
        let timeout = CommsError::Timeout { rank: self.rank, from };
        self.mailbox.recv(from, Some(deadline))?.ok_or(timeout)
    }

    fn try_recv_from(&mut self, from: usize) -> Result<Option<Message>, CommsError> {
        self.mailbox.recv(from, None)
    }

    fn wait_any(&mut self, from: &[usize], deadline: Instant) -> Result<Option<usize>, CommsError> {
        self.mailbox.wait_any(from, deadline)
    }

    fn drain(&mut self) {
        self.mailbox.drain();
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    fn msgs_dropped(&self) -> u64 {
        self.msgs_dropped
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Closing the outbound half lets the peer's readers see EOF
        // promptly; our own readers exit on the flag within one POLL.
        for w in self.writers.iter().flatten() {
            w.close();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
