//! Rendezvous and mesh wiring for the cross-process TCP transport.
//!
//! A [`Rendezvous`] host (conventionally rank 0's process) listens on
//! one well-known address. Each worker calls [`bootstrap_tcp`]: it
//! binds a private data listener, registers `(rank, world, epoch,
//! data-address)` with the host, and blocks until the host has seen
//! all `world` ranks — at which point the host broadcasts the address
//! book plus an agreed epoch (one past the max any rank reported, so
//! post-restart traffic can never alias stale in-flight frames) and a
//! monotonically increasing **generation** number. Workers then dial
//! every peer's data address (bounded retry with exponential backoff)
//! and accept `world − 1` inbound connections, each verified by a
//! preamble carrying the sender's rank and generation — a connection
//! from a previous generation is silently discarded, so a relaunched
//! rank can never be wired to a survivor's stale socket.
//!
//! The host keeps serving after a generation completes: when a rank is
//! SIGKILLed and relaunched, the survivors' next [`bootstrap_tcp`]
//! call re-registers alongside the fresh process and everyone receives
//! a new generation + epoch. That loop — detect failure, re-rendezvous,
//! restore from checkpoint, resync — is exercised end to end by the
//! `samo-launch` kill drill.

use crate::heartbeat::HeartbeatConfig;
use crate::tcp::framing::{self, FrameReader, FrameWriter};
use crate::transport::Endpoint;
use crate::transport::{Kind, Message, Payload, Tag};
use crate::{CommsError, FaultController};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::json::Json;

/// "RDZ1" — the [`Tag::epoch`] of every handshake frame, so a stray
/// connection (or a confused training or serving peer) is rejected.
const MAGIC: u32 = 0x5244_5A31;
/// How long a connection may take to say who it is, and the write
/// deadline of every handshake reply.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
/// No handshake outgrows the first step of its reader's buffer (an
/// address book of ~2,500 ranks would); a stranger that does is dropped.
const LONGEST_HANDSHAKE: usize = FrameReader::<TcpStream>::GROW_STEP;
/// Dial timeout for one TCP connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// How often the accept loops look at their listener and their lobby.
const POLL: Duration = Duration::from_millis(5);

fn io_err(what: &str, e: std::io::Error) -> CommsError {
    CommsError::Io(format!("{what}: {e}"))
}

/// Knobs for [`bootstrap_tcp`]. The defaults suit a localhost drill;
/// tests shrink them to keep failure paths fast.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// How long a worker waits for the world to assemble (both the
    /// rendezvous response and the inbound data connections).
    pub rendezvous_timeout: Duration,
    /// Connect attempts per address before giving up.
    pub connect_retries: u32,
    /// Initial retry backoff; doubles per attempt (capped at 2 s).
    pub connect_backoff: Duration,
    /// Liveness parameters for the resulting transport.
    pub heartbeat: HeartbeatConfig,
}

impl Default for BootstrapConfig {
    fn default() -> BootstrapConfig {
        BootstrapConfig {
            rendezvous_timeout: Duration::from_secs(30),
            connect_retries: 10,
            connect_backoff: Duration::from_millis(50),
            heartbeat: HeartbeatConfig::default(),
        }
    }
}

/// What the rendezvous agreed on for this join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapInfo {
    /// 0 for the first assembly, +1 per re-rendezvous. Folded into the
    /// transport's mesh id and checked in data-link preambles.
    pub generation: u32,
    /// The epoch every rank must adopt
    /// ([`crate::Communicator::adopt_epoch`]): one past the max epoch
    /// any joining rank reported.
    pub epoch: u32,
}

/// The four messages of the bootstrap, each one frame of the codec every
/// other socket speaks (`tcp::framing`): the tag's epoch is "RDZ1",
/// its kind names the message, `id`/`step` carry the numbers and the
/// payload the text. Addresses are parsed where they enter, so nothing
/// past [`Handshake::decode`] handles an unchecked one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    /// Worker → host (`AllGather`): who I am, the epoch I am at, where I
    /// accept data links.
    Register { rank: u32, world: u32, epoch: u32, addr: SocketAddr },
    /// Host → every worker (`Broadcast`), once the world is complete:
    /// the epoch to adopt and every rank's data address, in rank order.
    Book { generation: u32, epoch: u32, addrs: Vec<SocketAddr> },
    /// Host → worker (`Telemetry`): the registration was refused.
    Reject(String),
    /// Dialer → acceptor (`P2p`), first frame of a data link.
    Preamble { rank: u32, generation: u32 },
}

impl Handshake {
    pub fn encode(&self) -> Message {
        let (kind, id, step, text) = match self {
            Handshake::Register { rank, world, epoch, addr } => {
                (Kind::AllGather, u64::from(*epoch) << 32 | u64::from(*rank), *world, addr.to_string())
            }
            Handshake::Book { generation, epoch, addrs } => {
                let lines: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
                (Kind::Broadcast, u64::from(*epoch), *generation, lines.join("\n"))
            }
            Handshake::Reject(text) => (Kind::Telemetry, 0, 0, text.clone()),
            Handshake::Preamble { rank, generation } => {
                (Kind::P2p, u64::from(*rank), *generation, String::new())
            }
        };
        let tag = Tag { epoch: MAGIC, kind, id, step };
        Message { tag, payload: Payload::Bytes(text.into_bytes()) }
    }

    /// Classifies a decoded frame; `Err` names the defect.
    pub fn decode(msg: Message) -> Result<Handshake, String> {
        let Message { tag, payload: Payload::Bytes(bytes) } = msg else {
            return Err("handshake payload must be bytes".into());
        };
        if tag.epoch != MAGIC {
            return Err(format!("frame epoch {:#010x} is not a handshake", tag.epoch));
        }
        let text = String::from_utf8(bytes).map_err(|e| format!("handshake text: {e}"))?;
        let addr = |s: &str| s.parse::<SocketAddr>().map_err(|e| format!("address {s:?}: {e}"));
        let low = u32::try_from(tag.id).map_err(|_| format!("handshake id {:#x} out of range", tag.id));
        Ok(match tag.kind {
            Kind::AllGather => Handshake::Register {
                rank: tag.id as u32,
                world: tag.step,
                epoch: (tag.id >> 32) as u32,
                addr: addr(&text)?,
            },
            Kind::Broadcast => Handshake::Book {
                generation: tag.step,
                epoch: low?,
                addrs: text.split('\n').map(addr).collect::<Result<_, _>>()?,
            },
            Kind::Telemetry => Handshake::Reject(text),
            Kind::P2p => Handshake::Preamble { rank: low?, generation: tag.step },
            kind => return Err(format!("unexpected handshake frame kind {kind:?}")),
        })
    }
}

/// Connections that have not said who they are yet. Every accept loop
/// keeps one: it takes what the listener has queued and polls each
/// waiting connection without blocking, so a silent stranger delays
/// nobody, and is dropped [`HANDSHAKE_TIMEOUT`] after it connected — or
/// sooner, once it has sent more than any handshake is long.
struct Lobby {
    listener: TcpListener,
    waiting: Vec<(FrameReader<TcpStream>, Instant)>,
}

impl Lobby {
    fn new(listener: TcpListener) -> Result<Lobby, CommsError> {
        listener.set_nonblocking(true).map_err(|e| io_err("listener set_nonblocking", e))?;
        Ok(Lobby { listener, waiting: Vec::new() })
    }

    /// Every connection whose first frame has fully arrived and is a
    /// handshake, back in blocking mode, with that handshake. Closed,
    /// corrupt, foreign and overdue connections are dropped.
    fn poll(&mut self) -> Vec<(FrameReader<TcpStream>, Handshake)> {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                self.waiting.push((FrameReader::new(stream), Instant::now()));
            }
        }
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            let (reader, since) = &mut self.waiting[i];
            let polled = reader.recv(|| true);
            let in_bounds =
                since.elapsed() < HANDSHAKE_TIMEOUT && reader.capacity() <= LONGEST_HANDSHAKE;
            match polled {
                Ok(None) if in_bounds => i += 1,
                Ok(Some(msg)) => {
                    let (reader, _) = self.waiting.swap_remove(i);
                    if let (Ok(hs), Ok(())) =
                        (Handshake::decode(msg), reader.get_ref().set_nonblocking(false))
                    {
                        ready.push((reader, hs));
                    }
                }
                _ => drop(self.waiting.swap_remove(i)),
            }
        }
        ready
    }
}

/// One handshake reply on a connection that is only written from here
/// on. Best-effort: a peer that is gone finds out by its own timeout.
fn reply(stream: TcpStream, hs: &Handshake) {
    if let Ok(w) = FrameWriter::new(stream, HANDSHAKE_TIMEOUT) {
        let _ = w.send(&hs.encode());
    }
}

// ---- rendezvous host ------------------------------------------------

struct Registration {
    addr: SocketAddr,
    epoch: u32,
    stream: TcpStream,
}

/// The rendezvous service: accepts registrations until all `world`
/// ranks of the current generation have checked in, then broadcasts
/// the address book. Runs on its own thread; dropping the handle shuts
/// it down.
pub struct Rendezvous {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Rendezvous {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and starts serving a world
    /// of `world` ranks, generation after generation.
    pub fn host(bind: &str, world: usize) -> Result<Rendezvous, CommsError> {
        assert!(world >= 1);
        let listener = TcpListener::bind(bind).map_err(|e| io_err("bind rendezvous", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("rendezvous local_addr", e))?;
        let lobby = Lobby::new(listener)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("samo-rdv".into())
            .spawn(move || serve(lobby, world, sd))
            .map_err(|e| io_err("spawn rendezvous", e))?;
        Ok(Rendezvous { addr, shutdown, thread: Some(thread) })
    }

    /// The address workers pass to [`bootstrap_tcp`].
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for Rendezvous {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve(mut lobby: Lobby, world: usize, shutdown: Arc<AtomicBool>) {
    let mut generation: u32 = 0;
    let mut pending: Vec<Option<Registration>> = (0..world).map(|_| None).collect();
    while !shutdown.load(Ordering::Relaxed) {
        for (reader, hs) in lobby.poll() {
            let stream = reader.into_inner();
            let Handshake::Register { rank, world: w, epoch, addr } = hs else {
                continue; // a handshake, but not one the host takes
            };
            let refusal = match pending.get_mut(rank as usize) {
                _ if w as usize != world => format!("world mismatch: host {world}, rank sent {w}"),
                None => format!("rank {rank} out of range for world {world}"),
                Some(Some(_)) => format!("rank {rank} already registered in generation {generation}"),
                Some(slot) => {
                    *slot = Some(Registration { addr, epoch, stream });
                    continue;
                }
            };
            reply(stream, &Handshake::Reject(refusal));
        }
        if pending.iter().all(Option::is_some) {
            // World assembled: agree on an epoch past every stale one,
            // broadcast the address book, advance the generation.
            let regs: Vec<Registration> = pending.iter_mut().filter_map(Option::take).collect();
            let epoch = regs.iter().map(|r| r.epoch).max().unwrap_or(0).saturating_add(1);
            let addrs = regs.iter().map(|r| r.addr).collect();
            let book = Handshake::Book { generation, epoch, addrs };
            for r in regs {
                reply(r.stream, &book);
            }
            generation += 1;
        }
        std::thread::sleep(POLL);
    }
}

// ---- worker side ----------------------------------------------------

fn connect_with_retry(
    addr: &SocketAddr,
    cfg: &BootstrapConfig,
    what: &str,
) -> Result<TcpStream, CommsError> {
    let mut backoff = cfg.connect_backoff;
    let mut last = String::new();
    for attempt in 0..cfg.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
        }
        match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
    }
    Err(CommsError::Io(format!(
        "{what}: gave up connecting to {addr} after {} attempts: {last}",
        cfg.connect_retries.max(1)
    )))
}

/// Joins the mesh: registers with the rendezvous at `rdv_addr`, waits
/// for the world to assemble, wires one TCP connection per directed
/// link, and returns a live TCP [`Endpoint`] plus the agreed
/// generation/epoch. `epoch` is this rank's *current* communicator
/// epoch (0 on first boot) so the host can hand everyone one past the
/// stalest survivor.
pub fn bootstrap_tcp(
    rdv_addr: &str,
    rank: usize,
    world: usize,
    epoch: u32,
    cfg: &BootstrapConfig,
    faults: Arc<FaultController>,
) -> Result<(Endpoint, BootstrapInfo), CommsError> {
    assert!(world >= 1 && rank < world);
    let rdv_addr: SocketAddr = rdv_addr
        .parse()
        .map_err(|e| CommsError::Io(format!("rendezvous: bad address {rdv_addr:?}: {e}")))?;
    // A private listener for inbound data links, advertised via the
    // rendezvous.
    let data_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind data listener", e))?;
    let addr = data_listener.local_addr().map_err(|e| io_err("data local_addr", e))?;
    let mut lobby = Lobby::new(data_listener)?;

    // Register and wait for the address book.
    let rdv = connect_with_retry(&rdv_addr, cfg, "rendezvous")?;
    rdv.set_read_timeout(Some(POLL)).map_err(|e| io_err("rendezvous set_read_timeout", e))?;
    let register = Handshake::Register { rank: rank as u32, world: world as u32, epoch, addr };
    let (mut from_host, to_host) =
        framing::split(rdv, HANDSHAKE_TIMEOUT).map_err(|e| io_err("rendezvous link", e))?;
    to_host.send(&register.encode()).map_err(|e| io_err("rendezvous register", e))?;
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    let answer = from_host
        .recv(|| Instant::now() >= deadline)
        .map_err(|e| io_err("rendezvous response", e))?
        .ok_or_else(|| {
            CommsError::Io(format!(
                "rendezvous timed out after {:?} waiting for world {world} to assemble",
                cfg.rendezvous_timeout
            ))
        })?;
    let (generation, adopt_epoch, peer_addrs) = match Handshake::decode(answer) {
        Ok(Handshake::Book { generation, epoch, addrs }) if addrs.len() == world => {
            (generation, epoch, addrs)
        }
        Ok(Handshake::Reject(why)) => {
            return Err(CommsError::Mismatch(format!("rendezvous rejected rank {rank}: {why}")));
        }
        other => {
            return Err(CommsError::Mismatch(format!(
                "rendezvous answered rank {rank} of world {world} with {other:?}"
            )));
        }
    };

    // Dial every peer (outbound links), announcing rank + generation.
    let preamble = Handshake::Preamble { rank: rank as u32, generation }.encode();
    let mut outbound: Vec<Option<FrameWriter>> = (0..world).map(|_| None).collect();
    for (peer, addr) in peer_addrs.iter().enumerate() {
        if peer == rank {
            continue;
        }
        let what = format!("data link to rank {peer}");
        let w = FrameWriter::new(connect_with_retry(addr, cfg, &what)?, cfg.heartbeat.window())
            .map_err(|e| io_err(&what, e))?;
        w.send(&preamble).map_err(|e| io_err(&format!("preamble to rank {peer}"), e))?;
        outbound[peer] = Some(w);
    }

    // Accept the world − 1 inbound links; everyone dialed before
    // accepting, but listener backlogs make that deadlock-free.
    let mut inbound: Vec<Option<FrameReader<TcpStream>>> = (0..world).map(|_| None).collect();
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    while inbound.iter().flatten().count() < world - 1 {
        if Instant::now() >= deadline {
            return Err(CommsError::Io(format!(
                "rank {rank}: timed out accepting inbound data links (generation {generation})"
            )));
        }
        for (reader, hs) in lobby.poll() {
            // A previous generation's socket (or nonsense) is discarded
            // so stale links never join the fresh mesh.
            match hs {
                Handshake::Preamble { rank: from, generation: g }
                    if g == generation && (from as usize) < world && from as usize != rank =>
                {
                    inbound[from as usize] = Some(reader);
                }
                _ => {}
            }
        }
        std::thread::sleep(POLL);
    }

    let mesh_id = (2u64 << 32) | u64::from(generation);
    let transport =
        Endpoint::from_links(rank, world, mesh_id, outbound, inbound, faults, cfg.heartbeat)?;
    if generation > 0 {
        telemetry::jsonl::emit_link_event(
            "reconnect",
            rank,
            None,
            vec![
                ("generation".into(), Json::UInt(u64::from(generation))),
                ("epoch".into(), Json::UInt(u64::from(adopt_epoch))),
            ],
        );
    }
    Ok((transport, BootstrapInfo { generation, epoch: adopt_epoch }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshakes_roundtrip_through_the_frame_codec() {
        let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        for hs in [
            Handshake::Register { rank: 3, world: 4, epoch: u32::MAX, addr },
            Handshake::Book { generation: 2, epoch: 7, addrs: vec![addr, "[::1]:9".parse().unwrap()] },
            Handshake::Reject("rank 9 out of range".into()),
            Handshake::Preamble { rank: 1, generation: u32::MAX },
        ] {
            let frame = crate::tcp::framing::encode(&hs.encode());
            let back = crate::tcp::framing::decode(&frame[4..]).unwrap();
            assert_eq!(Handshake::decode(back), Ok(hs));
        }
    }

    #[test]
    fn rendezvous_single_rank_world_assembles_immediately() {
        let rdv = Rendezvous::host("127.0.0.1:0", 1).unwrap();
        let cfg = BootstrapConfig {
            rendezvous_timeout: Duration::from_secs(5),
            ..BootstrapConfig::default()
        };
        let (t, info) =
            bootstrap_tcp(&rdv.addr(), 0, 1, 0, &cfg, Arc::new(FaultController::new())).unwrap();
        assert_eq!(info, BootstrapInfo { generation: 0, epoch: 1 });
        drop(t);
    }
}
