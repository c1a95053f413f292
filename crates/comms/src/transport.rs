//! The transport layer: typed messages and point-to-point endpoints.
//!
//! [`Transport`] is the narrow waist between the collectives and the
//! wire. Both implementations deliver into the same `Mailbox` — one
//! `mpsc` FIFO per directed link, exactly the ordering guarantee TCP
//! gives, with the held-envelope, injected-delay and deadline logic of
//! a receive written once — and differ only in how a message leaves:
//! [`InProcTransport`] sends the envelope down the peer's channel,
//! [`crate::TcpTransport`] writes a frame that the peer's reader thread
//! turns back into one.

use crate::fault::{Decision, FaultController};
use crate::heartbeat::Health;
use crate::CommsError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::f16::F16;

/// Typed message body. Reduce-scatter hops carry f64 partial sums (the
/// exactness that makes the ring deterministic — see the crate docs);
/// everything else moves compressed f16 or raw bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    F16(Vec<F16>),
    /// Full-precision boundary activations / activation-gradients for
    /// inter-layer (pipeline) point-to-point traffic, which must move
    /// bit-exact f32 values to keep the pipelined backward bitwise
    /// identical to the single-process trainer.
    F32(Vec<f32>),
    F64(Vec<f64>),
    Bytes(Vec<u8>),
}

impl Payload {
    /// Fixed per-message framing a real wire pays: tag + length.
    pub const HEADER_BYTES: u64 = 16;

    /// Payload data bytes (excluding framing).
    pub fn data_bytes(&self) -> u64 {
        match self {
            Payload::F16(v) => 2 * v.len() as u64,
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::Bytes(v) => v.len() as u64,
        }
    }

    /// Bytes this message occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES + self.data_bytes()
    }
}

/// Which collective a message belongs to. The discriminant is the
/// kind's code on the wire (`tcp::framing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    AllReduce = 0,
    AllGather = 1,
    Broadcast = 2,
    Barrier = 3,
    /// Point-to-point pipeline traffic (boundary activations and
    /// activation-gradients). Unlike the collectives above, p2p tags
    /// are caller-supplied — both endpoints derive the same
    /// `(id, step)` from `(training step, microbatch, direction)`
    /// instead of consuming the shared monotonic collective counter,
    /// so stages exchanging different message counts stay aligned.
    P2p = 4,
    /// Best-effort metrics snapshots shipped to rank 0 for mesh-wide
    /// aggregation. Like [`Kind::P2p`] the tags are caller-supplied;
    /// unlike everything else a lost or late snapshot must never fail
    /// a collective, so telemetry traffic is sent and received through
    /// the non-poisoning best-effort paths only.
    Telemetry = 5,
    /// Liveness probes on a socket transport: a background thread pings
    /// every peer each interval (`step` 0) and the peer's reader
    /// answers in line (`step` 1), yielding a per-link RTT gauge.
    /// Heartbeats are consumed inside the transport — they refresh the
    /// peer's last-seen clock and never reach the tagged inbox, so the
    /// collectives are oblivious to them.
    Heartbeat = 6,
}

/// Self-describing routing header. `(epoch, kind, id, step)` is unique
/// per directed link for the lifetime of an epoch: `id` is a
/// per-communicator monotonic counter and every rank issues collectives
/// in the same program order, so tags agree across ranks without
/// negotiation, and a fast rank's early traffic for collective `id+k`
/// can be stashed instead of misrouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Bumped on recovery so post-restore traffic never aliases stale
    /// in-flight messages from a failed step.
    pub epoch: u32,
    pub kind: Kind,
    /// Which collective (monotonic per epoch).
    pub id: u64,
    /// Hop index within the collective's schedule.
    pub step: u32,
}

/// One message: routing tag plus typed payload.
#[derive(Debug)]
pub struct Message {
    pub tag: Tag,
    pub payload: Payload,
}

/// An envelope in flight; the fault injector may stamp a future
/// delivery instant (link delay). The TCP transport's reader threads
/// stamp `deliver_at` at enqueue time (the injected delay rides in the
/// frame) so a slow link never blocks the reader.
pub(crate) struct Envelope {
    pub(crate) deliver_at: Option<Instant>,
    pub(crate) msg: Message,
}

/// A rank's endpoint: non-blocking sends, per-peer FIFO receives with a
/// deadline. `Send` so each rank thread owns its endpoint outright.
pub trait Transport: Send {
    fn rank(&self) -> usize;
    fn world(&self) -> usize;

    /// Process-unique id of the mesh this endpoint belongs to. Folded
    /// into trace flow-event ids so identical tags on different meshes
    /// (e.g. the pipeline's per-replica p2p meshes and per-stage data
    /// meshes) never collide in a merged trace.
    fn mesh_id(&self) -> u64;

    /// Queues a message to `to`. A cut link "succeeds" (the loss only
    /// surfaces as the receiver's timeout); a socket whose peer stopped
    /// reading gives up within the liveness window.
    fn send(&mut self, to: usize, msg: Message) -> Result<(), CommsError>;

    /// Blocks until a message from `from` arrives or `deadline` passes.
    fn recv_from(&mut self, from: usize, deadline: Instant) -> Result<Message, CommsError>;

    /// Non-blocking receive from `from`.
    fn try_recv_from(&mut self, from: usize) -> Result<Option<Message>, CommsError>;

    /// Discards every queued inbound message (recovery path).
    fn drain(&mut self);

    /// Cumulative wire bytes offered to the link layer (dropped
    /// messages included — the sender did transmit them).
    fn bytes_sent(&self) -> u64;
    fn msgs_sent(&self) -> u64;
    /// Messages the fault injector discarded.
    fn msgs_dropped(&self) -> u64;
}

/// The receive half of an endpoint — the one place a rank waits for a
/// peer. Both transports feed it the same way (one `mpsc` FIFO per
/// directed link, filled by the peer's `send` in process and by a
/// reader thread over TCP) and differ only in how a message leaves.
pub(crate) struct Mailbox {
    rank: usize,
    /// `inbox[from]` — `None` at `from == rank`.
    inbox: Vec<Option<Receiver<Envelope>>>,
    /// The head of link `from` while its delivery instant is still in the
    /// future (injected delay); holding it keeps the link FIFO.
    held: Vec<Option<Envelope>>,
    /// How a socket transport hears of a peer's death mid-wait: the
    /// failure detector, and how often to ask it. In process a dead peer
    /// is a disconnected channel, which wakes the wait by itself.
    liveness: Option<(Arc<Health>, Duration)>,
}

impl Mailbox {
    pub(crate) fn new(
        rank: usize,
        inbox: Vec<Option<Receiver<Envelope>>>,
        liveness: Option<(Arc<Health>, Duration)>,
    ) -> Mailbox {
        let held = inbox.iter().map(|_| None).collect();
        Mailbox { rank, inbox, held, liveness }
    }

    /// The next message from `from`, waiting until `deadline` (`None`:
    /// not at all). `Ok(None)` means nothing deliverable by then.
    pub(crate) fn recv(
        &mut self,
        from: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, CommsError> {
        let rank = self.rank;
        let Some(rx) = self.inbox.get(from).and_then(Option::as_ref) else {
            return Err(CommsError::Mismatch(format!("recv from invalid rank {from}")));
        };
        let held = &mut self.held[from];
        let (health, slice) = match &self.liveness {
            Some((health, slice)) => (Some(health), *slice),
            None => (None, Duration::MAX),
        };
        loop {
            if health.is_some_and(|h| h.is_dead(from)) {
                return Err(CommsError::PeerDead { rank, peer: from });
            }
            let now = Instant::now();
            let left = deadline.map_or(Duration::ZERO, |d| d.saturating_duration_since(now));
            if held.is_none() {
                // Waits in slices so a mid-wait death verdict surfaces
                // within one of them instead of the full deadline.
                let next = if left.is_zero() {
                    rx.try_recv().map_err(|e| e == TryRecvError::Disconnected)
                } else {
                    rx.recv_timeout(left.min(slice)).map_err(|e| e == RecvTimeoutError::Disconnected)
                };
                match next {
                    Ok(env) => *held = Some(env),
                    Err(true) => return Err(CommsError::Closed { rank, peer: from }),
                    Err(false) if left.is_zero() => return Ok(None),
                    Err(false) => continue,
                }
            }
            let due = held.as_ref().and_then(|env| env.deliver_at);
            match due.map(|at| at.saturating_duration_since(now)) {
                // FIFO: this *is* the next message, so if it cannot be
                // delivered in time nothing can.
                Some(wait) if wait > left => return Ok(None),
                Some(wait) if !wait.is_zero() => std::thread::sleep(wait.min(slice)),
                _ => return Ok(held.take().map(|env| env.msg)),
            }
        }
    }

    /// Discards everything held or queued.
    pub(crate) fn drain(&mut self) {
        for (held, rx) in self.held.iter_mut().zip(&self.inbox) {
            *held = None;
            while rx.as_ref().is_some_and(|rx| rx.try_recv().is_ok()) {}
        }
    }
}

/// In-process mesh endpoint: one `mpsc` channel per directed link.
pub struct InProcTransport {
    rank: usize,
    world: usize,
    mesh_id: u64,
    /// `out[to]` — `None` at `to == rank`.
    out: Vec<Option<Sender<Envelope>>>,
    mailbox: Mailbox,
    faults: Arc<FaultController>,
    bytes_sent: u64,
    msgs_sent: u64,
    msgs_dropped: u64,
}

impl InProcTransport {
    /// Builds a fully connected fault-free mesh of `world` endpoints.
    pub fn mesh(world: usize) -> Vec<InProcTransport> {
        Self::mesh_with_faults(world, Arc::new(FaultController::new()))
    }

    /// Builds a mesh whose every link consults `faults` on each send.
    pub fn mesh_with_faults(
        world: usize,
        faults: Arc<FaultController>,
    ) -> Vec<InProcTransport> {
        assert!(world >= 1, "a mesh needs at least one rank");
        static NEXT_MESH_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mesh_id = NEXT_MESH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // txs[from][to] / rxs[to][from]
        let mut txs: Vec<Vec<Option<Sender<Envelope>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Envelope>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        for from in 0..world {
            for to in 0..world {
                if from != to {
                    let (tx, rx) = channel();
                    txs[from][to] = Some(tx);
                    rxs[to][from] = Some(rx);
                }
            }
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (out, inbox))| InProcTransport {
                rank,
                world,
                mesh_id,
                out,
                mailbox: Mailbox::new(rank, inbox, None),
                faults: Arc::clone(&faults),
                bytes_sent: 0,
                msgs_sent: 0,
                msgs_dropped: 0,
            })
            .collect()
    }

    /// The shared fault controller (for tests that only hold endpoints).
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.faults
    }
}

impl Transport for InProcTransport {
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
        let tx = self
            .out
            .get(to)
            .and_then(|o| o.as_ref())
            .ok_or_else(|| CommsError::Mismatch(format!("send to invalid rank {to}")))?;
        self.bytes_sent += msg.payload.wire_bytes();
        self.msgs_sent += 1;
        match self.faults.decide(self.rank, to) {
            Decision::Drop => {
                self.msgs_dropped += 1;
                Ok(())
            }
            Decision::Deliver(delay) => {
                let env = Envelope { deliver_at: delay.map(|d| Instant::now() + d), msg };
                tx.send(env).map_err(|_| CommsError::Closed { rank: self.rank, peer: to })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeartbeatConfig, TcpTransport};

    fn bytes(id: u64, body: Vec<u8>) -> Message {
        Message { tag: Tag { epoch: 0, kind: Kind::Barrier, id, step: 0 }, payload: Payload::Bytes(body) }
    }

    fn within(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    /// What every endpoint owes the collectives, whatever carries the
    /// message: per-link FIFO, a cut link that times out instead of
    /// hanging, injected delay that holds a message back without
    /// reordering, a drain that discards what was held, and a dead peer
    /// that surfaces as an error. `mesh` builds a world of 2.
    fn endpoint_contract<T: Transport>(mesh: impl Fn(Arc<FaultController>) -> Vec<T>) {
        let faults = Arc::new(FaultController::new());
        let mut ends = mesh(Arc::clone(&faults));
        let (mut b, mut a) = (ends.pop().unwrap(), ends.pop().unwrap());
        assert_eq!((a.rank(), b.rank(), a.world()), (0, 1, 2));

        // FIFO, and the byte model on the sender.
        for i in 0..4 {
            a.send(1, bytes(i, vec![i as u8])).unwrap();
        }
        for i in 0..4 {
            let m = b.recv_from(0, within(5000)).unwrap();
            assert_eq!((m.tag.id, m.payload), (i, Payload::Bytes(vec![i as u8])));
        }
        assert!(b.try_recv_from(0).unwrap().is_none());
        assert_eq!((a.msgs_sent(), a.bytes_sent()), (4, 4 * (Payload::HEADER_BYTES + 1)));
        assert!(matches!(b.recv_from(1, within(10)), Err(CommsError::Mismatch(_))), "own rank");

        // A cut link loses the message; the receiver's wait is bounded.
        faults.cut_link(0, 1);
        a.send(1, bytes(4, vec![])).unwrap();
        let t0 = Instant::now();
        let timeout = CommsError::Timeout { rank: 1, from: 0 };
        assert_eq!(b.recv_from(0, within(30)).unwrap_err(), timeout);
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded wait");
        assert_eq!(a.msgs_dropped(), 1);
        faults.heal_link(0, 1);

        // Injected delay: late but intact, and not deliverable early.
        faults.delay_link(0, 1, Duration::from_millis(20));
        a.send(1, Message { tag: bytes(7, vec![]).tag, payload: Payload::F64(vec![1.5]) }).unwrap();
        assert!(b.try_recv_from(0).unwrap().is_none());
        let m = b.recv_from(0, within(5000)).unwrap();
        assert_eq!((m.tag.id, m.payload), (7, Payload::F64(vec![1.5])));

        // Drain. A message due in a minute cannot meet a 10 s deadline,
        // and the wait says so the moment it arrives — which proves it
        // is held when `drain` runs, on either transport.
        faults.delay_link(0, 1, Duration::from_secs(60));
        a.send(1, bytes(8, vec![1])).unwrap();
        let t0 = Instant::now();
        assert_eq!(b.recv_from(0, within(10_000)).unwrap_err(), timeout);
        assert!(t0.elapsed() < Duration::from_secs(5), "FIFO verdict, not a wait");
        b.drain();
        faults.heal_link(0, 1);
        a.send(1, bytes(9, vec![2])).unwrap();
        assert_eq!(b.recv_from(0, within(5000)).unwrap().tag.id, 9, "the held message is gone");

        // A dead peer is an error, not a wait.
        drop(b);
        let t0 = Instant::now();
        let err = a.recv_from(1, within(30_000)).unwrap_err();
        let gone = [CommsError::Closed { rank: 0, peer: 1 }, CommsError::PeerDead { rank: 0, peer: 1 }];
        assert!(gone.contains(&err), "got {err:?}");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn in_process_mesh_keeps_the_endpoint_contract() {
        endpoint_contract(|faults| InProcTransport::mesh_with_faults(2, faults));
        // In process the sender learns of a dead peer too.
        let mut mesh = InProcTransport::mesh(2);
        mesh.pop();
        let err = mesh[0].send(1, bytes(0, vec![]));
        assert_eq!(err, Err(CommsError::Closed { rank: 0, peer: 1 }));
    }

    #[test]
    fn tcp_mesh_keeps_the_endpoint_contract() {
        endpoint_contract(|faults| {
            TcpTransport::local_mesh_with(2, faults, HeartbeatConfig::default()).unwrap()
        });
    }
}
