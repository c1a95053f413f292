//! The transport layer: typed messages and point-to-point endpoints.
//!
//! [`Transport`] is the narrow waist between the collectives and the
//! wire. Both implementations deliver into the same `Mailbox` — one
//! `mpsc` FIFO per directed link, exactly the ordering guarantee TCP
//! gives, with the held-envelope, injected-delay and deadline logic of
//! a receive written once — and differ only in how a message leaves:
//! [`InProcTransport`] sends the envelope down the peer's channel,
//! [`crate::TcpTransport`] writes a frame that the peer's reader thread
//! turns back into one. Either way the envelope goes in through the
//! link's `LinkTx`, which also wakes a rank asleep in
//! [`Transport::wait_any`] — the one way to wait on several links.

use crate::fault::{Decision, FaultController};
use crate::heartbeat::Health;
use crate::CommsError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Out-of-band text, never sent on a training mesh: the bootstrap
    /// host's refusal of a registration (`bootstrap::Handshake::Reject`)
    /// and the serving tier's error replies. A group's step durations
    /// ride its rank threads' replies, not the wire.
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

    /// Sleeps until a receive from one of `from` would deliver at once,
    /// and says which (`Ok(None)` if `deadline` comes first, or at once
    /// for an empty set). An injected delivery delay is waited out, not
    /// skipped; a closed link or a peer declared dead is the error a
    /// receive from it would return.
    fn wait_any(&mut self, from: &[usize], deadline: Instant) -> Result<Option<usize>, CommsError>;

    /// Discards every queued inbound message (recovery path).
    fn drain(&mut self);

    /// Cumulative wire bytes offered to the link layer (dropped
    /// messages included — the sender did transmit them).
    fn bytes_sent(&self) -> u64;
    fn msgs_sent(&self) -> u64;
    /// Messages the fault injector discarded.
    fn msgs_dropped(&self) -> u64;
}

/// How a sender wakes the rank that owns a mailbox out of
/// [`Mailbox::wait_any`]: a sequence number bumped after every enqueue
/// and every link close. The owner reads it, polls its links, and sleeps
/// only while it has not moved, so a message that lands between the poll
/// and the sleep is never slept through.
#[derive(Default)]
struct Wake {
    seq: AtomicU64,
    /// Whether the owner is (about to be) asleep: a send pays the lock
    /// and the notify only then.
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Wake {
    // SeqCst throughout: the bump (`seq` then `parked`) and the park
    // (`parked` then `seq`) each write one flag and read the other, and one
    // of the two must see the other's write.
    fn bump(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            // Under the lock the owner is either not yet at its check of
            // `seq` (and will see the bump) or already in `wait`.
            let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_one();
        }
    }

    /// Sleeps until `until`, or until the sequence moves past `seen`.
    fn park(&self, seen: u64, until: Instant) {
        self.parked.store(true, Ordering::SeqCst);
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.seq.load(Ordering::SeqCst) == seen {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            g = self.cv.wait_timeout(g, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        drop(g);
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// The sending half of one directed link into a [`Mailbox`]: held by the
/// peer's endpoint in process, by the link's reader thread over TCP.
pub(crate) struct LinkTx {
    /// `None` only inside `drop`.
    tx: Option<Sender<Envelope>>,
    wake: Arc<Wake>,
}

impl LinkTx {
    /// Enqueues `env`; `false` if the receiving endpoint is gone.
    pub(crate) fn send(&self, env: Envelope) -> bool {
        let sent = self.tx.as_ref().is_some_and(|tx| tx.send(env).is_ok());
        self.wake.bump();
        sent
    }
}

impl Drop for LinkTx {
    fn drop(&mut self) {
        // Disconnect first: the rank this wakes must find the link closed.
        self.tx = None;
        self.wake.bump();
    }
}

/// The receive half of an endpoint — the one place a rank waits for a
/// peer. Both transports feed it the same way (one `mpsc` FIFO per
/// directed link, filled by the peer's `send` in process and by a
/// reader thread over TCP) and differ only in how a message leaves.
pub(crate) struct Mailbox {
    rank: usize,
    /// `inbox[from]` — `None` until [`Self::open`], and at `from == rank`.
    inbox: Vec<Option<Receiver<Envelope>>>,
    /// The head of link `from` while its delivery instant is still in the
    /// future (injected delay); holding it keeps the link FIFO.
    held: Vec<Option<Envelope>>,
    /// Bumped by every [`LinkTx`] of this mailbox.
    wake: Arc<Wake>,
    /// How a socket transport hears of a peer's death mid-wait: the
    /// failure detector, and how often to ask it. In process a dead peer
    /// is a disconnected channel, which wakes the wait by itself.
    liveness: Option<(Arc<Health>, Duration)>,
}

/// The failure detector to ask, and how long a wait may go without asking.
fn liveness(of: &Option<(Arc<Health>, Duration)>) -> (Option<&Health>, Duration) {
    match of {
        Some((health, slice)) => (Some(health), *slice),
        None => (None, Duration::MAX),
    }
}

impl Mailbox {
    /// A mailbox of `world` links, none of them open yet.
    pub(crate) fn new(
        rank: usize,
        world: usize,
        liveness: Option<(Arc<Health>, Duration)>,
    ) -> Mailbox {
        let (inbox, held) = ((0..world).map(|_| None).collect(), (0..world).map(|_| None).collect());
        Mailbox { rank, inbox, held, wake: Arc::default(), liveness }
    }

    /// Opens the link from `from` and returns its sending half.
    pub(crate) fn open(&mut self, from: usize) -> LinkTx {
        let (tx, rx) = channel();
        self.inbox[from] = Some(rx);
        LinkTx { tx: Some(tx), wake: Arc::clone(&self.wake) }
    }

    /// The next message from `from`, waiting until `deadline` (`None`:
    /// not at all). `Ok(None)` means nothing deliverable by then.
    pub(crate) fn recv(
        &mut self,
        from: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, CommsError> {
        let ready = self.wait_any(&[from], deadline.unwrap_or_else(Instant::now))?;
        Ok(ready.and_then(|from| self.held[from].take()).map(|env| env.msg))
    }

    /// The first of `links` whose head can be delivered now, sleeping until
    /// there is one or `deadline` passes (`Ok(None)`). A head that arrives
    /// is moved to `held`, where [`Self::recv`] finds it. Links are FIFO,
    /// so when every link's head is due after `deadline` nothing can be
    /// delivered in time, and the answer is `Ok(None)` at once.
    pub(crate) fn wait_any(
        &mut self,
        links: &[usize],
        deadline: Instant,
    ) -> Result<Option<usize>, CommsError> {
        let rank = self.rank;
        loop {
            // Before the poll: a send that the poll misses moves it.
            let seen = self.wake.seq.load(Ordering::SeqCst);
            let (health, slice) = liveness(&self.liveness);
            let now = Instant::now();
            // A death verdict wakes nobody: look again every slice.
            let mut until = now.checked_add(slice).map_or(deadline, |t| t.min(deadline));
            let mut too_late = true;
            for &from in links {
                let Some(rx) = self.inbox.get(from).and_then(Option::as_ref) else {
                    return Err(CommsError::Mismatch(format!("wait on invalid rank {from}")));
                };
                if health.is_some_and(|h| h.is_dead(from)) {
                    return Err(CommsError::PeerDead { rank, peer: from });
                }
                if self.held[from].is_none() {
                    match rx.try_recv() {
                        Ok(env) => self.held[from] = Some(env),
                        Err(TryRecvError::Empty) => {
                            too_late = false;
                            continue;
                        }
                        Err(TryRecvError::Disconnected) => {
                            return Err(CommsError::Closed { rank, peer: from })
                        }
                    }
                }
                match self.held[from].as_ref().and_then(|env| env.deliver_at) {
                    Some(due) if due > now => {
                        until = until.min(due);
                        too_late &= due > deadline;
                    }
                    _ => return Ok(Some(from)),
                }
            }
            if too_late || now >= deadline {
                return Ok(None);
            }
            self.wake.park(seen, until);
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
    out: Vec<Option<LinkTx>>,
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
        static NEXT_MESH_ID: AtomicU64 = AtomicU64::new(0);
        let mesh_id = NEXT_MESH_ID.fetch_add(1, Ordering::Relaxed);
        let mut mailboxes: Vec<Mailbox> = (0..world).map(|rank| Mailbox::new(rank, world, None)).collect();
        let outs: Vec<Vec<Option<LinkTx>>> = (0..world)
            .map(|from| (0..world).map(|to| (from != to).then(|| mailboxes[to].open(from))).collect())
            .collect();
        outs.into_iter()
            .zip(mailboxes)
            .enumerate()
            .map(|(rank, (out, mailbox))| InProcTransport {
                rank,
                world,
                mesh_id,
                out,
                mailbox,
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
                tx.send(env).then_some(()).ok_or(CommsError::Closed { rank: self.rank, peer: to })
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
    /// reordering, a drain that discards what was held, a wait on a set
    /// of links that a send ends at once and nothing else ends early, and
    /// a dead peer that surfaces as an error. `mesh` builds a world of 2.
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

        // `wait_any`. Nothing to wait for is not a wait; a message sent
        // before the wait ends it at once and is there to receive.
        assert_eq!(b.wait_any(&[], within(5000)), Ok(None), "empty set");
        let t0 = Instant::now();
        assert_eq!(b.wait_any(&[0], within(20)), Ok(None), "expired deadline");
        assert!(t0.elapsed() >= Duration::from_millis(20), "nothing ends the wait early");
        assert!(matches!(b.wait_any(&[0, 1], within(10)), Err(CommsError::Mismatch(_))), "own rank");
        a.send(1, bytes(10, vec![])).unwrap();
        assert_eq!(b.wait_any(&[0], within(5000)), Ok(Some(0)));
        assert_eq!(b.wait_any(&[0], Instant::now()), Ok(Some(0)), "still there: waiting consumes nothing");
        assert_eq!(b.try_recv_from(0).unwrap().unwrap().tag.id, 10);

        // A message sent into the wait wakes it, not a poll: the waiter
        // is back well inside a scheduler tick of the send returning.
        let mut lags: Vec<Duration> = (11..16)
            .map(|id| {
                let (sent, woke) = std::thread::scope(|sc| {
                    let sender = sc.spawn(|| {
                        std::thread::sleep(Duration::from_millis(30));
                        a.send(1, bytes(id, vec![])).unwrap();
                        Instant::now()
                    });
                    assert_eq!(b.wait_any(&[0], within(5000)), Ok(Some(0)));
                    let woke = Instant::now();
                    (sender.join().unwrap(), woke)
                });
                assert_eq!(b.try_recv_from(0).unwrap().unwrap().tag.id, id);
                woke.saturating_duration_since(sent)
            })
            .collect();
        lags.sort();
        assert!(lags[2] < Duration::from_millis(2), "median wake lag of five: {lags:?}");

        // An injected delay is waited out, not skipped.
        faults.delay_link(0, 1, Duration::from_millis(40));
        let t0 = Instant::now();
        a.send(1, bytes(16, vec![])).unwrap();
        assert_eq!(b.wait_any(&[0], within(5000)), Ok(Some(0)));
        assert!(t0.elapsed() >= Duration::from_millis(40), "woke after {:?}", t0.elapsed());
        assert_eq!(b.recv_from(0, Instant::now()).unwrap().tag.id, 16, "deliverable means now");
        faults.heal_link(0, 1);

        // No wake-up is lost: a sender that waits for every message to
        // be taken before the next would hang on the first one slept through.
        let rounds = 10_000u64;
        let (ack_tx, ack_rx) = channel::<u64>();
        std::thread::scope(|sc| {
            let a = &mut a;
            sc.spawn(move || {
                for id in 0..rounds {
                    a.send(1, bytes(id, vec![])).unwrap();
                    assert_eq!(ack_rx.recv_timeout(Duration::from_secs(20)), Ok(id), "round {id} hung");
                }
            });
            for id in 0..rounds {
                assert_eq!(b.wait_any(&[0], within(20_000)), Ok(Some(0)), "round {id}");
                assert_eq!(b.try_recv_from(0).unwrap().unwrap().tag.id, id);
                ack_tx.send(id).unwrap();
            }
        });

        // A dead peer is an error, not a wait — asleep on it or not.
        let gone = [CommsError::Closed { rank: 0, peer: 1 }, CommsError::PeerDead { rank: 0, peer: 1 }];
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            sc.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                drop(b);
            });
            let err = a.wait_any(&[1], within(30_000)).unwrap_err();
            assert!(gone.contains(&err), "got {err:?}");
        });
        let err = a.recv_from(1, within(30_000)).unwrap_err();
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
