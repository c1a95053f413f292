//! The collectives: barrier, broadcast, all-gather, and the chunked
//! ring reduce-scatter and all-reduce, implemented over a [`Transport`].
//!
//! # Ring schedule
//!
//! A ring runs over a **bucket**: one or more parts, each a buffer of f16
//! values cut into `G` contiguous segments of its own
//! ([`crate::segment_bounds`]`(len, G)`). Rank `r` talks only to its ring
//! neighbours `r±1 (mod G)`, and hop `h` sends one message: every part's
//! hop-`h` segment, concatenated in part order. The receiver splits it by
//! the lengths it already knows, so a part sees exactly the hops and the
//! arithmetic it would see alone, and a one-part bucket is the ring over
//! one buffer, byte for byte.
//!
//! * **Reduce-scatter** (`G−1` hops, [`Communicator::reduce_scatter_start`]):
//!   at hop 0 rank `r` sends its own values of segment `(r−1) mod G`
//!   **as f16** — they are f16 values, so 2 B each carry them exactly. On
//!   receiving the partial for segment `(r−s−2) mod G` at hop `s` it
//!   widens (hop 0) and adds its own values exactly in f64, and forwards
//!   the f64 partial sums (hops `≥ 1`, which only exist at `G > 2`); after
//!   the last hop it owns the full exact sum of segment `r` of every part
//!   — the range `samo::state` shards each layer by — divides by `G`, and
//!   rounds once to f16. Each hop's arithmetic is one call of
//!   `tensor::simd::ring_hop_tier` per part's segment. The rest of each
//!   completed part still holds the rank's own inputs.
//! * **All-gather** (`G−1` hops, f16 payloads): contributions rotate
//!   around the ring until every rank holds all of them, a bucket's parts
//!   again one message per hop. It splits in two like a ring:
//!   [`Communicator::all_gather_f16_start`] sends hop 0 and returns, and
//!   [`Communicator::all_gather_f16_finish`] receives the rest, forwarding
//!   hops at `G > 2` — so a rank can send each gather as soon as its input
//!   exists and wait once for all of them.
//!
//! [`Communicator::allreduce_mean_f16`] is the two in a row over one part:
//! the reduce-scatter, then an all-gather of every rank's finished segment.
//!
//! | hop `s` of the reduce-scatter | payload | bytes per value |
//! |-------------------------------|---------|-----------------|
//! | `0`                           | own f16 values   | 2 |
//! | `1 ..= G−2`                   | f64 partial sums | 8 |
//!
//! Every all-gather hop carries f16 means, 2 bytes per value. Per-rank
//! wire volume is `(G−1)/G · n` elements per phase — the
//! bandwidth-optimal `2·(G−1)/G · n` total the byte-accounting formulas
//! model, and at `G = 2` exactly that many f16 bytes plus a 16 B header
//! per message, one message per bucket and phase. The f64 accumulation
//! makes the sum *exact*, hence order-free, hence bitwise equal to
//! [`crate::reference`] no matter how threads interleave, which width a
//! hop travelled at or which bucket a part rode in (see the crate docs
//! for the argument).
//!
//! # Overlap
//!
//! Rings are asynchronous: [`Communicator::reduce_scatter_start`] posts the first
//! hop and returns, [`Communicator::ring_pump`] makes progress without
//! blocking (called between gradient buckets while backward still
//! runs), and [`Communicator::ring_finish`] blocks until every ring
//! completes. Several rings may be in flight at once; messages are
//! self-describing (tagged with a collective id every rank assigns in
//! the same program order), and early arrivals — a fast neighbour
//! already working on the next bucket or the next step — are stashed
//! until this rank catches up, never misrouted.

use crate::transport::{Endpoint, Kind, Message, Payload, Tag, Transport};
use crate::{ring_allreduce_model_bytes, segment_bounds, CommsError};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use telemetry::clock::now_us;
use telemetry::json::Json;
use telemetry::ledger::{Ledger, Phase};
use telemetry::trace::{self, lane};
use tensor::f16::F16;
use tensor::simd::{self, HopIn, HopOut};

/// Default per-collective deadline. Generous for healthy in-process
/// meshes; tests with injected faults shrink it.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Most early arrivals a rank keeps for collectives it has not reached.
/// A healthy neighbour runs at most one step ahead — one first hop per
/// gradient bucket, the verdict flag, one hop 0 per started parameter
/// bucket gather, a pipeline's microbatches — so a stash
/// this deep is a peer off the message schedule, and is refused
/// ([`CommsError::Mismatch`]) instead of grown.
const STASH_CAP: usize = 4096;

/// One in-flight chunked ring reduce-scatter over a bucket.
struct RingState {
    id: u64,
    /// The bucket's parts, input values; this rank's own segment of each
    /// is overwritten with the mean.
    parts: Vec<Vec<F16>>,
    /// Per part, its `G` contiguous segment bounds.
    segs: Vec<Vec<(usize, usize)>>,
    /// Incoming hops processed so far (of `G−1`); doubles as the next
    /// expected message `step`, since per-link FIFO order makes hops of
    /// one ring arrive in schedule order.
    hops_done: u32,
}

/// An all-gather whose hop 0 is on the wire
/// ([`Communicator::all_gather_f16_start`]), until
/// [`Communicator::all_gather_f16_finish`] completes it. It holds no
/// values: the contribution went out with hop 0.
#[must_use = "peers forward this gather's hops only when it is finished"]
#[derive(Debug)]
pub struct PendingGather {
    /// Hop 0's tag; the later hops differ only by `step`.
    tag: Tag,
    /// Per part, every rank's contribution length.
    counts: Vec<Vec<usize>>,
}

/// A started [`Communicator::all_true`]: the flag gather and this
/// rank's own flag, which its hop 0 carried away.
#[must_use = "peers forward this gather's hops only when it is finished"]
#[derive(Debug)]
pub struct PendingAllTrue {
    gather: PendingGather,
    mine: bool,
}

/// A rank's collective interface over its [`Endpoint`]. (`T` is only
/// ever the endpoint; the parameter stays because the frozen benchmark
/// writes it.)
pub struct Communicator<T: Transport = Endpoint> {
    t: T,
    epoch: u32,
    next_id: u64,
    timeout: Duration,
    poisoned: bool,
    /// Early arrivals keyed by `(source, tag)`: traffic for collectives
    /// this rank has not reached yet.
    stash: HashMap<(usize, Tag), Message>,
    rings: Vec<RingState>,
    completed: Vec<(u64, Vec<Vec<F16>>)>,
    model_allreduce_bytes: u64,
    /// Trace `tid` this rank's comms slices/flows land on. Defaults to
    /// the transport rank; runtimes that own several meshes per OS
    /// thread (the pipeline's pipe + data communicators) override it so
    /// one thread's traffic shares one Perfetto lane.
    trace_lane: u64,
}

impl<T: Transport> Communicator<T> {
    pub fn new(t: T) -> Communicator<T> {
        let trace_lane = t.rank() as u64;
        Communicator {
            t,
            epoch: 0,
            next_id: 0,
            timeout: DEFAULT_TIMEOUT,
            poisoned: false,
            stash: HashMap::new(),
            rings: Vec::new(),
            completed: Vec::new(),
            model_allreduce_bytes: 0,
            trace_lane,
        }
    }

    /// Sets the per-collective deadline (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> Communicator<T> {
        self.timeout = timeout;
        self
    }

    /// Sets the Perfetto lane (`tid` on the `COMMS` pid) this communicator's
    /// trace events render on (builder style). See `trace_lane`.
    pub fn with_trace_lane(mut self, lane: u64) -> Communicator<T> {
        self.trace_lane = lane;
        self
    }

    /// The trace lane this communicator records on.
    pub fn trace_lane(&self) -> u64 {
        self.trace_lane
    }

    /// The per-collective deadline duration.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    pub fn rank(&self) -> usize {
        self.t.rank()
    }

    pub fn world(&self) -> usize {
        self.t.world()
    }

    /// The underlying endpoint (byte counters etc.).
    pub fn transport(&self) -> &T {
        &self.t
    }

    /// Modeled f16 ring volume of every reduction issued so far
    /// (`2·(G−1)/G · n · 2B` each) — the paper's Eq. 9 accounting. A
    /// reduce-scatter-only ring is charged the same: the parameter
    /// all-gather that completes a sharded step moves the other half.
    pub fn model_allreduce_bytes(&self) -> u64 {
        self.model_allreduce_bytes
    }

    /// Current recovery epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    fn prev(&self) -> usize {
        let g = self.world();
        (self.rank() + g - 1) % g
    }

    fn next(&self) -> usize {
        (self.rank() + 1) % self.world()
    }

    fn deadline(&self) -> Instant {
        Instant::now() + self.timeout
    }

    /// The poison guard every fallible collective runs under: refuses
    /// while poisoned, poisons on any error (see [`Self::bump_epoch`]).
    fn guarded<R>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<R, CommsError>,
    ) -> Result<R, CommsError> {
        if self.poisoned {
            return Err(CommsError::Poisoned);
        }
        let res = op(self);
        self.poisoned |= res.is_err();
        res
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn tag(&self, kind: Kind, id: u64, step: u32) -> Tag {
        Tag { epoch: self.epoch, kind, id, step }
    }

    /// Deterministic flow-event id for one message: FNV-1a over
    /// `(mesh, tag, sender)`. Both endpoints compute the same id with
    /// no negotiation; the mesh id keeps identical tags on different
    /// meshes (pipeline pipe vs. data groups) from colliding in a
    /// merged trace.
    fn flow_id(&self, tag: &Tag, from: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in [
            self.t.mesh_id(),
            u64::from(tag.epoch),
            tag.kind as u64,
            tag.id,
            u64::from(tag.step),
            from as u64,
        ] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Sends with tracing: a `send` slice on this rank's lane encloses
    /// a flow-start arrow keyed by the message tag, which the matching
    /// consumption site closes with a flow-finish.
    fn send_traced(&mut self, to: usize, msg: Message) -> Result<(), CommsError> {
        if !telemetry::enabled() {
            return self.t.send(to, msg);
        }
        let fid = self.flow_id(&msg.tag, self.rank());
        let name = flow_name(&msg.tag);
        let t0 = now_us();
        let res = self.t.send(to, msg);
        let t1 = now_us();
        trace::slice(lane::COMMS, self.trace_lane, "comms", t0, t1 - t0, || {
            (format!("send {name}"), vec![("to".to_string(), Json::from(to))])
        });
        trace::flow(lane::COMMS, self.trace_lane, "msg", t0, fid, true, || name);
        res
    }

    /// Records a blocking window `t0..t1` spent waiting on `from` as a
    /// `wait` slice (so the analyzer can split each step into compute /
    /// comm / wait / idle), flagged when it ended in a timeout.
    pub fn wait_slice(
        &self,
        t0: f64,
        t1: f64,
        from: usize,
        timed_out: bool,
        name: impl FnOnce() -> String,
    ) {
        trace::slice(lane::COMMS, self.trace_lane, "wait", t0, t1 - t0, || {
            let mut args = vec![("from".to_string(), Json::from(from))];
            if timed_out {
                args.push(("timed_out".to_string(), Json::Bool(true)));
            }
            (name(), args)
        });
    }

    /// Records the flow-finish for a message consumed at `ts_us`.
    fn flow_consumed(&self, tag: &Tag, from: usize, ts_us: f64) {
        let id = self.flow_id(tag, from);
        trace::flow(lane::COMMS, self.trace_lane, "msg", ts_us, id, false, || flow_name(tag));
    }

    /// After any collective error the communicator refuses further work
    /// ([`CommsError::Poisoned`]) until this runs: stale in-flight
    /// traffic is filtered out by the epoch bump (messages from the new
    /// epoch that already arrived are kept), in-flight rings are
    /// abandoned, and the collective-id counter restarts. Every rank of
    /// the group must bump together (same count of bumps) or tags stop
    /// agreeing.
    pub fn bump_epoch(&mut self) {
        self.set_epoch(self.epoch + 1);
    }

    /// Adopts an externally agreed epoch — the rendezvous/bootstrap
    /// path, where the host hands every (re)joining rank
    /// `max(reported epochs) + 1` so a worker rejoining with a stale
    /// epoch is drained and re-synced instead of aliasing old traffic.
    /// Epochs never move backwards; adopting the current epoch still
    /// drains, exactly like [`Self::bump_epoch`].
    pub fn adopt_epoch(&mut self, epoch: u32) {
        self.set_epoch(self.epoch.max(epoch));
    }

    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.next_id = 0;
        self.poisoned = false;
        self.rings.clear();
        self.completed.clear();
        let epoch = self.epoch;
        self.stash.retain(|(_, tag), _| tag.epoch >= epoch);
        for from in 0..self.world() {
            if from == self.rank() {
                continue;
            }
            // Past the cap a flood is dropped here; the collective that
            // meets the rest of it reports the mismatch.
            while let Ok(Some(msg)) = self.t.try_recv_from(from) {
                let _ = self.stash_early(from, msg);
            }
        }
    }

    /// Keeps an early arrival — traffic for a collective this rank has
    /// not reached — until it is asked for; stale-epoch traffic is
    /// discarded, and a stash already [`STASH_CAP`] deep is an error.
    fn stash_early(&mut self, from: usize, msg: Message) -> Result<(), CommsError> {
        if msg.tag.epoch < self.epoch {
            return Ok(());
        }
        if self.stash.len() >= STASH_CAP {
            return Err(CommsError::Mismatch(format!(
                "rank {}: {STASH_CAP} early arrivals stashed and {} from rank {from} still \
                 matches nothing asked for — ranks disagree about the message schedule",
                self.rank(),
                flow_name(&msg.tag)
            )));
        }
        self.stash.insert((from, msg.tag), msg);
        Ok(())
    }

    /// The one tag-matching receive: takes `want` out of the stash, or
    /// receives from `from` — until `deadline`, or with `None` only what
    /// has already arrived (`Ok(None)` when that runs out) — stashing
    /// everything else.
    ///
    /// With telemetry enabled a blocking window is recorded as a `wait`
    /// slice (timeouts included — a killed peer's stall is visible in
    /// the trace) and the matched message closes its causal flow arrow.
    fn recv_tagged(
        &mut self,
        from: usize,
        want: Tag,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, CommsError> {
        let tel = telemetry::enabled();
        if let Some(m) = self.stash.remove(&(from, want)) {
            if tel {
                self.flow_consumed(&want, from, now_us());
            }
            return Ok(Some(m));
        }
        let t0 = tel.then(now_us);
        let res = loop {
            let next = match deadline {
                Some(deadline) => self.t.recv_from(from, deadline).map(Some),
                None => self.t.try_recv_from(from),
            };
            match next {
                Ok(Some(msg)) if msg.tag == want => break Ok(Some(msg)),
                Ok(Some(msg)) => {
                    if let Err(e) = self.stash_early(from, msg) {
                        break Err(e);
                    }
                }
                Ok(None) => break Ok(None),
                Err(e) => break Err(e),
            }
        };
        if let Some(t0) = t0 {
            let t1 = now_us();
            if deadline.is_some() {
                self.wait_slice(t0, t1, from, res.is_err(), || format!("recv {}", flow_name(&want)));
            }
            if matches!(res, Ok(Some(_))) {
                self.flow_consumed(&want, from, t1);
            }
        }
        res
    }

    /// [`Self::recv_tagged`], blocking until `deadline`.
    fn recv_match(
        &mut self,
        from: usize,
        want: Tag,
        deadline: Instant,
    ) -> Result<Message, CommsError> {
        let timeout = CommsError::Timeout { rank: self.rank(), from };
        self.recv_tagged(from, want, Some(deadline))?.ok_or(timeout)
    }

    // --- Barrier ------------------------------------------------------

    /// Dissemination barrier: `⌈log₂ G⌉` rounds, in round `k` rank `r`
    /// signals `r + 2ᵏ` and waits on `r − 2ᵏ`. Returns only after every
    /// rank has entered the barrier.
    pub fn barrier(&mut self) -> Result<(), CommsError> {
        self.guarded(|c| {
            let g = c.world();
            if g == 1 {
                return Ok(());
            }
            let id = c.fresh_id();
            let deadline = c.deadline();
            let r = c.rank();
            let mut k = 1usize;
            let mut round = 0u32;
            while k < g {
                let to = (r + k) % g;
                let from = (r + g - k) % g;
                let tag = c.tag(Kind::Barrier, id, round);
                c.send_traced(to, Message { tag, payload: Payload::Bytes(Vec::new()) })?;
                c.recv_match(from, tag, deadline)?;
                k *= 2;
                round += 1;
            }
            Ok(())
        })
    }

    // --- Broadcast ----------------------------------------------------

    /// Broadcasts `root`'s bytes to every rank along the ring chain;
    /// non-root inputs are replaced.
    pub fn broadcast_bytes(&mut self, root: usize, data: &mut Vec<u8>) -> Result<(), CommsError> {
        self.guarded(|c| {
            let g = c.world();
            if root >= g {
                return Err(CommsError::Mismatch(format!("broadcast root {root} out of range")));
            }
            let id = c.fresh_id();
            if g == 1 {
                return Ok(());
            }
            let deadline = c.deadline();
            let pos = ((c.rank() + g - root) % g) as u32; // position along the chain
            let tag = c.tag(Kind::Broadcast, id, pos);
            if pos > 0 {
                let msg = c.recv_match(c.prev(), Tag { step: pos - 1, ..tag }, deadline)?;
                let Payload::Bytes(bytes) = msg.payload else {
                    return Err(CommsError::Mismatch("broadcast expects byte payloads".into()));
                };
                *data = bytes;
            }
            if (pos as usize) < g - 1 {
                c.send_traced(c.next(), Message { tag, payload: Payload::Bytes(data.clone()) })?;
            }
            Ok(())
        })
    }

    // --- All-gather ---------------------------------------------------

    /// Ring all-gather: rank `r` contributes `mine` (whose length must
    /// equal `counts[r]`); returns the concatenation of every rank's
    /// contribution in rank order. The one-part case of
    /// [`Self::all_gather_f16_start`] followed by
    /// [`Self::all_gather_f16_finish`], with `mine` put in its place.
    pub fn all_gather_f16(
        &mut self,
        mine: &[F16],
        counts: &[usize],
    ) -> Result<Vec<F16>, CommsError> {
        self.all_gather(mine, counts, Payload::F16, f16_payload)
    }

    /// The first half of a bucket all-gather: checks the layout — part `p`
    /// contributes `mine[p]`, `counts[p][rank]` long, of `counts[p]` per
    /// rank — takes the collective id and sends hop 0, every part's
    /// contribution in one message (a single part moved into it, not
    /// copied), and returns without waiting. Finish started gathers in the
    /// order they were started, like every rank does; other collectives
    /// may run in between. A group of one sends nothing and takes no id.
    pub fn all_gather_f16_start(
        &mut self,
        mine: Vec<Vec<F16>>,
        counts: &[Vec<usize>],
    ) -> Result<PendingGather, CommsError> {
        self.gather_start(mine, counts, Payload::F16)
    }

    /// The second half of a bucket all-gather: receives the other ranks'
    /// contributions — forwarding each hop the ring still needs at `G > 2`
    /// — into one fresh buffer per part in rank order, and returns them.
    /// The rank's own ranges are left zero: its values went out in hop 0,
    /// and the caller has them. A cut link fails here, with
    /// [`CommsError::Timeout`] at the deadline; a hop whose length is not
    /// the parts' segment sum, with [`CommsError::Mismatch`].
    pub fn all_gather_f16_finish(&mut self, started: PendingGather) -> Result<Vec<Vec<F16>>, CommsError> {
        self.gather_finish(started, Payload::F16, f16_payload)
    }

    /// Ring all-gather of **f32** segments — the f32 twin of
    /// [`Self::all_gather_f16`]. Used by the dynamic-sparsity remap path
    /// to reassemble full-precision shard state (`θ32`/moments) on every
    /// rank before the masks move; gradients keep using the f16 gather.
    pub fn all_gather_f32(
        &mut self,
        mine: &[f32],
        counts: &[usize],
    ) -> Result<Vec<f32>, CommsError> {
        self.all_gather(mine, counts, Payload::F32, |p| match p {
            Payload::F32(v) => Some(v),
            _ => None,
        })
    }

    /// The one blocking ring all-gather, over one part: start, finish, and
    /// the rank's own contribution copied into its range. `wrap`/`unwrap`
    /// name the [`Payload`] variant that carries `E` on the wire.
    fn all_gather<E: Copy + Default>(
        &mut self,
        mine: &[E],
        counts: &[usize],
        wrap: fn(Vec<E>) -> Payload,
        unwrap: fn(Payload) -> Option<Vec<E>>,
    ) -> Result<Vec<E>, CommsError> {
        let started = self.gather_start(vec![mine.to_vec()], &[counts.to_vec()], wrap)?;
        let lo: usize = counts[..self.rank()].iter().sum();
        let mut out = self.gather_finish(started, wrap, unwrap)?.swap_remove(0);
        out[lo..lo + mine.len()].copy_from_slice(mine);
        Ok(out)
    }

    /// Hop 0 of a ring all-gather: at hop `s` rank `r` sends segment
    /// `(r−s) mod G` of every part to its successor — its own at hop 0, the
    /// one it received at hop `s−1` after that — and receives segment
    /// `(r−s−1) mod G` from its predecessor.
    fn gather_start<E: Copy>(
        &mut self,
        mut mine: Vec<Vec<E>>,
        counts: &[Vec<usize>],
        wrap: fn(Vec<E>) -> Payload,
    ) -> Result<PendingGather, CommsError> {
        self.guarded(|c| {
            let (g, r) = (c.world(), c.rank());
            if mine.len() != counts.len() {
                return Err(CommsError::Mismatch(format!(
                    "all_gather has {} parts and {} count lists",
                    mine.len(),
                    counts.len()
                )));
            }
            for (p, (part, counts)) in mine.iter().zip(counts).enumerate() {
                if counts.len() != g {
                    return Err(CommsError::Mismatch(format!(
                        "all_gather part {p}: counts has {} entries for world {g}",
                        counts.len()
                    )));
                }
                if part.len() != counts[r] {
                    return Err(CommsError::Mismatch(format!(
                        "all_gather part {p}: rank {r} contributes {} elements, counts says {}",
                        part.len(),
                        counts[r]
                    )));
                }
            }
            let id = if g == 1 { 0 } else { c.fresh_id() };
            let tag = c.tag(Kind::AllGather, id, 0);
            if g > 1 {
                let hop0 = if mine.len() == 1 { mine.swap_remove(0) } else { mine.concat() };
                c.send_traced(c.next(), Message { tag, payload: wrap(hop0) })?;
            }
            Ok(PendingGather { tag, counts: counts.to_vec() })
        })
    }

    /// Hops `0..G−1` of a started all-gather's receive side, forwarding
    /// hops `1..G−2` on as they came.
    fn gather_finish<E: Copy + Default>(
        &mut self,
        started: PendingGather,
        wrap: fn(Vec<E>) -> Payload,
        unwrap: fn(Payload) -> Option<Vec<E>>,
    ) -> Result<Vec<Vec<E>>, CommsError> {
        self.guarded(|c| {
            let (g, r) = (c.world(), c.rank());
            let PendingGather { tag, counts } = started;
            let mut out: Vec<Vec<E>> = counts.iter().map(|n| vec![E::default(); n.iter().sum()]).collect();
            if g == 1 {
                return Ok(out);
            }
            let deadline = c.deadline();
            for s in 0..g - 1 {
                let recv_seg = (r + g - s - 1) % g;
                let msg = c.recv_match(c.prev(), Tag { step: s as u32, ..tag }, deadline)?;
                let Some(vals) = unwrap(msg.payload) else {
                    return Err(CommsError::Mismatch(format!(
                        "all_gather expects {} payloads",
                        std::any::type_name::<E>()
                    )));
                };
                let want: usize = counts.iter().map(|n| n[recv_seg]).sum();
                if vals.len() != want {
                    return Err(CommsError::Mismatch(format!(
                        "all_gather segment {recv_seg}: got {} elements, want {want}",
                        vals.len()
                    )));
                }
                let mut rest = &vals[..];
                for (out, n) in out.iter_mut().zip(&counts) {
                    let lo: usize = n[..recv_seg].iter().sum();
                    let (seg, tail) = rest.split_at(n[recv_seg]);
                    out[lo..lo + seg.len()].copy_from_slice(seg);
                    rest = tail;
                }
                if s + 2 < g {
                    let tag = Tag { step: s as u32 + 1, ..tag };
                    c.send_traced(c.next(), Message { tag, payload: wrap(vals) })?;
                }
            }
            Ok(out)
        })
    }

    /// Whether `mine` holds on every rank: a one-element
    /// [`Self::all_gather_f16`] of flags, and their AND (a group of one
    /// sends nothing). How the trainers agree on an overflow verdict.
    /// [`Self::all_true_start`] followed by [`Self::all_true_finish`].
    pub fn all_true(&mut self, mine: bool) -> Result<bool, CommsError> {
        let started = self.all_true_start(mine)?;
        self.all_true_finish(started)
    }

    /// Sends this rank's flag (a one-part gather start) and returns
    /// without waiting for the others'.
    pub fn all_true_start(&mut self, mine: bool) -> Result<PendingAllTrue, CommsError> {
        let flag = F16::from_f32(f32::from(u8::from(mine)));
        let gather = self.gather_start(vec![vec![flag]], &[vec![1; self.world()]], Payload::F16)?;
        Ok(PendingAllTrue { gather, mine })
    }

    /// Collects the other ranks' flags of a started [`Self::all_true`]
    /// and returns the AND of every rank's.
    pub fn all_true_finish(&mut self, started: PendingAllTrue) -> Result<bool, CommsError> {
        let r = self.rank();
        let flags = self.gather_finish(started.gather, Payload::F16, f16_payload)?.swap_remove(0);
        Ok(started.mine && flags.iter().enumerate().all(|(i, f)| i == r || f.to_f32() == 1.0))
    }

    // --- Point-to-point (pipeline boundary traffic) -------------------

    /// Sends `data` to rank `to` as a tagged point-to-point message —
    /// the inter-layer (pipeline) primitive carrying boundary
    /// activations forward and activation-gradients backward.
    ///
    /// Unlike collectives, p2p tags are **caller-supplied**: both
    /// endpoints derive the same `(id, step)` from `(training step,
    /// microbatch, direction)` without consuming the shared collective
    /// counter, so pipeline stages that exchange different message
    /// counts still agree on every subsequent collective's id.
    pub fn send_p2p(
        &mut self,
        to: usize,
        id: u64,
        step: u32,
        data: Vec<f32>,
    ) -> Result<(), CommsError> {
        self.guarded(|c| {
            let tag = c.tag(Kind::P2p, id, step);
            c.send_traced(to, Message { tag, payload: Payload::F32(data) })
        })
    }

    /// Blocks until the p2p message tagged `(id, step)` arrives from
    /// `from`, or the communicator deadline passes (a killed stage
    /// surfaces as a bounded [`CommsError::Timeout`], never a hang).
    /// Early arrivals with other tags are stashed, never misrouted.
    // TEST-API: `trace_golden` and the p2p tests receive with it; the pipeline polls `try_recv_p2p`.
    pub fn recv_p2p(&mut self, from: usize, id: u64, step: u32) -> Result<Vec<f32>, CommsError> {
        self.guarded(|c| {
            let msg = c.recv_match(from, c.tag(Kind::P2p, id, step), c.deadline())?;
            f32_payload(msg)
        })
    }

    /// Non-blocking variant of [`Self::recv_p2p`]: returns `Ok(None)`
    /// when the wanted message has not arrived yet. The message-driven
    /// pipeline scheduler polls this to prefer backward work over
    /// forward, and sleeps in [`Self::wait_any`] when both come back empty.
    pub fn try_recv_p2p(
        &mut self,
        from: usize,
        id: u64,
        step: u32,
    ) -> Result<Option<Vec<f32>>, CommsError> {
        self.guarded(|c| {
            let msg = c.recv_tagged(from, c.tag(Kind::P2p, id, step), None)?;
            msg.map(f32_payload).transpose()
        })
    }

    /// Sleeps until a message from one of `from` can be received, or fails
    /// with [`CommsError::Timeout`] at `deadline` — what a rank with
    /// several neighbours does once polling each ([`Self::try_recv_p2p`])
    /// found nothing, since the message that ends the wait may come from
    /// any of them. Says nothing about tags: the caller polls again. With
    /// telemetry enabled the sleep is a `wait` slice named by `what`.
    pub fn wait_any(
        &mut self,
        from: &[usize],
        deadline: Instant,
        what: impl FnOnce() -> String,
    ) -> Result<(), CommsError> {
        self.guarded(|c| {
            let t0 = telemetry::enabled().then(now_us);
            let first = from.first().copied().unwrap_or(c.rank());
            let timeout = CommsError::Timeout { rank: c.rank(), from: first };
            let res = c.t.wait_any(from, deadline).and_then(|ready| ready.map(drop).ok_or(timeout));
            if let Some(t0) = t0 {
                c.wait_slice(t0, now_us(), first, res.is_err(), what);
            }
            res
        })
    }

    // --- Chunked ring reduce-scatter and all-reduce -------------------

    /// Starts an asynchronous ring **reduce-scatter** (mean) over a
    /// bucket of `parts` and returns its collective id: posts the first
    /// hop — every part's segment in one message — and returns. Drive
    /// with [`Self::ring_pump`] / [`Self::ring_finish`], collect with
    /// [`Self::take_completed`]. Each completed part holds the mean on this
    /// rank's `segment_bounds(len, G)[rank]` and the rank's own inputs
    /// elsewhere.
    pub fn reduce_scatter_start(&mut self, mut parts: Vec<Vec<F16>>) -> Result<u64, CommsError> {
        self.guarded(|c| {
            let g = c.world();
            let r = c.rank();
            let id = c.fresh_id();
            for part in &parts {
                c.model_allreduce_bytes += ring_allreduce_model_bytes(part.len() as u64, g as u64, 2);
            }
            if g == 1 {
                // Mean over one rank still goes through the hop's rounding
                // so G=1 matches the oracle bit-for-bit.
                for part in &mut parts {
                    simd::ring_hop_tier(simd::active(), HopIn::Nothing, part, HopOut::Mean(1));
                }
                c.completed.push((id, parts));
                return Ok(id);
            }
            let segs: Vec<_> = parts.iter().map(|part| segment_bounds(part.len(), g)).collect();
            let send = (r + g - 1) % g;
            let mut first = Vec::with_capacity(hop_len(&segs, send));
            for (part, segs) in parts.iter().zip(&segs) {
                let (lo, hi) = segs[send];
                first.extend_from_slice(&part[lo..hi]);
            }
            let tag = c.tag(Kind::AllReduce, id, 0);
            c.send_traced(c.next(), Message { tag, payload: Payload::F16(first) })?;
            c.rings.push(RingState { id, parts, segs, hops_done: 0 });
            // A fast neighbour may already have sent hops for this id.
            c.ring_drain_stash()?;
            Ok(id)
        })
    }

    /// Rings started and not yet complete — what [`Self::ring_pump`]
    /// would move.
    pub fn rings_in_flight(&self) -> usize {
        self.rings.len()
    }

    /// Makes progress on every in-flight ring without blocking. Call
    /// between gradient buckets to overlap communication with compute.
    pub fn ring_pump(&mut self) -> Result<(), CommsError> {
        self.guarded(|c| {
            c.ring_drain_stash()?;
            let prev = c.prev();
            while !c.rings.is_empty() {
                match c.t.try_recv_from(prev)? {
                    Some(msg) => c.handle_from_prev(msg)?,
                    None => break,
                }
            }
            Ok(())
        })
    }

    /// Blocks until every in-flight ring completes (or the deadline
    /// passes — a cut link surfaces here as `Timeout`, never a hang).
    pub fn ring_finish(&mut self) -> Result<(), CommsError> {
        self.ring_finish_charged(&mut Ledger::default())
    }

    /// [`Self::ring_finish`] with each blocking receive from the
    /// predecessor charged to [`Phase::Wait`] on `ledger`, inside whatever
    /// phase is open there: the time this rank sleeps on a slower peer is
    /// a wait, not its reduce's work.
    pub fn ring_finish_charged(&mut self, ledger: &mut Ledger) -> Result<(), CommsError> {
        self.guarded(|c| {
            let deadline = c.deadline();
            let prev = c.prev();
            c.ring_drain_stash()?;
            while !c.rings.is_empty() {
                let t0 = telemetry::enabled().then(now_us);
                ledger.enter(Phase::Wait);
                let res = c.t.recv_from(prev, deadline);
                ledger.exit(Phase::Wait);
                if let Some(t0) = t0 {
                    let t1 = now_us();
                    c.wait_slice(t0, t1, prev, res.is_err(), || "ring stall".to_string());
                }
                c.handle_from_prev(res?)?;
            }
            Ok(())
        })
    }

    /// Drains finished rings as `(id, parts)` pairs, in completion order.
    pub fn take_completed(&mut self) -> Vec<(u64, Vec<Vec<F16>>)> {
        std::mem::take(&mut self.completed)
    }

    /// Blocking ring all-reduce (mean) of one buffer in place: the
    /// reduce-scatter, then an all-gather of this rank's finished segment.
    pub fn allreduce_mean_f16(&mut self, buf: &mut [F16]) -> Result<(), CommsError> {
        let id = self.reduce_scatter_start(vec![buf.to_vec()])?;
        self.ring_finish()?;
        let Some(pos) = self.completed.iter().position(|(cid, _)| *cid == id) else {
            return Err(CommsError::Mismatch(format!("ring {id} finished without a result")));
        };
        let data = self.completed.swap_remove(pos).1.swap_remove(0);
        let segs = segment_bounds(buf.len(), self.world());
        let counts: Vec<usize> = segs.iter().map(|&(lo, hi)| hi - lo).collect();
        let (lo, hi) = segs[self.rank()];
        buf.copy_from_slice(&self.all_gather_f16(&data[lo..hi], &counts)?);
        Ok(())
    }

    /// Routes one message that arrived from the ring predecessor.
    fn handle_from_prev(&mut self, msg: Message) -> Result<(), CommsError> {
        if msg.tag.epoch == self.epoch && msg.tag.kind == Kind::AllReduce {
            if let Some(idx) = self.rings.iter().position(|ring| ring.id == msg.tag.id) {
                if msg.tag.step == self.rings[idx].hops_done {
                    self.ring_process(idx, msg)?;
                    return self.ring_drain_stash();
                }
            }
        }
        self.stash_early(self.prev(), msg)
    }

    /// Applies stashed hops to every ring that can advance (early
    /// arrivals for rings we started late, or hops pulled in while
    /// matching another collective).
    fn ring_drain_stash(&mut self) -> Result<(), CommsError> {
        let prev = self.prev();
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.rings.len() {
                let want = Tag {
                    epoch: self.epoch,
                    kind: Kind::AllReduce,
                    id: self.rings[i].id,
                    step: self.rings[i].hops_done,
                };
                if let Some(msg) = self.stash.remove(&(prev, want)) {
                    // May advance or complete ring `i`; re-examine the
                    // same index either way.
                    self.ring_process(i, msg)?;
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Executes one reduce-scatter hop: accumulate and forward, or, on
    /// the last hop, finalize this rank's segment of every part.
    fn ring_process(&mut self, idx: usize, msg: Message) -> Result<(), CommsError> {
        let g = self.world();
        let r = self.rank();
        let t0 = telemetry::enabled().then(now_us);
        let in_tag = msg.tag;
        let step = msg.tag.step as usize;
        let id = msg.tag.id;

        let outgoing;
        let done;
        let seg;
        {
            let ring = &mut self.rings[idx];
            if step != ring.hops_done as usize {
                return Err(CommsError::Mismatch(format!(
                    "ring {id}: hop {step} arrived, expected {}",
                    ring.hops_done
                )));
            }
            seg = (r + 2 * g - 2 - step) % g;
            let want = hop_len(&ring.segs, seg);
            let mismatch = |what: &str| {
                CommsError::Mismatch(format!("ring {id} segment {seg}: hop {step} expects {want} {what}"))
            };
            // This rank's values of the hop's segment, part after part: the
            // order the message carries them in.
            let own = ring.parts.iter_mut().zip(&ring.segs).map(|(part, segs)| {
                let (lo, hi) = segs[seg];
                &mut part[lo..hi]
            });
            let last = step == g - 2;
            // Hop 0 carries the sender's own f16 values, later hops f64
            // partial sums. The last hop leaves this rank the exact sum of
            // its segment, and means it; a hop that is both (G = 2) never
            // materialises the partials.
            let (first, mut partial) = match msg.payload {
                Payload::F16(first) if step == 0 && first.len() == want => {
                    (Some(first), vec![0.0; if last { 0 } else { want }])
                }
                Payload::F64(partial) if step > 0 && partial.len() == want => (None, partial),
                _ if step == 0 => return Err(mismatch("f16 values")),
                _ => return Err(mismatch("f64 partial sums")),
            };
            let mut at = 0;
            for own in own {
                let span = at..at + own.len();
                at = span.end;
                let (input, out) = match (&first, last) {
                    (Some(first), true) => (HopIn::Halves(&first[span]), HopOut::Mean(g)),
                    (Some(first), false) => (HopIn::Halves(&first[span.clone()]), HopOut::Store(&mut partial[span])),
                    (None, true) => (HopIn::Sums(&partial[span]), HopOut::Mean(g)),
                    (None, false) => (HopIn::Nothing, HopOut::Add(&mut partial[span])),
                };
                simd::ring_hop_tier(simd::active(), input, own, out);
            }
            outgoing = (!last).then(|| (step as u32 + 1, Payload::F64(partial)));
            ring.hops_done += 1;
            done = last;
        }
        if let Some((s, payload)) = outgoing {
            let (tag, next) = (self.tag(Kind::AllReduce, id, s), self.next());
            self.send_traced(next, Message { tag, payload })?;
        }
        if done {
            let ring = self.rings.swap_remove(idx);
            self.completed.push((ring.id, ring.parts));
        }
        if let Some(t0) = t0 {
            trace::slice(lane::COMMS, self.trace_lane, "comms", t0, now_us() - t0, || {
                let args = vec![("step".to_string(), Json::from(step))];
                (format!("ring{id} rs seg{seg}"), args)
            });
            // Close the incoming hop's causal arrow inside the hop
            // slice (the forward send above opened the next one).
            self.flow_consumed(&in_tag, self.prev(), t0);
        }
        Ok(())
    }
}

/// Length of a bucket's hop over segment `seg`: every part's, summed.
fn hop_len(segs: &[Vec<(usize, usize)>], seg: usize) -> usize {
    segs.iter().map(|s| s[seg].1 - s[seg].0).sum()
}

fn f16_payload(p: Payload) -> Option<Vec<F16>> {
    match p {
        Payload::F16(v) => Some(v),
        _ => None,
    }
}

fn f32_payload(msg: Message) -> Result<Vec<f32>, CommsError> {
    match msg.payload {
        Payload::F32(v) => Ok(v),
        _ => Err(CommsError::Mismatch("p2p expects f32 payloads".into())),
    }
}

/// Human-readable flow/slice label for a message tag. Flow pairs match
/// on `cat` + `id`; the name is what Perfetto shows on the arrow.
fn flow_name(tag: &Tag) -> String {
    let kind = match tag.kind {
        Kind::AllReduce => "ar",
        Kind::AllGather => "ag",
        Kind::Broadcast => "bc",
        Kind::Barrier => "bar",
        Kind::P2p => "p2p",
        Kind::Telemetry => "tel",
        Kind::Heartbeat => "hb",
    };
    format!("{kind} {}:{}", tag.id, tag.step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultController;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Runs `f(communicator, rank)` on one OS thread per rank and
    /// returns the results in rank order.
    fn run_ranks<R: Send>(
        world: usize,
        faults: Arc<FaultController>,
        timeout: Duration,
        f: impl Fn(&mut Communicator, usize) -> R + Sync,
    ) -> Vec<R> {
        let mesh = Endpoint::mesh_with_faults(world, faults);
        std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .enumerate()
                .map(|(rank, t)| {
                    let f = &f;
                    s.spawn(move || {
                        let mut comm = Communicator::new(t).with_timeout(timeout);
                        f(&mut comm, rank)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    fn vals(seed: u64, n: usize) -> Vec<F16> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                F16::from_f32(((s >> 40) as f32) / (1 << 22) as f32 - 2.0)
            })
            .collect()
    }

    fn oracle(world: usize, n: usize, seed: u64) -> Vec<F16> {
        let mut copies: Vec<Vec<F16>> = (0..world).map(|r| vals(seed + r as u64, n)).collect();
        let mut bufs: Vec<&mut [F16]> = copies.iter_mut().map(|c| c.as_mut_slice()).collect();
        crate::reference::allreduce_mean_f16(&mut bufs).unwrap();
        copies.pop().unwrap()
    }

    #[test]
    fn barrier_orders_a_shared_counter() {
        let entered = AtomicUsize::new(0);
        run_ranks(4, Arc::default(), DEFAULT_TIMEOUT, |comm, _| {
            entered.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must see all 4 entries.
            assert_eq!(entered.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn broadcast_delivers_roots_bytes() {
        let got = run_ranks(3, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            let mut bytes = if rank == 1 { vec![7u8, 8, 9] } else { vec![0; rank] };
            comm.broadcast_bytes(1, &mut bytes).unwrap();
            bytes
        });
        for bytes in got {
            assert_eq!(bytes, vec![7, 8, 9]);
        }
    }

    #[test]
    fn a_flood_of_foreign_tags_is_refused_at_the_stash_cap() {
        // Rank 0 is off the schedule: it sends tags nobody will ask for.
        // Rank 1 keeps at most STASH_CAP of them, then fails the
        // collective that met the flood with a typed error — and a bump
        // (which drops what the dead epoch stashed) makes it usable.
        let flooded = std::sync::Barrier::new(2);
        let got = run_ranks(2, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            if rank == 0 {
                for id in 0..STASH_CAP as u64 + 8 {
                    comm.send_p2p(1, 1_000_000 + id, 0, Vec::new()).unwrap();
                }
                flooded.wait();
                comm.bump_epoch();
                comm.send_p2p(1, 5, 0, vec![2.5]).unwrap();
                (None, 0, None)
            } else {
                flooded.wait();
                let refused = comm.recv_p2p(0, 5, 0).unwrap_err();
                let held = comm.stash.len();
                assert_eq!(comm.try_recv_p2p(0, 5, 0), Err(CommsError::Poisoned));
                comm.bump_epoch();
                let epoch = comm.epoch();
                assert!(comm.stash.keys().all(|(_, tag)| tag.epoch == epoch), "the flood is gone");
                (Some(refused), held, Some(comm.recv_p2p(0, 5, 0)))
            }
        });
        let (refused, held, after) = &got[1];
        assert!(matches!(refused, Some(CommsError::Mismatch(_))), "got {refused:?}");
        assert_eq!(*held, STASH_CAP);
        assert_eq!(after, &Some(Ok(vec![2.5])));
    }

    #[test]
    fn all_gather_assembles_uneven_contributions() {
        let counts = [3usize, 0, 5, 2];
        let per_rank: Vec<Vec<F16>> =
            (0..4).map(|r| vals(100 + r as u64, counts[r as usize])).collect();
        let want: Vec<F16> = per_rank.iter().flatten().copied().collect();
        let got = run_ranks(4, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            comm.all_gather_f16(&per_rank[rank], &counts).unwrap()
        });
        for g in got {
            assert_eq!(g, want);
        }
    }

    #[test]
    fn all_gather_f32_assembles_uneven_contributions() {
        let counts = [3usize, 0, 5, 2];
        let per_rank: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..counts[r]).map(|i| (r * 100 + i) as f32 * 0.5 + 0.25).collect())
            .collect();
        let want: Vec<f32> = per_rank.iter().flatten().copied().collect();
        let got = run_ranks(4, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            comm.all_gather_f32(&per_rank[rank], &counts).unwrap()
        });
        for g in got {
            assert_eq!(g, want);
        }
    }

    #[test]
    fn started_gathers_finish_to_what_blocking_gathers_return() {
        // A sharded step's epilogue: every gather started, then every one
        // finished in order. Same bits, same messages and bytes, the same
        // ids consumed — the barrier after it still matches — as the
        // blocking calls one by one; a group of one takes no id at all.
        // One bucket of all the parts keeps the bits and sends one message
        // per hop instead of one per part and hop.
        let counts_of = |world: usize, n: usize| -> Vec<usize> {
            (0..world).map(|r| crate::segment(n, r, world)).map(|(lo, hi)| hi - lo).collect()
        };
        let sizes = [13usize, 1, 0, 40, 7];
        for world in 1..=4usize {
            // 0: blocking, 1: started one part each, 2: one bucket.
            let run = |mode: usize| {
                run_ranks(world, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
                    let mine = |b: usize| {
                        let counts = counts_of(world, sizes[b]);
                        (vals(300 + 10 * b as u64 + rank as u64, counts[rank]), counts)
                    };
                    let (parts, counts): (Vec<_>, Vec<_>) = (0..sizes.len()).map(mine).unzip();
                    let lo = |b: usize| counts[b][..rank].iter().sum::<usize>();
                    // The own range comes back zero: the values are the rank's own.
                    let fill = |b: usize, mut full: Vec<F16>| {
                        let own = &mut full[lo(b)..lo(b) + parts[b].len()];
                        assert!(own.iter().all(|x| x.0 == 0), "own range left zero");
                        own.copy_from_slice(&parts[b]);
                        full
                    };
                    let out: Vec<Vec<F16>> = match mode {
                        0 => (0..sizes.len()).map(|b| comm.all_gather_f16(&parts[b], &counts[b]).unwrap()).collect(),
                        1 => {
                            let started: Vec<_> = (0..sizes.len())
                                .map(|b| comm.all_gather_f16_start(vec![parts[b].clone()], &counts[b..=b]).unwrap())
                                .collect();
                            let finished = started.into_iter().map(|g| comm.all_gather_f16_finish(g).unwrap());
                            finished.enumerate().map(|(b, mut full)| fill(b, full.swap_remove(0))).collect()
                        }
                        _ => {
                            let started = comm.all_gather_f16_start(parts.clone(), &counts).unwrap();
                            let full = comm.all_gather_f16_finish(started).unwrap();
                            full.into_iter().enumerate().map(|(b, full)| fill(b, full)).collect()
                        }
                    };
                    let ids = comm.next_id;
                    comm.barrier().unwrap();
                    let t = comm.transport();
                    (out, ids, t.msgs_sent(), t.bytes_sent())
                })
            };
            let (blocking, started, bucket) = (run(0), run(1), run(2));
            assert_eq!(started, blocking, "world {world}");
            let ids = if world == 1 { 0 } else { sizes.len() as u64 };
            assert!(started.iter().all(|r| r.1 == ids), "world {world}: ids consumed");
            let hops = (world - 1) as u64;
            let headers = (sizes.len() as u64 - 1) * hops * crate::Payload::HEADER_BYTES;
            for (b, s) in bucket.iter().zip(&started) {
                assert_eq!(b.0, s.0, "world {world}: bucket bits");
                assert_eq!(b.1, u64::from(world > 1), "world {world}: one id");
                assert_eq!(b.2 + (sizes.len() as u64 - 1) * hops, s.2, "world {world}: one message a hop");
                assert_eq!(b.3 + headers, s.3, "world {world}: the same bytes but the headers");
            }
        }
    }

    #[test]
    fn a_started_gather_on_a_cut_link_times_out_in_finish_and_poisons() {
        let faults = Arc::new(FaultController::new());
        faults.cut_link(0, 1);
        let timeout = Duration::from_millis(150);
        // No endpoint is dropped before every rank's finish returned.
        let finished_all = std::sync::Barrier::new(3);
        let got = run_ranks(3, faults, timeout, |comm, rank| {
            let started = comm.all_gather_f16_start(vec![vals(rank as u64, 4)], &[vec![4, 4, 4]]);
            let t0 = Instant::now();
            let finished = comm.all_gather_f16_finish(started.unwrap());
            let waited = t0.elapsed();
            finished_all.wait();
            (finished.map(drop), waited, comm.barrier())
        });
        // Rank 1 never hears from rank 0; rank 2 then misses rank 1's
        // forward of it.
        for (rank, (finished, waited, after)) in got.into_iter().enumerate().skip(1) {
            assert_eq!(finished, Err(CommsError::Timeout { rank, from: rank - 1 }));
            assert!(waited < timeout + Duration::from_secs(1), "rank {rank} waited {waited:?}");
            assert_eq!(after, Err(CommsError::Poisoned), "rank {rank}");
        }
    }

    #[test]
    fn all_true_is_the_and_over_ranks() {
        for world in 1..=4usize {
            for liar in [None, Some(world - 1)] {
                let got = run_ranks(world, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
                    let verdict = comm.all_true(Some(rank) != liar).unwrap();
                    (verdict, comm.transport().msgs_sent())
                });
                for (verdict, msgs) in got {
                    assert_eq!(verdict, liar.is_none(), "world {world} liar {liar:?}");
                    assert_eq!(msgs, world as u64 - 1, "one ring lap of one-element flags");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_matches_oracle_across_world_sizes() {
        // Sizes straddle the divisible/remainder boundary; world 1 hits
        // the degenerate path.
        for world in 1..=5usize {
            for n in [0usize, 1, 7, 64, 65] {
                let want = oracle(world, n, 7000);
                let got = run_ranks(world, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
                    let mut buf = vals(7000 + rank as u64, n);
                    comm.allreduce_mean_f16(&mut buf).unwrap();
                    buf
                });
                for (r, g) in got.iter().enumerate() {
                    assert_eq!(g, &want, "world {world} n {n} rank {r}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_is_timing_independent() {
        // Jittered links perturb thread interleaving; the result must
        // not move by a single bit.
        let want = oracle(4, 131, 42);
        for trial in 0..3u64 {
            let faults = Arc::new(FaultController::new());
            for link in 0..4usize {
                faults.jitter_link(
                    link,
                    (link + 1) % 4,
                    trial * 97 + link as u64,
                    summit_sim::StragglerModel { prob: 0.4, slowdown: 3.0 },
                    Duration::from_micros(300),
                );
            }
            let got = run_ranks(4, faults, DEFAULT_TIMEOUT, |comm, rank| {
                let mut buf = vals(42 + rank as u64, 131);
                comm.allreduce_mean_f16(&mut buf).unwrap();
                buf
            });
            for g in got {
                assert_eq!(g, want, "trial {trial}");
            }
        }
    }

    #[test]
    fn pipelined_rings_complete_out_of_lockstep() {
        // Three buckets in flight at once, finished together; results
        // must match per-bucket oracles.
        let sizes = [33usize, 8, 50];
        let wants: Vec<Vec<F16>> =
            (0..3).map(|b| oracle(3, sizes[b], 500 + 10 * b as u64)).collect();
        let got = run_ranks(3, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            let mut ids = Vec::new();
            for (b, &n) in sizes.iter().enumerate() {
                ids.push(comm.reduce_scatter_start(vec![vals(500 + 10 * b as u64 + rank as u64, n)]).unwrap());
                comm.ring_pump().unwrap();
            }
            comm.ring_finish().unwrap();
            let mut done = comm.take_completed();
            done.sort_by_key(|(id, _)| *id);
            (ids, done)
        });
        for (rank, (ids, done)) in got.into_iter().enumerate() {
            assert_eq!(done.len(), 3);
            for (b, (id, mut data)) in done.into_iter().enumerate() {
                assert_eq!(id, ids[b]);
                let data = data.swap_remove(0);
                let (lo, hi) = segment_bounds(sizes[b], 3)[rank];
                let mut want = vals(500 + 10 * b as u64 + rank as u64, sizes[b]);
                want[lo..hi].copy_from_slice(&wants[b][lo..hi]);
                assert_eq!(data, want, "bucket {b}, rank {rank}");
            }
        }
    }

    #[test]
    fn reduce_scatter_owns_its_segment_and_drains_early_arrivals() {
        // Ranks 1 and 2 post both first hops before rank 0 starts
        // anything, so rank 0's first pump finds, behind the first hop of
        // its one ring (which needs a second hop at G = 3), a hop for a
        // ring it has not started: it must be stashed, then applied when
        // that ring starts.
        let n = 11;
        let want = oracle(3, n, 900);
        let posted = std::sync::Barrier::new(3);
        let got = run_ranks(3, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            if rank == 0 {
                posted.wait();
            }
            comm.reduce_scatter_start(vec![vals(900 + rank as u64, n)]).unwrap();
            if rank == 0 {
                comm.ring_pump().unwrap();
                assert_eq!(comm.stash.len(), 1, "the early hop waits in the stash");
            }
            comm.reduce_scatter_start(vec![vals(900 + rank as u64, n)]).unwrap();
            if rank != 0 {
                posted.wait();
            }
            comm.ring_finish().unwrap();
            assert!(comm.stash.is_empty());
            let mut done = comm.take_completed();
            done.sort_by_key(|(id, _)| *id);
            done
        });
        let segs = segment_bounds(n, 3);
        for (rank, done) in got.into_iter().enumerate() {
            let (lo, hi) = segs[rank];
            let mut expect = vals(900 + rank as u64, n);
            expect[lo..hi].copy_from_slice(&want[lo..hi]);
            assert_eq!(done[0].1, [expect.clone()], "first reduce-scatter, rank {rank}");
            assert_eq!(done[1].1, [expect], "second reduce-scatter, rank {rank}");
        }
    }

    #[test]
    fn cut_link_times_out_poisons_and_recovers() {
        let faults = Arc::new(FaultController::new());
        faults.cut_link(1, 2);
        let faults2 = Arc::clone(&faults);
        let results = run_ranks(3, faults, Duration::from_millis(200), move |comm, rank| {
            let mut buf = vals(rank as u64, 48);
            let first = comm.allreduce_mean_f16(&mut buf);
            if first.is_err() {
                // Whatever failed must now refuse further collectives.
                assert_eq!(comm.barrier(), Err(CommsError::Poisoned));
            }
            // Heal + recover: every rank bumps its epoch together. The
            // healer must be rank 1 — the only sender on the cut link —
            // so the heal happens-before any epoch-1 traffic could be
            // dropped (rank 0 healing raced with rank 1's retry).
            if rank == 1 {
                faults2.heal_link(1, 2);
            }
            comm.bump_epoch();
            let mut buf = vals(rank as u64, 48);
            let second = comm.allreduce_mean_f16(&mut buf);
            (first, second)
        });
        assert!(
            results.iter().any(|(first, _)| matches!(first, Err(CommsError::Timeout { .. }))),
            "a cut ring link must surface a timeout: {results:?}"
        );
        for (rank, (_, second)) in results.iter().enumerate() {
            assert_eq!(second, &Ok(()), "rank {rank} must work after recovery");
        }
    }

    #[test]
    fn p2p_delivers_by_tag_even_out_of_order() {
        // Rank 0 sends three tagged messages; rank 1 asks for them in a
        // different order — the stash must route them, never misdeliver.
        let got = run_ranks(2, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            if rank == 0 {
                for (id, step) in [(7u64, 0u32), (7, 1), (9, 0)] {
                    comm.send_p2p(1, id, step, vec![id as f32, f32::from(step as u16)]).unwrap();
                }
                Vec::new()
            } else {
                let mut out = Vec::new();
                for (id, step) in [(9u64, 0u32), (7, 1), (7, 0)] {
                    out.push(comm.recv_p2p(0, id, step).unwrap());
                }
                out
            }
        });
        assert_eq!(
            got[1],
            vec![vec![9.0, 0.0], vec![7.0, 1.0], vec![7.0, 0.0]],
            "p2p messages must be matched by tag, not arrival order"
        );
    }

    #[test]
    fn p2p_survives_interleaved_collectives() {
        // A p2p message already in flight while both ranks run a
        // barrier must be stashed by the barrier's matcher and still be
        // retrievable afterwards (and via try_recv_p2p's stash path).
        let got = run_ranks(2, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            if rank == 0 {
                comm.send_p2p(1, 3, 0, vec![1.25, -2.5]).unwrap();
            }
            comm.barrier().unwrap();
            if rank == 1 {
                // Arrived before the barrier traffic; may be stashed.
                comm.try_recv_p2p(0, 3, 0).unwrap()
            } else {
                None
            }
        });
        assert_eq!(got[1], Some(vec![1.25, -2.5]));
    }

    #[test]
    fn p2p_cut_link_times_out_bounded_then_recovers() {
        let faults = Arc::new(FaultController::new());
        faults.cut_link(0, 1);
        let faults2 = Arc::clone(&faults);
        let got = run_ranks(2, faults, Duration::from_millis(150), move |comm, rank| {
            if rank == 0 {
                comm.send_p2p(1, 0, 0, vec![4.0]).unwrap();
                comm.bump_epoch();
                // Wait for rank 1's go-ahead (the 1→0 link is healthy)
                // so the retry happens strictly after the heal. Rank 1
                // spends its own timeout discovering the cut first, so
                // poll rather than risk a timeout of our own.
                let wait = Instant::now() + DEFAULT_TIMEOUT;
                while comm.try_recv_p2p(1, 99, 0).unwrap().is_none() {
                    assert!(Instant::now() < wait, "go-ahead never arrived");
                    std::thread::yield_now();
                }
                comm.send_p2p(1, 0, 0, vec![5.0]).unwrap();
                Ok(vec![])
            } else {
                let t0 = Instant::now();
                let first = comm.recv_p2p(0, 0, 0);
                assert_eq!(first, Err(CommsError::Timeout { rank: 1, from: 0 }));
                assert!(t0.elapsed() < Duration::from_secs(5), "bounded wait");
                // Failure poisons until recovery.
                assert_eq!(comm.recv_p2p(0, 0, 0), Err(CommsError::Poisoned));
                faults2.heal_link(0, 1);
                comm.bump_epoch();
                comm.send_p2p(0, 99, 0, vec![]).unwrap();
                comm.recv_p2p(0, 0, 0)
            }
        });
        assert_eq!(got[1], Ok(vec![5.0]), "post-heal epoch must deliver fresh traffic");
    }

    #[test]
    fn try_recv_p2p_is_nonblocking_and_eventually_sees_the_message() {
        let got = run_ranks(2, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            if rank == 0 {
                // Give rank 1 time to observe the empty link first.
                std::thread::sleep(Duration::from_millis(30));
                comm.send_p2p(1, 11, 2, vec![0.5]).unwrap();
                (None, None)
            } else {
                let early = comm.try_recv_p2p(0, 11, 2).unwrap();
                let deadline = Instant::now() + DEFAULT_TIMEOUT;
                let mut late = None;
                while late.is_none() && Instant::now() < deadline {
                    late = comm.try_recv_p2p(0, 11, 2).unwrap();
                    std::thread::yield_now();
                }
                (early, late)
            }
        });
        assert_eq!(got[1].0, None, "nothing sent yet: try_recv must not block or invent data");
        assert_eq!(got[1].1, Some(vec![0.5]));
    }

    #[test]
    fn traced_run_pairs_every_flow_and_records_waits() {
        let _guard = telemetry::test_lock();
        let was = telemetry::enabled();
        telemetry::set_enabled(true);
        trace::take();

        run_ranks(3, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            let mut buf = vals(rank as u64, 64);
            comm.allreduce_mean_f16(&mut buf).unwrap();
            comm.barrier().unwrap();
            if rank == 0 {
                comm.send_p2p(1, 4, 0, vec![1.0]).unwrap();
            } else if rank == 1 {
                comm.recv_p2p(0, 4, 0).unwrap();
            }
        });
        telemetry::set_enabled(was);

        let (events, flows) = trace::take();
        assert!(events.iter().any(|e| e.cat == "comms"), "hop/send slices recorded");
        assert!(events.iter().any(|e| e.cat == "wait"), "wait slices recorded");

        // Matched pairs must exist in volume (the strict every-flow
        // pairing invariant is asserted by the `trace_golden`
        // integration test, which owns its whole process — here other
        // tests may run concurrently while telemetry is enabled).
        let mut by_id: std::collections::HashMap<u64, (usize, usize)> =
            std::collections::HashMap::new();
        for f in &flows {
            let e = by_id.entry(f.id).or_insert((0, 0));
            if f.start {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        let matched = by_id.values().filter(|&&(s, f)| s == 1 && f == 1).count();
        // Our run alone: 3 ranks × 4 ring hops + 2 barrier rounds × 3
        // ranks + 1 p2p ≥ 19 matched sends.
        assert!(matched >= 19, "expected ≥19 matched flow pairs, got {matched}");
    }

    #[test]
    fn model_byte_counter_tracks_ring_volume() {
        let got = run_ranks(4, Arc::default(), DEFAULT_TIMEOUT, |comm, rank| {
            let mut buf = vals(rank as u64, 1000);
            comm.allreduce_mean_f16(&mut buf).unwrap();
            (comm.model_allreduce_bytes(), comm.transport().bytes_sent())
        });
        for (model, wire) in got {
            assert_eq!(model, ring_allreduce_model_bytes(1000, 4, 2));
            assert!(wire > 0);
        }
    }
}
