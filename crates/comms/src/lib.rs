//! `comms` — a message-passing collectives runtime.
//!
//! Unlike `samo::data_parallel`, where all ranks live in one `Vec` and a
//! sequential loop averages gradients in place, this crate moves real
//! messages between real OS threads or processes: each rank owns a
//! [`Transport`] endpoint ([`InProcTransport`]: typed channels;
//! [`TcpTransport`]: length-prefixed frames over real sockets, with
//! heartbeats) and a [`Communicator`] implementing
//! `barrier`, `broadcast`, `all_gather`, and a **chunked ring
//! all-reduce** over compressed fp16 gradient buckets — the collective
//! the paper's Sec. IV-A runs on `∇θ16` to cut message volume by `1/f`.
//! Every socket in the workspace (mesh links, the rendezvous, the
//! serving tier) is read and written through [`tcp::framing`], the one
//! place bytes from outside become messages.
//!
//! # Determinism
//!
//! The ring all-reduce is bitwise-reproducible regardless of thread
//! timing, and bitwise-identical to the sequential oracle in
//! [`mod@reference`], because the reduction arithmetic is *exact*: every
//! finite f16 value is an integer multiple of 2⁻²⁴ with magnitude below
//! 2⁴¹·2⁻²⁴, so a sum of up to 2¹² such values fits in f64's 53-bit
//! mantissa without rounding. Exact addition is associative and
//! commutative, so the ring's per-segment accumulation order and the
//! oracle's rank-order loop compute the same f64 sum bit-for-bit; one
//! shared final rounding (`reference::f16_mean_from_exact_sum`) turns it
//! into the same f16 everywhere. See DESIGN.md §12 for the full
//! argument, including the non-finite cases.
//!
//! # Fault injection
//!
//! Every link of an in-process mesh consults a shared
//! [`FaultController`]: tests cut links (messages silently vanish, the
//! receiver times out with a [`CommsError::Timeout`] instead of
//! hanging), delay them, or drive seeded per-message jitter from
//! `summit_sim`'s failure models.

pub mod bootstrap;
pub mod collectives;
pub mod fault;
pub mod heartbeat;
pub mod reference;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use bootstrap::{bootstrap_tcp, BootstrapConfig, BootstrapInfo, Rendezvous};
pub use collectives::{Communicator, PendingAllTrue, PendingGather};
pub use fault::FaultController;
pub use heartbeat::HeartbeatConfig;
pub use tcp::TcpTransport;
pub use transport::{InProcTransport, Kind, Message, Payload, Tag, Transport};

use std::fmt;

/// Errors a collective can surface. All are fail-stop: after any error
/// the communicator's in-flight state is undefined and the caller must
/// [`Communicator::bump_epoch`] (draining stale traffic) before reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommsError {
    /// No message arrived from `from` before the deadline — a cut link,
    /// a dead peer, or a peer wedged in an earlier collective.
    Timeout { rank: usize, from: usize },
    /// The peer's endpoint was dropped entirely (rank death).
    Closed { rank: usize, peer: usize },
    /// Ranks disagree about a collective's layout or message schedule —
    /// a programming error, not a transient fault.
    Mismatch(String),
    /// A previous collective failed and the communicator has not been
    /// recovered; refusing to run rather than deadlock on stale traffic.
    Poisoned,
    /// A socket-level failure (bind, connect, read, write, or a
    /// malformed frame). Carries the OS error text; like every other
    /// variant it is fail-stop, never a panic or a hang.
    Io(String),
    /// Heartbeat-based failure detection declared `peer` dead: its
    /// traffic went silent for longer than the configured liveness
    /// window. Surfaced *immediately* by receives instead of waiting
    /// out the deadline, so recovery starts within the heartbeat
    /// window, not the collective timeout.
    PeerDead { rank: usize, peer: usize },
}

impl fmt::Display for CommsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommsError::Timeout { rank, from } => {
                write!(f, "rank {rank}: timed out waiting on rank {from}")
            }
            CommsError::Closed { rank, peer } => {
                write!(f, "rank {rank}: link to rank {peer} is closed")
            }
            CommsError::Mismatch(msg) => write!(f, "collective mismatch: {msg}"),
            CommsError::Poisoned => {
                write!(f, "communicator poisoned by an earlier failure; recover first")
            }
            CommsError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            CommsError::PeerDead { rank, peer } => {
                write!(f, "rank {rank}: peer {peer} declared dead (missed heartbeats)")
            }
        }
    }
}

impl std::error::Error for CommsError {}

/// Per-rank wire bytes of a bandwidth-optimal ring all-reduce over `n`
/// elements of `elem_bytes` each across `world` ranks:
/// `2·(G−1)/G · n · elem_bytes` (the reduce-scatter and all-gather
/// phases each move `(G−1)/G` of the buffer). This is the model both
/// byte-accounting formulas in `samo::trainer` and the `repro comms`
/// bench report; a single rank moves nothing.
pub fn ring_allreduce_model_bytes(n: u64, world: u64, elem_bytes: u64) -> u64 {
    if world <= 1 {
        return 0;
    }
    2 * elem_bytes * n * (world - 1) / world
}

/// Bounds `[lo, hi)` of part `r` when `n` elements are cut into `parts`
/// contiguous chunks, remainder spread one-per-chunk from the front. The
/// one partition formula: ring segments, pipeline stage blocks and the
/// optimizer shards of `samo::state` (which asks inside its
/// allocation-free step, one part at a time) all follow it, so these
/// bounds size the all-gather of sharded state.
pub fn segment(n: usize, r: usize, parts: usize) -> (usize, usize) {
    assert!(r < parts, "part {r} of {parts}");
    let (base, rem) = (n / parts, n % parts);
    let lo = r * base + r.min(rem);
    (lo, lo + base + usize::from(r < rem))
}

/// Every [`segment`] of `n` elements in `parts`, in order.
pub fn segment_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts >= 1);
    (0..parts).map(|r| segment(n, r, parts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bytes_ring_formula() {
        // G=2 coincides with the naive 2·n·elem formula.
        assert_eq!(ring_allreduce_model_bytes(100, 2, 2), 200);
        // G=4: 2 · 3/4 · n · 2B.
        assert_eq!(ring_allreduce_model_bytes(100, 4, 2), 300);
        // Single rank moves nothing; dense f16 at G=8.
        assert_eq!(ring_allreduce_model_bytes(100, 1, 2), 0);
        assert_eq!(ring_allreduce_model_bytes(1 << 20, 8, 2), 2 * 7 * (1 << 20) / 8 * 2);
    }

    #[test]
    fn segment_bounds_cover_everything_once() {
        for n in [0usize, 1, 5, 8, 13, 64] {
            for g in 1..=9 {
                let b = segment_bounds(n, g);
                assert_eq!(b.len(), g);
                assert_eq!(b[0].0, 0);
                assert_eq!(b[g - 1].1, n);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
                // Balanced within one element.
                let lens: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
                let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }
}
