//! Per-thread event buffers with a central drain.
//!
//! The buffers behind [`crate::trace`]. One global `Mutex<Vec<_>>`
//! would serialise all threads on the recording hot path; a
//! [`ThreadLocalSink`] instead hands each recording thread its own
//! buffer: a push takes only that thread's (uncontended) lock, and the
//! exporter later drains every buffer — including buffers whose owning
//! thread has already exited or was killed mid-drill, because the
//! registry holds an `Arc` to each buffer independent of thread
//! lifetime. That last property is what keeps fault-injection telemetry
//! intact: a rank killed between steps still has its events collected.
//!
//! Ordering: events drain grouped by thread, not globally sorted by
//! timestamp. Chrome/Perfetto sort by `ts` on load; tests that assert
//! on order must sort explicitly.

use parking_lot::Mutex;
use std::sync::Arc;

/// A per-thread buffer handle: push through it from the owning thread,
/// the sink drains it from anywhere.
pub type Handle<T> = Arc<Mutex<Vec<T>>>;

type Buffer<T> = Handle<T>;

/// A sink of `T` events with one buffer per recording thread.
///
/// Designed to live in a `static`: [`ThreadLocalSink::new`] is `const`.
/// Call sites cache the handle in a `thread_local!` so steady-state
/// recording does no registry locking and no allocation beyond the
/// buffer's own growth.
pub struct ThreadLocalSink<T> {
    buffers: Mutex<Vec<Buffer<T>>>,
}

impl<T: Send> ThreadLocalSink<T> {
    pub const fn new() -> Self {
        ThreadLocalSink {
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Allocate and register a buffer for the calling thread. Cache the
    /// returned handle in a `thread_local!`; pushing through it never
    /// touches the shared registry again.
    pub fn handle(&self) -> Buffer<T> {
        let buf: Buffer<T> = Arc::new(Mutex::new(Vec::new()));
        self.buffers.lock().push(Arc::clone(&buf));
        buf
    }

    /// Drain every registered buffer into one vector (thread-grouped
    /// order) and prune registry entries whose owning thread is gone
    /// and whose buffer is now empty.
    pub fn drain(&self) -> Vec<T> {
        let mut registry = self.buffers.lock();
        let mut out = Vec::new();
        for buf in registry.iter() {
            out.append(&mut buf.lock());
        }
        // A strong count of 1 means no thread_local handle survives —
        // the owning thread exited — so the (now empty) buffer can go.
        registry.retain(|buf| Arc::strong_count(buf) > 1);
        out
    }

    /// Buffers currently registered (one per thread that recorded and
    /// is alive or undrained).
    #[cfg(test)]
    pub(crate) fn registered(&self) -> usize {
        self.buffers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_across_threads_including_exited_ones() {
        static SINK: ThreadLocalSink<u32> = ThreadLocalSink::new();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                std::thread::spawn(move || {
                    let buf = SINK.handle();
                    buf.lock().push(i);
                    buf.lock().push(i + 100);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = SINK.drain();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 100, 101, 102, 103]);
        // All four threads exited; their buffers were pruned.
        assert_eq!(SINK.drain(), Vec::<u32>::new());
        assert_eq!(SINK.registered(), 0);
    }

    #[test]
    fn steady_state_push_holds_only_the_thread_buffer_lock() {
        // The no-contention claim: once a thread has its handle,
        // recording touches only that thread's own mutex. Hold the
        // registry lock for the whole burst — if a push needed the
        // registry, this would deadlock (parking_lot mutexes are not
        // reentrant) and the test would hang rather than pass.
        let sink = ThreadLocalSink::<u64>::new();
        let buf = sink.handle();
        let registry = sink.buffers.lock();
        for i in 0..10_000 {
            buf.lock().push(i);
        }
        drop(registry);
        assert_eq!(sink.drain().len(), 10_000);
    }

    #[test]
    fn live_handles_survive_a_drain() {
        let sink = ThreadLocalSink::<u8>::new();
        let buf = sink.handle();
        buf.lock().push(7);
        assert_eq!(sink.drain(), vec![7]);
        // Handle still registered: later pushes are still collected.
        buf.lock().push(9);
        assert_eq!(sink.drain(), vec![9]);
    }
}
