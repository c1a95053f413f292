//! The step ledger: one rank's phase clock.
//!
//! A [`Ledger`] charges every nanosecond of a step's window — from
//! [`Ledger::start`] to [`Ledger::stop`] — to exactly one [`Phase`]: the
//! innermost one open. Phases nest on a small fixed stack
//! ([`Ledger::enter`] / [`Ledger::exit`]); time no phase claims is
//! [`Phase::Other`]. Each charge is the integer nanoseconds since the
//! previous one, so the phases sum to the window exactly, by
//! construction; [`Ledger::split`] reads them. The ledger has a fixed
//! size and never allocates: it runs whether or not telemetry is on, at
//! one clock read per boundary. The window's start is also placed on the
//! trace clock ([`crate::clock`]), so a mark is a trace timestamp too
//! ([`Ledger::trace_us`]) and a rank's trace slices need no clock of
//! their own.
//!
//! Communication charged while a compute phase is open below it on the
//! stack — a ring hop pumped inside a backward — is also counted apart
//! ([`Split::hidden_ns`]): the part of the step's communication that
//! compute hid.

use std::time::Instant;

/// What a step's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A microbatch's forward — at one stage, the data-parallel rank's
    /// step closure (forward and loss).
    F,
    /// A microbatch's B: `dx` and the dense gradients.
    B,
    /// A pipeline microbatch's deferred weight gradients.
    W,
    /// Handing a boundary tensor to a pipeline neighbour.
    Send,
    /// Asleep until a pipeline neighbour's message arrives, or a ring's
    /// predecessor's.
    Wait,
    /// A dynamic-sparsity mask update and the state remap behind it.
    Remap,
    /// Compressing gradients outside backward.
    Compress,
    /// The gradient rings and the overflow verdict.
    Reduce,
    /// The fused optimizer passes.
    Optimizer,
    /// The parameter all-gathers: their starts and the waits for them.
    Gather,
    /// Everything no other phase claims.
    Other,
}

impl Phase {
    /// Every phase, in the order of [`Self::name`]'s keys.
    pub const ALL: [Phase; 11] = [
        Phase::F,
        Phase::B,
        Phase::W,
        Phase::Send,
        Phase::Wait,
        Phase::Remap,
        Phase::Compress,
        Phase::Reduce,
        Phase::Optimizer,
        Phase::Gather,
        Phase::Other,
    ];

    /// The phase's key: `t_<name>` in a step event, `samo.step.<name>`
    /// as a histogram.
    pub fn name(self) -> &'static str {
        [
            "f", "b", "w", "send", "wait", "remap", "compress", "reduce", "optimizer", "gather", "other",
        ][self as usize]
    }

    fn computes(self) -> bool {
        matches!(self, Phase::F | Phase::B | Phase::W)
    }

    fn communicates(self) -> bool {
        matches!(self, Phase::Send | Phase::Wait | Phase::Reduce | Phase::Gather)
    }

    /// Whether the rank works in `self` rather than talks, waits or is
    /// unaccounted for: F, B, W, Remap, Compress and Optimizer.
    fn busy(self) -> bool {
        !self.communicates() && self != Phase::Other
    }
}

/// How deep phases nest.
const DEPTH: usize = 8;

/// What a window charged: nanoseconds per phase, their sum, and the
/// communication among them that compute hid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    ns: [u64; Phase::ALL.len()],
    hidden: u64,
    window: u64,
}

impl Split {
    /// A closed window that charged `ns[i]` to `Phase::ALL[i]`, `hidden`
    /// of it communication that compute hid.
    // TEST-API: the step-record goldens and the straggler tests plant a split no clock could charge.
    pub fn planted(ns: [u64; Phase::ALL.len()], hidden: u64) -> Split {
        Split { ns, hidden, window: ns.iter().sum() }
    }

    /// Nanoseconds charged to `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Seconds charged to `phase`.
    pub fn secs(&self, phase: Phase) -> f64 {
        self.ns(phase) as f64 / 1e9
    }

    /// The closed window in microseconds: the sum of every phase's.
    pub fn window_us(&self) -> f64 {
        self.window as f64 / 1e3
    }

    /// Communication nanoseconds charged with a compute phase open below.
    pub fn hidden_ns(&self) -> u64 {
        self.hidden
    }

    /// Microseconds the rank was busy: every phase that neither
    /// communicates nor is [`Phase::Other`]. What a straggler has more of.
    pub fn busy_us(&self) -> f64 {
        Phase::ALL.iter().filter(|p| p.busy()).map(|&p| self.ns(p)).sum::<u64>() as f64 / 1e3
    }
}

/// One rank's phase clock; see the module docs.
#[derive(Debug, Clone)]
pub struct Ledger {
    base: Instant,
    /// The window's start on the trace clock, in microseconds.
    start_us: f64,
    /// Nanoseconds since `base` of the last charge.
    last: u64,
    split: Split,
    /// Open phases, innermost last, each with the nanoseconds it opened at.
    stack: [(Phase, u64); DEPTH],
    depth: usize,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            base: Instant::now(),
            start_us: 0.0,
            last: 0,
            split: Split::default(),
            stack: [(Phase::Other, 0); DEPTH],
            depth: 0,
        }
    }
}

impl Ledger {
    /// Opens a window: every count back to zero, no phase open, and its
    /// start placed on the trace clock.
    pub fn start(&mut self) {
        *self = Ledger::default();
        self.start_us = crate::clock::now_us();
    }

    /// Charges the time since the last charge to the innermost open
    /// phase and returns the nanoseconds since the window opened.
    pub fn mark(&mut self) -> u64 {
        let now = self.base.elapsed().as_nanos() as u64;
        let lap = now - self.last;
        let open = &self.stack[..self.depth];
        let top = open.last().map_or(Phase::Other, |&(p, _)| p);
        self.split.ns[top as usize] += lap;
        if top.communicates() && open.iter().any(|&(p, _)| p.computes()) {
            self.split.hidden += lap;
        }
        self.last = now;
        now
    }

    /// Opens `phase` inside whatever is open.
    pub fn enter(&mut self, phase: Phase) {
        let now = self.mark();
        assert!(self.depth < DEPTH, "phases nest at most {DEPTH} deep");
        self.stack[self.depth] = (phase, now);
        self.depth += 1;
    }

    /// Closes `phase`, the innermost open one, and returns the
    /// nanoseconds it was open — its inner phases included.
    pub fn exit(&mut self, phase: Phase) -> u64 {
        let now = self.mark();
        self.depth -= 1;
        let (open, at) = self.stack[self.depth];
        debug_assert_eq!(open, phase, "phases close innermost first");
        now - at
    }

    /// Closes the window, and every phase still open, and returns its
    /// nanoseconds.
    pub fn stop(&mut self) -> u64 {
        self.split.window = self.mark();
        self.depth = 0;
        self.split.window
    }

    /// The instant `ns` nanoseconds into the window.
    pub fn at(&self, ns: u64) -> Instant {
        self.base + std::time::Duration::from_nanos(ns)
    }

    /// The nanoseconds into the window of the last charge: where the lap
    /// [`Self::exit`] just returned ended.
    pub fn charged_ns(&self) -> u64 {
        self.last
    }

    /// Where `ns` nanoseconds into the window fall on the trace clock
    /// ([`crate::clock::now_us`]), in microseconds.
    pub fn trace_us(&self, ns: u64) -> f64 {
        self.start_us + ns as f64 / 1e3
    }

    /// What the window charged so far — all of it, once stopped.
    pub fn split(&self) -> Split {
        self.split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    fn nap() {
        sleep(Duration::from_millis(2));
    }

    #[test]
    fn the_innermost_phase_wins() {
        let mut l = Ledger::default();
        l.start();
        l.enter(Phase::B);
        nap();
        l.enter(Phase::Reduce);
        nap();
        let reduce = l.exit(Phase::Reduce);
        nap();
        let b = l.exit(Phase::B);
        l.stop();
        let s = l.split();
        assert_eq!(s.ns(Phase::Reduce), reduce);
        assert_eq!(s.ns(Phase::B) + reduce, b, "B's lap holds the ring, its charge does not");
        assert!(s.ns(Phase::B) >= 4_000_000 && reduce >= 2_000_000, "{s:?}");
        assert_eq!(s.hidden_ns(), reduce, "a ring pumped inside backward is hidden");
    }

    #[test]
    fn phases_sum_to_the_window_exactly() {
        let mut l = Ledger::default();
        l.start();
        nap();
        for phase in Phase::ALL {
            l.enter(phase);
            l.enter(Phase::Send);
            l.exit(Phase::Send);
            l.exit(phase);
        }
        // A window closes whatever is still open.
        l.enter(Phase::Optimizer);
        l.enter(Phase::Gather);
        nap();
        let window = l.stop();
        let s = l.split();
        assert_eq!(Phase::ALL.iter().map(|&p| s.ns(p)).sum::<u64>(), window);
        assert_eq!(s.window_us(), window as f64 / 1e3);
        assert!(s.ns(Phase::Other) >= 2_000_000 && s.ns(Phase::Gather) >= 2_000_000, "{s:?}");
    }

    #[test]
    fn marks_are_trace_timestamps() {
        // Another test may reset the trace clock's origin.
        let _guard = crate::registry::test_lock();
        let mut l = Ledger::default();
        let before = crate::clock::now_us();
        l.start();
        nap();
        let ns = l.mark();
        let after = crate::clock::now_us();
        assert_eq!(l.charged_ns(), ns);
        // Both rulers count whole microseconds of one monotonic clock.
        assert!(before <= l.trace_us(0) + 1.0, "{before} vs {}", l.trace_us(0));
        assert!(l.trace_us(ns) <= after + 1.0, "{} vs {after}", l.trace_us(ns));
        assert!(l.trace_us(ns) - l.trace_us(0) >= 2_000.0);
    }

    #[test]
    fn reentering_a_phase_accumulates() {
        let mut l = Ledger::default();
        l.start();
        let laps: u64 = (0..3)
            .map(|_| {
                l.enter(Phase::W);
                nap();
                l.exit(Phase::W)
            })
            .sum();
        l.stop();
        assert_eq!(l.split().ns(Phase::W), laps);
        assert!(laps >= 6_000_000);
        l.start();
        let s = l.split();
        assert_eq!((s.ns(Phase::W), s.window_us()), (0, 0.0), "a new window starts from zero");
    }
}
