//! Named metrics: counters, gauges and fixed-bucket histograms.
//!
//! Metric handles are `Arc`s served by a [`Registry`]; instrumented code
//! looks a handle up once (or caches it in a `OnceLock`) and then updates
//! it with plain atomic operations — no lock is held on the hot path.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written `f64` value (bit-stored in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger — a high-water mark.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if v <= f64::from_bits(cur) {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Default histogram bucket upper bounds, in seconds: 1 µs … 100 s,
/// roughly ×3 apart. Spans from sub-microsecond kernel calls to whole
/// experiment phases land in distinct buckets.
pub const DEFAULT_BOUNDS: [f64; 17] = [
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
    100.0,
];

/// Fixed-bucket histogram of `f64` samples with exact min/max/sum/count.
///
/// Bucket `i` counts samples `<= bounds[i]`; one extra overflow bucket
/// counts the rest. Quantile estimates therefore have bucket resolution
/// but are always clamped into the exact observed `[min, max]`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bit patterns maintained by CAS; min starts at +inf, max at -inf.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::with_bounds(&DEFAULT_BOUNDS)
    }

    /// `bounds` must be strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_extreme(&self.min_bits, v, |new, cur| new < cur);
        update_extreme(&self.max_bits, v, |new, cur| new > cur);
        // CAS-accumulated sum; contention here is cold-path only.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact minimum recorded sample, or `None` before any sample.
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Exact maximum recorded sample, or `None` before any sample.
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Bucket-resolution quantile estimate, clamped into the exact
    /// observed `[min, max]`. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let (min, max) = (self.min().unwrap(), self.max().unwrap());
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), under the convention that
        // quantile(0) is the first sample and quantile(1) the last.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let est = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    max
                };
                return Some(est.clamp(min, max));
            }
        }
        Some(max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn update_extreme(slot: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if !better(v, f64::from_bits(cur)) {
            return;
        }
        match slot.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Name → metric maps. Lookup takes a short-lived lock; updates through
/// the returned `Arc` handles are lock-free.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Point-in-time copy of every metric, for dumps and tests.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSummary {
                            count: v.count(),
                            sum: v.sum(),
                            min: v.min(),
                            max: v.max(),
                            p50: v.quantile(0.5),
                            p99: v.quantile(0.99),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Flat copy of a registry's state at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[derive(Debug, Clone)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

/// The process-global registry used by all built-in instrumentation.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Serialises tests that flip the process-global enable flag or read the
/// global registry, so `cargo test`'s parallel runner can't interleave
/// them. Public for use by dependent crates' test suites.
// TEST-API: suites that flip the global telemetry flag serialise on it.
pub fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);

        let g = reg.gauge("y");
        g.set(2.5);
        assert_eq!(reg.gauge("y").get(), 2.5);
        g.set_max(1.0); // lower: ignored
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn histogram_summary_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        for v in [0.002, 0.004, 0.008, 0.5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0.002));
        assert_eq!(h.max(), Some(0.5));
        assert!((h.sum() - 0.514).abs() < 1e-12);
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.002..=0.5).contains(&p50));
        // Non-finite samples are dropped, not poisoning min/max.
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_quantile_monotone_in_q() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-4); // 0.1ms .. 100ms
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let est: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for w in est.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {est:?}");
        }
    }

    #[test]
    fn registry_snapshot_contains_everything() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.gauge("b").set(1.5);
        reg.histogram("c").record(0.01);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.gauges["b"], 1.5);
        assert_eq!(snap.histograms["c"].count, 1);
    }
}
