//! A fixed-bucket histogram: serve's latency and batch-fill
//! accumulator. Updates are plain atomic operations, so the listener,
//! the replicas and the dispatcher record into one without a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default bucket upper bounds, in seconds: 1 µs … 100 s, roughly ×3
/// apart.
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
    // TEST-API: `histogram_proptests` records seconds-scale samples into the default bounds.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
