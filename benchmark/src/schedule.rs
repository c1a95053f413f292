//! Seeded randomness for the benchmark's inputs: a SplitMix64 stream and
//! the Poisson arrival schedule of the open-loop load generator.

/// SplitMix64: small, seedable, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` of it is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f32 {
        (self.next_unit() * 2.0 - 1.0) as f32
    }
}

/// A derived seed for one named stream of a run, so the model, the batches
/// and the arrivals never share a stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Due times, in seconds from the phase start, of a Poisson process of
/// `rate` arrivals per second over `duration_s`, conditioned on its count
/// being `round(rate · duration_s)`: exponential gaps, rescaled so the
/// arrivals span the phase. Fixing the count keeps the offered load equal
/// across seeds; the gaps keep the burstiness that builds queues.
pub fn poisson_arrivals(rate: f64, duration_s: f64, seed: u64) -> Vec<f64> {
    let n = (rate * duration_s).round() as usize;
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut due: Vec<f64> = (0..n)
        .map(|_| {
            t += -rng.next_unit().ln();
            t
        })
        .collect();
    // One more gap closes the phase, so the last arrival is not pinned to
    // its very end.
    t += -rng.next_unit().ln();
    for d in &mut due {
        *d *= duration_s / t;
    }
    due
}
