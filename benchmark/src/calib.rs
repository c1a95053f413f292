//! The speed of the box, sampled between steps.
//!
//! The reference box is two virtual cores of a shared host, and its speed
//! moves with the neighbours': between runs of one commit, minutes apart,
//! the median step of every training workload spread by 16–32 %
//! (interquartile range over median, ten seeds), and no statistic of the
//! step times alone held still — low percentiles and quiet segments spread
//! by 7–30 %, even the fastest step of a run by 8–20 % — because a slow
//! episode can outlast a whole run. So an untraced run times a small fixed
//! piece of work of its own before a step, whenever [`EVERY_MS`] of the
//! window have passed since the last time, and each step's wall time is
//! scaled by how much slower than [`REFERENCE_MS`] that work ran just
//! before and just after it. The gated timings are statistics of the scaled
//! times over the whole window: what the step would have taken on the
//! reference box left alone. Scaled this way the median step of the same
//! runs spread by 3–11 %.
//!
//! The work is a mix, because the box slows in more than one way and the
//! workloads lean on different parts of it: a register-only multiply-add
//! chain (execution ports), a 96×96 matrix product that stays in L2, and a
//! sum over 8 MB (the shared last-level cache and memory). It uses nothing
//! of the repository's crates, so a change to the program cannot move it.
//! Timed alone, the memory sum tracked the workloads best (3–14 % left),
//! the other two alone left 5–18 %; a dependent integer chain did not move
//! with the box at all, and a thread hand-off added to the mix was too
//! noisy itself to help. What the samples do not see — a halted core that
//! is slow to wake — is kept away by [`crate::spin`].

use std::hint::black_box;
use std::time::Instant;

/// What one [`Calibrator::sample`] takes on the reference box when nothing
/// else runs on the host: the lowest sample of several hundred runs. The
/// gated timings are scaled to it, so they are comparable between runs on
/// this box; on another box they are off by one constant factor, which a
/// comparison of two commits does not see.
pub const REFERENCE_MS: f64 = 2.5;

/// A sample is taken before a step once this much of the window has passed
/// since the last one: often enough to follow the box, and at most a tenth
/// of the window.
pub const EVERY_MS: f64 = 30.0;

const DIM: usize = 96;
const MATMUL_REPEATS: usize = 8;
const CHAIN_ROUNDS: usize = 160_000;
const STREAM_FLOATS: usize = 2 << 20;

pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            a: (0..DIM * DIM).map(|i| (i % 7) as f32 * 0.01).collect(),
            b: (0..DIM * DIM).map(|i| (i % 5) as f32 * 0.01).collect(),
            c: vec![0.0; DIM * DIM],
            stream: vec![1.0; STREAM_FLOATS],
        }
    }
}

impl Calibrator {
    /// Runs the mix once and returns its wall time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();

        // Eight independent chains of eight lanes: bound by the multiply
        // and add ports, touching no memory.
        let mut acc = [[1.0f32; 8]; 8];
        let (mul, add) = (black_box([0.999f32; 8]), black_box([0.001f32; 8]));
        for _ in 0..CHAIN_ROUNDS {
            for chain in &mut acc {
                for lane in 0..8 {
                    chain[lane] = chain[lane] * mul[lane] + add[lane];
                }
            }
        }
        black_box(acc);

        // c = a·b, row by row: 108 KB of operands, resident in L2.
        for _ in 0..MATMUL_REPEATS {
            self.c.fill(0.0);
            for i in 0..DIM {
                for k in 0..DIM {
                    let a = self.a[i * DIM + k];
                    let b_row = &self.b[k * DIM..(k + 1) * DIM];
                    for (c, b) in self.c[i * DIM..(i + 1) * DIM].iter_mut().zip(b_row) {
                        *c += a * b;
                    }
                }
            }
            black_box(&mut self.c);
        }

        // One pass over 8 MB, four times the L2 of a core.
        let mut lanes = [0.0f32; 8];
        for chunk in self.stream.chunks_exact(8) {
            for (l, v) in lanes.iter_mut().zip(chunk) {
                *l += v;
            }
        }
        black_box(lanes);

        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The samples of one window: each taken just before the item (step) whose
/// index it carries, the last one after the last item.
#[derive(Default)]
pub struct SpeedLog {
    samples: Vec<(usize, f64)>,
}

impl SpeedLog {
    pub fn push(&mut self, before_item: usize, sample_ms: f64) {
        self.samples.push((before_item, sample_ms));
    }

    /// Wall times scaled to the reference box: item `i` by
    /// [`REFERENCE_MS`] over the mean of the nearest sample at or before it
    /// and the nearest after it (the one that exists, at either end).
    /// Without samples the times come back as they are.
    pub fn scale(&self, item_ms: &[f64]) -> Vec<f64> {
        let mut next = 0;
        item_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                while next < self.samples.len() && self.samples[next].0 <= i {
                    next += 1;
                }
                let before = next.checked_sub(1).map(|j| self.samples[j].1);
                let after = self.samples.get(next).map(|s| s.1);
                match (before, after) {
                    (Some(b), Some(a)) => ms * REFERENCE_MS / (0.5 * (a + b)),
                    (Some(s), None) | (None, Some(s)) => ms * REFERENCE_MS / s,
                    (None, None) => ms,
                }
            })
            .collect()
    }

    /// Median of the samples over [`REFERENCE_MS`]: how many times slower
    /// than the reference the box ran. NaN without samples.
    pub fn slowdown(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::median(&all) / REFERENCE_MS
    }

    /// The lowest sample: what [`REFERENCE_MS`] is set from on a new box.
    pub fn lowest_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.1).fold(f64::NAN, f64::min)
    }
}
