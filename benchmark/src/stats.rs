//! Order statistics the benchmark reports: percentiles with the
//! "at least ten samples beyond" rule, the median over consecutive
//! segments, and the quiet-quarter selection of the serving phases.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
/// Returns NaN on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest of `candidates` (ascending) that leaves at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the lowest does.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Items per second as the median over the consecutive segments of `per`
/// items the window holds (per-segment items ÷ wall). Items past the last
/// whole segment are left out. NaN when the window is shorter than one
/// segment.
pub fn segment_median_rate(item_ms: &[f64], per: usize) -> f64 {
    let rates: Vec<f64> = item_ms
        .chunks_exact(per)
        .map(|seg| per as f64 / (seg.iter().sum::<f64>() / 1e3))
        .collect();
    median(&rates)
}

/// Slices a serving phase is cut into, and how many of them are kept.
pub const SEGMENTS: usize = 20;
pub const KEPT: usize = 5;

/// The quiet quarter of a serving phase: `groups` are its equal consecutive
/// time slices, `cost` ranks a slice (lower is quieter), and the items of
/// the [`KEPT`] in [`SEGMENTS`] quietest slices are returned.
///
/// A request's latency is queueing plus a fixed batching deadline, so it
/// does not scale with the speed of the box the way a training step does
/// ([`crate::calib`]); what a neighbour's burst does to it is a stretch of
/// late replies. The gated serving figures are therefore taken over the
/// quietest quarter of the phase, which holds still as long as a quarter
/// of it was undisturbed. The price: a slowdown of the server that spares
/// a quarter of the slices does not move them, which is why the
/// whole-phase figures are printed beside them.
pub fn quiet_quarter<T>(mut groups: Vec<Vec<T>>, cost: impl Fn(&[T]) -> f64) -> Vec<T> {
    let keep = (groups.len() * KEPT).div_ceil(SEGMENTS).max(1);
    groups.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    groups.truncate(keep);
    groups.into_iter().flatten().collect()
}

/// Cuts `(time, value)` events of the window `[t0, t1)` into [`SEGMENTS`]
/// equal time slices.
pub fn time_segments(events: &[(f64, f64)], t0: f64, t1: f64) -> Vec<Vec<(f64, f64)>> {
    let mut groups = vec![Vec::new(); SEGMENTS];
    for &(t, v) in events {
        if t >= t0 && t < t1 {
            groups[(((t - t0) / (t1 - t0) * SEGMENTS as f64) as usize).min(SEGMENTS - 1)]
                .push((t, v));
        }
    }
    groups
}
