//! The one measurement harness behind every `repro` perf tracker:
//! best-of-N wall-clock sampling, the interleaved duel for gated ratios,
//! the shared input generator, and the step that records a section into
//! `BENCH_hotpaths.json` and then holds it to its gate.
//!
//! The estimator is the simplest defensible one: a kernel runs `reps`
//! times per sample, the sample's mean per-invocation time is recorded,
//! and the best of the samples is the headline number (minimum
//! wall-clock is the standard estimator for "how fast can this go with
//! the caches warm and the machine quiet").

use std::time::Instant;
use telemetry::json::Json;

/// The tracked result file, written into the current directory (the repo
/// root when invoked as `repro <tracker>`).
pub const BENCH_JSON: &str = "BENCH_hotpaths.json";

/// Per-invocation milliseconds of one kernel: every sample's mean and
/// their minimum.
pub struct Sample {
    pub runs_ms: Vec<f64>,
    pub best_ms: f64,
}

impl Sample {
    fn of(runs_ms: Vec<f64>) -> Sample {
        let best_ms = runs_ms.iter().copied().fold(f64::INFINITY, f64::min);
        Sample { runs_ms, best_ms }
    }
}

fn time_ms<F: FnMut()>(reps: usize, f: &mut F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Runs `f` `reps` times per sample, `best_of` samples.
pub fn sample<F: FnMut()>(best_of: usize, reps: usize, mut f: F) -> Sample {
    Sample::of((0..best_of).map(|_| time_ms(reps, &mut f)).collect())
}

/// [`sample`] for two kernels whose ratio is gated: the contenders
/// alternate within each round so frequency drift and scheduler noise on
/// a shared box hit both equally, instead of biasing whichever happened
/// to run in the quieter window. Each timed block is preceded by one
/// untimed call of the same contender: the opponent just evicted this
/// contender's working set, and with few reps that one cache-cold rep
/// would otherwise tax the shorter kernel far more than the longer one
/// (a duel artifact, not a property of either kernel).
pub fn duel<F: FnMut(), G: FnMut()>(rounds: usize, reps: usize, mut f: F, mut g: G) -> [Sample; 2] {
    duel_n(rounds, reps, [&mut f, &mut g])
}

/// [`duel`] among any number of contenders.
pub fn duel_n<const N: usize>(rounds: usize, reps: usize, mut contenders: [&mut dyn FnMut(); N]) -> [Sample; N] {
    let samples = duel_all(rounds, reps, &mut contenders);
    samples.try_into().unwrap_or_else(|_| unreachable!("one sample per contender"))
}

/// [`duel_n`] over a slice: one sample per contender, in order.
pub fn duel_all(rounds: usize, reps: usize, contenders: &mut [&mut dyn FnMut()]) -> Vec<Sample> {
    let mut runs: Vec<Vec<f64>> = contenders.iter().map(|_| Vec::with_capacity(rounds)).collect();
    for _ in 0..rounds {
        for (f, runs) in contenders.iter_mut().zip(&mut runs) {
            f();
            runs.push(time_ms(reps, f));
        }
    }
    runs.into_iter().map(Sample::of).collect()
}

/// Upper median; `None` for an empty set.
pub fn median(mut xs: Vec<f64>) -> Option<f64> {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied()
}

/// `n` deterministic pseudo-random f32 in roughly [-1, 1) (SplitMix64
/// bits; no `rand` needed so the harness stays dependency-free).
pub fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32) / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A measured float, rounded to the six decimals the tracked file keeps.
pub fn round6(v: f64) -> Json {
    Json::Num((v * 1e6).round() / 1e6)
}

/// Merges `own` top-level fields into [`BENCH_JSON`] (every other
/// section survives untouched) and returns the merged document.
pub fn write(section: &str, own: Vec<(String, Json)>) -> Result<Json, String> {
    let doc = crate::tracked::merge_tracked_json(BENCH_JSON, own)
        .map_err(|e| format!("write {BENCH_JSON}: {e}"))?;
    println!("wrote {BENCH_JSON} ({section} section)");
    Ok(doc)
}

/// The closing step of every tracker: record the top-level fields the
/// section owns, then hold what was just recorded to its gate. The
/// numbers land on disk either way, so a failing run can still be
/// inspected.
pub fn record(section: &str, own: Vec<(String, Json)>) -> Result<(), String> {
    let doc = write(section, own)?;
    let summary = crate::gates::check(section, &doc)?;
    telemetry::log_info!("{section}: gates passed — {summary}");
    Ok(())
}
