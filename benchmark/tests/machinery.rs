//! The benchmark's own machinery: span arithmetic, order statistics, the
//! arrival schedule, and agreement between `BENCHMARK.json` and the names
//! every run prints.

use samo_benchmark::calib::{SpeedLog, REFERENCE_MS};
use samo_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use samo_benchmark::schedule::poisson_arrivals;
use samo_benchmark::spans::{self_times_us, Ledger, Span};
use samo_benchmark::stats::{
    highest_supported, median, percentile, quiet_quarter, samples_beyond, segment_median_rate,
    time_segments, KEPT, SEGMENTS,
};
use samo_benchmark::suite::DEFAULT_SECONDS;
use samo_benchmark::workloads::WORKLOADS;
use telemetry::json::Json;

fn span(name: &'static str, lane: u32, start: f64, end: f64, parent: Option<u32>) -> Span {
    Span {
        name,
        lane,
        id: 0,
        start_us: start,
        end_us: end,
        parent,
    }
}

#[test]
fn self_time_is_duration_minus_the_union_of_child_cover() {
    let spans = vec![
        span("step", 0, 0.0, 100.0, None),
        span("nn.forward", 0, 10.0, 30.0, Some(0)),
        // Overlaps its sibling on another lane: [10,50] is covered once.
        span("nn.loss", 1, 20.0, 50.0, Some(0)),
        // Sticks out of the parent: only [90,100] counts.
        span("core.trainer_step", 0, 90.0, 120.0, Some(0)),
        // A grandchild takes from its parent, not from the root.
        span("tensor.gemm", 0, 12.0, 18.0, Some(1)),
    ];
    let own = self_times_us(&spans);
    assert_eq!(own[0], 100.0 - 40.0 - 10.0);
    assert_eq!(own[1], 20.0 - 6.0);
    assert_eq!(own[2], 30.0);
    assert_eq!(own[3], 30.0);
    assert_eq!(own[4], 6.0);
}

#[test]
fn ledger_shares_sum_to_the_root_wall_and_skip_spans_off_the_blocking_path() {
    let spans = vec![
        span("step", 0, 0.0, 100.0, None),
        span("nn.forward", 0, 0.0, 40.0, Some(0)),
        span("nn.backward", 0, 40.0, 70.0, Some(0)),
        span("core.trainer_step", 0, 70.0, 95.0, Some(0)),
        // The faster rank: a root of its own lane, in the trace only.
        span("bench.rank_closure", 2, 0.0, 35.0, None),
        span("nn.forward", 2, 0.0, 35.0, Some(4)),
        span("step", 0, 100.0, 200.0, None),
        span("comms.allreduce", 0, 100.0, 150.0, Some(6)),
    ];
    let ledger = Ledger::build(&spans, "step");
    assert_eq!(ledger.roots, 2);
    assert_eq!(ledger.wall_us, 200.0);
    assert_eq!(ledger.share("nn"), 70.0 / 200.0);
    assert_eq!(ledger.share("core"), 25.0 / 200.0);
    assert_eq!(ledger.share("comms"), 50.0 / 200.0);
    assert_eq!(ledger.share("serve"), 0.0);
    assert_eq!(ledger.unattributed_share(), 55.0 / 200.0);
    assert!((ledger.share_sum() - 1.0).abs() < 1e-12);
}

#[test]
fn percentiles_are_nearest_rank_and_the_tail_needs_ten_samples_beyond() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.95), 95.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);

    // The shortest training window of the issue: p95 leaves 12, p99 only 2.
    assert_eq!(samples_beyond(250, 0.95), 12);
    assert_eq!(samples_beyond(250, 0.99), 2);
    assert_eq!(highest_supported(250, &[0.95, 0.99]), Some(0.95));
    assert_eq!(highest_supported(1800, &[0.95, 0.99]), Some(0.99));
    assert_eq!(highest_supported(100, &[0.95, 0.99]), None);
}

#[test]
fn segment_median_is_the_median_of_consecutive_segment_rates() {
    // 100 steps of 10 ms with one stalled stretch: steps 40..60 take 50 ms.
    let ms: Vec<f64> = (0..100)
        .map(|i| if (40..60).contains(&i) { 50.0 } else { 10.0 })
        .collect();
    // Segments of 20 steps: four at 100 steps/s, the stalled one at 20.
    assert_eq!(segment_median_rate(&ms, 20), 100.0);
    // A stall over three of the five segments moves the median.
    let ms: Vec<f64> = (0..100)
        .map(|i| if (20..80).contains(&i) { 50.0 } else { 10.0 })
        .collect();
    assert_eq!(segment_median_rate(&ms, 20), 20.0);
    // One stalled step in twenty leaves most segments of eight clean.
    let ms: Vec<f64> = (0..160)
        .map(|i| if i % 20 == 0 { 150.0 } else { 10.0 })
        .collect();
    assert_eq!(segment_median_rate(&ms, 8), 100.0);
    // Steps past the last whole segment are left out; a window shorter
    // than one segment has no rate.
    assert_eq!(segment_median_rate(&[10.0; 103], 20), 100.0);
    assert!(segment_median_rate(&[10.0; 15], 16).is_nan());
    // A workload's period is a segment: 288 steps in periods of 16, each
    // with one step of 160 ms.
    let ms: Vec<f64> = (0..288)
        .map(|i| if i % 16 == 0 { 160.0 } else { 10.0 })
        .collect();
    assert_eq!(segment_median_rate(&ms, 16), 16.0 / 0.31);
}

#[test]
fn step_times_are_scaled_by_the_speed_samples_around_them() {
    // The box at reference speed before step 0, twice as slow from step 2
    // on, sampled again after the last step.
    let mut log = SpeedLog::default();
    log.push(0, REFERENCE_MS);
    log.push(2, 2.0 * REFERENCE_MS);
    log.push(4, 2.0 * REFERENCE_MS);
    let close = |got: Vec<f64>, want: f64| got.iter().all(|g| (g - want).abs() < 1e-9);
    // Steps 0 and 1 sit between the two readings, steps 2 and 3 after both.
    assert!(close(log.scale(&[15.0, 15.0, 20.0, 20.0]), 10.0));
    assert_eq!(log.slowdown(), 2.0);
    // A sample at one end only is used alone; none leaves the times alone.
    let mut one = SpeedLog::default();
    one.push(1, 2.0 * REFERENCE_MS);
    assert!(close(one.scale(&[8.0, 8.0]), 4.0));
    assert_eq!(SpeedLog::default().scale(&[8.0]), vec![8.0]);
}

#[test]
fn quiet_quarter_keeps_the_quietest_slices_whole() {
    // Events by time: 20 slices of [0, 10); the slowest slices go.
    let events: Vec<(f64, f64)> = (0..1000)
        .map(|i| (i as f64 / 100.0, if i < 600 { 9.0 } else { 3.0 }))
        .collect();
    let slices = time_segments(&events, 0.0, 10.0);
    assert_eq!(slices.len(), SEGMENTS);
    assert!(slices.iter().all(|s| s.len() == 50));
    let kept = quiet_quarter(slices, |s| {
        median(&s.iter().map(|e| e.1).collect::<Vec<_>>())
    });
    assert_eq!(kept.len(), KEPT * 50);
    assert!(kept.iter().all(|e| e.1 == 3.0 && e.0 >= 6.0));
}

#[test]
fn arrival_schedule_is_a_function_of_the_seed() {
    let a = poisson_arrivals(300.0, 3.0, 42);
    assert_eq!(a, poisson_arrivals(300.0, 3.0, 42));
    assert_ne!(a, poisson_arrivals(300.0, 3.0, 43));
    assert_eq!(
        a.len(),
        900,
        "the count is the rate times the duration, whatever the seed"
    );
    assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
    assert!(a[0] > 0.0 && *a.last().unwrap() < 3.0);
    // Exponential gaps: the coefficient of variation of the gaps is near 1,
    // which an evenly spaced schedule (0) would not be.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!(
        (var.sqrt() / mean - 1.0).abs() < 0.15,
        "cv {}",
        var.sqrt() / mean
    );
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    match obj.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn arr_of<'a>(obj: &'a Json, key: &str) -> &'a [Json] {
    match obj.get(key) {
        Some(Json::Arr(a)) => a,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn num_of(obj: &Json, key: &str) -> f64 {
    match obj.get(key) {
        Some(Json::Num(v)) => *v,
        Some(Json::UInt(v)) => *v as f64,
        Some(Json::Int(v)) => *v as f64,
        other => panic!("{key}: expected a number, found {other:?}"),
    }
}

fn assert_same_metrics(listed: &[Json], table: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| str_of(m, "name")).collect();
    let want: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(
        names, want,
        "BENCHMARK.json and metrics.rs list the same names in the same order"
    );
    for (m, d) in listed.iter().zip(table) {
        assert!(
            valid_name(d.name),
            "{:?} is not a valid metric name",
            d.name
        );
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        if with_bound {
            assert_eq!(num_of(m, "bound"), d.bound, "{}", d.name);
            assert!((0.0..=0.25).contains(&d.bound));
        }
    }
}

#[test]
fn benchmark_json_names_exactly_what_a_run_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_same_metrics(arr_of(&spec, "end_to_end"), END_TO_END, true);
    assert_same_metrics(arr_of(&spec, "per_layer"), PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a metric name is used once"
    );

    let workloads: Vec<&str> = arr_of(&spec, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    assert!(ours.iter().all(|n| valid_name(n)));
    for w in arr_of(&spec, "workloads") {
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{}",
            str_of(w, "name")
        );
    }
    assert_eq!(num_of(&spec, "run_seconds"), DEFAULT_SECONDS);
    assert_eq!(arr_of(&spec, "paths"), [Json::Str("benchmark".to_string())]);
}
