//! Fault-drill regression for trace durability: kill a pipeline rank
//! mid-run and verify nothing observability-related is lost — the
//! surviving *and* the isolated rank's slices are still drainable
//! after the group is torn down (per-thread buffers outlive their
//! threads), the failed step leaves a `timed_out` wait slice, and the
//! good step's `mesh_metrics` line, every rank's step event, reaches
//! `metrics.jsonl`.

use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use std::sync::Arc;
use std::time::Duration;
use telemetry::trace::lane;
use tensor::Tensor;

const WIDTH: usize = 16;
const ROWS: usize = 8;
const MBS: usize = 2;

fn build_pipeline(timeout: Duration) -> ThreadedPipelineSamo {
    let model = models::uniform_pipeline_mlp_delayed(
        2,
        WIDTH,
        9_100,
        Duration::from_millis(1),
        Duration::from_millis(1),
    );
    let masks = models::uniform_pipeline_masks(&model, 0.9);
    let cfg = PipelineConfig {
        g_inter: 2,
        g_data: 1,
        microbatches: MBS,
        mb_rows: ROWS,
        max_in_flight: 2,
        timeout,
        force_recompute: true,
    };
    let mut pp =
        ThreadedPipelineSamo::new(vec![model], masks, Optimizer::Adam(AdamConfig::default()), cfg);
    pp.set_scaler(LossScaler::new(1024.0));
    pp
}

fn run_step(pp: &mut ThreadedPipelineSamo) -> Result<bool, String> {
    let xs: Arc<Vec<Tensor>> =
        Arc::new((0..MBS).map(|mb| Tensor::randn(&[ROWS, WIDTH], 1.0, 7_100 + mb as u64)).collect());
    let ts: Arc<Vec<Tensor>> =
        Arc::new((0..MBS).map(|mb| Tensor::randn(&[ROWS, WIDTH], 1.0, 8_100 + mb as u64)).collect());
    pp.step(
        move |_d, mb| xs[mb].clone(),
        move |_d, mb, y, scale| {
            let (_, mut dy) = nn::loss::mse(y, &ts[mb]);
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        },
    )
}

#[test]
fn killed_rank_still_delivers_its_trace_and_metrics() {
    let tmp = std::env::temp_dir().join(format!("samo-trace-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::env::set_var("SAMO_RESULTS_DIR", &tmp);

    let _guard = telemetry::test_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::clock::reset();
    telemetry::trace::take();

    let mut pp = build_pipeline(Duration::from_millis(300));
    assert_eq!(run_step(&mut pp), Ok(true), "healthy step applies");

    // Sever stage 1 from the pipe mesh: the next step must fail within
    // the deadline rather than hang, and the failure must not erase
    // anything already recorded.
    pp.pipe_faults()[0].kill_rank(1, 2);
    let err = run_step(&mut pp).expect_err("step with a dead rank must error");
    assert!(!err.is_empty());

    // Tear the group down while the sinks still hold everything: rank
    // threads exit here, and their buffers must survive that.
    drop(pp);
    telemetry::jsonl::flush();
    telemetry::set_enabled(was);

    let (events, _flows) = telemetry::trace::take();
    let on = |pid: u64| events.iter().filter(move |e| e.pid == pid).collect::<Vec<_>>();
    let (pipe_events, comms_events) = (on(lane::PIPELINE), on(lane::COMMS));

    // Both ranks' pipeline lanes reported the healthy step: per-lane
    // F/B slices plus the step-0 window on each lane.
    let lanes: std::collections::HashSet<u64> = pipe_events.iter().map(|e| e.tid).collect();
    assert!(lanes.len() >= 2, "both stage lanes present, got {lanes:?}");
    let windows: Vec<_> = pipe_events.iter().filter(|e| e.name == "step").collect();
    assert!(
        windows.len() >= 2,
        "step window per rank for the applied step, got {}",
        windows.len()
    );

    // The failed step's deadline wait is visible as a timed-out wait
    // slice from at least one rank.
    let timed_out = comms_events.iter().any(|e| {
        e.cat == "wait"
            && e.args
                .iter()
                .any(|(k, v)| k == "timed_out" && matches!(v, telemetry::json::Json::Bool(true)))
    });
    assert!(timed_out, "dead-neighbour step must record a timed-out wait slice");

    // The group wrote the healthy step's events, one per rank, and the
    // line survived to disk.
    let jsonl = std::fs::read_to_string(tmp.join("metrics.jsonl")).expect("metrics.jsonl written");
    let mesh_lines: Vec<_> =
        jsonl.lines().filter(|l| l.contains("\"kind\":\"mesh_metrics\"")).collect();
    assert!(!mesh_lines.is_empty(), "mesh_metrics line for the applied step");
    let line = telemetry::json::Json::parse(mesh_lines[0]).expect("valid jsonl line");
    let ranks = match line.get("ranks") {
        Some(telemetry::json::Json::UInt(n)) => *n,
        other => panic!("ranks field missing or wrong type: {other:?}"),
    };
    assert_eq!(ranks, 2, "aggregation covered both pipeline ranks");

    std::env::remove_var("SAMO_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&tmp);
}
