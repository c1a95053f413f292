//! The one rank-thread group at its edges: a group numbers a step as its
//! ranks' engines do, after a restore too; it names the place of a rank
//! it does not have; and a 1×G group over the caller's endpoints takes
//! only the fault controller those endpoints were built with.

use comms::{FaultController, InProcTransport};
use nn::activations::Relu;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::ThreadedDataParallelSamo;
use std::sync::Arc;
use std::time::Duration;
use telemetry::json::Json;
use telemetry::trace::lane;
use tensor::Tensor;

const ROWS: usize = 4;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

fn model() -> Sequential {
    Sequential::new()
        .push(Linear::new(6, 8, true, 3))
        .push(Relu::new())
        .push(Linear::new(8, 4, true, 4))
}

/// Half of every weight kept, every bias dense.
fn masks() -> Vec<Mask> {
    let prune = |p: &&nn::Parameter| match p.value.shape() {
        [_, _] => prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5),
        shape => Mask::dense(shape),
    };
    model().params().iter().map(prune).collect()
}

fn cfg(g_inter: usize, g_data: usize) -> PipelineConfig {
    PipelineConfig { g_data, ..PipelineConfig::new(g_inter, 2, ROWS) }
}

fn step(pp: &mut ThreadedPipelineSamo, step: u64) -> Result<bool, String> {
    pp.step(
        move |_, mb| Tensor::randn(&[ROWS, 6], 1.0, 10 * step + mb as u64),
        move |_, mb, y, scale| {
            let (_, mut dy) = mse(y, &Tensor::randn(&[ROWS, 4], 1.0, 1000 + 10 * step + mb as u64));
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        },
    )
}

/// A fresh 2×1 group restored from a checkpoint saved after three steps
/// takes step 3: its `mesh_metrics` line, every rank's record in it and
/// every rank's traced step window say so.
#[test]
fn a_restored_group_numbers_its_steps_as_its_ranks_do() {
    let tmp = std::env::temp_dir().join(format!("samo-one-group-{}", std::process::id()));
    std::env::set_var("SAMO_RESULTS_DIR", &tmp);
    let _guard = telemetry::test_lock();
    let mut trained = ThreadedPipelineSamo::new(vec![model()], masks(), adam(), cfg(2, 1));
    for s in 0..3 {
        step(&mut trained, s).expect("healthy mesh");
    }
    let ckpt = trained.save();
    drop(trained);
    let mut fresh = ThreadedPipelineSamo::new(vec![model()], masks(), adam(), cfg(2, 1));
    fresh.restore(&ckpt).expect("a group's own checkpoint restores");

    telemetry::set_enabled(true);
    telemetry::trace::take();
    step(&mut fresh, 3).expect("healthy mesh");
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    let (events, _) = telemetry::trace::take();

    let data = std::fs::read_to_string(tmp.join("metrics.jsonl")).expect("metrics written");
    let lines = data.lines().map(|l| Json::parse(l).expect("valid JSONL"));
    let mesh: Vec<Json> = lines.filter(|r| r.get("kind") == Some(&Json::from("mesh_metrics"))).collect();
    assert_eq!(mesh.len(), 1, "{data}");
    assert_eq!(mesh[0].get("step"), Some(&Json::UInt(3)), "{data}");
    let Some(Json::Arr(per_rank)) = mesh[0].get("per_rank") else { panic!("{data}") };
    let steps: Vec<_> = per_rank.iter().map(|r| r.get("step").cloned()).collect();
    assert_eq!(steps, [Some(Json::UInt(3)), Some(Json::UInt(3))], "{data}");
    let windows = events.iter().filter(|e| e.pid == lane::PIPELINE && e.name == "step");
    let traced: Vec<_> = windows.map(|e| e.args.iter().find(|(k, _)| k == "step").map(|(_, v)| v.clone())).collect();
    assert_eq!(traced, [Some(Json::UInt(3)), Some(Json::UInt(3))], "{events:?}");
}

#[test]
#[should_panic(expected = "no rank at stage 2 (data 0) of a 2×2 grid")]
fn a_place_outside_the_grid_is_refused() {
    let pp = ThreadedPipelineSamo::new(vec![model(), model()], masks(), adam(), cfg(2, 2));
    pp.with_rank(2, 0, |_, states| states.len());
}

#[test]
#[should_panic(expected = "`faults` must be the controller the endpoints were built with")]
fn a_foreign_fault_controller_is_refused() {
    let foreign = Arc::new(FaultController::new());
    let mesh = InProcTransport::mesh(2);
    let timeout = Duration::from_secs(5);
    ThreadedDataParallelSamo::with_transports(vec![model(), model()], masks(), adam(), timeout, mesh, foreign);
}
