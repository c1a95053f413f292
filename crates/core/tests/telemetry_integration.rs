//! End-to-end telemetry: training steps must produce `metrics.jsonl`
//! lines that carry the step's counters, its phase timings off the step
//! ledger, and byte accounting that matches the paper's closed-form
//! model-state size.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::reference::{dense_formula_state_bytes, DataParallelSamo, DenseMaskedTrainer};
use samo::trainer::{formula_state_bytes, SamoTrainer};
use samo::{StageRank, ThreadedDataParallelSamo};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::json::Json;
use telemetry::ledger::Phase;
use tensor::Tensor;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 0.05,
        ..Default::default()
    })
}

/// One scaled forward/backward of `model` on `(x, target)`.
fn fwd_bwd(model: &mut impl Layer, x: &Tensor, target: &Tensor, scale: f32) -> Tensor {
    let y = model.forward(x);
    let (_, mut dy) = mse(&y, target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

fn linear_and_mask() -> (Linear, prune::Mask) {
    (Linear::new(8, 8, false, 1), prune::random_prune(&[8, 8], 0.75, 2))
}

/// The records of `kind` in `data` from line `from` on, parsed.
fn records(data: &str, from: usize, kind: &str) -> Vec<Json> {
    let recs = data.lines().skip(from).map(|l| Json::parse(l).expect("valid JSONL"));
    recs.filter(|r| r.get("kind") == Some(&Json::from(kind))).collect()
}

/// The phases of the step ledger, as a step event's keys.
fn ledger_keys() -> Vec<String> {
    Phase::ALL.iter().map(|p| format!("t_{}", p.name())).collect()
}

/// The seconds a step record charges to `phase`.
fn secs(rec: &Json, phase: Phase) -> f64 {
    num(rec.get(&format!("t_{}", phase.name())))
}

/// The keys of one record, and the phases (`t_<phase>`) among them.
fn keys(rec: &Json) -> (Vec<&str>, Vec<&str>) {
    let Json::Obj(fields) = rec else { panic!("record is not an object: {rec:?}") };
    let names = fields.iter().map(|(k, _)| k.as_str());
    names.partition(|k| !k.starts_with("t_"))
}

/// Routes the JSONL sink to a scratch directory and returns it. The sink
/// opens lazily on the first line, once per process — hence one test
/// function for every runtime, and one directory for both tests here.
fn sink_dir() -> PathBuf {
    let tmp = std::env::temp_dir().join(format!("samo-telemetry-test-{}", std::process::id()));
    std::env::set_var("SAMO_RESULTS_DIR", &tmp);
    tmp
}

/// The last of the two tests that share [`sink_dir`] removes it.
fn finished(dir: &Path) {
    static DONE: AtomicUsize = AtomicUsize::new(0);
    if DONE.fetch_add(1, Ordering::Relaxed) == 1 {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn every_runtime_records_its_ledger_in_the_one_step_schema() {
    let _guard = telemetry::test_lock();
    let tmp = sink_dir();
    let read = || std::fs::read_to_string(tmp.join("metrics.jsonl")).unwrap();
    telemetry::set_enabled(true);
    telemetry::trace::take();

    let (mut model, mask) = linear_and_mask();
    let mut trainer = SamoTrainer::new(&mut model, vec![mask.clone()], adam());
    let x = Tensor::randn(&[4, 8], 1.0, 3);
    let target = Tensor::randn(&[4, 8], 1.0, 4);
    let steps = 3;
    let mut scales = Vec::new();
    for _ in 0..steps {
        scales.push(f64::from(trainer.loss_scale()));
        let dy = fwd_bwd(&mut model, &x, &target, trainer.loss_scale());
        model.backward(&dy);
        trainer.step(&mut model);
    }
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    // Between steps the weight holds no f32 value (it computes from the
    // lent θ16) and no dense gradient: the kept sums, 4·nnz.
    assert_eq!(nn::param::resident_param_bytes(&model), (0, 4 * 16));

    // JSONL: one line per step, each with the loss scale it ran at and
    // the formula matching the measured bytes (Adam: 2φ + 24·nnz); the
    // last one carries the trainer's counters.
    let data = read();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(lines.len(), steps as usize);
    let single = records(&data, 0, "step");
    assert_eq!(single.iter().map(|r| num(r.get("loss_scale"))).collect::<Vec<_>>(), scales);
    let last = &single[steps as usize - 1];
    let taken = uint(last.get("steps_taken"));
    assert_eq!(taken + uint(last.get("steps_skipped")), steps);
    assert_eq!(taken, trainer.steps_taken());

    // Phases: the ledger charged the fused compress kernel every step and
    // the fused optimizer+expand kernel only on applied steps. The engine
    // opens no span timer.
    let (spans, _) = telemetry::trace::take();
    assert!(spans.is_empty(), "{spans:?}");
    let charged = |phase| single.iter().filter(|r| secs(r, phase) > 0.0).count() as u64;
    assert_eq!(charged(Phase::Compress), steps);
    assert_eq!(charged(Phase::Optimizer), taken);
    let phi = trainer.numel() as u64;
    let nnz = trainer.nnz() as u64;
    let formula = formula_state_bytes(&trainer.opt, phi, nnz);
    assert_eq!(formula, 2 * phi + 24 * nnz);
    assert_eq!(formula, trainer.model_state_bytes(true));
    for line in &lines {
        assert!(line.starts_with("{\"kind\":\"step\",\"runtime\":\"samo\""), "line: {line}");
        assert!(
            line.contains(&format!("\"model_state_bytes\":{formula}")),
            "line: {line}"
        );
        assert!(
            line.contains(&format!("\"formula_state_bytes\":{formula}")),
            "line: {line}"
        );
    }

    // The same recorder serves the data-parallel rank run one per process
    // (here one per thread): one `samo_dp_rank` event per group step
    // (from rank 0), with every phase of the ledger; a rank rebuilt on a
    // fresh mesh resumes from the group's checkpoint at the saved step.
    telemetry::set_enabled(true);
    let (old, new) = (comms::InProcTransport::mesh(2), comms::InProcTransport::mesh(2));
    std::thread::scope(|s| {
        for (t, fresh) in old.into_iter().zip(new) {
            let (x, target) = (&x, &target);
            s.spawn(move || {
                let rank = |t| {
                    let (model, mask) = linear_and_mask();
                    StageRank::new(model, &[mask], adam(), comms::Communicator::new(t))
                };
                let mut dp = rank(t);
                for _ in 0..steps {
                    dp.step(|_, m, scale| fwd_bwd(m, x, target, scale)).expect("healthy mesh");
                }
                let ckpt = dp.save().expect("collective save");
                let mut back = rank(fresh);
                back.restore(&ckpt).expect("the group's checkpoint restores");
                assert_eq!(back.engine().steps_taken(), steps, "resumed at the saved step");
            });
        }
    });
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    telemetry::trace::take();
    let data = read();
    let dp = records(&data, steps as usize, "step");
    assert_eq!(dp.len(), steps as usize, "rank 0 alone reports");
    assert_eq!(uint(dp[steps as usize - 1].get("steps_taken")), steps);
    // A rank holds its shard of the compressed state, not `formula`.
    let shard = samo::m_samo_zero_bytes(phi, 1.0 - nnz as f64 / phi as f64, 2) as f64;
    for rec in &dp {
        assert_eq!(rec.get("runtime"), Some(&Json::from("samo_dp_rank")), "{rec:?}");
        assert_eq!(keys(rec).1, ledger_keys(), "every phase: {rec:?}");
        let Some(Json::UInt(held)) = rec.get("model_state_bytes") else { panic!("{rec:?}") };
        assert!((*held as f64 - shard).abs() <= 18.0, "{held} B vs {shard} B: {rec:?}");
    }
    // Only a rank group sees every rank's step duration: bare ranks
    // write no `mesh_metrics` line.
    assert_eq!(records(&data, 0, "mesh_metrics").len(), 0, "{data}");

    // The remaining runtimes, one step each: the sequential oracle, the
    // dense baseline, and the two threaded groups (world 2).
    let already = data.lines().count();
    telemetry::set_enabled(true);
    let replicas = |n| (0..n).map(|_| linear_and_mask().0).collect::<Vec<_>>();
    let mut oracle = DataParallelSamo::new(replicas(2), vec![mask.clone()], adam());
    for r in 0..2 {
        let scale = oracle.loss_scale();
        let dy = fwd_bwd(oracle.replica_mut(r), &x, &target, scale);
        oracle.replica_mut(r).backward(&dy);
    }
    oracle.step();
    let (mut dense_model, _) = linear_and_mask();
    let mut dense = DenseMaskedTrainer::new(&mut dense_model, vec![mask.clone()], adam());
    let dy = fwd_bwd(&mut dense_model, &x, &target, dense.loss_scale());
    dense_model.backward(&dy);
    dense.step(&mut dense_model);
    let mut threaded = ThreadedDataParallelSamo::new(replicas(2), vec![mask.clone()], adam());
    let (xs, ts) = (x.clone(), target.clone());
    threaded.step(move |_, m, scale| fwd_bwd(m, &xs, &ts, scale)).expect("healthy mesh");
    drop(threaded);
    let stage = || Box::new(linear_and_mask().0) as Box<dyn Layer + Send>;
    let pipe_model = Sequential::from_layers(vec![stage(), stage()]);
    let cfg = PipelineConfig::new(2, 2, 4);
    let pipe_masks = vec![mask.clone(), mask.clone()];
    let mut pipe = ThreadedPipelineSamo::new(vec![pipe_model], pipe_masks.clone(), adam(), cfg);
    let (xs, ts) = (x.clone(), target.clone());
    pipe.step(move |_, _| xs.clone(), move |_, _, y, scale| fwd_bwd_grad(y, &ts, scale))
        .expect("healthy pipeline");
    drop(pipe);
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    telemetry::trace::take();

    // Every runtime writes the same record: same fixed keys in the same
    // order and every phase of its ledger, the oracle's and the dense
    // baseline's included.
    let data = read();
    let rest = records(&data, already, "step");
    let runtime = |r: &Json| r.get("runtime").cloned();
    let by_runtime = |name: &str| {
        let mut hits = rest.iter().filter(|r| runtime(r) == Some(Json::from(name)));
        let hit = hits.next().unwrap_or_else(|| panic!("no {name} step record in {data}"));
        assert!(hits.next().is_none(), "one reporting rank per group for {name}");
        hit
    };
    let fixed = keys(&dp[0]).0;
    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(keys(&first).0, fixed);
    assert_eq!(keys(&first).1, ledger_keys());
    for name in ["samo_dp", "dense_masked", "samo_dp_rank", "samo_pipeline"] {
        let (common, phases) = keys(by_runtime(name));
        assert_eq!(common, fixed, "{name} has the common key set");
        assert_eq!(phases, ledger_keys(), "{name} times its step on a ledger");
    }
    for name in ["samo_dp", "dense_masked"] {
        let rec = by_runtime(name);
        let window = num(rec.get("window_us")) * 1e-6;
        let sum: f64 = ledger_keys().iter().map(|k| num(rec.get(k))).sum();
        assert!(window > 0.0 && (sum - window).abs() <= 1e-6 * window.max(1e-3), "{name}: {rec:?}");
    }
    for name in ["samo_dp", "dense_masked", "samo_dp_rank", "samo_pipeline"] {
        let rec = by_runtime(name);
        assert_eq!(uint(rec.get("steps_taken")), 1, "{name}: {rec:?}");
        assert!(uint(rec.get("model_state_bytes")) > 0, "{name}: {rec:?}");
    }

    // Step events ride the rank threads' replies, not the mesh: with
    // telemetry on, a group step sends the bytes it sends with telemetry
    // off, no telemetry message among them, and the group writes one
    // `mesh_metrics` line per step — every rank's step event, in rank
    // order and placed by `(stage, data)`, at the step index the engine
    // took, with the largest of their windows.
    let already = read().lines().count();
    let dp_wire = |on: bool| {
        telemetry::set_enabled(on);
        let mut th = ThreadedDataParallelSamo::new(replicas(3), vec![mask.clone()], adam());
        for _ in 0..steps {
            let (xs, ts) = (x.clone(), target.clone());
            th.step(move |_, m, scale| fwd_bwd(m, &xs, &ts, scale)).expect("healthy mesh");
        }
        let wire: Vec<u64> = th.comm_stats().iter().map(|s| s.wire_bytes).collect();
        telemetry::set_enabled(false);
        wire
    };
    let pipe_wire = |on: bool| {
        telemetry::set_enabled(on);
        let cfg = PipelineConfig { g_data: 2, ..PipelineConfig::new(2, 2, 4) };
        let pipe_model = || Sequential::from_layers(vec![stage(), stage()]);
        let replicas = vec![pipe_model(), pipe_model()];
        let mut pipe = ThreadedPipelineSamo::new(replicas, pipe_masks.clone(), adam(), cfg);
        let (xs, ts) = (x.clone(), target.clone());
        pipe.step(move |_, _| xs.clone(), move |_, _, y, scale| fwd_bwd_grad(y, &ts, scale))
            .expect("healthy pipeline");
        let stats = pipe.stage_stats();
        telemetry::set_enabled(false);
        stats.iter().map(|s| (s.pipe_wire_bytes, s.data_wire_bytes)).collect::<Vec<_>>()
    };
    let (dp_off, pipe_off) = (dp_wire(false), pipe_wire(false));
    telemetry::trace::take();
    assert_eq!(dp_wire(true), dp_off, "data-parallel wire bytes per rank, telemetry on vs off");
    assert_eq!(pipe_wire(true), pipe_off, "pipeline (pipe, data) wire bytes per rank, on vs off");
    let (_, flows) = telemetry::trace::take();
    assert!(!flows.is_empty(), "a traced step records its messages");
    assert!(flows.iter().all(|f| !f.name.starts_with("tel ")), "telemetry on the mesh");
    telemetry::set_enabled(true);
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    let data = read();
    let mesh = records(&data, already, "mesh_metrics");
    assert_eq!(mesh.len(), steps as usize + 1, "one line per group step: {data}");
    let ids = |rec: &Json, keys: &[&str]| -> Vec<Vec<u64>> {
        let Some(Json::Arr(per_rank)) = rec.get("per_rank") else { panic!("{rec:?}") };
        let id = |r: &Json| keys.iter().map(|k| uint(r.get(k))).collect();
        per_rank.iter().map(id).collect()
    };
    for (step, rec) in mesh[..steps as usize].iter().enumerate() {
        assert_eq!((uint(rec.get("step")), uint(rec.get("ranks"))), (step as u64, 3), "{rec:?}");
        assert_eq!(ids(rec, &["stage", "data", "step"]), [[0, 0, step as u64], [0, 1, step as u64], [0, 2, step as u64]]);
        let Some(Json::Arr(per_rank)) = rec.get("per_rank") else { panic!("{rec:?}") };
        assert!(per_rank.iter().all(|r| r.get("runtime") == Some(&Json::from("samo_dp_rank"))), "{rec:?}");
        let widest = per_rank.iter().map(|r| num(r.get("window_us"))).fold(0.0, f64::max);
        assert_eq!(num(rec.get("max_us")), widest, "{rec:?}");
    }
    let pipe_rec = &mesh[steps as usize];
    assert_eq!((uint(pipe_rec.get("step")), uint(pipe_rec.get("ranks"))), (0, 4), "{pipe_rec:?}");
    let placed = ids(pipe_rec, &["stage", "data"]);
    assert_eq!(placed, [[0, 0], [1, 0], [0, 1], [1, 1]], "{pipe_rec:?}");

    // A straggler is a rank that computes longer than the group, not one
    // whose step runs longer — the collectives keep a group in lockstep.
    // At world 2 the lower median is the faster rank's compute time.
    let already = read().lines().count();
    telemetry::set_enabled(true);
    let mut th = ThreadedDataParallelSamo::new(replicas(2), vec![mask.clone()], adam());
    for _ in 0..steps {
        let (xs, ts) = (x.clone(), target.clone());
        th.step(move |rank, m, scale| {
            if rank == 1 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            fwd_bwd(m, &xs, &ts, scale)
        })
        .expect("healthy mesh");
    }
    drop(th);
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    telemetry::trace::take();
    let data = read();
    let mesh = records(&data, already, "mesh_metrics");
    assert_eq!(mesh.len(), steps as usize, "{data}");
    for rec in &mesh {
        let Some(Json::Arr(late)) = rec.get("stragglers") else { panic!("{rec:?}") };
        let named: Vec<_> = late.iter().map(|s| (uint(s.get("stage")), uint(s.get("data")))).collect();
        assert_eq!(named, [(0, 1)], "rank 1 alone lags: {rec:?}");
        let Some(Json::Arr(per_rank)) = rec.get("per_rank") else { panic!("{rec:?}") };
        for r in per_rank {
            let window = num(r.get("window_us")) * 1e-6;
            let sum: f64 = ledger_keys().iter().map(|k| num(r.get(k))).sum();
            assert!((sum - window).abs() <= 1e-6 * window.max(1e-3), "{r:?}");
        }
    }

    finished(&tmp);
}

/// A number field of a record.
fn num(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(n)) => *n,
        // An integral value renders, and parses back, as an integer.
        Some(Json::UInt(n)) => *n as f64,
        other => panic!("not a number field: {other:?}"),
    }
}

/// An unsigned field of a record.
fn uint(v: Option<&Json>) -> u64 {
    match v {
        Some(Json::UInt(n)) => *n,
        other => panic!("not an unsigned field: {other:?}"),
    }
}

/// The pipeline's loss-gradient callback: scaled `d(mse)/d(output)`.
fn fwd_bwd_grad(y: &Tensor, target: &Tensor, scale: f32) -> Tensor {
    let (_, mut dy) = mse(y, target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

#[test]
fn formula_helpers_cover_both_optimizers() {
    use nn::optim::SgdConfig;
    let adam = adam();
    let sgd = Optimizer::Sgd(SgdConfig::default());
    assert_eq!(formula_state_bytes(&adam, 100, 10), 200 + 240);
    assert_eq!(formula_state_bytes(&sgd, 100, 10), 200 + 200);
    assert_eq!(dense_formula_state_bytes(&adam, 100), 2000);
    assert_eq!(dense_formula_state_bytes(&sgd, 100), 1600);
}

/// Telemetry off, a step writes no line and records no trace event:
/// whether the sink is open or not yet, `metrics.jsonl` keeps its lines.
#[test]
fn telemetry_off_writes_no_line_and_records_no_trace_event() {
    let _guard = telemetry::test_lock();
    let tmp = sink_dir();
    let lines = || std::fs::read_to_string(tmp.join("metrics.jsonl")).map_or(0, |d| d.lines().count());
    telemetry::set_enabled(false);
    telemetry::trace::take();
    let before = lines();

    let mut model = Linear::new(6, 6, false, 9);
    let mask = prune::random_prune(&[6, 6], 0.5, 10);
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
    let x = Tensor::randn(&[2, 6], 1.0, 11);
    let target = Tensor::randn(&[2, 6], 1.0, 12);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    trainer.step(&mut model);

    assert_eq!(trainer.steps_taken() + trainer.steps_skipped(), 1, "the step ran");
    assert_eq!(lines(), before);
    assert_eq!(telemetry::trace::take(), (Vec::new(), Vec::new()));
    finished(&tmp);
}
