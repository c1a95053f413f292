//! End-to-end telemetry: training steps must produce counters, phase
//! timings off the step ledger, and `metrics.jsonl` lines whose byte
//! accounting matches the paper's closed-form model-state size.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::reference::{dense_formula_state_bytes, DataParallelSamo, DenseMaskedTrainer};
use samo::trainer::{formula_state_bytes, SamoTrainer};
use samo::{DataParallelRank, ThreadedDataParallelSamo};
use telemetry::json::Json;
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
const LEDGER_KEYS: [&str; 11] = [
    "t_f", "t_b", "t_w", "t_send", "t_wait", "t_remap", "t_compress", "t_reduce", "t_optimizer", "t_gather",
    "t_other",
];

/// The keys of one record, and the phases (`t_<phase>`) among them.
fn keys(rec: &Json) -> (Vec<&str>, Vec<&str>) {
    let Json::Obj(fields) = rec else { panic!("record is not an object: {rec:?}") };
    let names = fields.iter().map(|(k, _)| k.as_str());
    names.partition(|k| !k.starts_with("t_"))
}

#[test]
fn every_runtime_records_counters_spans_and_the_one_step_schema() {
    // Route the JSONL sink to a scratch directory. The sink opens
    // lazily on first emit, which only happens inside this test binary
    // while the flag below is set — hence one test function for every
    // runtime: the sink is opened once per process.
    let tmp = std::env::temp_dir().join(format!("samo-telemetry-test-{}", std::process::id()));
    std::env::set_var("SAMO_RESULTS_DIR", &tmp);
    let read = || std::fs::read_to_string(tmp.join("metrics.jsonl")).unwrap();

    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    telemetry::trace::take();

    let (mut model, mask) = linear_and_mask();
    let mut trainer = SamoTrainer::new(&mut model, vec![mask.clone()], adam());
    let x = Tensor::randn(&[4, 8], 1.0, 3);
    let target = Tensor::randn(&[4, 8], 1.0, 4);
    let steps = 3;
    for _ in 0..steps {
        let dy = fwd_bwd(&mut model, &x, &target, trainer.loss_scale());
        model.backward(&dy);
        trainer.step(&mut model);
    }
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);

    // Counters: every applied/skipped step is accounted for.
    let reg = telemetry::global();
    let taken = reg.counter("samo.steps_taken").get();
    let skipped = reg.counter("samo.steps_skipped").get();
    assert_eq!(taken + skipped, steps);
    assert_eq!(taken, trainer.steps_taken());

    // Gauges: loss scale mirrors the scaler; state bytes high-water mark
    // equals the (constant) measured size.
    assert_eq!(
        reg.gauge("samo.loss_scale").get(),
        f64::from(trainer.loss_scale())
    );
    assert_eq!(
        reg.gauge("samo.model_state_bytes").get(),
        trainer.model_state_bytes(true) as f64
    );

    // Phases: the ledger charged the fused compress kernel every step and
    // the fused optimizer+expand kernel only on applied steps, each into
    // the histogram of its name. The engine opens no span timer.
    let (spans, _) = telemetry::trace::take();
    assert!(!spans.iter().any(|s| s.name.starts_with("samo.step.")), "{spans:?}");
    assert_eq!(reg.histogram("samo.step.compress").count(), steps);
    assert_eq!(reg.histogram("samo.step.optimizer").count(), taken);

    // JSONL: one line per step with the formula matching the measured
    // bytes (Adam: 2φ + 24·nnz).
    let data = read();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(lines.len(), steps as usize);
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
    // (here one per thread): one `samo_dp_threaded` event per group step
    // (from rank 0), with every phase of the ledger, and a restore counted
    // as a recovery.
    let recoveries = reg.counter("samo.ckpt.recoveries").get();
    let dp_taken = reg.counter("samo.dp_threaded.steps_taken").get();
    let optimizer_before = reg.histogram("samo.step.optimizer").count();
    telemetry::set_enabled(true);
    std::thread::scope(|s| {
        for t in comms::InProcTransport::mesh(2) {
            let (x, target) = (&x, &target);
            s.spawn(move || {
                let (model, mask) = linear_and_mask();
                let comm = comms::Communicator::new(t);
                let mut rank = DataParallelRank::new(model, &[mask], adam(), comm);
                for _ in 0..steps {
                    rank.step(|_, m, scale| fwd_bwd(m, x, target, scale)).expect("healthy mesh");
                }
                let ckpt = rank.save().expect("collective save");
                rank.restore(&ckpt).expect("own checkpoint restores");
            });
        }
    });
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    let dp_taken = reg.counter("samo.dp_threaded.steps_taken").get() - dp_taken;
    assert_eq!(dp_taken, steps);
    assert_eq!(reg.counter("samo.ckpt.recoveries").get() - recoveries, 1);
    telemetry::trace::take();
    let optimizer = reg.histogram("samo.step.optimizer").count() - optimizer_before;
    assert_eq!(optimizer, steps, "rank 0 alone reports");
    let data = read();
    let dp = records(&data, steps as usize, "step");
    assert_eq!(dp.len(), steps as usize);
    // A rank holds its shard of the compressed state, not `formula`.
    let shard = samo::m_samo_zero_bytes(phi, 1.0 - nnz as f64 / phi as f64, 2) as f64;
    for rec in &dp {
        assert_eq!(rec.get("runtime"), Some(&Json::from("samo_dp_threaded")), "{rec:?}");
        assert_eq!(keys(rec).1, LEDGER_KEYS, "every phase: {rec:?}");
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
    // order, and the engine's runtimes every phase of the ledger; the
    // oracle and the dense baseline time their own.
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
    for name in ["samo_dp", "dense_masked", "samo_dp_threaded", "samo_pipeline"] {
        assert_eq!(keys(by_runtime(name)).0, fixed, "{name} has the common key set");
    }
    assert_eq!(keys(&Json::parse(lines[0]).unwrap()).0, fixed);
    assert_eq!(keys(by_runtime("samo_dp_threaded")).1, LEDGER_KEYS);
    assert_eq!(keys(by_runtime("samo_pipeline")).1, LEDGER_KEYS);
    assert_eq!(keys(&Json::parse(lines[0]).unwrap()).1, LEDGER_KEYS);
    assert_eq!(keys(by_runtime("samo_dp")).1, ["t_compress", "t_reduce", "t_optimizer"]);
    assert_eq!(keys(by_runtime("dense_masked")).1, ["t_mask_grad", "t_optimizer"]);
    let once = [("samo.dp_threaded", dp_taken + 1), ("samo.pipeline", 1), ("dense", 1)];
    for (prefix, taken) in once {
        assert_eq!(reg.counter(&format!("{prefix}.steps_taken")).get(), taken, "{prefix}");
        assert!(reg.gauge(&format!("{prefix}.model_state_bytes")).get() > 0.0, "{prefix}");
    }
    // The f32 shadows a reporting rank's 8 × 8 weight keeps next to that
    // state: where the caller runs the passes, the sums backward adds dW
    // into at the 16 kept positions, lent between steps beside θ16, 4·nnz
    // (no dense gradient after the first step); on a pipeline stage, the
    // sums its microbatches add dW into, 4·nnz again; nothing on a
    // data-parallel rank, which computes from θ16 and streams dW into ∇θ16.
    let resident = |prefix: &str| reg.gauge(&format!("{prefix}.resident_param_bytes")).get();
    let shadows = ["samo", "samo.pipeline", "samo.dp_threaded"].map(resident);
    assert_eq!(shadows, [4.0 * 16.0, 4.0 * 16.0, 0.0]);

    // Step durations ride the rank threads' replies, not the mesh: with
    // telemetry on, a group step sends the bytes it sends with telemetry
    // off, no telemetry message among them, and the group writes one
    // `mesh_metrics` line per step — one `per_rank` entry per rank, in
    // rank order, at the step index the engine took.
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
        assert_eq!(ids(rec, &["rank"]), [[0], [1], [2]], "{rec:?}");
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
        let named: Vec<u64> = late.iter().map(|s| uint(s.get("rank"))).collect();
        assert_eq!(named, [1], "rank 1 alone lags: {rec:?}");
        let Some(Json::Arr(per_rank)) = rec.get("per_rank") else { panic!("{rec:?}") };
        for r in per_rank {
            let window = num(r.get("window_us")) * 1e-6;
            let sum: f64 = LEDGER_KEYS.iter().map(|k| num(r.get(k))).sum();
            assert!((sum - window).abs() <= 1e-6 * window.max(1e-3), "{r:?}");
        }
    }

    let _ = std::fs::remove_dir_all(&tmp);
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

#[test]
fn disabled_telemetry_adds_no_metrics() {
    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(false);

    let mut model = Linear::new(6, 6, false, 9);
    let mask = prune::random_prune(&[6, 6], 0.5, 10);
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
    let before = telemetry::global().counter("samo.steps_taken").get();
    let x = Tensor::randn(&[2, 6], 1.0, 11);
    let target = Tensor::randn(&[2, 6], 1.0, 12);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    trainer.step(&mut model);

    assert_eq!(telemetry::global().counter("samo.steps_taken").get(), before);
    assert!(telemetry::trace::take().0.is_empty());
}
