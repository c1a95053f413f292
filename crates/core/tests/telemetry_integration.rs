//! End-to-end telemetry: training steps must produce counters, span
//! timings, and `metrics.jsonl` lines whose byte accounting matches the
//! paper's closed-form model-state size.

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
use telemetry::trace::lane;
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

/// The step records in `data` from line `from` on, parsed.
fn step_records(data: &str, from: usize) -> Vec<Json> {
    let recs = data.lines().skip(from).map(|l| Json::parse(l).expect("valid JSONL"));
    recs.filter(|r| r.get("kind") == Some(&Json::from("step"))).collect()
}

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

    // Spans: the fused compress kernel ran every step; the fused
    // optimizer+expand kernel only on applied steps. They are slices on
    // the spans lane of the one recorder.
    let (spans, _) = telemetry::trace::take();
    assert!(spans.iter().all(|s| (s.pid, s.cat.as_str()) == (lane::SPANS, "span")));
    let count_of = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
    assert_eq!(count_of("samo.step.compress"), steps);
    assert_eq!(count_of("samo.step.optimizer"), taken);
    // And they feed the histogram of the same name.
    assert_eq!(reg.histogram("samo.step.compress").count(), steps);

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
    // (from rank 0), the optimizer phase as a span — compress and reduce
    // interleave with backward — and a restore counted as a recovery.
    let recoveries = reg.counter("samo.ckpt.recoveries").get();
    let dp_taken = reg.counter("samo.dp_threaded.steps_taken").get();
    let optimizer_spans = reg.histogram("samo.step.optimizer").count();
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
    let (slices, _) = telemetry::trace::take();
    let n = slices.iter().filter(|s| s.pid == lane::SPANS && s.name == "samo.step.optimizer").count();
    assert_eq!(n as u64, steps, "rank 0 alone reports");
    assert_eq!(reg.histogram("samo.step.optimizer").count() - optimizer_spans, steps);
    let data = read();
    let dp = step_records(&data, steps as usize);
    assert_eq!(dp.len(), steps as usize);
    // A rank holds its shard of the compressed state, not `formula`.
    let shard = samo::m_samo_zero_bytes(phi, 1.0 - nnz as f64 / phi as f64, 2) as f64;
    for rec in &dp {
        assert_eq!(rec.get("runtime"), Some(&Json::from("samo_dp_threaded")), "{rec:?}");
        assert_eq!(keys(rec).1, ["t_optimizer"], "overlapped phases: {rec:?}");
        let Some(Json::UInt(held)) = rec.get("model_state_bytes") else { panic!("{rec:?}") };
        assert!((*held as f64 - shard).abs() <= 18.0, "{held} B vs {shard} B: {rec:?}");
    }

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
    let mut pipe = ThreadedPipelineSamo::new(vec![pipe_model], vec![mask.clone(), mask], adam(), cfg);
    let (xs, ts) = (x.clone(), target.clone());
    pipe.step(move |_, _| xs.clone(), move |_, _, y, scale| fwd_bwd_grad(y, &ts, scale))
        .expect("healthy pipeline");
    drop(pipe);
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    telemetry::trace::take();

    // Every runtime writes the same record: same fixed keys in the same
    // order; only the phases its code path times differ.
    let data = read();
    let rest = step_records(&data, already);
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
    // The overlapped drivers time no compress/reduce (both interleave
    // with backward); the optimizer phase is inline in every runtime.
    assert_eq!(keys(by_runtime("samo_dp_threaded")).1, ["t_optimizer"]);
    assert_eq!(keys(by_runtime("samo_pipeline")).1, ["t_optimizer"]);
    assert_eq!(keys(by_runtime("samo_dp")).1, ["t_compress", "t_reduce", "t_optimizer"]);
    assert_eq!(keys(by_runtime("dense_masked")).1, ["t_mask_grad", "t_optimizer"]);
    let once = [("samo.dp_threaded", dp_taken + 1), ("samo.pipeline", 1), ("dense", 1)];
    for (prefix, taken) in once {
        assert_eq!(reg.counter(&format!("{prefix}.steps_taken")).get(), taken, "{prefix}");
        assert!(reg.gauge(&format!("{prefix}.model_state_bytes")).get() > 0.0, "{prefix}");
    }
    // The f32 shadows a reporting rank's 8 × 8 weight keeps next to that
    // state: the gradient backward writes where the caller runs the
    // passes, its weight computing from the θ16 lent between steps; on a
    // pipeline stage, the sums its microbatches add dW into at the 16
    // kept positions, 4·nnz; nothing on a data-parallel rank, which
    // computes from θ16 and streams dW into ∇θ16.
    let resident = |prefix: &str| reg.gauge(&format!("{prefix}.resident_param_bytes")).get();
    let shadows = ["samo", "samo.pipeline", "samo.dp_threaded"].map(resident);
    assert_eq!(shadows, [256.0, 4.0 * 16.0, 0.0]);

    let _ = std::fs::remove_dir_all(&tmp);
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
