//! End-to-end telemetry: training steps must produce counters, span
//! timings, and `metrics.jsonl` lines whose byte accounting matches the
//! paper's closed-form model-state size.

use nn::layer::Layer;
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use samo::trainer::{dense_formula_state_bytes, formula_state_bytes, SamoTrainer};
use samo::DistDataParallel;
use tensor::Tensor;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 0.05,
        ..Default::default()
    })
}

#[test]
fn samo_steps_record_counters_spans_and_jsonl() {
    // Route the JSONL sink to a scratch directory. The sink opens
    // lazily on first emit, which only happens inside this test binary
    // while the flag below is set.
    let tmp = std::env::temp_dir().join(format!("samo-telemetry-test-{}", std::process::id()));
    std::env::set_var("SAMO_RESULTS_DIR", &tmp);

    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    telemetry::take_spans();

    let mut model = Linear::new(8, 8, false, 1);
    let mask = prune::random_prune(&[8, 8], 0.75, 2);
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
    let x = Tensor::randn(&[4, 8], 1.0, 3);
    let target = Tensor::randn(&[4, 8], 1.0, 4);
    let steps = 3;
    for _ in 0..steps {
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
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
    // optimizer+expand kernel only on applied steps.
    let spans = telemetry::take_spans();
    let count_of = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
    assert_eq!(count_of("samo.step.compress"), steps);
    assert_eq!(count_of("samo.step.optimizer"), taken);
    // And they feed the histogram of the same name.
    assert_eq!(reg.histogram("samo.step.compress").count(), steps);

    // JSONL: one line per step with the formula matching the measured
    // bytes (Adam: 2φ + 24·nnz).
    let data = std::fs::read_to_string(tmp.join("metrics.jsonl")).unwrap();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(lines.len(), steps as usize);
    let phi = trainer.numel() as u64;
    let nnz = trainer.nnz() as u64;
    let formula = formula_state_bytes(&trainer.opt, phi, nnz);
    assert_eq!(formula, 2 * phi + 24 * nnz);
    assert_eq!(formula, trainer.model_state_bytes(true));
    for line in &lines {
        assert!(line.starts_with("{\"kind\":\"samo\""), "line: {line}");
        assert!(
            line.contains(&format!("\"model_state_bytes\":{formula}")),
            "line: {line}"
        );
        assert!(
            line.contains(&format!("\"formula_state_bytes\":{formula}")),
            "line: {line}"
        );
    }

    // The same recorder serves the cross-process trainer: one `samo_dp`
    // event per group step (from rank 0), its three phases as spans, and
    // a restore counted as a recovery. (Same test function: the JSONL
    // sink is opened once per process.)
    let recoveries = reg.counter("samo.ckpt.recoveries").get();
    let dp_taken = reg.counter("samo.dp.steps_taken").get();
    telemetry::set_enabled(true);
    std::thread::scope(|s| {
        for t in comms::InProcTransport::mesh(2) {
            let (x, target) = (&x, &target);
            s.spawn(move || {
                let mut model = Linear::new(8, 8, false, 1);
                let mask = prune::random_prune(&[8, 8], 0.75, 2);
                let comm = comms::Communicator::new(t);
                let mut dist = DistDataParallel::new(&mut model, vec![mask], adam(), comm);
                for _ in 0..steps {
                    let y = model.forward(x);
                    let (_, mut dy) = mse(&y, target);
                    tensor::ops::scale(dist.loss_scale(), dy.as_mut_slice());
                    model.backward(&dy);
                    dist.step(&mut model).expect("healthy mesh");
                }
                let ckpt = dist.save();
                dist.restore(&ckpt, &mut model).expect("own checkpoint restores");
            });
        }
    });
    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    assert_eq!(reg.counter("samo.dp.steps_taken").get() - dp_taken, steps);
    assert_eq!(reg.counter("samo.ckpt.recoveries").get() - recoveries, 1);
    let spans = telemetry::take_spans();
    for name in ["samo.dp.compress", "samo.dp.allreduce", "samo.dp.optimizer"] {
        let n = spans.iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(n, steps, "span {name}");
    }
    let data = std::fs::read_to_string(tmp.join("metrics.jsonl")).unwrap();
    let dp_lines: Vec<&str> = data.lines().skip(steps as usize).collect();
    assert_eq!(dp_lines.len(), steps as usize);
    for line in dp_lines {
        assert!(line.starts_with("{\"kind\":\"samo_dp\""), "line: {line}");
        for phase in ["\"t_compress\"", "\"t_allreduce\"", "\"t_optimizer\""] {
            assert!(line.contains(phase), "phase {phase} missing: {line}");
        }
        assert!(line.contains(&format!("\"model_state_bytes\":{formula}")), "line: {line}");
    }

    let _ = std::fs::remove_dir_all(&tmp);
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
    assert_eq!(telemetry::span::collected_span_count(), 0);
}
