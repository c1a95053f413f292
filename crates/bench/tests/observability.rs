//! One recorder, one step schema, one checked metric table.
//!
//! A single drill drives, with telemetry on, one step of every training
//! runtime (plus a remap, an overflow skip, restores and a rollback),
//! the checkpoint manager and the divergence sentinel, one TCP
//! ring through a heartbeat death and a reconnect, one served request
//! through a hot reload and a rejected publish, and one simulated
//! pipeline. Then it checks the two artefacts the drill leaves in the
//! process:
//!
//! * **the trace** — one `telemetry::trace::take()` holds all four live
//!   lanes; together with the simulated schedule it must keep the
//!   pid/tid/cat/name conventions Perfetto and `repro gate` rely on, and
//!   pair every flow;
//! * **the registry** — its `(name, type)` set, per-rank suffixes and
//!   runtime prefixes normalised, must equal the table between the
//!   `metric-table` markers in DESIGN.md. On a mismatch the test prints
//!   the regenerated table: paste it over the old one.
//!
//! One `#[test]`: the drill owns the process-global recorder, registry
//! and JSONL sink.

use comms::{
    bootstrap_tcp, BootstrapConfig, Communicator, FaultController, HeartbeatConfig,
    InProcTransport, Rendezvous, TcpTransport,
};
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::dynamic::{MaskSchedule, MomentumPruneRegrow};
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::reference::{DataParallelSamo, DenseMaskedTrainer};
use samo::sentinel::{DivergenceSentinel, SentinelConfig};
use samo::trainer::SamoTrainer;
use samo::{CheckpointConfig, CheckpointManager, DataParallelRank, ThreadedDataParallelSamo};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::trace::lane;
use telemetry::{FlowEvent, TraceEvent};
use tensor::f16::F16;
use tensor::Tensor;

const WIDTH: usize = 8;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

fn linear() -> Linear {
    Linear::new(WIDTH, WIDTH, false, 1)
}

fn mask() -> prune::Mask {
    prune::random_prune(&[WIDTH, WIDTH], 0.75, 2)
}

fn batch() -> (Tensor, Tensor) {
    (
        Tensor::randn(&[4, WIDTH], 1.0, 3),
        Tensor::randn(&[4, WIDTH], 1.0, 4),
    )
}

/// Scaled `d(mse)/d(output)`.
fn loss_grad(y: &Tensor, target: &Tensor, scale: f32) -> Tensor {
    let (_, mut dy) = mse(y, target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

/// One scaled forward + backward of `model` on the fixed batch.
fn fwd_bwd(model: &mut impl Layer, scale: f32) {
    let (x, target) = batch();
    let dy = loss_grad(&model.forward(&x), &target, scale);
    model.backward(&dy);
}

/// Polls `done` every few milliseconds; panics naming `what` after 10 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Every single-process runtime, the oracle, the two threaded groups,
/// the data-parallel rank as a process runs it (on an in-process mesh), the checkpoint
/// manager and the sentinel.
fn drive_training(dir: &Path) {
    // Single worker: a remap at step 0, then a planted overflow.
    let mut model = linear();
    let mut trainer = SamoTrainer::new(&mut model, vec![mask()], adam());
    let knots = vec![(0, 0.75), (4, 0.5)];
    trainer.set_mask_schedule(MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
        knots, 1, 0.2,
    )))
    .unwrap();
    for _ in 0..2 {
        fwd_bwd(&mut model, trainer.loss_scale());
        trainer.step(&mut model);
    }
    assert!(trainer.remap_events() >= 1, "the schedule must move a mask");
    fwd_bwd(&mut model, trainer.loss_scale());
    model.params_mut()[0].grad.as_mut_slice()[0] = f32::INFINITY;
    assert!(!trainer.step(&mut model), "an inf gradient skips the step");
    let ckpt = trainer.save();
    trainer
        .rollback(&ckpt, &mut model)
        .expect("own checkpoint rolls back");

    let mut dense_model = linear();
    let mut dense = DenseMaskedTrainer::new(&mut dense_model, vec![mask()], adam());
    fwd_bwd(&mut dense_model, dense.loss_scale());
    dense.step(&mut dense_model);

    let mut oracle = DataParallelSamo::new(vec![linear(), linear()], vec![mask()], adam());
    for r in 0..2 {
        let scale = oracle.loss_scale();
        fwd_bwd(oracle.replica_mut(r), scale);
    }
    oracle.step();
    oracle
        .rank_failure_drill(1)
        .expect("rank 1 resyncs from the checkpoint");

    let mut threaded =
        ThreadedDataParallelSamo::new(vec![linear(), linear()], vec![mask()], adam());
    let step = |_: usize, m: &mut Linear, scale: f32| {
        let (x, target) = batch();
        loss_grad(&m.forward(&x), &target, scale)
    };
    threaded.step(step).expect("healthy mesh");
    drop(threaded);

    let stage = || Box::new(linear()) as Box<dyn Layer + Send>;
    let stages = Sequential::from_layers(vec![stage(), stage()]);
    let cfg = PipelineConfig::new(2, 2, 4);
    let mut pipe = ThreadedPipelineSamo::new(vec![stages], vec![mask(), mask()], adam(), cfg);
    let (x, target) = batch();
    pipe.step(
        move |_, _| x.clone(),
        move |_, _, y, scale| loss_grad(y, &target, scale),
    )
    .expect("healthy pipeline");
    drop(pipe);

    // The rank a process runs: step and save, then rebuilt on a fresh
    // mesh and restored, as after a peer's death.
    let (mut old, mut new) = (InProcTransport::mesh(2), InProcTransport::mesh(2));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (t, fresh) = (old.remove(0), new.remove(0));
            s.spawn(move || {
                let rank = |t| DataParallelRank::new(linear(), &[mask()], adam(), Communicator::new(t));
                let mut dp = rank(t);
                dp.step(step).expect("healthy mesh");
                let ckpt = dp.save().expect("collective save");
                rank(fresh).restore(&ckpt).expect("restore");
            });
        }
    });

    // Durable checkpoints: a stale temp file swept, a write, a publish.
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    std::fs::write(ckpt_dir.join("ckpt-000000000001.samo.tmp"), b"torn").unwrap();
    let mut mgr = CheckpointManager::new(CheckpointConfig::new(&ckpt_dir)).expect("manager");
    mgr.sweep_stale_tmps().expect("sweep");
    mgr.save_and_publish(1, &ckpt).expect("save and publish");

    // The sentinel: a healthy baseline, then a sustained explosion.
    let mut sentinel = DivergenceSentinel::new(SentinelConfig::default());
    for _ in 0..8 {
        sentinel.observe(1.0, 1.0);
    }
    for _ in 0..SentinelConfig::default().patience {
        sentinel.observe(1e6, 1e6);
    }
}

/// Every collective once over loopback TCP with a fast heartbeat, a cut
/// link declared dead, and a second-generation bootstrap.
fn drive_tcp() {
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(10),
        miss_limit: 3,
    };
    let faults = Arc::new(FaultController::new());
    let mesh = TcpTransport::local_mesh_with(2, Arc::clone(&faults), hb).expect("loopback mesh");
    std::thread::scope(|s| {
        for t in mesh {
            let faults = &faults;
            s.spawn(move || {
                let mut comm = Communicator::new(t);
                let (rank, peer) = (comm.rank(), 1 - comm.rank());
                let mut buf = vec![F16::from_f32(rank as f32); 64];
                comm.allreduce_mean_f16(&mut buf).unwrap();
                comm.all_gather_f16(&buf[..4], &[4, 4]).unwrap();
                comm.broadcast_bytes(0, &mut vec![rank as u8; 8]).unwrap();
                comm.barrier().unwrap();
                wait_for("a heartbeat round trip", || {
                    comm.transport().rtt_us(peer).is_some()
                });
                comm.barrier().unwrap();
                // Both directions cut: each monitor starves, warns, then
                // declares its peer dead.
                faults.cut_link(rank, peer);
                wait_for("the peer to be declared dead", || {
                    comm.transport().peer_dead(peer)
                });
            });
        }
    });

    let rdv = Rendezvous::host("127.0.0.1:0", 2).expect("rendezvous");
    let cfg = BootstrapConfig {
        rendezvous_timeout: Duration::from_secs(10),
        connect_retries: 5,
        connect_backoff: Duration::from_millis(20),
        heartbeat: HeartbeatConfig::default(),
    };
    for generation in 0..2 {
        std::thread::scope(|s| {
            for rank in 0..2 {
                let (addr, cfg) = (rdv.addr(), &cfg);
                s.spawn(move || {
                    let faults = Arc::new(FaultController::new());
                    let (_t, info) =
                        bootstrap_tcp(&addr, rank, 2, 0, cfg, faults).expect("bootstrap");
                    assert_eq!(info.generation, generation);
                });
            }
        });
    }
}

/// One request served, one hot reload, one rejected publish.
fn drive_serving(dir: &Path) {
    let dims = [WIDTH, 16, 4];
    let ckpt_dir = dir.join("serve");
    let mut publisher = serve::TrainPublisher::new(&ckpt_dir, &dims, 7).expect("publisher");
    publisher.publish_after(1).expect("first publish");
    let mut cfg = serve::ServeConfig::new(&ckpt_dir);
    cfg.replicas = 2;
    cfg.reload_poll = Duration::from_millis(5);
    let server = serve::Server::start(cfg).expect("server");
    let mut client = serve::ServeClient::connect(server.addr()).expect("client");
    client.infer(&[0.25; WIDTH]).expect("reply");
    publisher.publish_after(1).expect("second publish");
    wait_for("the hot reload", || server.stats().reloads >= 1);
    let mut mgr = CheckpointManager::new(CheckpointConfig::new(&ckpt_dir)).expect("manager");
    mgr.save_and_publish(99, b"not a checkpoint")
        .expect("publish garbage");
    let rejected = telemetry::global().counter("serve.reload_rejected");
    wait_for("the garbage publish to be rejected", || rejected.get() >= 1);
    client
        .infer(&[0.5; WIDTH])
        .expect("still serving after the rejected publish");
    server.stop();
}

/// The simulated pipeline schedule (pid 0) and the substrate counters
/// no step above reaches.
fn drive_simulation() -> Vec<TraceEvent> {
    let spec = axonn_sim::PipelineSpec {
        stages: 3,
        microbatches: 5,
        t_fwd: vec![1.0; 3],
        t_bwd: vec![2.0; 3],
        t_w: vec![0.0; 3],
        msg_bytes: 0,
        gpu_ids: vec![0; 3],
        max_in_flight: 5,
    };
    let machine = &summit_sim::machine::SUMMIT;
    axonn_sim::pipeline::simulate_pipeline(machine, &spec);
    let _ = models::TinyGpt::new(
        models::TinyGptConfig {
            vocab: 8,
            seq: 4,
            dim: 8,
            heads: 2,
            layers: 1,
        },
        1,
    );
    let a = sparse::Csr::from_dense(&[1.0, 0.0, 0.0, 2.0], 2, 2);
    sparse::spmm(&a, &[1.0; 4], 2, &mut [0.0; 4]);
    axonn_sim::chrome_trace_events(&axonn_sim::pipeline::trace_schedule(machine, &spec))
}

/// The conventions of each lane, and flow pairing, over one drain.
fn check_trace(dir: &Path, simulated: Vec<TraceEvent>, live: Vec<TraceEvent>, flows: &[FlowEvent]) {
    let on = |pid: u64| live.iter().filter(move |e| e.pid == pid);
    let pids: BTreeSet<u64> = live.iter().map(|e| e.pid).collect();
    let all = [lane::SPANS, lane::COMMS, lane::PIPELINE, lane::SERVE];
    assert_eq!(
        pids,
        BTreeSet::from(all),
        "one drain holds all four live lanes"
    );
    assert_eq!(
        (lane::SIMULATED, all),
        (0, [1, 2, 3, 4]),
        "Perfetto lanes keep their pids"
    );

    for e in on(lane::SPANS) {
        let known = ["samo.step.", "dense.step.", "comms."]
            .iter()
            .any(|p| e.name.starts_with(p));
        assert!(
            e.cat == "span" && known && e.args.is_empty(),
            "span lane: {e:?}"
        );
    }
    // The phase spans are the oracle's own: the engine's runtimes charge
    // their phases to the step ledger, which feeds histograms.
    for name in ["compress", "reduce", "optimizer"] {
        assert!(
            on(lane::SPANS).any(|e| e.name == format!("samo.step.{name}")),
            "oracle phase span {name}"
        );
    }
    for e in on(lane::COMMS) {
        let starts = |p: &str| e.name.starts_with(p);
        let ok = match e.cat.as_str() {
            "comms" => starts("send ") || starts("ring"),
            "wait" => starts("recv ") || starts("sched wait ") || e.name == "ring stall",
            _ => false,
        };
        assert!(ok, "comms lane: {e:?}");
    }
    let pipe_tids: BTreeSet<u64> = on(lane::PIPELINE).map(|e| e.tid).collect();
    assert_eq!(pipe_tids.len(), 2, "one pipeline tid per stage rank");
    for e in on(lane::PIPELINE) {
        let arg = |k: &str| e.args.iter().any(|(key, _)| key == k);
        let ok = match e.name.as_str() {
            "step" => arg("step") && arg("group"),
            name => matches!(name.as_bytes(), [b'F' | b'B' | b'W', b'0'..=b'9']) && arg("mb"),
        };
        assert!(e.cat == "pipeline" && ok, "pipeline lane: {e:?}");
    }
    assert_eq!(
        on(lane::PIPELINE).filter(|e| e.name == "step").count(),
        2,
        "a step window per rank"
    );
    for e in on(lane::SERVE) {
        let (prefix, replica_tid) = match e.cat.as_str() {
            "queue" => ("queue req ", true),
            "compute" => ("infer n=", true),
            "batch" => ("batch n=", true),
            "reload" => ("reload step=", false),
            other => panic!("serve lane: unknown cat {other}: {e:?}"),
        };
        // Two replicas (tids 0, 1); the watcher is the next tid.
        assert!(
            e.name.starts_with(prefix) && (e.tid < 2) == replica_tid && e.tid <= 2,
            "serve lane: {e:?}"
        );
    }
    for cat in ["queue", "compute", "batch", "reload"] {
        assert!(
            on(lane::SERVE).any(|e| e.cat == cat),
            "a served request leaves a {cat} slice"
        );
    }

    // Flows: comms lane only, `msg`, every id paired exactly once.
    let mut by_id: HashMap<u64, (u32, u32)> = HashMap::new();
    for f in flows {
        assert!(
            (f.pid, f.cat.as_str()) == (lane::COMMS, "msg"),
            "flow: {f:?}"
        );
        let pair = by_id.entry(f.id).or_default();
        *(if f.start { &mut pair.0 } else { &mut pair.1 }) += 1;
    }
    let unpaired: Vec<_> = by_id.iter().filter(|(_, &p)| p != (1, 1)).collect();
    assert!(
        !by_id.is_empty() && unpaired.is_empty(),
        "unpaired flows: {unpaired:?}"
    );

    // The combined document and the step records pass the same gates
    // `repro gate results/trace.json results/metrics.jsonl` runs in CI.
    let mut events = simulated;
    events.extend(live);
    let trace = dir.join("trace.json");
    telemetry::trace::write_chrome_trace_with_flows(&trace, &events, flows).expect("trace written");
    let files = [trace, dir.join("metrics.jsonl")].map(|p| p.to_string_lossy().into_owned());
    bench::gates::run(&files).expect("trace and metrics gates");
}

const TABLE_BEGIN: &str = "<!-- metric-table:begin -->";
const TABLE_END: &str = "<!-- metric-table:end -->";

/// Folds what varies per rank, per GPU and per runtime out of a name.
fn normalise(name: &str) -> String {
    const RUNTIMES: [&str; 5] = [
        "samo.dp_threaded",
        "samo.pipeline",
        "samo.dp",
        "samo",
        "dense",
    ];
    const PER_RUNTIME: [&str; 7] = [
        "steps_taken",
        "steps_skipped",
        "loss_scale",
        "model_state_bytes",
        "resident_param_bytes",
        "allreduce_bytes",
        "remap_events",
    ];
    if name.starts_with("comms.tcp.rtt_us.") {
        return "comms.tcp.rtt_us.<rank>-><peer>".into();
    }
    if name.starts_with("axonn.pipeline.gpu") {
        return "axonn.pipeline.gpu<i>.busy_fraction".into();
    }
    let field = RUNTIMES
        .iter()
        .find_map(|r| name.strip_prefix(r)?.strip_prefix('.'));
    match field {
        Some(field) if PER_RUNTIME.contains(&field) => format!("<runtime>.{field}"),
        _ => name.into(),
    }
}

/// The registry's `(name, type)` set equals DESIGN.md's generated table.
fn check_metric_table() {
    let snap = telemetry::global().snapshot();
    let names = [
        (snap.counters.keys().collect::<Vec<_>>(), "counter"),
        (snap.gauges.keys().collect(), "gauge"),
        (snap.histograms.keys().collect(), "histogram"),
    ];
    let registry: BTreeSet<(String, &str)> = names
        .iter()
        .flat_map(|(names, ty)| names.iter().map(|n| (normalise(n), *ty)))
        .collect();
    let mut table = format!("{TABLE_BEGIN}\n| name | type |\n|---|---|\n");
    for (name, ty) in &registry {
        table += &format!("| `{name}` | {ty} |\n");
    }
    table += TABLE_END;

    let design = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(&design).expect("DESIGN.md");
    let committed = text
        .find(TABLE_BEGIN)
        .zip(text.find(TABLE_END))
        .map(|(a, b)| &text[a..b + TABLE_END.len()])
        .expect("DESIGN.md carries the metric-table markers");
    assert!(
        committed == table,
        "the metric table in DESIGN.md has drifted from the registry; replace it with:\n\n{table}\n"
    );
}

#[test]
fn one_drain_one_step_schema_one_metric_table() {
    let dir = std::env::temp_dir().join(format!("samo-observability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SAMO_RESULTS_DIR", &dir);

    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    telemetry::clock::reset();
    telemetry::trace::take();

    drive_training(&dir);
    drive_tcp();
    drive_serving(&dir);
    let simulated = drive_simulation();

    telemetry::jsonl::flush();
    telemetry::set_enabled(false);
    let (live, flows) = telemetry::trace::take();
    assert!(
        telemetry::trace::take().0.is_empty(),
        "one drain empties the recorder"
    );

    check_trace(&dir, simulated, live, &flows);
    check_metric_table();

    std::env::remove_var("SAMO_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
