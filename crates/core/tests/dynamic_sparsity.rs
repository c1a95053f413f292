//! Dynamic sparsity across runtimes: a [`MaskSchedule`] driving
//! prune-and-regrow mask evolution (including a densification phase)
//! produces **bitwise-identical** checkpoints between the
//! single-process [`samo::SamoTrainer`], the thread-per-rank
//! [`ThreadedDataParallelSamo`] over the in-process mesh, the same
//! runtime over loopback-TCP endpoints, and its rank run one per process
//! ([`StageRank`], the `samo-launch` path) — replicated
//! data parallelism, so the ring-reduced grow score equals the local
//! one bit for bit and every runtime computes the same masks without a
//! broadcast.

use comms::{Communicator, FaultController, HeartbeatConfig, TcpTransport};
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::threaded::ThreadedDataParallelSamo;
use samo::StageRank;
use samo::SamoTrainer;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const IN: usize = 6;
const OUT: usize = 4;
const BATCH: usize = 5;
const STEPS: usize = 14;

fn build_model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, 10, true, seed))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(10, OUT, true, seed + 1))
}

/// Every parameter tensor starts at the schedule's initial sparsity —
/// the t = 0 update then only churns (swap), and later updates walk
/// the trajectory through a sparsify leg and back down a densify leg.
fn masks_for(model: &Sequential) -> Vec<prune::Mask> {
    model
        .params()
        .iter()
        .map(|p| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.3))
        .collect()
}

/// Update steps fire at t = 0, 3, 6, 9, 12: sparsity 0.30 → 0.525 →
/// 0.75 (knot) → 0.50 → 0.25 (knot) — at least three mask changes and
/// the final two are densifications.
fn schedule() -> MaskSchedule {
    MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
        vec![(0, 0.30), (6, 0.75), (12, 0.25)],
        3,
        0.1,
    ))
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// Replicated data parallelism: every rank sees the SAME batch.
fn batch_for(step: usize) -> (Tensor, Tensor) {
    let seed = 37_000 + step as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

fn drive_oracle(oracle: &mut SamoTrainer, model: &mut Sequential, step: usize) -> bool {
    let (x, target) = batch_for(step);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(oracle.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    oracle.step(model)
}

/// The bits of every parameter tensor's f32 view.
fn view_bits(model: &Sequential) -> Vec<Vec<u32>> {
    let bits = |p: &&nn::Parameter| p.f32_view().iter().map(|v| v.to_bits()).collect();
    model.params().iter().map(bits).collect()
}

/// Per step: the oracle's checkpoint, its nnz, and its model's f32 view.
type OracleRun = (Vec<bytes::Bytes>, Vec<usize>, Vec<Vec<Vec<u32>>>);

fn oracle_run() -> OracleRun {
    let mut model = build_model(91);
    let mut oracle = SamoTrainer::new(&mut model, masks_for(&build_model(91)), adam());
    oracle.set_mask_schedule(schedule()).unwrap();
    let mut ckpts = Vec::with_capacity(STEPS);
    let mut nnzs = Vec::with_capacity(STEPS);
    let mut views = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        drive_oracle(&mut oracle, &mut model, step);
        ckpts.push(oracle.save());
        nnzs.push(oracle.nnz());
        views.push(view_bits(&model));
    }
    assert!(oracle.remap_events() >= 3, "schedule must actually move the masks");
    (ckpts, nnzs, views)
}

/// One step of a threaded group against the oracle's: checkpoint bytes,
/// the nnz mirror, and every rank's model — a shard's fused step writes
/// the f32 view at unpruned positions only, so a position a remap killed
/// must have been zeroed by the remap's full widen, on every rank.
///
/// The threaded runtime streams the weight gradients and holds no dense
/// buffer for them after any step, update steps included: their Bs log
/// the operands the grow score streams from (equality with the oracle
/// across the remap is the proof it ranked the real gradient), and the
/// step that ran them releases the dense buffers the model was built with.
fn assert_step_matches(
    th: &mut ThreadedDataParallelSamo<Sequential>,
    step: usize,
    (want, nnzs, views): &OracleRun,
) {
    assert_eq!(th.save().as_ref(), want[step].as_ref(), "diverged from SamoTrainer at step {step}");
    assert_eq!(th.nnz(), nnzs[step], "nnz mirror stale at step {step}");
    let biases = 10 + OUT;
    for r in 0..th.world_size() {
        let view = th.with_rank(r, |m, _| view_bits(m));
        assert_eq!(view, views[step], "rank {r}'s model diverged at step {step}");
        let grads = th.with_rank(r, |m, _| nn::param::resident_param_bytes(m).1);
        assert_eq!(grads, 4 * biases, "rank {r}'s dense gradients after step {step}");
    }
}

/// On every step — update steps included — the closure finds the model
/// in its training form: of f32 values the biases alone, each weight
/// computing from its lent `θ16`. An update step ranks the weights by
/// magnitude from a transient widening of `θ16` after that window has
/// closed; [`assert_step_matches`] then finds the oracle's masks.
fn threaded_step(
    th: &mut ThreadedDataParallelSamo<Sequential>,
    step: usize,
) -> Result<bool, String> {
    th.step(move |rank, m, scale| {
        let (x, target) = batch_for(step);
        let y = m.forward(&x);
        let values = nn::param::resident_param_bytes(m).0;
        assert_eq!(values, 4 * (10 + OUT), "rank {rank} holds f32 weights at step {step}");
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    })
}

/// The nnz trajectory itself must evolve in both directions — proof the
/// run really pruned *and* regrew (densified) rather than clamping.
fn assert_bidirectional(nnzs: &[usize]) {
    assert!(
        nnzs.windows(2).any(|w| w[1] < w[0]),
        "nnz never shrank: {nnzs:?}"
    );
    assert!(
        nnzs.windows(2).any(|w| w[1] > w[0]),
        "nnz never grew (no densification): {nnzs:?}"
    );
}

#[test]
fn threaded_mesh_matches_single_process_across_remaps() {
    let oracle = oracle_run();
    assert_bidirectional(&oracle.1);

    let world = 3;
    let replicas: Vec<Sequential> = (0..world).map(|_| build_model(91)).collect();
    let masks = masks_for(&replicas[0]);
    let mut th = ThreadedDataParallelSamo::new(replicas, masks, adam());
    th.set_mask_schedule(schedule());
    for step in 0..STEPS {
        threaded_step(&mut th, step).expect("healthy mesh");
        assert_step_matches(&mut th, step, &oracle);
    }
}

#[test]
fn threaded_tcp_matches_single_process_across_remaps() {
    let oracle = oracle_run();

    let world = 2;
    let replicas: Vec<Sequential> = (0..world).map(|_| build_model(91)).collect();
    let masks = masks_for(&replicas[0]);
    let faults = Arc::new(FaultController::new());
    let mesh = TcpTransport::local_mesh_with(world, Arc::clone(&faults), HeartbeatConfig::default())
        .unwrap();
    let mut th = ThreadedDataParallelSamo::with_transports(
        replicas,
        masks,
        adam(),
        Duration::from_secs(10),
        mesh,
        faults,
    );
    th.set_mask_schedule(schedule());
    for step in 0..STEPS {
        threaded_step(&mut th, step).expect("healthy TCP mesh");
        assert_step_matches(&mut th, step, &oracle);
    }
}

/// The `samo-launch` rank: one [`StageRank`] per rank thread over
/// real TCP sockets, each installing the same schedule. Epoch
/// renegotiation runs in lockstep on every mask change, shards migrate
/// through the remap's gather, and each rank's per-step collective save
/// equals the single-process checkpoint.
#[test]
fn dist_tcp_matches_single_process_across_remaps() {
    let (want, _, _) = oracle_run();

    let world = 2;
    let transports = TcpTransport::local_mesh(world).unwrap();
    let saved: Vec<(Vec<bytes::Bytes>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .map(|t| {
                s.spawn(move || {
                    let comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    let model = build_model(91);
                    let masks = masks_for(&model);
                    let mut dp = StageRank::new(model, &masks, adam(), comm);
                    dp.set_mask_schedule(schedule());
                    let mut ckpts = Vec::with_capacity(STEPS);
                    for step in 0..STEPS {
                        dp.step(|_, model, scale| {
                            let (x, target) = batch_for(step);
                            let (_, mut dy) = mse(&model.forward(&x), &target);
                            tensor::ops::scale(scale, dy.as_mut_slice());
                            dy
                        })
                        .expect("healthy step");
                        ckpts.push(dp.save().expect("collective save"));
                    }
                    (ckpts, dp.engine().remap_events())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (rank, (ckpts, remaps)) in saved.iter().enumerate() {
        assert!(*remaps >= 3, "rank {rank} applied only {remaps} remaps");
        for step in 0..STEPS {
            assert_eq!(
                ckpts[step].as_ref(),
                want[step].as_ref(),
                "rank {rank} diverged from SamoTrainer at step {step}"
            );
        }
    }
}

/// Golden bytes: the fourteen checkpoints of the oracle run — five mask
/// updates through the selection kernel, every section through the
/// checkpoint writer — hash to the value they hashed to before either
/// was rewritten (FNV-1a, so the pin does not lean on `crc32` itself).
#[test]
fn oracle_checkpoints_are_byte_identical_to_the_pinned_golden() {
    let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    let (ckpts, _, _) = oracle_run();
    let hash = ckpts.iter().flat_map(|c| c.iter()).fold(0xCBF2_9CE4_8422_2325, fnv);
    let bytes: usize = ckpts.iter().map(|c| c.len()).sum();
    assert_eq!((bytes, hash), (17_466, 1_427_634_495_236_802_443), "checkpoint bytes moved");
}
