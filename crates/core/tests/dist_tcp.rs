//! The cross-process trainer over real TCP sockets is **bitwise
//! interchangeable** with the single-process [`samo::SamoTrainer`]:
//! replicated ranks feeding identical batches through the framed-TCP
//! ring all-reduce save byte-identical checkpoints, the thread-per-rank
//! runtime produces the same bits over TCP endpoints as over the
//! in-process mesh, and a dead peer surfaces as a bounded `Err` after
//! which a fresh rendezvous generation + `resync` replays bitwise.
//!
//! (CI's multiproc job additionally runs the same equivalence across
//! real OS processes via `samo-launch`; these tests keep the property
//! under `cargo test` with in-process rank threads.)

use comms::{
    bootstrap_tcp, BootstrapConfig, Communicator, FaultController, HeartbeatConfig, Rendezvous,
    TcpTransport, Transport,
};
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::threaded::ThreadedDataParallelSamo;
use samo::{DistDataParallel, SamoTrainer};
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const IN: usize = 6;
const OUT: usize = 4;
const BATCH: usize = 5;

fn build_model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, 10, true, seed))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(10, OUT, true, seed + 1))
}

fn masks_for(model: &Sequential, seed: u64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if p.value.shape().len() >= 2 {
                prune::random_prune(p.value.shape(), 0.8, seed + i as u64)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// Replicated data parallelism: every rank sees the SAME batch, so the
/// all-reduced mean is the local gradient bit for bit and the whole
/// trajectory must match a single-process trainer on that batch.
fn batch_for(step: usize) -> (Tensor, Tensor) {
    let seed = 7_000 + step as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

fn drive_dist<T: Transport>(
    dist: &mut DistDataParallel<T>,
    model: &mut Sequential,
    step: usize,
) -> Result<bool, comms::CommsError> {
    let (x, target) = batch_for(step);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(dist.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    dist.step(model)
}

fn drive_oracle(oracle: &mut SamoTrainer, model: &mut Sequential, step: usize) -> bool {
    let (x, target) = batch_for(step);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(oracle.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    oracle.step(model)
}

#[test]
fn dist_trainer_over_tcp_checkpoints_bitwise_equal_to_samo_trainer() {
    for world in [2usize, 4] {
        let steps = 4;
        let transports = TcpTransport::local_mesh(world).unwrap();
        // Per-step checkpoints from every rank.
        let saved: Vec<Vec<bytes::Bytes>> = std::thread::scope(|s| {
            let handles: Vec<_> = transports
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                        let mut model = build_model(61);
                        let masks = masks_for(&model, 161);
                        let mut dist = DistDataParallel::new(&mut model, masks, adam(), comm);
                        let mut ckpts = Vec::with_capacity(steps);
                        for step in 0..steps {
                            drive_dist(&mut dist, &mut model, step).expect("healthy step");
                            ckpts.push(dist.save());
                        }
                        ckpts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut model = build_model(61);
        let masks = masks_for(&model, 161);
        let mut oracle = SamoTrainer::new(&mut model, masks, adam());
        for step in 0..steps {
            drive_oracle(&mut oracle, &mut model, step);
            let want = oracle.save();
            for (rank, ckpts) in saved.iter().enumerate() {
                assert_eq!(
                    ckpts[step].as_ref(),
                    want.as_ref(),
                    "world {world}, rank {rank} diverged from SamoTrainer at step {step}"
                );
            }
        }
    }
}

#[test]
fn threaded_group_over_tcp_endpoints_matches_inproc_mesh_bitwise() {
    const WORLD: usize = 2;
    // Per-rank (distinct) batches this time: the property under test is
    // transport-agnosticism of the threaded runtime, not replication.
    let rank_batch = |rank: usize, step: usize| {
        let seed = 9_000 + (step * WORLD + rank) as u64;
        (
            Tensor::randn(&[BATCH, IN], 1.0, seed),
            Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
        )
    };
    let step_fn = move |step: usize| {
        move |rank: usize, model: &mut Sequential, scale: f32| {
            let (x, target) = rank_batch(rank, step);
            let y = model.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        }
    };

    let replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(67)).collect();
    let masks = masks_for(&replicas[0], 167);
    let faults = Arc::new(FaultController::new());
    let tcp_mesh =
        TcpTransport::local_mesh_with(WORLD, Arc::clone(&faults), HeartbeatConfig::default())
            .unwrap();
    let mut over_tcp = ThreadedDataParallelSamo::with_transports(
        replicas,
        masks.clone(),
        adam(),
        Duration::from_secs(10),
        tcp_mesh,
        faults,
    );
    let inproc_replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(67)).collect();
    let mut over_inproc = ThreadedDataParallelSamo::new(inproc_replicas, masks, adam());

    for step in 0..4 {
        let a = over_tcp.step(step_fn(step)).expect("tcp step");
        let b = over_inproc.step(step_fn(step)).expect("inproc step");
        assert_eq!(a, b, "verdict at step {step}");
        assert_eq!(
            over_tcp.save().as_ref(),
            over_inproc.save().as_ref(),
            "TCP and in-process runs diverged at step {step}"
        );
    }
}

#[test]
fn dead_peer_errors_then_new_generation_resync_replays_bitwise() {
    const WORLD: usize = 2;
    let steps_before = 2;
    let steps_total = 4;
    let rdv = Rendezvous::host("127.0.0.1:0", WORLD).unwrap();
    let addr = rdv.addr();
    let cfg = BootstrapConfig {
        rendezvous_timeout: Duration::from_secs(30),
        heartbeat: HeartbeatConfig { interval: Duration::from_millis(25), miss_limit: 8 },
        ..BootstrapConfig::default()
    };

    let finals: Vec<bytes::Bytes> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let addr = addr.clone();
                s.spawn(move || {
                    let faults = Arc::new(FaultController::new());
                    // Generation 0: assemble, train, checkpoint.
                    let (t, info) =
                        bootstrap_tcp(&addr, rank, WORLD, 0, &cfg, Arc::clone(&faults)).unwrap();
                    assert_eq!(info.generation, 0);
                    let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    comm.adopt_epoch(info.epoch);
                    let mut model = build_model(71);
                    let masks = masks_for(&model, 171);
                    let mut dist =
                        Some(DistDataParallel::new(&mut model, masks.clone(), adam(), comm));
                    for step in 0..steps_before {
                        drive_dist(dist.as_mut().unwrap(), &mut model, step)
                            .expect("pre-failure step");
                    }
                    let ckpt = dist.as_ref().unwrap().save();
                    let survivor_epoch = if rank == 1 {
                        // "SIGKILL": rank 1's process dies, closing its
                        // sockets mid-group.
                        dist = None;
                        0 // the relaunched process starts at epoch 0
                    } else {
                        // The survivor's next step must fail fast (EOF
                        // or heartbeat), never hang.
                        let d = dist.as_mut().unwrap();
                        let err = drive_dist(d, &mut model, steps_before)
                            .expect_err("step with a dead peer must error");
                        assert!(
                            matches!(
                                err,
                                comms::CommsError::Closed { .. }
                                    | comms::CommsError::PeerDead { .. }
                                    | comms::CommsError::Timeout { .. }
                            ),
                            "got {err:?}"
                        );
                        // A retry before the resync is refused, not a
                        // panic: the failed step's rings kept `∇θ16`,
                        // which the next compress re-creates.
                        assert_eq!(
                            drive_dist(d, &mut model, steps_before),
                            Err(comms::CommsError::Poisoned)
                        );
                        d.comm_mut().epoch()
                    };

                    // Generation 1: everyone (survivor + relaunched rank)
                    // rejoins the same rendezvous.
                    let (t2, info2) =
                        bootstrap_tcp(&addr, rank, WORLD, survivor_epoch, &cfg, faults).unwrap();
                    assert_eq!(info2.generation, 1);
                    let mut comm2 = Communicator::new(t2).with_timeout(Duration::from_secs(10));
                    comm2.adopt_epoch(info2.epoch);

                    // Rank 0 ships the agreed checkpoint to the fresh rank.
                    let mut bytes = if rank == 0 { ckpt.to_vec() } else { Vec::new() };
                    comm2.broadcast_bytes(0, &mut bytes).unwrap();

                    if rank == 1 {
                        // Relaunched process: fresh model + trainer, then
                        // restore the broadcast state and rejoin.
                        model = build_model(71);
                        let mut fresh = DistDataParallel::new(&mut model, masks, adam(), comm2);
                        fresh.restore(&bytes, &mut model).expect("restore on rejoin");
                        fresh.comm_mut().barrier().unwrap();
                        dist = Some(fresh);
                    } else {
                        // Survivor: install the new communicator and roll
                        // back to the agreed checkpoint in one move.
                        dist.as_mut()
                            .unwrap()
                            .resync(comm2, &bytes, &mut model)
                            .expect("survivor resync");
                    }

                    let dist = dist.as_mut().unwrap();
                    for step in steps_before..steps_total {
                        drive_dist(dist, &mut model, step).expect("post-resync step");
                    }
                    dist.save()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Oracle: a never-failed single-process run over the same batches.
    let mut model = build_model(71);
    let masks = masks_for(&model, 171);
    let mut oracle = SamoTrainer::new(&mut model, masks, adam());
    for step in 0..steps_total {
        drive_oracle(&mut oracle, &mut model, step);
    }
    let want = oracle.save();
    for (rank, got) in finals.iter().enumerate() {
        assert_eq!(
            got.as_ref(),
            want.as_ref(),
            "rank {rank}'s post-recovery checkpoint diverged from the oracle"
        );
    }
}
