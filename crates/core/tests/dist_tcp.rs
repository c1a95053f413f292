//! The data-parallel rank over real TCP sockets — one
//! [`StageRank`] per process in `samo-launch`, one per thread here
//! — is **bitwise interchangeable** with the single-process
//! [`samo::SamoTrainer`] and with the thread group: replicated ranks
//! feeding identical batches through the framed-TCP reduce-scatter save
//! byte-identical checkpoints, ranks on distinct batches save what
//! [`ThreadedDataParallelSamo`] saves, each holds only its shard, and a
//! dead peer surfaces as a bounded `Err` after which a fresh rendezvous
//! generation + rebuilt ranks + `restore` replay bitwise. A step sends one
//! message per gradient bucket and phase, plus the overflow flag.
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
use samo::StageRank;
use samo::SamoTrainer;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const IN: usize = 6;
const OUT: usize = 4;
const BATCH: usize = 5;

type TcpRank = StageRank<Sequential>;

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
/// reduced mean is the local gradient bit for bit and the whole
/// trajectory must match a single-process trainer on that batch.
fn batch_for(step: usize) -> (Tensor, Tensor) {
    let seed = 7_000 + step as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

/// A batch of its own for every rank and step.
fn rank_batch(rank: usize, step: usize) -> (Tensor, Tensor) {
    let seed = 9_000 + (step * 8 + rank) as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

/// Forward on `(x, target)`: the scaled `d(mse)/d(output)`.
fn loss_grad(model: &mut Sequential, (x, target): (Tensor, Tensor), scale: f32) -> Tensor {
    let (_, mut dy) = mse(&model.forward(&x), &target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

fn drive_rank(rank: &mut TcpRank, step: usize) -> Result<bool, comms::CommsError> {
    rank.step(|_, model, scale| loss_grad(model, batch_for(step), scale))
}

fn drive_oracle(oracle: &mut SamoTrainer, model: &mut Sequential, step: usize) -> bool {
    let dy = loss_grad(model, batch_for(step), oracle.loss_scale());
    model.backward(&dy);
    oracle.step(model)
}

/// Runs `body` on one rank per thread over a loopback TCP mesh of
/// `world`, every rank built from the replica of `seed`; returns what
/// each rank's `body` returned, in rank order.
fn over_tcp<R: Send>(world: usize, seed: u64, body: impl Fn(&mut TcpRank) -> R + Sync) -> Vec<R> {
    let transports = TcpTransport::local_mesh(world).unwrap();
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = transports
            .into_iter()
            .map(|t| {
                s.spawn(move || {
                    let comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    let model = build_model(seed);
                    let masks = masks_for(&model, seed + 100);
                    body(&mut StageRank::new(model, &masks, adam(), comm))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn process_ranks_over_tcp_checkpoint_bitwise_equal_to_samo_trainer() {
    for world in [2usize, 4] {
        let steps = 4;
        // Per-step checkpoints from every rank.
        let saved = over_tcp(world, 61, |rank| {
            (0..steps)
                .map(|step| {
                    drive_rank(rank, step).expect("healthy step");
                    rank.save().expect("collective save")
                })
                .collect::<Vec<_>>()
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

/// Distinct batches make every rank's `∇θ16` its own until the ring
/// reduces it, so a save that wrote a rank's own range unreduced — or
/// only that — would differ from the thread group's.
#[test]
fn process_ranks_on_distinct_batches_save_what_the_thread_group_saves() {
    const WORLD: usize = 3;
    let steps = 3;
    let saved = over_tcp(WORLD, 63, |rank| {
        (0..steps)
            .map(|step| {
                rank.step(|r, m, scale| loss_grad(m, rank_batch(r, step), scale)).expect("healthy step");
                rank.save().expect("collective save")
            })
            .collect::<Vec<_>>()
    });

    let replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(63)).collect();
    let masks = masks_for(&replicas[0], 163);
    let mut group = ThreadedDataParallelSamo::new(replicas, masks, adam());
    for step in 0..steps {
        group.step(move |r, m, scale| loss_grad(m, rank_batch(r, step), scale)).expect("inproc step");
        let want = group.save();
        for (rank, ckpts) in saved.iter().enumerate() {
            assert_eq!(
                ckpts[step].as_ref(),
                want.as_ref(),
                "rank {rank} diverged from the thread group at step {step}"
            );
        }
    }
}

/// Each rank holds `2φ + 6fφ + 18fφ/G` (ZeRO-1 over the compressed
/// state), within one element of rounding per tensor — the bound the
/// `dp2_tcp_*` workloads check on the thread group.
#[test]
fn each_process_rank_holds_its_shard_of_the_state() {
    for world in [2usize, 4] {
        let held = over_tcp(world, 65, |rank| {
            drive_rank(rank, 0).expect("healthy step");
            let e = rank.engine();
            (e.model_state_bytes(true), e.numel() as u64, e.nnz() as u64, e.layers.len() as u64)
        });
        for (r, &(measured, phi, nnz, tensors)) in held.iter().enumerate() {
            let p = 1.0 - nnz as f64 / phi as f64;
            let formula = samo::m_samo_zero_bytes(phi, p, world as u64);
            assert!(
                measured.abs_diff(formula) <= 18 * tensors,
                "world {world}, rank {r}: {measured} B held vs {formula} B sharded"
            );
        }
    }
}

#[test]
fn threaded_group_over_tcp_endpoints_matches_inproc_mesh_bitwise() {
    const WORLD: usize = 2;
    // Per-rank (distinct) batches this time: the property under test is
    // transport-agnosticism of the threaded runtime, not replication.
    let step_fn = move |step: usize| {
        move |rank: usize, model: &mut Sequential, scale: f32| {
            loss_grad(model, rank_batch(rank, step), scale)
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
fn dead_peer_errors_then_new_generation_restore_replays_bitwise() {
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
                    let join = |epoch, generation| {
                        let (t, info) =
                            bootstrap_tcp(&addr, rank, WORLD, epoch, &cfg, Arc::clone(&faults))
                                .unwrap();
                        assert_eq!(info.generation, generation);
                        let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                        comm.adopt_epoch(info.epoch);
                        let model = build_model(71);
                        let masks = masks_for(&model, 171);
                        StageRank::new(model, &masks, adam(), comm)
                    };
                    // Generation 0: assemble, train, checkpoint.
                    let mut dp = Some(join(0, 0));
                    for step in 0..steps_before {
                        drive_rank(dp.as_mut().unwrap(), step).expect("pre-failure step");
                    }
                    let ckpt = dp.as_mut().unwrap().save().expect("collective save");
                    let epoch = if rank == 1 {
                        // "SIGKILL": rank 1's process dies, closing its
                        // sockets mid-group.
                        dp = None;
                        0 // the relaunched process starts at epoch 0
                    } else {
                        // The survivor's next step must fail fast (EOF
                        // or heartbeat), never hang.
                        let d = dp.as_mut().unwrap();
                        let err = drive_rank(d, steps_before)
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
                        // A retry before the restore is refused, not a
                        // panic: the failed step's rings kept `∇θ16`,
                        // which the next compress re-creates.
                        assert_eq!(drive_rank(d, steps_before), Err(comms::CommsError::Poisoned));
                        d.comm_mut().epoch()
                    };
                    drop(dp);

                    // Generation 1: everyone (survivor + relaunched rank)
                    // rejoins the same rendezvous and rebuilds its rank on
                    // the new communicator.
                    let mut dp = join(epoch, 1);
                    // Rank 0 ships the agreed checkpoint to the fresh rank.
                    let mut bytes = if rank == 0 { ckpt.to_vec() } else { Vec::new() };
                    dp.comm_mut().broadcast_bytes(0, &mut bytes).unwrap();
                    dp.restore(&bytes).expect("restore on rejoin");
                    for step in steps_before..steps_total {
                        drive_rank(&mut dp, step).expect("post-restore step");
                    }
                    dp.save().expect("collective save")
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

/// The benchmark's data-parallel model: `Linear`s of `dims` with a GELU
/// between them, weights of at least 1,024 values pruned to p = 0.9 by
/// magnitude, biases dense.
fn bench_model(dims: &[usize]) -> (Sequential, Vec<Mask>) {
    let mut model = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        model = model.push(Linear::new(w[0], w[1], true, 40 + i as u64));
        if i + 2 < dims.len() {
            model = model.push(nn::activations::Gelu::new());
        }
    }
    let masks = model
        .params()
        .iter()
        .map(|p| match p.value.shape() {
            shape if shape.len() == 2 && p.numel() >= 1024 => prune::magnitude_prune(p.value.as_slice(), shape, 0.9),
            shape => Mask::dense(shape),
        })
        .collect();
    (model, masks)
}

/// The message census of a world-2 step over TCP: a reduce-scatter and an
/// all-gather message per gradient bucket and the overflow flag. The
/// twelve 128-wide layers of `dp2_tcp_deep` (21,192 kept values, 42 KB of
/// f16) are one bucket — 3 messages a rank, where a ring and a gather per
/// tensor sent 49 — and the three layers of `dp2_tcp_wide` a bucket each,
/// every weight past the bucket size with its bias riding along: 7.
#[test]
fn a_step_sends_one_message_per_bucket_and_phase() {
    let deep = [128usize; 13];
    for (dims, want) in [(&deep[..], 3u64), (&[256, 2048, 2048, 256][..], 7)] {
        let (d_in, d_out) = (dims[0], dims[dims.len() - 1]);
        let transports = TcpTransport::local_mesh(2).unwrap();
        let sent: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = transports
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let (model, masks) = bench_model(dims);
                        let comm = Communicator::new(t).with_timeout(Duration::from_secs(20));
                        let mut dp = StageRank::new(model, &masks, adam(), comm);
                        (0..3u64)
                            .map(|step| {
                                let before = dp.comm_mut().transport().msgs_sent();
                                let seed = 500 + 10 * step + dp.comm_mut().rank() as u64;
                                let batch = (Tensor::randn(&[1, d_in], 1.0, seed), Tensor::randn(&[1, d_out], 1.0, !seed));
                                dp.step(|_, model, scale| loss_grad(model, batch, scale)).expect("step");
                                dp.comm_mut().transport().msgs_sent() - before
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, sent) in sent.iter().enumerate() {
            assert_eq!(sent, &[want; 3], "dims {dims:?}, rank {rank}: messages per step");
        }
    }
}
