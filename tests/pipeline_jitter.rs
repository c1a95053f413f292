//! Integration: where a pipeline stage runs its deferred weight gradients
//! (its Ws) depends on thread timing — in a wait, or right after the next
//! B sends its `dx` — and the timing must never reach a bit. Under seeded
//! per-message jitter on every pipeline and data link, every step's
//! checkpoint bytes equal the single-process `SamoTrainer` and every
//! rank's wire bytes equal the unjittered run's, overflow step included
//! — and so do a 2×2 group's under a prune-and-regrow schedule, whose
//! mask updates remap each stage's state on its data mesh while the other
//! stage may still be running its schedule.
//! Also here: a step that fails with Ws summed and queued — its gradient
//! link cut, or one message on it lost — leaves nothing behind once
//! restored, and what a stage holds for its Ws stays bounded.

use comms::FaultController;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use prune::{Mask, MaskSchedule, MomentumPruneRegrow};
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::SamoTrainer;
use std::sync::Arc;
use std::time::{Duration, Instant};
use summit_sim::StragglerModel;
use tensor::Tensor;

const ROWS: usize = 4;
/// Microbatches per step.
const MB: usize = 4;
const STEPS: u64 = 5;
/// The step whose first microbatch carries a loss gradient of `1e30` on
/// data replica 0 — finite in f32, so every product path agrees on its
/// bits, and past f16's range in `∇θ16`: every rank must skip the step.
const OVERFLOW_STEP: u64 = 2;

/// Seven layers, splittable into two or three stages.
fn model() -> Sequential {
    Sequential::new()
        .push(Linear::new(6, 10, true, 41))
        .push(nn::activations::Relu::new())
        .push(Linear::new(10, 8, false, 42))
        .push(nn::activations::Relu::new())
        .push(Linear::new(8, 8, true, 43))
        .push(nn::activations::Relu::new())
        .push(Linear::new(8, 4, false, 44))
}

fn masks() -> Vec<Mask> {
    let mask = |p: &&nn::param::Parameter| match p.value.shape() {
        shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.6),
        shape => Mask::dense(shape),
    };
    model().params().iter().map(mask).collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig { lr: 0.02, ..Default::default() })
}

/// The same microbatches on every data replica, so the ring mean is exact.
fn batch(step: u64, mb: usize) -> (Tensor, Tensor) {
    let seed = 70_000 + step * 64 + mb as u64;
    (Tensor::randn(&[ROWS, 6], 1.0, seed), Tensor::randn(&[ROWS, 4], 1.0, seed + 5_000))
}

fn scaled_grad(y: &Tensor, step: u64, mb: usize, scale: f32, planted: bool) -> Tensor {
    let (_, mut dy) = mse(y, &batch(step, mb).1);
    tensor::ops::scale(scale, dy.as_mut_slice());
    if planted && step == OVERFLOW_STEP && mb == 0 {
        dy.as_mut_slice()[0] = 1e30;
    }
    dy
}

/// Mask updates at t = 0, 3 and 4, around the overflow step: sparsity
/// 0.6, then 0.71 and 0.75, each also churning a fifth of the kept
/// weights.
fn schedule() -> MaskSchedule {
    MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(vec![(0, 0.6), (4, 0.75)], 3, 0.2))
}

/// The single-process oracle's checkpoint after each of `STEPS` steps,
/// under `schedule` if given.
fn oracle_checkpoints(schedule: Option<&MaskSchedule>) -> Vec<Vec<u8>> {
    let mut m = model();
    let mut trainer = SamoTrainer::new(&mut m, masks(), adam());
    trainer.scaler = LossScaler::new(1024.0);
    if let Some(s) = schedule {
        trainer.set_mask_schedule(s.clone()).expect("installed before the first step");
    }
    let ckpts = (0..STEPS)
        .map(|step| {
            let scale = trainer.loss_scale();
            for mb in 0..MB {
                let y = m.forward(&batch(step, mb).0);
                m.backward(&scaled_grad(&y, step, mb, scale, true));
            }
            assert_eq!(trainer.step(&mut m), step != OVERFLOW_STEP, "oracle verdict at {step}");
            trainer.save().as_ref().to_vec()
        })
        .collect();
    assert!(schedule.is_none() || trainer.remap_events() >= 2, "the masks must move");
    ckpts
}

fn group(g_inter: usize, g_data: usize, timeout: Duration, schedule: Option<&MaskSchedule>) -> ThreadedPipelineSamo {
    let cfg = PipelineConfig {
        g_inter,
        g_data,
        microbatches: MB,
        mb_rows: ROWS,
        max_in_flight: g_inter,
        timeout,
        force_recompute: false,
    };
    let replicas = (0..g_data).map(|_| model()).collect();
    let mut pp = ThreadedPipelineSamo::new(replicas, masks(), adam(), cfg);
    pp.set_scaler(LossScaler::new(1024.0));
    if let Some(s) = schedule {
        pp.set_mask_schedule(s.clone());
    }
    pp
}

fn step(pp: &mut ThreadedPipelineSamo, step: u64) -> Result<bool, String> {
    pp.step(
        move |_, mb| batch(step, mb).0,
        move |data_idx, mb, y, scale| scaled_grad(y, step, mb, scale, data_idx == 0),
    )
}

/// Jitters every directed link of a mesh of `world` ranks, one seeded
/// stream per link.
fn jitter(faults: &FaultController, world: usize, seed: u64) {
    let straggler = StragglerModel { prob: 0.3, slowdown: 4.0 };
    for (from, to) in (0..world).flat_map(|f| (0..world).map(move |t| (f, t))) {
        if from != to {
            let link_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (from * 16 + to) as u64;
            faults.jitter_link(from, to, link_seed, straggler, Duration::from_micros(150));
        }
    }
}

/// Cumulative wire bytes per rank, pipeline and data mesh apart.
fn wire(pp: &mut ThreadedPipelineSamo) -> Vec<(u64, u64)> {
    pp.stage_stats().iter().map(|s| (s.pipe_wire_bytes, s.data_wire_bytes)).collect()
}

/// Eight seeds of jitter on every pipeline and data link of a 2×1, 3×1
/// and 2×2 group, and of a 2×2 group with a mask schedule: after every
/// step, the checkpoint is the oracle's and each rank has sent exactly
/// the bytes of the unjittered run.
#[test]
fn jittered_links_move_the_ws_but_no_bit_and_no_byte() {
    let sparse = schedule();
    for (g_inter, g_data, sched) in [(2usize, 1usize, None), (3, 1, None), (2, 2, None), (2, 2, Some(&sparse))] {
        let want = oracle_checkpoints(sched);
        let grid = format!("{g_inter}x{g_data}{}", if sched.is_some() { " scheduled" } else { "" });
        let mut calm = group(g_inter, g_data, Duration::from_secs(5), sched);
        let mut calm_wire = Vec::new();
        for s in 0..STEPS {
            assert_eq!(step(&mut calm, s), Ok(s != OVERFLOW_STEP), "{grid} step {s}");
            assert_eq!(calm.save().as_ref(), want[s as usize].as_slice(), "{grid} step {s}");
            calm_wire.push(wire(&mut calm));
        }
        for seed in 0..8u64 {
            let mut pp = group(g_inter, g_data, Duration::from_secs(5), sched);
            for f in pp.pipe_faults() {
                jitter(f, g_inter, seed);
            }
            for f in pp.data_faults() {
                jitter(f, g_data, seed ^ 0xDA7A);
            }
            for s in 0..STEPS {
                let at = format!("{grid}, seed {seed}, step {s}");
                assert_eq!(step(&mut pp, s), Ok(s != OVERFLOW_STEP), "{at}: verdict");
                assert_eq!(pp.save().as_ref(), want[s as usize].as_slice(), "{at}: checkpoint bytes");
                assert_eq!(wire(&mut pp), calm_wire[s as usize], "{at}: wire bytes per rank");
            }
        }
    }
}

/// The gradient link from the last stage goes dark while it computes its
/// third microbatch: stage 0 has run two Bs and their Ws into its kept
/// sums, and waits for a `dx` that never comes. The step times out within
/// its deadline; healed and restored, the group replays the oracle's
/// bytes.
#[test]
fn a_gradient_link_cut_mid_step_leaves_no_w_behind() {
    let want = oracle_checkpoints(None);
    let mut pp = group(2, 1, Duration::from_millis(300), None);
    let fail_at = 1u64;
    step(&mut pp, 0).expect("healthy mesh");
    let checkpoint = pp.save();
    assert_eq!(checkpoint.as_ref(), want[0].as_slice());

    let faults = Arc::clone(&pp.pipe_faults()[0]);
    let t0 = Instant::now();
    let err = pp
        .step(
            move |_, mb| batch(fail_at, mb).0,
            move |data_idx, mb, y, scale| {
                if mb == 2 {
                    faults.cut_link(1, 0);
                }
                scaled_grad(y, fail_at, mb, scale, data_idx == 0)
            },
        )
        .expect_err("a cut gradient link must fail the step");
    assert!(err.contains("timed out"), "{err}");
    assert!(t0.elapsed() < Duration::from_secs(10), "took {:?}", t0.elapsed());

    pp.pipe_faults()[0].heal_link(1, 0);
    pp.restore(&checkpoint).expect("restore after heal");
    for s in fail_at..STEPS {
        assert_eq!(step(&mut pp, s), Ok(s != OVERFLOW_STEP), "replayed step {s}");
        assert_eq!(pp.save().as_ref(), want[s as usize].as_slice(), "replayed step {s}");
    }
}

/// One message on replica 0's gradient link is lost — `dx` of the third
/// microbatch, dropped once the last stage has run two Bs, so a W that
/// owns the operands its B handed over is queued when it goes and kept
/// sums are half summed. On a 2×1 and a 2×2 group the step fails with a
/// typed timeout within its deadline, no rank hangs, and the restored
/// group replays the oracle's bytes.
#[test]
fn a_dropped_gradient_message_with_ws_queued_fails_and_replays() {
    let want = oracle_checkpoints(None);
    let fail_at = 1u64;
    for (g_inter, g_data) in [(2usize, 1usize), (2, 2)] {
        let mut pp = group(g_inter, g_data, Duration::from_millis(300), None);
        step(&mut pp, 0).expect("healthy mesh");
        let checkpoint = pp.save();

        let faults = Arc::clone(&pp.pipe_faults()[0]);
        let t0 = Instant::now();
        let err = pp
            .step(
                move |_, mb| batch(fail_at, mb).0,
                move |data_idx, mb, y, scale| {
                    if data_idx == 0 && mb == 2 {
                        faults.drop_next(1, 0, 1);
                    }
                    scaled_grad(y, fail_at, mb, scale, data_idx == 0)
                },
            )
            .expect_err("a lost gradient message must fail the step");
        assert!(err.contains("timed out"), "{g_inter}x{g_data}: {err}");
        assert!(t0.elapsed() < Duration::from_secs(10), "{g_inter}x{g_data} took {:?}", t0.elapsed());

        pp.restore(&checkpoint).expect("restore");
        for s in fail_at..STEPS {
            let at = format!("{g_inter}x{g_data}, replayed step {s}");
            assert_eq!(step(&mut pp, s), Ok(s != OVERFLOW_STEP), "{at}");
            assert_eq!(pp.save().as_ref(), want[s as usize].as_slice(), "{at}");
        }
    }
}

/// A stage holds one microbatch's W operands — `dy` and `x` of each of
/// its weights — and two only between a B and the older W it then runs.
/// W time is part of backward time.
#[test]
fn w_operands_stay_within_two_microbatches() {
    let mut pp = group(2, 1, Duration::from_secs(5), None);
    for s in 0..3 {
        step(&mut pp, s).expect("healthy mesh");
    }
    let stats = pp.stage_stats();
    for (stage, st) in stats.iter().enumerate() {
        let one_mb = pp.with_rank(stage, 0, |block, _| {
            let weights = block.params().into_iter().filter(|p| p.value.shape().len() == 2);
            weights.map(|p| 4 * ROWS * p.value.shape().iter().sum::<usize>()).sum::<usize>() as u64
        });
        let at = format!("stage {stage}: {st:?}");
        assert!((one_mb..=2 * one_mb).contains(&st.w_bytes_peak), "{at}");
        assert!(st.w_s > 0.0 && st.w_s <= st.bwd_s, "{at}");
    }
}
