//! Integration: the fault-tolerance stack end to end — durable on-disk
//! checkpoints and kill-and-resume bitwise identity, all through the
//! public API. A run has one recovery path: every rank restores the one
//! checkpoint.

use nn::activations::Gelu;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use prune::Mask;
use samo::checkpoint::{CheckpointConfig, CheckpointManager};
use samo::reference::DataParallelSamo;
use samo::trainer::SamoTrainer;
use tensor::Tensor;

fn model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(12, 32, true, seed))
        .push(Gelu::new())
        .push(Linear::new(32, 12, true, seed + 1))
}

fn masks_for(m: &Sequential) -> Vec<Mask> {
    m.params()
        .iter()
        .map(|p| {
            if p.value.shape().len() >= 2 {
                prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.8)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 5e-3,
        ..Default::default()
    })
}

/// One deterministic training step; data depends only on `step`.
fn train_step(tr: &mut SamoTrainer, m: &mut Sequential, step: u64) {
    let x = Tensor::randn(&[8, 12], 1.0, 1000 + step);
    let target = Tensor::randn(&[8, 12], 0.5, 2000 + step);
    let y = m.forward(&x);
    let (_, mut d) = mse(&y, &target);
    tensor::ops::scale(tr.loss_scale(), d.as_mut_slice());
    m.backward(&d);
    tr.step(m);
}

fn params_of(m: &mut Sequential) -> Vec<Vec<f32>> {
    m.params()
        .iter()
        .map(|p| p.f32_view().into_owned())
        .collect()
}

/// Kill-and-resume through a CheckpointManager disk file is bitwise
/// identical to the uninterrupted run — parameters *and* loss-scale
/// schedule (the scaler uses a short growth interval so its state
/// actually changes mid-run and a stale scale would show).
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("samo-ft-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scaler = || LossScaler::with_config(1024.0, 2.0, 0.5, 4);

    // Reference: 30 uninterrupted steps.
    let mut m_ref = model(21);
    let mut tr_ref = SamoTrainer::new(&mut m_ref, masks_for(&model(21)), adam());
    tr_ref.scaler = scaler();
    for s in 0..30 {
        train_step(&mut tr_ref, &mut m_ref, s);
    }

    // Victim: same run, checkpointed at step 15, then "killed".
    let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
    {
        let mut m = model(21);
        let mut tr = SamoTrainer::new(&mut m, masks_for(&model(21)), adam());
        tr.scaler = scaler();
        for s in 0..15 {
            train_step(&mut tr, &mut m, s);
        }
        mgr.save_now(15, &tr.save()).unwrap();
        // Process dies here: trainer and model are dropped.
    }

    // Resume in a "new process": fresh objects, state only from disk.
    let latest = mgr.latest().unwrap().expect("checkpoint on disk");
    let bytes = std::fs::read(&latest).unwrap();
    let mut m2 = model(999); // init seed intentionally different
    let mut tr2 = SamoTrainer::new(&mut m2, masks_for(&model(21)), adam());
    tr2.scaler = scaler();
    tr2.restore(&bytes, &mut m2).unwrap();
    for s in 15..30 {
        train_step(&mut tr2, &mut m2, s);
    }

    assert_eq!(params_of(&mut m_ref), params_of(&mut m2), "parameters diverged");
    assert_eq!(tr_ref.loss_scale(), tr2.loss_scale(), "loss scale diverged");
    assert_eq!(tr_ref.steps_taken(), tr2.steps_taken());
    assert_eq!(tr_ref.steps_skipped(), tr2.steps_skipped());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lost rank through the public API: the group checkpoints, one
/// replica's weights are wiped as a dead node leaves them, every rank
/// restores the one checkpoint, and the group trains on bitwise identical
/// to a group that never failed.
#[test]
fn rank_failure_drill_and_continue() {
    let group = || {
        let mut dp = DataParallelSamo::new(vec![model(5), model(5), model(5)], masks_for(&model(5)), adam());
        dp.set_scaler(LossScaler::new(256.0));
        dp
    };
    let drive = |dp: &mut DataParallelSamo<Sequential>, s: u64| {
        for r in 0..3usize {
            let scale = dp.loss_scale();
            let x = Tensor::randn(&[4, 12], 1.0, 100 * (r as u64 + 1) + s);
            let target = Tensor::randn(&[4, 12], 0.5, 500 * (r as u64 + 1) + s);
            let m = dp.replica_mut(r);
            let y = m.forward(&x);
            let (_, mut d) = mse(&y, &target);
            tensor::ops::scale(scale, d.as_mut_slice());
            m.backward(&d);
        }
        dp.step();
    };
    let (mut dp, mut never_failed) = (group(), group());
    for s in 0..5 {
        drive(&mut dp, s);
        drive(&mut never_failed, s);
    }
    let ckpt = dp.save();

    // One step on, rank 1 dies: its weights are what a lost node leaves.
    drive(&mut dp, 5);
    for p in dp.replica_mut(1).params_mut() {
        p.value.as_mut_slice().fill(f32::NAN);
    }
    dp.restore(&ckpt).expect("every rank restores the group checkpoint");

    for s in 5..10 {
        drive(&mut dp, s);
        drive(&mut never_failed, s);
    }
    assert_eq!(dp.save().as_ref(), never_failed.save().as_ref(), "the restored group diverged");
    for r in 0..3usize {
        assert_eq!(params_of(dp.replica_mut(r)), params_of(never_failed.replica_mut(0)), "rank {r}");
    }
}

/// Cadence + retention through `maybe_save_with`: checkpoints appear on
/// schedule, old ones are pruned, and the newest loads back.
#[test]
fn manager_cadence_retention_and_reload() {
    let dir = std::env::temp_dir().join(format!("samo-ft-cad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CheckpointConfig::new(&dir);
    cfg.every_steps = 4;
    cfg.keep_last = 2;
    let mut mgr = CheckpointManager::new(cfg).unwrap();

    let mut m = model(77);
    let mut tr = SamoTrainer::new(&mut m, masks_for(&model(77)), adam());
    for s in 0..20u64 {
        train_step(&mut tr, &mut m, s);
        mgr.maybe_save_with(tr.steps_taken(), || tr.save()).unwrap();
    }
    let files = mgr.list().unwrap();
    assert_eq!(files.len(), 2, "retention keeps exactly keep_last files");

    let latest = mgr.latest().unwrap().unwrap();
    let bytes = std::fs::read(&latest).unwrap();
    let mut m2 = model(77);
    let mut tr2 = SamoTrainer::new(&mut m2, masks_for(&model(77)), adam());
    tr2.restore(&bytes, &mut m2).unwrap();
    assert_eq!(tr2.steps_taken(), tr.steps_taken());
    assert_eq!(params_of(&mut m), params_of(&mut m2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Masks every parameter at the dynamic schedule's initial sparsity.
fn dyn_masks(m: &Sequential) -> Vec<Mask> {
    m.params()
        .iter()
        .map(|p| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5))
        .collect()
}

/// Prune 0.5 → 0.9, then densify back to 0.6: update steps at
/// t = 0, 5, 10, 15, 20.
fn dyn_schedule() -> prune::MaskSchedule {
    prune::MaskSchedule::MomentumPruneRegrow(prune::MomentumPruneRegrow::new(
        vec![(0, 0.5), (10, 0.9), (20, 0.6)],
        5,
        0.1,
    ))
}

/// Kill-and-resume straddling dynamic-sparsity remap events: a
/// checkpoint saved mid-sparsification (generation A) and one saved
/// after the densification leg (generation B) both resume bitwise
/// identical to the uninterrupted run — the v2 format round-trips the
/// evolved mask, and the restored trainer re-primes its remap scratch
/// and continues the exact schedule. The handoff runs through the
/// `CheckpointManager` publish marker, including the torn-marker path:
/// a corrupted marker is detected (CRC) and ignored, and recovery falls
/// back to the newest durable file.
#[test]
fn kill_and_resume_across_remap_events_is_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("samo-ft-dyn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total = 26u64;
    let (gen_a, gen_b) = (7u64, 22u64);

    // Reference: uninterrupted run across all five schedule updates.
    let mut m_ref = model(55);
    let mut tr_ref = SamoTrainer::new(&mut m_ref, dyn_masks(&model(55)), adam());
    tr_ref.set_mask_schedule(dyn_schedule()).unwrap();
    for s in 0..total {
        train_step(&mut tr_ref, &mut m_ref, s);
    }
    assert!(tr_ref.remap_events() >= 3, "schedule must actually move the masks");
    let want = tr_ref.save();

    // Victim: same run, published at gen A (mid-sparsification) and
    // gen B (post-densification), then "killed".
    let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
    let mut published = Vec::new();
    {
        let mut m = model(55);
        let mut tr = SamoTrainer::new(&mut m, dyn_masks(&model(55)), adam());
        tr.set_mask_schedule(dyn_schedule()).unwrap();
        for s in 0..total {
            train_step(&mut tr, &mut m, s);
            if s + 1 == gen_a || s + 1 == gen_b {
                published.push(mgr.save_and_publish(s + 1, &tr.save()).unwrap());
            }
        }
    }

    // Resume from BOTH generations; each must reconverge bitwise.
    for (path, from) in published.iter().zip([gen_a, gen_b]) {
        let bytes = std::fs::read(path).unwrap();
        let mut m2 = model(999); // init seed intentionally different
        let mut tr2 = SamoTrainer::new(&mut m2, dyn_masks(&model(55)), adam());
        tr2.set_mask_schedule(dyn_schedule()).unwrap();
        tr2.restore(&bytes, &mut m2).unwrap();
        assert_eq!(tr2.steps_taken() + tr2.steps_skipped(), from);
        for s in from..total {
            train_step(&mut tr2, &mut m2, s);
        }
        assert_eq!(
            tr2.save().as_ref(),
            want.as_ref(),
            "resume from step {from} diverged from the uninterrupted run"
        );
        assert_eq!(params_of(&mut m_ref), params_of(&mut m2));
    }

    // Torn-publish: a crashed foreign writer mangles the marker. The
    // CRC check rejects it, and recovery falls back to the newest
    // durable checkpoint — which is generation B.
    assert_eq!(mgr.published().map(|(s, _)| s), Some(gen_b));
    std::fs::write(mgr.publish_marker(), b"samo-ckpt-999.bin deadbe").unwrap();
    assert_eq!(mgr.published(), None, "torn marker must be ignored");
    let fallback = mgr.latest().unwrap().expect("durable files survive a torn marker");
    let bytes = std::fs::read(&fallback).unwrap();
    let mut m3 = model(1234);
    let mut tr3 = SamoTrainer::new(&mut m3, dyn_masks(&model(55)), adam());
    tr3.set_mask_schedule(dyn_schedule()).unwrap();
    tr3.restore(&bytes, &mut m3).unwrap();
    for s in gen_b..total {
        train_step(&mut tr3, &mut m3, s);
    }
    assert_eq!(tr3.save().as_ref(), want.as_ref(), "torn-marker fallback diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
