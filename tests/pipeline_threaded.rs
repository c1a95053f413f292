//! Integration: the thread-per-stage pipeline runtime over the `comms`
//! mesh is **bitwise interchangeable** with the single-process
//! `SamoTrainer` — for any pipeline depth, for the hybrid
//! `G_inter × G_data` decomposition, for any depth of the activation
//! stash, with activation recomputation instead of it (forced on, or
//! because a layer declines the stash), with every product running over
//! the kept weights of a lent index (p = 0.9), and after a killed stage is
//! healed and restored from a checkpoint. At one stage it is the
//! data-parallel runtime, bit for bit, mask updates included.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use prune::Mask;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::{DataParallelSamo, SamoTrainer, ThreadedDataParallelSamo};
use std::time::{Duration, Instant};
use tensor::gemm::{plan, Op, Path};
use tensor::Tensor;

const IN: usize = 6;
const H1: usize = 10;
const H2: usize = 8;
const OUT: usize = 4;
/// Rows per microbatch.
const ROWS: usize = 4;
/// Microbatches per step.
const MB: usize = 4;

/// Seven layers → splittable into 2, 3, or 4 contiguous stages.
fn model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, H1, true, seed))
        .push(nn::activations::Relu::new())
        .push(Linear::new(H1, H2, false, seed + 1))
        .push(nn::activations::Relu::new())
        .push(Linear::new(H2, H2, true, seed + 2))
        .push(nn::activations::Relu::new())
        .push(Linear::new(H2, OUT, false, seed + 3))
}

fn masks() -> Vec<Mask> {
    let m = model(1);
    let ps = m.params();
    vec![
        prune::magnitude_prune(ps[0].value.as_slice(), ps[0].value.shape(), 0.6),
        Mask::dense(ps[1].value.shape()), // bias dense
        prune::magnitude_prune(ps[2].value.as_slice(), ps[2].value.shape(), 0.5),
        prune::magnitude_prune(ps[3].value.as_slice(), ps[3].value.shape(), 0.4),
        Mask::dense(ps[4].value.shape()), // bias dense
        prune::magnitude_prune(ps[5].value.as_slice(), ps[5].value.shape(), 0.5),
    ]
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig { lr: 0.02, ..Default::default() })
}

/// Microbatch data, identical across data replicas (the hybrid test
/// relies on this: the ring mean of identical gradients is exact).
fn batch(step: u64, mb: usize) -> (Tensor, Tensor) {
    let x = Tensor::randn(&[ROWS, IN], 1.0, 30_000 + step * 64 + mb as u64);
    let t = Tensor::randn(&[ROWS, OUT], 1.0, 40_000 + step * 64 + mb as u64);
    (x, t)
}

/// One single-process oracle step: the same microbatches, sequentially
/// accumulated on the full model, then the fused SAMO step.
fn oracle_step(trainer: &mut SamoTrainer, model: &mut Sequential, step: u64) -> bool {
    let scale = trainer.loss_scale();
    for mb in 0..MB {
        let (x, t) = batch(step, mb);
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &t);
        tensor::ops::scale(scale, dy.as_mut_slice());
        model.backward(&dy);
    }
    trainer.step(model)
}

fn pipeline_step(pp: &mut ThreadedPipelineSamo, step: u64) -> Result<bool, String> {
    pp.step(
        move |_data_idx, mb| batch(step, mb).0,
        move |_data_idx, mb, y, scale| {
            let (_, mut dy) = mse(y, &batch(step, mb).1);
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        },
    )
}

fn cfg(g_inter: usize, g_data: usize) -> PipelineConfig {
    PipelineConfig {
        g_inter,
        g_data,
        microbatches: MB,
        mb_rows: ROWS,
        max_in_flight: g_inter,
        timeout: Duration::from_secs(5),
        force_recompute: false,
    }
}

/// The tentpole correctness bar: for every pipeline depth and every
/// depth of the activation stash, checkpoint bytes equal the
/// single-process trainer's step for step, regardless of stage-thread
/// timing — and no stage runs a forward twice.
#[test]
fn pipeline_matches_single_process_bitwise_for_each_depth() {
    // Depth 2 also runs under the default scaler (65536, where the
    // first verdicts matter most) and the default collective deadline.
    let mut cases = vec![(2usize, 2usize, None)];
    for g_inter in [2, 3, 4] {
        cases.extend([1, 2, 4].map(|max_in_flight| (g_inter, max_in_flight, Some(1024.0))));
    }
    for (g_inter, max_in_flight, scaler) in cases {
        let mut oracle_model = model(11);
        let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), adam());
        let mut c = cfg(g_inter, 1);
        c.max_in_flight = max_in_flight;
        if scaler.is_none() {
            c.timeout = comms::collectives::DEFAULT_TIMEOUT;
        }
        let mut pp = ThreadedPipelineSamo::new(vec![model(11)], masks(), adam(), c);
        if let Some(scale) = scaler {
            oracle.scaler = LossScaler::new(scale);
            pp.set_scaler(LossScaler::new(scale));
        }

        for step in 0..6u64 {
            let applied = oracle_step(&mut oracle, &mut oracle_model, step);
            assert_eq!(pipeline_step(&mut pp, step), Ok(applied), "verdict at step {step}");
            assert_eq!(
                oracle.loss_scale(),
                pp.loss_scale(),
                "scale diverged at G_inter={g_inter} step {step}"
            );
            assert_eq!(
                oracle.save().as_ref(),
                pp.save().as_ref(),
                "training state diverged at G_inter={g_inter}, {max_in_flight} in flight, step {step}"
            );
        }
        assert_eq!(oracle.steps_taken(), pp.steps_taken());
        assert_eq!(oracle.steps_skipped(), pp.steps_skipped());

        // Every layer of the model hands its caches over, so a backward
        // finds them in the stash. The last stage parks nothing (under
        // backward priority its backward immediately follows the matching
        // forward), nor does a window of one; stage 0 of a wider window
        // runs ahead of its first gradient, and parks.
        let stats = pp.stage_stats();
        for (stage, st) in stats.iter().enumerate() {
            let at = format!("stage {stage} of {g_inter}, {max_in_flight} in flight");
            assert_eq!(st.recomputes, 0, "{at}");
            assert!(st.fwd_s + st.bwd_s + st.wait_s <= st.sched_wall_s, "{at}: {st:?}");
            if stage + 1 == g_inter || max_in_flight == 1 {
                assert_eq!(st.stash_bytes_peak, 0, "{at}");
            }
        }
        assert_eq!(stats[0].stash_bytes_peak > 0, max_in_flight > 1, "{stats:?}");
    }
}

/// A layer that keeps `Layer::swap_caches`' default: it declines.
struct Keeps(Linear);

impl Layer for Keeps {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.0.forward(x)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.0.backward(dy)
    }
    fn params(&self) -> Vec<&nn::param::Parameter> {
        self.0.params()
    }
    fn params_mut(&mut self) -> Vec<&mut nn::param::Parameter> {
        self.0.params_mut()
    }
}

/// One layer that will not hand its caches over makes its whole stage
/// fall back to just-in-time recomputation — counted, nothing parked,
/// still bitwise — while the other stages keep stashing.
#[test]
fn a_declining_layer_recomputes_its_stage_bitwise() {
    let build = || {
        let mut layers = model(29).into_layers();
        layers[0] = Box::new(Keeps(Linear::new(IN, H1, true, 29)));
        Sequential::from_layers(layers)
    };
    let mut oracle_model = build();
    let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), adam());
    oracle.scaler = LossScaler::new(1024.0);
    let mut pp = ThreadedPipelineSamo::new(vec![build()], masks(), adam(), cfg(3, 1));
    pp.set_scaler(LossScaler::new(1024.0));

    let steps = 6u64;
    for step in 0..steps {
        oracle_step(&mut oracle, &mut oracle_model, step);
        pipeline_step(&mut pp, step).expect("healthy mesh");
        assert_eq!(oracle.save().as_ref(), pp.save().as_ref(), "diverged at step {step}");
    }
    let stats = pp.stage_stats();
    // Stage 0 runs ahead of its first gradient, so some backward finds
    // the caches overwritten; at most every one does.
    assert!((1..=steps * MB as u64).contains(&stats[0].recomputes), "{stats:?}");
    assert_eq!(stats[0].stash_bytes_peak, 0, "a declined swap parks nothing");
    assert_eq!((stats[1].recomputes, stats[2].recomputes), (0, 0), "{stats:?}");
}

/// The hybrid decomposition: 2 pipeline stages × 2 data replicas, with
/// identical per-replica batches, still matches the single-process
/// trainer bitwise (the exact-f64-sum ring mean of identical f16
/// gradients is the identity).
#[test]
fn hybrid_two_by_two_matches_single_process_bitwise() {
    let mut oracle_model = model(13);
    let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), adam());
    oracle.scaler = LossScaler::new(1024.0);
    let mut pp =
        ThreadedPipelineSamo::new(vec![model(13), model(13)], masks(), adam(), cfg(2, 2));
    pp.set_scaler(LossScaler::new(1024.0));

    for step in 0..6u64 {
        oracle_step(&mut oracle, &mut oracle_model, step);
        pipeline_step(&mut pp, step).expect("healthy meshes");
        assert_eq!(
            oracle.save().as_ref(),
            pp.save().as_ref(),
            "hybrid state diverged at step {step}"
        );
    }

    // Both replicas' stage blocks hold identical dense parameters.
    for stage in 0..2 {
        let a = pp.with_rank(stage, 0, |block, _| {
            block.params().iter().map(|p| p.value.as_slice().to_vec()).collect::<Vec<_>>()
        });
        let b = pp.with_rank(stage, 1, |block, _| {
            block.params().iter().map(|p| p.value.as_slice().to_vec()).collect::<Vec<_>>()
        });
        assert_eq!(a, b, "stage {stage} replicas diverged");
    }
}

/// A wider model at p = 0.9, in microbatches of 16 rows.
fn sparse_model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(32, 64, true, seed))
        .push(nn::activations::Relu::new())
        .push(Linear::new(64, 64, false, seed + 1))
        .push(nn::activations::Relu::new())
        .push(Linear::new(64, 16, true, seed + 2))
}

fn sparse_masks() -> Vec<Mask> {
    let mask = |p: &&nn::param::Parameter| match p.value.shape() {
        shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.9),
        shape => Mask::dense(shape),
    };
    sparse_model(1).params().iter().map(mask).collect()
}

fn sparse_batch(step: u64, mb: usize) -> (Tensor, Tensor) {
    let seed = 50_000 + step * 64 + mb as u64;
    (Tensor::randn(&[16, 32], 1.0, seed), Tensor::randn(&[16, 16], 1.0, seed + 1_000))
}

/// With the masks' indices lent beside θ16, every `Linear` product of a
/// stage runs over the kept weights (p = 0.9 at 16 rows: `x·Wᵀ` and `dy·W`
/// both pay) — on a pipeline alone and sharded over data replicas — and
/// the checkpoints are still the single-process trainer's, byte for byte.
#[test]
fn kept_products_from_the_lent_index_match_single_process_bitwise() {
    let masks = sparse_masks();
    for m in masks.iter().filter(|m| m.shape().len() == 2) {
        for op in [Op::Nt, Op::Nn] {
            assert_eq!(plan(op, 16, m.nnz(), m.numel()), Path::Kept, "{op:?}, {:?}", m.shape());
        }
    }
    for (g_inter, g_data) in [(2usize, 1usize), (3, 2)] {
        let mut oracle_model = sparse_model(19);
        let mut oracle = SamoTrainer::new(&mut oracle_model, masks.clone(), adam());
        let mut c = cfg(g_inter, g_data);
        c.mb_rows = 16;
        let replicas = (0..g_data).map(|_| sparse_model(19)).collect();
        let mut pp = ThreadedPipelineSamo::new(replicas, masks.clone(), adam(), c);
        for step in 0..4u64 {
            let scale = oracle.loss_scale();
            for mb in 0..MB {
                let (x, t) = sparse_batch(step, mb);
                let (_, mut dy) = mse(&oracle_model.forward(&x), &t);
                tensor::ops::scale(scale, dy.as_mut_slice());
                oracle_model.backward(&dy);
            }
            let applied = oracle.step(&mut oracle_model);
            let got = pp.step(
                move |_, mb| sparse_batch(step, mb).0,
                move |_, mb, y, scale| {
                    let (_, mut dy) = mse(y, &sparse_batch(step, mb).1);
                    tensor::ops::scale(scale, dy.as_mut_slice());
                    dy
                },
            );
            assert_eq!(got, Ok(applied), "verdict at {g_inter}x{g_data}, step {step}");
            let at = format!("{g_inter}x{g_data}, step {step}");
            assert_eq!(oracle.save().as_ref(), pp.save().as_ref(), "training state diverged at {at}");
        }
        // Between steps θ16 is home, and its index with it.
        let lent = pp.with_rank(0, 0, |block, _| block.params().iter().any(|p| p.index().is_some()));
        assert!(!lent, "{g_inter}x{g_data}: an index outlived its θ16");
    }
}

/// Forced activation recomputation (the uniform-work mode the bubble
/// bench runs in) recomputes every microbatch on every stage and is
/// still bitwise identical — recompute determinism.
#[test]
fn forced_recompute_is_bitwise_identical_and_counted() {
    let mut oracle_model = model(17);
    let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), adam());
    oracle.scaler = LossScaler::new(1024.0);
    let mut c = cfg(2, 1);
    c.force_recompute = true;
    let mut pp = ThreadedPipelineSamo::new(vec![model(17)], masks(), adam(), c);
    pp.set_scaler(LossScaler::new(1024.0));

    let steps = 3u64;
    for step in 0..steps {
        oracle_step(&mut oracle, &mut oracle_model, step);
        pipeline_step(&mut pp, step).expect("healthy mesh");
        assert_eq!(
            oracle.save().as_ref(),
            pp.save().as_ref(),
            "recompute mode diverged at step {step}"
        );
    }
    for (i, st) in pp.stage_stats().iter().enumerate() {
        assert_eq!(
            st.recomputes,
            steps * MB as u64,
            "stage {i} must recompute every microbatch"
        );
    }
}

/// Kill-a-stage fault drill: a dead interior stage surfaces as a
/// bounded timeout `Err` (never a hang), the group then refuses steps
/// until healed + restored, and the replayed run matches a
/// never-failed single-process trainer bitwise.
#[test]
fn killed_stage_times_out_and_restore_resyncs_bitwise() {
    // An interior stage of three, and the last stage of two.
    for g_inter in [3usize, 2] {
        let fail_at = 3u64;
        let total = 6u64;

        let mut oracle_model = model(19);
        let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), adam());
        oracle.scaler = LossScaler::new(1024.0);
        let mut c = cfg(g_inter, 1);
        c.timeout = Duration::from_millis(300);
        let mut pp = ThreadedPipelineSamo::new(vec![model(19)], masks(), adam(), c);
        pp.set_scaler(LossScaler::new(1024.0));

        for step in 0..fail_at {
            oracle_step(&mut oracle, &mut oracle_model, step);
            pipeline_step(&mut pp, step).expect("healthy mesh");
        }
        let checkpoint = pp.save();
        assert_eq!(checkpoint.as_ref(), oracle.save().as_ref(), "pre-failure state diverged");

        // Stage 1 dies: every pipeline link in and out goes dark.
        pp.pipe_faults()[0].kill_rank(1, g_inter);
        let t0 = Instant::now();
        let err = pipeline_step(&mut pp, fail_at).expect_err("dead stage must fail the step");
        assert!(err.contains("timed out"), "failure should surface as a timeout: {err}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timeout must be bounded, took {:?}",
            t0.elapsed()
        );

        // Poisoned until recovery: further steps refuse to run.
        let err2 = pipeline_step(&mut pp, fail_at).expect_err("group must stay poisoned");
        assert!(err2.contains("poisoned"), "got: {err2}");

        // Heal the stage, restore the checkpoint, replay the failed step.
        pp.pipe_faults()[0].heal_rank(1, g_inter);
        pp.restore(&checkpoint).expect("restore after heal");
        for step in fail_at..total {
            let applied = oracle_step(&mut oracle, &mut oracle_model, step);
            assert_eq!(pipeline_step(&mut pp, step), Ok(applied), "healed mesh, step {step}");
            assert_eq!(
                pp.save().as_ref(),
                oracle.save().as_ref(),
                "restored pipeline must match the never-failed single-process trainer bitwise \
                 (G_inter={g_inter} step {step})"
            );
        }
    }
}

/// A checkpoint of a different model — here one with an extra layer, so
/// every stage's own slice still lines up — is rejected by every rank
/// before any state is touched, exactly as the other runtimes reject it.
#[test]
fn restore_rejects_a_checkpoint_with_more_layers_than_the_model() {
    let mut pp = ThreadedPipelineSamo::new(vec![model(23)], masks(), adam(), cfg(2, 1));
    pipeline_step(&mut pp, 0).expect("healthy mesh");
    let before = pp.save();

    // The same model with one more (bias-free) linear layer on top.
    let mut bigger = model(23).push(Linear::new(OUT, OUT, false, 99));
    let mut bigger_masks = masks();
    bigger_masks.push(Mask::dense(&[OUT, OUT]));
    let foreign = SamoTrainer::new(&mut bigger, bigger_masks, adam()).save();

    let err = pp.restore(&foreign).expect_err("a 7-layer checkpoint must not restore into 6");
    assert!(err.contains("checkpoint has 7 layers"), "got: {err}");
    assert_eq!(pp.save().as_ref(), before.as_ref(), "a rejected restore must change nothing");
    assert_eq!(pipeline_step(&mut pp, 1), Ok(true), "the group keeps training");
}

/// At one stage a pipeline is the data-parallel runtime: a 1×G
/// `ThreadedPipelineSamo` at one microbatch, `ThreadedDataParallelSamo`
/// and the sequential `DataParallelSamo` oracle save the same bytes after
/// every step at worlds 1–4, each replica on its own batch, through the
/// mask updates of a prune-and-regrow schedule, which the oracle ranks on
/// its own mean of the replicas' gradients; both threaded groups report
/// their steps as the one data-parallel runtime, `samo_dp_rank`.
#[test]
fn a_one_stage_pipeline_is_the_data_parallel_runtime_bitwise() {
    // Mask updates at t = 1, 4 and 7.
    let schedule = MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(vec![(1, 0.5), (7, 0.7)], 3, 0.2));
    let seed = |y: &Tensor, target: &Tensor, scale: f32| {
        let (_, mut dy) = mse(y, target);
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    };
    for world in 1..=4 {
        let replicas = || (0..world).map(|_| model(5)).collect::<Vec<_>>();
        let one_mb = PipelineConfig { microbatches: 1, ..cfg(1, world) };
        let mut pp = ThreadedPipelineSamo::new(replicas(), masks(), adam(), one_mb);
        let mut dp = ThreadedDataParallelSamo::new(replicas(), masks(), adam());
        let mut oracle = DataParallelSamo::new(replicas(), masks(), adam());
        assert_eq!(pp.runtimes(), vec!["samo_dp_rank"; world], "world {world}: pipeline");
        assert_eq!(dp.runtimes(), pp.runtimes(), "world {world}: data-parallel vs pipeline");
        pp.set_scaler(LossScaler::new(1024.0));
        dp.set_scaler(LossScaler::new(1024.0));
        oracle.set_scaler(LossScaler::new(1024.0));
        pp.set_mask_schedule(schedule.clone());
        dp.set_mask_schedule(schedule.clone());
        oracle.set_mask_schedule(schedule.clone());
        let mut nnz = vec![pp.nnz()];
        for step in 0..9u64 {
            let at = format!("world {world}, step {step}");
            let applied = pp.step(
                move |d, _| batch(step, d).0,
                move |d, _, y, scale| seed(y, &batch(step, d).1, scale),
            );
            assert_eq!(applied, Ok(true), "{at}");
            let applied = dp.step(move |r, m, scale| {
                let (x, target) = batch(step, r);
                seed(&m.forward(&x), &target, scale)
            });
            assert_eq!(applied, Ok(true), "{at}");
            let want = pp.save();
            assert_eq!(dp.save().as_ref(), want.as_ref(), "{at}: pipeline vs data-parallel");
            let scale = oracle.loss_scale();
            for r in 0..world {
                let (x, target) = batch(step, r);
                let m = oracle.replica_mut(r);
                let y = m.forward(&x);
                m.backward(&seed(&y, &target, scale));
            }
            assert!(oracle.step(), "{at}");
            assert_eq!(oracle.save().as_ref(), want.as_ref(), "{at}: pipeline vs oracle");
            nnz.push(pp.nnz());
        }
        assert_eq!(dp.nnz(), pp.nnz(), "world {world}");
        let moved = nnz.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(moved >= 2, "world {world}: the masks moved at {moved} updates: {nnz:?}");
    }
}
