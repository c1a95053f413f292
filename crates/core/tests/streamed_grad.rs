//! The streamed weight gradient: on the thread-per-rank data-parallel
//! runtime a `Linear`'s `dyᵀ·x` is compressed into `∇θ16` from the
//! product's operands and its dense `grad` never exists.
//!
//! * `SamoLayerState::compress_grad_product` leaves the bits (and the
//!   overflow flag) `compress_grad_fused` gathers from the assembled dense
//!   gradient, and so do the row blocks pinned, whichever product the
//!   planner picks for the batch and the mask — the sampled one at the
//!   kept positions or the row blocks — over thin and fat batches, masks
//!   from empty to dense, shapes off the row group and the vector, zero
//!   row groups, underflows and non-finite operands;
//! * the ruler, read *inside the step closure* — where the model is in
//!   its training form: every rank of `ThreadedDataParallelSamo` holds
//!   f32 buffers for the biases only, values and gradients alike (a
//!   `Linear` computes from the `θ16` its engine lends for the step),
//!   where the caller-driven `SamoTrainer` holds `4φ` bytes of each; the
//!   inspection hook shows `value`s — the widened `θ16` — for the length
//!   of its call, and the next closure finds them released again;
//! * a failed step poisons the group as before, the inspection hook
//!   still shows current values and leaves every `θ16` in its layer
//!   state — on the data-parallel runtime and on a pipeline stage, whose
//!   compute window ended in `Err` — and training resumes after the
//!   restore, byte for byte with the caller-driven oracles.
//!
//! CI runs the suite with the kernel pool pinned to one worker and on the
//! default pool (row blocks then arrive from pool threads, a sampled
//! product is cut among them), in the `comms` and the `pipeline` job.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use nn::param::resident_param_bytes;
use prune::Mask;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::reference::DataParallelSamo;
use samo::threaded::ThreadedDataParallelSamo;
use samo::{SamoLayerState, SamoTrainer};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tensor::f16::F16;
use tensor::gemm::{matmul_tn_acc, matmul_tn_kept_on_path, plan, Op, Path};
use tensor::Tensor;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig { lr: 0.02, ..Default::default() })
}

fn bits16(v: &[F16]) -> Vec<u16> {
    v.iter().map(|h| h.0).collect()
}

/// `∇θ16` and the overflow flag three ways: the fused kernel on the dense
/// product accumulated into zeros, the row blocks gathered one by one,
/// and `compress_grad_product` on the operands.
type Compressed = (Vec<u16>, bool);

fn three_ways(mask: &Mask, batch: usize, dy: &[f32], x: &[f32]) -> [Compressed; 3] {
    let (out_f, in_f) = (mask.shape()[0], mask.shape()[1]);
    let fresh = || {
        let mut st = SamoLayerState::from_params(&vec![0.5; mask.numel()], mask.clone(), &adam());
        // Stale values everywhere: every kept position must be overwritten.
        st.grad16.fill(F16::from_f32(-3.0));
        st
    };
    let mut dense = vec![0.0f32; out_f * in_f];
    matmul_tn_acc(out_f, in_f, batch, dy, x, &mut dense);
    let mut whole = fresh();
    let whole_finite = whole.compress_grad_fused(&dense);

    let mut blocks = fresh();
    let tier = tensor::simd::active();
    let blocks_finite =
        matmul_tn_kept_on_path(Path::RowBlocks, tier, out_f, in_f, batch, dy, x, mask.indices(), &mut blocks.grad16);

    let mut product = fresh();
    let product_finite = product.compress_grad_product(batch, dy, x);
    [
        (bits16(&whole.grad16), whole_finite),
        (bits16(&blocks.grad16), blocks_finite),
        (bits16(&product.grad16), product_finite),
    ]
}

#[test]
fn streaming_the_gemm_compresses_what_the_dense_gradient_would() {
    // The whole path of one weight: dW = dyᵀ·x into ∇θ16 without a dense
    // gradient — sampled at the kept positions for the thin batch, from
    // the GEMM's row blocks (from pool threads when there are any: 200
    // rows are four row panels) for the fat one, which is also beyond one
    // k-block — against the dense product accumulated into zeros and
    // compressed by the fused kernel.
    let (out_f, in_f) = (200usize, 37usize);
    let mask = prune::random_prune(&[out_f, in_f], 0.8, 9);
    for &batch in &[4usize, 300] {
        assert_eq!(plan(Op::Tn, batch, mask.nnz(), mask.numel()) == Path::Sampled, batch == 4);
        let dy = Tensor::randn(&[batch, out_f], 50.0, 1);
        let x = Tensor::randn(&[batch, in_f], 50.0, 2);
        let [whole, blocks, product] = three_ways(&mask, batch, dy.as_slice(), x.as_slice());
        assert_eq!(blocks, whole, "row blocks, batch {batch}");
        assert_eq!(product, whole, "product, batch {batch}");
        // Products of N(0, 50²) values summed over a long batch pass the
        // f16 range somewhere: the flag is exercised both ways.
        assert_eq!(whole.1, batch == 4, "batch {batch}");
    }
}

#[test]
fn the_product_compresses_to_the_bits_of_its_row_blocks_on_either_side_of_the_dispatch() {
    // 10 output rows: two row groups and two single rows; 19 columns: two
    // vectors and a tail of three.
    let (out_f, in_f) = (10usize, 19usize);
    let numel = out_f * in_f;
    let masks = [
        ("empty", Mask::new(&[out_f, in_f], Vec::new())),
        ("one value", Mask::new(&[out_f, in_f], vec![(numel / 2) as u32])),
        ("p = 0.9", prune::random_prune(&[out_f, in_f], 0.9, 3)),
        ("p = 0.5", prune::random_prune(&[out_f, in_f], 0.5, 4)),
        ("dense", Mask::dense(&[out_f, in_f])),
    ];
    let mut sampled_runs = 0;
    for (name, mask) in &masks {
        for batch in (1usize..=9).chain([32]) {
            sampled_runs += usize::from(plan(Op::Tn, batch, mask.nnz(), numel) == Path::Sampled);
            // Ordinary magnitudes, then products that underflow to ±0.0
            // and subnormals; rows 4..8 of dW — a whole row group — see
            // an all-zero dy.
            for scale in [30.0f32, 1e-22] {
                let mut dy = Tensor::randn(&[batch, out_f], scale, 7 + batch as u64);
                let x0 = Tensor::randn(&[batch, in_f], scale, 70 + batch as u64);
                for row in dy.as_mut_slice().chunks_mut(out_f) {
                    row[4..8].fill(0.0);
                    row[9] = -0.0;
                }
                // (what, dy[last row][col], x[last row][col])
                type Plant = Option<(usize, f32)>;
                let plants: [(&str, Plant, Plant); 6] = [
                    ("finite", None, None),
                    ("inf in x", None, Some((3, f32::INFINITY))),
                    ("NaN in x", None, Some((in_f - 1, f32::NAN))),
                    ("-inf in dy", Some((2, f32::NEG_INFINITY)), None),
                    ("NaN in dy's zero group", Some((5, f32::NAN)), None),
                    ("loss-scale overflow", Some((1, 3e38)), Some((0, 3e38))),
                ];
                for (what, in_dy, in_x) in plants {
                    let (mut dy, mut x) = (dy.clone(), x0.clone());
                    if let Some((col, v)) = in_dy {
                        dy.as_mut_slice()[(batch - 1) * out_f + col] = v;
                    }
                    if let Some((col, v)) = in_x {
                        x.as_mut_slice()[(batch - 1) * in_f + col] = v;
                    }
                    let [whole, blocks, product] = three_ways(mask, batch, dy.as_slice(), x.as_slice());
                    let ctx = format!("{name}, batch {batch}, scale {scale:e}, {what}");
                    assert_eq!(blocks, whole, "row blocks: {ctx}");
                    assert_eq!(product, whole, "product: {ctx}");
                    if mask.nnz() == numel {
                        assert_eq!(whole.1, what == "finite", "a dense mask sees every overflow: {ctx}");
                    }
                }
            }
        }
    }
    // Thin at p = 0.9 and 0.5, the empty and one-value masks always, the
    // dense one at two rows: both sides of the inequality ran.
    assert!((20..45).contains(&sampled_runs), "{sampled_runs} of 50 shapes sampled");
}

const DIMS: [usize; 4] = [256, 2048, 2048, 256];
const PHI: usize = 5_247_232;
const BIASES: usize = 4_352;

/// The wide MLP of the `dp2_tcp_wide` benchmark workload.
fn wide_mlp(seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for (i, w) in DIMS.windows(2).enumerate() {
        m = m.push(Linear::new(w[0], w[1], true, seed + i as u64));
        if i + 2 < DIMS.len() {
            m = m.push(nn::activations::Relu::new());
        }
    }
    m
}

fn wide_masks(model: &Sequential) -> Vec<Mask> {
    let mask = |p: &&nn::Parameter| match p.value.shape() {
        shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.9),
        shape => Mask::dense(shape),
    };
    model.params().iter().map(mask).collect()
}

fn wide_batch(step: u64, rank: usize) -> (Tensor, Tensor) {
    let seed = 500 + step * 8 + rank as u64;
    (Tensor::randn(&[4, DIMS[0]], 1.0, seed), Tensor::randn(&[4, DIMS[3]], 1.0, seed + 1_000))
}

/// What a step closure finds its model holding: `(values, grads)` of
/// [`resident_param_bytes`], and whether every weight that computes from
/// half precision has its whole `θ16` lent with its mask's index — and
/// nothing else has either.
fn training_form(m: &Sequential) -> ((usize, usize), bool) {
    let whole = |p: &&nn::Parameter| p.theta16.len() == if p.accepts_theta16 { p.numel() } else { 0 };
    let lent = |p: &&nn::Parameter| whole(p) && p.index().is_some() == p.accepts_theta16;
    (resident_param_bytes(m), m.params().iter().all(lent))
}

/// What the inspection hook shows: the bytes of f32 values held, whether
/// each is its layer state's `θ16` widened, bit for bit, and whether the
/// `θ16`s are home — whole in the states, none (and no index) left in a
/// parameter.
fn inspected(m: &mut Sequential, states: &[SamoLayerState]) -> (usize, bool, bool) {
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let params = m.params();
    let pairs = || params.iter().zip(states);
    let current = pairs().all(|(p, st)| bits(p.value.as_slice()) == bits(&st.dense_f32_params()));
    let home = pairs().all(|(p, st)| p.theta16.is_empty() && p.index().is_none() && st.theta16.len() == p.numel());
    (resident_param_bytes(m).0, current, home)
}

/// ROADMAP item 1's ruler: what the parameters of a model hold, per rank,
/// next to the compressed state — while it trains.
#[test]
fn a_training_rank_holds_f32_buffers_for_the_biases_only() {
    let masks = wide_masks(&wide_mlp(3));
    let mut th = ThreadedDataParallelSamo::new(vec![wide_mlp(3), wide_mlp(3)], masks.clone(), adam());
    let mut model = wide_mlp(3);
    assert_eq!(model.num_params(), PHI);
    let mut single = SamoTrainer::new(&mut model, masks, adam());
    let seen = Arc::new(Mutex::new(Vec::new()));
    for step in 0..3u64 {
        let ruler = Arc::clone(&seen);
        th.step(move |rank, m, scale| {
            let (x, t) = wide_batch(step, rank);
            let (_, mut dy) = mse(&m.forward(&x), &t);
            ruler.lock().unwrap().push((step, rank, training_form(m)));
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        })
        .expect("healthy mesh");
        let (x, t) = wide_batch(step, 0);
        let (_, mut dy) = mse(&model.forward(&x), &t);
        tensor::ops::scale(single.loss_scale(), dy.as_mut_slice());
        model.backward(&dy);
        single.step(&mut model);
        // Between steps a reader gets values, and gets them current; the
        // next closure must find them released again.
        for rank in 0..2 {
            let shown = th.with_rank(rank, inspected);
            assert_eq!(shown, (4 * PHI, true, true), "rank {rank} inspected after step {step}");
        }
    }
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort();
    assert_eq!(seen.len(), 6, "two ranks, three steps");
    for (step, rank, ((values, grads), lent)) in seen {
        assert_eq!(values, 4 * BIASES, "rank {rank}, step {step}: no f32 copy of a weight matrix");
        assert!(lent, "rank {rank}, step {step}: the weights compute from the lent θ16");
        // Which gradients stream is known once one streamed backward has
        // run: step 0 still finds the buffers the replica was built with.
        let held = if step == 0 { PHI } else { BIASES };
        assert_eq!(grads, 4 * held, "rank {rank}, step {step}: no weight matrix keeps a dense gradient");
    }
    // The caller runs forward and backward: the weights compute from the
    // θ16 the trainer lends between steps, and the gradients are where
    // backward writes them.
    assert_eq!(resident_param_bytes(&model), (4 * BIASES, 4 * PHI));
}

const IN: usize = 6;
const OUT: usize = 4;

fn small_model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, 10, true, seed))
        .push(nn::activations::Relu::new())
        .push(Linear::new(10, OUT, false, seed + 1))
}

fn small_masks() -> Vec<Mask> {
    let m = small_model(1);
    let mask = |p: &&nn::Parameter| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5);
    m.params().iter().map(mask).collect()
}

fn small_batch(step: u64, rank: usize) -> (Tensor, Tensor) {
    let seed = 900 + step * 8 + rank as u64;
    (Tensor::randn(&[5, IN], 1.0, seed), Tensor::randn(&[5, OUT], 1.0, seed + 1_000))
}

/// One step of the small model; every rank's closure asserts the training
/// form: of f32 values, the first layer's bias alone.
fn small_step(th: &mut ThreadedDataParallelSamo<Sequential>, step: u64) -> Result<bool, String> {
    th.step(move |rank, m, scale| {
        let (x, t) = small_batch(step, rank);
        let (_, mut dy) = mse(&m.forward(&x), &t);
        let ((values, _), lent) = training_form(m);
        assert!(values == 4 * 10 && lent, "rank {rank}, step {step}: {values} B of values");
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    })
}

/// A step that dies between a streamed compress and its ring's end leaves
/// `∇θ16` with the ring; the retry is still refused as poisoned (not a
/// panic in the next row-block compress), a reader still gets current
/// values, and after heal + restore the group streams on, byte for byte
/// with the sequential oracle.
#[test]
fn a_failed_streamed_step_poisons_and_streaming_resumes_after_restore() {
    let world = 2;
    let mut dp = DataParallelSamo::new(vec![small_model(5), small_model(5)], small_masks(), adam());
    dp.set_scaler(LossScaler::new(1024.0));
    let mut th = ThreadedDataParallelSamo::with_comm_timeout(
        vec![small_model(5), small_model(5)],
        small_masks(),
        adam(),
        Duration::from_millis(300),
    );
    th.set_scaler(LossScaler::new(1024.0));
    let drive_oracle = |dp: &mut DataParallelSamo<Sequential>, step: u64| {
        for r in 0..world {
            let scale = dp.loss_scale();
            let (x, t) = small_batch(step, r);
            let m = dp.replica_mut(r);
            let (_, mut dy) = mse(&m.forward(&x), &t);
            tensor::ops::scale(scale, dy.as_mut_slice());
            m.backward(&dy);
        }
        dp.step();
    };
    for step in 0..2 {
        drive_oracle(&mut dp, step);
        small_step(&mut th, step).expect("healthy mesh");
    }
    let checkpoint = th.save();
    assert_eq!(checkpoint.as_ref(), dp.save().as_ref());

    th.faults().kill_rank(1, world);
    let err = small_step(&mut th, 2).expect_err("cut links fail the step");
    assert!(err.contains("timed out"), "got: {err}");
    let retry = small_step(&mut th, 2).expect_err("no step before a restore");
    assert!(retry.contains("poisoned"), "got: {retry}");
    for rank in 0..world {
        let shown = th.with_rank(rank, inspected);
        assert_eq!(shown, (4 * (IN * 10 + 10 + 10 * OUT), true, true), "rank {rank} after the failure");
    }

    th.faults().heal_rank(1, world);
    th.restore(&checkpoint).expect("restore after heal");
    for step in 2..5 {
        drive_oracle(&mut dp, step);
        small_step(&mut th, step).expect("healed mesh");
        assert_eq!(th.save().as_ref(), dp.save().as_ref(), "step {step} after the restore");
    }
    for rank in 0..world {
        let grads = th.with_rank(rank, |m, _| resident_param_bytes(m).1);
        assert_eq!(grads, 4 * 10, "rank {rank}: only the first layer's bias gradient is held");
    }
}

/// The same on a pipeline stage, where a stage that dies mid-schedule
/// fails the step *inside* every stage's compute window, `θ16` lent: a
/// reader between the failure and the restore gets current values and
/// leaves every `θ16` home, and after the restore the pipeline is byte
/// for byte the single-process trainer — which runs every pass from f32
/// values. (`tests/pipeline_threaded.rs` restores without looking first:
/// the rank loop has brought `θ16` home by then, or that resync breaks.)
#[test]
fn a_failed_pipeline_step_leaves_theta16_home_and_restore_resyncs() {
    let (mb, stages) = (3usize, 2usize);
    let batch = |step: u64, mb: usize| small_batch(step * 8 + mb as u64, 0);
    let mut model = small_model(7);
    let mut oracle = SamoTrainer::new(&mut model, small_masks(), adam());
    oracle.scaler = LossScaler::new(1024.0);
    let cfg = PipelineConfig { timeout: Duration::from_millis(300), ..PipelineConfig::new(stages, mb, 5) };
    let mut pp = ThreadedPipelineSamo::new(vec![small_model(7)], small_masks(), adam(), cfg);
    pp.set_scaler(LossScaler::new(1024.0));
    let mut drive_oracle = |step: u64| {
        for m in 0..mb {
            let (x, t) = batch(step, m);
            let (_, mut dy) = mse(&model.forward(&x), &t);
            tensor::ops::scale(oracle.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
        }
        oracle.step(&mut model);
        oracle.save()
    };
    let pipeline_step = |pp: &mut ThreadedPipelineSamo, step: u64| {
        pp.step(
            move |_, m| batch(step, m).0,
            move |_, m, y, scale| {
                let (_, mut dy) = mse(y, &batch(step, m).1);
                tensor::ops::scale(scale, dy.as_mut_slice());
                dy
            },
        )
    };
    let mut checkpoint = bytes::Bytes::new();
    for step in 0..2 {
        checkpoint = drive_oracle(step);
        pipeline_step(&mut pp, step).expect("healthy meshes");
        assert_eq!(pp.save().as_ref(), checkpoint.as_ref(), "step {step}");
    }
    pp.pipe_faults()[0].kill_rank(1, stages);
    pipeline_step(&mut pp, 2).expect_err("a dead stage fails the step");
    // Stage 0 holds the first layer (6·10 + 10), stage 1 the rest (10·4).
    for (stage, numel) in [(0, IN * 10 + 10), (1, 10 * OUT)] {
        let shown = pp.with_rank(stage, 0, inspected);
        assert_eq!(shown, (4 * numel, true, true), "stage {stage} after the failure");
    }
    pp.pipe_faults()[0].heal_rank(1, stages);
    pp.restore(&checkpoint).expect("restore after heal");
    for step in 2..5 {
        let want = drive_oracle(step);
        pipeline_step(&mut pp, step).expect("healed meshes");
        assert_eq!(pp.save().as_ref(), want.as_ref(), "step {step} after the restore");
    }
}

/// `pipe2_mlp`'s shape, scaled down: 32-row microbatches through weights
/// pruned to 0.9, where every `dW` takes the transposed product.
fn kept_mlp(seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for (i, w) in [48, 64, 64, 40].windows(2).enumerate() {
        m = m.push(Linear::new(w[0], w[1], true, seed + i as u64)).push(nn::activations::Relu::new());
    }
    m
}

fn kept_batch(step: u64, mb: usize) -> (Tensor, Tensor) {
    let seed = 3_000 + step * 16 + mb as u64;
    (Tensor::randn(&[32, 48], 1.0, seed), Tensor::randn(&[32, 40], 1.0, seed + 1_000))
}

/// A two-stage pipeline of [`kept_mlp`] over eight microbatches, and the
/// caller-driven oracle on the whole model with its step.
fn kept_pipeline() -> (ThreadedPipelineSamo, impl FnMut(u64) -> bytes::Bytes) {
    let masks = wide_masks(&kept_mlp(11));
    for mask in masks.iter().filter(|m| m.shape().len() == 2) {
        assert_eq!(plan(Op::Tn, 32, mask.nnz(), mask.numel()), Path::Transposed);
    }
    let cfg = PipelineConfig { timeout: Duration::from_millis(300), ..PipelineConfig::new(2, 8, 32) };
    let mut pp = ThreadedPipelineSamo::new(vec![kept_mlp(11)], masks.clone(), adam(), cfg);
    pp.set_scaler(LossScaler::new(1024.0));
    let mut model = kept_mlp(11);
    let mut oracle = SamoTrainer::new(&mut model, masks, adam());
    oracle.scaler = LossScaler::new(1024.0);
    let oracle_step = move |step: u64| {
        for mb in 0..8 {
            let (x, t) = kept_batch(step, mb);
            let (_, mut dy) = mse(&model.forward(&x), &t);
            tensor::ops::scale(oracle.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
        }
        oracle.step(&mut model);
        oracle.save()
    };
    (pp, oracle_step)
}

/// One pipelined step of [`kept_batch`]es; `cut` runs on the last stage
/// before each microbatch's loss gradient.
fn kept_step(pp: &mut ThreadedPipelineSamo, step: u64, cut: impl Fn(usize) + Send + Sync + 'static) -> Result<bool, String> {
    pp.step(
        move |_, mb| kept_batch(step, mb).0,
        move |_, mb, y, scale| {
            cut(mb);
            let (_, mut dy) = mse(y, &kept_batch(step, mb).1);
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        },
    )
}

/// A stage's weight gradient is its kept sums from the first microbatch to
/// the ring: after every step no stage holds a dense gradient of a weight
/// matrix (its biases keep theirs), and the checkpoint is the oracle's.
#[test]
fn no_pipeline_stage_holds_a_dense_weight_gradient() {
    let (mut pp, mut oracle_step) = kept_pipeline();
    for step in 0..3 {
        kept_step(&mut pp, step, |_| {}).expect("healthy meshes");
        assert_eq!(pp.save().as_ref(), oracle_step(step).as_ref(), "step {step}");
        for stage in 0..2 {
            let held = pp.with_rank(stage, 0, |m, _| {
                m.params().iter().map(|p| (p.value.shape().len(), p.grad.numel())).collect::<Vec<_>>()
            });
            for (rank, numel) in held {
                assert_eq!(numel == 0, rank == 2, "stage {stage}, step {step}: {rank}-D parameter holds {numel} gradients");
            }
        }
    }
}

/// A link cut mid-step leaves both stages holding sums of the microbatches
/// they got through. After heal and restore the replay is the oracle's
/// byte for byte, which it is only if the restore emptied them.
#[test]
fn a_cut_mid_step_leaves_no_kept_sums_behind_the_restore() {
    let (mut pp, mut oracle_step) = kept_pipeline();
    let mut checkpoint = bytes::Bytes::new();
    for step in 0..2 {
        checkpoint = oracle_step(step);
        kept_step(&mut pp, step, |_| {}).expect("healthy meshes");
        assert_eq!(pp.save().as_ref(), checkpoint.as_ref(), "step {step}");
    }
    // Stage 0 gets the gradients of microbatches 0 to 3 and no more.
    let faults = Arc::clone(&pp.pipe_faults()[0]);
    let cut = move |mb: usize| {
        if mb == 4 {
            faults.cut_link(1, 0);
        }
    };
    kept_step(&mut pp, 2, cut).expect_err("a cut link fails the step");
    pp.pipe_faults()[0].heal_link(1, 0);
    pp.restore(&checkpoint).expect("restore after heal");
    for step in 2..4 {
        let want = oracle_step(step);
        kept_step(&mut pp, step, |_| {}).expect("healed meshes");
        assert_eq!(pp.save().as_ref(), want.as_ref(), "step {step} after the restore");
    }
}
