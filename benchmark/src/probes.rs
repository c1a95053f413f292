//! Probes: each times one public function of one layer, from outside, at
//! the shapes a workload uses it with. A probe runs once in the whole set:
//! at the end of the traced run of the workload whose shapes it uses, after
//! that workload's threads have been joined (its metric reads 0 in the
//! other workloads' runs, like a span of a layer they never enter). It
//! reports the median of as many calls as fit its slice of the budget (at
//! least [`MIN_CALLS`]). GB/s figures are computed bytes over time, not
//! measured memory traffic.

use crate::metrics::Values;
use crate::schedule::{derive_seed, SplitMix64};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::gpt_single::GptSingle;
use crate::workloads::{adam, Ctx, Training};
use comms::{Communicator, InProcTransport, Kind, Message, Payload, Tag, TcpTransport, Transport};
use nn::layer::Layer;
use prune::{Mask, MomentumPruneRegrow};
use samo::state::RemapScratch;
use samo::{SamoLayerState, TrainerMeta};
use serve::harness::{toy_masks, toy_model};
use serve::Backend;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor::f16::F16;

const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 200;

/// One probe's slice of a budget shared by `probes` of them.
fn slice_of(budget_s: f64, probes: usize) -> Duration {
    Duration::from_secs_f64(budget_s / probes as f64)
}

fn random_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_signed()).collect()
}

/// Median wall of `f` in milliseconds over calls that fill `slice`.
fn time_ms(slice: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_CALLS || (t0.elapsed() < slice && ms.len() < MAX_CALLS) {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

fn gflops(flop: f64, ms: f64) -> f64 {
    flop / (ms * 1e-3) / 1e9
}

fn gbps(bytes: f64, ms: f64) -> f64 {
    bytes / (ms * 1e-3) / 1e9
}

fn sgemm(
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
    slice: Duration,
    v: &mut Values,
) {
    let (a, b) = (random_f32(m * k, seed), random_f32(k * n, seed + 1));
    let mut c = vec![0.0f32; m * n];
    let ms = time_ms(slice, || {
        tensor::gemm::matmul(m, n, k, black_box(&a), black_box(&b), black_box(&mut c))
    });
    v.set(name, gflops(2.0 * (m * n * k) as f64, ms));
}

/// `gpt_single`: the GEMM its attention and MLP blocks spend their time
/// in, and the cost of the program's own telemetry on its step.
pub fn gpt_single(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    sgemm(
        "tensor.sgemm_gflops.gpt",
        512,
        64,
        64,
        ctx.seed,
        slice_of(budget_s, 6),
        v,
    );
    telemetry_probe(ctx, budget_s * 5.0 / 6.0, v)
}

/// `pipe2_mlp`: one microbatch through one block.
pub fn pipe2_mlp(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    sgemm(
        "tensor.sgemm_gflops.pipe",
        32,
        512,
        512,
        ctx.seed,
        slice_of(budget_s, 1),
        v,
    );
    Ok(())
}

/// Kept values of one `dp2_tcp_deep` weight, and of `dp2_tcp_wide`'s largest.
const SMALL: usize = 1_638;
const LARGE: usize = 419_430;

fn f16_buf(n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| F16::from_f32((i % 97) as f32 / 16.0 - 3.0))
        .collect()
}

/// A mean all-reduce of `n` f16 values; the input is built once and a call
/// pays only for copying it.
fn allreduce<T: Transport>(
    n: usize,
) -> impl Fn(&mut Communicator<T>) -> Result<(), comms::CommsError> + Sync {
    let input = f16_buf(n);
    move |c| c.allreduce_mean_f16(&mut input.clone())
}

fn tcp_mesh() -> Result<Vec<TcpTransport>, String> {
    TcpTransport::local_mesh(2).map_err(|e| format!("loopback mesh: {e}"))
}

/// `dp2_tcp_wide`: its thin GEMM, the f16 passes and fused step kernels on
/// its largest layer, and the collectives at that layer's message size.
pub fn dp2_tcp_wide(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    let (seed, slice) = (ctx.seed, slice_of(budget_s, 9));
    sgemm("tensor.sgemm_gflops.wide", 4, 2048, 2048, seed, slice, v);
    let wide32 = random_f32(LARGE, seed + 2);
    let mut half = vec![F16::ZERO; LARGE];
    let ms = time_ms(slice, || {
        tensor::f16::narrow_slice(black_box(&wide32), black_box(&mut half))
    });
    v.set("tensor.f16_narrow_gbps", gbps(6.0 * LARGE as f64, ms));
    let mut back = vec![0.0f32; LARGE];
    let ms = time_ms(slice, || {
        tensor::f16::widen_slice(black_box(&half), black_box(&mut back))
    });
    v.set("tensor.f16_widen_gbps", gbps(6.0 * LARGE as f64, ms));

    let opt = adam(1e-3);
    let shape = [2048usize, 2048];
    let numel = shape[0] * shape[1];
    let weights = random_f32(numel, seed + 12);
    let mask = prune::magnitude_prune(&weights, &shape, 0.9);
    let nnz = mask.nnz() as f64;
    let mut layer = SamoLayerState::from_params(&weights, mask, &opt);
    let grad = random_f32(numel, seed + 13);
    let ms = time_ms(slice, || {
        black_box(layer.compress_grad_fused(black_box(&grad)));
    });
    v.set("core.compress_grad_fused_ms", ms);
    // Per kept value: index 4 B + gathered gradient 4 B read, f16 2 B written.
    v.set("core.compress_grad_fused_gbps", gbps(10.0 * nnz, ms));
    let mut dense = layer.dense_f32_params();
    let ms = time_ms(slice, || {
        layer.optimizer_step_fused(&opt, 1.0 / 1024.0, black_box(&mut dense))
    });
    v.set("core.optimizer_step_fused_ms", ms);
    // Per kept value: g16 2 + index 4 read; θ32, m, v 4 each read and
    // written; g32 4, θ16 2 and the dense f32 view 4 written.
    v.set("core.optimizer_step_fused_gbps", gbps(40.0 * nnz, ms));

    v.set(
        "comms.allreduce_ms.inproc.large",
        collective_ms(InProcTransport::mesh(2), slice, allreduce(LARGE))?.0,
    );
    v.set(
        "comms.allreduce_ms.tcp.large",
        collective_ms(tcp_mesh()?, slice, allreduce(LARGE))?.0,
    );
    let mine = f16_buf(LARGE / 2);
    let gather = |c: &mut Communicator<TcpTransport>| {
        c.all_gather_f16(&mine, &[LARGE / 2, LARGE / 2]).map(|_| ())
    };
    v.set(
        "comms.all_gather_f16_ms.tcp.large",
        collective_ms(tcp_mesh()?, slice, gather)?.0,
    );
    // One 1 MB frame through the codec both ways.
    let msg = Message {
        tag: Tag {
            epoch: 0,
            kind: Kind::AllReduce,
            id: 1,
            step: 0,
        },
        payload: Payload::F16(f16_buf(512 * 1024)),
    };
    let ms = time_ms(slice, || {
        let frame = comms::tcp::framing::encode(black_box(&msg));
        black_box(
            comms::tcp::framing::decode(&frame[4..]).expect("a frame the codec wrote decodes"),
        );
    });
    v.set("comms.framing.encode_decode_ms", ms);
    Ok(())
}

/// `dp2_tcp_deep`: the collective at its message size on both transports
/// (one after the other in one run, so the two figures compare), the
/// loopback round trip and what a mesh costs to set up.
pub fn dp2_tcp_deep(_ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    let slice = slice_of(budget_s, 3);
    v.set(
        "comms.allreduce_ms.inproc.small",
        collective_ms(InProcTransport::mesh(2), slice, allreduce(SMALL))?.0,
    );
    let (ms, mesh) = collective_ms(tcp_mesh()?, slice, allreduce(SMALL))?;
    v.set("comms.allreduce_ms.tcp.small", ms);
    // The heartbeat measures the round trip once per interval; wait for
    // the first measurement if the mesh is younger than that.
    let give_up = Instant::now() + Duration::from_secs(1);
    let rtt = loop {
        match mesh[0].transport().rtt_us(1) {
            Some(us) => break us as f64,
            None if Instant::now() > give_up => break 0.0,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    v.set("comms.tcp_rtt_us", rtt);
    drop(mesh);
    let mut setup = Vec::new();
    for _ in 0..MIN_CALLS {
        let t = Instant::now();
        drop(black_box(tcp_mesh()?));
        setup.push(t.elapsed().as_secs_f64() * 1e3);
    }
    v.set("comms.mesh_setup_ms", median(&setup));
    Ok(())
}

/// `dyn_ckpt`: its largest layer's mask update, and the remap kernel alone
/// on the pair of masks one such update produces.
pub fn dyn_ckpt(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    let (seed, slice) = (ctx.seed, slice_of(budget_s, 3));
    let shape = [1024usize, 1024];
    let numel = shape[0] * shape[1];
    let (weights, score) = (random_f32(numel, seed + 10), random_f32(numel, seed + 11));
    let ms = time_ms(slice, || {
        black_box(prune::magnitude_prune(black_box(&weights), &shape, 0.9));
    });
    v.set("prune.magnitude_prune_ms", ms);
    let mask_a = prune::magnitude_prune(&weights, &shape, 0.9);
    let mut pruned = weights.clone();
    mask_a.apply(&mut pruned);
    let policy = MomentumPruneRegrow::new(vec![(0, 0.9), (100, 0.95)], 16, 0.1);
    let ms = time_ms(slice, || {
        black_box(policy.next_mask(16, black_box(&pruned), black_box(&score), &mask_a));
    });
    v.set("prune.next_mask_ms", ms);
    let mask_b = policy.next_mask(16, &pruned, &score, &mask_a);
    let opt = adam(1e-3);
    let mut layer = SamoLayerState::from_params(&pruned, mask_a.clone(), &opt);
    let mut scratch = RemapScratch::for_layer(&mut layer, &opt);
    let mut to_b = true;
    let ms = time_ms(slice, || {
        let target: &Mask = if to_b { &mask_b } else { &mask_a };
        black_box(layer.remap_compressed_state(target.clone(), &mut scratch));
        to_b = !to_b;
    });
    v.set("core.remap_kernel_ms", ms);
    Ok(())
}

/// Median wall of one world-2 collective on rank 0, each rank on its own
/// thread; rank 1 runs the same calls so the two stay in lockstep.
fn collective_ms<T: Transport + 'static>(
    mesh: Vec<T>,
    slice: Duration,
    op: impl Fn(&mut Communicator<T>) -> Result<(), comms::CommsError> + Sync,
) -> Result<(f64, Vec<Communicator<T>>), String> {
    // Both ranks must run the same number of calls, so the count is fixed
    // from a first timed call rather than from a clock each rank reads.
    let comms: Vec<Communicator<T>> = mesh.into_iter().map(Communicator::new).collect();
    let run = |comms: Vec<Communicator<T>>,
               calls: usize|
     -> Result<(Vec<f64>, Vec<Communicator<T>>), String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    let op = &op;
                    s.spawn(
                        move || -> Result<(Vec<f64>, Communicator<T>), comms::CommsError> {
                            let mut ms = Vec::with_capacity(calls);
                            for _ in 0..calls {
                                let t = Instant::now();
                                op(&mut c)?;
                                ms.push(t.elapsed().as_secs_f64() * 1e3);
                            }
                            Ok((ms, c))
                        },
                    )
                })
                .collect();
            let mut rank0 = Vec::new();
            let mut back = Vec::new();
            for (r, h) in handles.into_iter().enumerate() {
                let (ms, c) = h
                    .join()
                    .map_err(|_| "a probe rank panicked".to_string())?
                    .map_err(|e| format!("collective probe: {e}"))?;
                if r == 0 {
                    rank0 = ms;
                }
                back.push(c);
            }
            Ok((rank0, back))
        })
    };
    let (first, comms) = run(comms, 2)?;
    let calls =
        ((slice.as_secs_f64() * 1e3 / first[1].max(1e-3)) as usize).clamp(MIN_CALLS, MAX_CALLS);
    let (ms, comms) = run(comms, calls)?;
    Ok((median(&ms), comms))
}

/// `serve_open`: one hidden layer at the batch the batcher typically
/// fills, in int8 and 2:4 form; `infer_batch` and `build_model` on all three
/// backends (the two without a workload of their own included); and the
/// verified load a hot reload pays.
pub fn serve_open(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
    const DIMS: &[usize] = &[64, 768, 768, 64];
    let (seed, slice) = (ctx.seed, slice_of(budget_s, 15));
    let (rows, dim) = (8, 768);
    let (x, w) = (
        random_f32(rows * dim, seed + 3),
        random_f32(dim * dim, seed + 4),
    );
    let packed = tensor::qgemm::PackedBi8::pack(&w, dim, dim);
    let mut y = vec![0.0f32; rows * dim];
    let tier = tensor::simd::active();
    let ms = time_ms(slice, || {
        tensor::qgemm::qgemm_dyn(tier, black_box(&x), rows, &packed, black_box(&mut y))
    });
    v.set(
        "tensor.qgemm_gflops.serve",
        gflops(2.0 * (rows * dim * dim) as f64, ms),
    );
    // Dense-equivalent flops, so the figure compares with the sgemm rows.
    let nm = sparse::nm::Nm24::from_dense(&w, dim, dim);
    let xt = random_f32(dim * rows, seed + 5);
    let ms = time_ms(slice, || {
        sparse::nm::spmm_nm24(&nm, black_box(&xt), rows, black_box(&mut y))
    });
    v.set(
        "sparse.nm24_spmm_gflops",
        gflops(2.0 * (rows * dim * dim) as f64, ms),
    );

    let opt = serve::harness::adam();
    let model = toy_model(DIMS, derive_seed(seed, 30));
    let states: Vec<SamoLayerState> = model
        .params()
        .iter()
        .zip(toy_masks(&model))
        .map(|(p, mask)| SamoLayerState::from_params(p.value.as_slice(), mask, &opt))
        .collect();
    for (backend, build_name, infer_names) in [
        (
            Backend::Dense,
            "serve.build_model_ms.dense",
            [
                "serve.infer_batch_ms.dense.b1",
                "serve.infer_batch_ms.dense.b8",
                "serve.infer_batch_ms.dense.b32",
            ],
        ),
        (
            Backend::Nm24,
            "serve.build_model_ms.nm24",
            [
                "serve.infer_batch_ms.nm24.b1",
                "serve.infer_batch_ms.nm24.b8",
                "serve.infer_batch_ms.nm24.b32",
            ],
        ),
        (
            Backend::Int8,
            "serve.build_model_ms.int8",
            [
                "serve.infer_batch_ms.int8.b1",
                "serve.infer_batch_ms.int8.b8",
                "serve.infer_batch_ms.int8.b32",
            ],
        ),
    ] {
        let ms = time_ms(slice, || {
            black_box(
                serve::build_model(&states, backend)
                    .expect("the toy MLP lowers onto every backend"),
            );
        });
        v.set(build_name, ms);
        let mut built = serve::build_model(&states, backend)?;
        for (name, batch) in infer_names.into_iter().zip([1usize, 8, 32]) {
            let x = random_f32(batch * DIMS[0], ctx.seed + batch as u64);
            let mut out = Vec::new();
            let ms = time_ms(slice, || {
                black_box(
                    built
                        .seq
                        .infer_batch(black_box(&x), batch, DIMS[0], &mut out),
                );
            });
            v.set(name, ms);
        }
    }
    let meta = TrainerMeta {
        loss_scale: 1024.0,
        good_steps: 0,
        steps_taken: 1,
        steps_skipped: 0,
    };
    let path = ctx.run_dir.join("probe.samo");
    std::fs::write(&path, samo::serialize::save_checkpoint(&states, &meta))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let ms = time_ms(slice, || {
        black_box(serve::load_verified(&path, 1, &opt).expect("a checkpoint just written loads"));
    });
    v.set("serve.load_verified_ms", ms);
    Ok(())
}

/// `gpt_single` steps with the program's own telemetry on against off,
/// alternating step by step: the median ratio of each on-step to the
/// off-step just before it, so that a slow stretch hits both sides.
fn telemetry_probe(ctx: &Ctx, seconds: f64, v: &mut Values) -> Result<(), String> {
    let mut w = GptSingle::bring_up(ctx)?;
    let mut ratios = Vec::new();
    let t0 = Instant::now();
    let mut step = 0;
    while ratios.len() < MIN_CALLS || t0.elapsed().as_secs_f64() < seconds {
        let mut pair = [0.0; 2];
        for (enabled, ms) in [false, true].into_iter().zip(&mut pair) {
            telemetry::set_enabled(enabled);
            let t = Instant::now();
            w.step(step, &Recorder::off(), None)?;
            step += 1;
            *ms = t.elapsed().as_secs_f64() * 1e3;
        }
        ratios.push(pair[1] / pair[0]);
    }
    telemetry::set_enabled(false);
    v.set("telemetry.on_overhead_share", median(&ratios) - 1.0);
    Ok(())
}
