//! `repro bench` — best-of-N wall-clock benchmarks ([`crate::harness`])
//! over the training hot-path kernels, recorded to `BENCH_hotpaths.json`
//! at the repo root so every PR leaves a perf trajectory behind.
//!
//! Covered kernels (see EXPERIMENTS.md for the JSON schema):
//! * `samo_step_fused` / `samo_step_reference` — the fused two-kernel
//!   SAMO step vs the retained three-phase oracle, same layer state.
//!   Gated: the fused path may never be slower than the reference.
//! * `gemm_256` and `gemm_attn_32x32x16` — one large square GEMM and a
//!   swarm of attention-shaped small GEMMs.
//! * `gemm_nn_4x2048x2048` / `gemm_nt_4x2048x2048` / `gemm_nn_1x768x768`
//!   — the thin shapes of data-parallel training and batch-1 serving:
//!   `A·B` against `A·Bᵀ` (the form `Linear::forward` runs) at four
//!   rows, and a single row, which runs entirely in the edge tiles.
//!   Gated by [`crate::gates::THIN_NT_OVER_NN_MAX`] and
//!   [`crate::gates::ONE_ROW_GFLOPS_MIN`].
//! * `dw_dense_4x2048x2048` / `dw_streamed_4x2048x2048` — the weight
//!   gradient of a thin-batch `Linear` at p = 0.9 on its way into `∇θ16`:
//!   `matmul_tn_acc` into the dense gradient + `compress_grad_fused` +
//!   clearing it, against `matmul_tn_row_blocks` compressed block by
//!   block (same `∇θ16` bits, asserted). Gated: streamed may never be
//!   slower than dense.
//! * `fwd_dx_f32w_4x2048x2048` / `fwd_dx_f16w_4x2048x2048` — forward
//!   and input gradient of the same thin-batch `Linear` (`x·Wᵀ`, then
//!   `dy·W`) from the f32 view of `θ16` against `θ16` itself, widened by
//!   the GEMM's pack step (same bits, asserted). Gated: the
//!   half-precision weight may never be slower than its f32 copy.
//! * `compress.f32` / `expand.f16` / `compress.f16` — the compression
//!   and expansion primitives, at the element types the step uses.
//! * `allreduce_compressed` — the compressed fp16 gradient all-reduce.
//!
//! Beside the kernels, `gpt_layers`: which layer type owns the
//! compute-bound step. Every layer of the `gpt_single` benchmark workload
//! at its shapes (`[B, T, C] = [16, 32, 64]`, 4 heads, 2 blocks), forward
//! and forward + backward, times its calls per step, summed next to one
//! whole `TinyGpt` step.

use crate::harness::{self, duel, obj, random_vec, round6, sample, Sample};
use models::tiny::{TinyGpt, TinyGptConfig};
use nn::activations::Gelu;
use nn::attention::CausalSelfAttention;
use nn::layer::Layer;
use nn::linear::Linear;
use nn::mixed::Optimizer;
use nn::norm::LayerNorm;
use nn::optim::AdamConfig;
use samo::state::SamoLayerState;
use samo::trainer::allreduce_mean_f16;
use samo::{compress, expand};
use telemetry::json::Json;
use tensor::f16::{f16_slice_to_f32, f32_slice_to_f16, F16};
use tensor::gemm::{matmul, matmul_nt, matmul_tn_acc, matmul_tn_row_blocks, sgemm, GemmElem};
use tensor::Tensor;

/// One benchmarked kernel: per-invocation times in milliseconds.
struct KernelResult {
    name: &'static str,
    /// Problem size (elements for memory-bound kernels, FLOPs/2 for GEMM).
    n: usize,
    reps: usize,
    timed: Sample,
    /// Arithmetic work per invocation, for GEMM-shaped kernels — emitted
    /// as `gflops` (= flops / best_ms / 1e6) alongside `best_ms`.
    flops: Option<u64>,
    /// Bytes moved per invocation, for memory-bound kernels — emitted as
    /// `gb_s`. The accounting is the *algorithmic* traffic (every index,
    /// source and destination element touched exactly once), not
    /// cacheline-granular DRAM traffic, so it is a stable, comparable
    /// lower bound across machines.
    bytes: Option<u64>,
}

/// Runs the suite, records it into `BENCH_hotpaths.json` in the current
/// directory (the repo root when invoked as `repro bench`) and holds it
/// to the `kernels` gate.
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 3 } else { 10 };
    let phi = if quick { 1 << 18 } else { 1 << 20 };
    let sparsity = 0.9;
    let opt = Optimizer::Adam(AdamConfig::default());

    telemetry::log_info!(
        "bench: best-of-{best_of} x {reps} reps, phi = {phi}, {} worker thread(s)",
        tensor::pool::ThreadPool::global().workers()
    );
    let mut results: Vec<KernelResult> = Vec::new();

    // --- Fused vs reference three-phase SAMO step (same inputs). -----
    let mask = prune::random_prune(&[phi], sparsity, 7);
    let init = random_vec(phi, 1);
    let grads = {
        let mut g = random_vec(phi, 2);
        // Pre-scaled gradients: keep them finite so no step is skipped.
        for v in &mut g {
            *v *= 0.125;
        }
        g
    };
    {
        let mut st = SamoLayerState::from_params(&init, mask.clone(), &opt);
        let mut dense = st.dense_f32_params();
        let timed = sample(best_of, reps, || {
            let finite = st.compress_grad_fused(&grads);
            assert!(finite);
            st.optimizer_step_fused(&opt, 1.0, &mut dense);
        });
        results.push(KernelResult { name: "samo_step_fused", n: phi, reps, timed, flops: None, bytes: None });
    }
    {
        let mut st = SamoLayerState::from_params(&init, mask.clone(), &opt);
        let mut dense = st.dense_f32_params();
        let timed = sample(best_of, reps, || {
            st.compress_grad(&grads);
            assert!(!st.grads_non_finite());
            st.optimizer_step(&opt, 1.0);
            dense.copy_from_slice(&st.dense_f32_params());
        });
        results.push(KernelResult { name: "samo_step_reference", n: phi, reps, timed, flops: None, bytes: None });
    }

    // --- GEMM: one large square multiply, the thin training/serving
    // shapes, one attention-shaped swarm. ------------------------------
    let gemm_row = |name, (m, n, k): (usize, usize, usize), reps, timed| KernelResult {
        name,
        n: m * n * k,
        reps,
        timed,
        flops: Some(2 * (m * n * k) as u64),
        bytes: None,
    };
    for (name, (m, n, k)) in [("gemm_256", (256, 256, 256)), ("gemm_nn_1x768x768", (1, 768, 768))] {
        let a = random_vec(m * k, 3);
        let b = random_vec(k * n, 4);
        let mut c = vec![0.0f32; m * n];
        let timed = sample(best_of, reps, || matmul(m, n, k, &a, &b, &mut c));
        results.push(gemm_row(name, (m, n, k), reps, timed));
    }
    {
        // `A·B` against `A·Bᵀ` (B stored n×k, as `Linear` stores its
        // weights) on the same buffers. A few ms each: 4× the reps make
        // the gated ratio repeatable at no cost worth naming.
        let (m, n, k) = (4, 2048, 2048);
        let a = random_vec(m * k, 3);
        let b = random_vec(k * n, 4);
        let (mut c0, mut c1) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let [nn, nt] = duel(
            best_of,
            4 * reps,
            || matmul(m, n, k, &a, &b, &mut c0),
            || matmul_nt(m, n, k, &a, &b, &mut c1),
        );
        results.push(gemm_row("gemm_nn_4x2048x2048", (m, n, k), 4 * reps, nn));
        results.push(gemm_row("gemm_nt_4x2048x2048", (m, n, k), 4 * reps, nt));
    }
    {
        // dW = dyᵀ·x into ∇θ16, the two ways the trainers do it. The
        // dense form streams a φ-sized gradient through memory three
        // times (accumulate, gather at one kept value per cache line,
        // clear); the streamed form gathers each 64-row block while it
        // is still in cache and has no gradient to clear.
        let (m, n, k) = (2048, 2048, 4);
        let dy = random_vec(k * m, 20);
        let x = random_vec(k * n, 21);
        let wmask = prune::random_prune(&[m, n], sparsity, 22);
        let state = SamoLayerState::from_params(&vec![0.0; m * n], wmask, &opt);
        let (mut dense_st, streamed_st) = (state.clone(), std::sync::Mutex::new(state));
        let mut grad = vec![0.0f32; m * n];
        let [dense, streamed] = duel(
            best_of,
            reps,
            || {
                matmul_tn_acc(m, n, k, &dy, &x, &mut grad);
                assert!(dense_st.compress_grad_fused(&grad));
                grad.fill(0.0);
            },
            || {
                matmul_tn_row_blocks(m, n, k, &dy, &x, |r0, r1, block| {
                    let mut st = streamed_st.lock().expect("no gather panics");
                    assert!(st.compress_grad_rows(r0, r1, block));
                })
            },
        );
        let streamed_st = streamed_st.into_inner().expect("no gather panics");
        assert!(dense_st.grad16 == streamed_st.grad16, "streamed ∇θ16 differs from dense");
        results.push(gemm_row("dw_dense_4x2048x2048", (m, n, k), reps, dense));
        results.push(gemm_row("dw_streamed_4x2048x2048", (m, n, k), reps, streamed));
    }
    {
        // y = x·Wᵀ and dx = dy·W of that layer, the two products that
        // read the weight: from the f32 view a caller-driven trainer
        // keeps of θ16, and from θ16 itself as the thread-per-rank
        // runtimes lend it — half the bytes of a bandwidth-bound stream,
        // widened exactly as the pack step copies them.
        let (m, n, k) = (4, 2048, 2048);
        let w16 = f32_slice_to_f16(&random_vec(n * k, 23));
        let w32 = f16_slice_to_f32(&w16);
        let (x, dy) = (random_vec(m * k, 24), random_vec(m * n, 25));
        type Dims = (usize, usize, usize);
        fn fwd_dx<W: GemmElem>((m, n, k): Dims, w: &[W], io: [&[f32]; 2], y: &mut [f32], dx: &mut [f32]) {
            sgemm(false, true, m, n, k, 1.0, io[0], k, w, k, 0.0, y, n);
            sgemm(false, false, m, k, n, 1.0, io[1], n, w, k, 0.0, dx, k);
        }
        let (mut y32, mut dx32) = (vec![0.0f32; m * n], vec![0.0f32; m * k]);
        let (mut y16, mut dx16) = (y32.clone(), dx32.clone());
        let [f32w, f16w] = duel(
            best_of,
            4 * reps,
            || fwd_dx((m, n, k), &w32, [&x, &dy], &mut y32, &mut dx32),
            || fwd_dx((m, n, k), &w16, [&x, &dy], &mut y16, &mut dx16),
        );
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert!(bits(&y32) == bits(&y16), "forward from θ16 differs from its f32 view");
        assert!(bits(&dx32) == bits(&dx16), "dx from θ16 differs from its f32 view");
        // Two products of m·n·k multiply-adds each.
        results.push(gemm_row("fwd_dx_f32w_4x2048x2048", (2 * m, n, k), 4 * reps, f32w));
        results.push(gemm_row("fwd_dx_f16w_4x2048x2048", (2 * m, n, k), 4 * reps, f16w));
    }
    {
        // Fig. 4's attention inner loop: batch x heads = 64 score GEMMs
        // of (seq=32) x (seq=32) over head_dim=16 per layer.
        let (seq, hd, loops) = (32, 16, 64);
        let q = random_vec(seq * hd, 5);
        let k = random_vec(seq * hd, 6);
        let mut scores = vec![0.0f32; seq * seq];
        let timed = sample(best_of, reps, || {
            for _ in 0..loops {
                matmul_nt(seq, seq, hd, &q, &k, &mut scores);
            }
        });
        results.push(KernelResult {
            name: "gemm_attn_32x32x16",
            n: loops * seq * seq * hd,
            reps,
            timed,
            flops: Some(2 * (loops * seq * seq * hd) as u64),
            bytes: None,
        });
    }

    // --- Compression / expansion primitives. -------------------------
    let memory_row = |name, timed, bytes: usize| KernelResult {
        name,
        n: phi,
        reps,
        timed,
        flops: None,
        bytes: Some(bytes as u64),
    };
    let dense32 = random_vec(phi, 8);
    {
        let timed = sample(best_of, reps, || {
            std::hint::black_box(compress(std::hint::black_box(&dense32), &mask));
        });
        // Gather: 4 B index + 4 B source read + 4 B write per nonzero.
        results.push(memory_row("compress.f32", timed, 12 * mask.nnz()));
    }
    let values16: Vec<F16> = dense32[..mask.nnz()].iter().map(|&v| F16::from_f32(v)).collect();
    {
        let timed = sample(best_of, reps, || {
            std::hint::black_box(expand(std::hint::black_box(&values16), &mask));
        });
        // Scatter into a dense f16 buffer: the full 2 B/elem output is
        // written (zeros included) plus 2 B value + 4 B index per nonzero.
        results.push(memory_row("expand.f16", timed, 2 * phi + 6 * mask.nnz()));
    }
    let dense16: Vec<F16> = dense32.iter().map(|&v| F16::from_f32(v)).collect();
    {
        let timed = sample(best_of, reps, || {
            std::hint::black_box(compress(std::hint::black_box(&dense16), &mask));
        });
        // Gather: 4 B index + 2 B source read + 2 B write per nonzero.
        results.push(memory_row("compress.f16", timed, 8 * mask.nnz()));
    }

    // --- Compressed gradient all-reduce (4 ranks). --------------------
    {
        let ranks = 4;
        let nnz = mask.nnz();
        let mut bufs: Vec<Vec<F16>> = (0..ranks)
            .map(|r| random_vec(nnz, 10 + r as u64).iter().map(|&v| F16::from_f32(v)).collect())
            .collect();
        let timed = sample(best_of, reps, || {
            let mut views: Vec<&mut [F16]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            allreduce_mean_f16(&mut views).expect("matching layouts");
        });
        // Every rank's buffer is read and rewritten in place: 4 B/elem.
        results.push(KernelResult {
            name: "allreduce_compressed",
            n: ranks * nnz,
            reps,
            timed,
            flops: None,
            bytes: Some(4 * (ranks * nnz) as u64),
        });
    }

    // --- Report. ------------------------------------------------------
    let mut tab =
        crate::Table::new("bench_hotpaths", &["kernel", "n", "best_ms", "throughput", "samples"]);
    for r in &results {
        let best_ms = r.timed.best_ms;
        tab.push(vec![
            r.name.to_string(),
            r.n.to_string(),
            format!("{best_ms:.4}"),
            match (r.flops, r.bytes) {
                (Some(f), _) => format!("{:.2} GFLOP/s", giga_per_s(f, best_ms)),
                (_, Some(b)) => format!("{:.2} GB/s", giga_per_s(b, best_ms)),
                _ => "-".to_string(),
            },
            r.timed.runs_ms.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(" "),
        ]);
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write bench CSV: {e}"))?;
    telemetry::log_info!("bench: CSV written to {}", csv.display());

    let mut own = to_json(&results, quick, best_of);
    own.push(("gpt_layers".to_string(), gpt_layers(best_of, reps)));
    harness::record("kernels", own)
}

/// The per-layer-type profile of one `gpt_single` step (the benchmark
/// workload's shapes, restated here because `benchmark/` is a consumer of
/// this workspace, not a dependency): best-of-N milliseconds per call,
/// forward and forward + backward, and how many calls a step makes.
/// `attention_heads` is the attention layer less its two `Linear`s — the
/// per-head products, mask and softmax.
fn gpt_layers(best_of: usize, reps: usize) -> Json {
    let (batch, seq, dim, heads, blocks) = (16, 32, 64, 4, 2);
    let config = TinyGptConfig { vocab: nn::data::VOCAB, seq, dim, heads, layers: blocks };
    let rows = batch * seq;
    let time = |layer: &mut dyn Layer, x: &Tensor| {
        let dy = Tensor::full(layer.forward(x).shape(), 0.01);
        let fwd = sample(best_of, reps, || {
            std::hint::black_box(layer.forward(x));
        });
        let both = sample(best_of, reps, || {
            layer.forward(x);
            std::hint::black_box(layer.backward(&dy));
        });
        [fwd.best_ms, both.best_ms]
    };
    let flat = |cols: usize, seed| Tensor::randn(&[rows, cols], 1.0, seed);
    let linear = |n_in, n_out| time(&mut Linear::new(n_in, n_out, true, 1), &flat(n_in, 2));
    let (qkv, proj) = (linear(dim, 3 * dim), linear(dim, dim));
    let (up, down) = (linear(dim, 4 * dim), linear(4 * dim, dim));
    let x3 = Tensor::randn(&[batch, seq, dim], 1.0, 3);
    let attn = time(&mut CausalSelfAttention::new(dim, heads, 4), &x3);
    let attn_heads = [0, 1].map(|i| (attn[i] - qkv[i] - proj[i]).max(0.0));
    let gelu = time(&mut Gelu::new(), &flat(4 * dim, 5));
    let norm = time(&mut LayerNorm::new(dim), &x3);

    let step_ms = {
        let mut gpt = TinyGpt::new(config, 6);
        let ids: Vec<usize> = (0..rows).map(|i| (i * 7 + i / seq) % config.vocab).collect();
        sample(best_of, reps, || {
            let logits = gpt.forward_ids(&ids, batch, seq);
            let (_, dlogits) = nn::loss::cross_entropy(&logits, &ids);
            std::hint::black_box(gpt.backward(&dlogits));
        })
        .best_ms
    };

    let layers = [
        ("gelu", blocks, gelu),
        ("attention_heads", blocks, attn_heads),
        ("linear_qkv", blocks, qkv),
        ("linear_proj", blocks, proj),
        ("linear_up", blocks, up),
        ("linear_down", blocks, down),
        ("layer_norm", 2 * blocks + 1, norm),
    ];
    let sum_ms: f64 = layers.iter().map(|(_, calls, ms)| *calls as f64 * ms[1]).sum();
    let mut tab = crate::Table::new(
        "bench_gpt_layers",
        &["layer", "calls_per_step", "fwd_ms", "fwd_bwd_ms", "per_step_ms", "share_of_step"],
    );
    for (name, calls, [fwd, both]) in &layers {
        let per_step = *calls as f64 * both;
        tab.push(vec![
            name.to_string(),
            calls.to_string(),
            format!("{fwd:.4}"),
            format!("{both:.4}"),
            format!("{per_step:.4}"),
            format!("{:.1}%", 100.0 * per_step / step_ms),
        ]);
    }
    println!("{}", tab.render());
    println!("layers sum {sum_ms:.3} ms of a {step_ms:.3} ms TinyGpt step (forward + loss + backward)");

    obj([
        ("batch", Json::UInt(batch as u64)),
        ("seq", Json::UInt(seq as u64)),
        ("dim", Json::UInt(dim as u64)),
        ("heads", Json::UInt(heads as u64)),
        ("blocks", Json::UInt(blocks as u64)),
        (
            "layers",
            Json::Arr(
                layers
                    .iter()
                    .map(|(name, calls, [fwd, both])| {
                        obj([
                            ("name", Json::Str(name.to_string())),
                            ("calls_per_step", Json::UInt(*calls as u64)),
                            ("fwd_ms", round6(*fwd)),
                            ("fwd_bwd_ms", round6(*both)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("sum_ms", round6(sum_ms)),
        ("step_ms", round6(step_ms)),
    ])
}

/// 10⁹ units (FLOPs or algorithmic bytes) per second at `units` of work
/// per invocation taking `best_ms`.
fn giga_per_s(units: u64, best_ms: f64) -> f64 {
    units as f64 / (best_ms * 1e6)
}

/// The top-level fields `repro bench` owns. Schema documented in
/// EXPERIMENTS.md; bump `schema` on breaking changes.
fn to_json(results: &[KernelResult], quick: bool, best_of: usize) -> Vec<(String, Json)> {
    let threads = tensor::pool::ThreadPool::global().workers();
    let threads_env = std::env::var("SAMO_THREADS")
        .map(Json::Str)
        .unwrap_or(Json::Null);
    let kernels = results
        .iter()
        .map(|r| {
            let mut row = vec![
                ("name".to_string(), Json::Str(r.name.to_string())),
                ("n".to_string(), Json::UInt(r.n as u64)),
                ("reps".to_string(), Json::UInt(r.reps as u64)),
                ("best_ms".to_string(), round6(r.timed.best_ms)),
                (
                    "runs_ms".to_string(),
                    Json::Arr(r.timed.runs_ms.iter().map(|&m| round6(m)).collect()),
                ),
            ];
            if let Some(f) = r.flops {
                row.push(("gflops".to_string(), round6(giga_per_s(f, r.timed.best_ms))));
            }
            if let Some(b) = r.bytes {
                row.push(("gb_s".to_string(), round6(giga_per_s(b, r.timed.best_ms))));
            }
            Json::Obj(row)
        })
        .collect();
    vec![
        ("schema".to_string(), Json::UInt(1)),
        ("quick".to_string(), Json::Bool(quick)),
        ("best_of".to_string(), Json::UInt(best_of as u64)),
        ("threads".to_string(), Json::UInt(threads as u64)),
        ("threads_env".to_string(), threads_env),
        ("kernels".to_string(), Json::Arr(kernels)),
    ]
}
