//! `repro bench` — best-of-N wall-clock benchmarks ([`crate::harness`])
//! over the training hot-path kernels, recorded to `BENCH_hotpaths.json`
//! at the repo root so every PR leaves a perf trajectory behind.
//!
//! Covered kernels (see EXPERIMENTS.md for the JSON schema):
//! * `samo_step_fused` / `samo_step_reference` — the fused two-kernel
//!   SAMO step vs the three-phase oracle of `samo::reference`, same
//!   layer state. Gated: the fused path may never be slower than the
//!   reference.
//! * `gemm_256` and `gemm_attn_32x32x16` — one large square GEMM and a
//!   swarm of attention-shaped small GEMMs.
//! * `gemm_nn_4x2048x2048` / `gemm_nn_packed_4x2048x2048` /
//!   `gemm_nt_4x2048x2048` / `gemm_nn_1x768x768` — the thin shapes of
//!   data-parallel training and batch-1 serving: `A·B` as `sgemm` runs it
//!   at four rows (pack-free), the same product pinned to the packed
//!   path, `A·Bᵀ` (the form `Linear::forward` runs, packed), and a single
//!   row. Gated by [`crate::gates::THIN_NT_OVER_NN_MAX`] (against the
//!   packed `A·B`) and [`crate::gates::ONE_ROW_GFLOPS_MIN`].
//! * `gemm_nn_f16w_thin_4x2048x2048` / `gemm_nn_f16w_packed_4x2048x2048`
//!   — `dy·W16`, the input gradient of a thin-batch `Linear` from the
//!   lent `θ16`: streamed from B against packed into the f32 panel (same
//!   bits, asserted). Gated by [`crate::gates::THIN_OVER_PACKED_MIN`].
//! * `dw_dense_4x2048x2048` / `dw_streamed_4x2048x2048` /
//!   `dw_sampled_4x2048x2048` — the weight gradient of a thin-batch
//!   `Linear` at p = 0.9 on its way into `∇θ16`: `matmul_tn_acc` into the
//!   dense gradient + `compress_grad_fused` + clearing it, against
//!   `matmul_tn_kept` on its row blocks, each gathered as it leaves the
//!   product, and on its sampled path at the kept positions only (same
//!   `∇θ16` bits, asserted). Gated: streamed may never be slower than
//!   dense, and [`crate::gates::SAMPLED_OVER_STREAMED_MIN`].
//! * `optimizer_sweep_210k_scalar` / `optimizer_sweep_210k_vector` — the
//!   fused Adam pass over one rank's shard of that layer (≈ 210 k owned
//!   values, no f32 view, the all-gather payload written), on the scalar
//!   and the AVX2 tier. Gated by
//!   [`crate::gates::VECTOR_SWEEP_OVER_SCALAR_MIN`].
//! * `stream_copy` / `stream_read_f16` — the bandwidth roofs of the same
//!   run: a 16 MiB f32 copy and a read of `dp2_tcp_wide`'s 10.5 MB of
//!   `θ16`. The three rows above that move bytes print achieved ÷ roof.
//! * `fwd_dx_f32w_4x2048x2048` / `fwd_dx_f16w_4x2048x2048` — forward
//!   and input gradient of the same thin-batch `Linear` (`x·Wᵀ`, then
//!   `dy·W`) from the f32 view of `θ16` against `θ16` itself, widened by
//!   the GEMM's pack step (same bits, asserted). Gated: the
//!   half-precision weight may never be slower than its f32 copy.
//! * `relu_fwd_bwd_32x512` — a pipeline stage's `Relu` at `pipe2_mlp`'s
//!   microbatch, forward and backward, against the copy roof.
//! * `compress.f32` / `expand.f16` / `compress.f16` — the compression
//!   and expansion primitives, at the element types the step uses.
//! * `allreduce_compressed` — the compressed fp16 gradient all-reduce.
//!
//! Beside the kernels, `path_sweep`: the table the cuts of
//! `tensor::gemm::plan` are read from, one grid ([`PATH_SWEEP`]) of
//! op × rows × density. Each cell races the short cuts against what runs
//! where the planner declines them, through the pinned twins, and records
//! the planner's pick: the sampled and the transposed `dyᵀ·x` against the
//! row blocks and the pack-free `dy·W16` against the packed one at 2048²,
//! rows {1 … 64}; `pipe2_mlp`'s `dyᵀ·x` (32 rows of a 512² layer at
//! p = 0.9) summed over its eight microbatches on each path against the
//! dense gradient; `x·Wᵀ` and `dy·W` over the kept weights against
//! `sgemm` at `pipe2_mlp`'s 512², rows {1 … 64, 512} (gated at 32 rows,
//! p = 0.9: [`crate::gates::KEPT_OVER_DENSE_MIN`]). And
//! `gpt_layers`: which layer type owns the
//! compute-bound step. Every layer of the `gpt_single` benchmark workload
//! at its shapes (`[B, T, C] = [16, 32, 64]`, 4 heads, 2 blocks), forward
//! and forward + backward, times its calls per step, summed next to one
//! whole `TinyGpt` step. Each `Linear` has a second pair of times
//! (`lent_*`): pruned to 0.9 by magnitude, computing from the `θ16` and
//! index a `SamoTrainer` lends it, as the workload runs it.

use crate::harness::{self, duel, duel_all, duel_n, obj, random_vec, round6, sample, Sample};
use comms::reference::allreduce_mean_f16;
use models::tiny::{TinyGpt, TinyGptConfig};
use nn::activations::{Gelu, Relu};
use nn::attention::CausalSelfAttention;
use nn::layer::Layer;
use nn::linear::Linear;
use nn::mixed::Optimizer;
use nn::norm::LayerNorm;
use nn::optim::AdamConfig;
use samo::reference::{compress_grad, grads_non_finite, optimizer_step};
use samo::{compress, expand, state::SamoLayerState, SamoTrainer};
use telemetry::json::Json;
use tensor::f16::{f16_slice_to_f32, f32_slice_to_f16, F16};
use tensor::gemm::{
    matmul, matmul_nt, matmul_tn_acc, matmul_tn_kept_acc_on_path, matmul_tn_kept_on_path, plan, sgemm,
    sgemm_kept_on_path, sgemm_on_path, GemmElem, Op, Path,
};
use tensor::simd::{self, Tier};
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
    /// The stream probe of this run whose `gb_s` is this kernel's roof.
    roof: Option<&'static str>,
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
        results.push(KernelResult { name: "samo_step_fused", n: phi, reps, timed, flops: None, bytes: None, roof: None });
    }
    {
        let mut st = SamoLayerState::from_params(&init, mask.clone(), &opt);
        let mut dense = st.dense_f32_params();
        let timed = sample(best_of, reps, || {
            compress_grad(&mut st, &grads);
            assert!(!grads_non_finite(&st));
            optimizer_step(&mut st, &opt, 1.0);
            dense.copy_from_slice(&st.dense_f32_params());
        });
        results.push(KernelResult { name: "samo_step_reference", n: phi, reps, timed, flops: None, bytes: None, roof: None });
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
        roof: None,
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
        // weights) on the same buffers: the first as `sgemm` runs it at
        // four rows — pack-free — and pinned to the packed path, which is
        // what `A·Bᵀ` is held against. A few ms each: 4× the reps make
        // the gated ratio repeatable at no cost worth naming.
        let (m, n, k) = (4, 2048, 2048);
        let a = random_vec(m * k, 3);
        let b = random_vec(k * n, 4);
        let [mut c0, mut c1, mut c2] = [(); 3].map(|()| vec![0.0f32; m * n]);
        let tier = simd::active();
        let [nn, packed, nt] = duel_n(
            best_of,
            4 * reps,
            [
                &mut || matmul(m, n, k, &a, &b, &mut c0),
                &mut || sgemm_on_path(Path::Packed, tier, false, false, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c1, n),
                &mut || matmul_nt(m, n, k, &a, &b, &mut c2),
            ],
        );
        assert!(bits(&c0) == bits(&c1), "pack-free A·B differs from the packed one");
        results.push(gemm_row("gemm_nn_4x2048x2048", (m, n, k), 4 * reps, nn));
        results.push(gemm_row("gemm_nn_packed_4x2048x2048", (m, n, k), 4 * reps, packed));
        results.push(gemm_row("gemm_nt_4x2048x2048", (m, n, k), 4 * reps, nt));

        // dx = dy·W16 of the wide layer: B is θ16 itself, read once.
        let w16 = f32_slice_to_f16(&b);
        let on_path = |path, c: &mut [f32]| {
            sgemm_on_path(path, tier, false, false, m, n, k, 1.0, &a, k, &w16, n, 0.0, c, n)
        };
        let [thin, packed] =
            duel(best_of, 4 * reps, || on_path(Path::PackFree, &mut c0), || on_path(Path::Packed, &mut c1));
        assert!(bits(&c0) == bits(&c1), "pack-free dy·W16 differs from the packed one");
        let moved = (2 * k * n + 4 * m * (k + n)) as u64;
        for (name, timed) in [("gemm_nn_f16w_thin_4x2048x2048", thin), ("gemm_nn_f16w_packed_4x2048x2048", packed)] {
            let row = gemm_row(name, (m, n, k), 4 * reps, timed);
            results.push(KernelResult { bytes: Some(moved), roof: Some("stream_read_f16"), ..row });
        }
    }
    {
        // dW = dyᵀ·x into ∇θ16, the three ways the trainers do it. The
        // dense form streams a φ-sized gradient through memory three
        // times (accumulate, gather at one kept value per cache line,
        // clear); the streamed form gathers each 64-row block while it
        // is still in cache and has no gradient to clear; the sampled
        // form computes the kept tenth and nothing else.
        let (m, n, k) = (2048, 2048, 4);
        let dy = random_vec(k * m, 20);
        let x = random_vec(k * n, 21);
        let wmask = prune::random_prune(&[m, n], sparsity, 22);
        assert_eq!(plan(Op::Tn, k, wmask.nnz(), m * n), Path::Sampled, "four rows at p = 0.9 sample");
        let mut dense_st = SamoLayerState::from_params(&vec![0.0; m * n], wmask.clone(), &opt);
        let mut grad = vec![0.0f32; m * n];
        let [mut streamed16, mut sampled16] = [(); 2].map(|()| vec![F16::ZERO; wmask.nnz()]);
        let tier = simd::active();
        let dw = |path, out: &mut [F16]| matmul_tn_kept_on_path(path, tier, m, n, k, &dy, &x, wmask.indices(), out);
        let [dense, streamed, sampled] = duel_n(
            best_of,
            reps,
            [
                &mut || {
                    matmul_tn_acc(m, n, k, &dy, &x, &mut grad);
                    assert!(dense_st.compress_grad_fused(&grad));
                    grad.fill(0.0);
                },
                &mut || assert!(dw(Path::RowBlocks, &mut streamed16)),
                &mut || assert!(dw(Path::Sampled, &mut sampled16)),
            ],
        );
        assert!(dense_st.grad16 == streamed16, "streamed ∇θ16 differs from dense");
        assert!(dense_st.grad16 == sampled16, "sampled ∇θ16 differs from dense");
        results.push(gemm_row("dw_dense_4x2048x2048", (m, n, k), reps, dense));
        results.push(gemm_row("dw_streamed_4x2048x2048", (m, n, k), reps, streamed));
        // What the sampled product does and moves: 2·nnz·k FLOPs, the
        // index and ∇θ16 once each, the operands.
        results.push(KernelResult {
            flops: Some((2 * wmask.nnz() * k) as u64),
            bytes: Some((6 * wmask.nnz() + 4 * k * (m + n)) as u64),
            roof: Some("stream_copy"),
            ..gemm_row("dw_sampled_4x2048x2048", (m, n, k), reps, sampled)
        });

        // The fused Adam pass over one rank's shard of that layer, as
        // the thread-per-rank runtime runs it: no f32 view, the payload
        // of the parameter all-gather written. Per owned value it reads
        // ∇θ16 and the index, reads and writes θ32, m and v, and writes
        // ∇θ32, θ16 and the payload: 38 B.
        let values = random_vec(m * n, 26);
        let mut shard = SamoLayerState::from_params_sharded(&values, wmask.clone(), &opt, 0, 2);
        for (g, v) in shard.grad16.iter_mut().zip(random_vec(wmask.nnz(), 27)) {
            *g = F16::from_f32(0.125 * v);
        }
        let (lo, hi) = shard.shard_range();
        let mut twin = shard.clone();
        let step_on = |tier, st: &mut SamoLayerState| {
            std::hint::black_box(st.optimizer_step_owned_on(tier, &opt, 1.0, &mut []));
        };
        let [scalar, vector] =
            duel(best_of, 4 * reps, || step_on(Tier::Scalar, &mut shard), || step_on(Tier::Avx2, &mut twin));
        assert!(shard.theta32 == twin.theta32 && shard.theta16 == twin.theta16, "the tiers' sweeps differ");
        for (name, timed) in [("optimizer_sweep_210k_scalar", scalar), ("optimizer_sweep_210k_vector", vector)] {
            results.push(KernelResult {
                name,
                n: hi - lo,
                reps: 4 * reps,
                timed,
                flops: None,
                bytes: Some(38 * (hi - lo) as u64),
                roof: Some("stream_copy"),
            });
        }
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
        assert!(bits(&y32) == bits(&y16), "forward from θ16 differs from its f32 view");
        assert!(bits(&dx32) == bits(&dx16), "dx from θ16 differs from its f32 view");
        // Two products of m·n·k multiply-adds each.
        results.push(gemm_row("fwd_dx_f32w_4x2048x2048", (2 * m, n, k), 4 * reps, f32w));
        results.push(gemm_row("fwd_dx_f16w_4x2048x2048", (2 * m, n, k), 4 * reps, f16w));
    }
    {
        // A pipeline stage's `Relu` at `pipe2_mlp`'s 32 × 512 microbatch,
        // forward and backward: a select stored per element each way.
        let (rows, cols) = (32, 512);
        let (x, dy) = (Tensor::randn(&[rows, cols], 1.0, 30), Tensor::randn(&[rows, cols], 1.0, 31));
        let mut relu = Relu::new();
        let timed = sample(best_of, 4 * reps, || {
            relu.forward(&x);
            std::hint::black_box(relu.backward(&dy));
        });
        // Forward reads x and writes y and its cached copy; backward reads
        // dy and x and writes dx: six floats an element.
        let bytes = Some(24 * (rows * cols) as u64);
        let roof = Some("stream_copy");
        results.push(KernelResult { name: "relu_fwd_bwd_32x512", n: rows * cols, reps: 4 * reps, timed, flops: None, bytes, roof });
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
            roof: None,
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
        roof: None,
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
            roof: None,
        });
    }

    // --- The bandwidth roofs of this run. ------------------------------
    {
        // Beyond the 2 MB L2 of the box the numbers were sized on: a
        // 16 MiB f32 copy (read + write), and a read of the 10.5 MB of
        // θ16 a rank of `dp2_tcp_wide` streams three times a step.
        let src = random_vec(4 << 20, 28);
        let mut dst = vec![0.0f32; src.len()];
        let timed = sample(best_of, reps, || dst.copy_from_slice(std::hint::black_box(&src)));
        results.push(memory_row("stream_copy", timed, 8 * src.len()));
        let halves = f32_slice_to_f16(&random_vec(5_247_232, 29));
        let timed = sample(best_of, reps, || {
            std::hint::black_box(std::hint::black_box(&halves).iter().fold(0u16, |mx, h| mx.max(h.0)));
        });
        results.push(memory_row("stream_read_f16", timed, 2 * halves.len()));
    }

    // --- Report. ------------------------------------------------------
    let gb_s = |r: &KernelResult| r.bytes.map(|b| giga_per_s(b, r.timed.best_ms));
    let roof_share = |r: &KernelResult| {
        let roof = results.iter().find(|probe| Some(probe.name) == r.roof)?;
        Some(gb_s(r)? / gb_s(roof)?)
    };
    let mut tab =
        crate::Table::new("bench_hotpaths", &["kernel", "n", "best_ms", "throughput", "of_roof", "samples"]);
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
            roof_share(r).map_or("-".to_string(), |share| format!("{share:.2} of {}", r.roof.unwrap_or("-"))),
            r.timed.runs_ms.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(" "),
        ]);
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write bench CSV: {e}"))?;
    telemetry::log_info!("bench: CSV written to {}", csv.display());

    let shares: Vec<Option<f64>> = results.iter().map(roof_share).collect();
    let mut own = to_json(&results, &shares, quick, best_of);
    own.push(("path_sweep".to_string(), path_sweep(best_of, reps)));
    own.push(("gpt_layers".to_string(), gpt_layers(best_of, reps)));
    harness::record("kernels", own)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// One family of [`PATH_SWEEP`]: `op` against a `side × side` weight at
/// every row count × density, its short cuts `paths` raced against what
/// runs where the planner declines them.
pub struct Family {
    pub key: &'static str,
    op: Op,
    side: usize,
    rows: &'static [usize],
    densities: &'static [f64],
    paths: &'static [Path],
    /// The rival the short cuts are raced against; `None` for the dense
    /// weight's own path, which depends on the rows.
    rival: Option<Path>,
    /// Microbatches a weight gradient is summed over before it is narrowed
    /// into `∇θ16` (`dyᵀ·x` only): one is the data-parallel step's
    /// `matmul_tn_kept`, more a pipeline step's, `matmul_tn_kept_acc`
    /// against the dense gradient (`Packed`: `matmul_tn_acc` and the
    /// fused compress).
    rounds: usize,
}

impl Family {
    /// How many cells the family records.
    pub fn cells(&self) -> usize {
        self.rows.len() * self.densities.len()
    }
}

const DENSITIES: [f64; 4] = [0.05, 0.1, 0.25, 0.5];
const THIN_ROWS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Every row count between four and eight, where the pack-free `dy·W`
/// ends and the kept one starts to win, and `gpt_single`'s 512.
const KEPT_ROWS: [usize; 11] = [1, 2, 4, 5, 6, 7, 8, 16, 32, 64, 512];

/// The grid of `path_sweep`, the table the cuts of `tensor::gemm::plan`
/// are read from: the weight gradient at the wide layer's 2048² (sampled
/// and transposed against the row blocks), the same at `pipe2_mlp`'s cell
/// summed over its eight microbatches against the dense gradient, the
/// pack-free `dy·W16` at 2048² against the packed one, and `x·Wᵀ` / `dy·W`
/// at 512² over the kept weights against `sgemm`. The gate counts its
/// cells off the same grid.
pub const PATH_SWEEP: [Family; 5] = [
    Family { key: "dw", op: Op::Tn, side: 2048, rows: &THIN_ROWS, densities: &DENSITIES, paths: &[Path::Sampled, Path::Transposed], rival: Some(Path::RowBlocks), rounds: 1 },
    Family { key: "dw_acc", op: Op::Tn, side: 512, rows: &[32], densities: &[0.1], paths: &[Path::Sampled, Path::Transposed, Path::RowBlocks], rival: Some(Path::Packed), rounds: 8 },
    Family { key: "nn", op: Op::Nn, side: 2048, rows: &THIN_ROWS, densities: &[1.0], paths: &[Path::PackFree], rival: Some(Path::Packed), rounds: 1 },
    Family { key: "xwt", op: Op::Nt, side: 512, rows: &KEPT_ROWS, densities: &DENSITIES, paths: &[Path::Kept], rival: None, rounds: 1 },
    Family { key: "dyw", op: Op::Nn, side: 512, rows: &KEPT_ROWS, densities: &DENSITIES, paths: &[Path::Kept], rival: None, rounds: 1 },
];

/// What one contender of a cell leaves: `C` of `x·Wᵀ` / `dy·W`, or for
/// `dyᵀ·x` the dense gradient or the kept sums, `∇θ16` and the flag.
struct Out {
    c: Vec<f32>,
    g16: Vec<F16>,
    finite: bool,
}

/// Every cell of [`PATH_SWEEP`] runs its rival and each short cut through
/// the pinned twins of `tensor::gemm` — the same bits, and for the weight
/// gradient the same `∇θ16` and overflow flag, asserted per cell — and
/// records their best times next to what `plan` picks.
fn path_sweep(best_of: usize, reps: usize) -> Json {
    let tier = simd::active();
    let families = PATH_SWEEP.iter().map(|f| {
        let side = f.side;
        let max_rows = f.rows.iter().copied().max().unwrap_or(0);
        let (a, x, w) = (random_vec(max_rows * side, 40), random_vec(max_rows * side, 41), random_vec(side * side, 43));
        let mut head = vec!["rows".to_string(), "density".into(), "rival".into(), "rival_ms".into()];
        for p in f.paths {
            head.extend([format!("{p:?}_ms"), format!("rival_over_{p:?}")]);
        }
        head.push("picked".into());
        let head: Vec<&str> = head.iter().map(String::as_str).collect();
        let mut tab = crate::Table::new(&format!("bench_path_sweep_{}", f.key), &head);
        let mut cells = Vec::new();
        for &density in f.densities {
            let mask = prune::random_prune(&[side, side], 1.0 - density, 42);
            let (idx, nnz, numel) = (mask.indices(), mask.nnz(), side * side);
            let mut pruned = w.clone();
            mask.apply(&mut pruned);
            let w16 = f32_slice_to_f16(&pruned);
            for &rows in f.rows {
                let rival = f.rival.unwrap_or_else(|| plan(f.op, rows, numel, numel));
                let (a, x) = (&a[..rows * side], &x[..rows * side]);
                let run = |path, out: &mut Out| match f.op {
                    Op::Tn if f.rounds == 1 => {
                        out.finite = matmul_tn_kept_on_path(path, tier, side, side, rows, a, x, idx, &mut out.g16)
                    }
                    // A pipeline step's weight gradient: the dense gradient
                    // accumulated, compressed and cleared, or the kept sums.
                    Op::Tn if path == Path::Packed => {
                        for _ in 0..f.rounds {
                            matmul_tn_acc(side, side, rows, a, x, &mut out.c);
                        }
                        out.finite = simd::gather_narrow_finite(tier, &out.c, 0, idx, &mut out.g16);
                        out.c.fill(0.0);
                    }
                    Op::Tn => {
                        let sums = &mut out.c[..nnz];
                        sums.fill(0.0);
                        for _ in 0..f.rounds {
                            matmul_tn_kept_acc_on_path(path, tier, side, side, rows, a, x, idx, sums);
                        }
                        out.finite = simd::narrow_sum_finite(tier, sums, &mut out.g16);
                    }
                    op => sgemm_kept_on_path(path, tier, op == Op::Nt, rows, side, side, a, &w16, idx, &mut out.c),
                };
                let contenders: Vec<Path> = std::iter::once(rival).chain(f.paths.iter().copied()).collect();
                let mut outs: Vec<Out> = contenders
                    .iter()
                    .map(|_| match f.op {
                        Op::Tn => Out { c: vec![0.0; if f.rounds > 1 { numel } else { 0 }], g16: vec![F16::ZERO; nnz], finite: true },
                        _ => Out { c: vec![0.0; rows * side], g16: Vec::new(), finite: true },
                    })
                    .collect();
                let times = {
                    let mut bodies: Vec<_> =
                        contenders.iter().zip(outs.iter_mut()).map(|(&path, out)| move || run(path, out)).collect();
                    let mut refs: Vec<&mut dyn FnMut()> = bodies.iter_mut().map(|b| b as &mut dyn FnMut()).collect();
                    duel_all(best_of, reps, &mut refs)
                };
                for (path, out) in contenders.iter().zip(&outs).skip(1) {
                    // For `dyᵀ·x` only ∇θ16 and the flag are the product's.
                    let same = (&out.g16, out.finite) == (&outs[0].g16, outs[0].finite)
                        && (f.op == Op::Tn || bits(&out.c) == bits(&outs[0].c));
                    assert!(same, "{} differs between {rival:?} and {path:?} at {rows} rows, {density}", f.key);
                }
                let picked = plan(f.op, rows, nnz, numel);
                let mut row = vec![rows.to_string(), format!("{density}"), format!("{rival:?}"), format!("{:.4}", times[0].best_ms)];
                for t in &times[1..] {
                    row.extend([format!("{:.4}", t.best_ms), format!("{:.2}", times[0].best_ms / t.best_ms)]);
                }
                row.push(format!("{picked:?}"));
                tab.push(row);
                let ms = contenders.iter().zip(&times).map(|(p, t)| (format!("{p:?}"), round6(t.best_ms)));
                cells.push(obj([
                    ("rows", Json::UInt(rows as u64)),
                    ("density", Json::Num(density)),
                    ("ms", Json::Obj(ms.collect())),
                    ("picked", Json::Str(format!("{picked:?}"))),
                ]));
            }
        }
        println!("{}", tab.render());
        (f.key.to_string(), Json::Arr(cells))
    });
    Json::Obj(families.collect())
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
    // Each `Linear` twice: dense from its f32 `value`, and as `gpt_single`
    // runs it — pruned to 0.9 by magnitude under a `SamoTrainer`, which
    // lends it `θ16` and the mask's index between steps.
    let linear = |n_in, n_out| {
        let x = flat(n_in, 2);
        let f32_value = time(&mut Linear::new(n_in, n_out, true, 1), &x);
        let mut lent = Linear::new(n_in, n_out, true, 1);
        let w = &lent.params()[0].value;
        let masks = vec![prune::magnitude_prune(w.as_slice(), w.shape(), 0.9), prune::Mask::dense(&[n_out])];
        let _lends = SamoTrainer::new(&mut lent, masks, Optimizer::Adam(AdamConfig::default()));
        assert!(lent.params()[0].index().is_some(), "the weight computes from the lent θ16");
        (f32_value, Some(time(&mut lent, &x)))
    };
    let (qkv, proj) = (linear(dim, 3 * dim), linear(dim, dim));
    let (up, down) = (linear(dim, 4 * dim), linear(4 * dim, dim));
    let x3 = Tensor::randn(&[batch, seq, dim], 1.0, 3);
    let attn = time(&mut CausalSelfAttention::new(dim, heads, 4), &x3);
    let attn_heads = [0, 1].map(|i| (attn[i] - qkv.0[i] - proj.0[i]).max(0.0));
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
        ("gelu", blocks, (gelu, None)),
        ("attention_heads", blocks, (attn_heads, None)),
        ("linear_qkv", blocks, qkv),
        ("linear_proj", blocks, proj),
        ("linear_up", blocks, up),
        ("linear_down", blocks, down),
        ("layer_norm", 2 * blocks + 1, (norm, None)),
    ];
    let sum_ms: f64 = layers.iter().map(|(_, calls, (ms, _))| *calls as f64 * ms[1]).sum();
    let mut tab = crate::Table::new(
        "bench_gpt_layers",
        &["layer", "calls_per_step", "fwd_ms", "fwd_bwd_ms", "per_step_ms", "share_of_step", "lent_fwd_ms", "lent_fwd_bwd_ms"],
    );
    for (name, calls, ([fwd, both], lent)) in &layers {
        let per_step = *calls as f64 * both;
        let [lent_fwd, lent_both] = lent.map_or(["-".to_string(), "-".to_string()], |ms| ms.map(|t| format!("{t:.4}")));
        tab.push(vec![
            name.to_string(),
            calls.to_string(),
            format!("{fwd:.4}"),
            format!("{both:.4}"),
            format!("{per_step:.4}"),
            format!("{:.1}%", 100.0 * per_step / step_ms),
            lent_fwd,
            lent_both,
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
                    .map(|(name, calls, ([fwd, both], lent))| {
                        let mut row = vec![
                            ("name".to_string(), Json::Str(name.to_string())),
                            ("calls_per_step".to_string(), Json::UInt(*calls as u64)),
                            ("fwd_ms".to_string(), round6(*fwd)),
                            ("fwd_bwd_ms".to_string(), round6(*both)),
                        ];
                        if let Some([fwd, both]) = lent {
                            row.push(("lent_fwd_ms".to_string(), round6(*fwd)));
                            row.push(("lent_fwd_bwd_ms".to_string(), round6(*both)));
                        }
                        Json::Obj(row)
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
fn to_json(results: &[KernelResult], roof_shares: &[Option<f64>], quick: bool, best_of: usize) -> Vec<(String, Json)> {
    let threads = tensor::pool::ThreadPool::global().workers();
    let threads_env = std::env::var("SAMO_THREADS")
        .map(Json::Str)
        .unwrap_or(Json::Null);
    let kernels = results
        .iter()
        .zip(roof_shares)
        .map(|(r, share)| {
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
            if let (Some(roof), Some(share)) = (r.roof, share) {
                row.push(("roof".to_string(), Json::Str(roof.to_string())));
                row.push(("of_roof".to_string(), round6(*share)));
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
