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
//!   `matmul_tn_row_blocks` compressed block by block, against
//!   `matmul_tn_sampled` at the kept positions only (same `∇θ16` bits,
//!   asserted). Gated: streamed may never be slower than dense, and
//!   [`crate::gates::SAMPLED_OVER_STREAMED_MIN`].
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
//! * `compress.f32` / `expand.f16` / `compress.f16` — the compression
//!   and expansion primitives, at the element types the step uses.
//! * `allreduce_compressed` — the compressed fp16 gradient all-reduce.
//!
//! Beside the kernels, `thin_sweep`: the two products a thin batch takes
//! a short cut through, over batch rows {1 … 64} — the sampled `dyᵀ·x`
//! against the row blocks at densities {0.05 … 0.5}, and the pack-free
//! `dy·W16` against the packed one — the table the two dispatch constants
//! of `tensor::gemm` (`sampled_pays`, `THIN_MAX_M`) are read from;
//! `kept_sweep`: the two products that read a `Linear`'s lent `θ16` —
//! `x·Wᵀ` and `dy·W` at `pipe2_mlp`'s 512 × 512 — dense against over the
//! kept weights only, rows {1 … 64} × density {0.05 … 0.5}, the table
//! `kept_pays` is read from (gated at 32 rows, p = 0.9:
//! [`crate::gates::KEPT_OVER_DENSE_MIN`]). And
//! `gpt_layers`: which layer type owns the
//! compute-bound step. Every layer of the `gpt_single` benchmark workload
//! at its shapes (`[B, T, C] = [16, 32, 64]`, 4 heads, 2 blocks), forward
//! and forward + backward, times its calls per step, summed next to one
//! whole `TinyGpt` step.

use crate::harness::{self, duel, duel_n, obj, random_vec, round6, sample, Sample};
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
use tensor::gemm::{
    kept_pays, matmul, matmul_nt, matmul_tn_acc, matmul_tn_row_blocks, matmul_tn_sampled, sampled_pays,
    sgemm, sgemm_kept_on_path, sgemm_on_path, GemmElem, THIN_MAX_M,
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
            st.compress_grad(&grads);
            assert!(!st.grads_non_finite());
            st.optimizer_step(&opt, 1.0);
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
                &mut || sgemm_on_path(false, tier, false, false, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c1, n),
                &mut || matmul_nt(m, n, k, &a, &b, &mut c2),
            ],
        );
        assert!(bits(&c0) == bits(&c1), "pack-free A·B differs from the packed one");
        results.push(gemm_row("gemm_nn_4x2048x2048", (m, n, k), 4 * reps, nn));
        results.push(gemm_row("gemm_nn_packed_4x2048x2048", (m, n, k), 4 * reps, packed));
        results.push(gemm_row("gemm_nt_4x2048x2048", (m, n, k), 4 * reps, nt));

        // dx = dy·W16 of the wide layer: B is θ16 itself, read once.
        let w16 = f32_slice_to_f16(&b);
        let on_path = |thin, c: &mut [f32]| {
            sgemm_on_path(thin, tier, false, false, m, n, k, 1.0, &a, k, &w16, n, 0.0, c, n)
        };
        let [thin, packed] = duel(best_of, 4 * reps, || on_path(true, &mut c0), || on_path(false, &mut c1));
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
        assert!(sampled_pays(k, wmask.nnz(), m * n), "four rows at p = 0.9 sample");
        let state = SamoLayerState::from_params(&vec![0.0; m * n], wmask.clone(), &opt);
        let (mut dense_st, streamed_st) = (state.clone(), std::sync::Mutex::new(state));
        let mut grad = vec![0.0f32; m * n];
        let mut sampled16 = vec![F16::ZERO; wmask.nnz()];
        let tier = simd::active();
        let [dense, streamed, sampled] = duel_n(
            best_of,
            reps,
            [
                &mut || {
                    matmul_tn_acc(m, n, k, &dy, &x, &mut grad);
                    assert!(dense_st.compress_grad_fused(&grad));
                    grad.fill(0.0);
                },
                &mut || {
                    matmul_tn_row_blocks(m, n, k, &dy, &x, |r0, r1, block| {
                        let mut st = streamed_st.lock().expect("no gather panics");
                        assert!(st.compress_grad_rows(r0, r1, block));
                    })
                },
                &mut || assert!(matmul_tn_sampled(tier, m, n, k, &dy, &x, wmask.indices(), &mut sampled16)),
            ],
        );
        let streamed_st = streamed_st.into_inner().expect("no gather panics");
        assert!(dense_st.grad16 == streamed_st.grad16, "streamed ∇θ16 differs from dense");
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
    own.push(("thin_sweep".to_string(), thin_sweep(best_of, reps)));
    own.push(("kept_sweep".to_string(), kept_sweep(best_of, reps)));
    own.push(("gpt_layers".to_string(), gpt_layers(best_of, reps)));
    harness::record("kernels", own)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The sweep the two thin-batch dispatch constants of `tensor::gemm` are
/// read from, at the wide layer's 2048 × 2048: over batch rows, the
/// sampled `dyᵀ·x` against the row blocks (both compressing into `∇θ16`)
/// at four densities, next to what `sampled_pays` picks; and the
/// pack-free `dy·W16` against the packed one, next to what `sgemm` picks.
fn thin_sweep(best_of: usize, reps: usize) -> Json {
    let (out, inp) = (2048usize, 2048usize);
    let batches = [1usize, 2, 4, 8, 16, 32, 64];
    let tier = simd::active();
    let dy = random_vec(64 * out, 40);
    let x = random_vec(64 * inp, 41);
    let opt = Optimizer::Adam(AdamConfig::default());

    let mut dw = Vec::new();
    let mut tab = crate::Table::new(
        "bench_thin_sweep_dw",
        &["rows", "density", "rows_x_density", "blocks_ms", "sampled_ms", "blocks_over_sampled", "picked"],
    );
    for density in [0.05, 0.1, 0.25, 0.5] {
        let mask = prune::random_prune(&[out, inp], 1.0 - density, 42);
        let st = std::sync::Mutex::new(SamoLayerState::from_params(&vec![0.0; out * inp], mask.clone(), &opt));
        let mut sampled16 = vec![F16::ZERO; mask.nnz()];
        for rows in batches {
            let (dy, x) = (&dy[..rows * out], &x[..rows * inp]);
            let [blocks, sampled] = duel(
                best_of,
                reps,
                || {
                    matmul_tn_row_blocks(out, inp, rows, dy, x, |r0, r1, block| {
                        st.lock().expect("no gather panics").compress_grad_rows(r0, r1, block);
                    })
                },
                || {
                    matmul_tn_sampled(tier, out, inp, rows, dy, x, mask.indices(), &mut sampled16);
                },
            );
            assert!(st.lock().expect("no gather panics").grad16 == sampled16, "sampled ∇θ16 differs");
            let picked = if sampled_pays(rows, mask.nnz(), out * inp) { "sampled" } else { "blocks" };
            tab.push(vec![
                rows.to_string(),
                format!("{density}"),
                format!("{:.2}", rows as f64 * density),
                format!("{:.4}", blocks.best_ms),
                format!("{:.4}", sampled.best_ms),
                format!("{:.2}", blocks.best_ms / sampled.best_ms),
                picked.to_string(),
            ]);
            dw.push(obj([
                ("rows", Json::UInt(rows as u64)),
                ("density", Json::Num(density)),
                ("blocks_ms", round6(blocks.best_ms)),
                ("sampled_ms", round6(sampled.best_ms)),
                ("picked", Json::Str(picked.to_string())),
            ]));
        }
    }
    println!("{}", tab.render());

    let w16 = f32_slice_to_f16(&random_vec(out * inp, 43));
    let mut nn = Vec::new();
    let mut tab =
        crate::Table::new("bench_thin_sweep_nn", &["rows", "packed_ms", "thin_ms", "packed_over_thin", "picked"]);
    for rows in batches {
        let dy = &dy[..rows * out];
        let (mut c0, mut c1, mut c2) = (vec![0.0f32; rows * inp], vec![0.0f32; rows * inp], vec![0.0f32; rows * inp]);
        let on_path = |thin, c: &mut [f32]| {
            sgemm_on_path(thin, tier, false, false, rows, inp, out, 1.0, dy, out, &w16, inp, 0.0, c, inp)
        };
        let [packed, thin] = duel(best_of, reps, || on_path(false, &mut c0), || on_path(true, &mut c1));
        sgemm(false, false, rows, inp, out, 1.0, dy, out, &w16, inp, 0.0, &mut c2, inp);
        assert!(bits(&c0) == bits(&c1) && bits(&c0) == bits(&c2), "the paths of dy·W16 differ");
        let picked = if rows <= THIN_MAX_M { "thin" } else { "packed" };
        tab.push(vec![
            rows.to_string(),
            format!("{:.4}", packed.best_ms),
            format!("{:.4}", thin.best_ms),
            format!("{:.2}", packed.best_ms / thin.best_ms),
            picked.to_string(),
        ]);
        nn.push(obj([
            ("rows", Json::UInt(rows as u64)),
            ("packed_ms", round6(packed.best_ms)),
            ("thin_ms", round6(thin.best_ms)),
            ("picked", Json::Str(picked.to_string())),
        ]));
    }
    println!("{}", tab.render());
    obj([("dw", Json::Arr(dw)), ("nn", Json::Arr(nn))])
}

/// The sweep `kept_pays` is read from, at `pipe2_mlp`'s 512 × 512 layer:
/// over batch rows and densities, `x·Wᵀ` (`xwt`) and `dy·W` (`dyw`) from a
/// pruned `θ16` as `sgemm` runs them against over the kept weights only
/// (the same bits, asserted per cell), next to what `kept_pays` picks.
fn kept_sweep(best_of: usize, reps: usize) -> Json {
    let side = 512usize;
    // Every row count between four and eight: where the pack-free `dy·W`
    // ends and the kept one starts to win.
    let batches = [1usize, 2, 4, 5, 6, 7, 8, 16, 32, 64];
    let tier = simd::active();
    let a = random_vec(64 * side, 50);
    let w = random_vec(side * side, 51);
    let [xwt, dyw] = [("xwt", true), ("dyw", false)].map(|(key, transb)| {
        let mut cells = Vec::new();
        let mut tab = crate::Table::new(
            &format!("bench_kept_sweep_{key}"),
            &["rows", "density", "dense_ms", "kept_ms", "dense_over_kept", "picked"],
        );
        for density in [0.05, 0.1, 0.25, 0.5] {
            let mask = prune::random_prune(&[side, side], 1.0 - density, 52);
            let mut pruned = w.clone();
            mask.apply(&mut pruned);
            let w16 = f32_slice_to_f16(&pruned);
            for rows in batches {
                let a = &a[..rows * side];
                let (mut dense, mut kept) = (vec![0.0f32; rows * side], vec![0.0f32; rows * side]);
                let [dense_t, kept_t] = duel(
                    best_of,
                    reps,
                    || sgemm(false, transb, rows, side, side, 1.0, a, side, &w16, side, 0.0, &mut dense, side),
                    || sgemm_kept_on_path(true, tier, transb, rows, side, side, a, &w16, mask.indices(), &mut kept),
                );
                assert!(bits(&dense) == bits(&kept), "kept {key} differs from sgemm at {rows} rows, {density}");
                let picked = if kept_pays(rows, mask.nnz(), side * side, transb) { "kept" } else { "dense" };
                tab.push(vec![
                    rows.to_string(),
                    format!("{density}"),
                    format!("{:.4}", dense_t.best_ms),
                    format!("{:.4}", kept_t.best_ms),
                    format!("{:.2}", dense_t.best_ms / kept_t.best_ms),
                    picked.to_string(),
                ]);
                cells.push(obj([
                    ("rows", Json::UInt(rows as u64)),
                    ("density", Json::Num(density)),
                    ("dense_ms", round6(dense_t.best_ms)),
                    ("kept_ms", round6(kept_t.best_ms)),
                    ("picked", Json::Str(picked.to_string())),
                ]));
            }
        }
        println!("{}", tab.render());
        Json::Arr(cells)
    });
    obj([("xwt", xwt), ("dyw", dyw)])
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
