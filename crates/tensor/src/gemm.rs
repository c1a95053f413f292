//! Cache-blocked, multi-threaded dense matrix multiplication.
//!
//! This is the stand-in for cuBLAS in the reproduction: the paper's key
//! design decision is that the half-precision parameters stay *dense* so
//! that forward/backward passes can use fast dense kernels, so a
//! competitive dense GEMM is the baseline everything else is measured
//! against (Fig. 1).
//!
//! Layout is row-major throughout. The kernel uses classic three-level
//! cache blocking: `MC × KC` panels of A and `KC × NC` panels of B are
//! packed into per-thread scratch, transposed operands through cache-line
//! sized in-register transposes so that packing streams whichever way the
//! operand is stored, and `MR × NR` register tiles of C sweep the packed
//! panels. Shapes that do not fill a tile — a batch of one to three rows,
//! a column count off the tile width — run the same tile with fewer rows
//! or masked columns, not a scalar fallback. Parallelism is over row
//! panels of C, so worker threads write disjoint output ranges and need no
//! synchronization.
//!
//! Every variant rounds each output element identically: one chain of
//! fused multiply-adds over `k` in storage order (see [`sgemm`]). The B
//! operand may be half precision ([`GemmElem`]): the pack step, which
//! touches every B element once anyway, widens it — exactly — on the way
//! into the f32 panel, so the dense `θ16` of the paper is multiplied as
//! it is stored and every output bit is that of the f32 GEMM on the
//! widened operand. Which of the bit-identical products runs — packed,
//! pack-free, over a lent index's kept weights, sampled or transposed at
//! a kept index, or in row blocks — is one function's choice, [`plan`],
//! from the shape.

use crate::f16::{to_f32_table, F16};
use crate::pool::{par_chunks_mut, par_parts_mut, par_ranges, par_rows_mut, SplitMut};
use crate::simd::{self, Kept, Tier};
use std::sync::{Arc, OnceLock};

/// Cached handles so the per-call telemetry cost is two atomic adds, not
/// a registry lookup: (`tensor.sgemm_calls`, `tensor.sgemm_flops`).
fn gemm_metrics() -> &'static (Arc<telemetry::Counter>, Arc<telemetry::Counter>) {
    static METRICS: OnceLock<(Arc<telemetry::Counter>, Arc<telemetry::Counter>)> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        (reg.counter("tensor.sgemm_calls"), reg.counter("tensor.sgemm_flops"))
    })
}

/// Row-panel height processed per task; also the L2 block for A.
const MC: usize = 64;
/// Depth (k) blocking factor — A/B panels of this depth stay in L1/L2.
const KC: usize = 256;
/// Column blocking factor for B panels.
const NC: usize = 1024;

/// Computes `C = alpha * op(A) * op(B) + beta * C` for row-major matrices.
///
/// * `a` is `m × k` after the optional transpose (`transa`), stored with
///   leading dimension `lda` (its physical row length).
/// * `b` is `k × n` after `transb`, leading dimension `ldb`; `f32`, or
///   [`F16`] widened as it is packed (same bits as widening it first).
/// * `c` is `m × n`, leading dimension `ldc`.
///
/// The microkernel runs on the SIMD tier selected by [`simd::active`];
/// the scalar and AVX2 paths are bitwise identical (same `mul_add`
/// accumulation order per output element, vectorized only across
/// independent columns).
///
/// # Panics
/// Panics if any slice is too small for the described matrix.
#[allow(clippy::too_many_arguments)]
pub fn sgemm<B: GemmElem>(
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    sgemm_with_tier(simd::active(), transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// [`sgemm`] pinned to an explicit SIMD tier — the entry point the
/// parity tests and `repro bench`'s per-tier rows use, since the
/// process-wide tier is resolved once and cannot be toggled per call.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_with_tier<B: GemmElem>(
    tier: Tier,
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let path = if transa || transb { Path::Packed } else { plan(Op::Nn, m, n * k, n * k) };
    sgemm_on_path(path, tier, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// The product a weight takes part in: `A · B` (`dy·W`, and any product
/// with neither operand transposed), `A · Bᵀ` (`x·Wᵀ`), or `Aᵀ · B` (the
/// weight gradient `dyᵀ·x` at a kept index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Nn,
    Nt,
    Tn,
}

/// How a product is computed. Every path of an [`Op`] gives the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Packed panels of A and B: any shape, the one a fat batch takes.
    Packed,
    /// B streamed as it lies, one strip of rows at a time (`gemm_thin`).
    PackFree,
    /// Over the kept weights of a lent index only ([`sgemm_kept`]).
    Kept,
    /// `dyᵀ·x` at the kept positions only, `x` gathered per kept column
    /// ([`matmul_tn_kept`]).
    Sampled,
    /// `dyᵀ·x` at the kept positions only, from `x` transposed once: no
    /// gathers ([`matmul_tn_kept`]).
    Transposed,
    /// `dyᵀ·x` whole, one `MC`-row block at a time, gathered at the kept
    /// positions while the block is in cache ([`matmul_tn_kept`]).
    RowBlocks,
}

/// Most rows of `A · B` that take the pack-free path: one strip, so B is
/// streamed exactly once — never more bytes than the packed path moves.
const THIN_MAX_M: usize = 2 * MR;

/// The kept product pays while `nnz ≤ numel / KEPT_DENSITY_CUT`, from
/// `KEPT_MIN_ROWS` rows of A: `[dy·W, x·Wᵀ]`.
const KEPT_DENSITY_CUT: usize = 5;
const KEPT_MIN_ROWS: [usize; 2] = [5, 2];

/// Deepest `k` of the sampled product: one k-block, like the `ADD` tile
/// whose chain it runs (a row's live steps are listed on the stack).
const SAMPLED_MAX_K: usize = KC;

/// The sampled product pays while `rows · nnz ≤ SAMPLED_MAX_KEPT_ROWS · numel`.
const SAMPLED_MAX_KEPT_ROWS: usize = 2;

/// The transposed product pays from `TRANSPOSED_MIN_ROWS` rows while
/// `TRANSPOSED_DENSITY_CUT · nnz ≤ numel`.
const TRANSPOSED_MIN_ROWS: usize = 16;
const TRANSPOSED_DENSITY_CUT: usize = 4;

/// The one rule that picks between the bit-identical products of `op`:
/// `rows` rows of A (for [`Op::Tn`], of `dy` and `x` — the batch), against
/// a weight (for [`Op::Tn`], a gradient) of `numel` elements, `nnz` of them
/// kept. A dense operand passes `nnz == numel` and never plans
/// [`Path::Kept`]. It reads the shape alone: no knob, no environment
/// variable, no workload name. The cuts are read off `repro bench`'s
/// `path_sweep` and DESIGN.md §19 ("The planner") tabulates them:
/// * `Aᵀ·B` within one k-block (`rows ≤ 256`) is [`Path::Transposed`] from
///   16 rows while at most a quarter of the gradient is kept — its
///   multiply-adds run at full vector width over the kept positions, and
///   the transposes they cost pay once a row has many steps — then
///   [`Path::Sampled`] while `rows · nnz ≤ 2 · numel` — the sampled product
///   does `rows · nnz` gathered multiply-adds where the row blocks do
///   `rows · numel` streamed ones plus a write, a re-read and a gather —
///   else [`Path::RowBlocks`];
/// * `A·B` and `A·Bᵀ` are [`Path::Kept`] when at most a fifth of the
///   weight is kept, from five rows of `dy·W` (below them the pack-free
///   product streams W once at full vector width) and two of `x·Wᵀ` (one
///   row gives the kept sweep nothing to spread its per-weight work over);
/// * otherwise `A·B` of up to eight rows is [`Path::PackFree`], and every
///   other product [`Path::Packed`].
#[inline]
pub fn plan(op: Op, rows: usize, nnz: usize, numel: usize) -> Path {
    match op {
        Op::Tn if (TRANSPOSED_MIN_ROWS..=SAMPLED_MAX_K).contains(&rows) && TRANSPOSED_DENSITY_CUT * nnz <= numel => {
            Path::Transposed
        }
        Op::Tn if rows <= SAMPLED_MAX_K && rows * nnz <= SAMPLED_MAX_KEPT_ROWS * numel => Path::Sampled,
        Op::Tn => Path::RowBlocks,
        _ if numel > 0 && rows >= KEPT_MIN_ROWS[usize::from(op == Op::Nt)] && KEPT_DENSITY_CUT * nnz <= numel => {
            Path::Kept
        }
        Op::Nn if rows <= THIN_MAX_M => Path::PackFree,
        _ => Path::Packed,
    }
}

/// [`sgemm_with_tier`] on the path the caller names instead of the one
/// [`plan`] picks: [`Path::PackFree`] (both operands untransposed) or
/// [`Path::Packed`]. For the tests that hold the two to the same bits,
/// and for the sweep the cut is read from.
#[doc(hidden)]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_on_path<B: GemmElem>(
    path: Path,
    tier: Tier,
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(matches!(path, Path::Packed | Path::PackFree), "{path:?} is not a path of sgemm");
    let thin = path == Path::PackFree;
    assert!(!thin || !(transa || transb), "the pack-free product takes A and B as stored");
    if !begin_gemm(transa, transb, m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc) {
        return;
    }

    // Scale C by beta first so the accumulation loop is a pure FMA.
    if beta != 1.0 {
        for row in 0..m {
            let crow = &mut c[row * ldc..row * ldc + n];
            if beta == 0.0 {
                crow.fill(0.0);
            } else {
                for v in crow {
                    *v *= beta;
                }
            }
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }

    if thin {
        return gemm_thin(tier, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
    par_row_panels(m, n, c, ldc, |row0, row1, c_panel| {
        gemm_panel::<false, _>(
            tier, transa, transb, row0, row1, n, k, alpha, a, lda, b, ldb, c_panel, ldc,
        );
    });
}

/// `C += Aᵀ · B` for contiguous row-major `A` (`k × m`), `B` (`k × n`)
/// and `C` (`m × n`) — the weight-gradient accumulation `dW += dYᵀ · X`.
///
/// Every element is rounded exactly as by [`matmul_tn`] into a zeroed
/// `m × n` temporary followed by `c[i] += t[i]`, whatever `C` holds, but
/// no such temporary exists. While `k` fits one `KC` block — a batch of
/// rows, the usual case — each register tile runs its whole chain from
/// zero and is added to C as it is stored. A longer `k` carries partial
/// chains between blocks, which must not mix with C: the product then
/// goes through one `MC`-row block per thread before being added.
pub fn matmul_tn_acc(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let tier = simd::active();
    if !begin_gemm(true, false, m, n, k, a.len(), m, b.len(), n, c.len(), n) {
        return;
    }
    par_row_panels(m, n, c, n, |row0, row1, c_panel| {
        // `k = 0` takes the block path too: it still adds the (zero)
        // product, which turns a `-0.0` in C into `+0.0`.
        if (1..=KC).contains(&k) {
            gemm_panel::<true, _>(tier, true, false, row0, row1, n, k, 1.0, a, m, b, n, c_panel, n);
            return;
        }
        tn_row_blocks::<false>(tier, row0, row1, m, n, k, a, b, |r0, r1, block| {
            let c_rows = &mut c_panel[(r0 - row0) * n..(r1 - row0) * n];
            for (cv, &t) in c_rows.iter_mut().zip(block.iter()) {
                *cv += t;
            }
        });
    });
}

/// `Aᵀ · B` for contiguous row-major `A` (`k × m`) and `B` (`k × n`),
/// never stored: `consume(row0, row1, block)` is handed rows
/// `row0..row1` of the product (row-major, `n` wide) one block of at most
/// `MC` rows at a time, each block exactly once and together covering
/// `0..m`, while the block is still in cache. Blocks of different row
/// panels arrive from different pool threads, concurrently.
///
/// Every element is what [`matmul_tn_acc`] leaves in a zeroed `C` — the
/// chain of [`matmul_tn`] (same FMAs over `k`, same zero-skip row
/// groups, `+0.0` start) added to `+0.0`, so a product that underflowed
/// to `-0.0` reads `+0.0` here as it does there. A consumer that gathers
/// from the blocks therefore sees the bits it would find in a gradient
/// accumulated into zeros, without that `m × n` buffer existing.
///
/// `consume` runs inside the product's per-thread block and must not
/// call back into this function or [`matmul_tn_acc`].
// TEST-API: `row_blocks`, `sampled` and `gemm_counters` use its blocks as the oracle of the kept paths.
pub fn matmul_tn_row_blocks<F>(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], consume: F)
where
    F: Fn(usize, usize, &[f32]) + Sync,
{
    let tier = simd::active();
    if !begin_gemm(true, false, m, n, k, a.len(), m, b.len(), n, m * n, n) {
        return;
    }
    par_ranges(m.div_ceil(MC), 1, |p0, p1| {
        let (row0, row1) = (p0 * MC, (p1 * MC).min(m));
        tn_row_blocks::<true>(tier, row0, row1, m, n, k, a, b, |r0, r1, block| {
            consume(r0, r1, block)
        });
    });
}

/// `Aᵀ · B` for contiguous row-major `A` (`k × m`) and `B` (`k × n`) —
/// the weight gradient `dW = dyᵀ·x` — at a kept index, never stored as
/// f32: `idx` names positions of the row-major `m × n` product, strictly
/// ascending (a mask's shared index), and `out[j]` receives position
/// `idx[j]` narrowed to half precision. Returns `false` if any of those
/// halves is non-finite: the overflow flag of a loss-scaled gradient.
///
/// The counterpart of [`sgemm_kept`] for the third product a weight takes
/// part in. Every kept half is what gathering and narrowing
/// [`matmul_tn_acc`]'s product into zeros gives — FMAs over `k` ascending
/// from `+0.0`, a step skipped exactly when every A value of the element's
/// MR row group is zero, the chain added to `+0.0` — by whichever path
/// [`plan`] picks: [`Path::Sampled`] and [`Path::Transposed`] compute the
/// kept positions only, [`Path::RowBlocks`] the whole product one `MC`-row
/// block at a time, each block's kept positions gathered while it is in
/// cache.
///
/// # Panics
/// Panics if the lengths of `idx` and `out` differ, an index lies outside
/// the product, or an operand is too small; and, on the sampled and
/// transposed paths, if an index lies below the row of the one before it.
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_kept(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], out: &mut [F16]) -> bool {
    let path = plan(Op::Tn, k, idx.len(), m * n);
    tn_kept(path, simd::active(), m, n, k, a, b, idx, Kept::Narrow(out))
}

/// [`matmul_tn_kept`] summed instead of narrowed: `acc[j] += chain`, the
/// chain of position `idx[j]` — bit for bit what [`matmul_tn_acc`] leaves
/// at `idx[j]` in a dense C that holds `acc[j]` there (where a NaN sum
/// meets a NaN chain, which payload survives is the addition's, there as
/// here), by the path [`plan`] picks. Microbatches summed this way from zeros and narrowed
/// once ([`simd::narrow_sum_finite`]) give the halves and the flag that
/// [`matmul_tn_kept`]'s compress of the dense gradient they accumulate
/// gives, and that gradient never exists: a pipeline stage's weight
/// gradient is `nnz` floats from its first microbatch to its ring.
///
/// # Panics
/// As [`matmul_tn_kept`], with `acc` for `out`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_kept_acc(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], acc: &mut [f32]) {
    let path = plan(Op::Tn, k, idx.len(), m * n);
    tn_kept(path, simd::active(), m, n, k, a, b, idx, Kept::Add(acc));
}

/// [`matmul_tn_kept`] on the path the caller names ([`Path::Sampled`] or
/// [`Path::Transposed`], which need `k ≤ 256`, or [`Path::RowBlocks`])
/// instead of the one [`plan`] picks, and on an explicit tier — for the
/// suites that hold the paths to the same bits and flag, and the sweep the
/// cuts are read from.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_kept_on_path(
    path: Path, tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], out: &mut [F16],
) -> bool {
    tn_kept(path, tier, m, n, k, a, b, idx, Kept::Narrow(out))
}

/// [`matmul_tn_kept_acc`] on a named path and tier, as
/// [`matmul_tn_kept_on_path`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_kept_acc_on_path(
    path: Path, tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], acc: &mut [f32],
) {
    tn_kept(path, tier, m, n, k, a, b, idx, Kept::Add(acc));
}

/// The body of the four entries above.
#[allow(clippy::too_many_arguments)]
fn tn_kept(path: Path, tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], out: Kept) -> bool {
    assert_eq!(idx.len(), out.len());
    assert!(idx.last().is_none_or(|&i| (i as usize) < m * n), "index outside the product");
    match path {
        Path::Sampled | Path::Transposed => tn_chains(path, tier, m, n, k, a, b, idx, out),
        Path::RowBlocks => tn_gathered(tier, m, n, k, a, b, idx, out),
        _ => panic!("{path:?} is not a path of the weight gradient"),
    }
}

/// [`Path::RowBlocks`]: one task per `MC`-row panel of the product, owning
/// the run of `out` its rows keep (a panel that keeps nothing is not
/// computed). A block to narrow holds its chains added to `+0.0` and goes
/// through `simd::gather_narrow_finite`, the kernel a compress of the
/// assembled gradient runs, with the block's first position as the base; a
/// block to sum holds the bare chains, gathered into the sums.
#[allow(clippy::too_many_arguments)]
fn tn_gathered(tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], out: Kept) -> bool {
    if !begin_gemm(true, false, m, n, k, a.len(), m, b.len(), n, m * n, n) {
        return true;
    }
    let all_finite = std::sync::atomic::AtomicBool::new(true);
    let ends = (1..=m.div_ceil(MC)).map(|p| idx.partition_point(|&i| (i as usize) < (p * MC).min(m) * n));
    par_parts_mut(out, ends, |p, s, out| {
        let (run, row0, row1) = (&idx[s..s + out.len()], p * MC, ((p + 1) * MC).min(m));
        match out {
            Kept::Narrow(out) => tn_row_blocks::<true>(tier, row0, row1, m, n, k, a, b, |r0, _, block| {
                if !simd::gather_narrow_finite(tier, block, (r0 * n) as u32, run, out) {
                    all_finite.store(false, std::sync::atomic::Ordering::Relaxed);
                }
            }),
            Kept::Add(acc) => tn_row_blocks::<false>(tier, row0, row1, m, n, k, a, b, |r0, _, block| {
                for (s, &i) in acc.iter_mut().zip(run) {
                    *s += block[i as usize - r0 * n];
                }
            }),
        }
    });
    all_finite.into_inner()
}

/// Compressed positions per pool task of the sampled and transposed
/// products.
const SAMPLED_MIN_CHUNK: usize = 32 * 1024;

/// [`Path::Sampled`] and [`Path::Transposed`]: walks the index row by row,
/// marks the live steps of the row's MR row group — those it does not
/// skip (full groups from row 0 while they fit in `m`, single rows after,
/// the cut of `microkernel`; a `0 · ∞` appears, or not, where the blocks
/// put it) — once per group, and computes the chains of the row's kept
/// positions over them, each finished ([`Kept`]) as its vector of eight
/// leaves the kernel. The sampled path gathers B per kept column
/// (`simd::gather_fma`); the transposed one reads `Bᵀ`, transposed once
/// into this thread's scratch before the walk ([`transposed_chains`]). The
/// `k · (m·n − nnz)` multiply-adds at pruned positions are never done,
/// and no block is written and read back to keep a tenth of it. Parallel
/// over runs of `idx`, each task owning its part of `out`.
#[allow(clippy::too_many_arguments)]
fn tn_chains(path: Path, tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], out: Kept) -> bool {
    check_dims(true, false, m, n, k, a.len(), m, b.len(), n, m * n, n);
    assert!(k <= SAMPLED_MAX_K, "a kept product is one k-block");
    if telemetry::enabled() {
        gemm_metrics().0.inc();
        gemm_metrics().1.add(2 * (idx.len() as u64) * (k as u64));
    }
    let kp = k.next_multiple_of(8);
    KEPT_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if path == Path::Transposed {
            if scratch.len() < n * kp {
                scratch.resize(n * kp, 0.0);
            }
            // Column `j` of B as row `j`; its `kp − k` padding is never read.
            pack_transposed(tier, b, n, 0, 0, k, n, 1.0, &mut scratch, kp);
        }
        let bt: &[f32] = &scratch;
        let all_finite = std::sync::atomic::AtomicBool::new(true);
        par_chunks_mut(out, SAMPLED_MIN_CHUNK, |s, mut out| {
            let mut run = &idx[s..s + out.len()];
            let mut finite = true;
            // Bit `q` of `live[b]`: step `8b + q` is live for the row group
            // starting at `live_group`; `av[p]`: A at step `p` of the row.
            let (mut live, mut live_group) = ([0u8; SAMPLED_MAX_K / 8], usize::MAX);
            let mut av = [0.0f32; SAMPLED_MAX_K];
            let mut terms = [(0usize, 0.0f32); SAMPLED_MAX_K];
            while let Some(&first) = run.first() {
                let i = first as usize / n;
                // The row's run ends at the first index past it: a
                // sequential read of what the kernel loads next (a binary
                // search would touch the run cold). An index out of order
                // ends the run early or is refused by the kernel; it is
                // never misread.
                let in_row = row_end(run, 0, (i + 1) * n);
                let group = if i / MR * MR + MR <= m { i / MR * MR..i / MR * MR + MR } else { i..i + 1 };
                if group.start != live_group {
                    live_group = group.start;
                    live.fill(0);
                    for p in 0..k {
                        if a[p * m..][group.clone()].iter().any(|&v| v != 0.0) {
                            live[p / 8] |= 1 << (p % 8);
                        }
                    }
                }
                let (live, base) = (&live[..kp / 8], (i * n) as u32);
                let (row_out, rest) = out.split_at(in_row);
                finite &= match path {
                    // The sampled product takes the live steps as a list,
                    // the transposed one A at every step beside the bits.
                    Path::Sampled => {
                        let mut steps = 0;
                        for (b, &bits) in live.iter().enumerate() {
                            let mut bits = bits;
                            while bits != 0 {
                                let p = 8 * b + bits.trailing_zeros() as usize;
                                terms[steps] = (p, a[p * m + i]);
                                steps += 1;
                                bits &= bits - 1;
                            }
                        }
                        simd::gather_fma(tier, b, &terms[..steps], n, base, &run[..in_row], row_out)
                    }
                    _ => {
                        for (p, v) in av[..k].iter_mut().enumerate() {
                            *v = a[p * m + i];
                        }
                        transposed_chains(tier, bt, n, live, &av[..kp], base, &run[..in_row], row_out)
                    }
                };
                (run, out) = (&run[in_row..], rest);
            }
            if !finite {
                all_finite.store(false, std::sync::atomic::Ordering::Relaxed);
            }
        });
        all_finite.into_inner()
    })
}

/// [`Path::Transposed`] for one row's run: position `j` is finished
/// ([`Kept`]) from `Σ_p av[p] · bt[(idx[j] − base) · kp + p]` over the
/// steps `p` that `live` marks (bit `p % 8` of `live[p / 8]`), ascending,
/// one FMA chain from `+0.0` — [`simd::gather_fma`]'s sum, read from `bt`:
/// B transposed into `n` rows of `kp = 8 · live.len()` floats. `false` if
/// a half it narrowed is not finite. The AVX2 tier runs eight kept columns
/// in the lanes of one vector: per block of eight steps with a live one it
/// loads the eight columns' rows of `Bᵀ` there and transposes them in
/// registers, so a live step is one broadcast and one FMA for eight
/// columns, and nothing is gathered. The lanes share the row, and with it
/// the row group, so a skipped step is skipped for all of them alike.
///
/// # Panics
/// Panics if the lengths differ or an index lies outside `base..base + n`.
#[allow(clippy::too_many_arguments)]
fn transposed_chains(tier: Tier, bt: &[f32], n: usize, live: &[u8], av: &[f32], base: u32, idx: &[u32], mut out: Kept) -> bool {
    // The bounds every access below stays inside, on either tier; an
    // index below `base` wraps past any `n`.
    let kp = 8 * live.len();
    assert!(idx.len() == out.len() && av.len() == kp && bt.len() >= n * kp);
    let max = idx.iter().fold(0, |mx, &ix| ix.wrapping_sub(base).max(mx));
    assert!(idx.is_empty() || (max as usize) < n, "index out of bounds for positions {base}..{}", base as usize + n);
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        let mut finite = true;
        for first in (0..idx.len()).step_by(32) {
            // SAFETY: AVX2+FMA+F16C presence just checked; every column's
            // row of `kp` floats lies inside `bt`, and every position inside
            // `out`, by the asserts above.
            finite &= unsafe {
                match (idx.len() - first).div_ceil(8) {
                    1 => transposed_eights::<1>(bt, live, av, base, idx, first, &mut out),
                    2 => transposed_eights::<2>(bt, live, av, base, idx, first, &mut out),
                    3 => transposed_eights::<3>(bt, live, av, base, idx, first, &mut out),
                    _ => transposed_eights::<4>(bt, live, av, base, idx, first, &mut out),
                }
            };
        }
        return finite;
    }
    let _ = tier;
    let steps = || (0..kp).filter(|&p| live[p / 8] >> (p % 8) & 1 != 0);
    idx.iter().enumerate().fold(true, |finite, (j, &ix)| {
        let col = &bt[(ix - base) as usize * kp..][..kp];
        out.put(j, steps().fold(0.0, |acc, p| av[p].mul_add(col[p], acc))) & finite
    })
}

/// The AVX2+FMA tier of [`transposed_chains`] for the (up to) `G` eights of
/// kept columns from `first`: per block of eight steps with a live one,
/// each eight's rows of `Bᵀ` are transposed in registers and its chain is
/// continued over the live steps — `G` independent chains, each hiding the
/// others' FMA latency — and each eight is put as it is done. A run whose
/// length is not a multiple of eight ends in an eight that overlaps the
/// one before, only its last lanes new; a run shorter than eight has
/// spare lanes that repeat its last column and are never put.
///
/// # Safety
/// Requires AVX2, FMA and F16C; `bt` holds `kp = 8 · live.len()` floats
/// from `(idx[j] − base) · kp` for every `j`, `av` is `kp` long, `out` is
/// as long as `idx`, and `first < idx.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn transposed_eights<const G: usize>(
    bt: &[f32],
    live: &[u8],
    av: &[f32],
    base: u32,
    idx: &[u32],
    first: usize,
    out: &mut Kept,
) -> bool {
    use std::arch::x86_64::*;
    let (kp, len) = (8 * live.len(), idx.len());
    debug_assert!(first < len && av.len() == kp && out.len() == len);
    // Per eight: its first position, and the lanes that are new.
    let eights: [(usize, usize, usize); G] = std::array::from_fn(|g| {
        let at = first + 8 * g;
        if at + 8 <= len {
            (at, 0, 8)
        } else if len >= 8 {
            (len - 8, at - (len - 8), 8)
        } else {
            (at, 0, len - at)
        }
    });
    // SAFETY: for the pointers and the loads — every lane's row of `Bᵀ`
    // starts at `(col − base) · kp` with `kp` floats behind it, and a
    // block of steps starts at `8b <= kp − 8`, so the two four-float loads
    // per row stay inside it.
    let rows: [[*const f32; 8]; G] = std::array::from_fn(|g| {
        std::array::from_fn(|l| bt.as_ptr().add((idx[(eights[g].0 + l).min(len - 1)] - base) as usize * kp))
    });
    let mut acc = [_mm256_setzero_ps(); G];
    for (b, &mask) in live.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let av = &av[8 * b..8 * b + 8];
        for (rows, acc) in rows.iter().zip(&mut acc) {
            let steps = transpose8x8(|r, half| _mm_loadu_ps(rows[r].add(8 * b + 4 * half)));
            if mask == u8::MAX {
                for (&a, step) in av.iter().zip(steps) {
                    *acc = _mm256_fmadd_ps(_mm256_set1_ps(a), step, *acc);
                }
            } else {
                for (q, (&a, step)) in av.iter().zip(steps).enumerate() {
                    if mask >> q & 1 != 0 {
                        *acc = _mm256_fmadd_ps(_mm256_set1_ps(a), step, *acc);
                    }
                }
            }
        }
    }
    let mut nonfinite = _mm256_setzero_si256();
    for (&(at, lo, hi), &acc) in eights.iter().zip(&acc) {
        nonfinite = _mm256_or_si256(nonfinite, simd::put8(out, at, lo, hi, acc));
    }
    _mm256_movemask_epi8(nonfinite) == 0
}

/// Rows of A one sweep of the index serves — eight vector accumulators —
/// and the block a kernel task owns, as `sgemm`'s `MC`-row panel.
const KEPT_ROWS: usize = 8 * 8;

/// `C = A · Bᵀ` (`transb`: `x·Wᵀ`, B stored `n × k`) or `C = A · B`
/// (`dy·W`, B stored `k × n`) for contiguous row-major `A` (`m × k`) and
/// `C` (`m × n`), where `B` is a weight of which only the positions `idx`
/// names (row-major over B as stored, strictly ascending) are kept and
/// every other element is `±0`: the dense `θ16` a runtime lends with its
/// mask's index. Bit for bit what [`sgemm`] computes on the same `B`
/// (`alpha = 1`, `beta = 0`), computed over the kept positions only when
/// [`plan`] picks [`Path::Kept`], by `sgemm` otherwise.
///
/// The small operand, A, is transposed into thread-local scratch a block
/// of up to 64 rows at a time (the unit of parallelism, as `sgemm`'s row
/// panel), so each kept weight is one broadcast and
/// `⌈rows/8⌉` vector FMAs into register accumulators (`x·Wᵀ`, one row of
/// W per output column) or into a transposed C (`dy·W`, one row of W per
/// step `p`). Per output element that is the chain `fma(a, w, acc)` over
/// its kept positions in ascending order from `+0.0`. The dense chain
/// ([`sgemm`]'s contract: over every `p`, from `+0.0`, skipped by MR row
/// group) differs from it only by steps `fma(a, ±0, acc)` at pruned
/// positions and by the skipped steps, whose `a` is zero; with a finite A
/// and a finite kept weight each of those adds an exact zero, which
/// changes only the sign of a zero accumulator. Hence the two fallbacks:
/// a non-finite A runs `sgemm`, and a block in which an output comes out
/// `±0` or NaN is recomputed by `sgemm` on the block's rows, group skip
/// included — unless it came out `+0.0` and is zero by structure: its row
/// of A is all zero, every chain of which is `+0.0` that meets no
/// non-finite weight, or its weight row (`x·Wᵀ`) or column (`dy·W`) keeps
/// nothing, so the dense chain adds only `a · ±0` with a finite `a` to
/// `+0.0` and stays there (DESIGN.md §19).
///
/// # Panics
/// Panics if an operand is too small for the described matrices, an
/// index lies outside B, or the indices do not ascend.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_kept(transb: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[F16], idx: &[u32], c: &mut [f32]) {
    let path = plan(if transb { Op::Nt } else { Op::Nn }, m, idx.len(), n * k);
    sgemm_kept_on_path(path, simd::active(), transb, m, n, k, a, b, idx, c);
}

/// [`sgemm_kept`] on the path the caller names instead of the one
/// [`plan`] picks — [`Path::Kept`], or a path of [`sgemm`] — and on an
/// explicit tier: for the suite that holds it to `sgemm`'s bits and the
/// sweep the cut is read from.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_kept_on_path(
    path: Path, tier: Tier, transb: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[F16], idx: &[u32], c: &mut [f32],
) {
    let ldb = if transb { k } else { n };
    if path != Path::Kept {
        return sgemm_on_path(path, tier, false, transb, m, n, k, 1.0, a, k, b, ldb, 0.0, c, n);
    }
    check_dims(false, transb, m, n, k, a.len(), k, b.len(), ldb, c.len(), n);
    if m == 0 || n == 0 || k == 0 || !a[..m * k].iter().all(|v| v.is_finite()) {
        return sgemm_with_tier(tier, false, transb, m, n, k, 1.0, a, k, b, ldb, 0.0, c, n);
    }
    assert!(idx.last().is_none_or(|&i| (i as usize) < n * k), "index outside the weight");
    if telemetry::enabled() {
        gemm_metrics().0.inc();
        gemm_metrics().1.add(2 * (idx.len() as u64) * (m as u64));
    }
    let (b, c) = (&b[..n * k], &mut c[..m * n]);
    let mp_max = KEPT_ROWS.min(m.next_multiple_of(8));
    par_rows_mut(c, KEPT_ROWS * n, 1, |offset, c_rows| {
        KEPT_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < (k + n) * mp_max {
                scratch.resize((k + n) * mp_max, 0.0);
            }
            for (blk, c_block) in c_rows.chunks_mut(KEPT_ROWS * n).enumerate() {
                let (i0, mt) = (offset / n + blk * KEPT_ROWS, c_block.len() / n);
                let mp = mt.next_multiple_of(8);
                let (at, rest) = scratch.split_at_mut(k * mp);
                let ct = &mut rest[..n * mp];
                // A's rows as columns, the padding lanes zero.
                if mt < mp {
                    at.fill(0.0);
                }
                pack_transposed(tier, a, k, i0, 0, mt, k, 1.0, at, mp);
                kept_sweep(tier, transb, n, k, mp, at, b, idx, ct);
                pack_transposed(tier, ct, mp, 0, 0, n, mt, 1.0, c_block, n);
                let a_block = &a[i0 * k..(i0 + mt) * k];
                if !settled(n, k, a_block, c_block) && !empty_outputs_settled(transb, n, k, idx, a_block, c_block) {
                    // The block starts an `MC`-row panel of the product, so
                    // `sgemm` on its rows alone cuts the same row groups.
                    sgemm_with_tier(tier, false, transb, mt, n, k, 1.0, a_block, k, b, ldb, 0.0, c_block, n);
                }
            }
        });
    });
}

// A block of the kept product is a whole number of `sgemm`'s row panels.
const _: () = assert!(KEPT_ROWS.is_multiple_of(MC));

/// Whether a block of [`sgemm_kept`]'s product, `c_block` (`n` wide), from
/// the rows `a_block` of A (`k` wide), holds [`sgemm`]'s bits as it is:
/// the kept and the dense chains part only at an output that came out
/// `±0` or NaN — and not at the `+0.0`s of a row of A that is all zero,
/// every chain of which is `+0.0` unless it meets a non-finite weight.
fn settled(n: usize, k: usize, a_block: &[f32], c_block: &[f32]) -> bool {
    c_block.chunks_exact(n).zip(a_block.chunks_exact(k)).all(|(c_row, a_row)| {
        c_row.iter().all(|v| v.abs() > 0.0)
            || (c_row.iter().all(|v| v.to_bits() == 0) && a_row.iter().all(|&x| x == 0.0))
    })
}

/// [`settled`] for a block it refused, once more with the outputs whose
/// weight row (`x·Wᵀ`, W stored `n × k`) or column (`dy·W`, W stored
/// `k × n`) keeps nothing: their `+0.0` is the dense chain's too. Off the
/// hot path — it runs only where a block holds a zero — and found by one
/// walk of the ascending index, no division.
#[cold]
fn empty_outputs_settled(transb: bool, n: usize, k: usize, idx: &[u32], a_block: &[f32], c_block: &[f32]) -> bool {
    let mut empty = vec![true; n];
    if transb {
        let mut t = 0;
        for (j, empty) in empty.iter_mut().enumerate() {
            let end = row_end(idx, t, (j + 1) * k);
            *empty = end == t;
            t = end;
        }
    } else {
        let mut row = 0;
        for &e in idx {
            while e as usize >= row + n {
                row += n;
            }
            empty[e as usize - row] = false;
        }
    }
    c_block.chunks_exact(n).zip(a_block.chunks_exact(k)).all(|(c_row, a_row)| {
        let zero_row = a_row.iter().all(|&x| x == 0.0);
        c_row.iter().zip(&empty).all(|(v, &empty)| v.abs() > 0.0 || v.to_bits() == 0 && (empty || zero_row))
    })
}

/// The sweep of [`sgemm_kept`] over the kept weights for one block of
/// `mp` (a multiple of eight) rows of A, held transposed in `at` (`k × mp`,
/// row `p` the block's values at step `p`): leaves the product's chains
/// over the kept positions in `ct` (`n × mp`, row `j` output column `j`).
/// B's rows are walked in index order, each kept weight widened and
/// broadcast on its own. For `x·Wᵀ` a row of W is an output column
/// whose chains stay in registers for the row; for `dy·W` a row of W is one
/// step `p`, A's values at `p` stay in registers and are added into `ct`
/// at each kept column.
#[allow(clippy::too_many_arguments)]
fn kept_sweep(
    tier: Tier,
    transb: bool,
    n: usize,
    k: usize,
    mp: usize,
    at: &[f32],
    b: &[F16],
    idx: &[u32],
    ct: &mut [f32],
) {
    // The bounds every access below stays inside, on either tier: a row
    // of W is `ldb` long and there are `rows_w` of them, so an index
    // inside its row's run names a column `< ldb` — checked per index.
    let (rows_w, ldb) = if transb { (n, k) } else { (k, n) };
    assert!(mp.is_multiple_of(8) && (8..=KEPT_ROWS).contains(&mp));
    assert!(at.len() >= k * mp && ct.len() >= n * mp && b.len() >= rows_w * ldb);
    let ct = &mut ct[..n * mp];
    if !transb {
        // Steps add into every output column; `x·Wᵀ` writes each once.
        ct.fill(0.0);
    }
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2+FMA+F16C presence just checked; bounds asserted above.
        let swept = unsafe {
            match (transb, mp / 8) {
                (true, 1) => kept_nt_avx2::<1>(n, k, at, b, idx, ct),
                (true, 2) => kept_nt_avx2::<2>(n, k, at, b, idx, ct),
                (true, 3) => kept_nt_avx2::<3>(n, k, at, b, idx, ct),
                (true, 4) => kept_nt_avx2::<4>(n, k, at, b, idx, ct),
                (true, 5) => kept_nt_avx2::<5>(n, k, at, b, idx, ct),
                (true, 6) => kept_nt_avx2::<6>(n, k, at, b, idx, ct),
                (true, 7) => kept_nt_avx2::<7>(n, k, at, b, idx, ct),
                (true, _) => kept_nt_avx2::<8>(n, k, at, b, idx, ct),
                (false, 1) => kept_nn_avx2::<1>(n, k, at, b, idx, ct),
                (false, 2) => kept_nn_avx2::<2>(n, k, at, b, idx, ct),
                (false, 3) => kept_nn_avx2::<3>(n, k, at, b, idx, ct),
                (false, 4) => kept_nn_avx2::<4>(n, k, at, b, idx, ct),
                (false, 5) => kept_nn_avx2::<5>(n, k, at, b, idx, ct),
                (false, 6) => kept_nn_avx2::<6>(n, k, at, b, idx, ct),
                (false, 7) => kept_nn_avx2::<7>(n, k, at, b, idx, ct),
                (false, _) => kept_nn_avx2::<8>(n, k, at, b, idx, ct),
            }
        };
        assert_eq!(swept, idx.len(), "mask indices must ascend");
        return;
    }
    let _ = tier;
    let mut t = 0;
    for r in 0..rows_w {
        let (base, end) = (r * ldb, row_end(idx, t, (r + 1) * ldb));
        if transb {
            ct[r * mp..][..mp].fill(0.0);
        }
        for &e in &idx[t..end] {
            let col = (e as usize).wrapping_sub(base);
            assert!(col < ldb, "mask indices must ascend");
            let (out, step) = if transb { (r, col) } else { (col, r) };
            let w = b[e as usize].widen();
            for (acc, &x) in ct[out * mp..][..mp].iter_mut().zip(&at[step * mp..][..mp]) {
                *acc = x.mul_add(w, *acc);
            }
        }
        t = end;
    }
    assert_eq!(t, idx.len(), "mask indices must ascend");
}

/// The end of the run of `idx` from `t` that lies below `end`: found in
/// strides of a vector, then singly — a sequential read of what the
/// sweep loads next. An index out of order may end the run late; the
/// sweep's column check refuses it.
fn row_end(idx: &[u32], mut t: usize, end: usize) -> usize {
    let below = |t: usize| idx.get(t).is_some_and(|&e| (e as usize) < end);
    while below(t + 7) {
        t += 8;
    }
    while below(t) {
        t += 1;
    }
    t
}

/// The AVX2+FMA sweep of [`kept_sweep`] for `x·Wᵀ` on `mp = 8 · V` rows
/// of A: per row `j` of W, `V` accumulators in registers for the row's
/// run of the index, then stored as row `j` of `ct`. Returns how many
/// indices it consumed.
///
/// # Safety
/// Requires AVX2, FMA and F16C, and the bounds [`kept_sweep`] asserts:
/// `at` holds `k · mp` floats, `ct` `n · mp` and `b` `n · k` halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn kept_nt_avx2<const V: usize>(
    n: usize,
    k: usize,
    at: &[f32],
    b: &[F16],
    idx: &[u32],
    ct: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let mp = 8 * V;
    debug_assert!(at.len() >= k * mp && ct.len() >= n * mp && b.len() >= n * k);
    let (ap, cp) = (at.as_ptr(), ct.as_mut_ptr());
    let mut t = 0;
    for j in 0..n {
        let (base, end) = (j * k, row_end(idx, t, (j + 1) * k));
        let mut acc = [_mm256_setzero_ps(); V];
        for &e in &idx[t..end] {
            let col = (e as usize).wrapping_sub(base);
            assert!(col < k, "mask indices must ascend");
            let w = _mm256_broadcastss_ps(_mm_cvtph_ps(_mm_cvtsi32_si128(i32::from(b[e as usize].0))));
            // SAFETY: `col < k`, so row `col` of `at` — `mp` floats, read
            // as `V` vectors — is inside the caller's `k · mp`.
            debug_assert!((col + 1) * mp <= at.len());
            let x = ap.add(col * mp);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(_mm256_loadu_ps(x.add(8 * v)), w, *a);
            }
        }
        // SAFETY: row `j < n` of `ct` is `mp` floats inside the caller's
        // `n · mp`.
        debug_assert!((j + 1) * mp <= ct.len());
        for (v, &a) in acc.iter().enumerate() {
            _mm256_storeu_ps(cp.add(j * mp + 8 * v), a);
        }
        t = end;
    }
    t
}

/// The AVX2+FMA sweep of [`kept_sweep`] for `dy·W` on `mp = 8 · V` rows
/// of A: per row `p` of W, A's `V` vectors at step `p` in registers, and
/// at each kept column `q` the `V` vectors of `ct`'s row `q` loaded,
/// multiply-added and stored. Returns how many indices it consumed.
///
/// # Safety
/// Requires AVX2, FMA and F16C, and the bounds [`kept_sweep`] asserts:
/// `at` holds `k · mp` floats, `ct` `n · mp` and `b` `k · n` halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn kept_nn_avx2<const V: usize>(
    n: usize,
    k: usize,
    at: &[f32],
    b: &[F16],
    idx: &[u32],
    ct: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let mp = 8 * V;
    debug_assert!(at.len() >= k * mp && ct.len() >= n * mp && b.len() >= k * n);
    let (ap, cp) = (at.as_ptr(), ct.as_mut_ptr());
    let mut t = 0;
    for p in 0..k {
        let (base, end) = (p * n, row_end(idx, t, (p + 1) * n));
        // SAFETY: `p < k`, so row `p` of `at` — `mp` floats, read as `V`
        // vectors — is inside the caller's `k · mp`.
        debug_assert!((p + 1) * mp <= at.len());
        let x: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(ap.add(p * mp + 8 * v)));
        for &e in &idx[t..end] {
            let col = (e as usize).wrapping_sub(base);
            assert!(col < n, "mask indices must ascend");
            let w = _mm256_broadcastss_ps(_mm_cvtph_ps(_mm_cvtsi32_si128(i32::from(b[e as usize].0))));
            // SAFETY: `col < n`, so row `col` of `ct` — `mp` floats, read
            // and written as `V` vectors — is inside the caller's `n · mp`.
            debug_assert!((col + 1) * mp <= ct.len());
            let c = cp.add(col * mp);
            for (v, &x) in x.iter().enumerate() {
                _mm256_storeu_ps(c.add(8 * v), _mm256_fmadd_ps(x, w, _mm256_loadu_ps(c.add(8 * v))));
            }
        }
        t = end;
    }
    t
}

/// Rows `row0..row1` of `Aᵀ · B` (shapes as in [`matmul_tn_acc`]), one
/// `MC`-row block at a time through this thread's [`ACC_SCRATCH`]:
/// `f(r0, r1, block)`. The blocks are cut from `row0` as `gemm_panel`
/// itself would cut them, so the MR row groups — and with them the zero
/// skips — are those of the one-shot product. A block holds the product
/// as [`matmul_tn`] rounds it, or with `ONTO_ZERO` that product added to
/// `+0.0`: what accumulating it into zeroed rows leaves.
#[allow(clippy::too_many_arguments)]
fn tn_row_blocks<const ONTO_ZERO: bool>(
    tier: Tier,
    row0: usize,
    row1: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    mut f: impl FnMut(usize, usize, &mut [f32]),
) {
    ACC_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < MC.min(m) * n {
            scratch.resize(MC.min(m) * n, 0.0);
        }
        for r0 in (row0..row1).step_by(MC) {
            let r1 = (r0 + MC).min(row1);
            let block = &mut scratch[..(r1 - r0) * n];
            block.fill(0.0);
            if ONTO_ZERO && (1..=KC).contains(&k) {
                // One k-block: the tile adds its finished chain to the
                // zeros as it stores, as `matmul_tn_acc` does into C.
                gemm_panel::<true, _>(tier, true, false, r0, r1, n, k, 1.0, a, m, b, n, block, n);
            } else {
                gemm_panel::<false, _>(tier, true, false, r0, r1, n, k, 1.0, a, m, b, n, block, n);
                if ONTO_ZERO {
                    for t in block.iter_mut() {
                        *t += 0.0;
                    }
                }
            }
            f(r0, r1, block);
        }
    });
}

/// Checks the operand sizes and counts the call; `false` when C is empty
/// and there is nothing to do.
#[allow(clippy::too_many_arguments)]
fn begin_gemm(
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alen: usize,
    lda: usize,
    blen: usize,
    ldb: usize,
    clen: usize,
    ldc: usize,
) -> bool {
    check_dims(transa, transb, m, n, k, alen, lda, blen, ldb, clen, ldc);
    if m == 0 || n == 0 {
        return false;
    }
    if telemetry::enabled() {
        gemm_metrics().0.inc();
        gemm_metrics().1.add(2 * (m as u64) * (n as u64) * (k as u64));
    }
    true
}

/// Runs `f(row0, row1, c_panel)` over disjoint ranges of whole `MC`-row
/// panels of the `m`-row matrix `c`, in parallel; `c_panel` starts at row
/// `row0`. A panel is one "row" of the pool's row split, the last one
/// short: it has the rows that are left, and the final row of C only
/// extends `n` elements, not `ldc`.
fn par_row_panels<F>(m: usize, n: usize, c: &mut [f32], ldc: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    par_rows_mut(&mut c[..(m - 1) * ldc + n], MC * ldc, 1, |offset, c_panel| {
        let row0 = offset / ldc;
        f(row0, row0 + c_panel.len().div_ceil(ldc), c_panel);
    });
}

thread_local! {
    /// Reusable per-thread packing scratch for [`gemm_panel`]:
    /// `(packed_a, packed_b)`. Grown on demand and never shrunk, so
    /// steady-state GEMM calls perform no heap allocation — crucial for
    /// workloads like attention that issue thousands of small GEMMs per
    /// training step. Each pool worker (and the caller thread) owns its
    /// copy, so no synchronization is needed, and `gemm_panel` never
    /// re-enters itself on a thread (panels do not spawn nested GEMMs),
    /// so the `RefCell` borrow cannot conflict.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };

    /// The `MC × n` product block of [`tn_row_blocks`], reused the same
    /// way. Separate from `PACK_SCRATCH` because `gemm_panel` borrows that
    /// while this is held.
    static ACC_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };

    /// [`sgemm_kept`]'s transposed A block and transposed product,
    /// `(k + n) · 64` floats at most — one buffer, so `x·Wᵀ` and `dy·W`
    /// of one layer (`k` and `n` swapped) grow it once between them — and
    /// the transposed B of [`Path::Transposed`], which at up to 64 rows
    /// fits what those two grew.
    static KEPT_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Rows of C updated per microkernel invocation: four accumulator rows
/// share each sweep over the packed B panel, quartering B traffic.
const MR: usize = 4;

/// Columns of C kept in register accumulators per k-sweep. An `MR × NR`
/// f32 tile is 8 AVX2 vectors, leaving room for the B tile and the four
/// broadcast A values.
const NR: usize = 16;

/// Multiplies rows [row0, row1) of op(A) into the C panel (whose row 0
/// corresponds to global row `row0`). With `ADD`, which needs
/// `k <= KC`, the product is summed on its own and then added to the
/// panel instead of continuing the chain from the panel's values.
#[allow(clippy::too_many_arguments)]
fn gemm_panel<const ADD: bool, B: GemmElem>(
    tier: Tier,
    transa: bool,
    transb: bool,
    row0: usize,
    row1: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    c_panel: &mut [f32],
    ldc: usize,
) {
    assert!(!ADD || k <= KC, "a product added to C must be one k-block");
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (packed_a, packed_b) = &mut *scratch;
        let need_a = MC.min(row1 - row0) * KC.min(k);
        let need_b = KC.min(k) * NC.min(n).next_multiple_of(NR);
        if packed_a.len() < need_a {
            packed_a.resize(need_a, 0.0);
        }
        if packed_b.len() < need_b {
            packed_b.resize(need_b, 0.0);
        }

        let mut kk = 0;
        while kk < k {
            let kb = KC.min(k - kk);
            let mut jj = 0;
            while jj < n {
                let nb = NC.min(n - jj);
                // Pack the KC×NC panel of op(B); `bl` is how it was laid out.
                let bl = pack_b(tier, transb, b, ldb, kk, jj, kb, nb, packed_b);

                let mut ii = row0;
                while ii < row1 {
                    let mb = MC.min(row1 - ii);
                    // Pack the MC×KC panel of op(A) (row-major mb×kb), with
                    // alpha folded in so the inner loop is multiply-add only.
                    pack_a(tier, transa, a, lda, ii, kk, mb, kb, alpha, packed_a);

                    microkernel::<ADD>(
                        tier, packed_a, packed_b, bl, c_panel, ii - row0, mb, kb, nb, jj, ldc,
                    );
                    ii += mb;
                }
                jj += nb;
            }
            kk += kb;
        }
    });
}

/// B rows swept per visit of a C tile by [`gemm_thin`].
const THIN_KB: usize = 8;

/// `C += alpha · A · B` without a packed panel, for an `A` of a few rows:
/// rows of C are taken a strip of `2·MR` at a time, and per strip B is
/// streamed once, `THIN_KB` rows at a visit — each register tile of the
/// strip loads its C values, continues their chains over those B rows,
/// widening a half-precision B in registers, and stores them back. The
/// bits are the packed product's: `alpha` is folded into A as [`pack_a`]
/// folds it, a C element's chain runs over `p` ascending whichever way it
/// is cut (the packed path cuts it every `KC`), and the strip's tiles are
/// the MR row groups — full groups, then single rows — that
/// [`microkernel`] cuts from the same row, so `p` is skipped for the same
/// rows. Not worth it for `A · Bᵀ`: the chain order then wants B's rows
/// as columns, an in-register transpose per tile that measured no faster
/// than the pack that already does it (DESIGN.md §19).
#[allow(clippy::too_many_arguments)]
fn gemm_thin<B: GemmElem>(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    const STRIP: usize = 2 * MR;
    for r0 in (0..m).step_by(STRIP) {
        let rows = STRIP.min(m - r0);
        // Full MR groups while they fit below `m`, single rows after.
        let grouped = (m - r0) / MR * MR;
        let c_strip = &mut c[r0 * ldc..(r0 + rows - 1) * ldc + n];
        for p0 in (0..k).step_by(THIN_KB) {
            let kb = THIN_KB.min(k - p0);
            let mut a_blk = [[0.0f32; THIN_KB]; STRIP];
            for (i, row) in a_blk.iter_mut().enumerate().take(rows) {
                let src = &a[(r0 + i) * lda + p0..][..kb];
                for (d, &v) in row.iter_mut().zip(src) {
                    *d = if alpha == 1.0 { v } else { alpha * v };
                }
            }
            let b_rows = &b[p0 * ldb..(p0 + kb - 1) * ldb + n];
            thin_block(tier, &a_blk, rows, grouped.min(rows), kb, b_rows, ldb, n, c_strip, ldc);
        }
    }
}

/// One visit of [`gemm_thin`]: continues the chains of a strip of C
/// (`rows` rows of `n` columns, the first `grouped` of them in MR groups)
/// over `kb` rows of B, `a[i][..kb]` being row `i`'s A values for them.
#[allow(clippy::too_many_arguments)]
fn thin_block<B: GemmElem>(
    tier: Tier,
    a: &[[f32; THIN_KB]; 2 * MR],
    rows: usize,
    grouped: usize,
    kb: usize,
    b: &[B],
    ldb: usize,
    n: usize,
    c: &mut [f32],
    ldc: usize,
) {
    // The bounds every tile below stays inside, on either tier.
    assert!(rows <= a.len() && grouped <= rows && grouped.is_multiple_of(MR) && (1..=THIN_KB).contains(&kb));
    assert!(n <= ldb && n <= ldc, "rows overlap");
    assert!(b.len() >= (kb - 1) * ldb + n, "B rows too short");
    assert!(c.len() >= (rows - 1) * ldc + n, "C strip too small");
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2+FMA+F16C presence just checked; bounds asserted above.
        unsafe { thin_block_avx2(a, rows, grouped, kb, b.as_ptr(), ldb, n, c.as_mut_ptr(), ldc) };
        return;
    }
    let _ = tier;
    let mut i = 0;
    while i < rows {
        let group = if i < grouped { MR } else { 1 };
        for jt in (0..n).step_by(NR) {
            let w = NR.min(n - jt);
            let mut c_rows = c[i * ldc..].chunks_mut(ldc);
            let mut c_row = || &mut c_rows.next().expect("the strip holds the group's rows")[jt..jt + w];
            if group == MR {
                let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[i + r][..kb]);
                tile_scalar::<MR, false, B>(a_rows, &b[jt..], ldb, std::array::from_fn(|_| c_row()));
            } else {
                tile_scalar::<1, false, B>([&a[i][..kb]], &b[jt..], ldb, [c_row()]);
            }
        }
        i += group;
    }
}

/// The AVX2+FMA tile loop of [`thin_block`]: the same cut of the strip
/// into tiles, each run by [`tile_avx2`] straight from B.
///
/// # Safety
/// Requires AVX2, FMA and F16C, and the bounds [`thin_block`] asserts:
/// `b` readable for `kb` rows of `n` elements `ldb` apart, `c` readable
/// and writable for `rows` rows of `n` floats `ldc` apart.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[allow(clippy::too_many_arguments)]
unsafe fn thin_block_avx2<B: GemmElem>(
    a: &[[f32; THIN_KB]; 2 * MR],
    rows: usize,
    grouped: usize,
    kb: usize,
    b: *const B,
    ldb: usize,
    n: usize,
    c: *mut f32,
    ldc: usize,
) {
    debug_assert!(rows <= a.len() && grouped <= rows && kb <= THIN_KB && n <= ldb.min(ldc));
    let mut i = 0;
    while i < rows {
        let group = if i < grouped { MR } else { 1 };
        for jt in (0..n).step_by(NR) {
            let w = NR.min(n - jt);
            // SAFETY: for the pointers and the calls — row `i + r < rows`
            // of `a` is `THIN_KB >= kb` floats; row `i + r` of the strip
            // holds columns `jt ..+ w`, and so does every row `p < kb` of
            // `b` — the caller's bounds.
            let a_row = |r: usize| a[i + r].as_ptr();
            let c_row = |r: usize| c.add((i + r) * ldc + jt);
            let bt = b.add(jt);
            match (group == MR, w == NR) {
                (true, true) => tile_avx2::<MR, true, false, B>(
                    std::array::from_fn(a_row), bt, ldb, kb, std::array::from_fn(c_row), w,
                ),
                (true, false) => tile_avx2::<MR, false, false, B>(
                    std::array::from_fn(a_row), bt, ldb, kb, std::array::from_fn(c_row), w,
                ),
                (false, true) => tile_avx2::<1, true, false, B>([a_row(0)], bt, ldb, kb, [c_row(0)], w),
                (false, false) => tile_avx2::<1, false, false, B>([a_row(0)], bt, ldb, kb, [c_row(0)], w),
            }
        }
        i += group;
    }
}

/// Register-blocked inner kernel: updates `mb` rows of the C panel
/// (panel-local row offset `crow0`, columns `[jj, jj + nb)`) from the
/// packed `mb×kb` A block and the packed `kb×nb` B panel laid out as
/// `bl`. C is cut into register tiles of `MR` rows (then single rows for
/// the `mb mod MR` remainder) by `NR` columns (then one narrower tile);
/// each tile stays in accumulators for its whole k-sweep, so C is loaded
/// and stored once per tile and each loaded B row feeds all its rows.
///
/// Both tiers compute each output element as the identical chain of
/// correctly-rounded fused multiply-adds over `p = 0..kb` (scalar
/// `f32::mul_add` ≡ `vfmadd`), skipping `p` exactly when every A value of
/// the tile's row group is zero, so their results are bitwise equal,
/// edge tiles included. That bitwise contract is what keeps the
/// checkpoint-determinism oracles valid regardless of which tier a host
/// selects. The chain starts from the tile's C values and replaces them,
/// or with `ADD` starts from zero and is added to them.
#[allow(clippy::too_many_arguments)]
fn microkernel<const ADD: bool>(
    tier: Tier,
    packed_a: &[f32],
    packed_b: &[f32],
    bl: BLayout,
    c_panel: &mut [f32],
    crow0: usize,
    mb: usize,
    kb: usize,
    nb: usize,
    jj: usize,
    ldc: usize,
) {
    // The bounds every tile below stays inside, on either tier.
    assert!(packed_a.len() >= mb * kb, "packed A too small");
    assert!(packed_b.len() > bl.at(nb - 1, kb - 1) + (nb - 1) % NR, "packed B too small");
    assert!(jj + nb <= ldc, "C panel too narrow");
    assert!(c_panel.len() >= (crow0 + mb - 1) * ldc + jj + nb, "C panel too small");
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2+FMA+F16C presence just checked; bounds asserted above.
        unsafe {
            microkernel_avx2::<ADD>(packed_a, packed_b, bl, c_panel, crow0, mb, kb, nb, jj, ldc)
        };
        return;
    }
    let _ = tier;
    let cp = c_panel.as_mut_ptr();
    let mut i = 0;
    while i < mb {
        let rows = if i + MR <= mb { MR } else { 1 };
        for jt in (0..nb).step_by(NR) {
            let w = NR.min(nb - jt);
            let a = |r: usize| &packed_a[(i + r) * kb..(i + r + 1) * kb];
            // SAFETY: rows `crow0 + i + r` are distinct and inside the
            // panel, and columns `jj + jt ..+ w` inside each row, by the
            // assert above — so the `w`-long slices are disjoint.
            let c = |r: usize| unsafe {
                std::slice::from_raw_parts_mut(cp.add((crow0 + i + r) * ldc + jj + jt), w)
            };
            let b = &packed_b[bl.at(jt, 0)..];
            if rows == MR {
                tile_scalar::<MR, ADD, f32>(std::array::from_fn(a), b, bl.row, std::array::from_fn(c));
            } else {
                tile_scalar::<1, ADD, f32>([a(0)], b, bl.row, [c(0)]);
            }
        }
        i += rows;
    }
}

/// One register tile on the scalar tier: `R` rows by `w = c[r].len() ≤ NR`
/// columns, `b` starting at the tile's first column with `ldb` between
/// consecutive `p`.
#[inline(always)]
fn tile_scalar<const R: usize, const ADD: bool, E: GemmElem>(
    a: [&[f32]; R],
    b: &[E],
    ldb: usize,
    c: [&mut [f32]; R],
) {
    let w = c[0].len();
    let mut acc = [[0.0f32; NR]; R];
    if !ADD {
        for r in 0..R {
            acc[r][..w].copy_from_slice(c[r]);
        }
    }
    for p in 0..a[0].len() {
        let av: [f32; R] = std::array::from_fn(|r| a[r][p]);
        // Pruned θ16 rows are exact zeros: skip the sweep when the whole
        // register block contributes nothing.
        if av.iter().all(|&v| v == 0.0) {
            continue;
        }
        let bt = &b[p * ldb..p * ldb + w];
        // Single-rounding FMA per element, matching the AVX2 tier's
        // `vfmadd` bit-for-bit.
        for r in 0..R {
            for j in 0..w {
                acc[r][j] = av[r].mul_add(bt[j].widen(), acc[r][j]);
            }
        }
    }
    for r in 0..R {
        for j in 0..w {
            c[r][j] = if ADD { c[r][j] + acc[r][j] } else { acc[r][j] };
        }
    }
}

/// The AVX2+FMA tile loop of [`microkernel`]: the same cut of C into
/// tiles, each run by [`tile_avx2`].
///
/// # Safety
/// Requires AVX2, FMA and F16C, and the three bounds [`microkernel`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2<const ADD: bool>(
    packed_a: &[f32],
    packed_b: &[f32],
    bl: BLayout,
    c_panel: &mut [f32],
    crow0: usize,
    mb: usize,
    kb: usize,
    nb: usize,
    jj: usize,
    ldc: usize,
) {
    let (ap, bp, cp) = (packed_a.as_ptr(), packed_b.as_ptr(), c_panel.as_mut_ptr());
    let mut i = 0;
    while i < mb {
        let rows = if i + MR <= mb { MR } else { 1 };
        for jt in (0..nb).step_by(NR) {
            let w = NR.min(nb - jt);
            // SAFETY: for the pointers and the calls — row `i + r < mb` of
            // packed A is `kb` long; row `crow0 + i + r` of the panel holds
            // columns `jj + jt ..+ w`; every row `p < kb` of the packed B
            // tile at `jt` holds `w` columns — the caller's three bounds.
            let a = |r: usize| ap.add((i + r) * kb);
            let c = |r: usize| cp.add((crow0 + i + r) * ldc + jj + jt);
            let b = bp.add(bl.at(jt, 0));
            match (rows == MR, w == NR) {
                (true, true) => tile_avx2::<MR, true, ADD, f32>(
                    std::array::from_fn(a), b, bl.row, kb, std::array::from_fn(c), w,
                ),
                (true, false) => tile_avx2::<MR, false, ADD, f32>(
                    std::array::from_fn(a), b, bl.row, kb, std::array::from_fn(c), w,
                ),
                (false, _) => tile_avx2::<1, false, ADD, f32>([a(0)], b, bl.row, kb, [c(0)], w),
            }
        }
        i += rows;
    }
}

/// `TAIL_MASK[8 - w..][..8]` has its first `w ≤ 8` lanes set: the
/// `vmaskmov` mask selecting the leading `w` floats of a vector.
#[cfg(target_arch = "x86_64")]
static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One register tile on the AVX2 tier: `R` rows by `w ≤ NR` columns of C
/// in `2 R` YMM accumulators. `FULL` tiles (`w == NR`) use plain loads
/// and stores; the others mask the columns beyond `w` out of every load
/// and store. B is the f32 panel of the packed product or, for the
/// pack-free one ([`gemm_thin`]), the operand itself, widened as it is
/// loaded ([`GemmElem::load8`]). Per stored element this is
/// [`tile_scalar`]'s chain: `fma(a, b, acc)` over `p` ascending, skipping
/// `p` when all `R` A values are zero (a NaN/Inf in B must be skipped —
/// or not — identically on both tiers).
///
/// # Safety
/// Requires AVX2, FMA and F16C. Each `a[r]` must be readable for `kb`
/// floats, each `c[r]` readable and writable for `w` floats, and
/// `b + p * ldb` readable for `w` elements for every `p < kb`;
/// `1 <= w <= NR`, and `w == NR` if `FULL`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn tile_avx2<const R: usize, const FULL: bool, const ADD: bool, E: GemmElem>(
    a: [*const f32; R],
    b: *const E,
    ldb: usize,
    kb: usize,
    c: [*mut f32; R],
    w: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!((1..=NR).contains(&w) && (!FULL || w == NR));
    // SAFETY: the two mask loads read 8 of `TAIL_MASK`'s 16 words from an
    // offset `<= 8`. Every other access is a (masked) 8-lane load or store
    // of the first `w` floats at `c[r]`, an 8-element load of the first
    // `w` elements at `b + p * ldb` cut to `w0` and `w1` lanes, or a scalar
    // read of `a[r] + p`, `p < kb` — what the caller vouches for; lanes
    // beyond `w` are masked out, and masked-out lanes touch no memory.
    let (w0, w1) = (w.min(8), w.saturating_sub(8));
    let m0 = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - w0) as *const __m256i);
    let m1 = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - w1) as *const __m256i);
    // The upper-half pointers may lie past the row when `w <= 8`; `m1` is
    // then all zero and a fully masked `vmaskmov` touches no memory, so
    // they are formed with `wrapping_add` and never dereferenced.
    let load = |p: *const f32, m: __m256i| {
        if FULL {
            _mm256_loadu_ps(p)
        } else {
            _mm256_maskload_ps(p, m)
        }
    };
    let load_b = |p: *const E, m: __m256i, lanes: usize| {
        if FULL {
            E::load8(p)
        } else {
            E::load8_head(p, m, lanes)
        }
    };
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    if !ADD {
        for r in 0..R {
            acc[r] = [load(c[r], m0), load(c[r].wrapping_add(8), m1)];
        }
    }
    for p in 0..kb {
        let av: [f32; R] = std::array::from_fn(|r| *a[r].add(p));
        if av.iter().all(|&v| v == 0.0) {
            continue;
        }
        let bt = b.add(p * ldb);
        let (b0, b1) = (load_b(bt, m0, w0), load_b(bt.wrapping_add(8), m1, w1));
        for r in 0..R {
            let v = _mm256_set1_ps(av[r]);
            acc[r] = [_mm256_fmadd_ps(v, b0, acc[r][0]), _mm256_fmadd_ps(v, b1, acc[r][1])];
        }
    }
    for r in 0..R {
        if ADD {
            acc[r][0] = _mm256_add_ps(load(c[r], m0), acc[r][0]);
            acc[r][1] = _mm256_add_ps(load(c[r].wrapping_add(8), m1), acc[r][1]);
        }
        if FULL {
            _mm256_storeu_ps(c[r], acc[r][0]);
            _mm256_storeu_ps(c[r].add(8), acc[r][1]);
        } else {
            _mm256_maskstore_ps(c[r], m0, acc[r][0]);
            _mm256_maskstore_ps(c[r].wrapping_add(8), m1, acc[r][1]);
        }
    }
}

/// Where [`pack_b`] put element `(p, j)` of a packed B panel: at
/// `j / NR * tile + p * row + j % NR`.
#[derive(Clone, Copy)]
struct BLayout {
    /// Distance between the NR-column tiles.
    tile: usize,
    /// Distance between consecutive `p` within a tile.
    row: usize,
}

impl BLayout {
    /// Offset of row `p` of the tile starting at column `jt` (a multiple of NR).
    #[inline(always)]
    fn at(self, jt: usize, p: usize) -> usize {
        jt / NR * self.tile + p * self.row
    }
}

/// An element the pack step reads: `f32` as it is, or [`F16`] widened to
/// the `f32` it denotes. Widening is exact, so a packed panel of halves
/// holds what packing the widened matrix would — with one exception that
/// no stored parameter meets: `vcvtph2ps` quiets the 1,022 signalling-NaN
/// patterns where [`to_f32_table`] keeps their payload, and
/// `F16::from_f32{,_fast}` never produce one (they quiet every NaN).
pub trait GemmElem: Copy + Sync {
    /// The value as `f32` ([`F16`]: its table entry).
    #[doc(hidden)]
    fn widen(self) -> f32;

    /// `dst[i] = src[i]` widened: a row of the non-transposed pack.
    #[doc(hidden)]
    fn widen_row(tier: Tier, src: &[Self], dst: &mut [f32]);

    /// Four consecutive elements as one SSE vector.
    ///
    /// # Safety
    /// Requires AVX2, FMA and F16C; `p` must be readable for four elements.
    // SAFETY: upheld by the one caller, `transpose_block_avx2`, which runs
    // behind the tier check and stays inside its `TB × TB` source block.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    unsafe fn load4(p: *const Self) -> std::arch::x86_64::__m128;

    /// Eight consecutive elements as one AVX vector.
    ///
    /// # Safety
    /// Requires AVX2, FMA and F16C; `p` must be readable for eight elements.
    // SAFETY: upheld by the one caller, `tile_avx2`, which runs behind the
    // tier check and stays inside the `w` columns its caller vouches for.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256;

    /// The first `lanes <= 8` elements at `p` in the low lanes of one AVX
    /// vector, zeros above; `mask` is `TAIL_MASK`'s for `lanes`.
    ///
    /// # Safety
    /// Requires AVX2, FMA and F16C; `p` must be readable for `lanes`
    /// elements (and need not be a valid pointer when `lanes == 0`).
    // SAFETY: upheld by the one caller, `tile_avx2`, as for `load8`.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8_head(
        p: *const Self,
        mask: std::arch::x86_64::__m256i,
        lanes: usize,
    ) -> std::arch::x86_64::__m256;
}

impl GemmElem for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    #[inline(always)]
    fn widen_row(_tier: Tier, src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load4(p: *const f32) -> std::arch::x86_64::__m128 {
        // SAFETY: the caller vouches for four readable floats at `p`.
        std::arch::x86_64::_mm_loadu_ps(p)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load8(p: *const f32) -> std::arch::x86_64::__m256 {
        // SAFETY: the caller vouches for eight readable floats at `p`.
        std::arch::x86_64::_mm256_loadu_ps(p)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load8_head(
        p: *const f32,
        mask: std::arch::x86_64::__m256i,
        _lanes: usize,
    ) -> std::arch::x86_64::__m256 {
        // SAFETY: `mask` selects the `lanes` floats the caller vouches
        // for; a masked-out lane touches no memory.
        std::arch::x86_64::_mm256_maskload_ps(p, mask)
    }
}

impl GemmElem for F16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self.to_f32_lut()
    }

    fn widen_row(tier: Tier, src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        #[cfg(target_arch = "x86_64")]
        let done = if tier == Tier::Avx2 && simd::detected_avx2() {
            // SAFETY: the tier check covers F16C; the lengths are equal.
            unsafe { widen_row_f16c(src, dst) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = {
            let _ = tier;
            0
        };
        let table = to_f32_table();
        for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = table[s.0 as usize];
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load4(p: *const F16) -> std::arch::x86_64::__m128 {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for four readable halves — the eight
        // bytes this loads — at `p`.
        _mm_cvtph_ps(_mm_loadl_epi64(p as *const __m128i))
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load8(p: *const F16) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for eight readable halves — the
        // sixteen bytes this loads — at `p`.
        _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load8_head(
        p: *const F16,
        _mask: std::arch::x86_64::__m256i,
        lanes: usize,
    ) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        debug_assert!(lanes <= 8);
        // No masked 16-bit load exists: the halves go through the stack.
        let mut head = [F16::ZERO; 8];
        if lanes > 0 {
            // SAFETY: the caller vouches for `lanes <= 8` readable halves
            // at `p`; `head` holds eight.
            std::ptr::copy_nonoverlapping(p, head.as_mut_ptr(), lanes);
        }
        // SAFETY: `head` is sixteen readable bytes.
        _mm256_cvtph_ps(_mm_loadu_si128(head.as_ptr() as *const __m128i))
    }
}

/// Widens the leading whole groups of eight halves of `src` into `dst`
/// with `vcvtph2ps` and returns how many elements that was; the caller
/// finishes the tail.
///
/// # Safety
/// Requires AVX2, FMA and F16C, and `dst.len() >= src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn widen_row_f16c(src: &[F16], dst: &mut [f32]) -> usize {
    use std::arch::x86_64::*;
    let whole = src.len() - src.len() % 8;
    for i in (0..whole).step_by(8) {
        // SAFETY: `i + 8 <= whole <= src.len() <= dst.len()`.
        let halves = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_cvtph_ps(halves));
    }
    whole
}

/// Packs the `kb × nb` panel of op(B) at `(kk, jj)` and returns its layout.
///
/// Rows of a non-transposed B are copied as they are (row-major
/// `kb × nb`): one sequential run each. A transposed B is packed
/// tile-major — columns `t * NR ..+ NR` of the panel form the row-major
/// `kb × NR` block at `t * kb * NR` — because that is the order an
/// in-register transpose of NR rows of B produces, and a microkernel
/// sweep over `p` then reads one contiguous run. The last tile keeps the
/// NR stride when `nb` is not a multiple of NR; its surplus columns are
/// never read. Either way a half-precision B is widened as it is moved
/// ([`GemmElem`]): the panel holds `f32` whatever B held.
#[allow(clippy::too_many_arguments)]
fn pack_b<B: GemmElem>(
    tier: Tier,
    transb: bool,
    b: &[B],
    ldb: usize,
    kk: usize,
    jj: usize,
    kb: usize,
    nb: usize,
    packed: &mut [f32],
) -> BLayout {
    if !transb {
        for p in 0..kb {
            let src = &b[(kk + p) * ldb + jj..(kk + p) * ldb + jj + nb];
            B::widen_row(tier, src, &mut packed[p * nb..(p + 1) * nb]);
        }
        BLayout { tile: NR, row: nb }
    } else {
        // op(B)[p, j] = B[j, p]: each tile is the transpose of NR rows of B.
        for (t, tile) in packed.chunks_mut(kb * NR).take(nb.div_ceil(NR)).enumerate() {
            let w = NR.min(nb - t * NR);
            pack_transposed(tier, b, ldb, jj + t * NR, kk, w, kb, 1.0, tile, NR);
        }
        BLayout { tile: kb * NR, row: NR }
    }
}

#[allow(clippy::too_many_arguments)]
fn pack_a(
    tier: Tier,
    transa: bool,
    a: &[f32],
    lda: usize,
    ii: usize,
    kk: usize,
    mb: usize,
    kb: usize,
    alpha: f32,
    packed: &mut [f32],
) {
    if !transa {
        for i in 0..mb {
            let src = &a[(ii + i) * lda + kk..(ii + i) * lda + kk + kb];
            let dst = &mut packed[i * kb..(i + 1) * kb];
            if alpha == 1.0 {
                dst.copy_from_slice(src);
            } else {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = alpha * s;
                }
            }
        }
    } else {
        // op(A)[i, p] = A[p, i]
        pack_transposed(tier, a, lda, kk, ii, kb, mb, alpha, packed, kb);
    }
}

/// Side of the square blocks [`pack_transposed`] moves: one AVX2 vector.
const TB: usize = 8;

/// Packs the transpose of a `rows × cols` block of `src` (top-left element
/// `(r0, c0)`, leading dimension `ld`), widened and scaled by `alpha`,
/// into `dst` with leading dimension `ldd`:
/// `dst[c * ldd + r] = alpha * src[(r0 + r) * ld + c0 + c]`.
///
/// Both sides stream: the block is walked in strips of `TB` source rows,
/// so `TB` sequential reads feed `TB`-float contiguous writes, instead of
/// one strided load per element. The AVX2 tier moves full `TB × TB`
/// blocks through an in-register transpose; the values written are the
/// same on both tiers.
#[allow(clippy::too_many_arguments)]
fn pack_transposed<E: GemmElem>(
    tier: Tier,
    src: &[E],
    ld: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
    dst: &mut [f32],
    ldd: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    // The bounds every access below stays inside, vector or scalar.
    assert!(src.len() >= (r0 + rows - 1) * ld + c0 + cols, "transposed source too small");
    assert!(ldd >= rows, "transposed pack rows overlap");
    assert!(dst.len() >= (cols - 1) * ldd + rows, "transposed pack buffer too small");
    #[cfg(target_arch = "x86_64")]
    let vec_cols = if tier == Tier::Avx2 && simd::detected_avx2() { cols - cols % TB } else { 0 };
    #[cfg(not(target_arch = "x86_64"))]
    let vec_cols = {
        let _ = tier;
        0
    };
    for rb in (0..rows).step_by(TB) {
        let rn = TB.min(rows - rb);
        let mut c = 0;
        #[cfg(target_arch = "x86_64")]
        if rn == TB {
            while c < vec_cols {
                // SAFETY: the tier's features were detected
                // (`vec_cols > 0`); source rows `r0 + rb ..+ TB` hold
                // columns `c0 + c ..+ TB` and `dst` rows `c ..+ TB` hold
                // columns `rb ..+ TB` by the asserts above.
                unsafe {
                    transpose_block_avx2(
                        src.as_ptr().add((r0 + rb) * ld + c0 + c),
                        ld,
                        dst.as_mut_ptr().add(c * ldd + rb),
                        ldd,
                        alpha,
                    );
                }
                c += TB;
            }
        }
        for c in c..cols {
            for r in rb..rb + rn {
                dst[c * ldd + r] = alpha * src[(r0 + r) * ld + c0 + c].widen();
            }
        }
    }
}

/// `dst[c * ldd + r] = alpha * src[r * ld + c]` for `r, c < TB`: the
/// block's rows — widened by the load ([`GemmElem::load4`]) — through
/// [`transpose8x8`], each column scaled and stored as an output row.
///
/// # Safety
/// Requires AVX2, FMA and F16C. `src + r * ld` must be readable for `TB`
/// elements and `dst + r * ldd` writable for `TB` floats, for every
/// `r < TB`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn transpose_block_avx2<E: GemmElem>(
    src: *const E,
    ld: usize,
    dst: *mut f32,
    ldd: usize,
    alpha: f32,
) {
    use std::arch::x86_64::*;
    let scale = _mm256_set1_ps(alpha);
    // SAFETY: for the loads and stores — `r < TB` and `4 * half + 4 <= TB`
    // keep every four-element load inside the caller's `TB` readable
    // elements per source row, and the eight-float store of column `c`
    // inside row `c < TB` of `dst`.
    let cols = transpose8x8(|r, half| E::load4(src.add(r * ld + 4 * half)));
    for (c, col) in cols.into_iter().enumerate() {
        _mm256_storeu_ps(dst.add(c * ldd), _mm256_mul_ps(scale, col));
    }
}

/// The eight columns of an 8×8 block, one vector each: `row(r, half)` is
/// columns `4 · half ..+ 4` of row `r`. Rows `r` and `r + 4` go in the two
/// 128-bit halves of one vector, once for each half of the columns, so the
/// 4×4 transposes within the halves (unpack, then shuffle) already leave
/// whole columns — sixteen shuffles a block, no cross-lane permute.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
fn transpose8x8(row: impl Fn(usize, usize) -> std::arch::x86_64::__m128) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let mut cols = [_mm256_setzero_ps(); 8];
    for half in 0..2 {
        let pair = |r: usize| _mm256_insertf128_ps(_mm256_castps128_ps256(row(r, half)), row(r + 4, half), 1);
        let (r0, r1, r2, r3) = (pair(0), pair(1), pair(2), pair(3));
        let (lo01, hi01) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (lo23, hi23) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        cols[4 * half] = _mm256_shuffle_ps(lo01, lo23, 0x44);
        cols[4 * half + 1] = _mm256_shuffle_ps(lo01, lo23, 0xEE);
        cols[4 * half + 2] = _mm256_shuffle_ps(hi01, hi23, 0x44);
        cols[4 * half + 3] = _mm256_shuffle_ps(hi01, hi23, 0xEE);
    }
    cols
}

// The argument list mirrors the BLAS sgemm signature one-for-one;
// bundling them into a struct would just rename the problem.
#[allow(clippy::too_many_arguments)]
fn check_dims(
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alen: usize,
    lda: usize,
    blen: usize,
    ldb: usize,
    clen: usize,
    ldc: usize,
) {
    let (a_rows, a_cols) = if transa { (k, m) } else { (m, k) };
    let (b_rows, b_cols) = if transb { (n, k) } else { (k, n) };
    assert!(lda >= a_cols.max(1), "lda {lda} < a_cols {a_cols}");
    assert!(ldb >= b_cols.max(1), "ldb {ldb} < b_cols {b_cols}");
    assert!(ldc >= n.max(1), "ldc {ldc} < n {n}");
    if a_rows > 0 && a_cols > 0 {
        assert!(alen >= (a_rows - 1) * lda + a_cols, "A slice too small");
    }
    if b_rows > 0 && b_cols > 0 {
        assert!(blen >= (b_rows - 1) * ldb + b_cols, "B slice too small");
    }
    if m > 0 && n > 0 {
        assert!(clen >= (m - 1) * ldc + n, "C slice too small");
    }
}

/// Convenience wrapper: `C = A · B` with contiguous row-major operands.
pub fn matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm(false, false, m, n, k, 1.0, a, k, b, n, 0.0, c, n);
}

/// `C = A · Bᵀ`, the shape used by the backward pass `dX = dY · Wᵀ` when
/// weights are stored as `out × in`.
pub fn matmul_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm(false, true, m, n, k, 1.0, a, k, b, k, 0.0, c, n);
}

/// `C = Aᵀ · B`, the shape used by the weight gradient `dW = dYᵀ · X`.
pub fn matmul_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm(true, false, m, n, k, 1.0, a, m, b, n, 0.0, c, n);
}

/// Reference naive GEMM used to validate the blocked kernel in tests and
/// property tests. `C = alpha * op(A) * op(B) + beta * C`.
#[allow(clippy::too_many_arguments)]
// TEST-API: the GEMM proptests hold every path to this naive loop.
pub fn sgemm_reference(
    transa: bool,
    transb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = if transa { a[p * lda + i] } else { a[i * lda + p] };
                let bv = if transb { b[j * ldb + p] } else { b[p * ldb + j] };
                acc += av * bv;
            }
            c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_all_transpose_combos() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (17, 9, 33), (64, 64, 64), (65, 130, 257)] {
            for &ta in &[false, true] {
                for &tb in &[false, true] {
                    let (ar, ac) = if ta { (k, m) } else { (m, k) };
                    let (br, bc) = if tb { (n, k) } else { (k, n) };
                    let a = random_matrix(&mut rng, ar * ac);
                    let b = random_matrix(&mut rng, br * bc);
                    let mut c1 = random_matrix(&mut rng, m * n);
                    let mut c2 = c1.clone();
                    sgemm(ta, tb, m, n, k, 1.3, &a, ac, &b, bc, 0.7, &mut c1, n);
                    sgemm_reference(ta, tb, m, n, k, 1.3, &a, ac, &b, bc, 0.7, &mut c2, n);
                    assert_close(&c1, &c2, 1e-4);
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // beta == 0 must overwrite even NaN-poisoned C.
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![f32::NAN; 4];
        sgemm(false, false, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        assert_eq!(c, vec![2.0; 4]);
    }

    #[test]
    fn alpha_zero_is_pure_scaling() {
        let a = vec![f32::NAN; 4];
        let b = vec![f32::NAN; 4];
        let mut c = vec![2.0f32; 4];
        sgemm(false, false, 2, 2, 2, 0.0, &a, 2, &b, 2, 0.5, &mut c, 2);
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn identity_multiplication() {
        let n = 33;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_matrix(&mut rng, n * n);
        let mut c = vec![0.0f32; n * n];
        matmul(n, n, n, &eye, &x, &mut c);
        assert_close(&c, &x, 1e-6);
    }

    #[test]
    fn strided_leading_dimensions() {
        // Operate on a 2x2 sub-block of a 4-wide buffer.
        let a = vec![
            1.0, 2.0, 9.0, 9.0, //
            3.0, 4.0, 9.0, 9.0,
        ];
        let b = vec![
            5.0, 6.0, 9.0, 9.0, //
            7.0, 8.0, 9.0, 9.0,
        ];
        let mut c = vec![0.0f32; 8];
        sgemm(false, false, 2, 2, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
        assert_eq!(&c[0..2], &[19.0, 22.0]);
        assert_eq!(&c[4..6], &[43.0, 50.0]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![1.0f32; 4];
        sgemm(false, false, 0, 2, 3, 1.0, &[], 3, &[0.0; 6], 2, 0.0, &mut c, 2);
        assert_eq!(c, vec![1.0; 4]); // m == 0: untouched
        let mut c2 = vec![1.0f32; 4];
        // k == 0 still applies beta.
        sgemm(false, false, 2, 2, 0, 1.0, &[], 1, &[0.0f32; 0], 2, 0.5, &mut c2, 2);
        assert_eq!(c2, vec![0.5; 4]);
    }

    #[test]
    fn wrapper_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let (m, n, k) = (6, 10, 4);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut c = vec![0.0f32; m * n];
        matmul(m, n, k, &a, &b, &mut c);
        let mut cref = vec![0.0f32; m * n];
        sgemm_reference(false, false, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut cref, n);
        assert_close(&c, &cref, 1e-5);

        // A(m x k) * B^T where B is (n x k)
        let bt = random_matrix(&mut rng, n * k);
        let mut c2 = vec![0.0f32; m * n];
        matmul_nt(m, n, k, &a, &bt, &mut c2);
        let mut c2ref = vec![0.0f32; m * n];
        sgemm_reference(false, true, m, n, k, 1.0, &a, k, &bt, k, 0.0, &mut c2ref, n);
        assert_close(&c2, &c2ref, 1e-5);

        // A^T(m x k from k x m) * B
        let at = random_matrix(&mut rng, k * m);
        let mut c3 = vec![0.0f32; m * n];
        matmul_tn(m, n, k, &at, &b, &mut c3);
        let mut c3ref = vec![0.0f32; m * n];
        sgemm_reference(true, false, m, n, k, 1.0, &at, m, &b, n, 0.0, &mut c3ref, n);
        assert_close(&c3, &c3ref, 1e-5);
    }

    #[test]
    fn the_pack_widens_every_half_like_the_table_but_signalling_nans() {
        // All 65,536 patterns as a 256 × 256 matrix, through both layouts
        // of `pack_b` on both tiers. `vcvtph2ps` quiets a signalling NaN
        // (quiet bit 0x0200 clear, 1,022 patterns) where the table keeps
        // its payload — which the scalar transposed pack's `alpha * x` may
        // then quiet or not, as the compiler folds a multiplication by
        // one. No stored half is one: see
        // `narrowing_never_yields_a_signalling_nan` in `tests/f16_operand.rs`.
        let side = 256usize;
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let table = to_f32_table();
        let signalling = |h: F16| h.is_nan() && h.0 & 0x0200 == 0;
        assert_eq!(halves.iter().filter(|&&h| signalling(h)).count(), 1022);
        for tier in [Tier::Scalar, Tier::Avx2] {
            let vector = tier == Tier::Avx2 && simd::detected_avx2();
            for transb in [false, true] {
                let mut packed = vec![0.0f32; side * side];
                let bl = pack_b(tier, transb, &halves, side, 0, 0, side, side, &mut packed);
                for p in 0..side {
                    for j in 0..side {
                        // op(B)[p, j]
                        let h = if transb { halves[j * side + p] } else { halves[p * side + j] };
                        let got = packed[bl.at(j - j % NR, p) + j % NR].to_bits();
                        let want = table[h.0 as usize].to_bits();
                        if signalling(h) {
                            let quieted = got == want | 0x0040_0000;
                            assert!(quieted || (got == want && !vector), "{:#06x}: {got:#x}", h.0);
                        } else {
                            assert_eq!(got, want, "{:#06x}, {tier:?}, transb {transb}", h.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiers_are_bitwise_identical() {
        // Shapes chosen to exercise full tiles, column tails, row
        // remainders and strided C simultaneously.
        let mut rng = StdRng::seed_from_u64(23);
        for &(m, n, k) in &[(1, 1, 3), (4, 16, 8), (7, 19, 5), (65, 131, 40), (64, 64, 64)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let c_init = random_matrix(&mut rng, m * n);
            let mut c_s = c_init.clone();
            let mut c_v = c_init.clone();
            sgemm_with_tier(
                Tier::Scalar, false, false, m, n, k, 1.25, &a, k, &b, n, 0.5, &mut c_s, n,
            );
            sgemm_with_tier(
                Tier::Avx2, false, false, m, n, k, 1.25, &a, k, &b, n, 0.5, &mut c_v, n,
            );
            for (i, (x, y)) in c_s.iter().zip(&c_v).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k} diverges at {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "C slice too small")]
    fn rejects_undersized_output() {
        let a = vec![0.0f32; 4];
        let b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 3];
        sgemm(false, false, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
    }
}
