//! 2:4 structured sparse format and spMM.
//!
//! Unlike CSR, a 2:4 matrix has a *fixed* local density: every group of
//! 4 consecutive columns holds exactly 2 nonzeros. That regularity is
//! what sparse tensor cores exploit, and what this CPU kernel exploits
//! the same way: the inner loop is branch-free (no `row_ptr` indirection,
//! no variable trip counts), values are stored contiguously at exactly
//! half the dense footprint, and the per-nonzero metadata is a single
//! 2-bit in-group offset (stored as `u8`). This is the structured
//! counterpart to the paper's Fig. 1 finding that *unstructured* sparse
//! kernels lose to dense GEMM below ~95% sparsity — at a fixed 50%, the
//! structured layout is the only sparse format with a chance of winning.
//!
//! Masks come from `prune::nm_prune_24` (magnitude top-2 per group); the
//! bridge is a plain `&[bool]` keep-mask so the two crates stay
//! decoupled.

use tensor::simd::{self, Tier};
use tensor::pool::par_rows_mut;

/// A row-major `rows × cols` matrix in 2:4 structured form: per group of
/// 4 consecutive columns, exactly 2 `(value, in-group offset)` pairs in
/// ascending offset order. `cols` must be a multiple of 4.
#[derive(Debug, Clone)]
pub struct Nm24 {
    rows: usize,
    cols: usize,
    /// `rows * cols / 2` kept values, group-major.
    values: Vec<f32>,
    /// In-group column offsets (each `< 4`), parallel to `values`.
    offsets: Vec<u8>,
    /// Kernel-ready decode, built once at construction: per row, the
    /// kept *nonzero* values paired with their absolute column index
    /// (the matching B row). Dropping stored zeros here preserves pair
    /// order, so per-output-element fma chains are unchanged, and a
    /// stored zero contributes exactly what skipping it would in every
    /// non-NaN case — on BOTH spMM tiers, identically. Decoding in the
    /// constructor keeps it off the spMM hot path (compress once,
    /// multiply many times — the inference pattern this format is for).
    pairs: Vec<(f32, u32)>,
    /// Per-row `[start, end)` ranges into `pairs`.
    spans: Vec<(usize, usize)>,
}

impl Nm24 {
    /// Compresses a dense matrix, keeping the 2 largest-magnitude
    /// entries of every group of 4 columns (ties keep the lower index,
    /// matching `prune::nm_prune_24`).
    ///
    /// # Panics
    /// Panics if `cols % 4 != 0` or the slice doesn't match the shape.
    pub fn from_dense(dense: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(cols % 4, 0, "2:4 format requires cols % 4 == 0");
        assert_eq!(dense.len(), rows * cols, "dense slice/shape mismatch");
        let mut values = Vec::with_capacity(rows * cols / 2);
        let mut offsets = Vec::with_capacity(rows * cols / 2);
        for r in 0..rows {
            let row = &dense[r * cols..(r + 1) * cols];
            for g in row.chunks_exact(4) {
                let mut order = [0usize, 1, 2, 3];
                order.sort_by(|&a, &b| {
                    g[b].abs()
                        .partial_cmp(&g[a].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let (mut o0, mut o1) = (order[0], order[1]);
                if o0 > o1 {
                    std::mem::swap(&mut o0, &mut o1);
                }
                values.push(g[o0]);
                offsets.push(o0 as u8);
                values.push(g[o1]);
                offsets.push(o1 as u8);
            }
        }
        Nm24::with_decode(rows, cols, values, offsets)
    }

    /// Compresses a dense matrix under an explicit keep-mask (e.g. from
    /// `prune::nm_prune_24(..).to_bools()`), validating that the mask is
    /// a true 2-of-4 pattern.
    ///
    /// # Panics
    /// Panics if shapes mismatch or any group of 4 doesn't keep
    /// exactly 2 positions.
    pub fn from_dense_masked(dense: &[f32], rows: usize, cols: usize, keep: &[bool]) -> Self {
        assert_eq!(cols % 4, 0, "2:4 format requires cols % 4 == 0");
        assert_eq!(dense.len(), rows * cols, "dense slice/shape mismatch");
        assert_eq!(keep.len(), rows * cols, "mask slice/shape mismatch");
        let mut values = Vec::with_capacity(rows * cols / 2);
        let mut offsets = Vec::with_capacity(rows * cols / 2);
        for (gi, (g, k)) in dense.chunks_exact(4).zip(keep.chunks_exact(4)).enumerate() {
            let mut kept = 0;
            for off in 0..4 {
                if k[off] {
                    values.push(g[off]);
                    offsets.push(off as u8);
                    kept += 1;
                }
            }
            assert_eq!(kept, 2, "group {gi} keeps {kept} of 4, not 2 — not a 2:4 mask");
        }
        Nm24::with_decode(rows, cols, values, offsets)
    }

    /// Finishes construction: builds the kernel-ready `(value, column)`
    /// decode from the packed `(values, offsets)` representation.
    fn with_decode(rows: usize, cols: usize, values: Vec<f32>, offsets: Vec<u8>) -> Self {
        assert!(cols <= u32::MAX as usize, "more than 2^32 columns is unsupported");
        let pairs_per_row = cols / 2;
        let mut pairs = Vec::with_capacity(values.len());
        let mut spans = Vec::with_capacity(rows);
        for r in 0..rows {
            let p0 = r * pairs_per_row;
            let start = pairs.len();
            for i in 0..pairs_per_row {
                let v = values[p0 + i];
                if v != 0.0 {
                    let col = (i / 2) * 4 + offsets[p0 + i] as usize;
                    pairs.push((v, col as u32));
                }
            }
            spans.push((start, pairs.len()));
        }
        Nm24 { rows, cols, values, offsets, pairs, spans }
    }

    /// Reconstructs the dense row-major matrix (zeros at pruned slots).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.rows * self.cols];
        let pairs_per_row = self.cols / 2;
        for r in 0..self.rows {
            for i in 0..pairs_per_row {
                let p = r * pairs_per_row + i;
                let col = (i / 2) * 4 + self.offsets[p] as usize;
                dense[r * self.cols + col] = self.values[p];
            }
        }
        dense
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (kept) entries: exactly `rows * cols / 2`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// Structured spMM: `C = W · B`, where `W` is `rows × cols` in 2:4 form,
/// `B` is dense row-major `cols × n`, and `C` is dense row-major
/// `rows × n` (overwritten). Same convention as [`crate::spmm`].
pub fn spmm_nm24(w: &Nm24, b: &[f32], n: usize, c: &mut [f32]) {
    spmm_nm24_with_tier(simd::active(), w, b, n, c);
}

/// Kernel column-chunk width: output columns are processed 32 at a
/// time against a packed 32-column slice of all of B.
const CW: usize = 32;

/// [`spmm_nm24`] pinned to an explicit SIMD tier. The tiers are bitwise
/// identical: both accumulate each output element over the row's kept
/// pairs in storage order with `mul_add`, and the AVX2 sub-32-column
/// tail runs the identical scalar helper.
pub fn spmm_nm24_with_tier(tier: Tier, w: &Nm24, b: &[f32], n: usize, c: &mut [f32]) {
    assert_eq!(b.len(), w.cols * n, "B must be cols x n");
    assert_eq!(c.len(), w.rows * n, "C must be rows x n");
    if w.rows == 0 || n == 0 {
        return;
    }
    // Pack B once into chunk-major blocks: block `ci` holds columns
    // ci*CW.. of EVERY B row, rows contiguous. The kernel gathers one
    // B-row slice per kept weight, and B rows sit `n*4` bytes apart —
    // for power-of-two n that stride maps every row onto a handful of
    // L1 sets, so the slices alias and thrash no matter the loop order
    // (measured: ~2x on 256x256x256). In the packed block the slices
    // are contiguous, hence spread over all sets, and a 32-column
    // slice of all of B (cols * 128 B) really is L1-resident while
    // every output row consumes it. Same trick as dense GEMM's
    // B-packing; the copy is a single streaming pass over B. The pack
    // buffer is thread-local (gemm's `PACK_SCRATCH` idiom) so a warm
    // serving loop repacks without touching the allocator; the pool
    // never re-enters this spMM on the same thread, so the borrow
    // cannot conflict.
    BPACK_SCRATCH.with(|cell| {
        let mut bpack = cell.borrow_mut();
        bpack.clear();
        bpack.reserve(w.cols * n);
        let mut j = 0;
        while j < n {
            let j1 = (j + CW).min(n);
            for col in 0..w.cols {
                bpack.extend_from_slice(&b[col * n + j..col * n + j1]);
            }
            j = j1;
        }
        spmm_nm24_packed(tier, w, &bpack, n, c);
    });
}

thread_local! {
    /// Reusable B-pack buffer for [`spmm_nm24_with_tier`].
    static BPACK_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The compute half of [`spmm_nm24_with_tier`], over an already-packed
/// chunk-major B.
fn spmm_nm24_packed(tier: Tier, w: &Nm24, bpack: &[f32], n: usize, c: &mut [f32]) {
    par_rows_mut(c, n, 8, |offset, c_rows| {
        let r0 = offset / n;
        let spans = &w.spans[r0..r0 + c_rows.len() / n];
        c_rows.fill(0.0);
        // Chunk-outer, row-inner: rows are walked in pairs so the AVX2
        // kernel has eight independent accumulator chains (four per
        // row) — enough to cover FMA latency at this chunk width.
        let mut j = 0;
        while j < n {
            let j1 = (j + CW).min(n);
            let cw = j1 - j;
            let block = &bpack[j * w.cols..j * w.cols + cw * w.cols];
            for (crows, sp) in c_rows.chunks_mut(2 * n).zip(spans.chunks(2)) {
                if let [sa, sb] = sp {
                    let (ca, cb) = crows.split_at_mut(n);
                    nm_rows2(tier, &w.pairs[sa.0..sa.1], &w.pairs[sb.0..sb.1], block, &mut ca[j..j1], &mut cb[j..j1]);
                } else {
                    let s = sp[0];
                    nm_row(tier, &w.pairs[s.0..s.1], block, &mut crows[j..j1]);
                }
            }
            j = j1;
        }
    });
}

/// One output-row chunk, dispatched by tier. `pairs` holds the row's
/// kept nonzero values with B-row indices, in storage order; `block` is
/// the packed B slice for this chunk (`crow.len()` columns per B row).
fn nm_row(tier: Tier, pairs: &[(f32, u32)], block: &[f32], crow: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2+FMA were just detected. `pairs` comes out of an
        // `Nm24`, whose constructor only decodes columns `< cols` (the
        // fields are private), and `spmm_nm24_packed` cuts `block` as
        // `cols` rows of `crow.len()` columns: every B row the kernel
        // reads unchecked lies inside `block`.
        unsafe { avx2::nm_row_avx2(pairs, block, crow) };
        return;
    }
    let _ = tier;
    nm_row_scalar(pairs, block, crow);
}

/// Two output-row chunks, dispatched by tier. The rows' accumulator
/// chains are independent, so interleaving them changes no per-element
/// rounding — the scalar tier simply runs them back to back.
fn nm_rows2(
    tier: Tier,
    pa: &[(f32, u32)],
    pb: &[(f32, u32)],
    block: &[f32],
    ca: &mut [f32],
    cb: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: as in `nm_row`, for both rows' pairs; `ca` and `cb` are
        // the same columns `j..j1` of two rows of C, so equally long.
        unsafe { avx2::nm_rows2_avx2(pa, pb, block, ca, cb) };
        return;
    }
    let _ = tier;
    nm_row_scalar(pa, block, ca);
    nm_row_scalar(pb, block, cb);
}

/// Scalar kernel for one chunk — also the AVX2 sub-32 tail, so the
/// tiers share tail code by construction. Per output element, the
/// accumulation chain visits the row's pairs in storage order.
fn nm_row_scalar(pairs: &[(f32, u32)], block: &[f32], crow: &mut [f32]) {
    let cw = crow.len();
    for &(v, col) in pairs {
        let brow = &block[col as usize * cw..col as usize * cw + cw];
        for (cj, &bj) in crow.iter_mut().zip(brow) {
            *cj = v.mul_add(bj, *cj);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// One row against a packed chunk: 4 YMM accumulators, one
    /// broadcast + four load+fmadds per kept pair. Per-element fma
    /// chains match the scalar kernel exactly — same pair order, and
    /// `_mm256_fmadd_ps` rounds like `mul_add` per lane; sub-32-column
    /// chunks run the identical scalar helper. Used for the odd
    /// trailing row; even row counts take [`nm_rows2_avx2`], whose
    /// eight chains hide FMA latency.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime, and `block` to hold a row of
    /// `crow.len()` columns for every column index in `pairs`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn nm_row_avx2(pairs: &[(f32, u32)], block: &[f32], crow: &mut [f32]) {
        if crow.len() != 32 {
            super::nm_row_scalar(pairs, block, crow);
            return;
        }
        debug_assert!(pairs.iter().all(|&(_, col)| (col as usize + 1) * 32 <= block.len()));
        // SAFETY: every load is one of the four 8-lane quarters of B row
        // `col`, 32 floats at `col * 32`, which the caller vouches for;
        // the four stores cover `crow`, just checked to be 32 long.
        let bp = block.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for &(v, col) in pairs {
            let src = bp.add(col as usize * 32);
            let vv = _mm256_set1_ps(v);
            acc0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src), acc0);
            acc1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(24)), acc3);
        }
        let cp = crow.as_mut_ptr();
        _mm256_storeu_ps(cp, acc0);
        _mm256_storeu_ps(cp.add(8), acc1);
        _mm256_storeu_ps(cp.add(16), acc2);
        _mm256_storeu_ps(cp.add(24), acc3);
    }

    /// Two rows interleaved against a packed 32-column chunk: 8 YMM
    /// accumulators (4 per row) — enough independent chains to
    /// cover FMA latency, which a single row at this width is not. The
    /// rows' chains never mix, and each row consumes its own pairs in
    /// storage order, so per-element results are bit-identical to the
    /// scalar kernel run row by row. Pair lists can differ in length
    /// (stored zeros are filtered upstream); the leftover tail of the
    /// longer list keeps accumulating into that row's registers.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime, `cb` as long as `ca`, and `block` to
    /// hold a row of that many columns for every column index in `pa`
    /// and `pb`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn nm_rows2_avx2(
        pa: &[(f32, u32)],
        pb: &[(f32, u32)],
        block: &[f32],
        ca: &mut [f32],
        cb: &mut [f32],
    ) {
        if ca.len() != 32 {
            super::nm_row_scalar(pa, block, ca);
            super::nm_row_scalar(pb, block, cb);
            return;
        }
        debug_assert_eq!(cb.len(), 32);
        debug_assert!(pa.iter().chain(pb).all(|&(_, col)| (col as usize + 1) * 32 <= block.len()));
        // SAFETY: `i < m <= pa.len(), pb.len()` for the unchecked pair
        // reads; every load is a quarter of a 32-float B row the caller
        // vouches for; the stores cover `ca` (checked 32 long) and `cb`
        // (as long, by contract).
        let bp = block.as_ptr();
        let m = pa.len().min(pb.len());
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut b0 = _mm256_setzero_ps();
        let mut b1 = _mm256_setzero_ps();
        let mut b2 = _mm256_setzero_ps();
        let mut b3 = _mm256_setzero_ps();
        for i in 0..m {
            let (va, oa) = *pa.get_unchecked(i);
            let (vb, ob) = *pb.get_unchecked(i);
            let sa = bp.add(oa as usize * 32);
            let sb = bp.add(ob as usize * 32);
            let vva = _mm256_set1_ps(va);
            let vvb = _mm256_set1_ps(vb);
            a0 = _mm256_fmadd_ps(vva, _mm256_loadu_ps(sa), a0);
            b0 = _mm256_fmadd_ps(vvb, _mm256_loadu_ps(sb), b0);
            a1 = _mm256_fmadd_ps(vva, _mm256_loadu_ps(sa.add(8)), a1);
            b1 = _mm256_fmadd_ps(vvb, _mm256_loadu_ps(sb.add(8)), b1);
            a2 = _mm256_fmadd_ps(vva, _mm256_loadu_ps(sa.add(16)), a2);
            b2 = _mm256_fmadd_ps(vvb, _mm256_loadu_ps(sb.add(16)), b2);
            a3 = _mm256_fmadd_ps(vva, _mm256_loadu_ps(sa.add(24)), a3);
            b3 = _mm256_fmadd_ps(vvb, _mm256_loadu_ps(sb.add(24)), b3);
        }
        for &(v, o) in &pa[m..] {
            let src = bp.add(o as usize * 32);
            let vv = _mm256_set1_ps(v);
            a0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src), a0);
            a1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(8)), a1);
            a2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(16)), a2);
            a3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(24)), a3);
        }
        for &(v, o) in &pb[m..] {
            let src = bp.add(o as usize * 32);
            let vv = _mm256_set1_ps(v);
            b0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src), b0);
            b1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(8)), b1);
            b2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(16)), b2);
            b3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src.add(24)), b3);
        }
        let cap = ca.as_mut_ptr();
        _mm256_storeu_ps(cap, a0);
        _mm256_storeu_ps(cap.add(8), a1);
        _mm256_storeu_ps(cap.add(16), a2);
        _mm256_storeu_ps(cap.add(24), a3);
        let cbp = cb.as_mut_ptr();
        _mm256_storeu_ps(cbp, b0);
        _mm256_storeu_ps(cbp.add(8), b1);
        _mm256_storeu_ps(cbp.add(16), b2);
        _mm256_storeu_ps(cbp.add(24), b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::gemm::sgemm;

    fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as u32 as f32) / (u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_top2_of_4() {
        let dense = [0.1f32, -0.9, 0.5, 0.2, 3.0, -4.0, 0.0, 1.0];
        let nm = Nm24::from_dense(&dense, 2, 4);
        assert_eq!(nm.nnz(), 4);
        let back = nm.to_dense();
        assert_eq!(back, [0.0, -0.9, 0.5, 0.0, 3.0, -4.0, 0.0, 0.0]);
    }

    #[test]
    fn masked_constructor_matches_magnitude_default() {
        let dense = lcg_vec(6 * 16, 7);
        let keep: Vec<bool> = {
            let nm = Nm24::from_dense(&dense, 6, 16);
            nm.to_dense().iter().zip(&dense).map(|(&v, &d)| v != 0.0 || d == 0.0).collect()
        };
        let a = Nm24::from_dense(&dense, 6, 16);
        let b = Nm24::from_dense_masked(&dense, 6, 16, &keep);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    #[should_panic(expected = "not a 2:4 mask")]
    fn masked_constructor_rejects_unstructured() {
        let dense = [1.0f32; 8];
        let keep = [true, true, true, false, false, false, true, true];
        let _ = Nm24::from_dense_masked(&dense, 2, 4, &keep);
    }

    #[test]
    fn spmm_matches_dense_sgemm_on_masked_weights() {
        for &(rows, cols, n) in &[(4usize, 8usize, 5usize), (16, 32, 33), (7, 64, 40)] {
            let dense = lcg_vec(rows * cols, 21);
            let nm = Nm24::from_dense(&dense, rows, cols);
            let masked = nm.to_dense();
            let b = lcg_vec(cols * n, 22);
            let mut c = vec![0.0f32; rows * n];
            spmm_nm24(&nm, &b, n, &mut c);
            let mut c_ref = vec![0.0f32; rows * n];
            sgemm(false, false, rows, n, cols, 1.0, &masked, cols, &b, n, 0.0, &mut c_ref, n);
            for (i, (&x, &y)) in c.iter().zip(&c_ref).enumerate() {
                assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "{rows}x{cols}x{n} at {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn tiers_are_bitwise_identical() {
        // Unaligned n values straddle the 32-col chunk boundary.
        for &(rows, cols, n) in &[(1usize, 4usize, 1usize), (3, 8, 31), (5, 16, 32), (9, 64, 77), (16, 128, 96)] {
            let dense = lcg_vec(rows * cols, 5);
            let nm = Nm24::from_dense(&dense, rows, cols);
            let b = lcg_vec(cols * n, 6);
            let mut c_s = vec![0.0f32; rows * n];
            let mut c_v = vec![0.0f32; rows * n];
            spmm_nm24_with_tier(Tier::Scalar, &nm, &b, n, &mut c_s);
            spmm_nm24_with_tier(Tier::Avx2, &nm, &b, n, &mut c_v);
            for (i, (&x, &y)) in c_s.iter().zip(&c_v).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{rows}x{cols}x{n} diverges at {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn nan_and_inf_payloads_preserved_identically() {
        let mut dense = lcg_vec(4 * 8, 9);
        dense[1] = f32::NAN;
        dense[9] = f32::INFINITY;
        let nm = Nm24::from_dense(&dense, 4, 8);
        let mut b = lcg_vec(8 * 40, 10);
        b[3] = f32::NEG_INFINITY;
        b[77] = f32::NAN;
        let mut c_s = vec![0.0f32; 4 * 40];
        let mut c_v = vec![0.0f32; 4 * 40];
        spmm_nm24_with_tier(Tier::Scalar, &nm, &b, 40, &mut c_s);
        spmm_nm24_with_tier(Tier::Avx2, &nm, &b, 40, &mut c_v);
        for (&x, &y) in c_s.iter().zip(&c_v) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_and_zero_n() {
        let nm = Nm24::from_dense(&[], 0, 4);
        let mut c = vec![];
        spmm_nm24(&nm, &[0.0; 12], 3, &mut c);
        let nm2 = Nm24::from_dense(&[1.0, 2.0, 3.0, 4.0], 1, 4);
        let mut c2 = vec![5.0f32; 0];
        spmm_nm24(&nm2, &[], 0, &mut c2);
    }
}
