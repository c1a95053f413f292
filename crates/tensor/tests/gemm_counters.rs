//! `tensor.sgemm_flops` counts the multiply-adds a product ran, not the
//! ones its shape names: `2·m·n·k` for the packed, the pack-free and the
//! row-block products alike, `2·nnz·k` for the sampled one and `2·nnz·m`
//! for the kept one — so the GEMM share of a step and the GFLOP/s rows of
//! the ledger credit a thin-batch `dW`, and a `Linear`'s products from a
//! lent index, at p = 0.9 with a tenth of the dense work. One test, alone
//! in its process: the counter and the enable flag are global.

use tensor::f16::F16;
use tensor::gemm::{matmul, matmul_tn_kept_on_path, matmul_tn_row_blocks, sgemm_kept_on_path, Path};
use tensor::simd;

#[test]
fn the_flop_counter_counts_what_ran() {
    let (m, n, k) = (12usize, 10usize, 4usize);
    let a = vec![0.5f32; k * m];
    let b = vec![0.25f32; k * n];
    let idx: Vec<u32> = (0..(m * n) as u32).step_by(7).collect();
    let mut out = vec![F16::ZERO; idx.len()];
    let mut c = vec![0.0f32; k * n];

    let calls = telemetry::global().counter("tensor.sgemm_calls");
    let flops = telemetry::global().counter("tensor.sgemm_flops");
    matmul_tn_kept_on_path(Path::Sampled, simd::active(), m, n, k, &a, &b, &idx, &mut out);
    assert_eq!((calls.get(), flops.get()), (0, 0), "nothing is counted with telemetry off");

    telemetry::set_enabled(true);
    matmul_tn_kept_on_path(Path::Sampled, simd::active(), m, n, k, &a, &b, &idx, &mut out);
    assert_eq!((calls.get(), flops.get()), (1, (2 * idx.len() * k) as u64), "sampled: 2·nnz·k");
    matmul_tn_row_blocks(m, n, k, &a, &b, |_, _, _| {});
    assert_eq!((calls.get(), flops.get()), (2, (2 * (idx.len() + m * n) * k) as u64), "blocks: 2·m·n·k");
    // Four rows of A: the pack-free path.
    matmul(k, n, m, &a, &vec![1.0f32; m * n], &mut c);
    assert_eq!(flops.get(), (2 * (idx.len() + 2 * m * n) * k) as u64, "pack-free: 2·m·n·k");
    // Kept: `k` rows of A against the `m × n` weight's kept positions.
    let before = flops.get();
    let w = vec![F16::ONE; m * n];
    let mut y = vec![0.0f32; k * m];
    sgemm_kept_on_path(Path::Kept, simd::active(), true, k, m, n, &b, &w, &idx, &mut y);
    assert_eq!(flops.get() - before, (2 * idx.len() * k) as u64, "kept: 2·nnz·m");
    // Declined, it is `sgemm`, and counted as one.
    sgemm_kept_on_path(Path::Packed, simd::active(), true, k, m, n, &b, &w, &idx, &mut y);
    assert_eq!(flops.get() - before, (2 * (idx.len() + m * n) * k) as u64, "declined: 2·m·n·k");
    // A weight row that keeps nothing gives its output `+0.0` by
    // structure: the kept product keeps it, with no `sgemm` behind it.
    let kept: Vec<u32> = idx.iter().copied().filter(|&e| e as usize / n != 3).collect();
    let mut w = vec![F16::ZERO; m * n];
    kept.iter().for_each(|&e| w[e as usize] = F16::ONE);
    let (calls0, flops0) = (calls.get(), flops.get());
    sgemm_kept_on_path(Path::Kept, simd::active(), true, k, m, n, &b, &w, &kept, &mut y);
    assert!(y.chunks(m).all(|row| row[3].to_bits() == 0), "the empty row's outputs are +0.0");
    assert_eq!((calls.get() - calls0, flops.get() - flops0), (1, (2 * kept.len() * k) as u64), "no fallback");
    // So does a weight column that keeps nothing, under `dy·W`: W stored
    // `m × n`, output 3 empty.
    let kept: Vec<u32> = idx.iter().copied().filter(|&e| e as usize % n != 3).collect();
    let mut w = vec![F16::ZERO; m * n];
    kept.iter().for_each(|&e| w[e as usize] = F16::ONE);
    let (dy, mut dx) = (vec![0.5f32; k * m], vec![f32::NAN; k * n]);
    let (calls0, flops0) = (calls.get(), flops.get());
    sgemm_kept_on_path(Path::Kept, simd::active(), false, k, n, m, &dy, &w, &kept, &mut dx);
    assert!(dx.chunks(n).all(|row| row[3].to_bits() == 0), "the empty column's outputs are +0.0");
    assert_eq!((calls.get() - calls0, flops.get() - flops0), (1, (2 * kept.len() * k) as u64), "no fallback");
    telemetry::set_enabled(false);
}
