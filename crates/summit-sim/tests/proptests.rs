//! Property-based tests for the machine and kernel cost models: cost
//! functions must behave like costs (nonnegative, monotone in work,
//! subadditive where pipelining applies) for all inputs.

use proptest::prelude::*;
use summit_sim::kernels::{
    cusparse_spmm_time, dense_gemm_efficiency, dense_gemm_time, sputnik_spmm_time,
    transformer_layer_forward_time,
};
use summit_sim::machine::SUMMIT;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GEMM efficiency is a proper fraction and monotone in every dim.
    #[test]
    fn gemm_efficiency_properties(
        m in 1usize..8192,
        n in 1usize..8192,
        k in 1usize..8192,
    ) {
        let e = dense_gemm_efficiency(m, n, k);
        prop_assert!(e > 0.0 && e < 0.55);
        prop_assert!(dense_gemm_efficiency(m * 2, n, k) > e);
        prop_assert!(dense_gemm_efficiency(m, n * 2, k) > e);
        prop_assert!(dense_gemm_efficiency(m, n, k * 2) > e);
    }

    /// Kernel times are positive and monotone in problem size.
    #[test]
    fn kernel_times_monotone(
        m in 1usize..4096,
        n in 1usize..2048,
        k in 1usize..4096,
        sparsity in 0.5f64..0.99,
    ) {
        let d = dense_gemm_time(&SUMMIT, m, n, k);
        prop_assert!(d > 0.0);
        prop_assert!(dense_gemm_time(&SUMMIT, 2 * m, n, k) >= d);
        let s = sputnik_spmm_time(&SUMMIT, m, n, k, sparsity);
        prop_assert!(s > 0.0);
        // Denser (lower sparsity) is never cheaper for the sparse kernel.
        prop_assert!(sputnik_spmm_time(&SUMMIT, m, n, k, sparsity - 0.25) >= s);
        // cuSPARSE is never faster than Sputnik in this model.
        prop_assert!(cusparse_spmm_time(&SUMMIT, m, n, k, sparsity) >= s);
    }

    /// All-reduce cost model: nonnegative, monotone in bytes; the
    /// node-contiguous ring is never slower than the shared-link
    /// grouped version at the same size.
    #[test]
    fn allreduce_model_properties(
        bytes in 1u64..10_000_000_000,
        n in 2usize..2048,
        stride in 1usize..64,
    ) {
        let grouped = SUMMIT.allreduce_time_grouped(bytes, n, stride);
        let contiguous = SUMMIT.allreduce_time_contiguous(bytes, n);
        prop_assert!(grouped > 0.0);
        prop_assert!(contiguous > 0.0);
        prop_assert!(contiguous <= grouped + 1e-12, "{contiguous} vs {grouped}");
        prop_assert!(SUMMIT.allreduce_time_grouped(2 * bytes, n, stride) >= grouped);
        // Larger stride (more groups sharing links) never speeds it up.
        prop_assert!(SUMMIT.allreduce_time_grouped(bytes, n, stride * 2) >= grouped - 1e-12);
    }

    /// MPI p2p: zero for self, positive and monotone in bytes otherwise.
    #[test]
    fn p2p_model_properties(bytes in 1u64..1_000_000_000, a in 0usize..64, b in 0usize..64) {
        prop_assert_eq!(SUMMIT.mpi_p2p_time(bytes, a, a), 0.0);
        if a != b {
            let t = SUMMIT.mpi_p2p_time(bytes, a, b);
            prop_assert!(t > 0.0);
            prop_assert!(SUMMIT.mpi_p2p_time(2 * bytes, a, b) > t);
        }
    }

    /// Transformer layer time scales superlinearly in hidden size and
    /// linearly-ish in microbatch.
    #[test]
    fn layer_time_scaling(mbs in 1usize..8, h_idx in 0usize..4) {
        let hs = [1024usize, 2048, 4096, 5120];
        let h = hs[h_idx];
        let t = transformer_layer_forward_time(&SUMMIT, mbs, 2048, h);
        prop_assert!(t > 0.0);
        let t2 = transformer_layer_forward_time(&SUMMIT, mbs * 2, 2048, h);
        // Doubling tokens costs between 1.5x and 2.1x (efficiency gain).
        prop_assert!(t2 > 1.5 * t && t2 < 2.1 * t, "{t2} vs {t}");
        let th = transformer_layer_forward_time(&SUMMIT, mbs, 2048, h * 2);
        prop_assert!(th > 3.0 * t, "quadratic in h: {th} vs {t}");
    }
}
