//! Property-based tests for the pipeline simulator and framework models.

use axonn_sim::pipeline::{simulate_pipeline, PipelineSpec};
use proptest::prelude::*;
use summit_sim::machine::SUMMIT;

fn arb_spec() -> impl Strategy<Value = PipelineSpec> {
    (1usize..6, 1usize..20, 1usize..4, any::<bool>()).prop_flat_map(
        |(stages, microbatches, cap_extra, cross_node)| {
            (
                proptest::collection::vec(1e-4f64..5e-3, stages),
                proptest::collection::vec(1e-4f64..1e-2, stages),
                0u64..5_000_000,
            )
                .prop_map(move |(t_fwd, t_bwd, msg_bytes)| PipelineSpec {
                    stages,
                    microbatches,
                    t_fwd,
                    t_bwd,
                    t_w: vec![0.0; stages],
                    msg_bytes,
                    gpu_ids: (0..stages)
                        .map(|s| if cross_node { s * 6 } else { s })
                        .collect(),
                    max_in_flight: stages + cap_extra,
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every GPU's compute + p2p + bubble equals the batch
    /// wall-clock exactly, for arbitrary stage times, message sizes and
    /// topologies.
    #[test]
    fn phases_partition_wall_clock(spec in arb_spec()) {
        let r = simulate_pipeline(&SUMMIT, &spec);
        prop_assert!(r.total_time > 0.0);
        for (i, g) in r.per_gpu.iter().enumerate() {
            let sum = g.compute + g.p2p_wait + g.bubble;
            prop_assert!(
                (sum - r.total_time).abs() < 1e-9 * (1.0 + r.total_time),
                "gpu {i}: {sum} vs {}", r.total_time
            );
            prop_assert!(g.compute >= 0.0 && g.p2p_wait >= 0.0 && g.bubble >= -1e-12);
        }
    }

    /// Each GPU computes exactly M forwards and M backwards of its own
    /// stage time — the compute phase is workload-conserving.
    #[test]
    fn compute_phase_is_exact_workload(spec in arb_spec()) {
        let r = simulate_pipeline(&SUMMIT, &spec);
        for (s, g) in r.per_gpu.iter().enumerate() {
            let expect = spec.microbatches as f64 * (spec.t_fwd[s] + spec.t_bwd[s]);
            prop_assert!((g.compute - expect).abs() < 1e-9, "stage {s}");
        }
    }

    /// The batch cannot finish faster than the busiest stage's pure
    /// compute, nor faster than one microbatch's full traversal.
    #[test]
    fn total_time_lower_bounds(spec in arb_spec()) {
        let r = simulate_pipeline(&SUMMIT, &spec);
        let busiest = (0..spec.stages)
            .map(|s| spec.microbatches as f64 * (spec.t_fwd[s] + spec.t_bwd[s]))
            .fold(0.0f64, f64::max);
        prop_assert!(r.total_time >= busiest - 1e-9);
        let traversal: f64 = spec.t_fwd.iter().sum::<f64>() + spec.t_bwd.iter().sum::<f64>();
        prop_assert!(r.total_time >= traversal - 1e-9);
    }

    /// Fully serial upper bound: the pipeline is never slower than
    /// running every op and message back-to-back.
    #[test]
    fn total_time_upper_bound(spec in arb_spec()) {
        let r = simulate_pipeline(&SUMMIT, &spec);
        let compute: f64 = (0..spec.stages)
            .map(|s| spec.microbatches as f64 * (spec.t_fwd[s] + spec.t_bwd[s]))
            .sum();
        // 2 messages per microbatch per interior boundary, serialized.
        let msg = SUMMIT.mpi_p2p_time(spec.msg_bytes, spec.gpu_ids[0], *spec.gpu_ids.last().unwrap());
        let msgs = 2.0 * spec.microbatches as f64 * (spec.stages.saturating_sub(1)) as f64 * msg;
        prop_assert!(
            r.total_time <= compute + msgs + 1e-9,
            "{} > {compute} + {msgs}", r.total_time
        );
    }

    /// Adding microbatches never decreases total time, and the
    /// per-microbatch cost amortizes (time is subadditive).
    #[test]
    fn monotone_in_microbatches(
        stages in 1usize..5,
        m in 2usize..16,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t_fwd: Vec<f64> = (0..stages).map(|_| rng.gen_range(1e-4..5e-3)).collect();
        let t_bwd: Vec<f64> = (0..stages).map(|_| rng.gen_range(1e-4..1e-2)).collect();
        let mk = |microbatches: usize| PipelineSpec {
            stages,
            microbatches,
            t_fwd: t_fwd.clone(),
            t_bwd: t_bwd.clone(),
            t_w: vec![0.0; stages],
            msg_bytes: 1_000_000,
            gpu_ids: (0..stages).collect(),
            max_in_flight: stages + 1,
        };
        let t_small = simulate_pipeline(&SUMMIT, &mk(m - 1)).total_time;
        let t_big = simulate_pipeline(&SUMMIT, &mk(m)).total_time;
        prop_assert!(t_big >= t_small - 1e-12, "adding a microbatch sped things up");
        // Subadditive: M microbatches cost less than M serial single runs.
        let t_one = simulate_pipeline(&SUMMIT, &mk(1)).total_time;
        prop_assert!(t_big <= m as f64 * t_one + 1e-9);
    }

    /// Determinism: the simulator is a pure function of its spec.
    #[test]
    fn simulation_is_deterministic(spec in arb_spec()) {
        let a = simulate_pipeline(&SUMMIT, &spec);
        let b = simulate_pipeline(&SUMMIT, &spec);
        prop_assert_eq!(a.total_time, b.total_time);
        for (x, y) in a.per_gpu.iter().zip(&b.per_gpu) {
            prop_assert_eq!(x.compute, y.compute);
            prop_assert_eq!(x.p2p_wait, y.p2p_wait);
            prop_assert_eq!(x.bubble, y.bubble);
        }
    }
}
