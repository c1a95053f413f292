//! Integration tests asserting the paper's headline claims hold on this
//! reproduction, experiment by experiment (see EXPERIMENTS.md for the
//! quantitative comparison).

use axonn_sim::frameworks::{run_gpt, run_vision, Framework};
use axonn_sim::pipeline::{analytic_bubble, simulate_pipeline, PipelineSpec};
use models::gpt::{ALL_GPT, GPT3_13B, GPT3_2_7B};
use models::vision::{vgg19, wideresnet101};
use samo::memory;
use summit_sim::kernels::fig1_fc_layer;
use summit_sim::machine::SUMMIT;

/// Fig. 1: "computing a fully connected layer with 90% sparsity using
/// cuBLAS is 6–22× faster than using Sputnik". Our calibrated model must
/// land in (a slightly widened) band with the gap growing with size.
#[test]
fn fig1_dense_beats_sparse_kernels() {
    for n in [128usize, 256, 512, 1024, 2048, 4096] {
        let (dense, sputnik, cusparse) = fig1_fc_layer(&SUMMIT, n);
        let ratio = sputnik / dense;
        assert!((4.0..=24.0).contains(&ratio), "n={n}: ratio {ratio:.1}");
        assert!(cusparse > sputnik, "cuSPARSE slower than Sputnik at n={n}");
    }
}

/// Fig. 2 / Sec. III-D: 66–78% saved at 0.8–0.9 sparsity, break-even at
/// 0.25, savings formula (24p − 6)φ.
#[test]
fn fig2_memory_model() {
    assert!((memory::samo_savings_fraction(0.8) - 0.66).abs() < 0.005);
    assert!((memory::samo_savings_fraction(0.9) - 0.78).abs() < 0.005);
    assert_eq!(memory::samo_savings_bytes(1_000_000, 0.25), 0);
    // Eq. 5: M_default − M_SAMO = (24p − 6)φ.
    for p in [0.3, 0.5, 0.75, 0.9] {
        let phi = 10_000_000u64;
        let expect = ((24.0 * p - 6.0) * phi as f64).round() as i64;
        assert_eq!(memory::samo_savings_bytes(phi, p), expect);
    }
}

/// Sec. I headline: the 2.7B model's state shrinks by ~3/4 at p = 0.9.
#[test]
fn memory_headline_2_7b() {
    let phi = GPT3_2_7B.params();
    let reduction =
        1.0 - memory::m_samo_bytes(phi, 0.9) as f64 / memory::m_default_bytes(phi) as f64;
    assert!((0.70..0.80).contains(&reduction), "reduction {reduction}");
}

/// Fig. 3 / Eq. 7: the simulated pipeline bubble equals
/// `(t_f + t_b)(1 − 1/G_inter)` under uniform stages and free messages.
#[test]
fn eq7_bubble_formula() {
    for s in [2usize, 3, 4, 8, 16] {
        let spec = PipelineSpec {
            stages: s,
            microbatches: 4 * s,
            t_fwd: vec![1.0 / s as f64; s],
            t_bwd: vec![2.0 / s as f64; s],
            t_w: vec![0.0; s],
            msg_bytes: 0,
            gpu_ids: vec![0; s],
            max_in_flight: s + 1,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        let expect = analytic_bubble(1.0, 2.0, s);
        assert!(
            (r.per_gpu[0].bubble - expect).abs() < 1e-9,
            "S={s}: {} vs {expect}",
            r.per_gpu[0].bubble
        );
    }
}

/// Figs. 6–7: AxoNN+SAMO is the fastest framework at the largest scale
/// of every GPT model, and Sputnik is the slowest.
#[test]
fn samo_fastest_sputnik_slowest_at_max_scale() {
    for cfg in ALL_GPT {
        let gpus = cfg.batch; // max of the strong-scaling range
        let t = |fw| run_gpt(&SUMMIT, &cfg, fw, gpus).map(|r| r.batch_time());
        let samo = t(Framework::AxonnSamo).unwrap();
        let axonn = t(Framework::Axonn).unwrap();
        let ds = t(Framework::DeepSpeed3D).unwrap();
        let sputnik = t(Framework::Sputnik).unwrap();
        assert!(samo < axonn, "{}: SAMO {samo} !< AxoNN {axonn}", cfg.name);
        assert!(samo < ds, "{}: SAMO {samo} !< DS {ds}", cfg.name);
        assert!(
            sputnik > samo * 1.3,
            "{}: Sputnik {sputnik} should clearly trail SAMO {samo}",
            cfg.name
        );
    }
}

/// Sec. VI-B: "We indeed observe the largest speedups for the largest
/// GPU counts" — per model, SAMO's speedup at max scale exceeds the
/// speedup at min scale.
#[test]
fn speedups_grow_with_scale() {
    for cfg in ALL_GPT {
        let speedup = |gpus| {
            let a = run_gpt(&SUMMIT, &cfg, Framework::Axonn, gpus).unwrap();
            let s = run_gpt(&SUMMIT, &cfg, Framework::AxonnSamo, gpus).unwrap();
            a.batch_time() / s.batch_time()
        };
        let lo = speedup(cfg.batch / 8);
        let hi = speedup(cfg.batch);
        assert!(hi > lo, "{}: speedup {hi:.2} at max !> {lo:.2} at min", cfg.name);
    }
}

/// Fig. 8: SAMO reduces p2p, bubble and collective phases, at the cost
/// of extra compute (gradient compression), with the compression
/// overhead under ~15% of AxoNN's batch time.
#[test]
fn fig8_phase_improvements() {
    for gpus in [128usize, 256, 512] {
        let a = run_gpt(&SUMMIT, &GPT3_2_7B, Framework::Axonn, gpus).unwrap();
        let s = run_gpt(&SUMMIT, &GPT3_2_7B, Framework::AxonnSamo, gpus).unwrap();
        assert!(s.phases.p2p < a.phases.p2p, "{gpus}: p2p not reduced");
        assert!(s.phases.bubble < a.phases.bubble, "{gpus}: bubble not reduced");
        assert!(s.phases.collective < a.phases.collective, "{gpus}: collective not reduced");
        let overhead = (s.phases.compute - a.phases.compute) / a.batch_time();
        assert!(
            (0.0..0.15).contains(&overhead),
            "{gpus}: compression overhead {overhead:.2} out of band"
        );
    }
}

/// Eq. 10 corollary observed in Fig. 8: the p2p share of AxoNN's batch
/// time decreases as GPUs increase (microbatches per pipeline shrink).
#[test]
fn p2p_share_shrinks_with_scale() {
    let share = |gpus| {
        let r = run_gpt(&SUMMIT, &GPT3_2_7B, Framework::Axonn, gpus).unwrap();
        r.phases.p2p / r.batch_time()
    };
    assert!(share(512) < share(128));
}

/// Table II: utilization declines with scale for every framework, and
/// AxoNN+SAMO holds the highest utilization among AxoNN variants at
/// every scale (the paper's "smaller reduction in hardware utilization").
#[test]
fn table2_utilization_trends() {
    for fw in [Framework::Axonn, Framework::AxonnSamo, Framework::DeepSpeed3D] {
        let mut prev = f64::MAX;
        for gpus in [256usize, 512, 1024, 2048] {
            let r = run_gpt(&SUMMIT, &GPT3_13B, fw, gpus).unwrap();
            let pct = r.percent_peak(&GPT3_13B, &SUMMIT);
            assert!(pct < prev, "{fw:?} at {gpus}: {pct} not declining");
            prev = pct;
        }
    }
    for gpus in [256usize, 512, 1024, 2048] {
        let ax = run_gpt(&SUMMIT, &GPT3_13B, Framework::Axonn, gpus).unwrap();
        let sm = run_gpt(&SUMMIT, &GPT3_13B, Framework::AxonnSamo, gpus).unwrap();
        let sp = run_gpt(&SUMMIT, &GPT3_13B, Framework::Sputnik, gpus).unwrap();
        assert!(
            sm.percent_peak(&GPT3_13B, &SUMMIT) > ax.percent_peak(&GPT3_13B, &SUMMIT),
            "{gpus}: SAMO must beat AxoNN"
        );
        assert!(
            sp.percent_peak(&GPT3_13B, &SUMMIT) < ax.percent_peak(&GPT3_13B, &SUMMIT),
            "{gpus}: Sputnik must trail"
        );
    }
}

/// Fig. 5: VGG-19 (communication-bound) benefits more from SAMO than
/// WideResnet-101 (compute-bound), and AxoNN ≈ DeepSpeed for CNNs.
#[test]
fn fig5_cnn_claims() {
    for gpus in [16usize, 64, 128] {
        let sv = {
            let a = run_vision(&SUMMIT, &vgg19(), Framework::Axonn, gpus).unwrap();
            let s = run_vision(&SUMMIT, &vgg19(), Framework::AxonnSamo, gpus).unwrap();
            a.batch_time() / s.batch_time()
        };
        let sw = {
            let a = run_vision(&SUMMIT, &wideresnet101(), Framework::Axonn, gpus).unwrap();
            let s = run_vision(&SUMMIT, &wideresnet101(), Framework::AxonnSamo, gpus).unwrap();
            a.batch_time() / s.batch_time()
        };
        assert!(sv > sw, "{gpus}: VGG {sv:.2} !> WRN {sw:.2}");
        assert!(sw > 1.0, "{gpus}: SAMO must still help WRN");
    }
    let a = run_vision(&SUMMIT, &vgg19(), Framework::Axonn, 64).unwrap();
    let d = run_vision(&SUMMIT, &vgg19(), Framework::DeepSpeed3D, 64).unwrap();
    assert!((d.batch_time() / a.batch_time() - 1.0).abs() < 0.1);
}

/// Sec. IV-A: the all-reduce message volume shrinks by exactly 1/f.
#[test]
fn collective_volume_reduction() {
    use samo::trainer::{dense_allreduce_bytes, samo_allreduce_bytes};
    let phi = 1_000_000u64;
    let nnz = phi / 10;
    assert_eq!(dense_allreduce_bytes(phi), 10 * samo_allreduce_bytes(nnz));
}
