//! Failure injection and goodput accounting for simulated training runs
//! — the quantitative fault-tolerance study the paper itself doesn't
//! report.
//!
//! The chain of reasoning: SAMO compresses the serialized model state to
//! ~`18fφ` bytes (indices + θ32 + ∇θ16 + Adam m,v per unpruned value;
//! see `samo::serialize`) versus ~`14φ` for a dense mixed-precision
//! checkpoint. Smaller checkpoints are faster to write, and by
//! Young/Daly the optimal checkpoint interval `τ_opt = sqrt(2 δ M)`
//! shrinks with the write cost `δ` — so a SAMO run checkpoints more
//! often *and* pays less per checkpoint, losing less work per failure
//! and reloading faster on restart. At fixed system MTBF `M` this is a
//! strict goodput win, quantified by [`simulate_faulty_run`].
//!
//! All randomness comes from `summit_sim::failure`'s seeded SplitMix64,
//! so a fault schedule is a pure function of the spec.

use summit_sim::failure::{FailureProcess, SplitMix64, StragglerModel};

/// Serialized SAMO checkpoint bytes for `phi` parameters at `sparsity`:
/// 4 B index + 4 B θ32 + 2 B ∇θ16 + 8 B Adam state per unpruned value
/// (18 B/nnz; cross-checked against `samo::serialize::save_checkpoint`
/// in this module's tests).
pub fn samo_checkpoint_bytes(phi: u64, sparsity: f64) -> u64 {
    assert!((0.0..=1.0).contains(&sparsity));
    let nnz = (phi as f64 * (1.0 - sparsity)).round();
    (18.0 * nnz) as u64
}

/// Serialized dense mixed-precision checkpoint bytes for `phi`
/// parameters: 4 B θ32 + 2 B ∇θ16 + 8 B Adam state per value (θ16 is
/// reconstructible and not stored, mirroring the SAMO format).
pub fn dense_checkpoint_bytes(phi: u64) -> u64 {
    14 * phi
}

/// Young/Daly first-order optimal checkpoint interval `sqrt(2 δ M)` for
/// write cost `delta_s` and system MTBF `mtbf_s` (both seconds).
pub fn young_daly_interval(delta_s: f64, mtbf_s: f64) -> f64 {
    assert!(delta_s >= 0.0 && mtbf_s > 0.0);
    (2.0 * delta_s * mtbf_s).sqrt()
}

/// One fault-injected training run, fully specified.
#[derive(Clone, Debug)]
pub struct FaultRunSpec {
    /// Nominal time per training step (from the batch-time simulation).
    pub batch_time_s: f64,
    /// Steps to complete the run.
    pub total_steps: u64,
    /// Nodes in the job (failure domain count).
    pub n_nodes: usize,
    /// Per-node MTBF, seconds.
    pub node_mtbf_s: f64,
    /// Checkpoint size on disk, bytes.
    pub ckpt_bytes: u64,
    /// Parallel-filesystem write bandwidth available to the job, B/s.
    pub write_bw: f64,
    /// Read bandwidth on restore, B/s.
    pub read_bw: f64,
    /// Fixed job-restart cost on failure (scheduler requeue, init), s.
    pub restart_s: f64,
    /// Wall-clock seconds of useful compute between checkpoints.
    pub ckpt_interval_s: f64,
    /// Transient per-step slowdown model.
    pub straggler: StragglerModel,
    /// Seed for the failure and straggler processes.
    pub seed: u64,
}

impl FaultRunSpec {
    /// Checkpoint write time `δ`, seconds.
    pub fn write_time_s(&self) -> f64 {
        self.ckpt_bytes as f64 / self.write_bw
    }

    /// Checkpoint load time on recovery, seconds.
    pub fn load_time_s(&self) -> f64 {
        self.ckpt_bytes as f64 / self.read_bw
    }

    /// System MTBF `node_mtbf / n_nodes`, seconds.
    pub fn system_mtbf_s(&self) -> f64 {
        self.node_mtbf_s / self.n_nodes.max(1) as f64
    }

    /// The Young/Daly-optimal interval for this spec.
    pub fn daly_interval_s(&self) -> f64 {
        young_daly_interval(self.write_time_s(), self.system_mtbf_s())
    }
}

/// Where a fault-injected run's wall-clock time went.
#[derive(Clone, Debug, Default)]
pub struct FaultRunReport {
    /// Total simulated wall-clock time.
    pub wall_time_s: f64,
    /// Nominal useful compute (`total_steps × batch_time`).
    pub useful_time_s: f64,
    /// Time spent writing checkpoints.
    pub ckpt_overhead_s: f64,
    /// Computed-then-discarded work (steps re-run after failures).
    pub lost_work_s: f64,
    /// Restart + checkpoint-load time across all failures.
    pub recovery_s: f64,
    /// Excess time from straggling steps.
    pub straggler_s: f64,
    /// Failures that struck the run.
    pub failures: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// True if the run could not make progress (failure faster than
    /// recovery); the report then covers the truncated attempt.
    pub stalled: bool,
}

impl FaultRunReport {
    /// Fraction of wall time that was useful compute, in [0, 1].
    pub fn goodput(&self) -> f64 {
        if self.wall_time_s <= 0.0 {
            return 1.0;
        }
        self.useful_time_s / self.wall_time_s
    }
}

/// Discrete per-step simulation of a training run under the spec's
/// failure, straggler and checkpoint models.
///
/// Time advances step by step; a failure striking mid-step (or during a
/// checkpoint write) rolls the run back to the last durable checkpoint
/// and charges `restart + load` recovery. Failures during recovery
/// collapse into the next window (first-order, as in Daly's model).
/// Deterministic for a fixed spec.
pub fn simulate_faulty_run(spec: &FaultRunSpec) -> FaultRunReport {
    assert!(spec.batch_time_s > 0.0, "batch time must be positive");
    assert!(spec.ckpt_interval_s > 0.0, "checkpoint interval must be positive");
    let mut rng = SplitMix64::new(spec.seed ^ 0x5AFE_C0DE);
    let mut failures = FailureProcess::new(spec.node_mtbf_s, spec.n_nodes, spec.seed);
    let write_time = spec.write_time_s();
    let load_time = spec.load_time_s();

    let mut rep = FaultRunReport {
        useful_time_s: spec.total_steps as f64 * spec.batch_time_s,
        ..Default::default()
    };
    let mut t = 0.0f64; // wall clock
    let mut step = 0u64; // next step to run
    let mut ckpt_step = 0u64; // last durably checkpointed step
    let mut since_ckpt = 0.0f64; // useful seconds since last checkpoint
    // A run that cannot complete an interval between failures would loop
    // forever; cap attempts far beyond any sane configuration.
    const MAX_FAILURES: u64 = 1_000_000;

    while step < spec.total_steps {
        let factor = spec.straggler.sample(&mut rng);
        let step_time = spec.batch_time_s * factor;
        if failures.peek_next() < t + step_time {
            // Fail mid-step: wall time runs to the failure instant, then
            // recovery; everything since the last checkpoint is lost.
            let fail_at = failures.peek_next();
            rep.lost_work_s += (step - ckpt_step) as f64 * spec.batch_time_s + (fail_at - t);
            t = fail_at + spec.restart_s + load_time;
            rep.recovery_s += spec.restart_s + load_time;
            rep.failures += 1;
            failures.advance_past(t);
            step = ckpt_step;
            since_ckpt = 0.0;
            if rep.failures >= MAX_FAILURES {
                rep.stalled = true;
                break;
            }
            continue;
        }
        t += step_time;
        rep.straggler_s += step_time - spec.batch_time_s;
        since_ckpt += spec.batch_time_s;
        step += 1;

        if since_ckpt >= spec.ckpt_interval_s && step < spec.total_steps {
            // Write a checkpoint; a failure during the write loses the
            // interval (the write didn't complete — previous checkpoint
            // still rules).
            if failures.peek_next() < t + write_time {
                let fail_at = failures.peek_next();
                rep.lost_work_s += (step - ckpt_step) as f64 * spec.batch_time_s + (fail_at - t);
                t = fail_at + spec.restart_s + load_time;
                rep.recovery_s += spec.restart_s + load_time;
                rep.failures += 1;
                failures.advance_past(t);
                step = ckpt_step;
                since_ckpt = 0.0;
                if rep.failures >= MAX_FAILURES {
                    rep.stalled = true;
                    break;
                }
                continue;
            }
            t += write_time;
            rep.ckpt_overhead_s += write_time;
            rep.checkpoints += 1;
            ckpt_step = step;
            since_ckpt = 0.0;
        }
    }
    rep.wall_time_s = t;
    if rep.stalled {
        // Useful time reflects only what actually completed durably.
        rep.useful_time_s = ckpt_step as f64 * spec.batch_time_s;
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> FaultRunSpec {
        FaultRunSpec {
            batch_time_s: 2.0,
            total_steps: 2000,
            n_nodes: 342, // 2048 GPUs / 6 per node
            node_mtbf_s: 5.0 * 365.0 * 86_400.0,
            ckpt_bytes: dense_checkpoint_bytes(13_000_000_000),
            write_bw: 50e9,
            read_bw: 50e9,
            restart_s: 60.0,
            ckpt_interval_s: 600.0,
            straggler: StragglerModel::NONE,
            seed: 7,
        }
    }

    #[test]
    fn no_failures_means_only_checkpoint_overhead() {
        let mut spec = base_spec();
        spec.node_mtbf_s = f64::INFINITY;
        let rep = simulate_faulty_run(&spec);
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.lost_work_s, 0.0);
        assert!(rep.checkpoints > 0);
        let expect = rep.useful_time_s + rep.ckpt_overhead_s;
        assert!((rep.wall_time_s - expect).abs() < 1e-6);
        assert!(rep.goodput() < 1.0 && rep.goodput() > 0.9);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut spec = base_spec();
        spec.node_mtbf_s = 550_000.0; // frequent failures so the seed shows
        let a = simulate_faulty_run(&spec);
        let b = simulate_faulty_run(&spec);
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert!(a.failures > 0, "test needs failures to be meaningful");

        let mut other = spec.clone();
        other.seed = 8;
        let c = simulate_faulty_run(&other);
        assert_ne!(a.wall_time_s, c.wall_time_s, "seed must matter");
    }

    #[test]
    fn failures_cost_goodput() {
        let mut spec = base_spec();
        // System MTBF ≈ 27 min: failures are frequent at this scale.
        spec.node_mtbf_s = 550_000.0;
        let rep = simulate_faulty_run(&spec);
        assert!(rep.failures > 0, "expected failures at tiny MTBF");
        assert!(rep.lost_work_s > 0.0);
        assert!(rep.recovery_s > 0.0);
        assert!(rep.goodput() < 0.95);

        let mut calm = base_spec();
        calm.node_mtbf_s = f64::INFINITY;
        let calm_rep = simulate_faulty_run(&calm);
        assert!(calm_rep.goodput() > rep.goodput());
    }

    #[test]
    fn smaller_checkpoints_win_at_equal_mtbf() {
        // The tentpole claim: at the same MTBF, SAMO's ~4.6× smaller
        // checkpoint (p = 0.9) yields goodput ≥ dense, each at its own
        // Young/Daly-optimal interval.
        let phi = 13_000_000_000u64;
        for sparsity in [0.8, 0.9] {
            let mut dense = base_spec();
            dense.node_mtbf_s = 3.0e6; // system MTBF ≈ 2.4 h
            dense.ckpt_bytes = dense_checkpoint_bytes(phi);
            dense.ckpt_interval_s = dense.daly_interval_s();
            let mut samo = dense.clone();
            samo.ckpt_bytes = samo_checkpoint_bytes(phi, sparsity);
            samo.ckpt_interval_s = samo.daly_interval_s();

            let dense_rep = simulate_faulty_run(&dense);
            let samo_rep = simulate_faulty_run(&samo);
            assert!(
                samo_rep.goodput() >= dense_rep.goodput(),
                "sparsity {sparsity}: samo {} < dense {}",
                samo_rep.goodput(),
                dense_rep.goodput()
            );
            assert!(samo_rep.wall_time_s <= dense_rep.wall_time_s);
        }
    }

    #[test]
    fn stragglers_add_overhead_without_failures() {
        let mut spec = base_spec();
        spec.node_mtbf_s = f64::INFINITY;
        spec.straggler = StragglerModel {
            prob: 0.05,
            slowdown: 4.0,
        };
        let rep = simulate_faulty_run(&spec);
        assert!(rep.straggler_s > 0.0);
        let expected = rep.useful_time_s * 1.15; // 1 + 0.05 · (4 − 1)
        let got = rep.useful_time_s + rep.straggler_s;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "straggler overhead {got} vs expected {expected}"
        );
    }

    #[test]
    fn daly_interval_shrinks_with_checkpoint_size() {
        let phi = 13_000_000_000u64;
        let mtbf = 10_000.0;
        let dense_tau =
            young_daly_interval(dense_checkpoint_bytes(phi) as f64 / 50e9, mtbf);
        let samo_tau =
            young_daly_interval(samo_checkpoint_bytes(phi, 0.9) as f64 / 50e9, mtbf);
        assert!(samo_tau < dense_tau);
        // δ ratio 14φ : 1.8φ ≈ 7.8× → τ ratio ≈ sqrt(7.8) ≈ 2.8×.
        assert!((dense_tau / samo_tau - (14.0f64 / 1.8).sqrt()).abs() < 0.01);
    }

    #[test]
    fn checkpoint_byte_formulas_match_serializer() {
        use nn::mixed::Optimizer;
        use nn::optim::AdamConfig;
        // Serialize a real SAMO layer and compare against the closed
        // form (the formula ignores the small fixed header).
        let phi = 40_000usize;
        let sparsity = 0.9;
        let opt = Optimizer::Adam(AdamConfig::default());
        let mask = prune::random_prune(&[phi], sparsity, 5);
        let nnz = mask.nnz() as u64;
        let st = samo::SamoLayerState::from_params(&vec![0.1; phi], mask, &opt);
        let bytes = samo::serialize::save_checkpoint(
            std::slice::from_ref(&st),
            &samo::TrainerMeta {
                loss_scale: 1.0,
                good_steps: 0,
                steps_taken: 0,
                steps_skipped: 0,
            },
        );
        let formula = 18 * nnz;
        let measured = bytes.len() as u64;
        assert!(
            measured >= formula && measured < formula + 256,
            "measured {measured} vs formula {formula}"
        );
        // And the φ-level helper agrees up to mask-sampling noise.
        let helper = samo_checkpoint_bytes(phi as u64, sparsity);
        let diff = (helper as f64 - formula as f64).abs();
        assert!(diff / (formula as f64) < 0.02, "helper {helper} vs {formula}");
    }
}
