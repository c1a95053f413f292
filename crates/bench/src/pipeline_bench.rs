//! `repro pipeline` — measured pipeline-bubble fraction of the real
//! thread-per-stage runtime vs AxoNN's Eq. 7 closed form, recorded to
//! `BENCH_hotpaths.json`. This is the repository's one bubble ruler:
//! it reads the scheduler's always-on counters, so it needs no trace,
//! and nothing else measures a bubble or sets one against Eq. 7.
//!
//! A uniform-stage model ([`models::uniform_pipeline_mlp_delayed`], one
//! identical `Linear → ReLU → StageDelay` block per stage) trains for a
//! few steps on the threaded pipeline with activation recomputation
//! forced on, so every stage's per-microbatch forward and backward cost
//! is the same — the premise of Eq. 7. The stage cost is pinned by a
//! calibrated sleep rather than GEMM size: Eq. 7 presumes stages
//! *overlap*, and real kernels only overlap when the host has a core
//! per stage (on a 1-core container every overlapped slice's wall time
//! inflates with timesharing and the measurement degrades into a
//! core-count probe). Sleeps overlap on any host, so the number
//! isolates what this bench is for — the runtime's message-driven 1F1B
//! schedule. Each step, every stage reports its scheduler busy time
//! (`fwd_s + bwd_s` from [`samo::pipeline::StageStats`]; `bwd_s`
//! includes the deferred weight gradients, so a W is busy) and its
//! scheduler window on the shared trace clock; the step makespan is
//! `max(end) − min(start)` across stages, and the measured bubble
//! fraction (`step_sample`) is
//!
//! ```text
//! bubble = 1 − Σ_stages busy / (G_inter · makespan)
//! ```
//!
//! Beside it the table prints what the stages themselves call idle: the
//! share of `G_inter · makespan` they spent asleep in the scheduler's
//! neighbour wait (`StageStats::wait_s`). The two differ by the
//! scheduler's own overhead and by the skew between stage windows.
//!
//! The analytic fraction plugs the *measured* mean per-microbatch times
//! `f̂, b̂` into Eq. 7: `analytic_bubble(G·f̂, G·b̂, G)` idle seconds per
//! stage against a busy span of `M·(f̂ + b̂)`, i.e. the classic
//! `(G−1)/(M+G−1)` for a uniform 1F1B schedule. The run **fails** if
//! the median measured fraction deviates from the analytic one by more
//! than [`BUBBLE_TOLERANCE`] relative — the `pipeline` gate.
//!
//! The model beside them, reported and not gated: `axonn-sim`'s
//! simulator, which runs the runtime's own schedule
//! ([`samo::pipeline::Schedule`]), fed each stage's measured
//! per-microbatch F, B (`bwd_s − w_s`) and W (`w_s`), free messages and
//! the runtime's `max_in_flight` (`sim_bubble`).
//!
//! The bench also pins `SAMO_THREADS=1` before the first tensor op:
//! stage threads are the parallelism under test, and letting each
//! stage's (small) real GEMM fan out over the shared worker pool would
//! add cross-stage contention on top of the calibrated delays.

use crate::gates::BUBBLE_TOLERANCE;
use crate::harness::{self, median, obj, round6};
use axonn_sim::pipeline::{analytic_bubble, simulate_pipeline, PipelineSpec};
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use samo::pipeline::{PipelineConfig, StageStats, ThreadedPipelineSamo};
use std::sync::Arc;
use std::time::Duration;
use telemetry::json::Json;
use tensor::Tensor;

/// Paper-headline sparsity for the SAMO state the runtime shards.
const SPARSITY: f64 = 0.9;

/// One pipeline depth's measurement.
struct DepthRun {
    g_inter: usize,
    /// Mean forward seconds per stage per microbatch.
    f_hat: f64,
    /// Mean backward (recompute + backward) seconds per stage per microbatch.
    b_hat: f64,
    /// Mean step makespan across measured steps, seconds.
    makespan_s: f64,
    /// Median share of `G_inter · makespan` spent in the neighbour wait.
    wait_share: f64,
    measured: f64,
    analytic: f64,
    rel_err: f64,
    /// `axonn-sim`'s bubble fraction on the measured op times.
    sim: f64,
}

/// One step read off the scheduler's counters, summed over stages.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepSample {
    fwd_s: f64,
    /// Backward seconds, every W included: `StageStats::bwd_s` counts
    /// it, so a deferred weight gradient is busy time, not bubble.
    bwd_s: f64,
    /// Latest scheduler end minus earliest scheduler start, any stages.
    makespan_s: f64,
    /// `1 − (fwd_s + bwd_s) / (G_inter · makespan_s)`.
    bubble: f64,
    /// Neighbour-wait seconds over `G_inter · makespan_s`.
    wait_share: f64,
}

/// The one bubble ruler: every stage's [`StageStats`] before and after
/// a step, in stage order, reduced to that step's [`StepSample`].
fn step_sample(before: &[StageStats], after: &[StageStats]) -> StepSample {
    let start = after.iter().map(|s| s.last_sched_start_us).fold(f64::INFINITY, f64::min);
    let end = after.iter().map(|s| s.last_sched_end_us).fold(0.0f64, f64::max);
    let makespan_s = (end - start) * 1e-6;
    let (mut fwd_s, mut bwd_s, mut wait_s) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in after.iter().zip(before) {
        fwd_s += a.fwd_s - b.fwd_s;
        bwd_s += a.bwd_s - b.bwd_s;
        wait_s += a.wait_s - b.wait_s;
    }
    let stage_s = after.len() as f64 * makespan_s;
    StepSample {
        fwd_s,
        bwd_s,
        makespan_s,
        bubble: 1.0 - (fwd_s + bwd_s) / stage_s,
        wait_share: wait_s / stage_s,
    }
}

/// Trains `steps` measured steps (after one warmup) at one pipeline
/// depth and compares measured vs analytic bubble fraction.
fn bench_depth(
    g_inter: usize,
    microbatches: usize,
    width: usize,
    rows: usize,
    steps: usize,
    fwd_delay: Duration,
    bwd_delay: Duration,
) -> Result<DepthRun, String> {
    let model = models::uniform_pipeline_mlp_delayed(
        g_inter,
        width,
        9_000 + g_inter as u64,
        fwd_delay,
        bwd_delay,
    );
    let masks = models::uniform_pipeline_masks(&model, SPARSITY);
    let max_in_flight = g_inter;
    let cfg = PipelineConfig {
        g_inter,
        g_data: 1,
        microbatches,
        mb_rows: rows,
        max_in_flight,
        timeout: Duration::from_secs(60),
        force_recompute: true,
    };
    let mut pp = ThreadedPipelineSamo::new(
        vec![model],
        masks,
        Optimizer::Adam(AdamConfig::default()),
        cfg,
    );
    pp.set_scaler(LossScaler::new(1024.0));

    // Pre-generated microbatches: the input/loss closures run inside the
    // stage scheduler loop but outside the timed forward/backward, so
    // they must stay cheap (a clone, an MSE) next to the stage GEMMs.
    let xs: Arc<Vec<Tensor>> = Arc::new(
        (0..microbatches)
            .map(|mb| Tensor::randn(&[rows, width], 1.0, 7_000 + mb as u64))
            .collect(),
    );
    let ts: Arc<Vec<Tensor>> = Arc::new(
        (0..microbatches)
            .map(|mb| Tensor::randn(&[rows, width], 1.0, 8_000 + mb as u64))
            .collect(),
    );
    let run_step = |pp: &mut ThreadedPipelineSamo| -> Result<(), String> {
        let xs = Arc::clone(&xs);
        let ts = Arc::clone(&ts);
        pp.step(
            move |_d, mb| xs[mb].clone(),
            move |_d, mb, y, scale| {
                let (_, mut dy) = nn::loss::mse(y, &ts[mb]);
                tensor::ops::scale(scale, dy.as_mut_slice());
                dy
            },
        )
        .map(|_| ())
    };

    run_step(&mut pp)?; // warmup: first-touch allocation, thread ramp-up
    let first = pp.stage_stats();
    let mut prev = first.clone();
    let (mut fracs, mut waits) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    let (mut fwd_total, mut bwd_total, mut makespan_total) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..steps {
        run_step(&mut pp)?;
        let cur = pp.stage_stats();
        let s = step_sample(&prev, &cur);
        fracs.push(s.bubble);
        waits.push(s.wait_share);
        fwd_total += s.fwd_s;
        bwd_total += s.bwd_s;
        makespan_total += s.makespan_s;
        prev = cur;
    }

    let per_mb = (steps * microbatches * g_inter) as f64;
    let f_hat = fwd_total / per_mb;
    let b_hat = bwd_total / per_mb;
    // Eq. 7 with measured per-microbatch times: idle seconds per stage
    // over a full batch, against M microbatches of busy work.
    let bubble_s = analytic_bubble(g_inter as f64 * f_hat, g_inter as f64 * b_hat, g_inter);
    let analytic = bubble_s / (bubble_s + microbatches as f64 * (f_hat + b_hat));
    let measured = median(fracs).expect("at least one measured step");
    // The simulator on each stage's measured per-microbatch op times.
    let per_stage = (steps * microbatches) as f64;
    let mean = |f: fn(&StageStats) -> f64| -> Vec<f64> {
        prev.iter().zip(&first).map(|(a, b)| (f(a) - f(b)) / per_stage).collect()
    };
    let spec = PipelineSpec {
        stages: g_inter,
        microbatches,
        t_fwd: mean(|s| s.fwd_s),
        t_bwd: mean(|s| s.bwd_s - s.w_s),
        t_w: mean(|s| s.w_s),
        msg_bytes: 0,
        gpu_ids: vec![0; g_inter],
        max_in_flight,
    };
    Ok(DepthRun {
        g_inter,
        f_hat,
        b_hat,
        makespan_s: makespan_total / steps as f64,
        wait_share: median(waits).expect("at least one measured step"),
        measured,
        analytic,
        rel_err: (measured - analytic).abs() / analytic,
        sim: simulate_pipeline(&summit_sim::machine::SUMMIT, &spec).bubble_fraction(),
    })
}

/// Runs the suite: depth 2 (plus 3 in full mode), table + CSV to
/// `results/`, and the `pipeline` section recorded under its gate.
pub fn run(quick: bool) -> Result<(), String> {
    // Must precede the first tensor op so the pool snaps to one worker
    // (see the module doc); a no-op if the pool is already built.
    std::env::set_var("SAMO_THREADS", "1");

    let (width, rows, microbatches, steps) = if quick { (64, 32, 6, 4) } else { (64, 32, 8, 6) };
    let (fwd_delay, bwd_delay) = if quick {
        (Duration::from_millis(3), Duration::from_millis(6))
    } else {
        (Duration::from_millis(4), Duration::from_millis(8))
    };
    let depths: &[usize] = if quick { &[2] } else { &[2, 3] };

    telemetry::log_info!(
        "pipeline: uniform {width}x{width} stages pinned to {fwd_delay:?}F/{bwd_delay:?}B, \
         {rows} rows x {microbatches} microbatches, {steps} measured steps, depths {depths:?}"
    );

    let mut tab = crate::Table::new(
        "pipeline_bubble",
        &[
            "g_inter", "microbatches", "fwd_ms_mb", "bwd_ms_mb", "makespan_ms",
            "wait_share", "measured_bubble", "sim_bubble", "analytic_bubble", "rel_err",
        ],
    );
    let mut depth_rows: Vec<Json> = Vec::new();
    for &g in depths {
        let r = bench_depth(g, microbatches, width, rows, steps, fwd_delay, bwd_delay)?;
        tab.push(vec![
            r.g_inter.to_string(),
            microbatches.to_string(),
            format!("{:.3}", r.f_hat * 1e3),
            format!("{:.3}", r.b_hat * 1e3),
            format!("{:.2}", r.makespan_s * 1e3),
            format!("{:.4}", r.wait_share),
            format!("{:.4}", r.measured),
            format!("{:.4}", r.sim),
            format!("{:.4}", r.analytic),
            format!("{:.4}", r.rel_err),
        ]);
        depth_rows.push(obj([
            ("g_inter", Json::UInt(g as u64)),
            ("fwd_ms_per_mb", round6(r.f_hat * 1e3)),
            ("bwd_ms_per_mb", round6(r.b_hat * 1e3)),
            ("makespan_ms", round6(r.makespan_s * 1e3)),
            ("wait_share", round6(r.wait_share)),
            ("measured_bubble_fraction", round6(r.measured)),
            ("sim_bubble_fraction", round6(r.sim)),
            ("analytic_bubble_fraction", round6(r.analytic)),
            ("rel_err", round6(r.rel_err)),
        ]));
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write pipeline CSV: {e}"))?;
    telemetry::log_info!("pipeline: CSV written to {}", csv.display());

    // The headline acceptance check, applied by the gate: the real
    // threaded schedule's bubble matches Eq. 7 on a uniform-stage model.
    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("width", Json::UInt(width as u64)),
        ("rows", Json::UInt(rows as u64)),
        ("microbatches", Json::UInt(microbatches as u64)),
        ("steps", Json::UInt(steps as u64)),
        ("fwd_delay_ms", Json::UInt(fwd_delay.as_millis() as u64)),
        ("bwd_delay_ms", Json::UInt(bwd_delay.as_millis() as u64)),
        ("sparsity", Json::Num(SPARSITY)),
        ("tolerance", Json::Num(BUBBLE_TOLERANCE)),
        ("depths", Json::Arr(depth_rows)),
    ]);
    harness::record("pipeline", vec![("pipeline".to_string(), section)])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two stages around one step: each forwards 10 ms and runs 20 ms of
    /// backward, 5 ms of it Ws; they wait 4 and 6 ms. Stage 0 starts
    /// first (1 ms) and stage 1 ends last (40 ms), so the makespan spans
    /// both stages' windows, not either one's.
    fn two_stages() -> ([StageStats; 2], [StageStats; 2]) {
        let at = |fwd_s, bwd_s, w_s, wait_s, start_us, end_us| StageStats {
            fwd_s,
            bwd_s,
            w_s,
            wait_s,
            last_sched_start_us: start_us,
            last_sched_end_us: end_us,
            ..StageStats::default()
        };
        let before = [
            at(0.5, 1.0, 0.25, 0.125, 0.0, 900.0),
            at(0.5, 1.0, 0.25, 0.25, 100.0, 950.0),
        ];
        let after = [
            at(0.51, 1.02, 0.255, 0.129, 1_000.0, 36_000.0),
            at(0.51, 1.02, 0.255, 0.256, 2_000.0, 40_000.0),
        ];
        (before, after)
    }

    #[test]
    fn step_sample_spans_the_earliest_start_to_the_latest_end() {
        let (before, after) = two_stages();
        let s = step_sample(&before, &after);
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        close(s.makespan_s, 0.039);
        close(s.fwd_s, 0.02);
        close(s.bwd_s, 0.04);
        close(s.bubble, 1.0 - 0.06 / (2.0 * 0.039));
        close(s.wait_share, 0.01 / (2.0 * 0.039));
    }

    /// A W is backward work: the ruler never subtracts `w_s`, so a stage
    /// that defers its weight gradients is not read as idle.
    #[test]
    fn w_time_counts_as_busy() {
        let (before, after) = two_stages();
        let s = step_sample(&before, &after);
        let without_w = 1.0 - (0.06 - 0.01) / (2.0 * 0.039);
        assert!(s.bubble < without_w - 0.1, "{} vs {without_w}", s.bubble);
        let (mut no_w_before, mut no_w_after) = (before, after);
        for st in no_w_before.iter_mut().chain(&mut no_w_after) {
            st.w_s = 0.0;
        }
        assert_eq!(step_sample(&no_w_before, &no_w_after), s);
    }
}
