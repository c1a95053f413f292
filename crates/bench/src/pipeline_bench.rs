//! `repro pipeline` — measured pipeline-bubble fraction of the real
//! thread-per-stage runtime vs AxoNN's Eq. 7 closed form, recorded to
//! `BENCH_hotpaths.json`.
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
//! (`fwd_s + bwd_s` from [`samo::pipeline::StageStats`]) and its
//! scheduler window on the shared trace clock; the step makespan is
//! `max(end) − min(start)` across stages, and the measured bubble
//! fraction is
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
//! The bench also pins `SAMO_THREADS=1` before the first tensor op:
//! stage threads are the parallelism under test, and letting each
//! stage's (small) real GEMM fan out over the shared worker pool would
//! add cross-stage contention on top of the calibrated delays.

use crate::gates::BUBBLE_TOLERANCE;
use crate::harness::{self, median, obj, round6};
use axonn_sim::pipeline::analytic_bubble;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
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
    let cfg = PipelineConfig {
        g_inter,
        g_data: 1,
        microbatches,
        mb_rows: rows,
        max_in_flight: g_inter,
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
    let mut prev = pp.stage_stats();
    let (mut fracs, mut waits) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    let (mut fwd_total, mut bwd_total, mut makespan_total) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..steps {
        run_step(&mut pp)?;
        let cur = pp.stage_stats();
        let start =
            cur.iter().map(|s| s.last_sched_start_us).fold(f64::INFINITY, f64::min);
        let end = cur.iter().map(|s| s.last_sched_end_us).fold(0.0f64, f64::max);
        let makespan = (end - start) * 1e-6;
        let (mut fwd, mut bwd, mut wait) = (0.0f64, 0.0f64, 0.0f64);
        for (c, p) in cur.iter().zip(&prev) {
            fwd += c.fwd_s - p.fwd_s;
            bwd += c.bwd_s - p.bwd_s;
            wait += c.wait_s - p.wait_s;
        }
        fracs.push(1.0 - (fwd + bwd) / (g_inter as f64 * makespan));
        waits.push(wait / (g_inter as f64 * makespan));
        fwd_total += fwd;
        bwd_total += bwd;
        makespan_total += makespan;
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
    Ok(DepthRun {
        g_inter,
        f_hat,
        b_hat,
        makespan_s: makespan_total / steps as f64,
        wait_share: median(waits).expect("at least one measured step"),
        measured,
        analytic,
        rel_err: (measured - analytic).abs() / analytic,
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
            "wait_share", "measured_bubble", "analytic_bubble", "rel_err",
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
