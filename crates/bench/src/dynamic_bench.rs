//! `repro dynamic` — dynamic sparsity (DESIGN.md §18) measured end to
//! end: a [`MaskSchedule`] drives a live [`SamoTrainer`] through a
//! sparsify leg and back down a densify leg, and at **every** step the
//! measured model-state bytes must equal the paper's closed form
//! `24(1 − p(t))φ + 2φ` for the sparsity the schedule dictates at that
//! step. The in-place `remap_compressed_state` kernel is then timed in
//! both directions (sparsify, densify, flat-sparsity churn) against the
//! naive decompress-regather migration it replaces — recorded as a
//! `dynamic` section in `BENCH_hotpaths.json`.
//!
//! The run is held to the `dynamic` gate ([`crate::gates`]):
//! * measured bytes must match the formula at every step of the
//!   trajectory (a single mismatch means a remap leaked or lost state);
//! * the nnz trajectory must actually move in **both** directions
//!   (schedules that only clamp are not dynamic sparsity);
//! * the schedule must have fired its remap events;
//! * the in-place remap must beat the naive scatter-to-dense /
//!   gather-back rebuild on every transition (the kernel's reason to
//!   exist: one merge pass over compressed indices, zero allocations,
//!   no dense detour).

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::state::RemapScratch;
use samo::trainer::formula_state_bytes;
use samo::{SamoLayerState, SamoTrainer};
use telemetry::json::Json;
use tensor::f16::F16;
use tensor::Tensor;

use crate::harness::{self, obj, round6, sample};
use crate::Table;

/// One trajectory checkpoint: the schedule's target sparsity and the
/// measured-vs-formula memory accounting at that step.
struct Phase {
    t: u64,
    sparsity: f64,
    nnz: usize,
    measured_bytes: u64,
    formula_bytes: u64,
}

/// One timed remap transition on the kernel-bench layer.
struct Transition {
    name: &'static str,
    from_nnz: usize,
    to_nnz: usize,
    remap_ms: f64,
    rebuild_ms: f64,
    speedup: f64,
}

/// Drives a [`SamoTrainer`] through the full schedule window plus one
/// step of post-schedule steady state, checking measured bytes against
/// `formula_state_bytes` at every step. Returns the update-step phases,
/// the count of mismatching steps, φ and the remap events fired.
fn run_trajectory(quick: bool) -> (Vec<Phase>, u64, usize, u64) {
    let d = if quick { 48 } else { 128 };
    let mut model = Sequential::new()
        .push(Linear::new(d, d, false, 101))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(d, d, false, 102));
    let masks: Vec<prune::Mask> = model
        .params()
        .iter()
        .map(|p| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5))
        .collect();
    let opt = Optimizer::Adam(AdamConfig::default());
    let mut tr = SamoTrainer::new(&mut model, masks, opt);
    // Updates at t = 0, 4, 8 (knot: 0.9), 12, 16 (knot: 0.4): a
    // sparsify leg then a densify leg, five remap opportunities.
    let schedule = MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
        vec![(0, 0.5), (8, 0.9), (16, 0.4)],
        4,
        0.1,
    ));
    let steps = schedule.end() + 2;
    tr.set_mask_schedule(schedule);

    let phi = tr.numel() as u64;
    let batch = 8;
    let x = Tensor::randn(&[batch, d], 1.0, 7);
    let target = Tensor::randn(&[batch, d], 1.0, 8);
    let mut phases = Vec::new();
    let mut mismatches = 0u64;
    for t in 0..steps {
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
        model.backward(&dy);
        let update = tr.mask_schedule().is_some_and(|s| s.is_update_step(t));
        let sparsity = tr
            .mask_schedule()
            .map(|s| s.sparsity_at(t))
            .unwrap_or(0.0);
        tr.step(&mut model);
        let measured = tr.model_state_bytes(true);
        let formula = formula_state_bytes(&Optimizer::Adam(AdamConfig::default()), phi, tr.nnz() as u64);
        if measured != formula {
            mismatches += 1;
        }
        if update || t + 1 == steps {
            phases.push(Phase {
                t,
                sparsity,
                nnz: tr.nnz(),
                measured_bytes: measured,
                formula_bytes: formula,
            });
        }
    }
    (phases, mismatches, phi as usize, tr.remap_events())
}

/// The naive migration the remap kernel replaces: scatter every
/// compressed array (θ32, ∇θ32, both Adam moments, ∇θ16) to a freshly
/// allocated dense buffer, then gather at the new indices — 2φ-element
/// detours and fresh allocations per array per event. Returns the
/// migrated compressed arrays so the caller can keep alternating
/// directions honestly.
#[allow(clippy::type_complexity)]
fn naive_migrate(
    numel: usize,
    old_ind: &[u32],
    new_ind: &[u32],
    f32s: &[Vec<f32>; 4],
    g16: &[F16],
) -> ([Vec<f32>; 4], Vec<F16>) {
    let migrated = std::array::from_fn(|k| {
        let mut dense = vec![0.0f32; numel];
        for (i, &ix) in old_ind.iter().enumerate() {
            dense[ix as usize] = f32s[k][i];
        }
        new_ind.iter().map(|&ix| dense[ix as usize]).collect()
    });
    let mut dense16 = vec![F16::ZERO; numel];
    for (i, &ix) in old_ind.iter().enumerate() {
        dense16[ix as usize] = g16[i];
    }
    let g = new_ind.iter().map(|&ix| dense16[ix as usize]).collect();
    (migrated, g)
}

/// Times the in-place remap kernel vs the naive rebuild across a
/// sparsify → densify round trip and a flat-sparsity churn round trip.
fn bench_remap(quick: bool) -> (usize, Vec<Transition>) {
    let side = if quick { 512 } else { 1024 };
    let numel = side * side;
    let shape = [side, side];
    let values: Vec<f32> = (0..numel).map(|i| ((i as f32) * 0.61).sin()).collect();
    let opt = Optimizer::Adam(AdamConfig::default());
    // Schedule-realistic transitions: magnitude masks are nested
    // (sparsify drops the smallest survivors, densify regrows), and the
    // churn mask is what the actual prune-and-regrow policy emits at a
    // flat sparsity — transitions share most of their support, exactly
    // like the trainer's remap events.
    let m50 = prune::magnitude_prune(&values, &shape, 0.5);
    let m90 = prune::magnitude_prune(&values, &shape, 0.9);
    let score: Vec<f32> = (0..numel).map(|i| values[(i + numel / 2) % numel]).collect();
    let m50b = MomentumPruneRegrow::new(vec![(0, 0.5)], 1, 0.1).next_mask(0, &values, &score, &m50);

    let mut layer = SamoLayerState::from_params(&values, m50.clone(), &opt);
    let mut scratch = RemapScratch::for_layer(&mut layer, &opt);
    // Warm both directions so capacities and caches are steady.
    let _ = layer.remap_compressed_state(m90.clone(), &mut scratch);
    let _ = layer.remap_compressed_state(m50.clone(), &mut scratch);

    let (best_of, reps) = if quick { (3, 4) } else { (5, 8) };
    let mut out = Vec::new();
    for (name, a, b) in [
        ("sparsify+densify", &m90, &m50),
        ("churn@0.5", &m50b, &m50),
    ] {
        // Round trip per rep keeps the layer's mask back at `b` so each
        // rep does identical work; per-remap time is half the pair.
        let pair_ms = sample(best_of, reps, || {
            let _ = layer.remap_compressed_state(a.clone(), &mut scratch);
            let _ = layer.remap_compressed_state(b.clone(), &mut scratch);
        })
        .best_ms;

        // Naive baseline over the same transition pair: the same five
        // compressed arrays the kernel moves (θ32, ∇θ32, m, v, ∇θ16)
        // migrated via a dense detour with fresh allocations.
        let mut cur: [Vec<f32>; 4] = std::array::from_fn(|k| {
            b.indices().iter().map(|&ix| values[ix as usize] + k as f32).collect()
        });
        let mut cur16: Vec<F16> = b
            .indices()
            .iter()
            .map(|&ix| F16::from_f32(values[ix as usize]))
            .collect();
        let naive_pair_ms = sample(best_of, reps, || {
            let (fwd, fwd16) = naive_migrate(
                numel,
                b.indices().as_slice(),
                a.indices().as_slice(),
                &cur,
                &cur16,
            );
            (cur, cur16) = naive_migrate(
                numel,
                a.indices().as_slice(),
                b.indices().as_slice(),
                &fwd,
                &fwd16,
            );
        })
        .best_ms;

        out.push(Transition {
            name,
            from_nnz: b.nnz(),
            to_nnz: a.nnz(),
            remap_ms: pair_ms / 2.0,
            rebuild_ms: naive_pair_ms / 2.0,
            speedup: naive_pair_ms / pair_ms,
        });
    }
    (numel, out)
}

pub fn run(quick: bool) -> Result<(), String> {
    telemetry::log_info!("repro dynamic: trajectory memory gate + remap kernel bench (quick={quick})");

    // --- Trajectory: measured bytes track 24(1−p(t))φ + 2φ. ----------
    let (phases, mismatches, phi, remap_events) = run_trajectory(quick);
    let mut tab = Table::new(
        "repro dynamic: schedule trajectory",
        &["t", "target p(t)", "nnz", "measured B", "formula B"],
    );
    for p in &phases {
        tab.push(vec![
            p.t.to_string(),
            format!("{:.3}", p.sparsity),
            p.nnz.to_string(),
            p.measured_bytes.to_string(),
            p.formula_bytes.to_string(),
        ]);
    }
    println!("{}", tab.render());

    // --- Remap kernel vs naive rebuild. -------------------------------
    let (numel, transitions) = bench_remap(quick);
    let mut tab = Table::new(
        "repro dynamic: remap kernel",
        &["transition", "nnz from->to", "remap ms", "rebuild ms", "speedup"],
    );
    for tr in &transitions {
        tab.push(vec![
            tr.name.to_string(),
            format!("{}->{}", tr.from_nnz, tr.to_nnz),
            format!("{:.3}", tr.remap_ms),
            format!("{:.3}", tr.rebuild_ms),
            format!("{:.2}x", tr.speedup),
        ]);
    }
    println!("{}", tab.render());

    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("phi", Json::UInt(phi as u64)),
        ("remap_events", Json::UInt(remap_events)),
        ("memory_mismatches", Json::UInt(mismatches)),
        (
            "trajectory",
            Json::Arr(
                phases
                    .iter()
                    .map(|p| {
                        obj([
                            ("t", Json::UInt(p.t)),
                            ("sparsity", round6(p.sparsity)),
                            ("nnz", Json::UInt(p.nnz as u64)),
                            ("measured_bytes", Json::UInt(p.measured_bytes)),
                            ("formula_bytes", Json::UInt(p.formula_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "remap",
            obj([
                ("numel", Json::UInt(numel as u64)),
                (
                    "transitions",
                    Json::Arr(
                        transitions
                            .iter()
                            .map(|t| {
                                obj([
                                    ("name", Json::Str(t.name.to_string())),
                                    ("from_nnz", Json::UInt(t.from_nnz as u64)),
                                    ("to_nnz", Json::UInt(t.to_nnz as u64)),
                                    ("remap_ms", round6(t.remap_ms)),
                                    ("rebuild_ms", round6(t.rebuild_ms)),
                                    ("speedup_vs_rebuild", round6(t.speedup)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "min_speedup",
                    round6(transitions.iter().map(|t| t.speedup).fold(f64::INFINITY, f64::min)),
                ),
            ]),
        ),
    ]);
    harness::record("dynamic", vec![("dynamic".to_string(), section)])
}
