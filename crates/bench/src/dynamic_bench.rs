//! `repro dynamic` — dynamic sparsity (DESIGN.md §18) measured end to
//! end: a [`MaskSchedule`] drives a live [`SamoTrainer`] through a
//! sparsify leg and back down a densify leg, and at **every** step the
//! measured model-state bytes must equal the paper's closed form
//! `24(1 − p(t))φ + 2φ` for the sparsity the schedule dictates at that
//! step. The in-place `remap_compressed_state` kernel is then timed in
//! both directions (sparsify, densify, flat-sparsity churn) against the
//! naive decompress-regather migration it replaces, and one mask update
//! plus one checkpoint at the `dyn_ckpt` workload's shape is split into
//! its phases — recorded as a `dynamic` section in `BENCH_hotpaths.json`.
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
//!   no dense detour);
//! * the selection kernel must beat a full sort of the same keys at 1 M
//!   elements.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::state::RemapScratch;
use samo::trainer::formula_state_bytes;
use samo::{SamoLayerState, SamoTrainer};
use std::hint::black_box;
use telemetry::json::Json;
use tensor::f16::F16;
use tensor::Tensor;

use crate::harness::{self, obj, round6, sample};
use crate::Table;

/// Prints `rows` — JSON objects with the same keys — as a table and
/// returns them as the array the section records: every table of this
/// tracker is described once, for the terminal and for the file.
fn table(name: &str, rows: Vec<Json>) -> Json {
    if let Some(Json::Obj(first)) = rows.first() {
        let header: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        let mut tab = Table::new(name, &header);
        for row in &rows {
            let Json::Obj(fields) = row else { continue };
            let cell = |(_, v): &(String, Json)| match v {
                Json::Str(text) => text.clone(),
                other => other.render(),
            };
            tab.push(fields.iter().map(cell).collect());
        }
        println!("{}", tab.render());
    }
    Json::Arr(rows)
}

/// Drives a [`SamoTrainer`] through the full schedule window plus one
/// step of post-schedule steady state, checking measured bytes against
/// `formula_state_bytes` at every step. Returns one row per update step
/// (the schedule's target sparsity beside the measured-vs-formula
/// accounting), the count of mismatching steps, φ and the remap events.
fn run_trajectory(quick: bool) -> (Vec<Json>, u64, usize, u64) {
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
    tr.set_mask_schedule(schedule).expect("a fresh trainer lends no gradient sums");

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
            phases.push(obj([
                ("t", Json::UInt(t)),
                ("sparsity", round6(sparsity)),
                ("nnz", Json::UInt(tr.nnz() as u64)),
                ("measured_bytes", Json::UInt(measured)),
                ("formula_bytes", Json::UInt(formula)),
            ]));
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
fn bench_remap(quick: bool) -> Vec<Json> {
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

        out.push(obj([
            ("name", Json::Str(name.to_string())),
            ("from_nnz", Json::UInt(b.nnz() as u64)),
            ("to_nnz", Json::UInt(a.nnz() as u64)),
            ("remap_ms", round6(pair_ms / 2.0)),
            ("rebuild_ms", round6(naive_pair_ms / 2.0)),
            ("speedup_vs_rebuild", round6(naive_pair_ms / pair_ms)),
        ]));
    }
    out
}

/// One mask update and one checkpoint at `dyn_ckpt`'s shape (three
/// layers, φ = 1.57 M, p = 0.9 → 0.95), phase by phase — a row's `ms`
/// and bytes touched are summed over the layers — and how many times
/// faster the selection kernel is than sorting the middle layer's 1 M keys.
fn bench_mask_update(quick: bool) -> (Vec<Json>, f64) {
    let (best_of, reps) = if quick { (3, 2) } else { (5, 4) };
    let opt = Optimizer::Adam(AdamConfig::default());
    let policy = MomentumPruneRegrow::new(vec![(0, 0.9), (100, 0.95)], 16, 0.1);
    let shapes = [[1024usize, 256], [1024, 1024], [256, 1024]];
    let random = |seed: u64| -> Vec<Vec<f32>> {
        (0..3).map(|l| harness::random_vec(shapes[l][0] * shapes[l][1], seed + l as u64)).collect()
    };
    let (w, grad) = (random(31), random(41));
    let prune = |l: usize| prune::magnitude_prune(&w[l], &shapes[l], 0.9);
    let from: Vec<prune::Mask> = (0..3).map(prune).collect();
    let next = |l: usize| policy.next_mask(16, &w[l], &grad[l], &from[l]);
    let to: Vec<prune::Mask> = (0..3).map(next).collect();
    let mut layers: Vec<SamoLayerState> =
        (0..3).map(|l| SamoLayerState::from_params(&w[l], from[l].clone(), &opt)).collect();
    let mut scratch: Vec<RemapScratch> = layers.iter_mut().map(|l| RemapScratch::for_layer(l, &opt)).collect();
    let meta = samo::TrainerMeta { loss_scale: 1024.0, good_steps: 0, steps_taken: 16, steps_skipped: 0 };
    let saved = samo::serialize::save_checkpoint(&layers, &meta);

    let phi: usize = w.iter().map(Vec::len).sum();
    let (nnz, keep): (usize, usize) = (from.iter().map(|m| m.nnz()).sum(), to.iter().map(|m| m.nnz()).sum());
    let (mut half, mut score) = (vec![F16::ZERO; 1 << 20], vec![0.0f32; 1 << 20]);
    let mut rows = Vec::new();
    let mut row = |name: &str, bytes: usize, calls: f64, f: &mut dyn FnMut()| {
        let ms = sample(best_of, reps, &mut *f).best_ms / calls;
        let gbps = round6(bytes as f64 / ms / 1e6);
        rows.push(obj([("name", Json::Str(name.into())), ("ms", round6(ms)), ("gbps", gbps)]));
    };
    row("canonicalise", 12 * phi, 1.0, &mut || {
        for g in &grad {
            tensor::ops::narrow_into(g, &mut half[..g.len()]);
            tensor::ops::widen_into(&half[..g.len()], &mut score[..g.len()]);
        }
    });
    row("next_mask", 8 * phi + 4 * (nnz + keep), 1.0, &mut || (0..3).for_each(|l| drop(black_box(next(l)))));
    row("magnitude_prune", 4 * phi + 4 * nnz, 1.0, &mut || (0..3).for_each(|l| drop(black_box(prune(l)))));
    // There and back, so every rep starts from the same mask; θ32, ∇θ32,
    // both moments and ∇θ16 are read under one index and written under the other.
    row("remap_kernel", 18 * (nnz + keep), 2.0, &mut || {
        for l in 0..3 {
            layers[l].remap_compressed_state(to[l].clone(), &mut scratch[l]);
            layers[l].remap_compressed_state(from[l].clone(), &mut scratch[l]);
        }
    });
    row("save", saved.len(), 1.0, &mut || drop(black_box(samo::serialize::save_checkpoint(&layers, &meta))));
    row("load", saved.len(), 1.0, &mut || drop(black_box(samo::serialize::load_checkpoint(&saved, &opt))));
    let sort = || {
        let mut order: Vec<u32> = (0..w[1].len() as u32).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(prune::select::key(w[1][i as usize])), i));
        black_box(order);
    };
    let [select, sort] = harness::duel(best_of, 1, || drop(black_box(prune(1))), sort);
    (rows, sort.best_ms / select.best_ms)
}

pub fn run(quick: bool) -> Result<(), String> {
    telemetry::log_info!("repro dynamic: trajectory memory gate + remap kernel bench (quick={quick})");
    let (phases, mismatches, phi, remap_events) = run_trajectory(quick);
    // Measured bytes track 24(1−p(t))φ + 2φ.
    let trajectory = table("repro dynamic: schedule trajectory", phases);
    let transitions = table("repro dynamic: remap kernel vs rebuild", bench_remap(quick));
    let (update, select_over_sort) = bench_mask_update(quick);
    let update = table("repro dynamic: a mask update and a checkpoint at dyn_ckpt's shape", update);
    println!("selection kernel over a full sort at 1 M elements: {select_over_sort:.1}x\n");
    let section = obj([
        ("schema", Json::UInt(2)),
        ("quick", Json::Bool(quick)),
        ("phi", Json::UInt(phi as u64)),
        ("remap_events", Json::UInt(remap_events)),
        ("memory_mismatches", Json::UInt(mismatches)),
        ("trajectory", trajectory),
        ("remap", obj([("transitions", transitions)])),
        ("mask_update", obj([("select_over_sort_1m", round6(select_over_sort)), ("phases", update)])),
    ]);
    harness::record("dynamic", vec![("dynamic".to_string(), section)])
}
