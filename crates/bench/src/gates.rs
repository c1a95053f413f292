//! The perf-smoke gate table: one check per `BENCH_hotpaths.json`
//! section plus the shape checks of the two telemetry artefacts (Chrome
//! trace, `metrics.jsonl`). Every threshold is a named constant here and
//! nowhere else; each `repro <tracker>` runs its row on the section it
//! just recorded ([`crate::harness::record`]) and `repro gate <file>…`
//! runs the same rows over files on disk ([`run`]), which is what CI does.
//!
//! A check reads only the JSON it is handed, so a passing file proves the
//! same thing on any machine. Where a floor presumes the AVX2 tier, the
//! section's own `avx2_detected` decides whether it applies.

use crate::hotpaths::PATH_SWEEP;
use std::fmt::Display;
use telemetry::json::Json;
use telemetry::trace::lane;

/// AVX2 `sgemm` over its scalar twin at 256³.
pub const AVX2_SGEMM_MIN: f64 = 1.5;
/// 2:4 structured spMM over dense f32, as a kernel (`kernels`). `serve`
/// records the same ratio through its queue, at whatever batch fill the
/// load reaches, as data: a floor belongs to the kernel it describes.
pub const NM24_OVER_DENSE_MIN: f64 = 1.3;
/// int8 GEMM over f32, as a kernel (`kernels`); recorded by `serve` likewise.
pub const INT8_OVER_F32_MIN: f64 = 1.5;
/// The rows of `repro bench`'s per-layer profile of one `gpt_single` step.
pub const GPT_LAYERS: [&str; 7] = [
    "gelu",
    "attention_heads",
    "linear_qkv",
    "linear_proj",
    "linear_up",
    "linear_down",
    "layer_norm",
];
/// Vector GELU, forward and backward, over the libm `tanh` loops it
/// replaced. `softmax_rows` is recorded beside them ungated: libm's
/// `expf` is a few ns where `tanhf` is twenty, and at attention's row
/// length the max, sum and scale passes are most of what is left.
pub const VECTOR_GELU_OVER_LIBM_MIN: f64 = 4.0;
/// Batched over batch-1 serving throughput on the dense backend — the
/// continuous batcher's reason to exist.
pub const BATCH_SPEEDUP_MIN: f64 = 2.0;
/// Longest serving blackout a hot reload may cause, far below a request
/// lifetime.
pub const BLACKOUT_MAX_MS: f64 = 250.0;
/// Generations the serve drill publishes; every one must be reloaded.
pub const RELOAD_GENERATIONS: u64 = 3;
/// Distinct model steps the drill's load must observe (it saw the model
/// advance).
pub const STEPS_SEEN_MIN: usize = 2;
/// Remap events the dynamic-sparsity schedule must fire.
pub const REMAP_EVENTS_MIN: u64 = 3;
/// In-place remap over the naive dense rebuild, on every transition.
pub const REMAP_OVER_REBUILD_MIN: f64 = 1.0;
/// `prune`'s selection kernel over a full sort of the same keys, at 1 M
/// elements — the kernel's reason to exist.
pub const SELECT_OVER_SORT_MIN: f64 = 2.0;
/// Measured pipeline bubble vs Eq. 7, relative: the `pipeline` row, the
/// one Eq. 7 check, on what `repro pipeline` reads from the scheduler's
/// counters.
pub const BUBBLE_TOLERANCE: f64 = 0.05;
/// Compressed/dense ring volume vs the density `nnz/φ = 1/f`, relative:
/// byte accounting is deterministic, so only integer truncation may show.
pub const BYTE_RATIO_TOLERANCE: f64 = 0.1;
/// Framing bytes one ring message adds to its payload. At world 2 every
/// hop of an all-reduce rides at f16 (hop 0 carries the rank's own f16
/// values), so the measured wire bytes are the modeled f16 volume plus
/// this per message and nothing else.
pub const WIRE_HEADER_BYTES: u64 = comms::Payload::HEADER_BYTES;
/// Thin `A·Bᵀ` (what `Linear::forward` runs) over the packed `A·B` of
/// the same 4×2048×2048 shape — packing a transposed operand must stream.
pub const THIN_NT_OVER_NN_MAX: f64 = 1.5;
/// On AVX2, at four rows and p = 0.9: the sampled `dyᵀ·x` over the
/// streamed row blocks, the pack-free `dy·W16` over the packed one, and
/// the vector Adam sweep over the scalar loop.
pub const SAMPLED_OVER_STREAMED_MIN: f64 = 1.5;
pub const THIN_OVER_PACKED_MIN: f64 = 1.5;
pub const VECTOR_SWEEP_OVER_SCALAR_MIN: f64 = 1.8;
/// On AVX2, at `pipe2_mlp`'s cell of `path_sweep` (32 rows of a 512 × 512
/// layer at p = 0.9): `x·Wᵀ` and `dy·W` over the kept weights against
/// `sgemm`, each.
pub const KEPT_OVER_DENSE_MIN: f64 = 2.0;
/// One-row 768×768 GEMM on AVX2: the row must run in vector edge tiles.
pub const ONE_ROW_GFLOPS_MIN: f64 = 2.0;

/// A passed check's one-line summary, or what failed.
type Check = Result<String, String>;
/// A row of the table: reads its section out of the whole document.
type Row = fn(&Json) -> Check;

/// One row per `BENCH_hotpaths.json` section, in file order.
const SECTIONS: [(&str, Row); 5] = [
    ("kernels", kernels),
    ("comms", comms),
    ("pipeline", pipeline),
    ("dynamic", dynamic),
    ("serve", serve),
];

/// Runs `section`'s row of the table over the document `doc`.
pub fn check(section: &str, doc: &Json) -> Check {
    let (_, row) = SECTIONS
        .iter()
        .find(|(name, _)| *name == section)
        .ok_or_else(|| format!("no gate for section `{section}`"))?;
    if doc.get(section).is_none() {
        return Err(format!("section `{section}` is missing"));
    }
    row(doc).map_err(|e| format!("gate `{section}` failed: {e}"))
}

/// `repro gate <path>…`: a `.jsonl` path is held to the step-metrics
/// shape, a JSON document with `traceEvents` to the Chrome-trace shape,
/// and anything else to the whole section table — every section present,
/// every row passing.
pub fn run(paths: &[String]) -> Result<(), String> {
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let verdicts = if path.ends_with(".jsonl") {
            vec![("metrics", metrics(&text))]
        } else {
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if doc.get("traceEvents").is_some() {
                vec![("trace", trace(&doc))]
            } else {
                SECTIONS
                    .iter()
                    .map(|(name, _)| (*name, check(name, &doc)))
                    .collect()
            }
        };
        for (name, verdict) in verdicts {
            println!(
                "{path}: {name} OK: {}",
                verdict.map_err(|e| format!("{path}: {e}"))?
            );
        }
    }
    Ok(())
}

// ---- reading -----------------------------------------------------------

/// A JSON number of any variant (integral values parse as `UInt`/`Int`).
fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("field `{key}` is missing"))
}

/// The error for a field of the wrong JSON type.
fn not_a(kind: &str, key: &str, found: &Json) -> String {
    format!("field `{key}` is {}, not {kind}", found.render())
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    let v = get(j, key)?;
    as_f64(v).ok_or_else(|| not_a("a number", key, v))
}

fn uint(j: &Json, key: &str) -> Result<u64, String> {
    match get(j, key)? {
        Json::UInt(u) => Ok(*u),
        other => Err(not_a("an unsigned integer", key, other)),
    }
}

fn flag(j: &Json, key: &str) -> Result<bool, String> {
    match get(j, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(not_a("a boolean", key, other)),
    }
}

fn text<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    match get(j, key)? {
        Json::Str(s) => Ok(s),
        other => Err(not_a("a string", key, other)),
    }
}

/// A non-empty array field.
fn rows<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match get(j, key)? {
        Json::Arr(items) if !items.is_empty() => Ok(items),
        other => Err(not_a("a non-empty array", key, other)),
    }
}

/// The row whose `name` field is `name`.
fn named<'a>(rows: &'a [Json], name: &str) -> Result<&'a Json, String> {
    let wanted = Json::Str(name.to_string());
    let row = rows.iter().find(|r| r.get("name") == Some(&wanted));
    row.ok_or_else(|| format!("row `{name}` is missing"))
}

// ---- comparing ---------------------------------------------------------

fn at_least<T: PartialOrd + Display>(what: &str, got: T, floor: T) -> Result<(), String> {
    if got >= floor {
        Ok(())
    } else {
        Err(format!("{what}: {got} is below the floor {floor}"))
    }
}

fn at_most<T: PartialOrd + Display>(what: &str, got: T, cap: T) -> Result<(), String> {
    if got <= cap {
        Ok(())
    } else {
        Err(format!("{what}: {got} exceeds the cap {cap}"))
    }
}

fn equal<T: PartialEq + Display>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, must be exactly {want}"))
    }
}

// ---- the section rows --------------------------------------------------

fn kernels(doc: &Json) -> Check {
    equal("schema", uint(doc, "schema")?, 1)?;
    at_least("worker threads", uint(doc, "threads")?, 1)?;
    let best_of = uint(doc, "best_of")?;
    let table = rows(doc, "kernels")?;
    for k in table {
        let (name, best, rounds) = (text(k, "name")?, num(k, "best_ms")?, uint(k, "rounds")?);
        let runs: Vec<f64> = rows(k, "runs_ms")?.iter().filter_map(as_f64).collect();
        let min = runs.iter().copied().fold(f64::INFINITY, f64::min);
        // A duel whose ratio is gated runs three times the rounds.
        let allowed = [best_of, 3 * best_of];
        if best <= 0.0 || !allowed.contains(&rounds) || runs.len() as u64 != rounds || (min - best).abs() >= 1e-9 {
            let want = format!("the positive minimum of {rounds} runs {runs:?}, with {allowed:?} rounds allowed");
            return Err(format!("kernel {name}: best_ms {best} is not {want}"));
        }
    }
    let best_ms = |name: &str| num(named(table, name)?, "best_ms");
    let fused = best_ms("samo_step_fused")?;
    let reference = best_ms("samo_step_reference")?;
    at_most("fused SAMO step ms over the reference", fused, reference)?;
    let thin = best_ms("gemm_nt_4x2048x2048")? / best_ms("gemm_nn_packed_4x2048x2048")?;
    at_most(
        "thin A·Bᵀ over the packed A·B at 4x2048x2048",
        thin,
        THIN_NT_OVER_NN_MAX,
    )?;
    let dw_dense = best_ms("dw_dense_4x2048x2048")?;
    let dw_streamed = best_ms("dw_streamed_4x2048x2048")?;
    at_most("streamed dW + compress ms over the dense form", dw_streamed, dw_dense)?;
    let f32w = best_ms("fwd_dx_f32w_4x2048x2048")?;
    let f16w = best_ms("fwd_dx_f16w_4x2048x2048")?;
    at_most("forward + dx ms from θ16 over its f32 view", f16w, f32w)?;
    let one_row = num(named(table, "gemm_nn_1x768x768")?, "gflops")?;
    // The thin-batch short cuts: recorded on every tier, raced on AVX2.
    let sampled = dw_streamed / best_ms("dw_sampled_4x2048x2048")?;
    let pack_free = best_ms("gemm_nn_f16w_packed_4x2048x2048")? / best_ms("gemm_nn_f16w_thin_4x2048x2048")?;
    let sweep = best_ms("optimizer_sweep_210k_scalar")? / best_ms("optimizer_sweep_210k_vector")?;
    for probe in ["stream_copy", "stream_read_f16"] {
        at_least(&format!("{probe} GB/s"), num(named(table, probe)?, "gb_s")?, f64::MIN_POSITIVE)?;
    }
    let paths = get(doc, "path_sweep")?;
    for family in &PATH_SWEEP {
        equal(&format!("path_sweep {} cells", family.key), rows(paths, family.key)?.len(), family.cells())?;
    }
    // `pipe2_mlp`'s cell of each product's family: dense over kept.
    let kept_cell = |key: &str| -> Result<f64, String> {
        let cells = rows(paths, key)?;
        let pipe = cells.iter().find(|c| c.get("rows") == Some(&Json::UInt(32)) && c.get("density") == Some(&Json::Num(0.1)));
        let pipe = pipe.ok_or_else(|| format!("path_sweep {key}: the 32-row cell at density 0.1 is missing"))?;
        let ms = get(pipe, "ms")?;
        Ok(num(ms, "Packed")? / num(ms, "Kept")?)
    };
    let (kept_xwt, kept_dyw) = (kept_cell("xwt")?, kept_cell("dyw")?);
    // The tiers and formats at 256³, against the active tier's `sgemm`.
    let avx2 = flag(doc, "avx2_detected")?;
    let tier = text(doc, "active_tier")?;
    if avx2 && tier != "avx2" {
        return Err(format!("AVX2 detected but the active tier is {tier}"));
    }
    let dense = best_ms(&format!("sgemm_256_{tier}"))?;
    let sgemm = best_ms("sgemm_256_scalar")? / best_ms("sgemm_256_avx2")?;
    let (nm24, int8) = (dense / best_ms("spmm_nm24_256")?, dense / best_ms("qgemm_int8_256")?);
    let csr = dense / best_ms("spmm_csr_256")?;
    let vector = |kernel: &str| Ok::<_, String>(best_ms(&format!("{kernel}_libm"))? / best_ms(&format!("{kernel}_vector"))?);
    let (gelu_fwd, gelu_bwd, softmax) = (vector("gelu_fwd")?, vector("gelu_bwd")?, vector("softmax_rows")?);
    // Scalar-vs-scalar ratios are 1x by construction: the floors that
    // presume the AVX2 tier bind where it is detected.
    if avx2 {
        at_least("AVX2 sgemm_256 over scalar", sgemm, AVX2_SGEMM_MIN)?;
        at_least("2:4 spMM over dense sgemm", nm24, NM24_OVER_DENSE_MIN)?;
        at_least("int8 qgemm over f32 sgemm", int8, INT8_OVER_F32_MIN)?;
        for (name, speedup) in [("gelu_fwd", gelu_fwd), ("gelu_bwd", gelu_bwd)] {
            at_least(&format!("vector {name} over its libm loop"), speedup, VECTOR_GELU_OVER_LIBM_MIN)?;
        }
        at_least(
            "1x768x768 GEMM GFLOP/s on AVX2",
            one_row,
            ONE_ROW_GFLOPS_MIN,
        )?;
        at_least("sampled dW over the streamed blocks on AVX2", sampled, SAMPLED_OVER_STREAMED_MIN)?;
        at_least("pack-free dy·W16 over the packed one on AVX2", pack_free, THIN_OVER_PACKED_MIN)?;
        at_least("vector Adam sweep over the scalar loop on AVX2", sweep, VECTOR_SWEEP_OVER_SCALAR_MIN)?;
        for (key, ratio) in [("xwt", kept_xwt), ("dyw", kept_dyw)] {
            at_least(&format!("kept {key} over sgemm at 32x512x512, p = 0.9, on AVX2"), ratio, KEPT_OVER_DENSE_MIN)?;
        }
    }
    // The per-layer profile of the compute-bound step is a record, not a
    // race: held to its shape only. A `Linear` is timed twice, from its
    // f32 value and from the lent θ16 and index `gpt_single` runs.
    let profile = get(doc, "gpt_layers")?;
    let (sum, step) = (num(profile, "sum_ms")?, num(profile, "step_ms")?);
    at_least("gpt_layers whole-step ms", step, f64::MIN_POSITIVE)?;
    let layers = rows(profile, "layers")?;
    for name in GPT_LAYERS {
        let layer = named(layers, name)?;
        let forms = if name.starts_with("linear_") { ["", "lent_"].as_slice() } else { &[""] };
        for form in forms {
            let (fwd, both) = (num(layer, &format!("{form}fwd_ms"))?, num(layer, &format!("{form}fwd_bwd_ms"))?);
            at_least(&format!("gpt_layers {name} {form}forward ms"), fwd, 0.0)?;
            at_least(&format!("gpt_layers {name} {form}forward + backward ms over forward"), both, fwd)?;
        }
    }
    let n = table.len();
    let floors = if avx2 { "AVX2 floors held" } else { "avx2 not detected, AVX2 floors skipped" };
    Ok(format!(
        "{n} kernels, {floors}, gpt layers {sum:.2} of a {step:.2} ms step, \
         fused step {fused:.4} ms <= reference {reference:.4} ms, \
         streamed dW {dw_streamed:.4} ms <= dense {dw_dense:.4} ms, \
         fwd + dx from θ16 {f16w:.4} ms <= from f32 {f32w:.4} ms, \
         thin NT/NN {thin:.2}, 1-row {one_row:.2} GFLOP/s, \
         sampled dW {sampled:.2}x, pack-free dy·W16 {pack_free:.2}x, vector sweep {sweep:.2}x, \
         kept x·Wᵀ {kept_xwt:.2}x and dy·W {kept_dyw:.2}x at 32x512x512, \
         sgemm {sgemm:.1}x scalar, 2:4 {nm24:.2}x, CSR {csr:.2}x and int8 {int8:.2}x dense, \
         vector gelu {gelu_fwd:.1}x / {gelu_bwd:.1}x libm (softmax_rows {softmax:.2}x)"
    ))
}

fn comms(doc: &Json) -> Check {
    let s = get(doc, "comms")?;
    let density = num(s, "nnz")? / num(s, "phi")?;
    let mut runs = Vec::new();
    for w in rows(s, "worlds")? {
        let (transport, world) = (text(w, "transport")?, uint(w, "world")?);
        let at = format!("{transport} world {world}");
        if !flag(w, "bitwise_equal")? {
            return Err(format!("{at}: reduced bits diverged from the oracle"));
        }
        let ratio = num(w, "compressed_model_bytes")? / num(w, "dense_model_bytes")?;
        let what = format!("{at}: ring bytes at {ratio} of dense vs density {density}, relative error");
        at_most(&what, (ratio - density).abs() / density, BYTE_RATIO_TOLERANCE)?;
        for size in ["dense", "compressed"] {
            let (wire, model) = (uint(w, &format!("{size}_wire_bytes"))?, uint(w, &format!("{size}_model_bytes"))?);
            at_least(&format!("{at}: {size} wire bytes over modeled f16 bytes"), wire, model)?;
            if world == 2 {
                // One reduce-scatter and one all-gather message per rank.
                let what = format!("{at}: {size} wire bytes over modeled f16 bytes plus two headers");
                at_most(&what, wire, model + 2 * WIRE_HEADER_BYTES)?;
            }
            if num(w, &format!("{size}_best_ms"))? <= 0.0 {
                return Err(format!("{at}: the {size} run recorded no time"));
            }
        }
        runs.push((transport, world));
    }
    for transport in ["inproc", "tcp"] {
        if !runs.iter().any(|(t, _)| *t == transport) {
            return Err(format!("no {transport} run recorded"));
        }
    }
    // A step's collectives bucketed keep every bit and send one message
    // per phase: at world 2, two per tensor one at a time, two bucketed.
    let e = get(s, "step")?;
    if !flag(e, "bitwise_equal")? {
        return Err("step: bucketed collectives diverged from per-parameter ones".into());
    }
    let tensors = uint(e, "tensors")?;
    for (key, want) in [("per_param_msgs_per_rank", 2 * tensors), ("bucketed_msgs_per_rank", 2)] {
        let msgs = uint(e, key)?;
        if msgs != want {
            return Err(format!("step: {key} {msgs}, want {want}"));
        }
    }
    let runs: Vec<String> = runs.iter().map(|(transport, world)| format!("{transport} {world}")).collect();
    Ok(format!(
        "{}: bits equal to the oracle, ring volume at 1/f = {density:.4} of dense; \
         a step of {tensors} tensors bucketed = per-parameter bits in 2 messages",
        runs.join(", ")
    ))
}

fn pipeline(doc: &Json) -> Check {
    let mut depths = Vec::new();
    for d in rows(get(doc, "pipeline")?, "depths")? {
        let g = uint(d, "g_inter")?;
        let measured = num(d, "measured_bubble_fraction")?;
        let analytic = num(d, "analytic_bubble_fraction")?;
        let what =
            format!("g_inter {g}: measured bubble {measured} vs Eq. 7 {analytic}, relative error");
        at_most(&what, num(d, "rel_err")?, BUBBLE_TOLERANCE)?;
        depths.push(g);
    }
    Ok(format!(
        "depths {depths:?}, bubble within {BUBBLE_TOLERANCE} of Eq. 7"
    ))
}

fn dynamic(doc: &Json) -> Check {
    let s = get(doc, "dynamic")?;
    let mismatches = uint(s, "memory_mismatches")?;
    equal("steps off 24(1-p)phi + 2phi", mismatches, 0)?;
    at_least(
        "remap events fired",
        uint(s, "remap_events")?,
        REMAP_EVENTS_MIN,
    )?;
    let mut nnz = Vec::new();
    for p in rows(s, "trajectory")? {
        let what = format!("t = {}: state bytes vs 24(1-p)phi + 2phi", uint(p, "t")?);
        equal(&what, uint(p, "measured_bytes")?, uint(p, "formula_bytes")?)?;
        nnz.push(uint(p, "nnz")?);
    }
    // Schedules that only clamp are not dynamic sparsity.
    if !nnz.windows(2).any(|w| w[1] < w[0]) || !nnz.windows(2).any(|w| w[1] > w[0]) {
        return Err(format!(
            "nnz trajectory never moved in both directions: {nnz:?}"
        ));
    }
    let mut slowest = f64::INFINITY;
    for t in rows(get(s, "remap")?, "transitions")? {
        let speedup = num(t, "speedup_vs_rebuild")?;
        let what = format!(
            "{}: in-place remap over the dense rebuild",
            text(t, "name")?
        );
        at_least(&what, speedup, REMAP_OVER_REBUILD_MIN)?;
        slowest = slowest.min(speedup);
    }
    let select = num(get(s, "mask_update")?, "select_over_sort_1m")?;
    at_least("selection kernel over a full sort at 1 M elements", select, SELECT_OVER_SORT_MIN)?;
    let n = nnz.len();
    Ok(format!(
        "{n} phases exact, nnz {nnz:?}, remap >= {slowest:.2}x vs rebuild, select {select:.1}x vs sort"
    ))
}

fn serve(doc: &Json) -> Check {
    let s = get(doc, "serve")?;
    // Reload gates hold on every tier: a reload may never fail a request,
    // every published generation must land, the load must see the model
    // advance, and the blackout must stay far below a request lifetime.
    let rel = get(s, "reload")?;
    equal(
        "requests failed by a hot reload",
        uint(rel, "requests_failed")?,
        0,
    )?;
    at_least(
        "generations reloaded",
        uint(rel, "reloads")?,
        RELOAD_GENERATIONS,
    )?;
    let steps_seen = rows(rel, "steps_seen")?.len();
    at_least("model steps seen under load", steps_seen, STEPS_SEEN_MIN)?;
    let blackout = num(rel, "max_blackout_ms")?;
    at_most("reload blackout ms", blackout, BLACKOUT_MAX_MS)?;
    let reloads = format!("blackout <= {blackout:.2} ms, 0 failed");
    if !flag(s, "avx2_detected")? {
        // Scalar matvec vs scalar matmul is not what the floor is about.
        return Ok(format!(
            "avx2 not detected, throughput gate skipped; {reloads}"
        ));
    }
    // What serving adds to the kernels is the batcher. The backend ratios
    // are the `kernels` row's floors re-measured through a queue at
    // the fill the load happens to reach: recorded, reported, not gated.
    let batch = num(s, "batch_speedup")?;
    at_least(
        "batched over batch-1 serving (dense)",
        batch,
        BATCH_SPEEDUP_MIN,
    )?;
    let (nm24, int8) = (num(s, "nm24_over_dense")?, num(s, "int8_over_dense")?);
    Ok(format!(
        "batch {batch:.2}x, {reloads}; recorded: nm24 {nm24:.2}x, int8 {int8:.2}x dense"
    ))
}

// ---- telemetry artefacts -----------------------------------------------

/// Chrome `trace_event` shape: complete slices and paired flow arrows
/// only — every id started and finished exactly once (a healthy run
/// drops no message), and at least one pair where a live mesh ran
/// (comms or pipeline events) — and one lane per simulated GPU on pid 0.
fn trace(doc: &Json) -> Check {
    let events = rows(doc, "traceEvents")?;
    let (mut starts, mut finishes, mut lanes) = (Vec::new(), Vec::new(), Vec::new());
    let mut meshed = false;
    for e in events {
        let ph = text(e, "ph")?;
        let required: &[&str] = match ph {
            "X" => &["name", "pid", "tid", "ts", "dur"],
            "s" | "f" => &["name", "cat", "id", "pid", "tid", "ts"],
            other => return Err(format!("unexpected event phase `{other}`: {}", e.render())),
        };
        for key in required {
            get(e, key).map_err(|err| format!("{err} in {}", e.render()))?;
        }
        // Flow events: paired causal arrows, no duration.
        if ph != "X" && (e.get("dur").is_some() || (ph == "f" && text(e, "bp") != Ok("e"))) {
            return Err(format!("malformed flow event {}", e.render()));
        }
        match ph {
            "s" => starts.push(uint(e, "id")?),
            "f" => finishes.push(uint(e, "id")?),
            _ => {}
        }
        match uint(e, "pid")? {
            lane::SIMULATED => lanes.push(uint(e, "tid")?),
            lane::COMMS | lane::PIPELINE => meshed = true,
            _ => {}
        }
    }
    lanes.sort_unstable();
    lanes.dedup();
    if lanes != [0, 1, 2] {
        return Err(format!(
            "expected one pid-0 lane per simulated GPU, got {lanes:?}"
        ));
    }
    starts.sort_unstable();
    finishes.sort_unstable();
    let (n, pairs) = (events.len(), starts.len());
    if starts != finishes || starts.windows(2).any(|w| w[0] == w[1]) {
        let census = format!("{pairs} starts, {} finishes", finishes.len());
        return Err(format!(
            "flow ids must pair start/finish exactly once: {census}"
        ));
    }
    if meshed {
        at_least("flow pairs in a live trace", pairs, 1)?;
    }
    Ok(format!(
        "{n} events, pipeline lanes {lanes:?}, {pairs} flow pairs"
    ))
}

/// `metrics.jsonl` shape: one known record kind per line, and every
/// trainer step's measured state bytes equal to the paper's closed form
/// wherever the record carries one.
fn metrics(jsonl: &str) -> Check {
    let (mut records, mut mesh) = (0u64, 0u64);
    for line in jsonl.lines() {
        let rec = Json::parse(line)?;
        let bad = |what: &str| format!("{what}: {line}");
        records += 1;
        match text(&rec, "kind")? {
            "mesh_metrics" => {
                // A thread group's step: every rank's step record, and the
                // median and the largest of their windows.
                mesh += 1;
                let ranks = uint(&rec, "ranks")?;
                let (median, max) = (num(&rec, "median_us")?, num(&rec, "max_us")?);
                let per_rank = rows(&rec, "per_rank")?;
                let window = |r: &Json| match text(r, "kind")? {
                    "step" => num(r, "window_us"),
                    _ => Err(bad("a mesh_metrics entry that is not a step record")),
                };
                let widest = per_rank.iter().map(window).try_fold(0.0, |w, r| r.map(|r| f64::max(w, r)))?;
                if ranks < 1 || per_rank.len() as u64 != ranks || median <= 0.0 || max < median || max != widest {
                    return Err(bad("inconsistent mesh_metrics record"));
                }
            }
            "link_event" => {
                // TCP heartbeat misses / peer deaths / reconnects.
                uint(&rec, "rank")?;
                if text(&rec, "event")?.is_empty() {
                    return Err(bad("link_event without an event"));
                }
            }
            "step" => {
                // Every training runtime writes this one record.
                if text(&rec, "runtime")?.is_empty() {
                    return Err(bad("step record without a runtime"));
                }
                let formula = get(&rec, "formula_state_bytes")?;
                if formula != &Json::Null && get(&rec, "model_state_bytes")? != formula {
                    return Err(bad("measured state bytes differ from 24(1-p)phi + 2phi"));
                }
            }
            _ => return Err(bad("unknown record kind")),
        }
    }
    at_least("records in metrics.jsonl", records, 1)?;
    Ok(format!("{records} records ({mesh} mesh_metrics)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracked file as committed: every row must pass it unchanged.
    fn committed() -> Json {
        Json::parse(include_str!("../../../BENCH_hotpaths.json")).expect("tracked file parses")
    }

    /// The value at `path` (array positions spelled as numbers).
    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |j, key| match j {
            Json::Obj(fields) => {
                let field = fields.iter_mut().find(|(k, _)| k == key);
                &mut field.unwrap_or_else(|| panic!("no field `{key}`")).1
            }
            Json::Arr(items) => &mut items[key.parse::<usize>().expect("array position")],
            _ => panic!("cannot descend into a scalar at `{key}`"),
        })
    }

    /// The committed document with the value at `path` replaced.
    fn doctored(path: &[&str], value: Json) -> Json {
        let mut doc = committed();
        *at(&mut doc, path) = value;
        doc
    }

    /// `section`'s row must reject `doc` with a message naming the gate
    /// and every one of `mentions` (the offending number and its bound).
    fn rejects(section: &str, doc: &Json, mentions: &[&str]) {
        let err = check(section, doc).expect_err("doctored section must fail");
        assert!(err.contains(&format!("gate `{section}` failed")), "{err}");
        for m in mentions {
            assert!(err.contains(m), "`{m}` not named in: {err}");
        }
    }

    /// Sets a kernel row's time, keeping `best_ms = min(runs_ms)`.
    fn set_kernel_ms(doc: &mut Json, name: &str, ms: f64) {
        let Json::Arr(table) = at(doc, &["kernels"]) else {
            panic!("kernels is an array")
        };
        let row = table
            .iter_mut()
            .find(|r| r.get("name") == Some(&Json::Str(name.into())))
            .unwrap_or_else(|| panic!("no kernel {name}"));
        let runs = rows(row, "runs_ms").unwrap().len();
        *at(row, &["best_ms"]) = Json::Num(ms);
        *at(row, &["runs_ms"]) = Json::Arr(vec![Json::Num(ms); runs]);
    }

    #[test]
    fn committed_file_passes_every_row() {
        let doc = committed();
        for (section, _) in SECTIONS {
            check(section, &doc).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn a_missing_section_is_named() {
        let Json::Obj(mut fields) = committed() else {
            panic!("document is an object")
        };
        fields.retain(|(k, _)| k != "comms");
        let err = check("comms", &Json::Obj(fields)).unwrap_err();
        assert_eq!(err, "section `comms` is missing");
    }

    #[test]
    fn kernels_row_holds_shape_fused_step_and_thin_gemms() {
        rejects(
            "kernels",
            &doctored(&["schema"], Json::UInt(2)),
            &["schema", "2", "1"],
        );
        rejects(
            "kernels",
            &doctored(&["threads"], Json::UInt(0)),
            &["threads", "0"],
        );
        rejects(
            "kernels",
            &doctored(&["best_of"], Json::UInt(99)),
            &["[99, 297] rounds allowed"],
        );
        // A row's rounds are its recorded runs, best_of or a duel's three times that.
        rejects("kernels", &doctored(&["kernels", "0", "rounds"], Json::UInt(4)), &["4 runs", "[3, 9]"]);
        rejects("kernels", &doctored(&["kernels", "0", "rounds"], Json::UInt(9)), &["9 runs", "[3, 9]"]);
        rejects(
            "kernels",
            &doctored(&["kernels", "0", "best_ms"], Json::Num(1e-7)),
            &["minimum"],
        );

        rejects(
            "kernels",
            &doctored(&["gpt_layers", "layers", "0", "name"], Json::Str("relu".into())),
            &["gelu"],
        );
        rejects(
            "kernels",
            &doctored(&["gpt_layers", "layers", "1", "fwd_bwd_ms"], Json::Num(0.0)),
            &["attention_heads", "forward + backward"],
        );
        rejects(
            "kernels",
            &doctored(&["gpt_layers", "layers", "2", "lent_fwd_bwd_ms"], Json::Num(0.0)),
            &["linear_qkv", "lent_forward + backward"],
        );

        let reference = num(
            named(
                rows(&committed(), "kernels").unwrap(),
                "samo_step_reference",
            )
            .unwrap(),
            "best_ms",
        )
        .unwrap();
        let mut doc = committed();
        set_kernel_ms(&mut doc, "samo_step_fused", reference * 2.0);
        rejects(
            "kernels",
            &doc,
            &[
                "fused",
                &format!("{}", reference * 2.0),
                &format!("{reference}"),
            ],
        );

        let mut doc = committed();
        set_kernel_ms(&mut doc, "dw_dense_4x2048x2048", 2.0);
        set_kernel_ms(&mut doc, "dw_streamed_4x2048x2048", 2.25);
        rejects("kernels", &doc, &["streamed dW", "2.25", "2"]);

        let mut doc = committed();
        set_kernel_ms(&mut doc, "fwd_dx_f32w_4x2048x2048", 4.0);
        set_kernel_ms(&mut doc, "fwd_dx_f16w_4x2048x2048", 4.5);
        rejects("kernels", &doc, &["from θ16", "4.5", "4"]);

        let mut doc = committed();
        set_kernel_ms(&mut doc, "gemm_nn_packed_4x2048x2048", 1.0);
        set_kernel_ms(&mut doc, "gemm_nt_4x2048x2048", 1.51);
        rejects("kernels", &doc, &["A·Bᵀ", "1.51", "1.5"]);

        // The thin-batch floors bind on the AVX2 tier only.
        let floors = [
            ("dw_streamed_4x2048x2048", "dw_sampled_4x2048x2048", "sampled dW", 1.49),
            ("gemm_nn_f16w_packed_4x2048x2048", "gemm_nn_f16w_thin_4x2048x2048", "pack-free", 1.49),
            ("optimizer_sweep_210k_scalar", "optimizer_sweep_210k_vector", "vector Adam sweep", 1.79),
        ];
        for (slow, fast, what, ratio) in floors {
            let mut doc = committed();
            set_kernel_ms(&mut doc, "dw_dense_4x2048x2048", 9.0);
            set_kernel_ms(&mut doc, slow, ratio);
            set_kernel_ms(&mut doc, fast, 1.0);
            rejects("kernels", &doc, &[what, &format!("{ratio}")]);
            on_a_scalar_box(&mut doc);
            check("kernels", &doc).expect("the scalar tier records the short cuts and races none");
        }
        // Every family has the cells of the grid, no more.
        for family in &PATH_SWEEP {
            let Json::Arr(mut cells) = at(&mut committed(), &["path_sweep", family.key]).clone() else {
                panic!("path_sweep.{} is an array", family.key)
            };
            assert_eq!(cells.len(), family.cells(), "path_sweep.{}", family.key);
            cells.push(cells[0].clone());
            let doc = doctored(&["path_sweep", family.key], Json::Arr(cells));
            let (got, want) = ((family.cells() + 1).to_string(), family.cells().to_string());
            rejects("kernels", &doc, &[&format!("path_sweep {}", family.key), &got, &want]);
        }

        // The kept products: `pipe2_mlp`'s cell raced on the AVX2 tier only.
        for key in ["xwt", "dyw"] {
            let Json::Arr(cells) = at(&mut committed(), &["path_sweep", key]).clone() else {
                panic!("path_sweep.{key} is an array")
            };
            let pipe = |c: &Json| c.get("rows") == Some(&Json::UInt(32)) && c.get("density") == Some(&Json::Num(0.1));
            let cell = cells.iter().position(pipe).expect("the 32-row cell at p = 0.9").to_string();
            let mut doc = committed();
            *at(&mut doc, &["path_sweep", key, &cell, "ms", "Packed"]) = Json::Num(1.99);
            *at(&mut doc, &["path_sweep", key, &cell, "ms", "Kept"]) = Json::Num(1.0);
            rejects("kernels", &doc, &[&format!("kept {key}"), "1.99", "2"]);
            on_a_scalar_box(&mut doc);
            check("kernels", &doc).expect("the scalar tier records the kept products and races none");
        }

        // The one-row floor binds on the AVX2 tier only.
        let row1 = rows(&committed(), "kernels")
            .unwrap()
            .iter()
            .position(|k| k.get("name") == Some(&Json::Str("gemm_nn_1x768x768".into())))
            .unwrap()
            .to_string();
        let mut doc = doctored(&["kernels", &row1, "gflops"], Json::Num(1.99));
        rejects("kernels", &doc, &["1x768x768", "1.99", "2"]);
        on_a_scalar_box(&mut doc);
        check("kernels", &doc).expect("scalar tier skips the one-row floor");
    }

    /// The document as a box without AVX2 would record it.
    fn on_a_scalar_box(doc: &mut Json) {
        *at(doc, &["avx2_detected"]) = Json::Bool(false);
        *at(doc, &["active_tier"]) = Json::Str("scalar".into());
    }

    #[test]
    fn kernels_row_holds_the_tier_and_format_floors_where_avx2_is_detected() {
        // The row reads the tier its own run recorded, from no other section.
        let doc = committed();
        assert!(doc.get("simd").is_none(), "no `simd` section is left to read");
        let gated = rows(&doc, "kernels").unwrap().iter().filter(|k| k.get("rounds") == Some(&Json::UInt(9)));
        assert!(gated.count() >= 8, "the tier, format and vector duels run 3 x best_of rounds");

        let floors = [
            ("sgemm_256_scalar", "sgemm_256_avx2", &["sgemm_256", "1.49", "1.5"][..], 1.49),
            ("sgemm_256_avx2", "spmm_nm24_256", &["2:4", "1.29", "1.3"], 1.29),
            ("sgemm_256_avx2", "qgemm_int8_256", &["int8", "1.49", "1.5"], 1.49),
            ("gelu_fwd_libm", "gelu_fwd_vector", &["gelu_fwd", "libm", "3.99", "4"], 3.99),
            ("gelu_bwd_libm", "gelu_bwd_vector", &["gelu_bwd", "libm", "3.99", "4"], 3.99),
        ];
        for (slow, fast, mentions, ratio) in floors {
            let mut doc = committed();
            set_kernel_ms(&mut doc, slow, ratio);
            set_kernel_ms(&mut doc, fast, 1.0);
            rejects("kernels", &doc, mentions);
            on_a_scalar_box(&mut doc);
            let summary = check("kernels", &doc).expect("no AVX2, no tier ratio to gate");
            assert!(summary.contains("skipped"), "{summary}");
        }
        // softmax_rows is a recorded row: it has to be there, at any ratio.
        let mut doc = committed();
        set_kernel_ms(&mut doc, "softmax_rows_libm", 0.9);
        set_kernel_ms(&mut doc, "softmax_rows_vector", 1.0);
        check("kernels", &doc).expect("the softmax_rows ratio is data");
        let vector = rows(&doc, "kernels").unwrap().iter().position(|k| k.get("name") == Some(&Json::Str("softmax_rows_vector".into())));
        let gone = doctored(&["kernels", &vector.unwrap().to_string(), "name"], Json::Str("other".into()));
        rejects("kernels", &gone, &["softmax_rows_vector"]);
        rejects("kernels", &doctored(&["active_tier"], Json::Str("scalar".into())), &["active tier is scalar"]);
    }

    /// The position of `transport`'s run at `world` in the `comms` rows.
    fn comms_run(transport: &str, world: u64) -> String {
        let doc = committed();
        let runs = rows(get(&doc, "comms").unwrap(), "worlds").unwrap();
        let pos = runs.iter().position(|w| text(w, "transport") == Ok(transport) && uint(w, "world") == Ok(world));
        pos.unwrap_or_else(|| panic!("no {transport} run at world {world}")).to_string()
    }

    #[test]
    fn comms_row_holds_ring_volume_at_one_over_f() {
        let dense = num(
            at(&mut committed(), &["comms", "worlds", "0"]),
            "dense_model_bytes",
        )
        .unwrap();
        let doc = doctored(
            &["comms", "worlds", "0", "compressed_model_bytes"],
            Json::UInt((0.12 * dense) as u64),
        );
        rejects("comms", &doc, &["world 2", "density", "0.1"]);
        // Moving too few bytes is an accounting bug too.
        let doc = doctored(
            &["comms", "worlds", "0", "compressed_model_bytes"],
            Json::UInt((0.08 * dense) as u64),
        );
        rejects("comms", &doc, &["world 2"]);
    }

    #[test]
    fn comms_row_holds_bits_to_the_oracle_and_wire_accounting_on_both_transports() {
        for (transport, world) in [("inproc", 8), ("tcp", 4)] {
            let doc = doctored(&["comms", "worlds", &comms_run(transport, world), "bitwise_equal"], Json::Bool(false));
            rejects("comms", &doc, &[&format!("{transport} world {world}"), "diverged", "oracle"]);
        }
        let tcp2 = comms_run("tcp", 2);
        let model = uint(at(&mut committed(), &["comms", "worlds", &tcp2]), "dense_model_bytes").unwrap();
        let doc = doctored(&["comms", "worlds", &tcp2, "dense_wire_bytes"], Json::UInt(model - 1));
        rejects("comms", &doc, &["tcp world 2", &(model - 1).to_string(), &model.to_string()]);
        // ... and so is a first hop that went back to f64 partials.
        let cap = model + 2 * WIRE_HEADER_BYTES;
        let doc = doctored(&["comms", "worlds", &tcp2, "dense_wire_bytes"], Json::UInt(cap + 1));
        rejects("comms", &doc, &["tcp world 2", &(cap + 1).to_string(), &cap.to_string()]);
        rejects(
            "comms",
            &doctored(&["comms", "worlds", &tcp2, "compressed_best_ms"], Json::UInt(0)),
            &["tcp world 2", "no time"],
        );
        rejects("comms", &doctored(&["comms", "worlds"], Json::Arr(vec![])), &["worlds"]);
        let mut doc = committed();
        let Json::Arr(runs) = at(&mut doc, &["comms", "worlds"]) else {
            panic!("worlds is an array")
        };
        runs.retain(|w| text(w, "transport") != Ok("tcp"));
        rejects("comms", &doc, &["no tcp run"]);
        // The step row: bucketed keeps the bits and sends two messages.
        rejects(
            "comms",
            &doctored(&["comms", "step", "bitwise_equal"], Json::Bool(false)),
            &["step", "diverged"],
        );
        rejects(
            "comms",
            &doctored(&["comms", "step", "bucketed_msgs_per_rank"], Json::UInt(3)),
            &["bucketed_msgs_per_rank", "3", "want 2"],
        );
        rejects(
            "comms",
            &doctored(&["comms", "step", "per_param_msgs_per_rank"], Json::UInt(47)),
            &["per_param_msgs_per_rank", "47", "48"],
        );
    }

    #[test]
    fn pipeline_row_holds_the_bubble_at_eq7() {
        let doc = doctored(&["pipeline", "depths", "0", "rel_err"], Json::Num(0.051));
        rejects("pipeline", &doc, &["g_inter 2", "Eq. 7", "0.051", "0.05"]);
    }

    #[test]
    fn dynamic_row_holds_memory_direction_events_and_remap() {
        rejects(
            "dynamic",
            &doctored(&["dynamic", "memory_mismatches"], Json::UInt(1)),
            &["24(1-p)phi + 2phi", "1", "0"],
        );
        rejects(
            "dynamic",
            &doctored(&["dynamic", "remap_events"], Json::UInt(2)),
            &["remap events", "2", "3"],
        );
        let formula = uint(
            at(&mut committed(), &["dynamic", "trajectory", "1"]),
            "formula_bytes",
        )
        .unwrap();
        let doc = doctored(
            &["dynamic", "trajectory", "1", "measured_bytes"],
            Json::UInt(formula + 8),
        );
        rejects(
            "dynamic",
            &doc,
            &[&(formula + 8).to_string(), &formula.to_string()],
        );
        let doc = doctored(
            &["dynamic", "remap", "transitions", "0", "speedup_vs_rebuild"],
            Json::Num(0.99),
        );
        rejects("dynamic", &doc, &["rebuild", "0.99", "1"]);

        // A trajectory that only ever densifies is not dynamic sparsity.
        let mut doc = committed();
        let Json::Arr(points) = at(&mut doc, &["dynamic", "trajectory"]) else {
            panic!("trajectory is an array")
        };
        for (i, p) in points.iter_mut().enumerate() {
            *at(p, &["nnz"]) = Json::UInt(100 + i as u64);
        }
        rejects("dynamic", &doc, &["both directions"]);
    }

    #[test]
    fn serve_row_holds_reloads_always_and_batching_on_avx2() {
        let failed = doctored(&["serve", "reload", "requests_failed"], Json::UInt(1));
        rejects("serve", &failed, &["hot reload", "1", "0"]);
        rejects(
            "serve",
            &doctored(&["serve", "reload", "reloads"], Json::UInt(2)),
            &["reloaded", "2", "3"],
        );
        rejects(
            "serve",
            &doctored(
                &["serve", "reload", "steps_seen"],
                Json::Arr(vec![Json::UInt(2)]),
            ),
            &["steps seen", "1", "2"],
        );
        rejects(
            "serve",
            &doctored(&["serve", "reload", "max_blackout_ms"], Json::Num(250.5)),
            &["blackout", "250.5", "250"],
        );
        let slow = doctored(&["serve", "batch_speedup"], Json::Num(1.99));
        rejects("serve", &slow, &["batch", "1.99", "2"]);

        // The backend ratios are the `kernels` row's floors seen through a
        // queue: they must be there, and are reported, whatever they read.
        let mut thin = doctored(&["serve", "nm24_over_dense"], Json::Num(0.45));
        *at(&mut thin, &["serve", "int8_over_dense"]) = Json::Num(0.27);
        let summary = check("serve", &thin).expect("a backend ratio is data, not a gate");
        assert!(summary.contains("nm24 0.45x") && summary.contains("int8 0.27x"), "{summary}");
        let Json::Obj(mut fields) = committed() else {
            panic!("document is an object")
        };
        let Json::Obj(section) = &mut fields.iter_mut().find(|(k, _)| k == "serve").unwrap().1
        else {
            panic!("serve is an object")
        };
        section.retain(|(k, _)| k != "int8_over_dense");
        rejects("serve", &Json::Obj(fields), &["int8_over_dense"]);

        // Without AVX2 the batching floor is skipped, the reload gates not.
        let mut scalar_box = slow;
        *at(&mut scalar_box, &["serve", "avx2_detected"]) = Json::Bool(false);
        let summary = check("serve", &scalar_box).expect("the batching floor presumes AVX2");
        assert!(summary.contains("skipped"), "{summary}");
        let mut scalar_box = failed;
        *at(&mut scalar_box, &["serve", "avx2_detected"]) = Json::Bool(false);
        rejects("serve", &scalar_box, &["hot reload"]);
    }

    /// A minimal well-formed trace: the three simulated lanes and one
    /// flow pair between two live slices.
    fn tiny_trace() -> Json {
        let text = r#"{"traceEvents":[
            {"name":"F0","ph":"X","pid":0,"tid":0,"ts":0,"dur":1},
            {"name":"F0","ph":"X","pid":0,"tid":1,"ts":1,"dur":1},
            {"name":"F0","ph":"X","pid":0,"tid":2,"ts":2,"dur":1},
            {"name":"send","ph":"X","pid":3,"tid":0,"ts":0,"dur":2},
            {"name":"recv","ph":"X","pid":3,"tid":1,"ts":2,"dur":2},
            {"name":"act","cat":"p2p","ph":"s","bp":"e","pid":3,"tid":0,"ts":1,"id":7},
            {"name":"act","cat":"p2p","ph":"f","bp":"e","pid":3,"tid":1,"ts":3,"id":7}
        ]}"#;
        Json::parse(text).unwrap()
    }

    #[test]
    fn trace_shape_is_held() {
        assert!(trace(&tiny_trace()).unwrap().contains("1 flow pairs"));
        let broken = |edit: &dyn Fn(&mut Vec<Json>)| {
            let mut doc = tiny_trace();
            let Json::Arr(events) = at(&mut doc, &["traceEvents"]) else {
                panic!("events are an array")
            };
            edit(events);
            trace(&doc).expect_err("malformed trace must fail")
        };
        assert!(broken(&|e| *at(&mut e[0], &["ph"]) = Json::Str("B".into())).contains("phase `B`"));
        assert!(broken(
            &|e| e[3] = Json::parse(r#"{"name":"send","ph":"X","pid":3,"tid":0,"ts":0}"#).unwrap()
        )
        .contains("`dur` is missing"));
        assert!(broken(&|e| {
            e.remove(2);
        })
        .contains("lane"));
        // An orphan flow, a duplicated id and a trace with no pair fail.
        assert!(broken(&|e| {
            e.pop();
        })
        .contains("1 starts, 0 finishes"));
        assert!(broken(&|e| e.truncate(5)).contains("flow pairs in a live trace: 0"));
        let mut simulated = tiny_trace();
        let Json::Arr(events) = at(&mut simulated, &["traceEvents"]) else { panic!() };
        events.truncate(3);
        assert!(trace(&simulated).unwrap().contains("0 flow pairs"), "no mesh ran, none to pair");
        assert!(broken(&|e| *at(&mut e[6], &["id"]) = Json::UInt(8)).contains("pair"));
        assert!(broken(&|e| {
            let dup = e[5..7].to_vec();
            e.extend(dup);
        })
        .contains("exactly once"));
        assert!(
            broken(&|e| *at(&mut e[6], &["bp"]) = Json::Str("s".into())).contains("malformed flow")
        );
        assert!(broken(&|e| {
            let Json::Obj(f) = &mut e[5] else { panic!() };
            f.push(("dur".into(), Json::UInt(1)));
        })
        .contains("malformed flow"));
        assert!(broken(&|e| e.clear()).contains("traceEvents"));
    }

    #[test]
    fn metrics_shape_and_exact_state_bytes_are_held() {
        let step = r#"{"kind":"step","runtime":"samo","step":1,"model_state_bytes":440,"formula_state_bytes":440}"#;
        let sharded = r#"{"kind":"step","runtime":"samo_dp","step":1,"model_state_bytes":300,"formula_state_bytes":null}"#;
        let mesh = r#"{"kind":"mesh_metrics","ranks":2,"median_us":5.0,"max_us":7.5,"per_rank":[{"kind":"step","window_us":5.0},{"kind":"step","window_us":7.5}]}"#;
        let link = r#"{"kind":"link_event","event":"peer_dead","rank":1}"#;
        let ok = metrics(&[step, sharded, mesh, link].join("\n")).unwrap();
        assert_eq!(ok, "4 records (1 mesh_metrics)");

        let off = step.replace("\"model_state_bytes\":440", "\"model_state_bytes\":448");
        assert!(metrics(&off).unwrap_err().contains("24(1-p)phi + 2phi"));
        assert!(metrics(&mesh.replace("\"ranks\":2", "\"ranks\":3"))
            .unwrap_err()
            .contains("mesh_metrics"));
        assert!(metrics(&mesh.replace("7.5,", "4.0,"))
            .unwrap_err()
            .contains("mesh_metrics"));
        assert!(metrics(&mesh.replace("\"window_us\":7.5", "\"window_us\":9.5"))
            .unwrap_err()
            .contains("mesh_metrics"));
        assert!(metrics(&mesh.replace("[{\"kind\":\"step\"", "[{\"kind\":\"link_event\""))
            .unwrap_err()
            .contains("not a step record"));
        assert!(metrics(&link.replace("peer_dead", ""))
            .unwrap_err()
            .contains("link_event"));
        assert!(metrics(r#"{"kind":"mystery"}"#)
            .unwrap_err()
            .contains("unknown record kind"));
        assert!(metrics("").unwrap_err().contains("records"));
        assert!(metrics("not json").is_err());
    }
}
