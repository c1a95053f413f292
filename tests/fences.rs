//! The design fences of `scripts/fences.sh`, checked end to end: every
//! fence passes on a copy of the tree, and every row of [`plants`] — a
//! violation written into the copy — fails the fence it names, and is
//! taken out again.
//!
//! A row replaces the first `anchor` in `file` with `replacement`; an
//! empty anchor puts the replacement at the top of the file (and creates
//! the file if it does not exist). Strings that would trip a fence that
//! scans `tests/` are built with `concat!`, so the clean copy, this file
//! included, passes every fence.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// What the fences read: the tree's sources, CI and the script itself.
const SCANNED: [&str; 7] = ["crates", "src", "tests", "examples", "benchmark/src", ".github", "scripts"];

struct Plant {
    fence: &'static str,
    file: &'static str,
    anchor: &'static str,
    replacement: String,
    /// Lines the failing fence must print: which of its checks failed.
    expect: Vec<String>,
}

fn plant(fence: &'static str, file: &'static str, anchor: &'static str, replacement: impl Into<String>) -> Plant {
    Plant { fence, file, anchor, replacement: replacement.into(), expect: Vec::new() }
}

/// A line at the top of `file`: code, above any test module.
fn top(fence: &'static str, file: &'static str, line: &str) -> Plant {
    plant(fence, file, "", format!("{line}\n"))
}

/// `line` right after `anchor`, inside the block the anchor opens.
fn after(fence: &'static str, file: &'static str, anchor: &'static str, line: &str) -> Plant {
    plant(fence, file, anchor, format!("{anchor}{line}\n"))
}

/// A copy of the scanned tree, removed when dropped.
struct Tree(PathBuf);

impl Tree {
    fn new(lane: usize) -> Tree {
        let dir = std::env::temp_dir().join(format!("samo-fences-{}-{lane}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        for part in SCANNED {
            copy_dir(&root.join(part), &dir.join(part));
        }
        Tree(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    fn fences(&self, args: &[&str]) -> Output {
        let out = Command::new("bash").arg("scripts/fences.sh").args(args).current_dir(&self.0).output();
        out.expect("bash runs scripts/fences.sh")
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The number that opens the line of `out` that holds `what`, and the
/// bound the line ends in parentheses, `(budget N)` or `(ceiling N)`: the
/// script is the one place a ceiling is written.
fn figure(out: &str, what: &str) -> (usize, usize) {
    let line = out.lines().find(|l| l.contains(what)).unwrap_or("");
    let n = line.split_whitespace().next().and_then(|n| n.parse().ok());
    let bound = line.split_once('(').and_then(|(_, rest)| rest.split_once(')'));
    let bound = bound.and_then(|(b, _)| b.split_whitespace().last()).and_then(|b| b.parse().ok());
    n.zip(bound).unwrap_or_else(|| panic!("no `{what}` figure and bound in:\n{out}"))
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy");
    for entry in fs::read_dir(from).expect("read the tree") {
        let entry = entry.expect("a directory entry");
        let (path, ty) = (entry.path(), entry.file_type().expect("a file type"));
        if ty.is_dir() && entry.file_name() != "target" {
            copy_dir(&path, &to.join(entry.file_name()));
        } else if ty.is_file() {
            fs::copy(&path, to.join(entry.file_name())).expect("copy a file");
        }
    }
}

fn show(out: &Output) -> String {
    format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr))
}

/// One row per planted violation, each recorded when its fence landed
/// or planted here for a fence that had none. `clean`, what the fences
/// print on the tree, has the figures a ceiling plant steps just over.
fn plants(clean: &str) -> Vec<Plant> {
    let (core, core_budget) = figure(clean, "lines (budget");
    let (unwraps, unwrap_ceiling) = figure(clean, "non-test unwrap/expect tokens");
    let (unsafes, unsafe_ceiling) = figure(clean, "non-test unsafe tokens");
    // A file of `n` functions, each with its contract: it fails no
    // per-file count, only the ceiling the fence holds all files to.
    let contracted = |n: usize, contract: &str, body: &str| {
        (0..n)
            .map(|i| format!("// {contract}: planted.\nfn planted_{i}(x: Option<u8>) -> u8 {{ {body} }}\n"))
            .collect::<String>()
    };
    let (unsafe_over, unwrap_over) = (unsafe_ceiling + 1 - unsafes, unwrap_ceiling + 1 - unwraps);
    let mut unsafe_plant = plant(
        "unsafe_contracts",
        "crates/tensor/src/planted.rs",
        "",
        contracted(unsafe_over, "SAFETY", "unsafe { x.unwrap_unchecked() }"),
    );
    unsafe_plant.expect = vec![
        format!("{unsafe_over:3} unsafe {unsafe_over:3} SAFETY crates/tensor/src/planted.rs"),
        format!("{} non-test unsafe tokens in crates/*/src (ceiling {unsafe_ceiling})", unsafe_ceiling + 1),
    ];
    let mut unwrap_plant =
        plant("unwraps", "crates/comms/src/planted.rs", "", contracted(unwrap_over, "INVARIANT", "x.unwrap()"));
    unwrap_plant.expect = vec![
        format!("{unwrap_over:3} unwrap/expect {unwrap_over:3} INVARIANT crates/comms/src/planted.rs"),
        format!(
            "{} non-test unwrap/expect tokens in crates/{{comms,serve}}/src (ceiling {unwrap_ceiling})",
            unwrap_ceiling + 1
        ),
    ];
    let parent_kernel = "    for (b, &mask) in live.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let av = &av[8 * b..8 * b + 8];
        for (rows, acc) in rows.iter().zip(&mut acc) {
            let steps = transpose8x8(|r, half| _mm_loadu_ps(rows[r].add(8 * b + 4 * half)));
            if mask == u8::MAX {
                for (&a, step) in av.iter().zip(steps) {
                    *acc = _mm256_fmadd_ps(_mm256_set1_ps(a), step, *acc);
                }
            } else {
                for (q, (&a, step)) in av.iter().zip(steps).enumerate() {
                    if mask >> q & 1 != 0 {
                        *acc = _mm256_fmadd_ps(_mm256_set1_ps(a), step, *acc);
                    }
                }
            }
        }
    }
";
    let fma =
        "                    *acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*av.add((4 * half + q) * MR)), step, *acc);\n";
    let remap = "    fn maybe_remap(&mut self, model: &mut impl Layer) -> Result<(), CommsError> {\n";
    let seq_backward =
        "    fn backward_into(&mut self, dy: Tensor, sink: &mut dyn GradSink) -> Tensor {\n        // Children";
    vec![
        top("size_budget", "crates/core/src/lib.rs", "const _: () = ();\n".repeat(core_budget + 1 - core).trim_end()),
        // Both recorded with the oracle's fence, at its landing.
        top("oracle", "crates/core/src/engine.rs", "use crate::reference::DataParallelSamo;"),
        top("oracle", "crates/serve/src/model.rs", "fn planted(s: &mut S) { s.compress_grad(0); }"),
        top("one_rank", "crates/core/src/threaded.rs", "pub struct DistDataParallel;"),
        top("one_rank", "crates/core/src/engine.rs", "fn planted() { StepEngine::build(layers, opt, true); }"),
        top("one_group", "crates/core/src/pipeline.rs", "fn planted() { std::thread::spawn(|| ()); }"),
        top("one_group", "crates/core/src/trainer.rs", "pub struct Planted { group: RankGroup<Linear> }"),
        top("one_group", "crates/core/src/lib.rs", concat!("pub type DataParallel", "Rank = StageRank;")),
        top("one_bucket", "crates/core/src/threaded.rs", "fn planted(c: &mut Communicator) { c.reduce_scatter_start(vec![]); }"),
        top("gate_thresholds", ".github/workflows/ci.yml", concat!("# python", "3 -c 'assert 0.5 < 1'")),
        top("gate_thresholds", "scripts/fences.sh", concat!("# python", "3 -c 'assert 0.5 < 1'")),
        top("trace_state", "crates/core/src/engine.rs", "static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());"),
        top("trace_state", "crates/comms/src/lib.rs", "struct ThreadLocalSink;"),
        // The fence's seven names and the registry's file, one each.
        top("metrics_channel", "crates/core/src/trainer.rs", "fn planted() { telemetry::global(); }"),
        top("metrics_channel", "crates/core/src/trainer.rs", "struct Planted(Registry);"),
        top("metrics_channel", "crates/comms/src/transport.rs", "struct Planted(Counter);"),
        top("metrics_channel", "crates/serve/src/stats.rs", "struct Planted(Gauge);"),
        top("metrics_channel", "crates/tensor/src/gemm.rs", "fn planted(r: &R) { r.counter(\"calls\"); }"),
        top("metrics_channel", "crates/nn/src/linear.rs", "fn planted(r: &R) { r.gauge(\"bytes\"); }"),
        top("metrics_channel", "crates/serve/src/server.rs", "fn planted(r: &R) { r.histogram(\"latency\"); }"),
        plant("metrics_channel", "crates/telemetry/src/registry.rs", "", "//! A metric registry.\n"),
        top("kernel_tasks", "crates/tensor/src/pool.rs", "unsafe impl Send for Planted {}"),
        top("sockets", "crates/comms/src/tcp.rs", "fn planted(s: &mut TcpStream) { s.read_exact(&mut [0; 4]).ok(); }"),
        top("sockets", "crates/serve/src/client.rs", "const PLANTED: usize = MAX_FRAME;"),
        top("mailbox", "crates/comms/src/collectives.rs", "struct Planted {\n    held: Option<Envelope>,\n}"),
        top("prune_selection", "crates/prune/src/lib.rs", "fn planted(v: &mut [f32]) { v.sort_by(|a, b| a.total_cmp(b)); }"),
        top("prune_selection", "crates/prune/src/lib.rs", "fn planted(v: &mut [f32]) { v.select_nth_unstable_by(3, f32::total_cmp); }"),
        // A widening, an f32 field, and the function renamed away.
        after("half_precision_ranking", "crates/core/src/engine.rs", remap, "        theta16.widen_into(&mut planted);"),
        after("half_precision_ranking", "crates/core/src/engine.rs", "pub struct StepEngine {\n", "    planted: Vec<f32>,"),
        plant("half_precision_ranking", "crates/core/src/engine.rs", "    fn maybe_remap(", "    fn maybe_remap_at("),
        top("product_planner", "crates/nn/src/linear.rs", "fn planted() { tensor::gemm::plan(1, 2, 3); }"),
        top("product_planner", "crates/core/src/state.rs", "use tensor::gemm::matmul_tn_sampled;"),
        // A per-step `if`, a short-circuiting `.any(`, the parent's kernel.
        plant(
            "kept_grad_branchless",
            "crates/tensor/src/gemm.rs",
            fma,
            format!("                    if *keep.add(4 * half + q) & 1 != 0 {{\n    {fma}                    }}\n"),
        ),
        plant(
            "kept_grad_branchless",
            "crates/tensor/src/gemm.rs",
            "let on = vals.iter().fold(false, |on, &v| on | (v != 0.0));",
            "let on = vals.iter().any(|&v| v != 0.0);",
        ),
        plant("kept_grad_branchless", "crates/tensor/src/gemm.rs", "    for b in 0..kp / 8 {\n", format!("{parent_kernel}    for b in 0..0 {{\n")),
        top("unwraps", "crates/comms/src/fault.rs", "fn planted(x: Option<u8>) -> u8 { x.unwrap() }"),
        unwrap_plant,
        top("unsafe_contracts", "crates/tensor/src/pool.rs", "unsafe fn planted() {}"),
        unsafe_plant,
        top("nothing_dead", "crates/prune/src/lib.rs", "pub fn planted_and_never_named() {}"),
        top("bubble_ruler", "crates/telemetry/src/ledger.rs", "const PLANTED: &str = \"bubble\";"),
        top("bubble_ruler", "crates/bench/src/gates.rs", "fn planted() { analytic_bubble(2, 8); }"),
        top("send_first", "crates/core/src/engine.rs", "fn planted(c: &mut Communicator) { c.all_gather_f16(&mut []); }"),
        top("send_first", "crates/core/src/engine.rs", "fn planted(c: &mut Communicator) { c.all_true(true); }"),
        top("training_mesh", "crates/comms/src/transport.rs", "fn send_telemetry() {}"),
        top("one_wait", "crates/comms/src/transport.rs", "fn planted(r: &Receiver<u8>) { r.recv_timeout(DEADLINE); }"),
        top("one_wait", "crates/comms/src/transport.rs", "fn planted() { std::thread::sleep(DEADLINE); }"),
        // A second impl, a bound, a wire's alias, `Reducer` and `Ring<`.
        top("one_endpoint", "crates/comms/src/tcp.rs", "impl Transport for Planted {}"),
        top("one_endpoint", "crates/core/src/engine.rs", "fn planted<T: Transport>(t: T) {}"),
        top("one_endpoint", "crates/bench/src/lib.rs", "type Wire = TcpTransport;"),
        top("one_endpoint", "crates/core/src/engine.rs", "struct Planted(Box<dyn Reducer>);"),
        top("one_endpoint", "crates/core/src/threaded.rs", "struct Planted(Ring<f32>);"),
        top("whole_slices", "crates/comms/src/collectives.rs", "use crate::reference::f16_mean_from_exact_sum;"),
        top("whole_slices", "crates/comms/src/collectives.rs", "use tensor::f16::to_f32_table;"),
        top(
            "whole_slices",
            "crates/comms/src/tcp/framing.rs",
            "fn planted(v: &mut Vec<u8>, xs: &[u16]) {\n    for x in xs {\n        v.extend_from_slice(&x.to_le_bytes());\n    }\n}",
        ),
        plant("whole_slices", "crates/comms/src/tcp/framing.rs", "from_le: impl Fn([u8; N]) -> E", "from_le: fn([u8; N]) -> E"),
        // A window compare, `w_pending()`, `VecDeque`, the simulator's
        // window and `bwd_ready`.
        top("one_schedule", "crates/core/src/pipeline.rs", "fn planted(n: usize, max_in_flight: usize) -> bool { n >= max_in_flight }"),
        top("one_schedule", "crates/core/src/pipeline.rs", "fn planted(s: &Schedule) -> usize { s.w_pending() }"),
        top("one_schedule", "crates/core/src/pipeline.rs", "struct Planted(VecDeque<usize>);"),
        top("one_schedule", "crates/axonn-sim/src/pipeline.rs", "fn planted(k: usize, max_in_flight: usize) -> bool { max_in_flight > k }"),
        top("one_schedule", "crates/axonn-sim/src/pipeline.rs", "struct Planted { bwd_ready: Vec<usize> }"),
        // The fence's seven checks, one plant each.
        top("no_dense_weight_grad", "crates/core/src/pipeline.rs", "fn planted(block: &mut B) { block.backward(&dy); }"),
        plant("no_dense_weight_grad", "crates/core/src/trainer.rs", "lend_grad_target(model, true);", "lend_grad_target(model, false);"),
        after("no_dense_weight_grad", "crates/core/src/engine.rs", remap, "        let planted = model.params()[0].grad.clone();"),
        after("no_dense_weight_grad", "crates/core/src/engine.rs", "struct Defer<'a> {\n", "    refused: bool,"),
        top("no_dense_weight_grad", "crates/nn/src/linear.rs", "fn planted(l: &mut Linear) { l.weight.grad.fill(0.0); }"),
        after(
            "no_dense_weight_grad",
            "crates/nn/src/param.rs",
            "    pub fn grad_target(&mut self) -> GradTarget<'_> {\n",
            "        let _ = GradTarget::Dense(self.dense_grad());",
        ),
        plant(
            "no_dense_weight_grad",
            "crates/nn/src/param.rs",
            "if self.grad_sums.is_none() && self.grad_log.is_none() {",
            "if self.grad_sums.is_none() {",
        ),
        // A clock, a `t_` key and an `event=` line; then the nine of the
        // phase rule: a `phases: Vec`, `.timed(`, a `.name()` compared on
        // either side, phase names and `Phase` variants side by side, and
        // three `Instant` stamps in the serving tier.
        top("step_record", "crates/core/src/threaded.rs", "fn planted() -> Instant { Instant::now() }"),
        top("step_record", "crates/core/src/engine.rs", "const PLANTED: &str = \"t_f\";"),
        top("step_record", "crates/bench/src/bin/samo_launch.rs", "fn planted() { println!(\"event=step\"); }"),
        top("step_record", "tests/pipeline_jitter.rs", concat!("struct Planted { phases", ": Vec<u64> }")),
        top("step_record", "crates/bench/src/lib.rs", concat!("fn planted(s: S) { s.time", "d(1); }")),
        top("step_record", "crates/core/src/engine.rs", concat!("fn planted(p: Phase) -> bool { p.name() ", "== \"f\" }")),
        top("step_record", "crates/core/src/pipeline.rs", concat!("fn planted(p: Phase) -> bool { \"b\" =", "= p.name() }")),
        top("step_record", "examples/quickstart.rs", concat!("const PLANTED: [&str; 2] = [\"f\",", " \"b\"];")),
        top("step_record", "crates/bench/src/lib.rs", concat!("const PLANTED: [Phase; 2] = [Phase::F,", " Phase::B];")),
        top("step_record", "crates/serve/src/server.rs", "fn planted() { let t0 = Instant::now(); }"),
        top("step_record", "crates/serve/src/replica.rs", "fn planted(t0: Instant) -> Duration { t0.elapsed() }"),
        top("step_record", "crates/serve/src/reload.rs", "struct Planted { at: Instant, }"),
        top("one_timer", "crates/core/src/engine.rs", "use telemetry::span;"),
        top("one_timer", "crates/comms/src/collectives.rs", "struct Planted(SpanGuard);"),
        top("one_timer", "crates/telemetry/src/lib.rs", "mod span;"),
        top("one_backward", "crates/core/src/engine.rs", "fn backward_overlapped() {}"),
        top("one_backward", "crates/core/src/threaded.rs", "trait RankWorker {}"),
        top("one_backward", "crates/core/src/pipeline.rs", "struct Overlap;"),
        top("one_recovery", "crates/core/src/engine.rs", "fn rollback() {}"),
        top("one_recovery", "crates/core/src/reference.rs", "fn restore_rank() {}"),
        top("one_recovery", "crates/core/src/reference.rs", "fn rank_failure_drill() {}"),
        top("one_recovery", "crates/nn/src/mixed.rs", "fn force_backoff() {}"),
        top("one_recovery", "crates/core/src/lib.rs", "pub struct DivergenceSentinel;"),
        top("one_recovery", "crates/core/src/sentinel.rs", "//! Divergence detection."),
        after(
            "w_moves_operands",
            "crates/core/src/engine.rs",
            "impl GradSink for Defer<'_> {\n",
            "    fn planted(&self) -> Vec<WEvent> { self.events.to_vec() }",
        ),
        plant(
            "w_moves_operands",
            "crates/nn/src/layer.rs",
            seq_backward,
            seq_backward.replace("        // Children", "        let planted = dy.clone();\n        // Children"),
        ),
    ]
}

/// Writes `p` into the copy, runs its fence, and takes it out again.
fn check(tree: &Tree, p: &Plant) {
    let path = tree.path(p.file);
    let before = fs::read_to_string(&path).ok();
    let planted = match (p.anchor, &before) {
        ("", _) => format!("{}{}", p.replacement, before.as_deref().unwrap_or("")),
        (anchor, Some(text)) if text.contains(anchor) => text.replacen(anchor, &p.replacement, 1),
        _ => panic!("`{}` holds no anchor {:?} for the `{}` plant", p.file, p.anchor, p.fence),
    };
    fs::write(&path, planted).expect("write the plant");
    let out = tree.fences(&[p.fence]);
    match &before {
        Some(text) => fs::write(&path, text).expect("take the plant out"),
        None => fs::remove_file(&path).expect("take the planted file out"),
    }
    let text = show(&out);
    assert!(!out.status.success(), "`{}` passes with {:?} planted in {}:\n{text}", p.fence, p.replacement, p.file);
    for line in &p.expect {
        assert!(text.contains(line.as_str()), "`{}` fails, but does not print {line:?}:\n{text}", p.fence);
    }
    assert_eq!(fs::read_to_string(&path).ok(), before, "{} is back as it was", p.file);
}

#[test]
fn every_fence_passes_and_fails_on_each_planted_violation() {
    // Two copies, each planted with every other row: the fences run as
    // processes, one lane per core of a small box.
    let trees = [Tree::new(0), Tree::new(1)];
    let clean = trees[0].fences(&[]);
    assert!(clean.status.success(), "a fence fails on the tree:\n{}", show(&clean));

    let listed = trees[0].fences(&["--list"]);
    assert!(listed.status.success(), "{}", show(&listed));
    let names: Vec<String> = String::from_utf8_lossy(&listed.stdout)
        .lines()
        .filter_map(|l| l.split('\t').next())
        .map(String::from)
        .collect();
    // A function the list misses (no `## ` title above it) would never run.
    let script = fs::read_to_string(trees[0].path("scripts/fences.sh")).expect("read the script");
    for def in script.lines().filter_map(|l| l.strip_suffix("() {")).filter(|f| !f.contains(' ')) {
        let helper = ["code", "block", "fences"].contains(&def);
        assert!(helper || names.iter().any(|n| n == def), "`{def}` is neither a helper nor a listed fence");
    }

    let plants = plants(&show(&clean));
    for name in &names {
        assert!(plants.iter().any(|p| p.fence == name), "no plant for the fence `{name}`");
    }
    for p in &plants {
        assert!(names.iter().any(|n| n == p.fence), "a plant names no fence: `{}`", p.fence);
    }
    let (plants, lanes) = (&plants, trees.len());
    std::thread::scope(|s| {
        for (lane, tree) in trees.iter().enumerate() {
            // `check` leaves the copy byte for byte as it was: between rows
            // it passes every fence, as the clean run showed.
            s.spawn(move || plants.iter().skip(lane).step_by(lanes).for_each(|p| check(tree, p)));
        }
    });
}
