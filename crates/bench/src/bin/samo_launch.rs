//! `samo-launch` — multi-process training launcher and kill drill.
//!
//! ```text
//! samo-launch [worker --rank R] --world N --steps S [--ckpt-every K]
//!             [--dir D] [--step-delay-ms T] [--kill-rank R2 --kill-at S2]
//! ```
//!
//! Spawns `N` worker processes (`samo-launch worker --rank R` with the
//! parent's world, steps, cadence, delay and directory) that rendezvous
//! over loopback TCP, train a replicated
//! data-parallel SAMO model — one [`samo::StageRank`] per process at
//! one stage, the rank `ThreadedDataParallelSamo` runs one per thread —
//! and checkpoint every `K` steps with a collective save that
//! gathers the shards. The parent runs the same
//! trajectory on an in-process [`samo::SamoTrainer`] and **fails unless
//! every worker's final checkpoint is bitwise identical to that
//! single-process oracle** — across real processes and real sockets,
//! the transport must be invisible in the bytes.
//!
//! With `--kill-rank R --kill-at S2` the parent SIGKILLs rank `R` once
//! its events file shows step `S2` done, then relaunches it. Survivors
//! must surface the death as a bounded step or save error (socket EOF
//! or heartbeat), re-rendezvous in a fresh generation, rebuild their
//! ranks, restore rank 0's last checkpoint, and replay — and the
//! post-recovery finals must
//! *still* match the never-failed oracle bit for bit. The parent gates
//! on the recorded detection latency and on the resync having happened.
//! The toy model trains in microseconds, so a drill needs
//! `--step-delay-ms` to stretch steps enough for the kill to land
//! mid-run (the parent refuses a drill whose victim already finished).
//!
//! Never kill rank 0: it hosts the rendezvous for every generation.
//!
//! Coordination between parent and workers goes through small files in
//! `--dir`, which the parent clears before the first spawn so a reused
//! directory starts cold: `rdv.addr`, `rank0.latest.ckpt` — the one
//! `latest`: every rank joins the collective save's gathers, rank 0 alone
//! serializes and writes it, and recovery broadcasts it — and `rank<R>.final.ckpt` (durable writes,
//! `samo::checkpoint::write_durable`), and an append-only `rank<R>.events` log, one JSON object a line told
//! apart by `kind`: every step's `telemetry::StepEvent` (`step`, with
//! telemetry on or off), so a running world can be read as it trains,
//! and its failures and resyncs (`step_error`, `resync`,
//! `ckpt_write_error`). The parent reads it with `Json::parse`; a line
//! still being written is an `Err` and is skipped. A save that fails on a
//! dead peer writes nothing: the checkpoints are only ever replaced whole.
//! A checkpoint the disk refuses is a `ckpt_write_error` line and the
//! worker's exit 5, never a silently older file for recovery to read.

use comms::{bootstrap_tcp, BootstrapConfig, Communicator, FaultController, Rendezvous};
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::{SamoTrainer, StageRank};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::json::Json;
use tensor::Tensor;

const SEED: u64 = 77;
const IN: usize = 6;
const OUT: usize = 4;
const BATCH: usize = 5;
/// A wedged group must not hang CI: give up after this many rendezvous
/// generations (a drill needs exactly two).
const MAX_GENERATIONS: u32 = 10;

fn build_model() -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, 10, true, SEED))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(10, OUT, true, SEED + 1))
}

fn masks_for(model: &Sequential) -> Vec<Mask> {
    model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if p.value.shape().len() >= 2 {
                prune::random_prune(p.value.shape(), 0.8, SEED + 100 + i as u64)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// Replicated data parallelism: every rank sees the SAME batch per
/// step, so the all-reduced mean is the local gradient bit for bit and
/// the group must match the single-process oracle exactly.
fn batch_for(step: usize) -> (Tensor, Tensor) {
    let seed = 7_700 + step as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

/// Forward on `step`'s batch: the scaled `d(mse)/d(output)`.
fn loss_grad(model: &mut Sequential, step: usize, scale: f32) -> Tensor {
    let (x, target) = batch_for(step);
    let (_, mut dy) = mse(&model.forward(&x), &target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

/// Writes `rank<R>.<file>.ckpt` durably. On failure it logs a
/// `ckpt_write_error` line and returns the worker's exit code, 5.
fn write_ckpt(dir: &Path, rank: usize, file: &str, ckpt: &[u8]) -> Result<(), i32> {
    let path = dir.join(format!("rank{rank}.{file}.ckpt"));
    samo::checkpoint::write_durable(&path, ckpt).map_err(|e| {
        let fields = [("file", Json::from(file)), ("err", e.to_string().into())];
        append_event(dir, rank, &event("ckpt_write_error", fields));
        eprintln!("rank {rank}: write {file} checkpoint: {e}");
        5
    })
}

/// A line of the events file that is not a step: `kind` and its fields.
fn event<const N: usize>(kind: &str, fields: [(&str, Json); N]) -> Json {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::Obj(std::iter::once(("kind".to_string(), Json::from(kind))).chain(fields).collect())
}

/// Appends one line to `rank<R>.events`, in one write.
fn append_event(dir: &Path, rank: usize, line: &Json) {
    let path = dir.join(format!("rank{rank}.events"));
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = f.write_all((line.render() + "\n").as_bytes());
    }
}

/// The lines of `rank<R>.events` that parse: a line a live worker is
/// still appending is not one of them.
fn read_events(dir: &Path, rank: usize) -> Vec<Json> {
    let body = std::fs::read_to_string(dir.join(format!("rank{rank}.events"))).unwrap_or_default();
    body.lines().filter_map(|l| Json::parse(l).ok()).collect()
}

/// Logs a collective that failed at `step`, with how long it took to
/// surface.
fn step_error(dir: &Path, rank: usize, step: usize, t0: Instant, e: comms::CommsError) {
    let ms = t0.elapsed().as_millis() as u64;
    let fields = [("step", Json::from(step)), ("detect_ms", ms.into()), ("err", e.to_string().into())];
    append_event(dir, rank, &event("step_error", fields));
}

// ---------------------------------------------------------------- worker

fn worker(rank: usize, args: &Args) -> i32 {
    let &Args { world, steps, ckpt_every, step_delay_ms, .. } = args;
    let dir = &args.dir;

    // Rank 0 hosts the rendezvous for the process lifetime (all
    // generations re-register at the same address); others poll for the
    // published address file.
    let mut _rdv = None;
    let addr_path = dir.join("rdv.addr");
    let addr = if rank == 0 {
        let r = match Rendezvous::host("127.0.0.1:0", world) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rank 0: rendezvous host failed: {e}");
                return 2;
            }
        };
        let a = r.addr();
        if let Err(e) = samo::checkpoint::write_durable(&addr_path, a.as_bytes()) {
            eprintln!("rank 0: publish rendezvous addr: {e}");
            return 2;
        }
        _rdv = Some(r);
        a
    } else {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::fs::read_to_string(&addr_path) {
                Ok(a) if !a.is_empty() => break a,
                _ if Instant::now() > deadline => {
                    eprintln!("rank {rank}: no rendezvous address within 30s");
                    return 2;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    };

    let cfg = BootstrapConfig {
        rendezvous_timeout: Duration::from_secs(60),
        ..BootstrapConfig::default()
    };
    let mut epoch = 0u32;
    for _generation in 0..MAX_GENERATIONS {
        let (t, info) = match bootstrap_tcp(
            &addr,
            rank,
            world,
            epoch,
            &cfg,
            Arc::new(FaultController::new()),
        ) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("rank {rank}: bootstrap failed: {e}");
                return 3;
            }
        };
        // The communicator deadline is deliberately much longer than the
        // heartbeat window (1 s): a dead peer must be *detected*, not
        // merely timed out.
        let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
        comm.adopt_epoch(info.epoch);
        epoch = comm.epoch();

        // Fresh rank every generation; state comes from rank 0's latest
        // checkpoint below (empty on a cold start).
        let model = build_model();
        let masks = masks_for(&model);
        let mut dp = StageRank::new(model, &masks, adam(), comm);
        let mut bytes = if rank == 0 {
            std::fs::read(dir.join("rank0.latest.ckpt")).unwrap_or_default()
        } else {
            Vec::new()
        };
        if dp.comm_mut().broadcast_bytes(0, &mut bytes).is_err() {
            continue; // a peer died mid-join; rendezvous again
        }
        // Every rank got the same bytes: all restore, or none does.
        let joined = match bytes.is_empty() {
            true => dp.comm_mut().barrier().map_err(|e| e.to_string()),
            false => dp.restore(&bytes),
        };
        if let Err(e) = joined {
            eprintln!("rank {rank}: rejoin failed: {e}");
            continue;
        }
        if info.generation > 0 {
            let step = dp.engine().step_index();
            let fields = [
                ("generation", Json::from(u64::from(info.generation))),
                ("epoch", u64::from(epoch).into()),
                ("step", step.into()),
            ];
            append_event(dir, rank, &event("resync", fields));
        }

        let mut failed = false;
        while dp.engine().step_index() < steps {
            if step_delay_ms > 0 {
                // Stand-in for real compute: stretches the step so a
                // drill's SIGKILL lands mid-run, with the survivors
                // blocked inside the collective when the sockets die.
                std::thread::sleep(Duration::from_millis(step_delay_ms));
            }
            let step = dp.engine().step_index() as usize;
            let t0 = Instant::now();
            let res = dp.step(|_, model, scale| loss_grad(model, step, scale)).and_then(|_| {
                append_event(dir, rank, &dp.engine().step_event().to_json());
                let done = dp.engine().step_index();
                // Collective: every rank joins the save after the same
                // step, and rank 0 alone serializes — recovery reads its.
                match done % ckpt_every {
                    0 => dp.save_if(rank == 0),
                    _ => Ok(None),
                }
            });
            match res {
                Ok(Some(ckpt)) => {
                    if let Err(code) = write_ckpt(dir, rank, "latest", &ckpt) {
                        return code;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    step_error(dir, rank, step, t0, e);
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            continue; // re-rendezvous, roll back, replay
        }
        // Everyone finished. The save is collective, and the barrier after
        // it keeps a fast rank from closing its sockets while a peer still
        // waits for its last gather.
        let t0 = Instant::now();
        let ckpt = match dp.save().and_then(|ckpt| dp.comm_mut().barrier().map(|()| ckpt)) {
            Ok(ckpt) => ckpt,
            Err(e) => {
                step_error(dir, rank, steps as usize, t0, e);
                continue;
            }
        };
        return match write_ckpt(dir, rank, "final", &ckpt) {
            Ok(()) => 0,
            Err(code) => code,
        };
    }
    eprintln!("rank {rank}: gave up after {MAX_GENERATIONS} generations");
    6
}

// ---------------------------------------------------------------- parent

/// The never-failed single-process trajectory the workers must match.
fn oracle_checkpoint(steps: u64) -> Vec<u8> {
    let mut model = build_model();
    let masks = masks_for(&model);
    let mut oracle = SamoTrainer::new(&mut model, masks, adam());
    while oracle.step_index() < steps {
        let dy = loss_grad(&mut model, oracle.step_index() as usize, oracle.loss_scale());
        model.backward(&dy);
        oracle.step(&mut model);
    }
    oracle.save().to_vec()
}

/// The command line: the parent's flags, and in a worker also its rank.
struct Args {
    /// `Some` in a worker (`samo-launch worker --rank R ...`).
    rank: Option<usize>,
    world: usize,
    steps: u64,
    ckpt_every: u64,
    step_delay_ms: u64,
    dir: PathBuf,
    kill_rank: Option<usize>,
    kill_at: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let worker = argv.first().is_some_and(|a| a == "worker");
    if worker {
        argv.remove(0);
    }
    let mut rank = None;
    let mut world = None;
    let mut steps = None;
    let mut ckpt_every = 4u64;
    let mut step_delay_ms = 0u64;
    let mut dir = None;
    let mut kill_rank = None;
    let mut kill_at = None;
    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| -> Result<&String, String> {
            argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--rank" if worker => rank = Some(val(i)?.parse().map_err(|e| format!("--rank: {e}"))?),
            "--world" => world = Some(val(i)?.parse().map_err(|e| format!("--world: {e}"))?),
            "--steps" => steps = Some(val(i)?.parse().map_err(|e| format!("--steps: {e}"))?),
            "--ckpt-every" => {
                ckpt_every = val(i)?.parse().map_err(|e| format!("--ckpt-every: {e}"))?
            }
            "--step-delay-ms" => {
                step_delay_ms = val(i)?.parse().map_err(|e| format!("--step-delay-ms: {e}"))?
            }
            "--dir" => dir = Some(PathBuf::from(val(i)?)),
            "--kill-rank" => {
                kill_rank = Some(val(i)?.parse().map_err(|e| format!("--kill-rank: {e}"))?)
            }
            "--kill-at" => kill_at = Some(val(i)?.parse().map_err(|e| format!("--kill-at: {e}"))?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if worker && rank.is_none() {
        return Err("worker needs --rank".into());
    }
    let world = world.ok_or("--world is required")?;
    let steps = steps.ok_or("--steps is required")?;
    if world < 2 {
        return Err("--world must be >= 2".into());
    }
    if rank.is_some_and(|r| r >= world) {
        return Err(format!("--rank out of range for world {world}"));
    }
    if ckpt_every == 0 {
        return Err("--ckpt-every must be >= 1".into());
    }
    if kill_rank.is_some() != kill_at.is_some() {
        return Err("--kill-rank and --kill-at go together".into());
    }
    if kill_rank == Some(0) {
        return Err("cannot kill rank 0: it hosts the rendezvous".into());
    }
    if let Some(r) = kill_rank {
        if r >= world {
            return Err(format!("--kill-rank {r} out of range for world {world}"));
        }
    }
    if let Some(at) = kill_at {
        if at + 2 > steps {
            return Err("--kill-at must be at least 2 steps before --steps".into());
        }
        if step_delay_ms == 0 {
            return Err(
                "a kill drill needs --step-delay-ms > 0 so the SIGKILL lands mid-run".into(),
            );
        }
    }
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("samo-launch-{}", std::process::id()))
    });
    Ok(Args { rank, world, steps, ckpt_every, step_delay_ms, dir, kill_rank, kill_at })
}

/// `samo-launch worker --rank R` with the parent's world, steps,
/// cadence, delay and directory.
fn spawn_worker(exe: &Path, args: &Args, rank: usize) -> std::io::Result<Child> {
    let flags = [
        ("--rank", rank as u64),
        ("--world", args.world as u64),
        ("--steps", args.steps),
        ("--ckpt-every", args.ckpt_every),
        ("--step-delay-ms", args.step_delay_ms),
    ];
    let mut cmd = Command::new(exe);
    cmd.arg("worker");
    for (flag, value) in flags {
        cmd.arg(flag).arg(value.to_string());
    }
    cmd.arg("--dir").arg(&args.dir).spawn()
}

/// Removes the files a run coordinates through — `rdv.addr`,
/// `rank<R>.events`, `rank<R>.{latest,final}.ckpt` and their `.tmp`
/// siblings — so a reused directory starts cold: no rank 0 resumes
/// another run's checkpoint, no rank dials its dead rendezvous, and no
/// old step line reads as progress.
fn clear_run_files(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir:?}: {e}"))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let name = name.strip_suffix(".tmp").unwrap_or(&name);
        let ranked = [".events", ".latest.ckpt", ".final.ckpt"].iter().any(|s| name.ends_with(s));
        let ours = name == "rdv.addr" || (name.starts_with("rank") && ranked);
        if ours && entry.file_type().is_ok_and(|t| t.is_file()) {
            let path = entry.path();
            std::fs::remove_file(&path).map_err(|e| format!("remove {path:?}: {e}"))?;
        }
    }
    Ok(())
}

fn parent(args: Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("create {:?}: {e}", args.dir))?;
    clear_run_files(&args.dir)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let drill = args.kill_rank.is_some();
    eprintln!(
        "samo-launch: world {} x {} steps (ckpt every {}), dir {:?}{}",
        args.world,
        args.steps,
        args.ckpt_every,
        args.dir,
        match (args.kill_rank, args.kill_at) {
            (Some(r), Some(at)) => format!(", SIGKILL rank {r} at step {at}"),
            _ => String::new(),
        }
    );

    let oracle = oracle_checkpoint(args.steps);
    let mut children: Vec<Child> = Vec::with_capacity(args.world);
    for rank in 0..args.world {
        children.push(spawn_worker(&exe, &args, rank).map_err(|e| format!("spawn rank {rank}: {e}"))?);
    }

    if let (Some(victim), Some(at)) = (args.kill_rank, args.kill_at) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            // Steps done: one past the last step line's index.
            let events = read_events(&args.dir, victim);
            let last_step = events.iter().rev().find(|e| e.get("kind") == Some(&Json::from("step")));
            let done = match last_step.and_then(|e| e.get("step")) {
                Some(Json::UInt(step)) => step + 1,
                _ => 0,
            };
            if done >= at {
                break;
            }
            if let Ok(Some(status)) = children[victim].try_wait() {
                return Err(format!("rank {victim} exited early ({status}) before the kill"));
            }
            if Instant::now() > deadline {
                return Err(format!("rank {victim} never reached step {at} within 120s"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        children[victim].kill().map_err(|e| format!("kill rank {victim}: {e}"))?;
        let _ = children[victim].wait();
        if args.dir.join(format!("rank{victim}.final.ckpt")).exists() {
            return Err(format!(
                "drill raced: rank {victim} finished before the SIGKILL landed — raise --step-delay-ms"
            ));
        }
        eprintln!("samo-launch: SIGKILLed rank {victim}, relaunching");
        children[victim] =
            spawn_worker(&exe, &args, victim).map_err(|e| format!("respawn rank {victim}: {e}"))?;
    }

    let mut bad = Vec::new();
    for (rank, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(st) if st.success() => {}
            Ok(st) => bad.push(format!("rank {rank} exited {st}")),
            Err(e) => bad.push(format!("rank {rank} wait failed: {e}")),
        }
    }
    if !bad.is_empty() {
        return Err(bad.join("; "));
    }

    // The acceptance check: every worker's final checkpoint is bitwise
    // identical to the in-process oracle.
    for rank in 0..args.world {
        let path = args.dir.join(format!("rank{rank}.final.ckpt"));
        let got = std::fs::read(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        if got != oracle {
            return Err(format!(
                "rank {rank}: final checkpoint ({} bytes) differs from the single-process oracle ({} bytes)",
                got.len(),
                oracle.len()
            ));
        }
    }
    eprintln!(
        "samo-launch: {} final checkpoints bitwise equal to the oracle ({} bytes)",
        args.world,
        oracle.len()
    );

    if drill {
        // Detection and recovery must both have left evidence: at least
        // one survivor recorded a bounded step error, and at least one
        // rank resynced in a later generation.
        let mut detect_ms: Option<u64> = None;
        let mut resyncs = 0usize;
        for ev in (0..args.world).flat_map(|rank| read_events(&args.dir, rank)) {
            match (ev.get("kind"), ev.get("detect_ms")) {
                (Some(Json::Str(kind)), Some(&Json::UInt(ms))) if kind == "step_error" => {
                    detect_ms = Some(detect_ms.map_or(ms, |d| d.min(ms)));
                }
                (Some(Json::Str(kind)), _) if kind == "resync" => resyncs += 1,
                _ => {}
            }
        }
        let detect =
            detect_ms.ok_or("drill: no survivor recorded a step_error event".to_string())?;
        if detect >= 8_000 {
            return Err(format!(
                "drill: fastest failure detection took {detect} ms — beyond the heartbeat window, the 10s deadline did the work"
            ));
        }
        if resyncs == 0 {
            return Err("drill: no rank recorded a resync event".into());
        }
        eprintln!(
            "samo-launch: drill OK — fastest detection {detect} ms, {resyncs} resync events"
        );
    }
    Ok(())
}

fn main() {
    let res = parse_args().and_then(|args| match args.rank {
        Some(rank) => std::process::exit(worker(rank, &args)),
        None => parent(args),
    });
    if let Err(e) = res {
        eprintln!("samo-launch: FAILED: {e}");
        std::process::exit(1);
    }
}
