//! `samo-serve` — the serving endpoint, its SLA load generator, and a
//! self-contained cross-process smoke drill.
//!
//! Three modes, mirroring `samo-launch`'s worker/parent split:
//!
//! * `samo-serve --serve --dir CKPT_DIR [--addr A] [--addr-file F]
//!   [--backend dense|nm24|int8] [--replicas N] [--max-batch M]
//!   [--max-wait-us U]` — serve the currently published checkpoint
//!   until a client sends the shutdown frame. The actually bound
//!   address is published atomically to `--addr-file` (write tmp,
//!   rename), so a parent process can rendezvous without a race.
//! * `samo-serve --loadgen --addr A --features F [--clients C]
//!   [--duration-ms D] [--sla-p99-ms S]` — closed-loop load; exits
//!   nonzero if any request fails or the measured p99 misses the SLA.
//! * `samo-serve --smoke [--dir D]` — the CI end-to-end drill: train
//!   and publish a checkpoint, spawn a *child process* serving it,
//!   run a load burst, publish a newer checkpoint mid-burst and
//!   require the serving step to advance (cross-process hot reload),
//!   then shut the child down cleanly. Exits nonzero on any failure.

use serve::{Backend, BatchPolicy, LoadGenConfig, ServeClient, ServeConfig, Server, TrainPublisher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let result = match mode {
        Some("--serve") => serve_mode(&args[1..]),
        Some("--loadgen") => loadgen_mode(&args[1..]),
        Some("--smoke") => smoke_mode(&args[1..]),
        _ => Err(format!(
            "usage: samo-serve --serve|--loadgen|--smoke [options]\n{USAGE}"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("samo-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
  --serve   --dir D [--addr A] [--addr-file F] [--backend B] [--replicas N]
            [--max-batch M] [--max-wait-us U]
  --loadgen --addr A --features F [--clients C] [--duration-ms D] [--sla-p99-ms S]
  --smoke   [--dir D]";

/// `--key value` argument lookup; repo-style manual parsing.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn opt_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")),
    }
}

/// Atomic rendezvous-file publish: tmp + rename, like samo-launch.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

fn serve_mode(args: &[String]) -> Result<(), String> {
    let dir = opt(args, "--dir").ok_or("--serve needs --dir CKPT_DIR")?;
    let mut cfg = ServeConfig::new(PathBuf::from(dir));
    if let Some(a) = opt(args, "--addr") {
        cfg.addr = a.to_string();
    }
    cfg.backend = Backend::parse(opt(args, "--backend").unwrap_or("dense"))?;
    cfg.replicas = opt_num(args, "--replicas", 2usize)?;
    cfg.policy = BatchPolicy {
        max_batch: opt_num(args, "--max-batch", 32usize)?,
        max_wait: Duration::from_micros(opt_num(args, "--max-wait-us", 1_000u64)?),
    };
    let server = Server::start(cfg)?;
    println!("samo-serve: listening on {}", server.addr());
    if let Some(f) = opt(args, "--addr-file") {
        write_atomic(Path::new(f), &format!("{}\n", server.addr()))?;
    }
    // Serve until a client asks us to stop (no timeout: the parent in
    // --smoke owns our lifetime and always sends the shutdown frame).
    while !server.wait_shutdown(Duration::from_secs(3600)) {}
    let stats = server.stop();
    println!(
        "samo-serve: done; {} requests in {} batches (mean fill {:.1}), \
         {} reloads, {} respawns, p50 {:.2} ms p99 {:.2} ms",
        stats.requests,
        stats.batches,
        stats.mean_batch_fill,
        stats.reloads,
        stats.respawns,
        stats.p50_latency_ms,
        stats.p99_latency_ms
    );
    Ok(())
}

fn loadgen_mode(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--addr").ok_or("--loadgen needs --addr HOST:PORT")?;
    let features = opt_num(args, "--features", 0usize)?;
    if features == 0 {
        return Err("--loadgen needs --features N (the model's input width)".into());
    }
    let mut cfg = LoadGenConfig::new(addr, features);
    cfg.clients = opt_num(args, "--clients", 8usize)?;
    cfg.duration = Duration::from_millis(opt_num(args, "--duration-ms", 1_000u64)?);
    let sla_p99_ms: f64 = opt_num(args, "--sla-p99-ms", 0.0f64)?;
    let report = serve::loadgen::run(&cfg)?;
    println!(
        "samo-serve loadgen: {} ok / {} sent ({} timeouts, {} errors), \
         {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, steps {:?}",
        report.ok,
        report.sent,
        report.timeouts,
        report.errors,
        report.throughput_rps,
        report.p50_ms,
        report.p99_ms,
        report.steps_seen
    );
    if report.failed() > 0 {
        return Err(format!("{} requests failed", report.failed()));
    }
    if sla_p99_ms > 0.0 && report.p99_ms > sla_p99_ms {
        return Err(format!("p99 {:.2} ms misses the {sla_p99_ms:.2} ms SLA", report.p99_ms));
    }
    Ok(())
}

/// The E2E smoke drill CI runs: cross-process serve + hot reload.
fn smoke_mode(args: &[String]) -> Result<(), String> {
    let dir = match opt(args, "--dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("samo-serve-smoke-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    const DIMS: [usize; 3] = [16, 32, 8];
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 42)?;
    let (step0, _) = publisher.publish_after(2)?;
    println!("smoke: published initial checkpoint at step {step0}");

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let addr_file = dir.join("serve.addr");
    let mut child = std::process::Command::new(&exe)
        .args(["--serve", "--replicas", "2", "--dir"])
        .arg(&dir)
        .arg("--addr-file")
        .arg(&addr_file)
        .spawn()
        .map_err(|e| format!("spawn server child: {e}"))?;
    let smoke = (|| -> Result<(), String> {
        // Rendezvous on the atomically published address file.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            if Instant::now() >= deadline {
                return Err("server child never published its address".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        println!("smoke: server up at {addr}");

        // Burst 1 against the initial checkpoint.
        let mut cfg = LoadGenConfig::new(addr.clone(), DIMS[0]);
        cfg.clients = 4;
        cfg.duration = Duration::from_millis(300);
        let r1 = serve::loadgen::run(&cfg)?;
        println!("smoke: burst 1: {} ok, {} failed, steps {:?}", r1.ok, r1.failed(), r1.steps_seen);
        if r1.ok == 0 || r1.failed() > 0 {
            return Err(format!("burst 1: {} ok, {} failed", r1.ok, r1.failed()));
        }

        // Publish a newer checkpoint; the child must hot-reload it.
        let (step1, _) = publisher.publish_after(2)?;
        cfg.seed = 2;
        let reload_deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let r = serve::loadgen::run(&cfg)?;
            if r.failed() > 0 {
                return Err(format!("burst under reload: {} failed", r.failed()));
            }
            if r.steps_seen.contains(&step1) {
                println!("smoke: hot reload observed, serving step {step1}");
                break;
            }
            if Instant::now() >= reload_deadline {
                return Err(format!(
                    "server never served step {step1} (saw {:?})",
                    r.steps_seen
                ));
            }
        }

        // Clean shutdown handshake.
        let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        client
            .shutdown_server(Duration::from_secs(10))
            .map_err(|e| format!("shutdown: {e}"))?;
        Ok(())
    })();
    if smoke.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait child: {e}"))?;
    smoke?;
    if !status.success() {
        return Err(format!("server child exited with {status}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("smoke: PASS");
    Ok(())
}
