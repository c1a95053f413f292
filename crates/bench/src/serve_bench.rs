//! `repro serve` — the serving runtime (DESIGN.md §17) measured
//! end-to-end over real loopback sockets: closed-loop SLA load against
//! every compute backend at batch size 1 vs batched, plus a hot-reload
//! drill under sustained load — recorded as a `serve` section in
//! `BENCH_hotpaths.json`.
//!
//! The run is held to the `serve` gate ([`crate::gates`]):
//! * the hot-reload drill must complete **every** request (a reload
//!   that fails traffic is a broken reload, full stop), must actually
//!   reload each published generation, and must keep its blackout far
//!   below a request lifetime;
//! * when AVX2+FMA is detected, batched serving must beat batch-1 on
//!   the dense backend (the continuous batcher's reason to exist).
//!
//! 2:4 structured and int8 over dense f32 at the same batched setting
//! are recorded beside it as data: they are the `kernels` row's
//! floors seen through a queue, at whatever batch fill the load reaches,
//! and a floor is gated once — on the kernel. On hardware without AVX2
//! the batching gate is skipped (scalar matvec vs scalar matmul is not
//! the comparison it is about) and the section records
//! `avx2_detected: false` so CI can tell the difference. Latency
//! quantiles are exact client-side measurements, not histogram buckets.

use serve::{Backend, BatchPolicy, LoadGenConfig, ServeConfig, Server, TrainPublisher};
use std::path::PathBuf;
use std::time::Duration;
use telemetry::json::Json;
use tensor::simd::{self, Tier};

use crate::harness::{self, obj, round6};
use crate::Table;

/// One measured serving operating point.
struct Point {
    backend: Backend,
    max_batch: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_fill: f64,
    requests: u64,
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("samo-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// 64 → 768 → 768 → 64: wide enough that the batched GEMM dominates
/// per-request dispatch overhead, so backend ratios measured here are
/// compute ratios, not protocol noise.
const DIMS: [usize; 4] = [64, 768, 768, 64];

fn measure(
    dir: &std::path::Path,
    backend: Backend,
    max_batch: usize,
    load_ms: u64,
    clients: usize,
) -> Result<Point, String> {
    let mut cfg = ServeConfig::new(dir);
    cfg.backend = backend;
    // One replica: the batch-1 vs batched comparison must measure the
    // batcher, not replica-level parallelism.
    cfg.replicas = 1;
    cfg.policy = BatchPolicy { max_batch, max_wait: Duration::from_micros(500) };
    let server = Server::start(cfg)?;
    let mut lg = LoadGenConfig::new(server.addr().to_string(), DIMS[0]);
    lg.clients = clients;
    lg.duration = Duration::from_millis(load_ms);
    lg.seed = max_batch as u64;
    // Warmup: let every client connect and the scratch buffers size up.
    let mut warm = lg.clone();
    warm.duration = Duration::from_millis(50);
    serve::loadgen::run(&warm)?;
    let report = serve::loadgen::run(&lg)?;
    let stats = server.stop();
    if report.failed() > 0 {
        return Err(format!(
            "{backend} max_batch={max_batch}: {} requests failed",
            report.failed()
        ));
    }
    Ok(Point {
        backend,
        max_batch,
        throughput_rps: report.throughput_rps,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        mean_fill: stats.mean_batch_fill,
        requests: report.ok,
    })
}

/// The hot-reload drill: sustained load while `generations` new
/// checkpoints are published; returns (loadgen report, final server
/// stats, blackout after each observed reload, steps seen).
fn reload_drill(
    dir: &std::path::Path,
    publisher: &mut TrainPublisher,
    generations: usize,
    load_ms: u64,
) -> Result<(serve::LoadGenReport, serve::ServeStats, Vec<f64>), String> {
    let mut cfg = ServeConfig::new(dir);
    cfg.replicas = 2;
    cfg.reload_poll = Duration::from_millis(10);
    let server = Server::start(cfg)?;
    let mut lg = LoadGenConfig::new(server.addr().to_string(), DIMS[0]);
    lg.clients = 8;
    lg.duration = Duration::from_millis(load_ms);
    let loader = std::thread::spawn(move || serve::loadgen::run(&lg));
    let mut blackouts = Vec::with_capacity(generations);
    let per_gen = Duration::from_millis(load_ms / (generations as u64 + 1));
    for _ in 0..generations {
        std::thread::sleep(per_gen);
        let before = server.stats().reloads;
        publisher.publish_after(1)?;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.stats().reloads == before {
            if std::time::Instant::now() >= deadline {
                return Err("published checkpoint was never reloaded".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        blackouts.push(server.stats().last_blackout_ms);
    }
    let report = loader
        .join()
        .map_err(|_| "load generator panicked".to_string())??;
    let stats = server.stop();
    Ok((report, stats, blackouts))
}

pub fn run(quick: bool) -> Result<(), String> {
    let detected = simd::active() == Tier::Avx2;
    let (load_ms, clients) = if quick { (300, 32) } else { (800, 32) };
    let batch_sizes: &[usize] = if quick { &[1, 32] } else { &[1, 8, 32] };
    let dir = tmpdir("main");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 97)?;
    publisher.publish_after(2)?;

    telemetry::log_info!(
        "\n=== repro serve: {}x{}x{}x{} MLP, {clients} closed-loop clients, tier {} ===",
        DIMS[0], DIMS[1], DIMS[2], DIMS[3],
        simd::active().name()
    );
    let mut tab = Table::new(
        "serve",
        &["backend", "max_batch", "req_per_s", "p50_ms", "p99_ms", "mean_fill"],
    );
    let mut points: Vec<Point> = Vec::new();
    for &backend in &Backend::ALL {
        for &mb in batch_sizes {
            let p = measure(&dir, backend, mb, load_ms, clients)?;
            tab.push(vec![
                p.backend.to_string(),
                p.max_batch.to_string(),
                format!("{:.0}", p.throughput_rps),
                format!("{:.2}", p.p50_ms),
                format!("{:.2}", p.p99_ms),
                format!("{:.1}", p.mean_fill),
            ]);
            points.push(p);
        }
    }
    println!("{}", tab.render());

    // --- Hot-reload drill under load. ---------------------------------
    let generations = crate::gates::RELOAD_GENERATIONS as usize;
    let (reload_report, reload_stats, blackouts) =
        reload_drill(&dir, &mut publisher, generations, if quick { 900 } else { 1500 })?;
    telemetry::log_info!(
        "serve: reload drill: {} ok / {} failed across {} reloads, blackouts {:?} ms, steps {:?}",
        reload_report.ok,
        reload_report.failed(),
        reload_stats.reloads,
        blackouts.iter().map(|b| (b * 100.0).round() / 100.0).collect::<Vec<_>>(),
        reload_report.steps_seen
    );

    let find = |backend: Backend, mb: usize| -> &Point {
        points
            .iter()
            .find(|p| p.backend == backend && p.max_batch == mb)
            .expect("measured above")
    };
    let big = *batch_sizes.last().unwrap();
    let dense1 = find(Backend::Dense, 1);
    let dense_b = find(Backend::Dense, big);
    let nm24_b = find(Backend::Nm24, big);
    let int8_b = find(Backend::Int8, big);
    let batch_speedup = dense_b.throughput_rps / dense1.throughput_rps;
    let nm24_ratio = nm24_b.throughput_rps / dense_b.throughput_rps;
    let int8_ratio = int8_b.throughput_rps / dense_b.throughput_rps;
    telemetry::log_info!(
        "serve: dense batched/b1 {batch_speedup:.2}x, nm24/dense {nm24_ratio:.2}x, int8/dense {int8_ratio:.2}x"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("avx2_detected", Json::Bool(detected)),
        ("active_tier", Json::Str(simd::active().name().to_string())),
        ("dims", Json::Arr(DIMS.iter().map(|&d| Json::UInt(d as u64)).collect())),
        ("clients", Json::UInt(clients as u64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        obj([
                            ("backend", Json::Str(p.backend.to_string())),
                            ("max_batch", Json::UInt(p.max_batch as u64)),
                            ("throughput_rps", round6(p.throughput_rps)),
                            ("p50_ms", round6(p.p50_ms)),
                            ("p99_ms", round6(p.p99_ms)),
                            ("mean_fill", round6(p.mean_fill)),
                            ("requests", Json::UInt(p.requests)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("batch_speedup", round6(batch_speedup)),
        ("nm24_over_dense", round6(nm24_ratio)),
        ("int8_over_dense", round6(int8_ratio)),
        (
            "reload",
            obj([
                ("requests_ok", Json::UInt(reload_report.ok)),
                ("requests_failed", Json::UInt(reload_report.failed())),
                ("reloads", Json::UInt(reload_stats.reloads)),
                ("respawns", Json::UInt(reload_stats.respawns)),
                ("blackout_ms", Json::Arr(blackouts.iter().map(|&b| round6(b)).collect())),
                ("max_blackout_ms", round6(blackouts.iter().cloned().fold(0.0, f64::max))),
                (
                    "steps_seen",
                    Json::Arr(reload_report.steps_seen.iter().map(|&s| Json::UInt(s)).collect()),
                ),
            ]),
        ),
    ]);
    harness::record("serve", vec![("serve".to_string(), section)])
}
