//! `serve_open`: the serving half of the ledger. An in-process
//! `serve::Server` (2:4 backend, one replica, default batch policy) answers
//! **open-loop** Poisson arrivals at three fixed rates, then keeps
//! answering through two hot reloads. Open loop with latency from the due
//! time is what lets the batcher, the dispatcher queue and the reload
//! blackout show as the queueing effects they are; the 2:4 backend is
//! used because its kernel is the fastest, which leaves queueing, batching
//! and framing the largest share of a request.

use super::{cpu_user_ms, peak_rss_mb, timed_setup, Ctx, Outcome, PROBE_BUDGET_S, SETUP_REPEATS};
use crate::calib::Calibrator;
use crate::loadgen::{Arrival, LoadGen, Record, Status, DEADLINE};
use crate::metrics::{Values, NOT_APPLICABLE};
use crate::schedule::{derive_seed, poisson_arrivals, SplitMix64};
use crate::spans::{Ledger, Recorder};
use crate::stats::{
    highest_supported, median, percentile, quiet_quarter, time_segments, KEPT, SEGMENTS,
};
use serve::{Backend, ServeConfig, ServeStats, Server, TrainPublisher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DIMS: &[usize] = &[64, 768, 768, 64];
const BACKEND: Backend = Backend::Nm24;
/// Client connections, each pipelining many requests.
const CONNECTIONS: usize = 2;
/// Arrival rates, requests per second: low, middle, top. The issue's
/// rates, not re-centred: the closed-loop saturation measured when the
/// benchmark was sized was 1288 to 2862 requests/s, so the top rate is a
/// quarter to a half of it (see README.md).
pub const RATES: [f64; 3] = [100.0, 300.0, 600.0];
/// Latency limit on the tail percentile, from the due time.
pub const LIMIT_MS: f64 = 25.0;
/// A generator that sends later than this at its 99th percentile is not
/// offering the schedule it claims: the run's serving numbers are marked
/// unresolved.
pub const LATE_LIMIT_MS: f64 = 1.0;
/// Every `PROBE_EVERY`-th request carries the fixed probe vector, whose
/// reply is compared bitwise with the oracle of the step stamped on it.
const PROBE_EVERY: usize = 50;
/// Share of the window each phase takes: low, middle, top, reload.
const PHASE_SHARE: [f64; 4] = [0.2, 0.3, 0.3, 0.2];
/// When, as a share of the reload phase, the two publishes happen.
const PUBLISH_AT: [f64; 2] = [0.2, 0.55];
const WARMUP_S: f64 = 0.3;

const LOW: usize = 0;
const MID: usize = 1;
const TOP: usize = 2;
const RELOAD: usize = 3;
/// The warm-up burst of a bring-up.
const WARMUP: usize = 4;

struct Rig {
    publisher: TrainPublisher,
    server: Server,
    gen: LoadGen,
    /// Every published `(step, path)`, oldest first.
    published: Vec<(u64, PathBuf)>,
}

fn phi() -> usize {
    DIMS.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
}

fn probe_vector() -> Vec<f32> {
    (0..DIMS[0])
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect()
}

fn bring_up(ctx: &Ctx, attempt: usize) -> Result<Rig, String> {
    let dir = ctx.run_dir.join(format!("serve-{attempt}"));
    let mut publisher = TrainPublisher::new(&dir, DIMS, derive_seed(ctx.seed, 1))?;
    let first = publisher.publish_after(2)?;
    let mut cfg = ServeConfig::new(&dir);
    cfg.backend = BACKEND;
    cfg.replicas = 1;
    let server = Server::start(cfg)?;
    let mut gen = LoadGen::connect(server.addr(), CONNECTIONS)?;
    let warm = arrivals(ctx.seed, &[(WARMUP, RATES[MID], WARMUP_S)], 0);
    let failed = gen.run(&warm, |_| {}).iter().filter(|r| !r.ok()).count();
    if failed > 0 {
        return Err(format!(
            "{failed} of {} warm-up requests failed",
            warm.len()
        ));
    }
    Ok(Rig {
        publisher,
        server,
        gen,
        published: vec![first],
    })
}

/// The schedule of `phases` (`(phase, rate, seconds)`) run back to back.
/// `first_index` numbers the requests across schedules so that probes land
/// on every `PROBE_EVERY`-th request of the run.
fn arrivals(seed: u64, phases: &[(usize, f64, f64)], first_index: usize) -> Vec<Arrival> {
    let mut features = SplitMix64::new(derive_seed(seed, 50 + first_index as u64));
    let mut out = Vec::new();
    let mut start = 0.0;
    for &(phase, rate, seconds) in phases {
        for due in poisson_arrivals(rate, seconds, derive_seed(seed, 100 + phase as u64)) {
            let probe = (first_index + out.len()).is_multiple_of(PROBE_EVERY);
            out.push(Arrival {
                due_s: start + due,
                phase,
                features: if probe {
                    probe_vector()
                } else {
                    (0..DIMS[0]).map(|_| features.next_signed()).collect()
                },
            });
        }
        start += seconds;
    }
    out
}

/// A request that failed or timed out counts as taking the whole deadline.
fn latency_or_deadline(r: &Record) -> f64 {
    if r.ok() {
        r.latency_ms()
    } else {
        DEADLINE.as_secs_f64() * 1e3
    }
}

fn latencies_ms(records: &[Record], phase: usize) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.phase == phase)
        .map(latency_or_deadline)
        .collect()
}

/// The highest percentile the phase's sample supports, and its value.
fn tail(lat: &[f64]) -> (f64, f64) {
    let q = highest_supported(lat.len(), &[0.95, 0.99]).unwrap_or(0.95);
    (q, percentile(lat, q))
}

/// Whether `phase` met the limit: tail within [`LIMIT_MS`], at most 0.1 %
/// failed, and no growing backlog (the last third's median at most twice
/// the first third's).
fn rate_ok(records: &[Record], phase: usize) -> bool {
    let of_phase: Vec<&Record> = records.iter().filter(|r| r.phase == phase).collect();
    let lat = latencies_ms(records, phase);
    if lat.is_empty() {
        return false;
    }
    let failed = of_phase.iter().filter(|r| !r.ok()).count();
    let third = lat.len() / 3;
    let steady = third == 0 || median(&lat[lat.len() - third..]) <= 2.0 * median(&lat[..third]);
    tail(&lat).1 <= LIMIT_MS && failed as f64 <= 0.001 * lat.len() as f64 && steady
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx.traced);
    out.ledger_root = "request";
    let mut cal = Calibrator::default();
    let (rig, first_setup_s) = timed_setup(&mut cal, || bring_up(ctx, 0))?;
    let mut setup_s = vec![first_setup_s];
    let Rig {
        mut publisher,
        server,
        mut gen,
        mut published,
    } = rig;

    let window = ctx.seconds;
    let phases: [(usize, f64, f64); 4] = [
        (LOW, RATES[LOW], window * PHASE_SHARE[LOW]),
        (MID, RATES[MID], window * PHASE_SHARE[MID]),
        (TOP, RATES[TOP], window * PHASE_SHARE[TOP]),
        (RELOAD, RATES[MID], window * PHASE_SHARE[RELOAD]),
    ];
    let schedule = arrivals(ctx.seed, &phases, 1);
    let reload_start: f64 = phases
        .iter()
        .take_while(|p| p.0 != RELOAD)
        .map(|p| p.2)
        .sum();
    let reload_len = window * PHASE_SHARE[RELOAD];

    // Server counters at the start of each phase, then at the end.
    let mut marks: Vec<(usize, ServeStats)> = Vec::new();
    let mut wire_bytes = 0;
    let cpu_before = cpu_user_ms();
    let t0 = Instant::now();
    let (records, blackouts_ms) = std::thread::scope(|s| {
        let (server, publisher, published) = (&server, &mut publisher, &mut published);
        // The training job on the other side of the publish marker: it
        // wakes twice during the reload phase, trains one step, publishes,
        // and waits for the server to pick the checkpoint up.
        let trainer = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut blackouts = Vec::new();
            for at in PUBLISH_AT {
                let wake = t0 + Duration::from_secs_f64(reload_start + at * reload_len);
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                let before = server.stats().reloads;
                published.push(publisher.publish_after(1)?);
                let give_up = Instant::now() + Duration::from_secs(2);
                while server.stats().reloads == before {
                    if Instant::now() > give_up {
                        return Err(
                            "the server did not reload a published checkpoint within 2 s"
                                .to_string(),
                        );
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                blackouts.push(server.stats().last_blackout_ms);
            }
            Ok(blackouts)
        });
        let wire_before = gen.wire_bytes();
        let records = gen.run(&schedule, |p| marks.push((p, server.stats())));
        wire_bytes = gen.wire_bytes() - wire_before;
        (
            records,
            trainer.join().expect("the publisher thread does not panic"),
        )
    });
    marks.push((usize::MAX, server.stats()));
    let cpu_ms = cpu_user_ms() - cpu_before;
    let rss = peak_rss_mb();
    drop(gen);
    let stats = server.stop();
    // A reload that never happened is a failed check, not a lost run.
    let blackouts_ms = blackouts_ms.unwrap_or_else(|e| {
        out.check(false, || e);
        vec![0.0; PUBLISH_AT.len()]
    });

    // Output checks: every request answered, every probe reply bitwise
    // equal to a fresh load of the checkpoint stamped on it.
    let probe = probe_vector();
    let mut oracle: Vec<(u64, Vec<f32>)> = Vec::new();
    for (step, path) in &published {
        oracle.push((
            *step,
            publisher.oracle_outputs(path, *step, BACKEND, &probe)?,
        ));
    }
    let mut crc_bytes = Vec::new();
    for (step, output) in &oracle {
        crc_bytes.extend_from_slice(&step.to_le_bytes());
        crc_bytes.extend(output.iter().flat_map(|v| v.to_le_bytes()));
    }
    out.state_crc = samo::serialize::crc32(&crc_bytes);
    let mut probes = 0;
    for (a, r) in schedule.iter().zip(&records) {
        out.attempted += 1;
        match &r.status {
            Status::Ok { step, output } => {
                if a.features == probe {
                    probes += 1;
                    let want = oracle.iter().find(|(s, _)| s == step).map(|(_, o)| o);
                    let same = want.is_some_and(|w| {
                        w.len() == output.len()
                            && w.iter()
                                .zip(output)
                                .all(|(x, y)| x.to_bits() == y.to_bits())
                    });
                    if !same {
                        out.failed += 1;
                        out.oracle_failures.push(format!("probe reply stamped step {step} differs from a fresh load of that checkpoint"));
                    }
                }
            }
            other => {
                out.failed += 1;
                if out.oracle_failures.len() < 8 {
                    out.oracle_failures
                        .push(format!("request due at {:.3} s: {other:?}", r.due_s));
                }
            }
        }
    }
    out.check(stats.reloads == PUBLISH_AT.len() as u64, || {
        format!(
            "{} reloads for {} publishes",
            stats.reloads,
            PUBLISH_AT.len()
        )
    });

    for &(p, rate, _) in &phases {
        let of_phase: Vec<&Record> = records.iter().filter(|r| r.phase == p).collect();
        let lat = latencies_ms(&records, p);
        let (q, t) = tail(&lat);
        let late: Vec<f64> = of_phase.iter().map(|r| r.late_ms()).collect();
        out.notes.push(format!(
            "phase {p} at {rate} req/s: sent {} ok {} failed {}; p50 {:.3} ms, p{:.0} {:.3} ms; \
             sent late p99 {:.3} ms",
            of_phase.len(),
            of_phase.iter().filter(|r| r.ok()).count(),
            of_phase.iter().filter(|r| !r.ok()).count(),
            percentile(&lat, 0.5),
            q * 100.0,
            t,
            percentile(&late, 0.99)
        ));
    }
    out.notes.push(format!(
        "{probes} probe replies compared with the oracle of their step"
    ));

    if !records.iter().any(Record::ok) {
        return Err("no request was answered".to_string());
    }
    let mid = latencies_ms(&records, MID);
    // Over the three fixed-rate phases, whose numbers the run reports. In
    // the reload phase the publisher's training step and the server's
    // checkpoint load share the two cores with the generator, which then
    // runs late by design of the phase; its lateness is printed above.
    let late: Vec<f64> = records
        .iter()
        .filter(|r| r.phase != RELOAD)
        .map(|r| r.late_ms())
        .collect();
    let late_p99 = percentile(&late, 0.99);
    if late_p99 > LATE_LIMIT_MS {
        out.unresolved.push(format!(
            "the generator sent {late_p99:.3} ms late at its 99th percentile over the fixed-rate \
             phases (limit {LATE_LIMIT_MS} ms): the serving numbers of this run are unresolved"
        ));
    }
    // The top-rate phase's own wall: from its start to its end, or to its
    // last reply if that came later, so a rate over it never exceeds the
    // offered one.
    let top_start: f64 = phases[..TOP].iter().map(|p| p.2).sum();
    let top_end = records
        .iter()
        .filter(|r| r.phase == TOP)
        .map(|r| r.done_s)
        .fold(top_start + phases[TOP].2, f64::max);
    let top: Vec<&Record> = records.iter().filter(|r| r.phase == TOP).collect();
    let offered = top.len() as f64 / (top_end - top_start);
    let good = |r: &Record| r.ok() && r.latency_ms() <= LIMIT_MS;
    let goodput_window = offered * top.iter().filter(|r| good(r)).count() as f64 / top.len() as f64;
    if !ctx.traced {
        // The quiet quarter of a phase: the five of its twenty time slices
        // with the lowest median latency, by due time.
        let quiet = |phase: usize| -> Vec<&Record> {
            let start: f64 = phases[..phase].iter().map(|p| p.2).sum();
            let of_phase: Vec<&Record> = records.iter().filter(|r| r.phase == phase).collect();
            let events: Vec<(f64, f64)> = of_phase
                .iter()
                .enumerate()
                .map(|(i, r)| (r.due_s, i as f64))
                .collect();
            let slices = time_segments(&events, start, start + phases[phase].2);
            let cost = |s: &[(f64, f64)]| {
                median(
                    &s.iter()
                        .map(|e| latency_or_deadline(of_phase[e.1 as usize]))
                        .collect::<Vec<_>>(),
                )
            };
            quiet_quarter(slices, cost)
                .into_iter()
                .map(|e| of_phase[e.1 as usize])
                .collect()
        };
        let quiet_mid: Vec<f64> = quiet(MID).into_iter().map(latency_or_deadline).collect();
        // The share of the quiet quarter's requests answered within the
        // limit, at the rate the phase offered: counting replies per slice
        // would measure the arrival schedule, whose count per slice varies.
        let quiet_top = quiet(TOP);
        let goodput =
            offered * quiet_top.iter().filter(|r| good(r)).count() as f64 / quiet_top.len() as f64;
        // The remaining bring-ups, after peak memory was read.
        for attempt in 1..SETUP_REPEATS {
            let (rig, s) = timed_setup(&mut cal, || bring_up(ctx, attempt))?;
            drop(rig.gen);
            rig.server.stop();
            setup_s.push(s);
        }
        let mut v = Values::default();
        v.set("setup_s", median(&setup_s));
        v.set("throughput_per_s", goodput);
        v.set("latency_ms_p50", percentile(&quiet_mid, 0.50));
        v.set("peak_rss_mb", rss);
        let ckpt_bytes = std::fs::metadata(&published[0].1)
            .map_err(|e| format!("stat checkpoint: {e}"))?
            .len();
        v.set("state_bytes_per_param", ckpt_bytes as f64 / phi() as f64);
        v.set(
            "wire_bytes_per_step",
            wire_bytes as f64 / schedule.len() as f64,
        );
        v.set("final_loss", NOT_APPLICABLE);
        out.values = v;
        out.notes.push(format!(
            "latency over the {} requests of the quietest {KEPT} in {SEGMENTS} slices of the {} \
             requests/s phase, goodput over the {} of the {} requests/s phase; whole phases: \
             p50 {:.3} ms, goodput {goodput_window:.3} /s; generator lateness p99 {late_p99:.3} ms",
            quiet_mid.len(),
            RATES[MID],
            quiet_top.len(),
            RATES[TOP],
            percentile(&mid, 0.50)
        ));
        return Ok(out);
    }

    // The generator keeps every request's due, sent and reply times in any
    // run; tracing turns them into spans afterwards and so costs the run
    // nothing, which is the 0 that `bench.trace_overhead_share` keeps.
    let rec = Recorder::on();
    for (i, r) in records.iter().enumerate() {
        let lane = r.conn as u32 + 1;
        let us = |s: f64| s * 1e6;
        let root = rec.record("request", lane, i as u64, None, us(r.due_s), us(r.done_s));
        rec.record(
            "bench.loadgen_late",
            lane,
            i as u64,
            root,
            us(r.due_s),
            us(r.sent_s),
        );
        rec.record(
            "serve.roundtrip",
            lane,
            i as u64,
            root,
            us(r.sent_s),
            us(r.done_s),
        );
    }
    out.spans = rec.take();
    let ledger = Ledger::build(&out.spans, "request");

    let v = &mut out.values;
    v.set("serve.server_p50_ms", stats.p50_latency_ms);
    v.set("serve.server_p99_ms", stats.p99_latency_ms);
    let roundtrip: Vec<f64> = records
        .iter()
        .filter(|r| r.ok())
        .map(|r| (r.done_s - r.sent_s) * 1e3)
        .collect();
    v.set(
        "serve.client_minus_server_p50_ms",
        percentile(&roundtrip, 0.5) - stats.p50_latency_ms,
    );
    v.set("serve.req_p99_ms", percentile(&mid, 0.99));
    v.set("bench.latency_ms_p95", percentile(&mid, 0.95));
    v.set("bench.window_throughput_per_s", goodput_window);
    v.set("bench.window_latency_ms_p50", percentile(&mid, 0.50));
    v.set("bench.cpu_user_ms_per_step", cpu_ms / schedule.len() as f64);
    let ok_rate = [TOP, MID, LOW]
        .into_iter()
        .find(|&p| rate_ok(&records, p))
        .map_or(0.0, |p| RATES[p]);
    v.set("serve.max_rate_ok_rps", ok_rate);
    let mark = |phase: usize| marks.iter().position(|m| m.0 == phase);
    let fill = |phase: usize| -> f64 {
        mark(phase).map_or(0.0, |i| {
            let (a, b) = (&marks[i].1, &marks[i + 1].1);
            (b.responses - a.responses) as f64 / (b.batches - a.batches).max(1) as f64
        })
    };
    v.set("serve.batch_fill_mean.r100", fill(LOW));
    v.set("serve.batch_fill_mean.r300", fill(MID));
    v.set("serve.batch_fill_mean.r600", fill(TOP));
    v.set("serve.batches", (stats.batches - marks[0].1.batches) as f64);
    v.set("serve.reload.blackout_ms_first", blackouts_ms[0]);
    v.set(
        "serve.reload.blackout_ms_later_max",
        blackouts_ms[1..].iter().copied().fold(0.0, f64::max),
    );
    v.set("serve.reload.reloads", stats.reloads as f64);
    v.set("serve.respawns", stats.respawns as f64);
    v.set("serve.errors", stats.errors as f64);
    v.set("serve.dropped", stats.dropped as f64);
    v.set("serve.loadgen_late_ms_p99", late_p99);
    v.set("bench.unattributed_share", ledger.unattributed_share());
    crate::probes::serve_open(ctx, PROBE_BUDGET_S, &mut out.values)?;
    Ok(out)
}
