//! Hot checkpoint reload: watch, verify off-path, swap, measure.
//!
//! A watcher thread polls [`CheckpointSubscriber`] for a new
//! `{prefix}.published` marker (the atomic publish contract from
//! `samo::checkpoint`). On a new publish it does ALL the expensive
//! work on its own thread — read, CRC-validate, prove bitwise against
//! a fresh load ([`crate::load_verified`]), and lower one [`crate::BuiltModel`] per
//! replica — and only then hands the ready models to the dispatcher,
//! which enqueues one swap command per replica. Serving never
//! pauses: a replica applies its swap between two batches, so the only
//! observable cost is the **blackout window** — the span from the
//! first swap enqueued to the last replica's ack, during which mixed
//! old-step/new-step replies coexist (each still bitwise-correct for
//! the step it is stamped with). The watcher measures that window and
//! records it as `ServeStats::last_blackout_ms`; the bench gates on it.
//!
//! A checkpoint that fails verification is skipped with an error log
//! and counted in `ServeStats::reload_rejected` — the serving fleet
//! keeps answering on the model it already trusts.

use crate::model::{build_model, Backend};
use crate::server::DispatchMsg;
use crate::stats::Shared;
use nn::mixed::Optimizer;
use samo::CheckpointSubscriber;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::clock::now_us;
use telemetry::json::Json;
use telemetry::trace::{self, lane};

pub(crate) struct WatcherConfig {
    pub sub: CheckpointSubscriber,
    pub opt: Optimizer,
    pub backend: Backend,
    pub replicas: usize,
    pub poll: Duration,
}

pub(crate) fn spawn_watcher(
    cfg: WatcherConfig,
    shared: Arc<Shared>,
    dispatch: Sender<DispatchMsg>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("samo-serve-reload".to_string())
        .spawn(move || watch(cfg, shared, dispatch, shutdown))
}

fn watch(
    mut cfg: WatcherConfig,
    shared: Arc<Shared>,
    dispatch: Sender<DispatchMsg>,
    shutdown: Arc<AtomicBool>,
) {
    let watcher_tid = cfg.replicas as u64;
    while !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(cfg.poll);
        let Some((step, path)) = cfg.sub.poll() else { continue };
        let load_ts = now_us();
        // Load + verify + build: all off the serving path.
        let loaded = match crate::model::load_verified(&path, step, &cfg.opt) {
            Ok(l) => l,
            Err(e) => {
                telemetry::log_warn!("serve: rejected published step {step}: {e}");
                shared.reload_rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let mut models = Vec::with_capacity(cfg.replicas);
        let mut ok = true;
        for _ in 0..cfg.replicas {
            match build_model(&loaded.states, cfg.backend) {
                Ok(m) => models.push(m),
                Err(e) => {
                    telemetry::log_warn!("serve: cannot lower published step {step}: {e}");
                    shared.reload_rejected.fetch_add(1, Ordering::Relaxed);
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Hand the ready models over and time first-swap -> last-ack.
        let (ack_tx, ack_rx) = channel::<usize>();
        let swap_ts = now_us();
        let msg = DispatchMsg::Reload { step, states: loaded.states, models, ack: ack_tx };
        if dispatch.send(msg).is_err() {
            return; // dispatcher gone: server stopping
        }
        let mut acked = 0;
        while acked < cfg.replicas {
            match ack_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(_) => acked += 1,
                Err(_) => break, // a replica died mid-swap; respawn path covers it
            }
        }
        let end_ts = now_us();
        let blackout_us = (end_ts - swap_ts) as u64;
        shared.reloads.fetch_add(1, Ordering::Relaxed);
        shared.serving_step.store(step, Ordering::Relaxed);
        shared.last_blackout_us.store(blackout_us, Ordering::Relaxed);
        trace::slice(lane::SERVE, watcher_tid, "reload", load_ts, end_ts - load_ts, || {
            let uint = |k: &str, v: u64| (k.to_string(), Json::UInt(v));
            let args = vec![uint("step", step), uint("blackout_us", blackout_us), uint("acked", acked as u64)];
            (format!("reload step={step}"), args)
        });
        telemetry::log_info!(
            "serve: hot-reloaded step {step} on {acked}/{} replicas, blackout {:.2} ms",
            cfg.replicas,
            blackout_us as f64 / 1e3
        );
    }
}
