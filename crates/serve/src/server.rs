//! The serving endpoint: listener, per-connection readers, the
//! batching dispatcher, the replica pool, and the reload watcher —
//! all std threads and channels, stitched together exactly like the
//! training transport (20 ms poll loops, shutdown flags, no async
//! runtime).
//!
//! ```text
//!  clients ──TCP──▶ reader threads ──┐
//!                                    │ DispatchMsg::Request
//!                                    ▼
//!  reload watcher ──Reload──▶  dispatcher  ──Batch/Swap──▶ replicas ──▶ FrameWriter ──TCP──▶ clients
//!                               (fill-or-deadline, round-robin,
//!                                respawn-on-dead-replica)
//! ```
//!
//! The dispatcher is the only consumer of the central channel. It
//! seeds a batch with the first request, runs the fill-or-deadline
//! collector (control messages arriving mid-fill are deferred, not
//! dropped — see `batcher`), and hands the batch to the next replica
//! round-robin. A send onto a dead replica's channel (killed by the
//! crash drill) bounces back with the batch, which is re-sent to a
//! freshly spawned replica built from the dispatcher's current
//! checkpoint snapshot — the batch in hand survives every crash.
//!
//! Every connection is read through one `FrameReader` and answered
//! through one shared `FrameWriter` (`comms::tcp::framing`). The writer
//! carries the dialect's 200 ms write deadline: a client that stops
//! reading gets its connection closed and its replies counted in
//! `dropped`, instead of parking the replica that answers it — and
//! every other client's requests behind it — in `write`.

use crate::batcher::{fill_or_deadline, BatchPolicy};
use crate::model::{build_model, Backend, BuiltModel};
use crate::protocol::{self, ServerBound};
use crate::reload::{spawn_watcher, WatcherConfig};
use crate::replica::{spawn_replica, Pending, ReplicaCmd, ReplicaHandle};
use crate::stats::{ServeStats, Shared};
use comms::tcp::framing;
use nn::mixed::Optimizer;
use samo::{CheckpointSubscriber, SamoLayerState};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Matches the transport's reader poll cadence.
const POLL: Duration = Duration::from_millis(20);

/// Everything a serving endpoint needs to start.
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (read it back
    /// from [`Server::addr`]).
    pub addr: String,
    /// Checkpoint directory watched for `{prefix}.published`.
    pub ckpt_dir: PathBuf,
    pub prefix: String,
    pub backend: Backend,
    /// Model copies, one OS thread each.
    pub replicas: usize,
    pub policy: BatchPolicy,
    /// Optimizer the checkpoints were written under (sizes the
    /// compressed optimizer-state sections when parsing).
    pub opt: Optimizer,
    /// Publish-marker poll cadence.
    pub reload_poll: Duration,
}

impl ServeConfig {
    pub fn new(ckpt_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ckpt_dir: ckpt_dir.into(),
            prefix: "ckpt".to_string(),
            backend: Backend::Dense,
            replicas: 2,
            policy: BatchPolicy::default(),
            opt: crate::harness::adam(),
            reload_poll: Duration::from_millis(25),
        }
    }
}

/// The dispatcher's inbox: requests interleaved with control traffic.
pub(crate) enum DispatchMsg {
    Request(Pending),
    /// Ready-built models from the reload watcher, one per replica,
    /// plus the raw states kept as the respawn snapshot.
    Reload {
        step: u64,
        states: Vec<SamoLayerState>,
        models: Vec<BuiltModel>,
        ack: Sender<usize>,
    },
    /// Fault drill: kill replica `idx`.
    Crash(usize),
    Shutdown,
}

/// A running serving endpoint. Dropping it without [`Server::stop`]
/// leaks threads; tests and the binary always stop explicitly.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    dispatch: Sender<DispatchMsg>,
    listener_join: JoinHandle<()>,
    dispatcher_join: JoinHandle<()>,
    watcher_join: JoinHandle<()>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, loads the currently published checkpoint (an error if
    /// none is published yet — a serving endpoint with no model is a
    /// misconfiguration, not a state to wait in), spawns the replica
    /// pool, and starts accepting.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        if cfg.replicas == 0 {
            return Err("need at least one replica".into());
        }
        if cfg.policy.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        let mut sub = CheckpointSubscriber::new(&cfg.ckpt_dir, &cfg.prefix);
        let (step, path) = sub.poll().ok_or_else(|| {
            format!(
                "no published checkpoint under {} (prefix {:?})",
                cfg.ckpt_dir.display(),
                cfg.prefix
            )
        })?;
        let loaded = crate::model::load_verified(&path, step, &cfg.opt)?;
        let mut models = Vec::with_capacity(cfg.replicas);
        for _ in 0..cfg.replicas {
            models.push(build_model(&loaded.states, cfg.backend)?);
        }

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared::new(step));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (dispatch_tx, dispatch_rx) = channel::<DispatchMsg>();

        let handles: Vec<ReplicaHandle> = models
            .into_iter()
            .enumerate()
            .map(|(i, m)| spawn_replica(i, m, step, shared.clone()))
            .collect::<Result<_, _>>()?;

        let dispatcher_join = {
            let shared = shared.clone();
            let shutdown = shutdown.clone();
            let policy = cfg.policy;
            let backend = cfg.backend;
            let states = loaded.states;
            std::thread::Builder::new()
                .name("samo-serve-dispatch".to_string())
                .spawn(move || {
                    dispatch_loop(dispatch_rx, handles, states, step, backend, policy, shared, shutdown)
                })
                .map_err(|e| format!("spawn dispatcher: {e}"))?
        };

        let watcher_join = spawn_watcher(
            WatcherConfig {
                sub,
                opt: cfg.opt.clone(),
                backend: cfg.backend,
                replicas: cfg.replicas,
                poll: cfg.reload_poll,
            },
            shared.clone(),
            dispatch_tx.clone(),
            shutdown.clone(),
        )
        .map_err(|e| format!("spawn reload watcher: {e}"))?;

        let conn_joins = Arc::new(Mutex::new(Vec::new()));
        let listener_join = {
            let shutdown = shutdown.clone();
            let tx = dispatch_tx.clone();
            let conn_joins = conn_joins.clone();
            std::thread::Builder::new()
                .name("samo-serve-listen".to_string())
                .spawn(move || accept_loop(listener, tx, shutdown, conn_joins))
                .map_err(|e| format!("spawn listener: {e}"))?
        };

        telemetry::log_info!(
            "samo-serve: listening on {addr}, {} x {} replicas, serving step {step}",
            cfg.replicas,
            cfg.backend
        );
        Ok(Server {
            addr,
            shutdown,
            shared,
            dispatch: dispatch_tx,
            listener_join,
            dispatcher_join,
            watcher_join,
            conn_joins,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters, for tests and the load generator mid-run.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Injects the kill-replica fault drill from the server side.
    pub fn inject_replica_crash(&self, idx: usize) {
        let _ = self.dispatch.send(DispatchMsg::Crash(idx));
    }

    /// True once a client's shutdown request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until a shutdown request arrives or `timeout` passes.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.shutdown_requested() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(POLL);
        }
        true
    }

    /// Stops everything, joins every thread, mirrors the counters into
    /// the global registry, and returns the lifetime totals.
    pub fn stop(self) -> ServeStats {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.dispatch.send(DispatchMsg::Shutdown);
        let _ = self.dispatcher_join.join();
        let _ = self.listener_join.join();
        let _ = self.watcher_join.join();
        let joins = std::mem::take(&mut *self.conn_joins.lock().unwrap_or_else(|e| e.into_inner()));
        for j in joins {
            let _ = j.join();
        }
        self.shared.publish_global();
        self.shared.snapshot()
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<DispatchMsg>,
    shutdown: Arc<AtomicBool>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn = 0u64;
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_conn;
                next_conn += 1;
                let tx = tx.clone();
                let shutdown = shutdown.clone();
                // Out of threads: this client is turned away (the closure
                // and its stream are dropped), the ones being served stay.
                match std::thread::Builder::new()
                    .name(format!("samo-serve-conn-{conn_id}"))
                    .spawn(move || conn_loop(stream, tx, shutdown))
                {
                    Ok(join) => conn_joins.lock().unwrap_or_else(|e| e.into_inner()).push(join),
                    Err(e) => telemetry::log_warn!("serve: connection {conn_id} dropped: {e}"),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn conn_loop(stream: TcpStream, tx: Sender<DispatchMsg>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok((mut reader, writer)) = framing::split(stream, protocol::WRITE_DEADLINE) else {
        return;
    };
    let writer = Arc::new(writer);
    // Ends when the client hangs up, the server shuts down, a frame is
    // corrupt, or a reply could not be written (the writer closes the
    // socket under the reader).
    while let Ok(Some(msg)) = reader.recv(|| shutdown.load(Ordering::Relaxed)) {
        match protocol::parse_server_bound(msg) {
            Ok(ServerBound::Request { id, features }) => {
                let pending = Pending {
                    id,
                    features,
                    enqueued: Instant::now(),
                    enqueued_us: telemetry::clock::now_us(),
                    conn: writer.clone(),
                };
                if tx.send(DispatchMsg::Request(pending)).is_err() {
                    return;
                }
            }
            Ok(ServerBound::Shutdown) => {
                // Ack first so the requesting client unblocks, then
                // flip the flag every poll loop watches.
                let _ = writer.send(&protocol::shutdown_ack());
                shutdown.store(true, Ordering::Relaxed);
                let _ = tx.send(DispatchMsg::Shutdown);
                return;
            }
            Ok(ServerBound::Ping) => {
                let _ = writer.send(&protocol::pong());
            }
            Err(e) => {
                let _ = writer.send(&protocol::error_reply(0, &e));
            }
        }
    }
}

/// The dispatcher: owns the replica pool and the respawn snapshot.
#[allow(clippy::too_many_arguments)]
fn dispatch_loop(
    rx: Receiver<DispatchMsg>,
    mut handles: Vec<ReplicaHandle>,
    mut states: Vec<SamoLayerState>,
    mut step: u64,
    backend: Backend,
    policy: BatchPolicy,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
) {
    let mut rr = 0usize;
    'outer: loop {
        match rx.recv_timeout(POLL) {
            Ok(DispatchMsg::Request(first)) => {
                let (batch, control) = fill_or_deadline(&rx, first, &policy, |m| match m {
                    DispatchMsg::Request(p) => Ok(p),
                    other => Err(other),
                });
                dispatch_batch(
                    batch, &mut handles, &mut rr, &states, step, backend, &shared,
                );
                for ctl in control {
                    if handle_control(ctl, &mut handles, &mut states, &mut step, &shared) {
                        break 'outer;
                    }
                }
            }
            Ok(ctl) => {
                if handle_control(ctl, &mut handles, &mut states, &mut step, &shared) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for h in &handles {
        let _ = h.tx.send(ReplicaCmd::Stop);
    }
    for h in handles {
        let _ = h.join.join();
    }
}

/// Returns `true` on shutdown.
fn handle_control(
    msg: DispatchMsg,
    handles: &mut [ReplicaHandle],
    states: &mut Vec<SamoLayerState>,
    step: &mut u64,
    shared: &Arc<Shared>,
) -> bool {
    match msg {
        DispatchMsg::Shutdown => true,
        DispatchMsg::Crash(idx) => {
            if let Some(h) = handles.get(idx) {
                let _ = h.tx.send(ReplicaCmd::Crash);
            }
            false
        }
        DispatchMsg::Reload { step: new_step, states: new_states, models, ack } => {
            *states = new_states;
            *step = new_step;
            for (idx, model) in models.into_iter().enumerate() {
                let h = &mut handles[idx];
                if let Err(bounced) = h.tx.send(ReplicaCmd::Swap(Box::new(model), new_step, ack.clone()))
                {
                    // The replica died before the swap: respawn it
                    // straight onto the new model (or, out of threads,
                    // from the new snapshot when its next batch bounces).
                    let ReplicaCmd::Swap(model, s, ack) = bounced.0 else { unreachable!() };
                    match spawn_replica(idx, *model, s, shared.clone()) {
                        Ok(fresh) => {
                            *h = fresh;
                            shared.respawns.fetch_add(1, Ordering::Relaxed);
                            let _ = ack.send(idx);
                        }
                        Err(e) => telemetry::log_warn!("serve: swap to step {s} lost: {e}"),
                    }
                }
            }
            false
        }
        DispatchMsg::Request(_) => unreachable!("requests are batched, not control"),
    }
}

fn dispatch_batch(
    batch: Vec<Pending>,
    handles: &mut [ReplicaHandle],
    rr: &mut usize,
    states: &[SamoLayerState],
    step: u64,
    backend: Backend,
    shared: &Arc<Shared>,
) {
    let idx = *rr % handles.len();
    *rr = rr.wrapping_add(1);
    if let Err(bounced) = handles[idx].tx.send(ReplicaCmd::Batch(batch)) {
        // Dead replica (crash drill): rebuild it from the snapshot and
        // re-send the very batch that bounced.
        let ReplicaCmd::Batch(batch) = bounced.0 else { unreachable!() };
        match build_model(states, backend)
            .and_then(|model| spawn_replica(idx, model, step, shared.clone()))
        {
            Ok(fresh) => {
                handles[idx] = fresh;
                shared.respawns.fetch_add(1, Ordering::Relaxed);
                telemetry::log_warn!("serve: replica {idx} died; respawned at step {step}");
                let _ = handles[idx].tx.send(ReplicaCmd::Batch(batch));
            }
            Err(e) => {
                // Snapshot unusable (should be impossible: it built
                // once already) or no thread to be had. Fail the batch
                // loudly.
                for p in batch {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = p.conn.send(&protocol::error_reply(p.id, &format!("replica rebuild: {e}")));
                }
            }
        }
    }
}
