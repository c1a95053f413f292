//! Event-driven simulation of AxoNN-style inter-layer (pipeline)
//! parallelism, producing the phase breakdown of the paper's Fig. 8.
//!
//! Each of `stages` GPUs owns a contiguous block of layers. Microbatches
//! flow forward through the stages and backward in reverse; activations /
//! activation-gradients cross stage boundaries as MPI point-to-point
//! messages. The scheduler is message-driven (a GPU executes whichever
//! ready operation it sees, preferring backward work to release
//! activation memory early, as AxoNN does).
//!
//! Sends occupy the sending GPU's timeline for the transfer duration —
//! matching the paper's CUDA-event measurements, where the transmission
//! time of AxoNN's MPI messages is exposed as a distinct "point-to-point"
//! phase rather than hidden behind compute.
//!
//! # Message accounting (Eq. 9–10 vs the sync baseline)
//!
//! Eq. 9–10 count **four** boundary message *events* per microbatch at
//! an interior stage: activation in, activation out, activation-gradient
//! in, activation-gradient out. Of those four, only the **two sends**
//! occupy the stage's own timeline — each receive is the matching send
//! on a neighbour's timeline, and idle time that overlaps an inbound
//! in-flight message is attributed to p2p wait separately. This is why
//! the synchronous baseline in `frameworks.rs` charges `2·M·t_msg` of
//! exposed p2p per GPU per batch, not `4·M·t_msg`: both models agree,
//! they just count at different points (events touching a GPU vs time
//! billed to it). [`GpuPhases::sends`]/[`GpuPhases::recvs`] expose the
//! raw event counts so the 4-events / 2-sends split is testable.
//!
//! Idle time is attributed per the paper's breakdown: waiting that
//! overlaps an inbound in-flight message is *p2p time*; sending is *p2p
//! time*; the rest of idleness is *pipeline bubble*.

use std::collections::VecDeque;
use summit_sim::event::EventQueue;
use summit_sim::machine::Machine;

/// Inputs of one pipeline-phase simulation (one inter-layer group).
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Number of pipeline stages (`G_inter`).
    pub stages: usize,
    /// Microbatches per batch shard (`B / (G_data · mbs)`).
    pub microbatches: usize,
    /// Forward compute time of one microbatch on each stage.
    pub t_fwd: Vec<f64>,
    /// Backward compute time of one microbatch on each stage.
    pub t_bwd: Vec<f64>,
    /// Bytes of the boundary activation message.
    pub msg_bytes: u64,
    /// Global GPU rank of each stage (for link topology).
    pub gpu_ids: Vec<usize>,
    /// Maximum microbatches in flight from stage 0 (activation-memory
    /// cap; `stages + 1` ≈ 1F1B).
    pub max_in_flight: usize,
}

/// Per-GPU time accounting over the pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuPhases {
    /// Time spent executing forward/backward compute.
    pub compute: f64,
    /// Time spent sending messages plus idle time overlapped with an
    /// inbound in-flight message.
    pub p2p_wait: f64,
    /// Remaining idle time (pipeline bubble).
    pub bubble: f64,
    /// Boundary messages this GPU transmitted (the only message events
    /// billed to its own timeline): `2·M` at an interior stage.
    pub sends: u64,
    /// Boundary messages that arrived at this GPU: `2·M` at an interior
    /// stage, so sends + recvs gives Eq. 9–10's four events per
    /// microbatch.
    pub recvs: u64,
}

/// Result of simulating one batch's pipeline phase.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Wall-clock of the pipeline phase.
    pub total_time: f64,
    /// Per-stage phase breakdown; `total_time ≈ compute + p2p + bubble`
    /// for every stage.
    pub per_gpu: Vec<GpuPhases>,
}

impl PipelineResult {
    /// Mean bubble fraction across GPUs: idle-not-communicating time
    /// over wall-clock, averaged over stages.
    pub fn bubble_fraction(&self) -> f64 {
        if self.total_time <= 0.0 || self.per_gpu.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.per_gpu.iter().map(|g| g.bubble).sum();
        sum / (self.total_time * self.per_gpu.len() as f64)
    }

    /// Per-GPU busy fraction (compute time over wall-clock), one entry
    /// per stage.
    pub fn busy_fractions(&self) -> Vec<f64> {
        if self.total_time <= 0.0 {
            return vec![0.0; self.per_gpu.len()];
        }
        self.per_gpu
            .iter()
            .map(|g| g.compute / self.total_time)
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Fwd(usize), // microbatch id
    Bwd(usize),
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// GPU finished its current op (including any blocking send).
    OpDone { stage: usize, op: Op },
    /// A message enabling `op` arrived at `stage`.
    MsgArrive { stage: usize, op: Op, send_start: f64 },
}

/// A ready op together with the message interval that enabled it (if
/// any), for idle-time attribution.
#[derive(Debug, Clone, Copy)]
struct Ready {
    op: Op,
    enabled_by_msg: Option<(f64, f64)>, // (send_start, arrive)
}

struct GpuState {
    busy_until: f64,
    running: Option<Op>,
    fwd_ready: VecDeque<Ready>,
    bwd_ready: VecDeque<Ready>,
    phases: GpuPhases,
    last_idle_from: f64,
}

/// Runs the discrete-event pipeline simulation.
pub fn simulate_pipeline(machine: &Machine, spec: &PipelineSpec) -> PipelineResult {
    simulate_inner(machine, spec, &mut None)
}

/// Records `(stage, start, end, 'F'/'B')` compute intervals of the
/// schedule (sends excluded), for Fig.-3-style rendering.
pub fn trace_schedule(machine: &Machine, spec: &PipelineSpec) -> Vec<(usize, f64, f64, char)> {
    let mut log = Some(Vec::new());
    simulate_inner(machine, spec, &mut log);
    log.unwrap()
}

#[allow(clippy::type_complexity)]
fn simulate_inner(
    machine: &Machine,
    spec: &PipelineSpec,
    log: &mut Option<Vec<(usize, f64, f64, char)>>,
) -> PipelineResult {
    let s = spec.stages;
    let m = spec.microbatches;
    assert!(s >= 1 && m >= 1);
    assert_eq!(spec.t_fwd.len(), s);
    assert_eq!(spec.t_bwd.len(), s);
    assert_eq!(spec.gpu_ids.len(), s);
    assert!(spec.max_in_flight >= 1);

    let mut q: EventQueue<Event> = EventQueue::new();
    let mut gpus: Vec<GpuState> = (0..s)
        .map(|_| GpuState {
            busy_until: 0.0,
            running: None,
            fwd_ready: VecDeque::new(),
            bwd_ready: VecDeque::new(),
            phases: GpuPhases::default(),
            last_idle_from: 0.0,
        })
        .collect();

    // Stage 0's in-flight window: fwd(mb) may start once
    // mb < bwd_completed + max_in_flight.
    let mut stage0_bwd_done = 0usize;
    let initial = spec.max_in_flight.min(m);
    for mb in 0..initial {
        gpus[0].fwd_ready.push_back(Ready {
            op: Op::Fwd(mb),
            enabled_by_msg: None,
        });
    }
    let mut stage0_next_fwd = initial;

    // Starts the next ready op on `stage` if idle: runs compute, then a
    // blocking send (if the op produces a boundary message), scheduling
    // the arrival at the downstream stage.
    let try_start = |q: &mut EventQueue<Event>,
                     gpus: &mut [GpuState],
                     stage: usize,
                     now: f64,
                     log: &mut Option<Vec<(usize, f64, f64, char)>>| {
        let g = &mut gpus[stage];
        if g.running.is_some() {
            return;
        }
        // Backward priority (frees activation memory, AxoNN's policy).
        let Some(ready) = g.bwd_ready.pop_front().or_else(|| g.fwd_ready.pop_front()) else {
            return;
        };

        // Idle-gap attribution.
        let gap_start = g.last_idle_from;
        if now > gap_start {
            let gap = now - gap_start;
            let p2p = if let Some((send_start, arrive)) = ready.enabled_by_msg {
                (arrive.min(now) - send_start.max(gap_start)).max(0.0)
            } else {
                0.0
            };
            g.phases.p2p_wait += p2p;
            g.phases.bubble += gap - p2p;
        }

        let (dur, label) = match ready.op {
            Op::Fwd(_) => (spec.t_fwd[stage], 'F'),
            Op::Bwd(_) => (spec.t_bwd[stage], 'B'),
        };
        // Destination of the boundary message this op produces, if any.
        let dest = match ready.op {
            Op::Fwd(_) if stage + 1 < s => Some(stage + 1),
            Op::Bwd(_) if stage > 0 => Some(stage - 1),
            _ => None,
        };
        let send_dur = dest
            .map(|d| machine.mpi_p2p_time(spec.msg_bytes, spec.gpu_ids[stage], spec.gpu_ids[d]))
            .unwrap_or(0.0);

        g.phases.compute += dur;
        g.phases.p2p_wait += send_dur;
        if dest.is_some() {
            g.phases.sends += 1;
        }
        g.running = Some(ready.op);
        g.busy_until = now + dur + send_dur;
        if let Some(log) = log {
            log.push((stage, now, now + dur, label));
        }
        if let Some(d) = dest {
            let fwd_op = ready.op;
            q.push(
                now + dur + send_dur,
                Event::MsgArrive {
                    stage: d,
                    op: fwd_op,
                    send_start: now + dur,
                },
            );
        }
        q.push(
            now + dur + send_dur,
            Event::OpDone {
                stage,
                op: ready.op,
            },
        );
    };

    try_start(&mut q, &mut gpus, 0, 0.0, log);

    while let Some((now, ev)) = q.pop() {
        match ev {
            Event::OpDone { stage, op } => {
                let g = &mut gpus[stage];
                debug_assert_eq!(g.running, Some(op));
                g.running = None;
                g.last_idle_from = now;
                match op {
                    Op::Fwd(mb) => {
                        if stage + 1 == s {
                            // Last stage: backward of this microbatch is
                            // immediately ready (loss is local).
                            g.bwd_ready.push_back(Ready {
                                op: Op::Bwd(mb),
                                enabled_by_msg: None,
                            });
                        }
                    }
                    Op::Bwd(_) => {
                        if stage == 0 {
                            // A new microbatch may enter the window.
                            stage0_bwd_done += 1;
                            if stage0_next_fwd < m
                                && stage0_next_fwd < stage0_bwd_done + spec.max_in_flight
                            {
                                gpus[0].fwd_ready.push_back(Ready {
                                    op: Op::Fwd(stage0_next_fwd),
                                    enabled_by_msg: None,
                                });
                                stage0_next_fwd += 1;
                            }
                        }
                    }
                }
                try_start(&mut q, &mut gpus, stage, now, log);
            }
            Event::MsgArrive { stage, op, send_start } => {
                gpus[stage].phases.recvs += 1;
                let ready = Ready {
                    op,
                    enabled_by_msg: Some((send_start, now)),
                };
                match op {
                    Op::Fwd(_) => gpus[stage].fwd_ready.push_back(ready),
                    Op::Bwd(_) => gpus[stage].bwd_ready.push_back(ready),
                }
                try_start(&mut q, &mut gpus, stage, now, log);
            }
        }
    }

    let total_time = gpus.iter().map(|g| g.busy_until).fold(0.0f64, f64::max);
    // Trailing idle counts as bubble.
    for g in &mut gpus {
        let trailing = total_time - g.busy_until;
        if trailing > 0.0 {
            g.phases.bubble += trailing;
        }
    }

    let result = PipelineResult {
        total_time,
        per_gpu: gpus.into_iter().map(|g| g.phases).collect(),
    };
    if telemetry::enabled() {
        let reg = telemetry::global();
        reg.gauge("axonn.pipeline.bubble_fraction")
            .set(result.bubble_fraction());
        reg.gauge("axonn.pipeline.total_time").set(result.total_time);
        for (i, busy) in result.busy_fractions().iter().enumerate() {
            reg.gauge(&format!("axonn.pipeline.gpu{i}.busy_fraction"))
                .set(*busy);
        }
    }
    result
}

/// Converts a [`trace_schedule`] log into Chrome trace_event complete
/// events: one event per compute interval, `pid` 0 ("simulated
/// pipeline"), one `tid` lane per stage, simulation seconds scaled to
/// trace microseconds. Load the written file in `chrome://tracing` or
/// Perfetto to see the Fig.-3-style schedule.
pub fn chrome_trace_events(trace: &[(usize, f64, f64, char)]) -> Vec<telemetry::TraceEvent> {
    trace
        .iter()
        .map(|&(stage, start, end, label)| telemetry::TraceEvent {
            name: if label == 'F' { "forward" } else { "backward" }.to_string(),
            cat: "pipeline".to_string(),
            pid: telemetry::trace::lane::SIMULATED,
            tid: stage as u64,
            ts_us: start * 1e6,
            dur_us: (end - start) * 1e6,
            args: vec![("op".to_string(), telemetry::json::Json::from(label.to_string()))],
        })
        .collect()
}

/// Closed-form pipeline bubble of Eq. 7: `(t_f + t_b)(1 − 1/G_inter)`,
/// where `t_f`/`t_b` are whole-model microbatch times.
///
/// ```
/// // Paper Fig. 3: t_f = 3, t_b = 6, G_inter = 3 → 6 units of bubble.
/// assert!((axonn_sim::analytic_bubble(3.0, 6.0, 3) - 6.0).abs() < 1e-12);
/// ```
pub fn analytic_bubble(t_f: f64, t_b: f64, g_inter: usize) -> f64 {
    (t_f + t_b) * (1.0 - 1.0 / g_inter as f64)
}

/// Renders any simulated schedule as a proportional ASCII gantt chart,
/// `width` columns wide: `F`/`f` forward, `B`/`b` backward, spaces idle
/// (which includes blocking sends). Use for realistic stage times where
/// [`ascii_schedule`]'s unit-time rendering does not apply.
pub fn render_gantt(machine: &Machine, spec: &PipelineSpec, width: usize) -> String {
    assert!(width >= 20);
    let trace = trace_schedule(machine, spec);
    let end = trace.iter().map(|(_, _, e, _)| *e).fold(0.0f64, f64::max);
    if end <= 0.0 {
        return String::from("(empty schedule)");
    }
    let scale = (width - 1) as f64 / end;
    let mut rows = vec![vec![' '; width]; spec.stages];
    for (stage, start, endt, label) in trace {
        let c0 = (start * scale).round() as usize;
        let c1 = ((endt * scale).round() as usize).max(c0 + 1).min(width);
        for (i, slot) in (c0..c1).enumerate() {
            rows[stage][slot] = if i == 0 {
                label
            } else {
                label.to_ascii_lowercase()
            };
        }
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| format!("GPU {i}: |{}|", r.iter().collect::<String>()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders the Fig. 3-style schedule as ASCII art (one row per GPU),
/// using unit-time forward and 2-unit backward blocks and free messages.
pub fn ascii_schedule(stages: usize, microbatches: usize) -> String {
    let spec = PipelineSpec {
        stages,
        microbatches,
        t_fwd: vec![1.0; stages],
        t_bwd: vec![2.0; stages],
        msg_bytes: 0,
        gpu_ids: vec![0; stages],
        max_in_flight: microbatches,
    };
    let machine = summit_sim::machine::SUMMIT;
    let trace = trace_schedule(&machine, &spec);
    let end = trace.iter().map(|(_, _, e, _)| *e).fold(0.0f64, f64::max).round() as usize;
    let mut rows = vec![" ".repeat(end); stages];
    for (stage, start, endt, label) in trace {
        let s = start.round() as usize;
        let e = endt.round() as usize;
        for (i, slot) in (s..e).enumerate() {
            let ch = if i == 0 { label } else { label.to_ascii_lowercase() };
            rows[stage].replace_range(slot..slot + 1, &ch.to_string());
        }
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| format!("GPU {i}: |{r}|"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_sim::machine::SUMMIT;

    fn uniform_spec(stages: usize, microbatches: usize, tf: f64, tb: f64) -> PipelineSpec {
        PipelineSpec {
            stages,
            microbatches,
            t_fwd: vec![tf / stages as f64; stages],
            t_bwd: vec![tb / stages as f64; stages],
            msg_bytes: 0,
            gpu_ids: vec![0; stages], // same rank → free messages
            max_in_flight: stages + 1,
        }
    }

    /// With uniform compute and free messages, the simulated bubble on
    /// every GPU equals Eq. 7 exactly, and total time is
    /// (M + S − 1) · per-stage (tf + tb).
    #[test]
    fn bubble_matches_eq7_exactly() {
        for &(s, m) in &[(2usize, 8usize), (3, 5), (4, 16), (8, 32)] {
            let (tf, tb) = (1.0, 2.0);
            let spec = uniform_spec(s, m, tf, tb);
            let r = simulate_pipeline(&SUMMIT, &spec);
            let per_stage = (tf + tb) / s as f64;
            let expect_total = (m + s - 1) as f64 * per_stage;
            assert!(
                (r.total_time - expect_total).abs() < 1e-9,
                "S={s} M={m}: total {} vs {expect_total}",
                r.total_time
            );
            let analytic = analytic_bubble(tf, tb, s);
            for (i, g) in r.per_gpu.iter().enumerate() {
                assert!(
                    (g.bubble - analytic).abs() < 1e-9,
                    "S={s} M={m} gpu{i}: bubble {} vs Eq.7 {analytic}",
                    g.bubble
                );
                assert!(g.p2p_wait.abs() < 1e-12, "free msgs ⇒ no p2p");
                assert!((g.compute + g.bubble + g.p2p_wait - r.total_time).abs() < 1e-9);
            }
        }
    }

    /// Paper Fig. 3: G_inter = 3, 5 microbatches, t_b = 2·t_f ⇒ bubble
    /// is 6 units on each GPU (2 forward + 2 backward stage-times).
    #[test]
    fn fig3_schedule_bubble_is_six_units() {
        let spec = PipelineSpec {
            stages: 3,
            microbatches: 5,
            t_fwd: vec![1.0; 3],
            t_bwd: vec![2.0; 3],
            msg_bytes: 0,
            gpu_ids: vec![0; 3],
            max_in_flight: 5,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        for g in &r.per_gpu {
            assert!((g.bubble - 6.0).abs() < 1e-9, "bubble {}", g.bubble);
        }
        assert!((r.total_time - 21.0).abs() < 1e-9);
    }

    #[test]
    fn single_stage_has_no_bubble_or_p2p() {
        let spec = uniform_spec(1, 10, 1.0, 2.0);
        let r = simulate_pipeline(&SUMMIT, &spec);
        assert!((r.total_time - 30.0).abs() < 1e-9);
        assert!(r.per_gpu[0].bubble.abs() < 1e-12);
        assert!(r.per_gpu[0].p2p_wait.abs() < 1e-12);
    }

    /// Nonzero message cost shows up as p2p time proportional to the
    /// microbatch count — Eq. 9's `t_send ∝ B/(mbs·G_data)`.
    #[test]
    fn p2p_time_proportional_to_microbatches() {
        let mk = |m: usize| PipelineSpec {
            stages: 2,
            microbatches: m,
            t_fwd: vec![50e-3; 2],
            t_bwd: vec![150e-3; 2],
            msg_bytes: 10_000_000, // 10 MB over MPI → 10 ms
            gpu_ids: vec![0, 1],
            max_in_flight: 3,
        };
        let r8 = simulate_pipeline(&SUMMIT, &mk(8));
        let r32 = simulate_pipeline(&SUMMIT, &mk(32));
        let p8: f64 = r8.per_gpu.iter().map(|g| g.p2p_wait).sum();
        let p32: f64 = r32.per_gpu.iter().map(|g| g.p2p_wait).sum();
        assert!(p8 > 0.0);
        let ratio = p32 / p8;
        assert!((3.0..=5.0).contains(&ratio), "p2p should scale ~4x: {ratio}");
    }

    /// Each GPU's timeline decomposes exactly into the three phases.
    #[test]
    fn phases_partition_total_time() {
        let spec = PipelineSpec {
            stages: 4,
            microbatches: 12,
            t_fwd: vec![1e-3, 2e-3, 1.5e-3, 1e-3],
            t_bwd: vec![3e-3, 6e-3, 4.5e-3, 3e-3],
            msg_bytes: 1_000_000,
            gpu_ids: vec![0, 1, 2, 3],
            max_in_flight: 5,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        for (i, g) in r.per_gpu.iter().enumerate() {
            let sum = g.compute + g.p2p_wait + g.bubble;
            assert!(
                (sum - r.total_time).abs() < 1e-9,
                "gpu {i}: {sum} != {}",
                r.total_time
            );
        }
    }

    /// More microbatches amortize the bubble: bubble fraction decreases.
    #[test]
    fn bubble_fraction_shrinks_with_microbatches() {
        let r4 = simulate_pipeline(&SUMMIT, &uniform_spec(4, 4, 1.0, 2.0));
        let r32 = simulate_pipeline(&SUMMIT, &uniform_spec(4, 32, 1.0, 2.0));
        let frac4 = r4.per_gpu[0].bubble / r4.total_time;
        let frac32 = r32.per_gpu[0].bubble / r32.total_time;
        assert!(frac32 < frac4 / 4.0, "{frac32} vs {frac4}");
    }

    /// Fewer stages (smaller G_inter) means less bubble — the paper's
    /// Eq. 8 monotonicity claim, on the actual simulator.
    #[test]
    fn bubble_monotone_in_stages() {
        let mut prev = -1.0f64;
        for s in [1usize, 2, 4, 8] {
            let r = simulate_pipeline(&SUMMIT, &uniform_spec(s, 32, 1.0, 2.0));
            let bubble = r.per_gpu[0].bubble;
            assert!(bubble > prev, "S={s}: {bubble} <= {prev}");
            prev = bubble;
        }
    }

    #[test]
    fn in_flight_cap_respected_but_completes() {
        // Cap of 1 serializes microbatches entirely.
        let spec = PipelineSpec {
            stages: 2,
            microbatches: 4,
            t_fwd: vec![1.0; 2],
            t_bwd: vec![1.0; 2],
            msg_bytes: 0,
            gpu_ids: vec![0; 2],
            max_in_flight: 1,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        // Serial: each microbatch takes 4 units (2 fwd + 2 bwd stages).
        assert!((r.total_time - 16.0).abs() < 1e-9, "total {}", r.total_time);
    }

    /// Pins the Eq. 9–10 vs sync-baseline message accounting: an
    /// interior stage touches four message events per microbatch
    /// (2 in + 2 out), of which exactly the two sends are billed to its
    /// own timeline — the `2·M·t_msg` the synchronous baseline in
    /// `frameworks.rs` charges. End stages halve both counts.
    #[test]
    fn interior_stage_sees_four_message_events_but_sends_two() {
        let m = 7usize;
        let spec = PipelineSpec {
            stages: 3,
            microbatches: m,
            t_fwd: vec![50e-3; 3],
            t_bwd: vec![150e-3; 3],
            msg_bytes: 1_000_000,
            gpu_ids: vec![0, 1, 2],
            max_in_flight: 4,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        let m = m as u64;
        // First stage: sends activations only; receives gradients only.
        assert_eq!((r.per_gpu[0].sends, r.per_gpu[0].recvs), (m, m));
        // Interior stage: Eq. 9–10's four events per microbatch…
        assert_eq!(r.per_gpu[1].sends + r.per_gpu[1].recvs, 4 * m);
        // …but only half of them are its own (billed) sends — the
        // ratio the sync baseline's `2·M·t_msg` relies on.
        assert_eq!(r.per_gpu[1].sends, 2 * m);
        // Last stage: receives activations only; sends gradients only.
        assert_eq!((r.per_gpu[2].sends, r.per_gpu[2].recvs), (m, m));
        // Exposed send time on the interior stage is at least the 2·M
        // transfers it performed (plus any inbound-overlapped idle).
        let t_msg = SUMMIT.mpi_p2p_time(spec.msg_bytes, 0, 1);
        assert!(r.per_gpu[1].p2p_wait >= 2.0 * m as f64 * t_msg - 1e-9);
    }

    #[test]
    fn gantt_renders_proportionally() {
        let spec = PipelineSpec {
            stages: 2,
            microbatches: 3,
            t_fwd: vec![1e-3; 2],
            t_bwd: vec![3e-3; 2], // backward 3x wider than forward
            msg_bytes: 0,
            gpu_ids: vec![0; 2],
            max_in_flight: 3,
        };
        let art = render_gantt(&SUMMIT, &spec, 80);
        assert_eq!(art.lines().count(), 2);
        for line in art.lines() {
            assert_eq!(line.matches('F').count(), 3);
            assert_eq!(line.matches('B').count(), 3);
            // Backward blocks occupy ~3x the columns of forward blocks.
            let f_cols = line.matches(['F', 'f']).count();
            let b_cols = line.matches(['B', 'b']).count();
            assert!(
                b_cols as f64 > 2.0 * f_cols as f64,
                "b {b_cols} vs f {f_cols}: {line}"
            );
        }
    }

    #[test]
    fn ascii_schedule_renders() {
        let art = ascii_schedule(3, 5);
        assert_eq!(art.lines().count(), 3);
        for line in art.lines() {
            assert_eq!(line.matches('F').count(), 5, "{line}");
            assert_eq!(line.matches('B').count(), 5, "{line}");
        }
    }
}
