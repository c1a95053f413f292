//! Event-driven simulation of AxoNN-style inter-layer (pipeline)
//! parallelism, producing the phase breakdown of the paper's Fig. 8.
//!
//! Each of `stages` GPUs owns a contiguous block of layers. Microbatches
//! flow forward through the stages and backward in reverse; activations /
//! activation-gradients cross stage boundaries as MPI point-to-point
//! messages. What a GPU runs next is decided by [`Schedule`], the state
//! machine the threaded runtime (`samo::pipeline`) runs on wall time:
//! message-driven, B > F > W, a `max_in_flight` window on every stage.
//! Here it runs on modelled durations — `t_fwd`, `t_bwd` and `t_w`, the
//! weight-gradient W that Zero Bubble (arXiv 2401.10241) splits off the
//! backward; a zero-length W is done on the spot and not logged.
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

use samo::pipeline::{Msg, Next, Op, Schedule};
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
    /// B compute time of one microbatch on each stage: the backward
    /// without its weight gradients, or the whole backward where `t_w` is
    /// zero.
    pub t_bwd: Vec<f64>,
    /// W compute time (the deferred weight gradients) of one microbatch
    /// on each stage; no message waits for it.
    pub t_w: Vec<f64>,
    /// Bytes of the boundary activation message.
    pub msg_bytes: u64,
    /// Global GPU rank of each stage (for link topology).
    pub gpu_ids: Vec<usize>,
    /// Maximum microbatches each stage holds forwarded and not yet
    /// through B (activation-memory cap; `stages + 1` ≈ 1F1B).
    pub max_in_flight: usize,
}

/// Per-GPU time accounting over the pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuPhases {
    /// Time spent executing forward, B and W compute.
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
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// GPU finished its current op (including any blocking send).
    OpDone { stage: usize, op: Op },
    /// A boundary message reached `stage`; its send started at
    /// `send_start`.
    MsgArrive { stage: usize, msg: Msg, send_start: f64 },
}

struct GpuState {
    sched: Schedule,
    /// When the current op ends, or the last one ended: idle since then.
    busy_until: f64,
    running: bool,
    phases: GpuPhases,
    /// `(send_start, arrive)` of each microbatch's activation and
    /// gradient message, for idle-time attribution.
    stamps: [Vec<(f64, f64)>; 2],
}

/// Runs the discrete-event pipeline simulation.
pub fn simulate_pipeline(machine: &Machine, spec: &PipelineSpec) -> PipelineResult {
    simulate_inner(machine, spec, &mut None)
}

/// Records `(stage, start, end, 'F'/'B'/'W')` compute intervals of the
/// schedule (sends and zero-length Ws excluded), for Fig.-3-style
/// rendering.
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
    for t in [&spec.t_fwd, &spec.t_bwd, &spec.t_w] {
        assert_eq!(t.len(), s);
    }
    assert_eq!(spec.gpu_ids.len(), s);

    let mut q: EventQueue<Event> = EventQueue::new();
    let mut gpus: Vec<GpuState> = (0..s)
        .map(|stage| GpuState {
            sched: Schedule::new(stage, s, m, spec.max_in_flight),
            busy_until: 0.0,
            running: false,
            phases: GpuPhases::default(),
            stamps: [vec![(0.0, 0.0); m], vec![(0.0, 0.0); m]],
        })
        .collect();

    // Starts the op `stage`'s schedule picks, if the GPU is idle: runs
    // compute, then a blocking send (if the op produces a boundary
    // message), scheduling the arrival at the neighbour. A zero-length W
    // is done on the spot.
    let try_start = |q: &mut EventQueue<Event>,
                     gpus: &mut [GpuState],
                     stage: usize,
                     now: f64,
                     log: &mut Option<Vec<(usize, f64, f64, char)>>| {
        let g = &mut gpus[stage];
        if g.running {
            return;
        }
        let op = loop {
            match g.sched.next() {
                Next::Run(op @ Op::W(_)) if spec.t_w[stage] == 0.0 => g.sched.done(op),
                Next::Run(op) => break op,
                Next::Wait { .. } | Next::Done => return,
            }
        };

        // Idle-gap attribution: the share overlapping the message that
        // enabled the op is p2p time.
        let gap_start = g.busy_until;
        if now > gap_start {
            let p2p = match op {
                Op::F(mb) if stage > 0 => Some(g.stamps[0][mb]),
                Op::B(mb) if stage + 1 < s => Some(g.stamps[1][mb]),
                _ => None,
            }
            .map_or(0.0, |(send_start, arrive)| (arrive.min(now) - send_start.max(gap_start)).max(0.0));
            g.phases.p2p_wait += p2p;
            g.phases.bubble += now - gap_start - p2p;
        }

        // Duration, label, and the boundary message the op produces.
        let (dur, label, out) = match op {
            Op::F(mb) => (spec.t_fwd[stage], 'F', (stage + 1 < s).then(|| (stage + 1, Msg::Act(mb)))),
            Op::B(mb) => (spec.t_bwd[stage], 'B', (stage > 0).then(|| (stage - 1, Msg::Grad(mb)))),
            Op::W(_) => (spec.t_w[stage], 'W', None),
        };
        let send_dur = out
            .map(|(d, _)| machine.mpi_p2p_time(spec.msg_bytes, spec.gpu_ids[stage], spec.gpu_ids[d]))
            .unwrap_or(0.0);

        g.phases.compute += dur;
        g.phases.p2p_wait += send_dur;
        g.phases.sends += u64::from(out.is_some());
        g.running = true;
        g.busy_until = now + dur + send_dur;
        if let Some(log) = log {
            log.push((stage, now, now + dur, label));
        }
        if let Some((d, msg)) = out {
            let event = Event::MsgArrive { stage: d, msg, send_start: now + dur };
            q.push(now + dur + send_dur, event);
        }
        q.push(now + dur + send_dur, Event::OpDone { stage, op });
    };

    for stage in 0..s {
        try_start(&mut q, &mut gpus, stage, 0.0, log);
    }

    while let Some((now, ev)) = q.pop() {
        let stage = match ev {
            Event::OpDone { stage, op } => {
                gpus[stage].running = false;
                gpus[stage].sched.done(op);
                stage
            }
            Event::MsgArrive { stage, msg, send_start } => {
                let g = &mut gpus[stage];
                g.phases.recvs += 1;
                let (link, mb) = match msg {
                    Msg::Act(mb) => (0, mb),
                    Msg::Grad(mb) => (1, mb),
                };
                g.stamps[link][mb] = (send_start, now);
                g.sched.arrived(msg);
                stage
            }
        };
        try_start(&mut q, &mut gpus, stage, now, log);
    }

    let total_time = gpus.iter().map(|g| g.busy_until).fold(0.0f64, f64::max);
    // Trailing idle counts as bubble.
    for g in &mut gpus {
        debug_assert_eq!(g.sched.next(), Next::Done);
        g.phases.bubble += total_time - g.busy_until;
    }

    let result = PipelineResult {
        total_time,
        per_gpu: gpus.into_iter().map(|g| g.phases).collect(),
    };
    if telemetry::enabled() {
        let reg = telemetry::global();
        reg.gauge("axonn.pipeline.bubble_fraction").set(result.bubble_fraction());
        reg.gauge("axonn.pipeline.total_time").set(result.total_time);
        for (i, g) in result.per_gpu.iter().enumerate() {
            let busy = if total_time > 0.0 { g.compute / total_time } else { 0.0 };
            reg.gauge(&format!("axonn.pipeline.gpu{i}.busy_fraction")).set(busy);
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
            name: match label {
                'F' => "forward",
                'B' => "backward",
                _ => "weight",
            }
            .to_string(),
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
/// `width` columns wide: `F`/`f` forward, `B`/`b` backward, `W`/`w`
/// weight gradients, spaces idle (which includes blocking sends). Use for
/// realistic stage times where [`ascii_schedule`]'s unit-time rendering
/// does not apply.
pub fn render_gantt(machine: &Machine, spec: &PipelineSpec, width: usize) -> String {
    assert!(width >= 20);
    let trace = trace_schedule(machine, spec);
    let end = trace.iter().map(|(_, _, e, _)| *e).fold(0.0f64, f64::max);
    if end <= 0.0 {
        return String::from("(empty schedule)");
    }
    draw(&trace, spec.stages, (width - 1) as f64 / end, width)
}

/// The Fig. 3 schedule's inputs: unit-time forward and 2-unit backward
/// blocks, no W, free messages, every microbatch admitted.
pub fn fig3_spec(stages: usize, microbatches: usize) -> PipelineSpec {
    PipelineSpec {
        stages,
        microbatches,
        t_fwd: vec![1.0; stages],
        t_bwd: vec![2.0; stages],
        t_w: vec![0.0; stages],
        msg_bytes: 0,
        gpu_ids: vec![0; stages],
        max_in_flight: microbatches,
    }
}

/// Renders the Fig. 3-style schedule ([`fig3_spec`]) as ASCII art, one
/// row per GPU.
pub fn ascii_schedule(stages: usize, microbatches: usize) -> String {
    let spec = fig3_spec(stages, microbatches);
    let trace = trace_schedule(&summit_sim::machine::SUMMIT, &spec);
    let end = trace.iter().map(|(_, _, e, _)| *e).fold(0.0f64, f64::max);
    draw(&trace, stages, 1.0, end.round() as usize)
}

/// Draws a [`trace_schedule`] log at `cols` columns per time unit, one
/// row of `width` columns per GPU: an op's first column is its label, the
/// rest the label in lower case.
fn draw(trace: &[(usize, f64, f64, char)], stages: usize, cols: f64, width: usize) -> String {
    let mut rows = vec![vec![' '; width]; stages];
    for &(stage, start, end, label) in trace {
        let c0 = (start * cols).round() as usize;
        let c1 = ((end * cols).round() as usize).max(c0 + 1).min(width);
        for (i, slot) in (c0..c1).enumerate() {
            rows[stage][slot] = if i == 0 { label } else { label.to_ascii_lowercase() };
        }
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| format!("GPU {i}: |{}|", r.iter().collect::<String>()))
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
            t_w: vec![0.0; stages],
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
            t_w: vec![0.0; 3],
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
            t_w: vec![0.0; 2],
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
            t_w: vec![0.0; 4],
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
            t_w: vec![0.0; 2],
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
            t_w: vec![0.0; 3],
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

    /// A W schedule worked by hand: 2 stages, 3 microbatches, unit F, B
    /// and W, free messages. Stage 0 runs F0 F1 F2 B0 W0 B1 W1 · B2 W2 and
    /// stage 1 · F0 B0 F1 B1 W0 F2 B2 W1 W2 (`·` one idle unit): 10 units,
    /// 9 of them compute on each GPU.
    #[test]
    fn w_schedule_by_hand() {
        let spec = PipelineSpec {
            stages: 2,
            microbatches: 3,
            t_fwd: vec![1.0; 2],
            t_bwd: vec![1.0; 2],
            t_w: vec![1.0; 2],
            msg_bytes: 0,
            gpu_ids: vec![0; 2],
            max_in_flight: 3,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        assert_eq!(r.total_time, 10.0);
        for g in &r.per_gpu {
            assert_eq!((g.compute, g.bubble, g.p2p_wait), (9.0, 1.0, 0.0));
        }
        assert_eq!(
            render_gantt(&SUMMIT, &spec, 21),
            "GPU 0: |FfFfFfBbWwBbWw  BbWw |\nGPU 1: |  FfBbFfBbWwFfBbWwWw |"
        );
        let trace = trace_schedule(&SUMMIT, &spec);
        let events = chrome_trace_events(&trace);
        let weights = events.iter().filter(|e| e.name == "weight").count();
        assert_eq!((trace.len(), weights), (18, 6));
    }

    #[test]
    fn gantt_renders_proportionally() {
        let spec = PipelineSpec {
            stages: 2,
            microbatches: 3,
            t_fwd: vec![1e-3; 2],
            t_bwd: vec![3e-3; 2], // backward 3x wider than forward
            t_w: vec![0.0; 2],
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
