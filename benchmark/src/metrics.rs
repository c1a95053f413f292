//! The one table of metric names, units and directions. `BENCHMARK.json`
//! lists the same names (a test holds the two together) and every run
//! prints exactly these.

use std::collections::BTreeMap;
use telemetry::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The driver's contract wants every one
/// from every workload and none of them 0, so a metric a workload has no
/// source for reads [`NOT_APPLICABLE`] there (see the table in `README.md`).
///
/// * `throughput_per_s` — training: optimizer steps per second; serving:
///   replies within the latency limit per second of the top-rate phase.
/// * `latency_ms_p50` — training: wall of one step (input to updated
///   parameters, checkpoint write included when one is due); serving:
///   request latency from its due time at the middle rate.
///   Training timings are statistics of the whole window, each step's
///   wall time scaled to the reference box by the speed samples taken
///   around it ([`crate::calib`]): throughput is the median over
///   consecutive segments of eight steps (one period of sixteen on
///   `dyn_ckpt`), latency the median step. A traced run reports
///   the same two as the clock read them, as `bench.window_*`. Serving
///   timings are taken over the quiet quarter of their phase
///   ([`crate::stats::quiet_quarter`]).
/// * `state_bytes_per_param` — training: measured model-state bytes over φ
///   at the last step (per rank where state is sharded), checked against
///   the paper's closed form; serving: bytes of the published checkpoint a
///   reload reads, over φ. An exact count.
/// * `wire_bytes_per_step` — bytes the runtime's transports carried per
///   step, summed over ranks or stages; serving: request plus reply bytes
///   on the client sockets per request. An exact count.
/// * `final_loss` — mean training loss of the last [`crate::workloads::LOSS_TAIL`]
///   share of the window's steps.
/// * `peak_rss_mb` — `VmHWM` of the process when the measured window ends.
/// * `setup_s` — model build, pruning, runtime bring-up and warm-up; the
///   median of [`crate::workloads::SETUP_REPEATS`] bring-ups, each scaled
///   to the reference box like a step.
///
/// The timing bounds are the contract's largest, 0.25, not the issue's
/// 0.10, and `final_loss` has 0.10, not 0.02: `README.md` records the
/// spread measured on the reference box.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("state_bytes_per_param", "B/param", Lower, 0.0),
    e2e("wire_bytes_per_step", "B", Lower, 0.0),
    e2e("final_loss", "loss", Lower, 0.10),
];

/// What an end-to-end metric reads on a workload that has no source for it
/// (no transport, no training loss): the contract allows neither 0 nor
/// leaving the metric out.
pub const NOT_APPLICABLE: f64 = 1.0;

/// One layer each (the prefix is the crate directory). Span metrics are 0
/// on a workload whose path never enters that layer; a probe metric is
/// measured in the traced run of the workload whose shapes it uses and is
/// 0 in the others.
pub const PER_LAYER: &[MetricDef] = &[
    // nn — spans around forward / loss / backward.
    layer("nn.forward_ms_p50", "ms", Lower),
    layer("nn.loss_ms_p50", "ms", Lower),
    layer("nn.backward_ms_p50", "ms", Lower),
    layer("nn.fwd_bwd_share", "share", Lower),
    // tensor — probes.
    layer("tensor.sgemm_gflops.gpt", "GFLOP/s", Higher),
    layer("tensor.sgemm_gflops.wide", "GFLOP/s", Higher),
    layer("tensor.sgemm_gflops.pipe", "GFLOP/s", Higher),
    layer("tensor.f16_narrow_gbps", "GB/s", Higher),
    layer("tensor.f16_widen_gbps", "GB/s", Higher),
    layer("tensor.qgemm_gflops.serve", "GFLOP/s", Higher),
    // sparse — probe.
    layer("sparse.nm24_spmm_gflops", "GFLOP/s", Higher),
    // prune — probes.
    layer("prune.next_mask_ms", "ms", Lower),
    layer("prune.magnitude_prune_ms", "ms", Lower),
    // core — spans, counts and probes.
    layer("core.trainer_step_ms_p50", "ms", Lower),
    layer("core.trainer_step_share", "share", Lower),
    layer("core.compress_grad_fused_ms", "ms", Lower),
    layer("core.compress_grad_fused_gbps", "GB/s", Higher),
    layer("core.optimizer_step_fused_ms", "ms", Lower),
    layer("core.optimizer_step_fused_gbps", "GB/s", Higher),
    layer("core.dp_post_forward_ms_p50", "ms", Lower),
    layer("core.dp_rank_skew_ms_p50", "ms", Lower),
    layer("core.remap_step_ms_p50", "ms", Lower),
    layer("core.remap_stall_ms_p50", "ms", Lower),
    layer("core.remap_kernel_ms", "ms", Lower),
    layer("core.remap_events", "count", Lower),
    layer("core.serialize.save_ms_p50", "ms", Lower),
    layer("core.serialize.bytes", "B", Lower),
    layer("core.checkpoint.save_and_publish_ms_p50", "ms", Lower),
    layer("core.restore_ms", "ms", Lower),
    layer("core.pipeline.fwd_ms_per_mb", "ms", Lower),
    layer("core.pipeline.bwd_ms_per_mb", "ms", Lower),
    layer("core.pipeline.idle_share", "share", Lower),
    layer("core.pipeline.epilogue_ms_p50", "ms", Lower),
    layer("core.pipeline.recomputes", "count", Lower),
    layer("core.state_bytes", "B", Lower),
    layer("core.nnz", "count", Lower),
    // comms — counts and probes.
    layer("comms.wire_bytes_per_step", "B", Lower),
    layer("comms.model_allreduce_bytes_per_step", "B", Lower),
    layer("comms.wire_overhead_ratio", "ratio", Lower),
    layer("comms.msgs_dropped", "count", Lower),
    layer("comms.allreduce_ms.inproc.small", "ms", Lower),
    layer("comms.allreduce_ms.tcp.small", "ms", Lower),
    layer("comms.allreduce_ms.inproc.large", "ms", Lower),
    layer("comms.allreduce_ms.tcp.large", "ms", Lower),
    layer("comms.all_gather_f16_ms.tcp.large", "ms", Lower),
    layer("comms.tcp_rtt_us", "us", Lower),
    layer("comms.framing.encode_decode_ms", "ms", Lower),
    layer("comms.mesh_setup_ms", "ms", Lower),
    // serve — server counters, client-side spans and probes.
    layer("serve.server_p50_ms", "ms", Lower),
    layer("serve.server_p99_ms", "ms", Lower),
    layer("serve.client_minus_server_p50_ms", "ms", Lower),
    layer("serve.req_p99_ms", "ms", Lower),
    layer("serve.max_rate_ok_rps", "1/s", Higher),
    layer("serve.batch_fill_mean.r100", "count", Higher),
    layer("serve.batch_fill_mean.r300", "count", Higher),
    layer("serve.batch_fill_mean.r600", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.infer_batch_ms.dense.b1", "ms", Lower),
    layer("serve.infer_batch_ms.dense.b8", "ms", Lower),
    layer("serve.infer_batch_ms.dense.b32", "ms", Lower),
    layer("serve.infer_batch_ms.nm24.b1", "ms", Lower),
    layer("serve.infer_batch_ms.nm24.b8", "ms", Lower),
    layer("serve.infer_batch_ms.nm24.b32", "ms", Lower),
    layer("serve.infer_batch_ms.int8.b1", "ms", Lower),
    layer("serve.infer_batch_ms.int8.b8", "ms", Lower),
    layer("serve.infer_batch_ms.int8.b32", "ms", Lower),
    layer("serve.build_model_ms.dense", "ms", Lower),
    layer("serve.build_model_ms.nm24", "ms", Lower),
    layer("serve.build_model_ms.int8", "ms", Lower),
    layer("serve.load_verified_ms", "ms", Lower),
    layer("serve.reload.blackout_ms_first", "ms", Lower),
    layer("serve.reload.blackout_ms_later_max", "ms", Lower),
    layer("serve.reload.reloads", "count", Higher),
    layer("serve.respawns", "count", Lower),
    layer("serve.errors", "count", Lower),
    layer("serve.dropped", "count", Lower),
    layer("serve.loadgen_late_ms_p99", "ms", Lower),
    // telemetry — probe.
    layer("telemetry.on_overhead_share", "share", Lower),
    // The traced window as a whole, as the clock read it (median over
    // consecutive segments, whole-window percentiles, user-mode CPU time of
    // the process per step or request), and the benchmark's own tracing.
    layer("bench.window_throughput_per_s", "1/s", Higher),
    layer("bench.window_latency_ms_p50", "ms", Lower),
    layer("bench.latency_ms_p95", "ms", Lower),
    layer("bench.cpu_user_ms_per_step", "ms", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.unattributed_share", "share", Lower),
];

/// Values of one run, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every name of `defs` at 0 — the value of a layer that did no work.
    pub fn zeroed(defs: &[MetricDef]) -> Values {
        Values(defs.iter().map(|d| (d.name, 0.0)).collect())
    }

    /// Sets a metric; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name:?} is not in the tables of metrics.rs"
        );
        assert!(
            value.is_finite(),
            "metric {name:?} is not a finite number: {value}"
        );
        // An empty float sum is -0.0; adding 0.0 prints it as plain 0.
        self.0.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line, in table order. Panics if
    /// a metric of `defs` was never set.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let v = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {:?} was never measured", d.name));
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Num(v)),
                            ("unit".to_string(), Json::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
