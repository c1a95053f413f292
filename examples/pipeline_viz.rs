//! Visualizes the inter-layer pipeline schedule (the paper's Fig. 3) and
//! demonstrates Eq. 7's bubble formula on the event-driven simulator.
//!
//! ```sh
//! cargo run --release --example pipeline_viz [stages] [microbatches]
//! ```

use axonn_sim::pipeline::{analytic_bubble, ascii_schedule, simulate_pipeline, PipelineSpec};
use summit_sim::machine::SUMMIT;

fn main() {
    let stages: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let microbatches: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    println!(
        "Inter-layer pipeline, G_inter = {stages}, {microbatches} microbatches, t_b = 2·t_f"
    );
    println!("(F/B = forward/backward start, lowercase = continuation)\n");
    println!("{}\n", ascii_schedule(stages, microbatches));

    // Verify the Eq. 7 bubble on the simulator with free messages.
    let (tf_model, tb_model) = (1.0 * stages as f64, 2.0 * stages as f64);
    let spec = PipelineSpec {
        stages,
        microbatches,
        t_fwd: vec![1.0; stages],
        t_bwd: vec![2.0; stages],
        t_w: vec![0.0; stages],
        msg_bytes: 0,
        gpu_ids: vec![0; stages],
        max_in_flight: microbatches,
    };
    let result = simulate_pipeline(&SUMMIT, &spec);
    println!("total time: {} units", result.total_time);
    for (i, g) in result.per_gpu.iter().enumerate() {
        println!(
            "GPU {i}: compute {:.0}, bubble {:.0} (Eq. 7 predicts {:.0})",
            g.compute,
            g.bubble,
            analytic_bubble(tf_model, tb_model, stages)
        );
    }

    // A realistic schedule: GPT-3 2.7B's AxoNN configuration at 512
    // GPUs (8 stages, 8 microbatches, 10.5 MB boundary messages).
    println!("\nRealistic schedule — GPT-3 2.7B stage times on simulated Summit:");
    use models::gpt::GPT3_2_7B;
    use summit_sim::kernels::transformer_layer_forward_time;
    let layer = transformer_layer_forward_time(&SUMMIT, 1, GPT3_2_7B.seq, GPT3_2_7B.hidden);
    let g_inter = 8usize;
    let tf = GPT3_2_7B.layers as f64 / g_inter as f64 * layer;
    let spec_real = PipelineSpec {
        stages: g_inter,
        microbatches: 8,
        t_fwd: vec![tf; g_inter],
        t_bwd: vec![3.0 * tf; g_inter],
        t_w: vec![0.0; g_inter],
        msg_bytes: GPT3_2_7B.boundary_activation_bytes(1),
        gpu_ids: (0..g_inter).collect(),
        max_in_flight: g_inter + 1,
    };
    println!("{}", axonn_sim::render_gantt(&SUMMIT, &spec_real, 100));
    let r = simulate_pipeline(&SUMMIT, &spec_real);
    println!(
        "pipeline phase: {:.2}s; GPU 0 spends {:.2}s computing, {:.2}s on p2p, {:.2}s in bubble",
        r.total_time, r.per_gpu[0].compute, r.per_gpu[0].p2p_wait, r.per_gpu[0].bubble
    );

    println!("\nBubble time as G_inter grows (Eq. 8: monotonically increasing):");
    for s in [1usize, 2, 3, 4, 6, 8, 12] {
        let spec = PipelineSpec {
            stages: s,
            microbatches: 24,
            t_fwd: vec![1.0 / s as f64; s],
            t_bwd: vec![2.0 / s as f64; s],
            t_w: vec![0.0; s],
            msg_bytes: 0,
            gpu_ids: vec![0; s],
            max_in_flight: s + 1,
        };
        let r = simulate_pipeline(&SUMMIT, &spec);
        println!(
            "  G_inter = {s:2}: bubble {:.3} units ({:.1}% of batch)",
            r.per_gpu[0].bubble,
            100.0 * r.per_gpu[0].bubble / r.total_time
        );
    }
}
