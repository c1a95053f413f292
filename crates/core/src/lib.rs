//! SAMO — Sparsity-Aware Memory Optimization.
//!
//! The core contribution of "Exploiting Sparsity in Pruned Neural
//! Networks to Optimize Large Model Training" (Singh & Bhatele, IPDPS
//! 2023): given a network pruned to sparsity `p`, keep the fp16 compute
//! parameters dense (fast dense kernels) and store every other
//! model-state tensor compressed against one shared linearized index
//! tensor, cutting model-state memory from `20φ` to `24(1−p)φ + 2φ`
//! bytes — then spend the savings on communication (smaller all-reduce
//! messages; fewer pipeline stages).
//!
//! The data structure and its step:
//!
//! * [`compressed`] — compress / "expand" primitives,
//! * [`memory`] — the Sec. III-D analytical model (Fig. 2), its SGD and
//!   ZeRO-sharded variants, and byte-exact accounting,
//! * [`state`] — [`state::SamoLayerState`], the per-layer compressed
//!   mixed-precision model state (the whole compressed space or one
//!   ZeRO-style shard of it), its fused step kernels and the
//!   dynamic-sparsity remap; [`sharded`] is its old second name,
//! * [`engine`] — [`engine::StepEngine`], the one per-rank training step
//!   (compress → reduce → verdict → optimizer → expand), over the
//!   group's `comms::Communicator` or, on a single worker, none.
//!
//! The runtimes that drive it (DESIGN.md §20):
//!
//! * [`trainer`] — [`SamoTrainer`], the engine on a single worker; the
//!   closed forms of state bytes and all-reduce volume,
//! * [`pipeline`] — [`StageRank`], the one rank of the hybrid
//!   `G_inter × G_data` grid: a sharded engine over any `comms::Endpoint`
//!   running the B > F > W schedule; at one stage, one per process in
//!   `samo-launch`,
//! * [`threaded`] — [`RankGroup`], the one group: a rank thread per grid
//!   point, built as [`ThreadedPipelineSamo`] from `Sequential` stage
//!   blocks at any point, or as [`ThreadedDataParallelSamo`], its 1×G
//!   point over whole replicas of any model.
//!
//! What a correct step is — run by no runtime, checked against by all:
//!
//! * [`reference`](mod@reference) — the paper's three-phase step over
//!   one layer state, [`DataParallelSamo`], the sequential in-process
//!   oracle the threaded runtimes are compared with, and
//!   [`DenseMaskedTrainer`], the dense masked baseline SAMO is
//!   numerically equivalent to; [`data_parallel`] is the oracle's old
//!   path.
//!
//! Keeping a run alive:
//!
//! * [`serialize`] — the CRC-validated v2 checkpoint format,
//! * [`checkpoint`] — durable on-disk checkpointing (atomic writes,
//!   cadence + retention, publish markers).
//!
//! A run has one recovery path: every rank restores the one checkpoint
//! (`SamoTrainer::restore`, `StageRank::restore`, `RankGroup::restore`).
//!
//! ```
//! use nn::layer::Layer;
//! // Prune a layer to 90% and train it with compressed model state.
//! let mut model = nn::Linear::new(32, 32, true, 7);
//! let masks = vec![
//!     prune::magnitude_prune(
//!         model.params()[0].value.as_slice(), &[32, 32], 0.9),
//!     prune::Mask::dense(&[32]), // bias stays dense
//! ];
//! let opt = nn::mixed::Optimizer::Adam(nn::optim::AdamConfig::default());
//! let trainer = samo::SamoTrainer::new(&mut model, masks, opt);
//! // Model state: 2φ dense θ16 + 24 bytes per unpruned parameter,
//! // versus 20φ for dense mixed precision.
//! assert!(trainer.model_state_bytes(true) < 20 * trainer.numel() as u64 / 2);
//! ```

pub mod checkpoint;
pub mod compressed;
pub mod data_parallel;
pub mod engine;
pub mod memory;
pub mod pipeline;
pub mod reference;
pub mod serialize;
pub mod sharded;
pub mod state;
pub mod threaded;
pub mod trainer;

pub use checkpoint::{
    publish_marker_path, CheckpointConfig, CheckpointManager, CheckpointSubscriber,
};
pub use compressed::{compress, expand};
pub use memory::{
    m_default_bytes, m_samo_bytes, m_samo_zero_bytes, samo_savings_fraction, SamoBreakdown,
};
pub use pipeline::{PipelineConfig, StageRank, StageStats, ThreadedPipelineSamo};
pub use reference::{DataParallelSamo, DenseMaskedTrainer};
pub use serialize::TrainerMeta;
pub use sharded::ShardedSamoLayerState;
pub use state::SamoLayerState;
pub use threaded::{RankGroup, ThreadedDataParallelSamo};
pub use trainer::SamoTrainer;
