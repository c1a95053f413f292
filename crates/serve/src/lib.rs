//! samo-serve — a batched inference runtime over SAMO checkpoints,
//! with hot reload (DESIGN.md §17).
//!
//! Training under the paper's memory optimization produces a stream of
//! compressed checkpoints; this crate is the other half of that
//! lifecycle: a serving endpoint that answers inference requests from
//! the **dense θ16 compute parameters** of the latest *published*
//! checkpoint, batching concurrent requests into GEMM-friendly shapes
//! and swapping in newly published checkpoints without dropping a
//! request.
//!
//! The runtime is std threads and channels end to end — the same
//! no-async discipline as the training transport, whose length-
//! prefixed TCP framing it reuses verbatim (`comms::tcp::framing`):
//!
//! * [`protocol`] — the serving dialect over the comms frame format,
//! * [`batcher`] — fill-or-deadline request coalescing,
//! * [`model`] — verified checkpoint loads, backend lowering
//!   (dense / 2:4 structured sparse / int8, DESIGN.md §11),
//! * `replica` (private) — the thread-per-replica pool (crash + respawn),
//! * [`reload`] — the publish-marker watcher and blackout metering,
//! * [`server`] — listener, readers, dispatcher: the endpoint,
//! * [`client`] — a blocking deadline-aware client,
//! * [`loadgen`] — the closed-loop SLA load generator,
//! * [`harness`] — the toy training job the tests and benches publish
//!   checkpoints from.
//!
//! With telemetry on, each request's life is traced on the serving lane
//! of the one recorder (`telemetry::trace::lane::SERVE`), one `tid` per
//! replica: its `queue` wait from enqueue to dispatch, the `batch` it
//! was coalesced into and the `compute` slice inside the batch — with
//! `reload` slices on one more `tid` (index = replica count) cutting
//! across them when a hot checkpoint swap lands.
//!
//! The serving invariant that everything above hangs off: a reply
//! stamped with checkpoint step `s` is **bitwise identical** to a
//! fresh process loading checkpoint `s` and running the same batched
//! forward — batching, hot reload, and replica crashes change *when*
//! a model answers, never *what* it answers.

pub mod batcher;
pub mod client;
pub mod harness;
pub mod loadgen;
pub mod model;
pub mod protocol;
mod replica;
pub mod reload;
pub mod server;
mod stats;

pub use batcher::BatchPolicy;
pub use client::{InferReply, ServeClient, ServeError};
pub use harness::TrainPublisher;
pub use loadgen::{LoadGenConfig, LoadGenReport};
pub use model::{build_model, load_verified, Backend, BuiltModel, LoadedCheckpoint};
pub use server::{ServeConfig, Server};
pub use stats::ServeStats;
