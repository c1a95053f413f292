//! The comms layer records its ring hops, sends, recv waits and flow
//! arrows through the workspace's one trace recorder
//! (`telemetry::trace`, lane `COMMS`). This module survives only as the
//! path of [`now_us`], which the frozen `benchmark/` imports.

pub use telemetry::clock::now_us;
