//! The benchmark of SAMO training and serving: six workloads, the
//! end-to-end metrics a user of the system sees, and a per-layer ledger
//! from a traced pass. Everything is measured from outside, by timing this
//! crate's own calls into the public functions of the repository's crates.
//! See `README.md` for the workloads, the metrics and how to read a trace.

pub mod calib;
pub mod loadgen;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod schedule;
pub mod spans;
pub mod spin;
pub mod stats;
pub mod suite;
pub mod workloads;
