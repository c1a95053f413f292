//! The sequential data-parallel oracle's old path. [`DataParallelSamo`]
//! now lives in `crate::reference` with the rest of the oracle; this
//! re-export stays until the frozen `benchmark/` consumer stops
//! importing it.

pub use crate::reference::DataParallelSamo;
