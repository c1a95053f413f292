//! Neural-network pruning for the SAMO reproduction.
//!
//! SAMO "can be applied only after a neural network has been sparsified
//! using a pruning algorithm" (paper Sec. III); the pruning algorithm's
//! output is `ind`, the per-layer linearized indices of unpruned
//! parameters. This crate provides [`mask::Mask`] (the `ind_i` data
//! structure with the shared-index and 1-D-linearization optimizations of
//! Sec. III-B) and the pruning oracles that produce it, including an
//! emulation of You et al.'s Early-Bird Tickets criterion used by the
//! paper's experiments.

pub mod algorithms;
pub mod dynamic;
pub mod nm;
pub mod mask;
pub mod select;

pub use algorithms::{magnitude_prune, random_prune, EarlyBird};
pub use dynamic::{MaskSchedule, MomentumPruneRegrow};
pub use mask::Mask;
pub use nm::{is_nm_mask, nm_prune, nm_prune_24};
