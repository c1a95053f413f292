//! The sharded layer state's old name. The ZeRO-style shard is now a
//! range of [`SamoLayerState`] itself (see `crate::state`); this alias
//! stays until the frozen `benchmark/` consumer stops importing it.

use crate::state::SamoLayerState;

/// A [`SamoLayerState`] holding one shard of the compressed fp32 state.
pub type ShardedSamoLayerState = SamoLayerState;
