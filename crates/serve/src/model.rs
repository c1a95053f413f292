//! Checkpoint → servable model: verified loads and backend selection.
//!
//! A SAMO checkpoint stores per-layer compressed model state; serving
//! needs only the dense θ16 compute parameters, widened to f32 (see
//! `SamoLayerState::dense_f32_params` — exactly the values a training
//! forward uses). The builder reconstructs the MLP architecture from
//! the parameter shapes alone — `[out, in]` tensors are linear weights,
//! each followed by its `[out]` bias, with a GELU between consecutive
//! linears (the repo's toy-MLP convention, see `harness`) — and lowers
//! it onto one of three compute backends from DESIGN.md §11:
//!
//! * [`Backend::Dense`] — `Linear`, dense f32 GEMM (AVX2 when detected),
//! * [`Backend::Nm24`] — `NmLinear`, magnitude-projected 2:4 structured
//!   sparse weights and the packed spMM,
//! * [`Backend::Int8`] — `QuantLinear`, per-channel symmetric int8
//!   weights with `maddubs` dot kernels.
//!
//! [`load_verified`] is the only way the serving path reads a
//! checkpoint: on top of the format's own CRC validation it loads the
//! file **twice** and proves the dense parameters bitwise identical
//! across the two loads, so the model swapped into a replica is — by
//! construction, not by trust — exactly what a fresh process would
//! load from that file.

use nn::layer::Sequential;
use nn::mixed::Optimizer;
use nn::{Gelu, Linear, NmLinear, QuantLinear};
use samo::{SamoLayerState, TrainerMeta};
use std::path::{Path, PathBuf};
use tensor::Tensor;

/// Which compute tier a replica runs its forward on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Dense θ16 widened to f32; plain `Linear` GEMM.
    Dense,
    /// 2:4 structured-sparse weights (`NmLinear`); requires
    /// `in_features % 4 == 0` on every linear.
    Nm24,
    /// Per-channel symmetric int8 weights (`QuantLinear`).
    Int8,
}

impl Backend {
    pub const ALL: [Backend; 3] = [Backend::Dense, Backend::Nm24, Backend::Int8];

    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Nm24 => "nm24",
            Backend::Int8 => "int8",
        }
    }

    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "dense" => Ok(Backend::Dense),
            "nm24" => Ok(Backend::Nm24),
            "int8" => Ok(Backend::Int8),
            other => Err(format!("unknown backend {other:?} (dense|nm24|int8)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A checkpoint read, CRC-validated, and proven deterministic.
pub struct LoadedCheckpoint {
    /// Training step the checkpoint file name carries.
    pub step: u64,
    pub path: PathBuf,
    pub states: Vec<SamoLayerState>,
    pub meta: TrainerMeta,
}

/// Reads `path` and parses it under `opt` (the format CRC-checks
/// every section), then reads and parses it a *second* time and
/// asserts the dense f32 parameters bitwise equal across the loads —
/// the "verified against a fresh load" guarantee the hot-reload path
/// promises before a model is swapped into replicas.
pub fn load_verified(path: &Path, step: u64, opt: &Optimizer) -> Result<LoadedCheckpoint, String> {
    let read = || -> Result<(Vec<SamoLayerState>, TrainerMeta), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        samo::serialize::load_checkpoint(&bytes, opt)
    };
    let (states, meta) = read()?;
    let (states2, _) = read()?;
    if states.len() != states2.len() {
        return Err(format!("{}: layer count changed between loads", path.display()));
    }
    for (li, (a, b)) in states.iter().zip(&states2).enumerate() {
        let (pa, pb) = (a.dense_f32_params(), b.dense_f32_params());
        let same = pa.len() == pb.len()
            && pa.iter().zip(&pb).all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!(
                "{}: layer {li} dense params differ between two loads of the same file",
                path.display()
            ));
        }
    }
    Ok(LoadedCheckpoint { step, path: path.to_path_buf(), states, meta })
}

/// One replica's servable model: the lowered [`Sequential`] plus the
/// input/output widths the batcher validates request shapes against.
pub struct BuiltModel {
    pub seq: Sequential,
    pub in_features: usize,
    pub out_features: usize,
}

/// Lowers checkpoint layer states onto `backend`. See the module docs
/// for the shape-driven architecture reconstruction.
pub fn build_model(states: &[SamoLayerState], backend: Backend) -> Result<BuiltModel, String> {
    let mut linears: Vec<(Tensor, Option<Tensor>)> = Vec::new();
    for (li, st) in states.iter().enumerate() {
        let shape = st.mask().shape().to_vec();
        let vals = st.dense_f32_params();
        match shape.len() {
            2 => linears.push((Tensor::from_vec(&shape, vals), None)),
            1 => match linears.last_mut() {
                Some((w, bias @ None)) if w.shape()[0] == shape[0] => {
                    *bias = Some(Tensor::from_vec(&shape, vals));
                }
                _ => {
                    return Err(format!(
                        "layer {li}: bias of {} features has no matching weight",
                        shape[0]
                    ))
                }
            },
            _ => return Err(format!("layer {li}: unsupported param rank {}", shape.len())),
        }
    }
    let (Some((first, _)), Some((last, _))) = (linears.first(), linears.last()) else {
        return Err("checkpoint holds no linear layers".into());
    };
    let (in_features, out_features) = (first.shape()[1], last.shape()[0]);
    let mut seq = Sequential::new();
    let n = linears.len();
    for (i, (w, b)) in linears.into_iter().enumerate() {
        if backend == Backend::Nm24 && w.shape()[1] % 4 != 0 {
            return Err(format!(
                "nm24 backend needs in_features % 4 == 0, linear {i} has {}",
                w.shape()[1]
            ));
        }
        seq = match backend {
            Backend::Dense => seq.push(Linear::from_weights(w, b)),
            Backend::Nm24 => seq.push(NmLinear::from_dense(&w, b)),
            Backend::Int8 => seq.push(QuantLinear::from_weights(&w, b)),
        };
        if i + 1 < n {
            seq = seq.push(Gelu::new());
        }
    }
    Ok(BuiltModel { seq, in_features, out_features })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::layer::Layer;
    use nn::optim::AdamConfig;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig::default())
    }

    /// States for a 2-linear MLP [8 -> 12 -> 4] with biases.
    fn mlp_states(seed: u64) -> Vec<SamoLayerState> {
        let mk = |shape: &[usize], salt: u64| {
            let n: usize = shape.iter().product();
            let vals: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed ^ salt);
                    ((h >> 40) as f32) / (1u64 << 24) as f32 - 0.5
                })
                .collect();
            SamoLayerState::from_params(&vals, prune::Mask::dense(shape), &adam())
        };
        vec![mk(&[12, 8], 1), mk(&[12], 2), mk(&[4, 12], 3), mk(&[4], 4)]
    }

    #[test]
    fn shapes_reconstruct_the_mlp_on_every_backend() {
        let states = mlp_states(7);
        for backend in Backend::ALL {
            let mut m = build_model(&states, backend).unwrap();
            assert_eq!((m.in_features, m.out_features), (8, 4), "{backend}");
            let mut out = Vec::new();
            let cols = m.seq.infer_batch(&[0.25; 16], 2, 8, &mut out);
            assert_eq!(cols, 4, "{backend}");
            assert_eq!(out.len(), 8, "{backend}");
            assert!(out.iter().all(|v| v.is_finite()), "{backend}");
        }
    }

    #[test]
    fn dense_backend_matches_direct_construction_bitwise() {
        let states = mlp_states(11);
        let mut built = build_model(&states, Backend::Dense).unwrap();
        let w1 = Tensor::from_vec(&[12, 8], states[0].dense_f32_params());
        let b1 = Tensor::from_vec(&[12], states[1].dense_f32_params());
        let w2 = Tensor::from_vec(&[4, 12], states[2].dense_f32_params());
        let b2 = Tensor::from_vec(&[4], states[3].dense_f32_params());
        let mut oracle = Sequential::new()
            .push(Linear::from_weights(w1, Some(b1)))
            .push(Gelu::new())
            .push(Linear::from_weights(w2, Some(b2)));
        let x: Vec<f32> = (0..8).map(|i| (i as f32).sin()).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        built.seq.infer_batch(&x, 1, 8, &mut got);
        oracle.infer_batch(&x, 1, 8, &mut want);
        let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb);
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let adam = adam();
        let lone_bias =
            vec![SamoLayerState::from_params(&[0.1; 6], prune::Mask::dense(&[6]), &adam)];
        assert!(build_model(&lone_bias, Backend::Dense).is_err());
        let states = mlp_states(3);
        assert!(build_model(&states[..0], Backend::Dense).is_err(), "empty");
        // 8 and 12 input features are not % 4 == 0? They are; force a bad one.
        let odd = vec![SamoLayerState::from_params(
            &[0.1; 10 * 3],
            prune::Mask::dense(&[10, 3]),
            &adam,
        )];
        assert!(build_model(&odd, Backend::Nm24).is_err(), "nm24 needs in % 4 == 0");
        assert!(build_model(&odd, Backend::Dense).is_ok());
    }

    #[test]
    fn load_verified_rejects_corruption_and_accepts_clean_files() {
        let dir = std::env::temp_dir().join(format!("samo-serve-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let states = mlp_states(5);
        let meta = TrainerMeta { loss_scale: 1.0, good_steps: 3, steps_taken: 9, steps_skipped: 0 };
        let bytes = samo::serialize::save_checkpoint(&states, &meta);
        let path = dir.join("ckpt-000000000009.samo");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_verified(&path, 9, &adam()).unwrap();
        assert_eq!(loaded.step, 9);
        assert_eq!(loaded.states.len(), 4);
        assert_eq!(loaded.meta.steps_taken, 9);
        // Flip one payload byte: the CRC layer must refuse it.
        let mut torn = bytes.to_vec();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        std::fs::write(&path, &torn).unwrap();
        assert!(load_verified(&path, 9, &adam()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
