//! Neural-network training substrate for the SAMO reproduction.
//!
//! Provides what PyTorch + Megatron kernels provide in the paper: layers
//! with hand-written forward/backward passes, losses, optimizers, and the
//! mixed-precision training machinery (fp32 master weights, fp16 compute
//! weights and gradients, dynamic loss scaling) that SAMO's compressed
//! model state plugs into.
//!
//! Every backward pass is validated against finite differences in
//! [`gradcheck`].
//!
//! ```
//! use nn::layer::Layer;
//! // A two-layer MLP fit to y = -x with plain SGD.
//! let mut model = nn::Sequential::new()
//!     .push(nn::Linear::new(4, 16, true, 1))
//!     .push(nn::Gelu::new())
//!     .push(nn::Linear::new(16, 4, true, 2));
//! let x = tensor::Tensor::randn(&[8, 4], 1.0, 3);
//! let target = tensor::Tensor::from_vec(
//!     &[8, 4],
//!     x.as_slice().iter().map(|v| -v).collect(),
//! );
//! let mut states: Vec<nn::optim::SgdState> =
//!     model.params().iter().map(|p| nn::optim::SgdState::new(p.numel())).collect();
//! let cfg = nn::optim::SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 };
//! let mut last = f32::MAX;
//! for _ in 0..100 {
//!     let y = model.forward(&x);
//!     let (loss, dy) = nn::loss::mse(&y, &target);
//!     model.backward(&dy);
//!     for (p, st) in model.params_mut().into_iter().zip(&mut states) {
//!         let g = p.grad.as_slice().to_vec();
//!         nn::optim::sgd_step(&cfg, st, p.value.as_mut_slice(), &g);
//!         p.zero_grad();
//!     }
//!     last = loss;
//! }
//! assert!(last < 0.05, "converged: {last}");
//! ```

pub mod activations;
pub mod batchnorm;
pub mod attention;
pub mod conv;
pub mod data;
pub mod embedding;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod mixed;
pub mod nm_linear;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool2d;
pub mod qlinear;
pub mod sparse_linear;

pub use activations::{Gelu, Relu};
pub use batchnorm::BatchNorm2d;
pub use pool2d::{GlobalAvgPool, MaxPool2d};
pub use attention::CausalSelfAttention;
pub use conv::Conv2d;
pub use embedding::Embedding;
pub use layer::{Layer, Sequential};
pub use linear::Linear;
pub use loss::{cross_entropy, perplexity};
pub use mixed::{DenseMixedState, LossScaler, OptState, Optimizer};
pub use nm_linear::NmLinear;
pub use norm::LayerNorm;
pub use qlinear::QuantLinear;
pub use sparse_linear::SparseLinear;
pub use param::Parameter;
