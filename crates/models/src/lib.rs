//! Model zoo for the SAMO reproduction: the six networks of the paper's
//! Table I described at layer granularity (parameters, flops, activation
//! sizes — the inputs to the cluster simulator), plus [`tiny::TinyGpt`],
//! a real trainable GPT used for the Fig. 4 statistical-efficiency
//! experiment.

pub mod gpt;
pub mod pipeline_mlp;
pub mod tiny;
pub mod tiny_cnn;
pub mod vision;
pub mod zoo;

pub use gpt::{GptConfig, ALL_GPT, GPT3_13B, GPT3_2_7B, GPT3_6_7B, GPT3_XL};
pub use pipeline_mlp::{
    uniform_pipeline_masks, uniform_pipeline_mlp, uniform_pipeline_mlp_delayed, StageDelay,
};
pub use tiny::{TinyGpt, TinyGptConfig, TransformerBlock};
pub use tiny_cnn::{ShapeDataset, TinyCnn, CNN_CLASSES};
pub use vision::{vgg19, wideresnet101, VisionModel};
pub use zoo::{table_i, ModelKind, ZooEntry};
