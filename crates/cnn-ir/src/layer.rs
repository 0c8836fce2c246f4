//! Layer definitions and the per-layer arithmetic the static analyzer needs:
//! output-shape inference, trainable/non-trainable parameter counts and
//! MAC/FLOP costs.
//!
//! Parameter-count conventions follow Keras `count_params()` semantics, which
//! is what the paper's Table I reports: convolution and dense weights plus
//! biases are trainable; batch-norm scale/shift (`gamma`, `beta`) are
//! trainable while the running statistics (`moving_mean`, `moving_variance`)
//! are non-trainable.

use crate::shape::{Padding, TensorShape};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Activation function kinds. These carry no parameters; they matter for
/// FLOP counting and for lowering to PTX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActKind {
    Relu,
    Relu6,
    Sigmoid,
    Tanh,
    /// `x * sigmoid(x)` (a.k.a. SiLU) — used by EfficientNet.
    Swish,
    /// `x * relu6(x + 3) / 6` — used by mobile architectures.
    HardSwish,
    Softmax,
    /// Tanh-approximated GELU, `0.5x(1 + tanh(√(2/π)(x + 0.044715x³)))` —
    /// the transformer-block activation (ViT/BERT MLP).
    Gelu,
}

impl ActKind {
    /// Approximate scalar FLOPs per element for this activation.
    pub fn flops_per_element(&self) -> u64 {
        match self {
            ActKind::Relu | ActKind::Relu6 => 1,
            ActKind::Sigmoid | ActKind::Tanh => 4,
            ActKind::Swish => 5,
            ActKind::HardSwish => 4,
            ActKind::Softmax => 5,
            ActKind::Gelu => 8,
        }
    }
}

impl fmt::Display for ActKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActKind::Relu => "relu",
            ActKind::Relu6 => "relu6",
            ActKind::Sigmoid => "sigmoid",
            ActKind::Tanh => "tanh",
            ActKind::Swish => "swish",
            ActKind::HardSwish => "hard_swish",
            ActKind::Softmax => "softmax",
            ActKind::Gelu => "gelu",
        };
        f.write_str(s)
    }
}

/// Pooling flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    Max,
    Avg,
}

/// A standard 2-D convolution (optionally grouped).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2d {
    pub out_channels: u32,
    pub kernel: (u32, u32),
    pub stride: (u32, u32),
    pub padding: Padding,
    pub use_bias: bool,
    /// Channel groups; `1` for dense convolution. `in_channels` must be
    /// divisible by `groups`.
    pub groups: u32,
}

impl Conv2d {
    /// Dense (ungrouped) convolution with square kernel and stride.
    pub fn new(out_channels: u32, k: u32, s: u32, padding: Padding) -> Self {
        Self {
            out_channels,
            kernel: (k, k),
            stride: (s, s),
            padding,
            use_bias: true,
            groups: 1,
        }
    }

    /// Disable the bias term (the usual choice before batch norm).
    pub fn no_bias(mut self) -> Self {
        self.use_bias = false;
        self
    }

    /// Rectangular kernel (Inception-style `1x7` / `7x1` factorization).
    pub fn rect(out_channels: u32, kh: u32, kw: u32, padding: Padding) -> Self {
        Self {
            out_channels,
            kernel: (kh, kw),
            stride: (1, 1),
            padding,
            use_bias: true,
            groups: 1,
        }
    }
}

/// Depthwise 2-D convolution: each input channel is convolved with
/// `multiplier` filters of its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DepthwiseConv2d {
    pub multiplier: u32,
    pub kernel: (u32, u32),
    pub stride: (u32, u32),
    pub padding: Padding,
    pub use_bias: bool,
}

impl DepthwiseConv2d {
    pub fn new(k: u32, s: u32, padding: Padding) -> Self {
        Self {
            multiplier: 1,
            kernel: (k, k),
            stride: (s, s),
            padding,
            use_bias: true,
        }
    }

    pub fn no_bias(mut self) -> Self {
        self.use_bias = false;
        self
    }
}

/// Fully connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dense {
    pub units: u32,
    pub use_bias: bool,
}

impl Dense {
    pub fn new(units: u32) -> Self {
        Self {
            units,
            use_bias: true,
        }
    }
}

/// Spatial pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pool2d {
    pub kind: PoolKind,
    pub pool: (u32, u32),
    pub stride: (u32, u32),
    pub padding: Padding,
}

impl Pool2d {
    pub fn max(k: u32, s: u32, padding: Padding) -> Self {
        Self {
            kind: PoolKind::Max,
            pool: (k, k),
            stride: (s, s),
            padding,
        }
    }

    pub fn avg(k: u32, s: u32, padding: Padding) -> Self {
        Self {
            kind: PoolKind::Avg,
            pool: (k, k),
            stride: (s, s),
            padding,
        }
    }
}

/// Batch normalization. `scale`/`center` control whether `gamma`/`beta`
/// exist (Keras flags of the same names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BatchNorm {
    pub scale: bool,
    pub center: bool,
}

impl Default for BatchNorm {
    fn default() -> Self {
        Self {
            scale: true,
            center: true,
        }
    }
}

/// Trainable / non-trainable parameter counts of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamCount {
    pub trainable: u64,
    pub non_trainable: u64,
}

impl ParamCount {
    pub const ZERO: ParamCount = ParamCount {
        trainable: 0,
        non_trainable: 0,
    };

    pub fn trainable(n: u64) -> Self {
        Self {
            trainable: n,
            non_trainable: 0,
        }
    }

    pub fn total(&self) -> u64 {
        self.trainable + self.non_trainable
    }
}

impl std::ops::Add for ParamCount {
    type Output = ParamCount;
    fn add(self, rhs: ParamCount) -> ParamCount {
        ParamCount {
            trainable: self.trainable + rhs.trainable,
            non_trainable: self.non_trainable + rhs.non_trainable,
        }
    }
}

impl std::ops::AddAssign for ParamCount {
    fn add_assign(&mut self, rhs: ParamCount) {
        self.trainable += rhs.trainable;
        self.non_trainable += rhs.non_trainable;
    }
}

/// Errors produced by shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A window (conv/pool) does not fit the padded input.
    WindowTooLarge { layer: String, input: TensorShape },
    /// Grouped conv with `in_channels % groups != 0`.
    BadGrouping { in_channels: u32, groups: u32 },
    /// Element-wise merge of tensors with different shapes.
    MergeMismatch { a: TensorShape, b: TensorShape },
    /// Concat of tensors with different spatial extents.
    ConcatMismatch { a: TensorShape, b: TensorShape },
    /// Wrong number of inputs for the layer.
    Arity {
        layer: String,
        expected: &'static str,
        got: usize,
    },
    /// Group norm with `channels % groups != 0`.
    BadNormGroups { channels: u32, groups: u32 },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::WindowTooLarge { layer, input } => {
                write!(f, "{layer}: window larger than padded input {input}")
            }
            ShapeError::BadGrouping {
                in_channels,
                groups,
            } => write!(
                f,
                "conv groups {groups} do not divide input channels {in_channels}"
            ),
            ShapeError::MergeMismatch { a, b } => {
                write!(f, "element-wise merge of mismatched shapes {a} vs {b}")
            }
            ShapeError::ConcatMismatch { a, b } => {
                write!(f, "concat of mismatched spatial shapes {a} vs {b}")
            }
            ShapeError::Arity {
                layer,
                expected,
                got,
            } => write!(f, "{layer}: expected {expected} inputs, got {got}"),
            ShapeError::BadNormGroups { channels, groups } => write!(
                f,
                "group norm groups {groups} do not divide channels {channels}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// One graph node's operation. Hashing is structural, with the dropout
/// rate by bit pattern (so `0.0` and `-0.0` hash apart).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Graph entry point carrying the input shape.
    Input {
        shape: TensorShape,
    },
    Conv2d(Conv2d),
    DepthwiseConv2d(DepthwiseConv2d),
    Dense(Dense),
    Pool2d(Pool2d),
    /// Global pooling collapses spatial dims to `1x1`.
    GlobalPool {
        kind: PoolKind,
    },
    BatchNorm(BatchNorm),
    /// Group normalization (used by the BiT `m-r*` models).
    GroupNorm {
        groups: u32,
    },
    Activation(ActKind),
    /// Element-wise sum of >= 2 tensors (residual connections).
    Add,
    /// Element-wise product (squeeze-and-excitation gating).
    Multiply,
    /// Channel-axis concatenation (DenseNet / Inception).
    Concat,
    /// ShuffleNet channel shuffle: permutes channels across groups.
    /// Shape-preserving, parameter-free.
    ChannelShuffle {
        groups: u32,
    },
    ZeroPad {
        top: u32,
        bottom: u32,
        left: u32,
        right: u32,
    },
    Flatten,
    Dropout {
        rate: f32,
    },
    /// Row-wise layer normalization over the embedding axis. Sequences are
    /// represented as `hwc(seq_len, 1, d_model)` tensors, so each of the
    /// `h` rows is normalized over its `c` features; `gamma`/`beta` are
    /// per-feature trainable (like [`Layer::GroupNorm`], `2c` parameters).
    LayerNorm,
    /// Multi-head self-attention over an `hwc(seq_len, 1, d_model)`
    /// sequence: fused Q/K/V/output projections (with bias) plus the
    /// per-head `QKᵀ` / softmax / `attn·V` pipeline. Shape-preserving;
    /// `d_model` must be divisible by `heads`.
    MultiHeadAttention {
        heads: u32,
    },
    /// Transformer feed-forward block with an internal residual:
    /// `out = x + W₂·gelu(W₁·x + b₁) + b₂`, expanding `d_model` to
    /// `hidden` and back. Keeping the residual inside the layer mirrors
    /// the fused MLP kernels of transformer runtimes.
    MlpBlock {
        hidden: u32,
    },
}

impl Hash for Layer {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Layer::Input { shape } => shape.hash(state),
            Layer::Conv2d(c) => c.hash(state),
            Layer::DepthwiseConv2d(d) => d.hash(state),
            Layer::Dense(d) => d.hash(state),
            Layer::Pool2d(p) => p.hash(state),
            Layer::GlobalPool { kind } => kind.hash(state),
            Layer::BatchNorm(b) => b.hash(state),
            Layer::GroupNorm { groups } | Layer::ChannelShuffle { groups } => groups.hash(state),
            Layer::ZeroPad {
                top,
                bottom,
                left,
                right,
            } => (top, bottom, left, right).hash(state),
            Layer::Dropout { rate } => rate.to_bits().hash(state),
            Layer::MultiHeadAttention { heads } => heads.hash(state),
            Layer::MlpBlock { hidden } => hidden.hash(state),
            Layer::Activation(a) => a.hash(state),
            Layer::Add | Layer::Multiply | Layer::Concat | Layer::Flatten | Layer::LayerNorm => {}
        }
    }
}

impl Layer {
    /// Short kind name used in error messages and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Layer::Input { .. } => "input",
            Layer::Conv2d(_) => "conv2d",
            Layer::DepthwiseConv2d(_) => "depthwise_conv2d",
            Layer::Dense(_) => "dense",
            Layer::Pool2d(p) => match p.kind {
                PoolKind::Max => "max_pool2d",
                PoolKind::Avg => "avg_pool2d",
            },
            Layer::GlobalPool { kind } => match kind {
                PoolKind::Max => "global_max_pool",
                PoolKind::Avg => "global_avg_pool",
            },
            Layer::BatchNorm(_) => "batch_norm",
            Layer::GroupNorm { .. } => "group_norm",
            Layer::Activation(_) => "activation",
            Layer::Add => "add",
            Layer::Multiply => "multiply",
            Layer::Concat => "concat",
            Layer::ChannelShuffle { .. } => "channel_shuffle",
            Layer::ZeroPad { .. } => "zero_pad",
            Layer::Flatten => "flatten",
            Layer::Dropout { .. } => "dropout",
            Layer::LayerNorm => "layer_norm",
            Layer::MultiHeadAttention { .. } => "multi_head_attention",
            Layer::MlpBlock { .. } => "mlp_block",
        }
    }

    /// True for layers that carry trainable weights.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            Layer::Conv2d(_)
                | Layer::DepthwiseConv2d(_)
                | Layer::Dense(_)
                | Layer::MultiHeadAttention { .. }
                | Layer::MlpBlock { .. }
        )
    }

    /// Infer the output shape from the input shapes.
    pub fn output_shape(&self, inputs: &[TensorShape]) -> Result<TensorShape, ShapeError> {
        let one = |name: &'static str| -> Result<TensorShape, ShapeError> {
            if inputs.len() == 1 {
                Ok(inputs[0])
            } else {
                Err(ShapeError::Arity {
                    layer: name.to_string(),
                    expected: "exactly 1",
                    got: inputs.len(),
                })
            }
        };
        match self {
            Layer::Input { shape } => {
                if inputs.is_empty() {
                    Ok(*shape)
                } else {
                    Err(ShapeError::Arity {
                        layer: "input".into(),
                        expected: "0",
                        got: inputs.len(),
                    })
                }
            }
            Layer::Conv2d(c) => {
                let i = one("conv2d")?;
                if i.c % c.groups != 0 {
                    return Err(ShapeError::BadGrouping {
                        in_channels: i.c,
                        groups: c.groups,
                    });
                }
                let h = c.padding.out_h(i.h, c.kernel.0, c.stride.0);
                let w = c.padding.out_w(i.w, c.kernel.1, c.stride.1);
                match (h, w) {
                    (Some(h), Some(w)) => Ok(TensorShape::hwc(h, w, c.out_channels)),
                    _ => Err(ShapeError::WindowTooLarge {
                        layer: "conv2d".into(),
                        input: i,
                    }),
                }
            }
            Layer::DepthwiseConv2d(c) => {
                let i = one("depthwise_conv2d")?;
                let h = c.padding.out_h(i.h, c.kernel.0, c.stride.0);
                let w = c.padding.out_w(i.w, c.kernel.1, c.stride.1);
                match (h, w) {
                    (Some(h), Some(w)) => Ok(TensorShape::hwc(h, w, i.c * c.multiplier)),
                    _ => Err(ShapeError::WindowTooLarge {
                        layer: "depthwise_conv2d".into(),
                        input: i,
                    }),
                }
            }
            Layer::Dense(d) => {
                let i = one("dense")?;
                // Keras applies Dense to the last axis; our graphs always
                // flatten first, so require a flat input.
                let _ = i;
                Ok(TensorShape::flat(d.units))
            }
            Layer::Pool2d(p) => {
                let i = one("pool2d")?;
                let h = p.padding.out_h(i.h, p.pool.0, p.stride.0);
                let w = p.padding.out_w(i.w, p.pool.1, p.stride.1);
                match (h, w) {
                    (Some(h), Some(w)) => Ok(TensorShape::hwc(h, w, i.c)),
                    _ => Err(ShapeError::WindowTooLarge {
                        layer: "pool2d".into(),
                        input: i,
                    }),
                }
            }
            Layer::GlobalPool { .. } => {
                let i = one("global_pool")?;
                Ok(TensorShape::flat(i.c))
            }
            Layer::BatchNorm(_) => one("batch_norm"),
            Layer::GroupNorm { groups } => {
                let i = one("group_norm")?;
                if i.c % groups != 0 {
                    return Err(ShapeError::BadNormGroups {
                        channels: i.c,
                        groups: *groups,
                    });
                }
                Ok(i)
            }
            Layer::Activation(_) => one("activation"),
            Layer::Add => {
                if inputs.len() < 2 {
                    return Err(ShapeError::Arity {
                        layer: "add".to_string(),
                        expected: "at least 2",
                        got: inputs.len(),
                    });
                }
                let first = inputs[0];
                for &s in &inputs[1..] {
                    if s != first {
                        return Err(ShapeError::MergeMismatch { a: first, b: s });
                    }
                }
                Ok(first)
            }
            Layer::Multiply => {
                // Multiply supports channel-wise broadcast: a `1x1xC` gate
                // against an `HxWxC` tensor (squeeze-and-excitation).
                if inputs.len() != 2 {
                    return Err(ShapeError::Arity {
                        layer: "multiply".to_string(),
                        expected: "exactly 2",
                        got: inputs.len(),
                    });
                }
                let (a, b) = (inputs[0], inputs[1]);
                if a == b || (b.is_flat() && b.c == a.c) {
                    Ok(a)
                } else if a.is_flat() && a.c == b.c {
                    Ok(b)
                } else {
                    Err(ShapeError::MergeMismatch { a, b })
                }
            }
            Layer::Concat => {
                if inputs.len() < 2 {
                    return Err(ShapeError::Arity {
                        layer: "concat".into(),
                        expected: "at least 2",
                        got: inputs.len(),
                    });
                }
                let first = inputs[0];
                let mut c = 0u32;
                for &s in inputs {
                    if (s.h, s.w) != (first.h, first.w) {
                        return Err(ShapeError::ConcatMismatch { a: first, b: s });
                    }
                    c += s.c;
                }
                Ok(TensorShape::hwc(first.h, first.w, c))
            }
            Layer::ChannelShuffle { groups } => {
                let i = one("channel_shuffle")?;
                if i.c % groups != 0 {
                    return Err(ShapeError::BadNormGroups {
                        channels: i.c,
                        groups: *groups,
                    });
                }
                Ok(i)
            }
            Layer::ZeroPad {
                top,
                bottom,
                left,
                right,
            } => {
                let i = one("zero_pad")?;
                Ok(TensorShape::hwc(
                    i.h + top + bottom,
                    i.w + left + right,
                    i.c,
                ))
            }
            Layer::Flatten => {
                let i = one("flatten")?;
                Ok(TensorShape::flat(
                    u32::try_from(i.elements()).expect("flatten overflow"),
                ))
            }
            Layer::Dropout { .. } => one("dropout"),
            Layer::LayerNorm => one("layer_norm"),
            Layer::MultiHeadAttention { heads } => {
                let i = one("multi_head_attention")?;
                if i.c % heads != 0 {
                    return Err(ShapeError::BadNormGroups {
                        channels: i.c,
                        groups: *heads,
                    });
                }
                Ok(i)
            }
            Layer::MlpBlock { .. } => one("mlp_block"),
        }
    }

    /// Trainable / non-trainable parameters given the input shapes.
    pub fn param_count(&self, inputs: &[TensorShape]) -> ParamCount {
        match self {
            Layer::Conv2d(c) => {
                let in_c = inputs[0].c as u64;
                let w = c.kernel.0 as u64
                    * c.kernel.1 as u64
                    * (in_c / c.groups as u64)
                    * c.out_channels as u64;
                let b = if c.use_bias { c.out_channels as u64 } else { 0 };
                ParamCount::trainable(w + b)
            }
            Layer::DepthwiseConv2d(c) => {
                let in_c = inputs[0].c as u64;
                let w = c.kernel.0 as u64 * c.kernel.1 as u64 * in_c * c.multiplier as u64;
                let b = if c.use_bias {
                    in_c * c.multiplier as u64
                } else {
                    0
                };
                ParamCount::trainable(w + b)
            }
            Layer::Dense(d) => {
                let in_n = inputs[0].elements();
                let w = in_n * d.units as u64;
                let b = if d.use_bias { d.units as u64 } else { 0 };
                ParamCount::trainable(w + b)
            }
            Layer::BatchNorm(bn) => {
                let c = inputs[0].c as u64;
                let mut trainable = 0;
                if bn.scale {
                    trainable += c;
                }
                if bn.center {
                    trainable += c;
                }
                ParamCount {
                    trainable,
                    non_trainable: 2 * c, // moving mean + variance
                }
            }
            Layer::GroupNorm { .. } | Layer::LayerNorm => {
                let c = inputs[0].c as u64;
                ParamCount::trainable(2 * c)
            }
            Layer::MultiHeadAttention { .. } => {
                // four d×d projections (Q, K, V, output), each with bias
                let d = inputs[0].c as u64;
                ParamCount::trainable(4 * (d * d + d))
            }
            Layer::MlpBlock { hidden } => {
                let d = inputs[0].c as u64;
                let h = *hidden as u64;
                ParamCount::trainable(d * h + h + h * d + d)
            }
            _ => ParamCount::ZERO,
        }
    }

    /// Multiply-accumulate operations for one forward pass (batch 1).
    pub fn macs(&self, inputs: &[TensorShape], output: TensorShape) -> u64 {
        match self {
            Layer::Conv2d(c) => {
                let in_c = inputs[0].c as u64;
                output.elements() * c.kernel.0 as u64 * c.kernel.1 as u64 * (in_c / c.groups as u64)
            }
            Layer::DepthwiseConv2d(c) => output.elements() * c.kernel.0 as u64 * c.kernel.1 as u64,
            Layer::Dense(d) => inputs[0].elements() * d.units as u64,
            Layer::MultiHeadAttention { .. } => {
                // 4 projections: 4·S·d² — plus QKᵀ and attn·V: 2·S²·d
                // (head count cancels: heads·S²·(d/heads), twice)
                let s = inputs[0].h as u64 * inputs[0].w as u64;
                let d = inputs[0].c as u64;
                4 * s * d * d + 2 * s * s * d
            }
            Layer::MlpBlock { hidden } => {
                let s = inputs[0].h as u64 * inputs[0].w as u64;
                let d = inputs[0].c as u64;
                2 * s * d * *hidden as u64
            }
            _ => 0,
        }
    }

    /// Total scalar FLOPs (2 per MAC for weighted layers; element-wise costs
    /// otherwise).
    pub fn flops(&self, inputs: &[TensorShape], output: TensorShape) -> u64 {
        match self {
            Layer::Conv2d(_) | Layer::DepthwiseConv2d(_) | Layer::Dense(_) => {
                2 * self.macs(inputs, output)
            }
            Layer::Pool2d(p) => output.elements() * p.pool.0 as u64 * p.pool.1 as u64,
            Layer::GlobalPool { .. } => inputs[0].elements(),
            Layer::BatchNorm(_) | Layer::GroupNorm { .. } => 2 * output.elements(),
            // inference-time layernorm computes mean/variance per row and
            // then normalizes + affines, unlike BN's folded running stats
            Layer::LayerNorm => 4 * output.elements(),
            Layer::Activation(a) => a.flops_per_element() * output.elements(),
            Layer::Add | Layer::Multiply => (inputs.len() as u64 - 1) * output.elements(),
            Layer::MultiHeadAttention { heads } => {
                // matmuls plus the heads·S² row softmaxes over S scores
                let s = inputs[0].h as u64 * inputs[0].w as u64;
                2 * self.macs(inputs, output)
                    + ActKind::Softmax.flops_per_element() * *heads as u64 * s * s
            }
            Layer::MlpBlock { hidden } => {
                // matmuls + gelu over the hidden expansion + residual add
                let s = inputs[0].h as u64 * inputs[0].w as u64;
                2 * self.macs(inputs, output)
                    + ActKind::Gelu.flops_per_element() * s * *hidden as u64
                    + output.elements()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(h: u32, w: u32, c: u32) -> TensorShape {
        TensorShape::hwc(h, w, c)
    }

    #[test]
    fn conv_params_match_keras() {
        // VGG16 block1_conv1: 3x3x3x64 + 64 = 1792
        let c = Layer::Conv2d(Conv2d::new(64, 3, 1, Padding::Same));
        assert_eq!(c.param_count(&[s(224, 224, 3)]).trainable, 1792);
        // block1_conv2: 3x3x64x64 + 64 = 36928
        assert_eq!(c.param_count(&[s(224, 224, 64)]).trainable, 36928);
    }

    #[test]
    fn conv_no_bias() {
        let c = Layer::Conv2d(Conv2d::new(64, 3, 1, Padding::Same).no_bias());
        assert_eq!(c.param_count(&[s(224, 224, 3)]).trainable, 1728);
    }

    #[test]
    fn grouped_conv_divides_weights() {
        let mut conv = Conv2d::new(128, 3, 1, Padding::Same).no_bias();
        conv.groups = 4;
        let c = Layer::Conv2d(conv);
        // 3*3*(64/4)*128 = 18432
        assert_eq!(c.param_count(&[s(56, 56, 64)]).trainable, 18432);
    }

    #[test]
    fn grouped_conv_rejects_bad_groups() {
        let mut conv = Conv2d::new(128, 3, 1, Padding::Same);
        conv.groups = 3;
        let c = Layer::Conv2d(conv);
        assert!(matches!(
            c.output_shape(&[s(56, 56, 64)]),
            Err(ShapeError::BadGrouping { .. })
        ));
    }

    #[test]
    fn depthwise_params() {
        // MobileNet dw 3x3 on 32 channels, no bias: 3*3*32 = 288
        let l = Layer::DepthwiseConv2d(DepthwiseConv2d::new(3, 1, Padding::Same).no_bias());
        assert_eq!(l.param_count(&[s(112, 112, 32)]).trainable, 288);
    }

    #[test]
    fn dense_params_match_keras() {
        // VGG16 fc1: 25088*4096 + 4096 = 102764544
        let l = Layer::Dense(Dense::new(4096));
        assert_eq!(
            l.param_count(&[TensorShape::flat(25088)]).trainable,
            102_764_544
        );
    }

    #[test]
    fn batchnorm_split_counts() {
        let l = Layer::BatchNorm(BatchNorm::default());
        let p = l.param_count(&[s(56, 56, 64)]);
        assert_eq!(p.trainable, 128);
        assert_eq!(p.non_trainable, 128);
        assert_eq!(p.total(), 256);
    }

    #[test]
    fn batchnorm_no_scale() {
        // ResNet-v2 style BN without gamma
        let l = Layer::BatchNorm(BatchNorm {
            scale: false,
            center: true,
        });
        let p = l.param_count(&[s(56, 56, 64)]);
        assert_eq!(p.trainable, 64);
        assert_eq!(p.non_trainable, 128);
    }

    #[test]
    fn add_requires_same_shape() {
        assert!(Layer::Add.output_shape(&[s(2, 2, 3), s(2, 2, 4)]).is_err());
        assert_eq!(
            Layer::Add.output_shape(&[s(2, 2, 3), s(2, 2, 3)]).unwrap(),
            s(2, 2, 3)
        );
    }

    #[test]
    fn concat_sums_channels() {
        assert_eq!(
            Layer::Concat
                .output_shape(&[s(4, 4, 3), s(4, 4, 5), s(4, 4, 2)])
                .unwrap(),
            s(4, 4, 10)
        );
        assert!(Layer::Concat
            .output_shape(&[s(4, 4, 3), s(5, 4, 5)])
            .is_err());
    }

    #[test]
    fn flatten_and_global_pool() {
        assert_eq!(
            Layer::Flatten.output_shape(&[s(7, 7, 512)]).unwrap(),
            TensorShape::flat(25088)
        );
        assert_eq!(
            Layer::GlobalPool {
                kind: PoolKind::Avg
            }
            .output_shape(&[s(7, 7, 2048)])
            .unwrap(),
            TensorShape::flat(2048)
        );
    }

    #[test]
    fn conv_macs() {
        // 3x3 conv, 64 -> 64, 56x56 SAME: 56*56*64 * 3*3*64
        let c = Layer::Conv2d(Conv2d::new(64, 3, 1, Padding::Same).no_bias());
        let inp = [s(56, 56, 64)];
        let out = c.output_shape(&inp).unwrap();
        assert_eq!(c.macs(&inp, out), 56 * 56 * 64 * 9 * 64);
        assert_eq!(c.flops(&inp, out), 2 * 56 * 56 * 64 * 9 * 64);
    }

    #[test]
    fn zero_pad_grows_spatial() {
        let l = Layer::ZeroPad {
            top: 3,
            bottom: 3,
            left: 3,
            right: 3,
        };
        assert_eq!(l.output_shape(&[s(224, 224, 3)]).unwrap(), s(230, 230, 3));
    }

    #[test]
    fn attention_params_match_reference() {
        // 4 projections of d=64 with bias: 4*(64*64 + 64) = 16640
        let l = Layer::MultiHeadAttention { heads: 4 };
        let seq = s(16, 1, 64); // 16 tokens, d_model 64
        assert_eq!(l.param_count(&[seq]).trainable, 16_640);
        assert_eq!(l.output_shape(&[seq]).unwrap(), seq);
        // d_model not divisible by heads
        assert!(matches!(
            Layer::MultiHeadAttention { heads: 5 }.output_shape(&[seq]),
            Err(ShapeError::BadNormGroups { .. })
        ));
        // macs: 4*S*d^2 + 2*S^2*d = 4*16*4096 + 2*256*64
        assert_eq!(l.macs(&[seq], seq), 4 * 16 * 64 * 64 + 2 * 16 * 16 * 64);
    }

    #[test]
    fn mlp_block_params_and_macs() {
        // W1: 64*256+256, W2: 256*64+64 = 33088
        let l = Layer::MlpBlock { hidden: 256 };
        let seq = s(16, 1, 64);
        assert_eq!(l.param_count(&[seq]).trainable, 33_088);
        assert_eq!(l.output_shape(&[seq]).unwrap(), seq);
        assert_eq!(l.macs(&[seq], seq), 2 * 16 * 64 * 256);
    }

    #[test]
    fn layernorm_is_shape_preserving_with_2c_params() {
        let seq = s(16, 1, 64);
        assert_eq!(Layer::LayerNorm.output_shape(&[seq]).unwrap(), seq);
        assert_eq!(Layer::LayerNorm.param_count(&[seq]).trainable, 128);
        assert_eq!(Layer::LayerNorm.param_count(&[seq]).non_trainable, 0);
    }

    #[test]
    fn arity_errors() {
        assert!(matches!(
            Layer::Add.output_shape(&[s(1, 1, 1)]),
            Err(ShapeError::Arity { .. })
        ));
        assert!(matches!(
            Layer::Flatten.output_shape(&[]),
            Err(ShapeError::Arity { .. })
        ));
    }
}
