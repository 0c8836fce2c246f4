//! Lowering a [`cnn_ir::ModelGraph`] to a PTX [`LaunchPlan`]: one ordered
//! kernel-launch sequence per forward pass (batch 1), with realistic grid
//! sizes, parameter values and global-memory traffic accounting.

use crate::templates::{self, Template, BLOCK, TILE};
use cnn_ir::{ActKind, GraphError, Layer, ModelGraph, PoolKind, TensorShape};
use ptx::kernel::{KernelLaunch, LaunchPlan, Module};
use std::sync::Arc;

/// Base of the synthetic device-memory arena used for tensor addresses.
const ARENA_BASE: u64 = 0x1000_0000;

struct Lowerer {
    module: Module,
    launches: Vec<KernelLaunch>,
    cursor: u64,
    gemm: GemmVariant,
}

impl Lowerer {
    fn new(target: &str, gemm: GemmVariant) -> Self {
        let mut module = Module::new(target);
        module.kernels = Arc::clone(templates::kernels());
        Self {
            module,
            launches: Vec::new(),
            cursor: ARENA_BASE,
            gemm,
        }
    }

    /// Allocate a device buffer of `elems` fp32 values, 256-byte aligned.
    fn alloc(&mut self, elems: u64) -> u64 {
        let addr = self.cursor;
        self.cursor += (elems * 4 + 255) & !255;
        addr
    }

    fn launch(
        &mut self,
        t: Template,
        tag: String,
        threads: u64,
        args: Vec<u64>,
        bytes_read: u64,
        bytes_written: u64,
    ) {
        let blocks = threads.div_ceil(BLOCK as u64);
        assert!(blocks <= u32::MAX as u64, "grid overflow in {tag}");
        self.launches.push(KernelLaunch {
            kernel: templates::template_index(t),
            tag,
            grid: (blocks as u32, 1, 1),
            args,
            bytes_read,
            bytes_written,
        });
    }

    /// Single-block launch (softmax reductions).
    fn launch_one_block(
        &mut self,
        t: Template,
        tag: String,
        args: Vec<u64>,
        bytes_read: u64,
        bytes_written: u64,
    ) {
        self.launches.push(KernelLaunch {
            kernel: templates::template_index(t),
            tag,
            grid: (1, 1, 1),
            args,
            bytes_read,
            bytes_written,
        });
    }

    /// Explicit-grid launch for the row-per-block transformer kernels
    /// (layernorm, attention softmax): one `ROW_BLOCK`-wide block per row.
    fn launch_rows(
        &mut self,
        t: Template,
        tag: String,
        rows: u64,
        args: Vec<u64>,
        bytes_read: u64,
        bytes_written: u64,
    ) {
        assert!(rows <= u32::MAX as u64, "grid overflow in {tag}");
        self.launches.push(KernelLaunch {
            kernel: templates::template_index(t),
            tag,
            grid: (rows as u32, 1, 1),
            args,
            bytes_read,
            bytes_written,
        });
    }
}

fn act_template(a: ActKind) -> Option<Template> {
    Some(match a {
        ActKind::Relu => Template::ActRelu,
        ActKind::Relu6 => Template::ActRelu6,
        ActKind::Sigmoid => Template::ActSigmoid,
        ActKind::Tanh => Template::ActTanh,
        ActKind::Swish => Template::ActSwish,
        ActKind::HardSwish => Template::ActHardSwish,
        ActKind::Gelu => Template::ActGelu,
        ActKind::Softmax => return None, // handled as a 3-kernel sequence
    })
}

/// GEMM kernel flavor used by the lowering (codegen ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmVariant {
    /// One thread per output element, 16x16 shared tiles.
    #[default]
    Tiled,
    /// One thread per 2x2 output quad, register microtiling.
    Micro2x2,
}

/// Emit a GEMM (`m x k` times `k x n`) with an optional fused bias
/// (`bias != 0`); traffic model: every block stages `2 * BLOCK` elements
/// per K-tile (both variants stage the same volume — the micro variant
/// just covers 4x the output per block).
#[allow(clippy::too_many_arguments)]
fn emit_gemm(
    lo: &mut Lowerer,
    tag: &str,
    a: u64,
    b: u64,
    c_out: u64,
    m: u64,
    n: u64,
    k: u64,
    bias: u64,
) {
    let tiles = k.div_ceil(TILE as u64);
    let has_bias = u64::from(bias != 0);
    let bias_bytes = if bias != 0 { n * 4 } else { 0 };
    match lo.gemm {
        GemmVariant::Tiled => {
            let threads = m * n;
            let blocks = threads.div_ceil(BLOCK as u64);
            lo.launch(
                Template::GemmTiled,
                format!("{tag}.gemm"),
                threads,
                vec![a, b, c_out, m, n, k, tiles, bias, has_bias],
                blocks * tiles * (2 * BLOCK as u64) * 4 + bias_bytes,
                m * n * 4,
            );
        }
        GemmVariant::Micro2x2 => {
            let nq = n.div_ceil(2);
            let threads = m.div_ceil(2) * nq;
            let blocks = threads.div_ceil(BLOCK as u64);
            lo.launch(
                Template::GemmMicro,
                format!("{tag}.gemm"),
                threads,
                vec![a, b, c_out, m, n, k, tiles, nq, threads, bias, has_bias],
                blocks * tiles * (4 * BLOCK as u64) * 4 + bias_bytes,
                m * n * 4,
            );
        }
    }
}

/// Emit the per-channel affine kernel (BN / GN / conv bias).
fn emit_affine(lo: &mut Lowerer, tag: &str, x: u64, out: u64, n: u64, c: u64) {
    let scale = lo.alloc(c);
    let shift = lo.alloc(c);
    lo.launch(
        Template::AffineCh,
        format!("{tag}.affine"),
        n,
        vec![x, scale, shift, out, n, c],
        (n + 2 * c) * 4,
        n * 4,
    );
}

/// Lower a model at batch size 1 (inference latency, as the paper
/// profiles). The `target` names the PTX target architecture written into
/// the module header (e.g. `sm_61`).
pub fn lower(model: &ModelGraph, target: &str) -> Result<LaunchPlan, GraphError> {
    lower_with(model, target, 1, GemmVariant::default())
}

/// Fully parameterized lowering: batch size and GEMM kernel variant. A
/// batch above 1 (throughput experiments; an extension beyond the paper's
/// batch-1 protocol) batches per-sample kernels along the GEMM row
/// dimension / elementwise extent; the softmax reductions are emitted once
/// per sample, as a framework would.
pub fn lower_with(
    model: &ModelGraph,
    target: &str,
    batch: u32,
    gemm: GemmVariant,
) -> Result<LaunchPlan, GraphError> {
    assert!(batch >= 1, "batch must be positive");
    let shapes = model.infer_shapes()?;
    let mut lo = Lowerer::new(target, gemm);
    let batch = batch as u64;

    // device address of every node's output tensor
    let mut addr: Vec<u64> = Vec::with_capacity(model.len());

    for node in model.nodes() {
        let out_shape = shapes[node.id.index()];
        // all buffers and launch extents scale with the batch dimension
        let out_elems = out_shape.elements() * batch;
        let in_shapes: Vec<TensorShape> = node.inputs.iter().map(|i| shapes[i.index()]).collect();
        let in_addrs: Vec<u64> = node.inputs.iter().map(|i| addr[i.index()]).collect();
        let tag = node.name.clone();

        let out_addr = match &node.layer {
            Layer::Input { .. } => lo.alloc(out_elems),

            Layer::Conv2d(c) => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let (kh, kw) = c.kernel;
                let (sh, sw) = c.stride;
                let m = out_shape.h as u64 * out_shape.w as u64 * batch;
                let window = kh as u64 * kw as u64;
                let k_full = window * i.c as u64;

                // 1x1 stride-1 convolutions read the input as the GEMM A
                // matrix directly; everything else goes through im2col.
                let a_matrix = if kh == 1 && kw == 1 && sh == 1 && sw == 1 {
                    x
                } else {
                    let cols = lo.alloc(m * k_full);
                    let total = m * i.c as u64;
                    let pad_t = c.padding.pad_h(i.h, kh, sh) / 2;
                    let pad_l = c.padding.pad_w(i.w, kw, sw) / 2;
                    lo.launch(
                        Template::Im2col,
                        format!("{tag}.im2col"),
                        total,
                        vec![
                            x,
                            cols,
                            total,
                            window,
                            i.c as u64,
                            i.w as u64,
                            out_shape.h as u64,
                            out_shape.w as u64,
                            kw as u64,
                            sh as u64,
                            sw as u64,
                            pad_t as u64,
                            pad_l as u64,
                            i.h as u64,
                        ],
                        total * window * 4,
                        m * k_full * 4,
                    );
                    cols
                };

                // grouped convolution: one GEMM per group over column and
                // output slices; conv bias fuses into the GEMM epilogue
                let g = c.groups as u64;
                let weights = lo.alloc(k_full * c.out_channels as u64);
                let bias = if c.use_bias {
                    lo.alloc(c.out_channels as u64)
                } else {
                    0
                };
                if g == 1 {
                    emit_gemm(
                        &mut lo,
                        &tag,
                        a_matrix,
                        weights,
                        out,
                        m,
                        c.out_channels as u64,
                        k_full,
                        bias,
                    );
                } else {
                    let kg = k_full / g;
                    let ng = c.out_channels as u64 / g;
                    for gi in 0..g {
                        emit_gemm(
                            &mut lo,
                            &format!("{tag}.g{gi}"),
                            a_matrix + gi * kg * 4,
                            weights + gi * kg * ng * 4,
                            out + gi * ng * 4,
                            m,
                            ng,
                            kg,
                            if bias != 0 { bias + gi * ng * 4 } else { 0 },
                        );
                    }
                }
                out
            }

            Layer::DepthwiseConv2d(c) => {
                assert_eq!(
                    c.multiplier, 1,
                    "depthwise multiplier > 1 not lowered (unused by the zoo)"
                );
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let (kh, kw) = c.kernel;
                let (sh, sw) = c.stride;
                let window = kh as u64 * kw as u64;
                let weights = lo.alloc(window * i.c as u64);
                let bias = if c.use_bias {
                    lo.alloc(out_shape.c as u64)
                } else {
                    0
                };
                let pad_t = c.padding.pad_h(i.h, kh, sh) / 2;
                let pad_l = c.padding.pad_w(i.w, kw, sw) / 2;
                lo.launch(
                    Template::Depthwise,
                    format!("{tag}.dw"),
                    out_elems,
                    vec![
                        x,
                        weights,
                        out,
                        out_elems,
                        window,
                        i.c as u64,
                        i.w as u64,
                        out_shape.w as u64,
                        kw as u64,
                        sh as u64,
                        sw as u64,
                        pad_t as u64,
                        pad_l as u64,
                        i.h as u64,
                        bias,
                        u64::from(bias != 0),
                    ],
                    out_elems * window * 2 * 4,
                    out_elems * 4,
                );
                out
            }

            Layer::Dense(d) => {
                let k = in_shapes[0].elements();
                let units = d.units as u64;
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let weights = lo.alloc(units * k);
                let bias = if d.use_bias { lo.alloc(units) } else { 0 };
                if batch == 1 {
                    lo.launch(
                        Template::Gemv,
                        format!("{tag}.gemv"),
                        units,
                        vec![weights, x, out, units, k, bias, u64::from(bias != 0)],
                        (units * k + k) * 4,
                        units * 4,
                    );
                } else {
                    // batched dense = GEMM: [batch, k] x [k, units]
                    emit_gemm(&mut lo, &tag, x, weights, out, batch, units, k, bias);
                }
                out
            }

            Layer::Pool2d(p) => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let (kh, kw) = p.pool;
                let (sh, sw) = p.stride;
                let window = kh as u64 * kw as u64;
                let t = match p.kind {
                    PoolKind::Max => Template::PoolMax,
                    PoolKind::Avg => Template::PoolAvg,
                };
                let pad_t = p.padding.pad_h(i.h, kh, sh) / 2;
                let pad_l = p.padding.pad_w(i.w, kw, sw) / 2;
                let inv = (1.0f32 / window as f32).to_bits() as u64;
                lo.launch(
                    t,
                    format!("{tag}.pool"),
                    out_elems,
                    vec![
                        x,
                        out,
                        out_elems,
                        window,
                        i.c as u64,
                        i.w as u64,
                        out_shape.w as u64,
                        kw as u64,
                        sh as u64,
                        sw as u64,
                        pad_t as u64,
                        pad_l as u64,
                        i.h as u64,
                        inv,
                    ],
                    out_elems * window * 4,
                    out_elems * 4,
                );
                out
            }

            Layer::GlobalPool { kind } => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let hw = i.h as u64 * i.w as u64;
                let c = i.c as u64 * batch;
                let t = match kind {
                    PoolKind::Avg => Template::GapAvg,
                    PoolKind::Max => Template::GapMax,
                };
                let inv = (1.0f32 / hw as f32).to_bits() as u64;
                lo.launch(
                    t,
                    format!("{tag}.gap"),
                    c,
                    vec![x, out, c, hw, inv],
                    c * hw * 4,
                    c * 4,
                );
                out
            }

            Layer::BatchNorm(_) | Layer::GroupNorm { .. } => {
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                emit_affine(&mut lo, &tag, x, out, out_elems, out_shape.c as u64);
                out
            }

            Layer::Activation(a) => {
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                match act_template(*a) {
                    Some(t) => {
                        lo.launch(
                            t,
                            format!("{tag}.act"),
                            out_elems,
                            vec![x, out, out_elems],
                            out_elems * 4,
                            out_elems * 4,
                        );
                    }
                    None => {
                        // softmax: max-reduce, exp+sum, divide (per sample)
                        let n = out_shape.elements();
                        let expv = lo.alloc(n * batch);
                        for s in 0..batch {
                            let off = s * n * 4;
                            let mx = lo.alloc(1);
                            let sum = lo.alloc(1);
                            lo.launch_one_block(
                                Template::SoftmaxMax,
                                format!("{tag}.softmax_max"),
                                vec![x + off, 0, 0, mx, n],
                                n * 4,
                                4,
                            );
                            lo.launch_one_block(
                                Template::SoftmaxExpSum,
                                format!("{tag}.softmax_expsum"),
                                vec![x + off, mx, expv + off, sum, n],
                                n * 4 + 4,
                                n * 4 + 4,
                            );
                            lo.launch(
                                Template::SoftmaxDiv,
                                format!("{tag}.softmax_div"),
                                n,
                                vec![expv + off, sum, out + off, n],
                                n * 4 + 4,
                                n * 4,
                            );
                        }
                    }
                }
                out
            }

            Layer::Add => {
                let out = lo.alloc(out_elems);
                let mut acc = in_addrs[0];
                for (j, &b) in in_addrs[1..].iter().enumerate() {
                    lo.launch(
                        Template::EwAdd,
                        format!("{tag}.add{j}"),
                        out_elems,
                        vec![acc, b, out, out_elems],
                        2 * out_elems * 4,
                        out_elems * 4,
                    );
                    acc = out;
                }
                out
            }

            Layer::Multiply => {
                let out = lo.alloc(out_elems);
                let (a_sh, b_sh) = (in_shapes[0], in_shapes[1]);
                // channel-broadcast gating (SE blocks) vs plain elementwise
                if a_sh == b_sh {
                    lo.launch(
                        Template::EwMul,
                        format!("{tag}.mul"),
                        out_elems,
                        vec![in_addrs[0], in_addrs[1], out, out_elems],
                        2 * out_elems * 4,
                        out_elems * 4,
                    );
                } else {
                    let (full, gate) = if b_sh.is_flat() {
                        (0usize, 1usize)
                    } else {
                        (1, 0)
                    };
                    lo.launch(
                        Template::EwMulBcast,
                        format!("{tag}.se_mul"),
                        out_elems,
                        vec![
                            in_addrs[full],
                            in_addrs[gate],
                            out,
                            out_elems,
                            out_shape.c as u64,
                        ],
                        (out_elems + out_shape.c as u64) * 4,
                        out_elems * 4,
                    );
                }
                out
            }

            Layer::Concat => {
                let out = lo.alloc(out_elems);
                let rows = out_shape.h as u64 * out_shape.w as u64;
                let out_row = out_shape.c as u64;
                let mut ch_off = 0u64;
                for (j, (&x, sh)) in in_addrs.iter().zip(&in_shapes).enumerate() {
                    let n = sh.elements() * batch;
                    let row = sh.c as u64;
                    lo.launch(
                        Template::PadCopy,
                        format!("{tag}.concat{j}"),
                        n,
                        vec![x, out, n, row, out_row, ch_off],
                        n * 4,
                        n * 4,
                    );
                    ch_off += row;
                }
                debug_assert_eq!(rows * out_row, out_elems);
                out
            }

            Layer::ZeroPad {
                top,
                bottom: _,
                left,
                right: _,
            } => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                lo.launch(
                    Template::FillF32,
                    format!("{tag}.fill"),
                    out_elems,
                    vec![out, out_elems, 0],
                    0,
                    out_elems * 4,
                );
                let n = i.elements() * batch;
                let row = i.w as u64 * i.c as u64;
                let out_row = out_shape.w as u64 * out_shape.c as u64;
                let dst_off = *top as u64 * out_row + *left as u64 * i.c as u64;
                lo.launch(
                    Template::PadCopy,
                    format!("{tag}.copy"),
                    n,
                    vec![x, out, n, row, out_row, dst_off],
                    n * 4,
                    n * 4,
                );
                out
            }

            Layer::ChannelShuffle { .. } => {
                // a permuted copy: identical instruction structure to the
                // strided copy kernel (per-element index arithmetic + move)
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let c = out_shape.c as u64;
                lo.launch(
                    Template::PadCopy,
                    format!("{tag}.shuffle"),
                    out_elems,
                    vec![x, out, out_elems, c, c, 0],
                    out_elems * 4,
                    out_elems * 4,
                );
                out
            }

            Layer::LayerNorm => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let d = i.c as u64;
                let rows = i.h as u64 * i.w as u64 * batch;
                let gamma = lo.alloc(d);
                let beta = lo.alloc(d);
                let inv = (1.0f32 / d as f32).to_bits() as u64;
                lo.launch_rows(
                    Template::LayerNorm,
                    format!("{tag}.ln"),
                    rows,
                    vec![x, gamma, beta, out, d, inv],
                    // two strided passes over x plus the affine params
                    2 * out_elems * 4 + 2 * d * 4,
                    out_elems * 4,
                );
                out
            }

            Layer::MultiHeadAttention { heads } => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let out = lo.alloc(out_elems);
                let s_len = i.h as u64 * i.w as u64;
                let d = i.c as u64;
                let hn = *heads as u64;
                let dh = d / hn;
                let m = s_len * batch;

                // fused Q/K/V projections batch along the row dimension
                let q = lo.alloc(out_elems);
                let kbuf = lo.alloc(out_elems);
                let v = lo.alloc(out_elems);
                let ctxb = lo.alloc(out_elems);
                let (wq, bq) = (lo.alloc(d * d), lo.alloc(d));
                let (wk, bk) = (lo.alloc(d * d), lo.alloc(d));
                let (wv, bv) = (lo.alloc(d * d), lo.alloc(d));
                let (wo, bo) = (lo.alloc(d * d), lo.alloc(d));
                emit_gemm(&mut lo, &format!("{tag}.q"), x, wq, q, m, d, d, bq);
                emit_gemm(&mut lo, &format!("{tag}.k"), x, wk, kbuf, m, d, d, bk);
                emit_gemm(&mut lo, &format!("{tag}.v"), x, wv, v, m, d, d, bv);

                // attention core per sample: per-head QK^T scores, one
                // fused row softmax over all heads, per-head attn*V
                let scores = lo.alloc(hn * s_len * s_len * batch);
                for smp in 0..batch {
                    let qo = q + smp * s_len * d * 4;
                    let ko = kbuf + smp * s_len * d * 4;
                    let vo = v + smp * s_len * d * 4;
                    let co = ctxb + smp * s_len * d * 4;
                    let so = scores + smp * hn * s_len * s_len * 4;
                    for head in 0..hn {
                        emit_gemm(
                            &mut lo,
                            &format!("{tag}.h{head}.scores"),
                            qo + head * dh * 4,
                            ko + head * dh * 4,
                            so + head * s_len * s_len * 4,
                            s_len,
                            s_len,
                            dh,
                            0,
                        );
                    }
                    let score_elems = hn * s_len * s_len;
                    lo.launch_rows(
                        Template::AttnSoftmax,
                        format!("{tag}.attn_softmax"),
                        hn * s_len,
                        vec![so, so, s_len],
                        3 * score_elems * 4, // max, exp, normalize passes
                        2 * score_elems * 4, // exp write + in-place scale
                    );
                    for head in 0..hn {
                        emit_gemm(
                            &mut lo,
                            &format!("{tag}.h{head}.ctx"),
                            so + head * s_len * s_len * 4,
                            vo + head * dh * 4,
                            co + head * dh * 4,
                            s_len,
                            dh,
                            s_len,
                            0,
                        );
                    }
                }
                emit_gemm(&mut lo, &format!("{tag}.proj"), ctxb, wo, out, m, d, d, bo);
                out
            }

            Layer::MlpBlock { hidden } => {
                let i = in_shapes[0];
                let x = in_addrs[0];
                let d = i.c as u64;
                let hid = *hidden as u64;
                let m = i.h as u64 * i.w as u64 * batch;
                let (w1, b1) = (lo.alloc(d * hid), lo.alloc(hid));
                let (w2, b2) = (lo.alloc(hid * d), lo.alloc(d));
                let h1 = lo.alloc(m * hid);
                emit_gemm(&mut lo, &format!("{tag}.fc1"), x, w1, h1, m, hid, d, b1);
                let hg = lo.alloc(m * hid);
                lo.launch(
                    Template::ActGelu,
                    format!("{tag}.gelu"),
                    m * hid,
                    vec![h1, hg, m * hid],
                    m * hid * 4,
                    m * hid * 4,
                );
                let proj = lo.alloc(out_elems);
                emit_gemm(&mut lo, &format!("{tag}.fc2"), hg, w2, proj, m, d, hid, b2);
                // the block's internal residual: out = x + W2(gelu(W1 x))
                let out = lo.alloc(out_elems);
                lo.launch(
                    Template::EwAdd,
                    format!("{tag}.residual"),
                    out_elems,
                    vec![x, proj, out, out_elems],
                    2 * out_elems * 4,
                    out_elems * 4,
                );
                out
            }

            // shape-only ops: no kernel, alias the input buffer
            Layer::Flatten | Layer::Dropout { .. } => in_addrs[0],
        };
        addr.push(out_addr);
    }

    Ok(LaunchPlan {
        model_name: model.name().to_string(),
        module: lo.module,
        launches: lo.launches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_ir::{Conv2d, Dense, GraphBuilder, Padding, Pool2d};

    fn tiny() -> ModelGraph {
        let mut b = GraphBuilder::new("tiny", 3);
        let x = b.input(TensorShape::square(8, 3));
        let x = b.layer(Layer::Conv2d(Conv2d::new(4, 3, 1, Padding::Same)), &[x]);
        let x = b.layer(Layer::Activation(ActKind::Relu), &[x]);
        let x = b.layer(Layer::Pool2d(Pool2d::max(2, 2, Padding::Valid)), &[x]);
        let x = b.layer(Layer::Flatten, &[x]);
        let x = b.layer(Layer::Dense(Dense::new(10)), &[x]);
        let x = b.layer(Layer::Activation(ActKind::Softmax), &[x]);
        b.finish(x)
    }

    #[test]
    fn tiny_plan_launch_sequence() {
        let plan = lower(&tiny(), "sm_61").unwrap();
        let tags: Vec<&str> = plan.launches.iter().map(|l| l.tag.as_str()).collect();
        // conv -> im2col + gemm (bias fused); relu; pool; gemv (bias
        // fused); softmax x3
        assert!(tags[0].ends_with(".im2col"), "{tags:?}");
        assert!(tags[1].ends_with(".gemm"));
        assert!(tags[2].ends_with(".act"));
        assert!(tags[3].ends_with(".pool"));
        assert!(tags[4].ends_with(".gemv"));
        assert!(tags[5].ends_with(".softmax_max"));
        assert!(tags[6].ends_with(".softmax_expsum"));
        assert!(tags[7].ends_with(".softmax_div"));
        assert_eq!(plan.launches.len(), 8);
        // the gemm carries a live bias pointer
        let gemm = &plan.launches[1];
        assert_ne!(gemm.args[7], 0, "bias pointer");
        assert_eq!(gemm.args[8], 1, "has_bias flag");
    }

    #[test]
    fn one_by_one_conv_skips_im2col() {
        let mut b = GraphBuilder::new("pw", 1);
        let x = b.input(TensorShape::square(8, 16));
        let x = b.layer(
            Layer::Conv2d(Conv2d::new(32, 1, 1, Padding::Same).no_bias()),
            &[x],
        );
        let g = b.finish(x);
        let plan = lower(&g, "sm_61").unwrap();
        assert_eq!(plan.launches.len(), 1);
        assert!(plan.launches[0].tag.ends_with(".gemm"));
    }

    #[test]
    fn grouped_conv_emits_per_group_gemms() {
        let mut b = GraphBuilder::new("grp", 1);
        let x = b.input(TensorShape::square(8, 16));
        let mut conv = Conv2d::new(32, 3, 1, Padding::Same).no_bias();
        conv.groups = 2;
        let x = b.layer(Layer::Conv2d(conv), &[x]);
        let g = b.finish(x);
        let plan = lower(&g, "sm_61").unwrap();
        let gemms = plan
            .launches
            .iter()
            .filter(|l| l.tag.contains(".g"))
            .count();
        assert_eq!(gemms, 2);
    }

    #[test]
    fn gemm_args_are_consistent() {
        let plan = lower(&tiny(), "sm_61").unwrap();
        let gemm = plan
            .launches
            .iter()
            .find(|l| l.tag.ends_with(".gemm"))
            .unwrap();
        // args: a, b, c_out, m, n, k, tiles
        let (m, n, k, tiles) = (gemm.args[3], gemm.args[4], gemm.args[5], gemm.args[6]);
        assert_eq!(m, 64); // 8x8 output pixels
        assert_eq!(n, 4);
        assert_eq!(k, 27); // 3x3x3
        assert_eq!(tiles, 2);
        let kernel = &plan.module.kernels[gemm.kernel];
        assert_eq!(kernel.name, "k_gemm_tiled_f32");
    }

    #[test]
    fn every_lowering_shares_the_one_template_list() {
        for name in ["alexnet", "mobilenet"] {
            let model = cnn_ir::zoo::build(name).unwrap();
            for target in ["sm_61", "sm_80"] {
                for gemm in [GemmVariant::Tiled, GemmVariant::Micro2x2] {
                    let plan = lower_with(&model, target, 1, gemm).unwrap();
                    assert_eq!(plan.module.target, target);
                    assert!(
                        Arc::ptr_eq(&plan.module.kernels, templates::kernels()),
                        "{name} at {target} ({gemm:?}) owns its kernels"
                    );
                }
            }
        }
    }

    #[test]
    fn launch_plan_for_resnet50_is_substantial() {
        let model = cnn_ir::zoo::build("resnet50").unwrap();
        let plan = lower(&model, "sm_61").unwrap();
        assert!(plan.launches.len() > 150, "{}", plan.launches.len());
        assert!(plan.total_threads() > 10_000_000);
        assert!(plan.total_bytes() > 100_000_000);
    }

    #[test]
    fn every_zoo_model_lowers() {
        for e in cnn_ir::zoo::all() {
            let g = (e.build)();
            let plan = lower(&g, "sm_61").unwrap();
            assert!(!plan.launches.is_empty(), "{} produced no launches", e.name);
            // all kernel indices valid
            for l in &plan.launches {
                assert!(l.kernel < plan.module.kernels.len());
            }
        }
    }

    #[test]
    fn flatten_and_dropout_are_free() {
        let plan = lower(&tiny(), "sm_61").unwrap();
        assert!(!plan.launches.iter().any(|l| l.tag.contains("flatten")));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use cnn_ir::zoo;

    #[test]
    fn batch_scales_threads_roughly_linearly() {
        let model = zoo::build("mobilenet").unwrap();
        let b1 = lower_with(&model, "sm_61", 1, GemmVariant::default()).unwrap();
        let b8 = lower_with(&model, "sm_61", 8, GemmVariant::default()).unwrap();
        let t1 = b1.total_threads();
        let t8 = b8.total_threads();
        assert!(
            t8 > 7 * t1 && t8 < 9 * t1,
            "batch-8 threads {t8} not ~8x batch-1 {t1}"
        );
    }

    #[test]
    fn batch_one_equals_default_lowering() {
        let model = zoo::build("alexnet").unwrap();
        let a = lower(&model, "sm_61").unwrap();
        let b = lower_with(&model, "sm_61", 1, GemmVariant::default()).unwrap();
        assert_eq!(a.launches.len(), b.launches.len());
        assert_eq!(a.total_threads(), b.total_threads());
    }

    #[test]
    fn batched_dense_uses_gemm() {
        let model = zoo::build("vgg16").unwrap();
        let plan = lower_with(&model, "sm_61", 4, GemmVariant::default()).unwrap();
        let dense_launches: Vec<&str> = plan
            .launches
            .iter()
            .filter(|l| l.tag.starts_with("dense"))
            .map(|l| l.tag.as_str())
            .collect();
        assert!(
            dense_launches.iter().any(|t| t.ends_with(".gemm")),
            "batched dense should lower to GEMM: {dense_launches:?}"
        );
        assert!(!dense_launches.iter().any(|t| t.ends_with(".gemv")));
    }

    #[test]
    fn softmax_emitted_per_sample() {
        let model = zoo::build("alexnet").unwrap();
        let plan = lower_with(&model, "sm_61", 3, GemmVariant::default()).unwrap();
        let n = plan
            .launches
            .iter()
            .filter(|l| l.tag.ends_with(".softmax_max"))
            .count();
        assert_eq!(n, 3);
    }
}

#[cfg(test)]
mod gemm_variant_tests {
    use super::*;
    use cnn_ir::zoo;

    #[test]
    fn micro_variant_quarters_gemm_threads() {
        let model = zoo::build("resnet50").unwrap();
        let tiled = lower_with(&model, "sm_61", 1, GemmVariant::Tiled).unwrap();
        let micro = lower_with(&model, "sm_61", 1, GemmVariant::Micro2x2).unwrap();
        let gemm_threads = |plan: &ptx::kernel::LaunchPlan, name: &str| -> u64 {
            plan.launches
                .iter()
                .filter(|l| plan.module.kernels[l.kernel].name == name)
                .map(|l| l.blocks() * 256)
                .sum()
        };
        let t = gemm_threads(&tiled, "k_gemm_tiled_f32");
        let m = gemm_threads(&micro, "k_gemm_micro2x2_f32");
        assert!(t > 0 && m > 0);
        assert!(m * 3 < t, "micro threads {m} should be ~1/4 of tiled {t}");
    }

    #[test]
    fn micro_kernel_counts_and_verifies() {
        let k = Template::GemmMicro.build();
        assert!(ptx::verify::verify_kernel(&k).is_empty());
        // exact count equivalence on an odd-edged GEMM
        let l = KernelLaunch {
            kernel: 0,
            tag: "t".into(),
            grid: (1, 1, 1),
            args: vec![0x1000, 0x2000, 0x3000, 7, 11, 40, 3, 6, 24, 0x9000, 1],
            bytes_read: 0,
            bytes_written: 0,
        };
        let fast = ptx_analysis::count_launch(&k, &l, true).unwrap();
        let brute = ptx_analysis::count_launch_bruteforce(&k, &l).unwrap();
        assert_eq!(fast.thread_instructions, brute.thread_instructions);
        assert_eq!(fast.warp_issues, brute.warp_issues);
    }

    #[test]
    fn micro_variant_reduces_total_instructions() {
        // fewer threads doing denser work: total PTX instructions drop
        let model = zoo::build("mobilenet").unwrap();
        let tiled = lower_with(&model, "sm_61", 1, GemmVariant::Tiled).unwrap();
        let micro = lower_with(&model, "sm_61", 1, GemmVariant::Micro2x2).unwrap();
        let ct = ptx_analysis::count_plan(&tiled, true).unwrap();
        let cm = ptx_analysis::count_plan(&micro, true).unwrap();
        assert!(
            cm.thread_instructions < ct.thread_instructions,
            "micro {} !< tiled {}",
            cm.thread_instructions,
            ct.thread_instructions
        );
    }
}
