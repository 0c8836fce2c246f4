//! PTX kernel templates for CNN inference.
//!
//! Every template is shape-generic: tensor dimensions and loop trip counts
//! arrive as kernel parameters, so one compiled kernel serves every layer of
//! its type (mirroring how cuDNN/XLA reuse kernels across layer shapes).
//!
//! Control-flow discipline: the *only* branches are the global-thread-id
//! bounds guard and counted/strided loop back-edges, both of whose
//! predicates are affine in the thread id or concrete in loop state.
//! Data-dependent selections (padding borders, max pooling) are emitted
//! branchlessly with `selp`/`max`, matching how `nvcc` if-converts such
//! code. This is what makes the paper's slicing-based dynamic code analysis
//! exact on these kernels.
//!
//! The templates are built once per process into one immutable list,
//! [`kernels`], which every lowered module shares.

use ptx::builder::KernelBuilder;
use ptx::inst::{Address, Operand};
use ptx::kernel::Kernel;
use ptx::types::{BinOp, CmpOp, Reg, Space, Type, UnOp};
use std::sync::{Arc, OnceLock};

/// Threads per block for every generated kernel (power of two so the
/// Fig. 2 `shl`/`or` global-id idiom applies).
pub const BLOCK: u32 = 256;

/// GEMM tile edge; blocks of 256 threads compute 16x16 output tiles.
pub const TILE: u32 = 16;

/// Names of all kernel templates, in the order of [`kernels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Template {
    CopyF32,
    FillF32,
    EwAdd,
    EwMul,
    EwMulBcast,
    AffineCh,
    ActRelu,
    ActRelu6,
    ActSigmoid,
    ActTanh,
    ActSwish,
    ActHardSwish,
    ActGelu,
    SoftmaxMax,
    SoftmaxExpSum,
    SoftmaxDiv,
    LayerNorm,
    AttnSoftmax,
    Im2col,
    GemmTiled,
    GemmMicro,
    Gemv,
    Depthwise,
    PoolMax,
    PoolAvg,
    GapAvg,
    GapMax,
    PadCopy,
}

impl Template {
    pub const ALL: [Template; 28] = [
        Template::CopyF32,
        Template::FillF32,
        Template::EwAdd,
        Template::EwMul,
        Template::EwMulBcast,
        Template::AffineCh,
        Template::ActRelu,
        Template::ActRelu6,
        Template::ActSigmoid,
        Template::ActTanh,
        Template::ActSwish,
        Template::ActHardSwish,
        Template::ActGelu,
        Template::SoftmaxMax,
        Template::SoftmaxExpSum,
        Template::SoftmaxDiv,
        Template::LayerNorm,
        Template::AttnSoftmax,
        Template::Im2col,
        Template::GemmTiled,
        Template::GemmMicro,
        Template::Gemv,
        Template::Depthwise,
        Template::PoolMax,
        Template::PoolAvg,
        Template::GapAvg,
        Template::GapMax,
        Template::PadCopy,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Template::CopyF32 => "k_copy_f32",
            Template::FillF32 => "k_fill_f32",
            Template::EwAdd => "k_ew_add_f32",
            Template::EwMul => "k_ew_mul_f32",
            Template::EwMulBcast => "k_ew_mul_bcast_f32",
            Template::AffineCh => "k_affine_ch_f32",
            Template::ActRelu => "k_act_relu_f32",
            Template::ActRelu6 => "k_act_relu6_f32",
            Template::ActSigmoid => "k_act_sigmoid_f32",
            Template::ActTanh => "k_act_tanh_f32",
            Template::ActSwish => "k_act_swish_f32",
            Template::ActHardSwish => "k_act_hswish_f32",
            Template::ActGelu => "k_act_gelu_f32",
            Template::SoftmaxMax => "k_softmax_max_f32",
            Template::SoftmaxExpSum => "k_softmax_expsum_f32",
            Template::SoftmaxDiv => "k_softmax_div_f32",
            Template::LayerNorm => "k_layernorm_f32",
            Template::AttnSoftmax => "k_attn_softmax_f32",
            Template::Im2col => "k_im2col_f32",
            Template::GemmTiled => "k_gemm_tiled_f32",
            Template::GemmMicro => "k_gemm_micro2x2_f32",
            Template::Gemv => "k_gemv_f32",
            Template::Depthwise => "k_depthwise_f32",
            Template::PoolMax => "k_pool_max_f32",
            Template::PoolAvg => "k_pool_avg_f32",
            Template::GapAvg => "k_gap_avg_f32",
            Template::GapMax => "k_gap_max_f32",
            Template::PadCopy => "k_pad_copy_f32",
        }
    }

    /// Build the kernel body for this template.
    pub fn build(&self) -> Kernel {
        match self {
            Template::CopyF32 => copy_f32(),
            Template::FillF32 => fill_f32(),
            Template::EwAdd => ew_binary(BinOp::Add, Template::EwAdd.name()),
            Template::EwMul => ew_binary(BinOp::Mul, Template::EwMul.name()),
            Template::EwMulBcast => ew_mul_bcast(),
            Template::AffineCh => affine_ch(),
            Template::ActRelu => act_kernel(Act::Relu),
            Template::ActRelu6 => act_kernel(Act::Relu6),
            Template::ActSigmoid => act_kernel(Act::Sigmoid),
            Template::ActTanh => act_kernel(Act::Tanh),
            Template::ActSwish => act_kernel(Act::Swish),
            Template::ActHardSwish => act_kernel(Act::HardSwish),
            Template::ActGelu => act_kernel(Act::Gelu),
            Template::SoftmaxMax => softmax_reduce(ReduceKind::Max),
            Template::SoftmaxExpSum => softmax_reduce(ReduceKind::ExpSum),
            Template::SoftmaxDiv => softmax_div(),
            Template::LayerNorm => layernorm(),
            Template::AttnSoftmax => attn_softmax(),
            Template::Im2col => im2col(),
            Template::GemmTiled => gemm_tiled(),
            Template::GemmMicro => gemm_micro(),
            Template::Gemv => gemv(),
            Template::Depthwise => depthwise(),
            Template::PoolMax => pool(true),
            Template::PoolAvg => pool(false),
            Template::GapAvg => gap(false),
            Template::GapMax => gap(true),
            Template::PadCopy => pad_copy(),
        }
    }
}

/// Every template kernel in `Template::ALL` order, built on first use:
/// the one kernel list every lowered module shares.
pub fn kernels() -> &'static Arc<Vec<Kernel>> {
    static KERNELS: OnceLock<Arc<Vec<Kernel>>> = OnceLock::new();
    KERNELS.get_or_init(|| Arc::new(Template::ALL.iter().map(|t| t.build()).collect()))
}

/// Index of a template within [`kernels`].
pub fn template_index(t: Template) -> usize {
    Template::ALL.iter().position(|x| *x == t).expect("in ALL")
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Convert a u32 register holding an element index into a global address
/// `base + 4*idx`, returning the 64-bit address register.
fn elem_addr(kb: &mut KernelBuilder, base: Reg, idx: impl Into<Operand>) -> Reg {
    let off32 = kb.bin_r(BinOp::Shl, Type::B32, idx, Operand::ImmI(2));
    let off64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, off64, off32);
    kb.bin_r(BinOp::Add, Type::U64, base, off64)
}

/// Fused bias epilogue: `acc += has_bias ? bias[idx] : 0`, branchless
/// (the guarded load is predicated, not branched around, so control flow
/// stays affine for the dynamic code analysis).
fn emit_bias_add(kb: &mut KernelBuilder, acc: Reg, bias: Reg, idx: Reg, has_bias: Reg) {
    let p = kb.p();
    kb.setp(CmpOp::Ne, Type::U32, p, has_bias, Operand::ImmI(0));
    let addr = elem_addr(kb, bias, idx);
    let v = kb.f();
    kb.with_guard(p, false, |kb| {
        kb.ld(Space::Global, Type::F32, v, Address::reg(addr));
    });
    let zero = kb.f();
    kb.mov(Type::F32, zero, Operand::ImmF(0.0));
    let vb = kb.f();
    kb.selp(Type::F32, vb, v, zero, p);
    kb.bin(BinOp::Add, Type::F32, acc, acc, vb);
}

/// Standard elementwise prologue: load `n` and pointers, compute gid, guard.
/// Returns `(gid, exit_label)`; the caller must place `exit_label` and `ret`.
struct EwCtx {
    gid: Reg,
    exit: ptx::inst::LabelId,
}

fn ew_prologue(kb: &mut KernelBuilder, n: Reg) -> EwCtx {
    let (gid, exit) = kb.guard_gid(n);
    EwCtx { gid, exit }
}

// ---------------------------------------------------------------------------
// elementwise kernels
// ---------------------------------------------------------------------------

/// `out[i] = in[i]` — vectorized x4 in the style of the paper's Fig. 2:
/// each thread moves four contiguous floats; the guard compares `4*gid` to
/// the element count.
fn copy_f32() -> Kernel {
    let mut kb = KernelBuilder::new(Template::CopyF32.name(), BLOCK);
    let p_in = kb.param("in", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let src = kb.ld_param(&p_in, Type::U64);
    let dst = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let gid = kb.global_id();
    let g4 = kb.bin_r(BinOp::Shl, Type::B32, gid, Operand::ImmI(2));
    let p = kb.p();
    kb.setp(CmpOp::Ge, Type::U32, p, g4, n);
    let exit = kb.label();
    kb.bra_if(p, false, exit);

    let sa = elem_addr(&mut kb, src, g4);
    let da = elem_addr(&mut kb, dst, g4);
    for lane in 0..4u32 {
        // tail lanes are predicated off rather than branched around
        let f = kb.f();
        let off = (lane * 4) as i64;
        let lane_idx = kb.bin_r(BinOp::Add, Type::U32, g4, Operand::ImmI(lane as i64));
        let pin = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, pin, lane_idx, n);
        kb.with_guard(pin, false, |kb| {
            kb.ld(Space::Global, Type::F32, f, Address::reg_off(sa, off));
            kb.st(Space::Global, Type::F32, Address::reg_off(da, off), f);
        });
    }
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// `out[i] = value` (used to zero padded tensors).
fn fill_f32() -> Kernel {
    let mut kb = KernelBuilder::new(Template::FillF32.name(), BLOCK);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let p_bits = kb.param("value_bits", Type::U32);
    let dst = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);
    let bits = kb.ld_param(&p_bits, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let f = kb.f();
    // reinterpret the u32 bit pattern as f32
    kb.cvt(Type::F32, Type::B32, f, bits);
    let da = elem_addr(&mut kb, dst, ctx.gid);
    kb.st(Space::Global, Type::F32, Address::reg(da), f);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

/// `out[i] = a[i] <op> b[i]`.
fn ew_binary(op: BinOp, name: &str) -> Kernel {
    let mut kb = KernelBuilder::new(name, BLOCK);
    let p_a = kb.param("a", Type::U64);
    let p_b = kb.param("b", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let a = kb.ld_param(&p_a, Type::U64);
    let b = kb.ld_param(&p_b, Type::U64);
    let o = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let aa = elem_addr(&mut kb, a, ctx.gid);
    let ba = elem_addr(&mut kb, b, ctx.gid);
    let oa = elem_addr(&mut kb, o, ctx.gid);
    let fa = kb.f();
    let fb = kb.f();
    kb.ld(Space::Global, Type::F32, fa, Address::reg(aa));
    kb.ld(Space::Global, Type::F32, fb, Address::reg(ba));
    let fo = kb.bin_r(op, Type::F32, fa, fb);
    kb.st(Space::Global, Type::F32, Address::reg(oa), fo);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

/// `out[i] = a[i] * gate[i % c]` — squeeze-and-excitation channel gating
/// (HWC layout: channel index is `i % c`).
fn ew_mul_bcast() -> Kernel {
    let mut kb = KernelBuilder::new(Template::EwMulBcast.name(), BLOCK);
    let p_a = kb.param("a", Type::U64);
    let p_g = kb.param("gate", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let p_c = kb.param("c", Type::U32);
    let a = kb.ld_param(&p_a, Type::U64);
    let g = kb.ld_param(&p_g, Type::U64);
    let o = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);
    let c = kb.ld_param(&p_c, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let ch = kb.bin_r(BinOp::Rem, Type::U32, ctx.gid, c);
    let aa = elem_addr(&mut kb, a, ctx.gid);
    let ga = elem_addr(&mut kb, g, ch);
    let oa = elem_addr(&mut kb, o, ctx.gid);
    let fa = kb.f();
    let fg = kb.f();
    kb.ld(Space::Global, Type::F32, fa, Address::reg(aa));
    kb.ld(Space::Global, Type::F32, fg, Address::reg(ga));
    let fo = kb.bin_r(BinOp::Mul, Type::F32, fa, fg);
    kb.st(Space::Global, Type::F32, Address::reg(oa), fo);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

/// `out[i] = x[i] * scale[i % c] + shift[i % c]` — inference batch norm,
/// group norm and convolution bias in one kernel.
fn affine_ch() -> Kernel {
    let mut kb = KernelBuilder::new(Template::AffineCh.name(), BLOCK);
    let p_x = kb.param("x", Type::U64);
    let p_s = kb.param("scale", Type::U64);
    let p_t = kb.param("shift", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let p_c = kb.param("c", Type::U32);
    let x = kb.ld_param(&p_x, Type::U64);
    let s = kb.ld_param(&p_s, Type::U64);
    let t = kb.ld_param(&p_t, Type::U64);
    let o = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);
    let c = kb.ld_param(&p_c, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let ch = kb.bin_r(BinOp::Rem, Type::U32, ctx.gid, c);
    let xa = elem_addr(&mut kb, x, ctx.gid);
    let sa = elem_addr(&mut kb, s, ch);
    let ta = elem_addr(&mut kb, t, ch);
    let oa = elem_addr(&mut kb, o, ctx.gid);
    let fx = kb.f();
    let fs = kb.f();
    let ft = kb.f();
    kb.ld(Space::Global, Type::F32, fx, Address::reg(xa));
    kb.ld(Space::Global, Type::F32, fs, Address::reg(sa));
    kb.ld(Space::Global, Type::F32, ft, Address::reg(ta));
    let fo = kb.f();
    kb.mad(Type::F32, fo, fx, fs, ft);
    kb.st(Space::Global, Type::F32, Address::reg(oa), fo);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

#[derive(Clone, Copy)]
enum Act {
    Relu,
    Relu6,
    Sigmoid,
    Tanh,
    Swish,
    HardSwish,
    Gelu,
}

impl Act {
    fn template(self) -> Template {
        match self {
            Act::Relu => Template::ActRelu,
            Act::Relu6 => Template::ActRelu6,
            Act::Sigmoid => Template::ActSigmoid,
            Act::Tanh => Template::ActTanh,
            Act::Swish => Template::ActSwish,
            Act::HardSwish => Template::ActHardSwish,
            Act::Gelu => Template::ActGelu,
        }
    }
}

/// `sigmoid(x) = 1 / (1 + 2^(-x * log2(e)))` in SFU-friendly ops.
fn emit_sigmoid(kb: &mut KernelBuilder, x: Reg) -> Reg {
    const NEG_LOG2_E: f32 = -std::f32::consts::LOG2_E;
    let scaled = kb.bin_r(BinOp::Mul, Type::F32, x, Operand::ImmF(NEG_LOG2_E));
    let e = kb.f();
    kb.un(UnOp::Ex2, Type::F32, e, scaled);
    let d = kb.bin_r(BinOp::Add, Type::F32, e, Operand::ImmF(1.0));
    let r = kb.f();
    kb.un(UnOp::Rcp, Type::F32, r, d);
    r
}

/// `tanh(x) = 2*sigmoid(2x) - 1`, reusing the SFU sigmoid.
fn emit_tanh(kb: &mut KernelBuilder, x: Reg) -> Reg {
    let x2 = kb.bin_r(BinOp::Mul, Type::F32, x, Operand::ImmF(2.0));
    let s = emit_sigmoid(kb, x2);
    let s2 = kb.bin_r(BinOp::Mul, Type::F32, s, Operand::ImmF(2.0));
    kb.bin_r(BinOp::Add, Type::F32, s2, Operand::ImmF(-1.0))
}

fn emit_act(kb: &mut KernelBuilder, a: Act, x: Reg) -> Reg {
    match a {
        Act::Relu => kb.bin_r(BinOp::Max, Type::F32, x, Operand::ImmF(0.0)),
        Act::Relu6 => {
            let lo = kb.bin_r(BinOp::Max, Type::F32, x, Operand::ImmF(0.0));
            kb.bin_r(BinOp::Min, Type::F32, lo, Operand::ImmF(6.0))
        }
        Act::Sigmoid => emit_sigmoid(kb, x),
        Act::Tanh => emit_tanh(kb, x),
        Act::Gelu => {
            // tanh approximation:
            // 0.5x(1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
            let x2 = kb.bin_r(BinOp::Mul, Type::F32, x, x);
            let x3 = kb.bin_r(BinOp::Mul, Type::F32, x2, x);
            let inner = kb.f();
            kb.mad(Type::F32, inner, x3, Operand::ImmF(0.044715), x);
            let arg = kb.bin_r(
                BinOp::Mul,
                Type::F32,
                inner,
                Operand::ImmF(0.797_884_6), // sqrt(2/pi)
            );
            let th = emit_tanh(kb, arg);
            let one_p = kb.bin_r(BinOp::Add, Type::F32, th, Operand::ImmF(1.0));
            let xh = kb.bin_r(BinOp::Mul, Type::F32, x, one_p);
            kb.bin_r(BinOp::Mul, Type::F32, xh, Operand::ImmF(0.5))
        }
        Act::Swish => {
            let s = emit_sigmoid(kb, x);
            kb.bin_r(BinOp::Mul, Type::F32, x, s)
        }
        Act::HardSwish => {
            let t = kb.bin_r(BinOp::Add, Type::F32, x, Operand::ImmF(3.0));
            let t = kb.bin_r(BinOp::Max, Type::F32, t, Operand::ImmF(0.0));
            let t = kb.bin_r(BinOp::Min, Type::F32, t, Operand::ImmF(6.0));
            let t = kb.bin_r(BinOp::Mul, Type::F32, x, t);
            kb.bin_r(BinOp::Mul, Type::F32, t, Operand::ImmF(1.0 / 6.0))
        }
    }
}

fn act_kernel(a: Act) -> Kernel {
    let mut kb = KernelBuilder::new(a.template().name(), BLOCK);
    let p_x = kb.param("x", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let x = kb.ld_param(&p_x, Type::U64);
    let o = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let xa = elem_addr(&mut kb, x, ctx.gid);
    let oa = elem_addr(&mut kb, o, ctx.gid);
    let fx = kb.f();
    kb.ld(Space::Global, Type::F32, fx, Address::reg(xa));
    let fo = emit_act(&mut kb, a, fx);
    kb.st(Space::Global, Type::F32, Address::reg(oa), fo);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

// ---------------------------------------------------------------------------
// softmax (single-block strided reductions)
// ---------------------------------------------------------------------------

enum ReduceKind {
    Max,
    ExpSum,
}

/// Single-block reduction over `n` elements: a strided accumulation loop
/// followed by a log2(BLOCK) shared-memory tree with barriers. `ExpSum`
/// additionally writes `exp(x - mx)` to `out` during the strided pass.
fn softmax_reduce(kind: ReduceKind) -> Kernel {
    let name = match kind {
        ReduceKind::Max => Template::SoftmaxMax.name(),
        ReduceKind::ExpSum => Template::SoftmaxExpSum.name(),
    };
    let mut kb = KernelBuilder::new(name, BLOCK);
    let p_x = kb.param("x", Type::U64);
    let p_aux = kb.param("aux", Type::U64); // Max: unused; ExpSum: the max
    let p_out = kb.param("out", Type::U64); // Max: result cell; ExpSum: exp vector
    let p_res = kb.param("result", Type::U64); // reduction result cell
    let p_n = kb.param("n", Type::U32);
    let x = kb.ld_param(&p_x, Type::U64);
    let aux = kb.ld_param(&p_aux, Type::U64);
    let out = kb.ld_param(&p_out, Type::U64);
    let res = kb.ld_param(&p_res, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let smem_off = kb.shared(BLOCK * 4);
    let tid = kb.special(ptx::types::SpecialReg::TidX);

    // accumulator init
    let acc = kb.f();
    match kind {
        ReduceKind::Max => kb.mov(Type::F32, acc, Operand::ImmF(f32::MIN)),
        ReduceKind::ExpSum => kb.mov(Type::F32, acc, Operand::ImmF(0.0)),
    }
    let mx = kb.f();
    if matches!(kind, ReduceKind::ExpSum) {
        kb.ld(Space::Global, Type::F32, mx, Address::reg(aux));
    }

    // strided loop: for (i = tid; i < n; i += BLOCK)
    let i = kb.r();
    kb.mov(Type::U32, i, tid);
    let p_enter = kb.p();
    kb.setp(CmpOp::Ge, Type::U32, p_enter, i, n);
    let after_loop = kb.label();
    kb.bra_if(p_enter, false, after_loop);
    let head = kb.label();
    kb.place_label(head);
    {
        let a = elem_addr(&mut kb, x, i);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(a));
        match kind {
            ReduceKind::Max => {
                kb.bin(BinOp::Max, Type::F32, acc, acc, v);
            }
            ReduceKind::ExpSum => {
                let d = kb.bin_r(BinOp::Sub, Type::F32, v, mx);
                let sc = kb.bin_r(
                    BinOp::Mul,
                    Type::F32,
                    d,
                    Operand::ImmF(std::f32::consts::LOG2_E),
                );
                let e = kb.f();
                kb.un(UnOp::Ex2, Type::F32, e, sc);
                let oa = elem_addr(&mut kb, out, i);
                kb.st(Space::Global, Type::F32, Address::reg(oa), e);
                kb.bin(BinOp::Add, Type::F32, acc, acc, e);
            }
        }
        kb.bin(BinOp::Add, Type::U32, i, i, Operand::ImmI(BLOCK as i64));
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, i, n);
        kb.bra_if(p, false, head);
    }
    kb.place_label(after_loop);

    // shared-memory tree reduction
    let saddr = kb.bin_r(BinOp::Shl, Type::B32, tid, Operand::ImmI(2));
    let saddr = kb.bin_r(BinOp::Add, Type::U32, saddr, Operand::ImmI(smem_off as i64));
    // store via a 64-bit shared address register
    let saddr64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, saddr64, saddr);
    kb.st(Space::Shared, Type::F32, Address::reg(saddr64), acc);
    kb.bar();
    let mut stride = BLOCK / 2;
    while stride > 0 {
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, tid, Operand::ImmI(stride as i64));
        let skip = kb.label();
        kb.bra_if(p, true, skip);
        {
            let other = kb.f();
            let mine = kb.f();
            kb.ld(
                Space::Shared,
                Type::F32,
                other,
                Address::reg_off(saddr64, (stride * 4) as i64),
            );
            kb.ld(Space::Shared, Type::F32, mine, Address::reg(saddr64));
            let combined = match kind {
                ReduceKind::Max => kb.bin_r(BinOp::Max, Type::F32, mine, other),
                ReduceKind::ExpSum => kb.bin_r(BinOp::Add, Type::F32, mine, other),
            };
            kb.st(Space::Shared, Type::F32, Address::reg(saddr64), combined);
        }
        kb.place_label(skip);
        kb.bar();
        stride /= 2;
    }
    // thread 0 writes the result
    let p0 = kb.p();
    kb.setp(CmpOp::Eq, Type::U32, p0, tid, Operand::ImmI(0));
    let done = kb.label();
    kb.bra_if(p0, true, done);
    {
        let r = kb.f();
        kb.ld(Space::Shared, Type::F32, r, Address::reg(saddr64));
        kb.st(Space::Global, Type::F32, Address::reg(res), r);
    }
    kb.place_label(done);
    kb.ret();
    kb.finish()
}

/// `out[i] = exp_vec[i] / sum` — the final softmax normalization.
fn softmax_div() -> Kernel {
    let mut kb = KernelBuilder::new(Template::SoftmaxDiv.name(), BLOCK);
    let p_e = kb.param("exp_vec", Type::U64);
    let p_sum = kb.param("sum", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let e = kb.ld_param(&p_e, Type::U64);
    let sum = kb.ld_param(&p_sum, Type::U64);
    let o = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let ctx = ew_prologue(&mut kb, n);
    let fs = kb.f();
    kb.ld(Space::Global, Type::F32, fs, Address::reg(sum));
    let inv = kb.f();
    kb.un(UnOp::Rcp, Type::F32, inv, fs);
    let ea = elem_addr(&mut kb, e, ctx.gid);
    let oa = elem_addr(&mut kb, o, ctx.gid);
    let fe = kb.f();
    kb.ld(Space::Global, Type::F32, fe, Address::reg(ea));
    let fo = kb.bin_r(BinOp::Mul, Type::F32, fe, inv);
    kb.st(Space::Global, Type::F32, Address::reg(oa), fo);
    kb.place_label(ctx.exit);
    kb.ret();
    kb.finish()
}

// ---------------------------------------------------------------------------
// transformer row kernels (one block per sequence row)
// ---------------------------------------------------------------------------

/// Threads per block for the row-wise transformer kernels. Narrower than
/// [`BLOCK`]: rows are `d_model`/`seq_len` long (tens to hundreds of
/// elements), and a 64-wide tree keeps the barrier phases short.
pub const ROW_BLOCK: u32 = 64;

/// Emit `for (i = tid; i < n; i += ROW_BLOCK) body(i)` — the strided
/// row-walk shared by the layernorm and attention-softmax kernels (and
/// the pattern the poly counting tier compiles via sloped loop guards).
fn strided_row_loop(
    kb: &mut KernelBuilder,
    tid: Reg,
    n: Reg,
    body: impl FnOnce(&mut KernelBuilder, Reg),
) {
    let i = kb.r();
    kb.mov(Type::U32, i, tid);
    let p_enter = kb.p();
    kb.setp(CmpOp::Ge, Type::U32, p_enter, i, n);
    let after = kb.label();
    kb.bra_if(p_enter, false, after);
    let head = kb.label();
    kb.place_label(head);
    body(kb, i);
    kb.bin(BinOp::Add, Type::U32, i, i, Operand::ImmI(ROW_BLOCK as i64));
    let p = kb.p();
    kb.setp(CmpOp::Lt, Type::U32, p, i, n);
    kb.bra_if(p, false, head);
    kb.place_label(after);
}

/// Shared-memory tree reduction over `ROW_BLOCK` lanes starting at this
/// lane's slot address; `combine` folds the partner lane into this lane's
/// value. Afterwards lane slot 0 holds the reduction.
///
/// Unlike the [`softmax_reduce`] tree this one is **branchless**: the
/// active-lane check predicates the loads/store instead of branching
/// around them, so control flow stays uniform. (A branch per phase would
/// also make the poly compiler's path count exponential in tree depth —
/// two trees of six phases each blow its node budget.)
fn row_tree_reduce(
    kb: &mut KernelBuilder,
    tid: Reg,
    saddr64: Reg,
    combine: impl Fn(&mut KernelBuilder, Reg, Reg) -> Reg,
) {
    let mut stride = ROW_BLOCK / 2;
    while stride > 0 {
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, tid, Operand::ImmI(stride as i64));
        let other = kb.f();
        let mine = kb.f();
        kb.with_guard(p, false, |kb| {
            kb.ld(
                Space::Shared,
                Type::F32,
                other,
                Address::reg_off(saddr64, (stride * 4) as i64),
            );
            kb.ld(Space::Shared, Type::F32, mine, Address::reg(saddr64));
        });
        let combined = combine(kb, mine, other);
        kb.with_guard(p, false, |kb| {
            kb.st(Space::Shared, Type::F32, Address::reg(saddr64), combined);
        });
        kb.bar();
        stride /= 2;
    }
}

/// This lane's shared slot address (`smem_off + 4*tid`) as a 64-bit reg.
fn row_shared_slot(kb: &mut KernelBuilder, tid: Reg, smem_off: u32) -> Reg {
    let saddr = kb.bin_r(BinOp::Shl, Type::B32, tid, Operand::ImmI(2));
    let saddr = kb.bin_r(BinOp::Add, Type::U32, saddr, Operand::ImmI(smem_off as i64));
    let saddr64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, saddr64, saddr);
    saddr64
}

/// 64-bit address of a shared segment's first slot.
fn shared_base_addr(kb: &mut KernelBuilder, smem_off: u32) -> Reg {
    let r = kb.r();
    kb.mov(Type::U32, r, Operand::ImmI(smem_off as i64));
    let r64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, r64, r);
    r64
}

/// Row-wise layer normalization: one block per sequence row. Three
/// phases over the `n`-element row: a strided sum/sum-of-squares pass
/// with two shared-memory trees, then a strided normalize+affine pass
/// `out = (x - mean) * rsqrt(var + eps) * gamma + beta`.
/// Params: `x, gamma, beta, out, n(=d_model), inv_n_bits(=f32 bits of 1/n)`;
/// grid = seq rows.
fn layernorm() -> Kernel {
    let mut kb = KernelBuilder::new(Template::LayerNorm.name(), ROW_BLOCK);
    let p_x = kb.param("x", Type::U64);
    let p_g = kb.param("gamma", Type::U64);
    let p_b = kb.param("beta", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let p_inv = kb.param("inv_n_bits", Type::U32);
    let x = kb.ld_param(&p_x, Type::U64);
    let g = kb.ld_param(&p_g, Type::U64);
    let bta = kb.ld_param(&p_b, Type::U64);
    let out = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);
    let inv_bits = kb.ld_param(&p_inv, Type::U32);

    let smem_sum = kb.shared(ROW_BLOCK * 4);
    let smem_sq = kb.shared(ROW_BLOCK * 4);
    let tid = kb.special(ptx::types::SpecialReg::TidX);
    let row = kb.special(ptx::types::SpecialReg::CtaIdX);
    // row base element index = row * n
    let base = kb.bin_r(BinOp::Mul, Type::U32, row, n);

    let inv_n = kb.f();
    kb.cvt(Type::F32, Type::B32, inv_n, inv_bits); // reinterpret bits

    // phase 1: strided partial sum and sum-of-squares
    let acc = kb.f();
    kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    let accsq = kb.f();
    kb.mov(Type::F32, accsq, Operand::ImmF(0.0));
    strided_row_loop(&mut kb, tid, n, |kb, i| {
        let idx = kb.bin_r(BinOp::Add, Type::U32, base, i);
        let a = elem_addr(kb, x, idx);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(a));
        kb.bin(BinOp::Add, Type::F32, acc, acc, v);
        kb.mad(Type::F32, accsq, v, v, accsq);
    });

    let ssum = row_shared_slot(&mut kb, tid, smem_sum);
    let ssq = row_shared_slot(&mut kb, tid, smem_sq);
    kb.st(Space::Shared, Type::F32, Address::reg(ssum), acc);
    kb.st(Space::Shared, Type::F32, Address::reg(ssq), accsq);
    kb.bar();
    row_tree_reduce(&mut kb, tid, ssum, |kb, mine, other| {
        kb.bin_r(BinOp::Add, Type::F32, mine, other)
    });
    row_tree_reduce(&mut kb, tid, ssq, |kb, mine, other| {
        kb.bin_r(BinOp::Add, Type::F32, mine, other)
    });

    // every lane reads the reduced slot-0 values from the segment bases
    let sum0 = kb.f();
    let sq0 = kb.f();
    let base_sum64 = shared_base_addr(&mut kb, smem_sum);
    kb.ld(Space::Shared, Type::F32, sum0, Address::reg(base_sum64));
    let base_sq64 = shared_base_addr(&mut kb, smem_sq);
    kb.ld(Space::Shared, Type::F32, sq0, Address::reg(base_sq64));

    // mean = sum/n, var = sumsq/n - mean^2, rstd = rsqrt(var + eps)
    let mean = kb.bin_r(BinOp::Mul, Type::F32, sum0, inv_n);
    let ex2m = kb.bin_r(BinOp::Mul, Type::F32, sq0, inv_n);
    let m2 = kb.bin_r(BinOp::Mul, Type::F32, mean, mean);
    let var = kb.bin_r(BinOp::Sub, Type::F32, ex2m, m2);
    let vare = kb.bin_r(BinOp::Add, Type::F32, var, Operand::ImmF(1e-5));
    let std = kb.f();
    kb.un(UnOp::Sqrt, Type::F32, std, vare);
    let rstd = kb.f();
    kb.un(UnOp::Rcp, Type::F32, rstd, std);

    // phase 2: strided normalize + affine
    strided_row_loop(&mut kb, tid, n, |kb, i| {
        let idx = kb.bin_r(BinOp::Add, Type::U32, base, i);
        let xa = elem_addr(kb, x, idx);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(xa));
        let centered = kb.bin_r(BinOp::Sub, Type::F32, v, mean);
        let scaled = kb.bin_r(BinOp::Mul, Type::F32, centered, rstd);
        let ga = elem_addr(kb, g, i);
        let ba = elem_addr(kb, bta, i);
        let gamma = kb.f();
        let beta = kb.f();
        kb.ld(Space::Global, Type::F32, gamma, Address::reg(ga));
        kb.ld(Space::Global, Type::F32, beta, Address::reg(ba));
        let y = kb.f();
        kb.mad(Type::F32, y, scaled, gamma, beta);
        let oa = elem_addr(kb, out, idx);
        kb.st(Space::Global, Type::F32, Address::reg(oa), y);
    });
    kb.ret();
    kb.finish()
}

/// Row-wise softmax for attention score matrices: one block per row,
/// fused max / exp-sum / normalize phases (the three separate kernels of
/// the per-sample [`softmax_div`] pipeline collapse into one launch per
/// row since attention needs `heads * seq_len` of them).
/// Params: `x, out, n(=row length = seq_len)`; grid = `heads * seq_len`.
fn attn_softmax() -> Kernel {
    let mut kb = KernelBuilder::new(Template::AttnSoftmax.name(), ROW_BLOCK);
    let p_x = kb.param("x", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let x = kb.ld_param(&p_x, Type::U64);
    let out = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);

    let smem = kb.shared(ROW_BLOCK * 4);
    let tid = kb.special(ptx::types::SpecialReg::TidX);
    let row = kb.special(ptx::types::SpecialReg::CtaIdX);
    let base = kb.bin_r(BinOp::Mul, Type::U32, row, n);

    // phase 1: strided max
    let mx = kb.f();
    kb.mov(Type::F32, mx, Operand::ImmF(f32::MIN));
    strided_row_loop(&mut kb, tid, n, |kb, i| {
        let idx = kb.bin_r(BinOp::Add, Type::U32, base, i);
        let a = elem_addr(kb, x, idx);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(a));
        kb.bin(BinOp::Max, Type::F32, mx, mx, v);
    });
    let slot = row_shared_slot(&mut kb, tid, smem);
    kb.st(Space::Shared, Type::F32, Address::reg(slot), mx);
    kb.bar();
    row_tree_reduce(&mut kb, tid, slot, |kb, mine, other| {
        kb.bin_r(BinOp::Max, Type::F32, mine, other)
    });
    let base_s64 = shared_base_addr(&mut kb, smem);
    let rowmax = kb.f();
    kb.ld(Space::Shared, Type::F32, rowmax, Address::reg(base_s64));
    kb.bar();

    // phase 2: strided exp and partial sum, exp written to out
    let acc = kb.f();
    kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    strided_row_loop(&mut kb, tid, n, |kb, i| {
        let idx = kb.bin_r(BinOp::Add, Type::U32, base, i);
        let a = elem_addr(kb, x, idx);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(a));
        let d = kb.bin_r(BinOp::Sub, Type::F32, v, rowmax);
        let sc = kb.bin_r(
            BinOp::Mul,
            Type::F32,
            d,
            Operand::ImmF(std::f32::consts::LOG2_E),
        );
        let e = kb.f();
        kb.un(UnOp::Ex2, Type::F32, e, sc);
        let oa = elem_addr(kb, out, idx);
        kb.st(Space::Global, Type::F32, Address::reg(oa), e);
        kb.bin(BinOp::Add, Type::F32, acc, acc, e);
    });
    kb.st(Space::Shared, Type::F32, Address::reg(slot), acc);
    kb.bar();
    row_tree_reduce(&mut kb, tid, slot, |kb, mine, other| {
        kb.bin_r(BinOp::Add, Type::F32, mine, other)
    });
    let rowsum = kb.f();
    kb.ld(Space::Shared, Type::F32, rowsum, Address::reg(base_s64));
    let inv = kb.f();
    kb.un(UnOp::Rcp, Type::F32, inv, rowsum);

    // phase 3: strided normalize in place
    strided_row_loop(&mut kb, tid, n, |kb, i| {
        let idx = kb.bin_r(BinOp::Add, Type::U32, base, i);
        let oa = elem_addr(kb, out, idx);
        let e = kb.f();
        kb.ld(Space::Global, Type::F32, e, Address::reg(oa));
        let y = kb.bin_r(BinOp::Mul, Type::F32, e, inv);
        kb.st(Space::Global, Type::F32, Address::reg(oa), y);
    });
    kb.ret();
    kb.finish()
}

// ---------------------------------------------------------------------------
// convolution lowering kernels
// ---------------------------------------------------------------------------

/// im2col: one thread per (output pixel, input channel); loops over the
/// `kh*kw` window writing the patch column. Border handling is branchless:
/// out-of-range taps load from a clamped address and a `selp` substitutes
/// zero.
///
/// Params: `in, out, total(=oh*ow*c), window(=kh*kw), c, w(in width), oh,
/// ow, kw, sh, sw, pad_t, pad_l, h(in height)`.
fn im2col() -> Kernel {
    let mut kb = KernelBuilder::new(Template::Im2col.name(), BLOCK);
    let names: Vec<String> = [
        ("in", Type::U64),
        ("out", Type::U64),
        ("total", Type::U32),
        ("window", Type::U32),
        ("c", Type::U32),
        ("w", Type::U32),
        ("oh", Type::U32),
        ("ow", Type::U32),
        ("kw", Type::U32),
        ("sh", Type::U32),
        ("sw", Type::U32),
        ("pad_t", Type::U32),
        ("pad_l", Type::U32),
        ("h", Type::U32),
    ]
    .iter()
    .map(|(n, t)| kb.param(n, *t))
    .collect();
    let src = kb.ld_param(&names[0], Type::U64);
    let dst = kb.ld_param(&names[1], Type::U64);
    let total = kb.ld_param(&names[2], Type::U32);
    let window = kb.ld_param(&names[3], Type::U32);
    let c = kb.ld_param(&names[4], Type::U32);
    let w = kb.ld_param(&names[5], Type::U32);
    let _oh = kb.ld_param(&names[6], Type::U32);
    let ow = kb.ld_param(&names[7], Type::U32);
    let kw = kb.ld_param(&names[8], Type::U32);
    let sh = kb.ld_param(&names[9], Type::U32);
    let sw = kb.ld_param(&names[10], Type::U32);
    let pad_t = kb.ld_param(&names[11], Type::U32);
    let pad_l = kb.ld_param(&names[12], Type::U32);
    let h = kb.ld_param(&names[13], Type::U32);

    let (gid, exit) = kb.guard_gid(total);
    // decompose gid -> (pixel, channel); HWC: ch = gid % c, pix = gid / c
    let ch = kb.bin_r(BinOp::Rem, Type::U32, gid, c);
    let pix = kb.bin_r(BinOp::Div, Type::U32, gid, c);
    let oy = kb.bin_r(BinOp::Div, Type::U32, pix, ow);
    let ox = kb.bin_r(BinOp::Rem, Type::U32, pix, ow);
    // top-left input coordinate (may be "negative": computed as unsigned,
    // border selp masks out-of-range taps)
    let iy0 = kb.bin_r(BinOp::Mul, Type::U32, oy, sh);
    let iy0 = kb.bin_r(BinOp::Sub, Type::U32, iy0, pad_t);
    let ix0 = kb.bin_r(BinOp::Mul, Type::U32, ox, sw);
    let ix0 = kb.bin_r(BinOp::Sub, Type::U32, ix0, pad_l);

    kb.counted_loop(window, |kb, t| {
        let dy = kb.bin_r(BinOp::Div, Type::U32, t, kw);
        let dx = kb.bin_r(BinOp::Rem, Type::U32, t, kw);
        let iy = kb.bin_r(BinOp::Add, Type::U32, iy0, dy);
        let ix = kb.bin_r(BinOp::Add, Type::U32, ix0, dx);
        // in-range test (unsigned wraparound makes "negative" huge)
        let py = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, py, iy, h);
        let px = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, px, ix, w);
        // linear input index (iy*w + ix)*c + ch
        let lin = kb.r();
        kb.mad(Type::S32, lin, iy, w, ix);
        let lin2 = kb.r();
        kb.mad(Type::S32, lin2, lin, c, ch);
        let sa = elem_addr(kb, src, lin2);
        let v = kb.f();
        // guarded load + selp-zero for borders (branchless)
        kb.with_guard(py, false, |kb| {
            kb.ld(Space::Global, Type::F32, v, Address::reg(sa));
        });
        let zero = kb.f();
        kb.mov(Type::F32, zero, Operand::ImmF(0.0));
        let vy = kb.f();
        kb.selp(Type::F32, vy, v, zero, py);
        let vx = kb.f();
        kb.selp(Type::F32, vx, vy, zero, px);
        // output index: (pix*window + t)*c + ch  (column-major patch layout)
        let orow = kb.r();
        kb.mad(Type::S32, orow, pix, window, t);
        let oidx = kb.r();
        kb.mad(Type::S32, oidx, orow, c, ch);
        let da = elem_addr(kb, dst, oidx);
        kb.st(Space::Global, Type::F32, Address::reg(da), vx);
    });
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Shared-memory tiled GEMM: `C[m,n] = A[m,k] x B[k,n]`, with an optional
/// fused bias epilogue (`c[i,j] += bias[j]` when `has_bias != 0`) — the way
/// cuDNN applies convolution bias, saving a whole elementwise pass.
/// One thread per C element (flattened 1D grid); 16x16 tiles staged through
/// shared memory with two barriers per tile.
///
/// Params: `a, b, c_out, m, n, k, tiles(=ceil(k/16)), bias, has_bias`.
fn gemm_tiled() -> Kernel {
    let mut kb = KernelBuilder::new(Template::GemmTiled.name(), BLOCK);
    let p_a = kb.param("a", Type::U64);
    let p_b = kb.param("b", Type::U64);
    let p_c = kb.param("c_out", Type::U64);
    let p_m = kb.param("m", Type::U32);
    let p_n = kb.param("n", Type::U32);
    let p_k = kb.param("k", Type::U32);
    let p_tiles = kb.param("tiles", Type::U32);
    let p_bias = kb.param("bias", Type::U64);
    let p_hb = kb.param("has_bias", Type::U32);
    let a = kb.ld_param(&p_a, Type::U64);
    let b = kb.ld_param(&p_b, Type::U64);
    let co = kb.ld_param(&p_c, Type::U64);
    let m = kb.ld_param(&p_m, Type::U32);
    let n = kb.ld_param(&p_n, Type::U32);
    let k = kb.ld_param(&p_k, Type::U32);
    let tiles = kb.ld_param(&p_tiles, Type::U32);
    let bias = kb.ld_param(&p_bias, Type::U64);
    let has_bias = kb.ld_param(&p_hb, Type::U32);

    let smem_a = kb.shared(TILE * TILE * 4);
    let smem_b = kb.shared(TILE * TILE * 4);

    // guard: gid < m*n
    let total = kb.bin_r(BinOp::Mul, Type::U32, m, n);
    let (gid, exit) = kb.guard_gid(total);
    let row = kb.bin_r(BinOp::Div, Type::U32, gid, n);
    let col = kb.bin_r(BinOp::Rem, Type::U32, gid, n);
    let tid = kb.special(ptx::types::SpecialReg::TidX);
    let trow = kb.bin_r(BinOp::Shr, Type::B32, tid, Operand::ImmI(4));
    let tcol = kb.bin_r(BinOp::And, Type::B32, tid, Operand::ImmI(15));

    let acc = kb.f();
    kb.mov(Type::F32, acc, Operand::ImmF(0.0));

    // shared addresses for this thread's staging slot
    let slot = kb.bin_r(BinOp::Shl, Type::B32, tid, Operand::ImmI(2));
    let sa_addr = kb.bin_r(BinOp::Add, Type::U32, slot, Operand::ImmI(smem_a as i64));
    let sa64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, sa64, sa_addr);
    let sb_addr = kb.bin_r(BinOp::Add, Type::U32, slot, Operand::ImmI(smem_b as i64));
    let sb64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, sb64, sb_addr);

    kb.counted_loop(tiles, |kb, t| {
        // cooperative staging: this thread loads A[row, t*16+tcol] and
        // B[t*16+trow, col] (clamped via selp-free modular wrap — counts are
        // what matter; addresses are opaque to the analysis)
        let kbase = kb.bin_r(BinOp::Shl, Type::B32, t, Operand::ImmI(4));
        let ka = kb.bin_r(BinOp::Add, Type::U32, kbase, tcol);
        let a_idx = kb.r();
        kb.mad(Type::S32, a_idx, row, k, ka);
        let a_addr = elem_addr(kb, a, a_idx);
        let va = kb.f();
        kb.ld(Space::Global, Type::F32, va, Address::reg(a_addr));
        kb.st(Space::Shared, Type::F32, Address::reg(sa64), va);

        let kb_row = kb.bin_r(BinOp::Add, Type::U32, kbase, trow);
        let b_idx = kb.r();
        kb.mad(Type::S32, b_idx, kb_row, n, col);
        let b_addr = elem_addr(kb, b, b_idx);
        let vb = kb.f();
        kb.ld(Space::Global, Type::F32, vb, Address::reg(b_addr));
        kb.st(Space::Shared, Type::F32, Address::reg(sb64), vb);
        kb.bar();

        // inner product over the 16-wide tile, fully unrolled
        for i in 0..TILE {
            let fa = kb.f();
            let fb = kb.f();
            kb.ld(
                Space::Shared,
                Type::F32,
                fa,
                Address::reg_off(sa64, (i * 4) as i64),
            );
            kb.ld(
                Space::Shared,
                Type::F32,
                fb,
                Address::reg_off(sb64, (i * 4) as i64),
            );
            kb.mad(Type::F32, acc, fa, fb, acc);
        }
        kb.bar();
    });

    // fused bias epilogue
    emit_bias_add(&mut kb, acc, bias, col, has_bias);
    let c_idx = kb.r();
    kb.mad(Type::S32, c_idx, row, n, col);
    let c_addr = elem_addr(&mut kb, co, c_idx);
    kb.st(Space::Global, Type::F32, Address::reg(c_addr), acc);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Register-microtiled GEMM: each thread computes a 2x2 block of C, so one
/// shared-memory load pair feeds two FMAs — double the arithmetic intensity
/// of [`gemm_tiled`] at the cost of more registers per thread. The classic
/// first step of GEMM optimization; exposed as a codegen ablation.
///
/// One thread per 2x2 output quad (flattened 1D grid over
/// `ceil(m/2) * ceil(n/2)` quads). Edge quads handle odd remainders with
/// predicated stores. Params: `a, b, c_out, m, n, k, tiles, nq(=ceil(n/2)),
/// total(=ceil(m/2)*nq), bias, has_bias`.
///
/// The quad count is passed in rather than derived in-kernel: the
/// `ceil(m/2)` shift is not a polynomial of the params, so an in-kernel
/// guard is unresolvable to the poly counting tier and forced every
/// launch onto the interpreter.
fn gemm_micro() -> Kernel {
    let mut kb = KernelBuilder::new(Template::GemmMicro.name(), BLOCK);
    let p_a = kb.param("a", Type::U64);
    let p_b = kb.param("b", Type::U64);
    let p_c = kb.param("c_out", Type::U64);
    let p_m = kb.param("m", Type::U32);
    let p_n = kb.param("n", Type::U32);
    let p_k = kb.param("k", Type::U32);
    let p_tiles = kb.param("tiles", Type::U32);
    let p_nq = kb.param("nq", Type::U32);
    let p_total = kb.param("total", Type::U32);
    let p_bias = kb.param("bias", Type::U64);
    let p_hb = kb.param("has_bias", Type::U32);
    let a = kb.ld_param(&p_a, Type::U64);
    let b = kb.ld_param(&p_b, Type::U64);
    let co = kb.ld_param(&p_c, Type::U64);
    let m = kb.ld_param(&p_m, Type::U32);
    let n = kb.ld_param(&p_n, Type::U32);
    let k = kb.ld_param(&p_k, Type::U32);
    let tiles = kb.ld_param(&p_tiles, Type::U32);
    let nq = kb.ld_param(&p_nq, Type::U32);
    let total = kb.ld_param(&p_total, Type::U32);
    let bias = kb.ld_param(&p_bias, Type::U64);
    let has_bias = kb.ld_param(&p_hb, Type::U32);

    // per-thread staging slots: 2 A elements + 2 B elements per K-tile
    let smem_a = kb.shared(BLOCK * 2 * 4);
    let smem_b = kb.shared(BLOCK * 2 * 4);

    // guard: gid < total = ceil(m/2)*nq
    let (gid, exit) = kb.guard_gid(total);
    let qrow = kb.bin_r(BinOp::Div, Type::U32, gid, nq);
    let qcol = kb.bin_r(BinOp::Rem, Type::U32, gid, nq);
    let row0 = kb.bin_r(BinOp::Shl, Type::B32, qrow, Operand::ImmI(1));
    let col0 = kb.bin_r(BinOp::Shl, Type::B32, qcol, Operand::ImmI(1));
    let tid = kb.special(ptx::types::SpecialReg::TidX);

    // four accumulators
    let acc = [kb.f(), kb.f(), kb.f(), kb.f()];
    for &r in &acc {
        kb.mov(Type::F32, r, Operand::ImmF(0.0));
    }

    let slot8 = kb.bin_r(BinOp::Shl, Type::B32, tid, Operand::ImmI(3));
    let sa_addr = kb.bin_r(BinOp::Add, Type::U32, slot8, Operand::ImmI(smem_a as i64));
    let sa64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, sa64, sa_addr);
    let sb_addr = kb.bin_r(BinOp::Add, Type::U32, slot8, Operand::ImmI(smem_b as i64));
    let sb64 = kb.rd();
    kb.cvt(Type::U64, Type::U32, sb64, sb_addr);

    kb.counted_loop(tiles, |kb, t| {
        let kbase = kb.bin_r(BinOp::Shl, Type::B32, t, Operand::ImmI(4));
        // cooperative staging: each thread loads its quad's two A rows at
        // one k-column and two B columns at one k-row
        for lane in 0..2u32 {
            let row = kb.bin_r(BinOp::Add, Type::U32, row0, Operand::ImmI(lane as i64));
            let kk = kb.bin_r(BinOp::And, Type::B32, tid, Operand::ImmI(15));
            let ka = kb.bin_r(BinOp::Add, Type::U32, kbase, kk);
            let a_idx = kb.r();
            kb.mad(Type::S32, a_idx, row, k, ka);
            let a_addr = elem_addr(kb, a, a_idx);
            let va = kb.f();
            kb.ld(Space::Global, Type::F32, va, Address::reg(a_addr));
            kb.st(
                Space::Shared,
                Type::F32,
                Address::reg_off(sa64, (lane * 4) as i64),
                va,
            );

            let col = kb.bin_r(BinOp::Add, Type::U32, col0, Operand::ImmI(lane as i64));
            let krow = kb.bin_r(BinOp::Shr, Type::B32, tid, Operand::ImmI(4));
            let krow = kb.bin_r(BinOp::Add, Type::U32, kbase, krow);
            let b_idx = kb.r();
            kb.mad(Type::S32, b_idx, krow, n, col);
            let b_addr = elem_addr(kb, b, b_idx);
            let vb = kb.f();
            kb.ld(Space::Global, Type::F32, vb, Address::reg(b_addr));
            kb.st(
                Space::Shared,
                Type::F32,
                Address::reg_off(sb64, (lane * 4) as i64),
                vb,
            );
        }
        kb.bar();

        // inner product: one (a0,a1,b0,b1) fetch feeds four FMAs
        for _ in 0..TILE {
            let a0 = kb.f();
            let a1 = kb.f();
            let b0 = kb.f();
            let b1 = kb.f();
            kb.ld(Space::Shared, Type::F32, a0, Address::reg(sa64));
            kb.ld(Space::Shared, Type::F32, a1, Address::reg_off(sa64, 4));
            kb.ld(Space::Shared, Type::F32, b0, Address::reg(sb64));
            kb.ld(Space::Shared, Type::F32, b1, Address::reg_off(sb64, 4));
            kb.mad(Type::F32, acc[0], a0, b0, acc[0]);
            kb.mad(Type::F32, acc[1], a0, b1, acc[1]);
            kb.mad(Type::F32, acc[2], a1, b0, acc[2]);
            kb.mad(Type::F32, acc[3], a1, b1, acc[3]);
        }
        kb.bar();
    });

    // predicated edge-aware stores of the 2x2 quad
    for (qi, &r) in acc.iter().enumerate() {
        let dr = (qi / 2) as i64;
        let dc = (qi % 2) as i64;
        let row = kb.bin_r(BinOp::Add, Type::U32, row0, Operand::ImmI(dr));
        let col = kb.bin_r(BinOp::Add, Type::U32, col0, Operand::ImmI(dc));
        let pr = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, pr, row, m);
        let pc = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, pc, col, n);
        emit_bias_add(&mut kb, r, bias, col, has_bias);
        // fold the two bound checks into one predicate via selp on an
        // integer flag (branchless, keeps control flow affine)
        let f1 = kb.r();
        kb.selp(Type::U32, f1, Operand::ImmI(1), Operand::ImmI(0), pr);
        let f2 = kb.r();
        kb.selp(Type::U32, f2, f1, Operand::ImmI(0), pc);
        let pboth = kb.p();
        kb.setp(CmpOp::Eq, Type::U32, pboth, f2, Operand::ImmI(1));
        let idx = kb.r();
        kb.mad(Type::S32, idx, row, n, col);
        let addr = elem_addr(&mut kb, co, idx);
        kb.with_guard(pboth, false, |kb| {
            kb.st(Space::Global, Type::F32, Address::reg(addr), r);
        });
    }
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// GEMV for dense layers: one thread per output row, serial dot product
/// with a fused bias epilogue.
/// Params: `a(weights), x, y, m(rows/outputs), k(cols/inputs), bias,
/// has_bias`.
fn gemv() -> Kernel {
    let mut kb = KernelBuilder::new(Template::Gemv.name(), BLOCK);
    let p_a = kb.param("a", Type::U64);
    let p_x = kb.param("x", Type::U64);
    let p_y = kb.param("y", Type::U64);
    let p_m = kb.param("m", Type::U32);
    let p_k = kb.param("k", Type::U32);
    let p_bias = kb.param("bias", Type::U64);
    let p_hb = kb.param("has_bias", Type::U32);
    let a = kb.ld_param(&p_a, Type::U64);
    let x = kb.ld_param(&p_x, Type::U64);
    let y = kb.ld_param(&p_y, Type::U64);
    let m = kb.ld_param(&p_m, Type::U32);
    let k = kb.ld_param(&p_k, Type::U32);
    let bias = kb.ld_param(&p_bias, Type::U64);
    let has_bias = kb.ld_param(&p_hb, Type::U32);

    let (gid, exit) = kb.guard_gid(m);
    let acc = kb.f();
    kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    let row_base = kb.bin_r(BinOp::Mul, Type::U32, gid, k);
    kb.counted_loop(k, |kb, i| {
        let a_idx = kb.bin_r(BinOp::Add, Type::U32, row_base, i);
        let aa = elem_addr(kb, a, a_idx);
        let xa = elem_addr(kb, x, i);
        let fa = kb.f();
        let fx = kb.f();
        kb.ld(Space::Global, Type::F32, fa, Address::reg(aa));
        kb.ld(Space::Global, Type::F32, fx, Address::reg(xa));
        kb.mad(Type::F32, acc, fa, fx, acc);
    });
    emit_bias_add(&mut kb, acc, bias, gid, has_bias);
    let ya = elem_addr(&mut kb, y, gid);
    kb.st(Space::Global, Type::F32, Address::reg(ya), acc);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Depthwise convolution: one thread per output element, loop over the
/// window with branchless border handling.
/// Params: `in, wgt, out, total, window, c, w, ow, kw, sh, sw, pad_t,
/// pad_l, h, bias, has_bias` (fused per-channel bias epilogue).
fn depthwise() -> Kernel {
    let mut kb = KernelBuilder::new(Template::Depthwise.name(), BLOCK);
    let names: Vec<String> = [
        ("in", Type::U64),
        ("wgt", Type::U64),
        ("out", Type::U64),
        ("total", Type::U32),
        ("window", Type::U32),
        ("c", Type::U32),
        ("w", Type::U32),
        ("ow", Type::U32),
        ("kw", Type::U32),
        ("sh", Type::U32),
        ("sw", Type::U32),
        ("pad_t", Type::U32),
        ("pad_l", Type::U32),
        ("h", Type::U32),
        ("bias", Type::U64),
        ("has_bias", Type::U32),
    ]
    .iter()
    .map(|(n, t)| kb.param(n, *t))
    .collect();
    let src = kb.ld_param(&names[0], Type::U64);
    let wgt = kb.ld_param(&names[1], Type::U64);
    let dst = kb.ld_param(&names[2], Type::U64);
    let total = kb.ld_param(&names[3], Type::U32);
    let window = kb.ld_param(&names[4], Type::U32);
    let c = kb.ld_param(&names[5], Type::U32);
    let w = kb.ld_param(&names[6], Type::U32);
    let ow = kb.ld_param(&names[7], Type::U32);
    let kw = kb.ld_param(&names[8], Type::U32);
    let sh = kb.ld_param(&names[9], Type::U32);
    let sw = kb.ld_param(&names[10], Type::U32);
    let pad_t = kb.ld_param(&names[11], Type::U32);
    let pad_l = kb.ld_param(&names[12], Type::U32);
    let h = kb.ld_param(&names[13], Type::U32);
    let bias = kb.ld_param(&names[14], Type::U64);
    let has_bias = kb.ld_param(&names[15], Type::U32);

    let (gid, exit) = kb.guard_gid(total);
    let ch = kb.bin_r(BinOp::Rem, Type::U32, gid, c);
    let pix = kb.bin_r(BinOp::Div, Type::U32, gid, c);
    let oy = kb.bin_r(BinOp::Div, Type::U32, pix, ow);
    let ox = kb.bin_r(BinOp::Rem, Type::U32, pix, ow);
    let iy0 = kb.bin_r(BinOp::Mul, Type::U32, oy, sh);
    let iy0 = kb.bin_r(BinOp::Sub, Type::U32, iy0, pad_t);
    let ix0 = kb.bin_r(BinOp::Mul, Type::U32, ox, sw);
    let ix0 = kb.bin_r(BinOp::Sub, Type::U32, ix0, pad_l);

    let acc = kb.f();
    kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    kb.counted_loop(window, |kb, t| {
        let dy = kb.bin_r(BinOp::Div, Type::U32, t, kw);
        let dx = kb.bin_r(BinOp::Rem, Type::U32, t, kw);
        let iy = kb.bin_r(BinOp::Add, Type::U32, iy0, dy);
        let ix = kb.bin_r(BinOp::Add, Type::U32, ix0, dx);
        let py = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, py, iy, h);
        let px = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, px, ix, w);
        let lin = kb.r();
        kb.mad(Type::S32, lin, iy, w, ix);
        let lin2 = kb.r();
        kb.mad(Type::S32, lin2, lin, c, ch);
        let sa = elem_addr(kb, src, lin2);
        let v = kb.f();
        kb.with_guard(py, false, |kb| {
            kb.ld(Space::Global, Type::F32, v, Address::reg(sa));
        });
        let zero = kb.f();
        kb.mov(Type::F32, zero, Operand::ImmF(0.0));
        let vy = kb.f();
        kb.selp(Type::F32, vy, v, zero, py);
        let vx = kb.f();
        kb.selp(Type::F32, vx, vy, zero, px);
        // weight index: t*c + ch
        let widx = kb.r();
        kb.mad(Type::S32, widx, t, c, ch);
        let wa = elem_addr(kb, wgt, widx);
        let fw = kb.f();
        kb.ld(Space::Global, Type::F32, fw, Address::reg(wa));
        kb.mad(Type::F32, acc, vx, fw, acc);
    });
    emit_bias_add(&mut kb, acc, bias, ch, has_bias);
    let da = elem_addr(&mut kb, dst, gid);
    kb.st(Space::Global, Type::F32, Address::reg(da), acc);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Spatial pooling: one thread per output element, window loop with
/// branchless borders. `is_max` selects max vs mean.
/// Params: `in, out, total, window, c, w, ow, kw, sh, sw, pad_t, pad_l, h,
/// inv_window_bits` (f32 bit pattern of `1/window`, unused for max).
fn pool(is_max: bool) -> Kernel {
    let name = if is_max {
        Template::PoolMax.name()
    } else {
        Template::PoolAvg.name()
    };
    let mut kb = KernelBuilder::new(name, BLOCK);
    let names: Vec<String> = [
        ("in", Type::U64),
        ("out", Type::U64),
        ("total", Type::U32),
        ("window", Type::U32),
        ("c", Type::U32),
        ("w", Type::U32),
        ("ow", Type::U32),
        ("kw", Type::U32),
        ("sh", Type::U32),
        ("sw", Type::U32),
        ("pad_t", Type::U32),
        ("pad_l", Type::U32),
        ("h", Type::U32),
        ("inv_window_bits", Type::U32),
    ]
    .iter()
    .map(|(n, t)| kb.param(n, *t))
    .collect();
    let src = kb.ld_param(&names[0], Type::U64);
    let dst = kb.ld_param(&names[1], Type::U64);
    let total = kb.ld_param(&names[2], Type::U32);
    let window = kb.ld_param(&names[3], Type::U32);
    let c = kb.ld_param(&names[4], Type::U32);
    let w = kb.ld_param(&names[5], Type::U32);
    let ow = kb.ld_param(&names[6], Type::U32);
    let kw = kb.ld_param(&names[7], Type::U32);
    let sh = kb.ld_param(&names[8], Type::U32);
    let sw = kb.ld_param(&names[9], Type::U32);
    let pad_t = kb.ld_param(&names[10], Type::U32);
    let pad_l = kb.ld_param(&names[11], Type::U32);
    let h = kb.ld_param(&names[12], Type::U32);
    let invw = kb.ld_param(&names[13], Type::U32);

    let (gid, exit) = kb.guard_gid(total);
    let ch = kb.bin_r(BinOp::Rem, Type::U32, gid, c);
    let pix = kb.bin_r(BinOp::Div, Type::U32, gid, c);
    let oy = kb.bin_r(BinOp::Div, Type::U32, pix, ow);
    let ox = kb.bin_r(BinOp::Rem, Type::U32, pix, ow);
    let iy0 = kb.bin_r(BinOp::Mul, Type::U32, oy, sh);
    let iy0 = kb.bin_r(BinOp::Sub, Type::U32, iy0, pad_t);
    let ix0 = kb.bin_r(BinOp::Mul, Type::U32, ox, sw);
    let ix0 = kb.bin_r(BinOp::Sub, Type::U32, ix0, pad_l);

    let acc = kb.f();
    if is_max {
        kb.mov(Type::F32, acc, Operand::ImmF(f32::MIN));
    } else {
        kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    }
    kb.counted_loop(window, |kb, t| {
        let dy = kb.bin_r(BinOp::Div, Type::U32, t, kw);
        let dx = kb.bin_r(BinOp::Rem, Type::U32, t, kw);
        let iy = kb.bin_r(BinOp::Add, Type::U32, iy0, dy);
        let ix = kb.bin_r(BinOp::Add, Type::U32, ix0, dx);
        let py = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, py, iy, h);
        let px = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, px, ix, w);
        let lin = kb.r();
        kb.mad(Type::S32, lin, iy, w, ix);
        let lin2 = kb.r();
        kb.mad(Type::S32, lin2, lin, c, ch);
        let sa = elem_addr(kb, src, lin2);
        let v = kb.f();
        kb.with_guard(py, false, |kb| {
            kb.ld(Space::Global, Type::F32, v, Address::reg(sa));
        });
        let pad_val = kb.f();
        if is_max {
            kb.mov(Type::F32, pad_val, Operand::ImmF(f32::MIN));
        } else {
            kb.mov(Type::F32, pad_val, Operand::ImmF(0.0));
        }
        let vy = kb.f();
        kb.selp(Type::F32, vy, v, pad_val, py);
        let vx = kb.f();
        kb.selp(Type::F32, vx, vy, pad_val, px);
        if is_max {
            kb.bin(BinOp::Max, Type::F32, acc, acc, vx);
        } else {
            kb.bin(BinOp::Add, Type::F32, acc, acc, vx);
        }
    });
    if !is_max {
        let inv = kb.f();
        kb.cvt(Type::F32, Type::B32, inv, invw);
        kb.bin(BinOp::Mul, Type::F32, acc, acc, inv);
    }
    let da = elem_addr(&mut kb, dst, gid);
    kb.st(Space::Global, Type::F32, Address::reg(da), acc);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Global pooling: one thread per channel, strided accumulation over all
/// `hw` pixels. Params: `in, out, c, hw, inv_hw_bits`.
fn gap(is_max: bool) -> Kernel {
    let name = if is_max {
        Template::GapMax.name()
    } else {
        Template::GapAvg.name()
    };
    let mut kb = KernelBuilder::new(name, BLOCK);
    let p_in = kb.param("in", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_c = kb.param("c", Type::U32);
    let p_hw = kb.param("hw", Type::U32);
    let p_inv = kb.param("inv_hw_bits", Type::U32);
    let src = kb.ld_param(&p_in, Type::U64);
    let dst = kb.ld_param(&p_out, Type::U64);
    let c = kb.ld_param(&p_c, Type::U32);
    let hw = kb.ld_param(&p_hw, Type::U32);
    let inv = kb.ld_param(&p_inv, Type::U32);

    let (gid, exit) = kb.guard_gid(c);
    let acc = kb.f();
    if is_max {
        kb.mov(Type::F32, acc, Operand::ImmF(f32::MIN));
    } else {
        kb.mov(Type::F32, acc, Operand::ImmF(0.0));
    }
    kb.counted_loop(hw, |kb, i| {
        // HWC layout: element (i, gid) at i*c + gid
        let idx = kb.r();
        kb.mad(Type::S32, idx, i, c, gid);
        let a = elem_addr(kb, src, idx);
        let v = kb.f();
        kb.ld(Space::Global, Type::F32, v, Address::reg(a));
        if is_max {
            kb.bin(BinOp::Max, Type::F32, acc, acc, v);
        } else {
            kb.bin(BinOp::Add, Type::F32, acc, acc, v);
        }
    });
    if !is_max {
        let fi = kb.f();
        kb.cvt(Type::F32, Type::B32, fi, inv);
        kb.bin(BinOp::Mul, Type::F32, acc, acc, fi);
    }
    let da = elem_addr(&mut kb, dst, gid);
    kb.st(Space::Global, Type::F32, Address::reg(da), acc);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

/// Strided copy for zero padding / concat: one thread per *input* element;
/// computes the destination index from row geometry.
/// Params: `in, out, n(in elems), row_len(in row bytes worth of elems =
/// w*c), out_row_len(=out_w*c), dst_off(start offset in out)`.
fn pad_copy() -> Kernel {
    let mut kb = KernelBuilder::new(Template::PadCopy.name(), BLOCK);
    let p_in = kb.param("in", Type::U64);
    let p_out = kb.param("out", Type::U64);
    let p_n = kb.param("n", Type::U32);
    let p_row = kb.param("row_len", Type::U32);
    let p_orow = kb.param("out_row_len", Type::U32);
    let p_off = kb.param("dst_off", Type::U32);
    let src = kb.ld_param(&p_in, Type::U64);
    let dst = kb.ld_param(&p_out, Type::U64);
    let n = kb.ld_param(&p_n, Type::U32);
    let row = kb.ld_param(&p_row, Type::U32);
    let orow = kb.ld_param(&p_orow, Type::U32);
    let off = kb.ld_param(&p_off, Type::U32);

    let (gid, exit) = kb.guard_gid(n);
    let r = kb.bin_r(BinOp::Div, Type::U32, gid, row);
    let cpos = kb.bin_r(BinOp::Rem, Type::U32, gid, row);
    let obase = kb.r();
    kb.mad(Type::S32, obase, r, orow, cpos);
    let oidx = kb.bin_r(BinOp::Add, Type::U32, obase, off);
    let sa = elem_addr(&mut kb, src, gid);
    let da = elem_addr(&mut kb, dst, oidx);
    let v = kb.f();
    kb.ld(Space::Global, Type::F32, v, Address::reg(sa));
    kb.st(Space::Global, Type::F32, Address::reg(da), v);
    kb.place_label(exit);
    kb.ret();
    kb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::inst::Category;

    #[test]
    fn all_templates_build() {
        let kernels = kernels();
        assert_eq!(kernels.len(), Template::ALL.len());
        for (t, k) in Template::ALL.iter().zip(kernels.iter()) {
            assert_eq!(k.name, t.name());
            assert!(k.num_instructions() > 3, "{} too small", k.name);
            // every kernel ends with ret
            let last = k.instructions().last().unwrap();
            assert!(
                matches!(last.op, ptx::inst::Op::Ret),
                "{} does not end in ret",
                k.name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Template::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Template::ALL.len());
    }

    #[test]
    fn gemm_has_shared_memory_and_barriers() {
        let k = Template::GemmTiled.build();
        assert_eq!(k.shared_bytes, 2 * TILE * TILE * 4);
        let bars = k
            .instructions()
            .filter(|i| i.category() == Category::Sync)
            .count();
        assert_eq!(bars, 2, "two barriers per tile iteration");
        let fmas = k
            .instructions()
            .filter(|i| i.category() == Category::FloatFma)
            .count();
        assert_eq!(fmas as u32, TILE, "unrolled inner product");
    }

    #[test]
    fn branches_are_guard_and_loops_only() {
        // Every branch in every template must be either the gid guard or a
        // loop back-edge/pre-check — the property that makes the dynamic
        // code analysis exact.
        for t in Template::ALL {
            let k = t.build();
            for inst in k.instructions() {
                if let ptx::inst::Op::Bra { .. } = inst.op {
                    assert!(
                        inst.guard.is_some() || matches!(inst.op, ptx::inst::Op::Bra { .. }),
                        "{}: unguarded non-loop branch",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn printed_templates_reparse() {
        let mut module = ptx::Module::new("sm_61");
        module.kernels = Arc::clone(kernels());
        let text = ptx::printer::module(&module);
        let back = ptx::parse_module(&text).expect("reparse");
        assert_eq!(back.kernels.len(), module.kernels.len());
        for (a, b) in module.kernels.iter().zip(back.kernels.iter()) {
            assert_eq!(a.body, b.body, "kernel {} did not round-trip", a.name);
        }
    }

    #[test]
    fn elementwise_kernels_have_expected_loads() {
        let k = Template::EwAdd.build();
        let loads = k
            .instructions()
            .filter(|i| i.category() == Category::LoadGlobal)
            .count();
        assert_eq!(loads, 2);
        let k = Template::AffineCh.build();
        let loads = k
            .instructions()
            .filter(|i| i.category() == Category::LoadGlobal)
            .count();
        assert_eq!(loads, 3);
    }

    #[test]
    fn copy_is_vectorized_by_four() {
        let k = Template::CopyF32.build();
        let stores = k
            .instructions()
            .filter(|i| i.category() == Category::StoreGlobal)
            .count();
        assert_eq!(stores, 4);
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;

    /// Every generated template must pass the PTX verifier — no dangling
    /// labels, no use-before-def, valid params and guards.
    #[test]
    fn all_templates_verify() {
        for t in Template::ALL {
            let k = t.build();
            let errs = ptx::verify::verify_kernel(&k);
            assert!(errs.is_empty(), "{}: {errs:?}", k.name);
        }
    }
}
