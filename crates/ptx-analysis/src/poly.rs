//! Closed-form trip-count polynomials for the DCA counting layer.
//!
//! The dense interpreter ([`crate::exec`]) executes a representative
//! thread instruction-by-instruction; this module *compiles* a kernel
//! instead. Values are tracked as symbolic affine forms
//! `ct*ctaid + td*tid + b` whose three coefficients are polynomials over
//! the kernel's parameter slots (plus the launch's `%nctaid.x`), so the
//! compiled artifact — a small DAG of [`PNode`]s — evaluates any
//! `(ctaid, tid, args)` in O(nodes) instead of O(steps).
//!
//! # Equivalence contract
//!
//! The compiled program must be **bit-identical** to the interpreter on
//! every launch: same `ThreadOutcome` (count, category mix, breakpoints)
//! and same typed errors (`StepLimit`, `UnknownParam`, ...). The compiler
//! therefore only folds what the interpreter folds *for every launch*
//! (e.g. a symbolic constant is folded only when it is launch-independent
//! or uniform — exactly the cases where the interpreter's runtime
//! `as_const()` succeeds), and bails out to the interpreter on anything
//! it cannot prove:
//!
//! * compile-time bail ([`compile_kernel`] returns `Err`): the kernel
//!   keeps using the interpreter (`ptx.poly.fallbacks`);
//! * eval-time bail ([`PolyBail::Unsupported`]): that one launch is
//!   re-counted by the interpreter (`ptx.poly.eval_fallbacks` in the
//!   counting layer).
//!
//! # Loop closure
//!
//! A backward branch with a runtime-resolvable uniform guard becomes a
//! [`PNode::Loop`]. Iteration 1 is compiled inline (it is part of the
//! straight-line prefix); the compiler then symbolically runs the body
//! three more times and requires a *translation-stable* fixed point:
//! identical instruction path, costs and guard decisions, and equal
//! consecutive deltas on the guard operands and on every untainted affine
//! register the body writes. Because the untainted registers then evolve
//! as an affine map `x -> Mx + c` with `M·delta = delta`, the observed
//! deltas extrapolate exactly to *all* iterations, and the trip count is
//! the first root of a linear function (solved in [`first_exit`]).
//! Anything that could break linear extrapolation — non-affine ops over
//! drifting inputs, float-derived decisions, predicates captured from
//! tainted state — either taints the destination (tainted values may be
//! wrong but can never influence a decision: a tainted predicate rejects
//! the loop) or rejects the loop outright.

use crate::exec::{
    harvest_breaks_into, wrap_for, Break, DInst, DOp, DOperand, DenseProgram, ExecError, OffDst,
    ThreadOutcome, Val, NCAT,
};
use ptx::types::{BinOp, CmpOp, Type, UnOp};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::mem::discriminant;

/// Kernels submitted to the polynomial compiler.
static POLY_ATTEMPTS: obs::LazyCounter = obs::LazyCounter::new("ptx.poly.attempts");
/// Kernels successfully compiled to closed form.
static POLY_COMPILED: obs::LazyCounter = obs::LazyCounter::new("ptx.poly.compiled");
/// Kernels rejected by the compiler (interpreter fallback).
static POLY_FALLBACKS: obs::LazyCounter = obs::LazyCounter::new("ptx.poly.fallbacks");

/// Sentinel parameter slot denoting `%nctaid.x` in an [`ArgPoly`].
pub(crate) const NCTAID_SLOT: u16 = u16::MAX;
/// Max monomials per polynomial before the compiler gives up.
const MAX_TERMS: usize = 64;
/// Max monomial degree before the compiler gives up.
const MAX_DEG: usize = 6;
/// Symbolic instruction budget for one kernel compile (covers literal
/// loop unrolling; a symbolic "infinite" loop exhausts this and bails).
const MAX_SYM_STEPS: u64 = 250_000;
/// Max compiled nodes per kernel.
const MAX_NODES: usize = 4096;
/// Max branch/loop nesting depth during compilation.
const MAX_DEPTH: u32 = 64;
/// Max symbolic states remembered at join points per kernel compile
/// (each holds one cloned [`SEnv`]); past it, joins are simply not merged.
const MAX_JOIN_STATES: usize = 512;

/// Compile-time bail reason (the kernel falls back to the interpreter).
type Bail = &'static str;

/// A polynomial over kernel-argument slots (and [`NCTAID_SLOT`]): a map
/// from a sorted monomial multiset of slots to its `i128` coefficient.
/// The zero polynomial is the empty map; all arithmetic is checked and
/// returns `None` on overflow or size blowup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ArgPoly {
    terms: BTreeMap<Box<[u16]>, i128>,
}

impl ArgPoly {
    fn cnst(v: i128) -> Self {
        let mut terms = BTreeMap::new();
        if v != 0 {
            terms.insert(Box::from([] as [u16; 0]), v);
        }
        ArgPoly { terms }
    }

    fn slot(s: u16) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Box::from([s]), 1);
        ArgPoly { terms }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn as_const(&self) -> Option<i128> {
        match self.terms.len() {
            0 => Some(0),
            1 => self.terms.get(&Box::from([] as [u16; 0])).copied(),
            _ => None,
        }
    }

    fn checked_insert(
        terms: &mut BTreeMap<Box<[u16]>, i128>,
        k: Box<[u16]>,
        v: i128,
    ) -> Option<()> {
        if k.len() > MAX_DEG {
            return None;
        }
        let e = terms.entry(k).or_insert(0);
        *e = e.checked_add(v)?;
        Some(())
    }

    fn finish(mut terms: BTreeMap<Box<[u16]>, i128>) -> Option<Self> {
        terms.retain(|_, v| *v != 0);
        if terms.len() > MAX_TERMS {
            return None;
        }
        Some(ArgPoly { terms })
    }

    fn add(&self, o: &Self) -> Option<Self> {
        let mut terms = self.terms.clone();
        for (k, v) in &o.terms {
            Self::checked_insert(&mut terms, k.clone(), *v)?;
        }
        Self::finish(terms)
    }

    fn neg(&self) -> Option<Self> {
        let mut terms = BTreeMap::new();
        for (k, v) in &self.terms {
            terms.insert(k.clone(), v.checked_neg()?);
        }
        Self::finish(terms)
    }

    fn sub(&self, o: &Self) -> Option<Self> {
        self.add(&o.neg()?)
    }

    fn mul(&self, o: &Self) -> Option<Self> {
        let mut terms = BTreeMap::new();
        for (ka, va) in &self.terms {
            for (kb, vb) in &o.terms {
                let mut k: Vec<u16> = ka.iter().chain(kb.iter()).copied().collect();
                k.sort_unstable();
                Self::checked_insert(&mut terms, k.into_boxed_slice(), va.checked_mul(*vb)?)?;
            }
        }
        Self::finish(terms)
    }

    /// Evaluate at concrete launch arguments. `None` on `i128` overflow
    /// or an out-of-range slot (which the caller surfaces as an
    /// eval-time fallback, never a wrong count).
    fn eval(&self, args: &[u64], nctaid: u64) -> Option<i128> {
        let mut acc: i128 = 0;
        for (k, coeff) in &self.terms {
            let mut term = *coeff;
            for &s in k.iter() {
                let v: i128 = if s == NCTAID_SLOT {
                    nctaid as i128
                } else {
                    *args.get(s as usize)? as i128
                };
                term = term.checked_mul(v)?;
            }
            acc = acc.checked_add(term)?;
        }
        Some(acc)
    }
}

/// Symbolic affine form `ct*ctaid + td*tid + b` with polynomial
/// coefficients — the symbolic counterpart of [`Val::Lin`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SLin {
    ct: ArgPoly,
    td: ArgPoly,
    b: ArgPoly,
}

impl SLin {
    fn from_poly(b: ArgPoly) -> Self {
        SLin {
            ct: ArgPoly::cnst(0),
            td: ArgPoly::cnst(0),
            b,
        }
    }

    fn literal(ct: i128, td: i128, b: i128) -> Self {
        SLin {
            ct: ArgPoly::cnst(ct),
            td: ArgPoly::cnst(td),
            b: ArgPoly::cnst(b),
        }
    }

    /// Launch-uniform: no ctaid/tid slope (the symbolic analogue of the
    /// interpreter's runtime `as_const()` succeeding on every launch).
    fn is_uniform(&self) -> bool {
        self.ct.is_zero() && self.td.is_zero()
    }

    /// Fully launch-independent constant value, if any.
    fn as_literal(&self) -> Option<i128> {
        if self.is_uniform() {
            self.b.as_const()
        } else {
            None
        }
    }

    fn add(&self, o: &Self) -> Option<Self> {
        Some(SLin {
            ct: self.ct.add(&o.ct)?,
            td: self.td.add(&o.td)?,
            b: self.b.add(&o.b)?,
        })
    }

    fn sub(&self, o: &Self) -> Option<Self> {
        Some(SLin {
            ct: self.ct.sub(&o.ct)?,
            td: self.td.sub(&o.td)?,
            b: self.b.sub(&o.b)?,
        })
    }

    fn scale_poly(&self, k: &ArgPoly) -> Option<Self> {
        Some(SLin {
            ct: self.ct.mul(k)?,
            td: self.td.mul(k)?,
            b: self.b.mul(k)?,
        })
    }
}

/// A symbolic value: affine, a concrete float, or opaque. Equality
/// compares floats by bit pattern (`0.0` and `-0.0` fold differently
/// later, so they are different states).
#[derive(Debug, Clone)]
pub(crate) enum SVal {
    Lin(SLin),
    F32(f32),
    Unknown,
}

impl PartialEq for SVal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SVal::Lin(a), SVal::Lin(b)) => a == b,
            (SVal::F32(a), SVal::F32(b)) => a.to_bits() == b.to_bits(),
            (SVal::Unknown, SVal::Unknown) => true,
            _ => false,
        }
    }
}

impl SVal {
    fn lit(v: i128) -> Self {
        SVal::Lin(SLin::literal(0, 0, v))
    }

    fn as_literal(&self) -> Option<i128> {
        match self {
            SVal::Lin(l) => l.as_literal(),
            _ => None,
        }
    }
}

/// A runtime-resolvable comparison `cmp(a, b)` over symbolic affine
/// operands; evaluated per launch exactly like the interpreter's
/// `setp_val` (including the type-aware wrap on constant differences).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CondExpr {
    cmp: CmpOp,
    t: Type,
    a: SLin,
    b: SLin,
}

/// Symbolic predicate-register state.
#[derive(Debug, Clone, PartialEq)]
struct SPred {
    /// Truth known at compile time (same on every launch).
    truth: Option<bool>,
    /// Runtime-resolvable comparison, when the operands were affine.
    cond: Option<CondExpr>,
    /// Captured from tainted state inside a loop body: may be wrong for
    /// extrapolated iterations, so it must never drive a decision.
    tainted: bool,
}

impl SPred {
    fn opaque(tainted: bool) -> Self {
        SPred {
            truth: None,
            cond: None,
            tainted,
        }
    }
}

/// Symbolic machine state: value registers, their taint flags, and
/// predicate registers.
#[derive(Clone, PartialEq)]
struct SEnv {
    regs: Vec<SVal>,
    taint: Vec<bool>,
    preds: Vec<Option<SPred>>,
}

impl SEnv {
    fn new(p: &DenseProgram) -> Self {
        SEnv {
            regs: vec![SVal::Unknown; p.nregs],
            taint: vec![false; p.nregs],
            preds: vec![None; p.npreds],
        }
    }
}

/// One node of a compiled kernel.
#[derive(Debug, Clone)]
enum PNode {
    /// A straight-line segment: fixed instruction count and category mix,
    /// plus the `ld.param` slots it reads (`(pslot, offset)` where
    /// `offset` is the number of instructions executed in the segment
    /// before the load — needed to replicate the interpreter's
    /// `StepLimit`-before-`UnknownParam` ordering).
    Cost {
        count: u64,
        by_cat: Box<[u64; NCAT]>,
        params: Vec<(u32, u64)>,
        next: u32,
    },
    /// A forward conditional branch resolved per launch.
    Branch {
        pc: u32,
        neg: bool,
        cond: CondExpr,
        taken: u32,
        fall: u32,
    },
    /// A closed loop: the guard's operand trajectories are linear per
    /// iteration (`va_k = va1 + (k-1)*dva`), so the trip count is the
    /// first exit of a linear function and iterations 2..=T cost
    /// `(T-1) * body`. The operands may carry ctaid/tid slopes (the
    /// softmax `i = tid; i += ntid` pattern); only the per-iteration
    /// stride `dva - dvb` must be launch-uniform, which keeps the
    /// guard's slope classification identical across iterations.
    Loop {
        cmp: CmpOp,
        t: Type,
        neg: bool,
        /// Back-edge `bra` pc (error attribution for mixed-slope guards,
        /// matching the interpreter's `MixedSlopePredicate { pc }`).
        pc: u32,
        va1: SLin,
        dva: SLin,
        vb1: SLin,
        dvb: SLin,
        body_count: u64,
        body_cat: Box<[u64; NCAT]>,
        /// Params first read in iterations >= 2, with in-iteration offsets.
        body_params: Vec<(u32, u64)>,
        next: u32,
    },
    End,
}

/// Why a compiled kernel could not evaluate one launch.
#[derive(Debug)]
pub enum PolyBail {
    /// The launch needs the interpreter (counts would not be provably
    /// identical); the counting layer re-runs it there.
    Unsupported(&'static str),
    /// A real execution error the interpreter would also raise, with an
    /// identical payload; propagated as-is.
    Exec(ExecError),
}

/// A kernel compiled to piecewise trip-count polynomials.
pub struct KernelPoly {
    nodes: Vec<PNode>,
    root: u32,
    ntid: u32,
    kernel_name: String,
    param_names: Vec<String>,
}

impl KernelPoly {
    /// Compiled node count (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Kernel name (error attribution).
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Block width the kernel was compiled for.
    pub fn ntid(&self) -> u32 {
        self.ntid
    }

    fn step_limit(&self, max_steps: u64) -> PolyBail {
        PolyBail::Exec(ExecError::StepLimit {
            limit: max_steps,
            kernel: self.kernel_name.clone(),
        })
    }

    fn check_params(
        &self,
        count: u128,
        params: &[(u32, u64)],
        args: &[u64],
        max_steps: u64,
    ) -> Result<(), PolyBail> {
        for &(pslot, off) in params {
            // the interpreter's StepLimit check precedes the instruction,
            // so a load past the fuel limit never reports UnknownParam
            if count + off as u128 >= max_steps as u128 {
                return Err(self.step_limit(max_steps));
            }
            if args.get(pslot as usize).is_none() {
                return Err(PolyBail::Exec(ExecError::UnknownParam {
                    name: self.param_names[pslot as usize].clone(),
                }));
            }
        }
        Ok(())
    }

    /// Evaluate the representative thread `(ctaid, tid)` of a launch.
    /// Bit-identical to `Machine::run` on the same launch whenever it
    /// returns `Ok` or `Exec`; `Unsupported` means "use the interpreter".
    pub fn eval_thread(
        &self,
        nctaid: u64,
        ctaid: u64,
        tid: u32,
        args: &[u64],
        max_steps: u64,
    ) -> Result<ThreadOutcome, PolyBail> {
        let cta = ctaid as i128;
        let t = tid as i128;
        let ntid = self.ntid as i128;
        let mut count: u128 = 0;
        let mut by_cat = [0u128; NCAT];
        let mut breaks: Vec<Break> = Vec::new();
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize] {
                PNode::Cost {
                    count: c,
                    by_cat: bc,
                    params,
                    next,
                } => {
                    self.check_params(count, params, args, max_steps)?;
                    count += *c as u128;
                    if count > max_steps as u128 {
                        return Err(self.step_limit(max_steps));
                    }
                    for (acc, v) in by_cat.iter_mut().zip(bc.iter()) {
                        *acc += *v as u128;
                    }
                    cur = *next;
                }
                PNode::Branch {
                    pc,
                    neg,
                    cond,
                    taken,
                    fall,
                } => {
                    let truth = eval_cond(cond, cta, t, ntid, args, nctaid, *pc, &mut breaks)?;
                    cur = if truth != *neg { *taken } else { *fall };
                }
                PNode::Loop {
                    cmp,
                    t: lt,
                    neg,
                    pc,
                    va1,
                    dva,
                    vb1,
                    dvb,
                    body_count,
                    body_cat,
                    body_params,
                    next,
                } => {
                    let ev = |l: &SLin| -> Result<(i128, i128, i128), PolyBail> {
                        l.ct.eval(args, nctaid)
                            .zip(l.td.eval(args, nctaid))
                            .zip(l.b.eval(args, nctaid))
                            .map(|((ct, td), b)| (ct, td, b))
                            .ok_or(PolyBail::Unsupported("loop poly overflow"))
                    };
                    let (act, atd, ab) = ev(va1)?;
                    let (dact, datd, dab) = ev(dva)?;
                    let (bct, btd, bb) = ev(vb1)?;
                    let (dbct, dbtd, dbb) = ev(dvb)?;
                    let lin = |ct: i128, td: i128, b: i128| -> Result<i128, PolyBail> {
                        ct.checked_mul(cta)
                            .and_then(|x| td.checked_mul(t).and_then(|y| x.checked_add(y)))
                            .and_then(|x| x.checked_add(b))
                            .ok_or(PolyBail::Unsupported("loop poly overflow"))
                    };
                    let sub = |a: i128, b: i128| {
                        a.checked_sub(b)
                            .ok_or(PolyBail::Unsupported("loop poly overflow"))
                    };
                    let (va1v, dvav) = (lin(act, atd, ab)?, lin(dact, datd, dab)?);
                    let (vb1v, dvbv) = (lin(bct, btd, bb)?, lin(dbct, dbtd, dbb)?);
                    let d1 = sub(va1v, vb1v)?;
                    let dd = sub(dvav, dvbv)?;
                    let trips = first_exit(*cmp, *neg, d1, dd)
                        .ok_or(PolyBail::Unsupported("loop never exits"))?;
                    // the linear model is exact only while both operand
                    // trajectories stay inside the type's wrap-identity
                    // domain (trajectories are linear in k, so checking
                    // the endpoints bounds every iteration)
                    check_range(*lt, va1v, dvav, trips)?;
                    check_range(*lt, vb1v, dvbv, trips)?;
                    // guard-difference slopes, identical for every k since
                    // the stride is launch-uniform by construction
                    let (dct, dtd, db1) = (sub(act, bct)?, sub(atd, btd)?, sub(ab, bb)?);
                    let sloped = dct != 0 || dtd != 0;
                    if sloped {
                        // the interpreter harvests breakpoints at every
                        // execution of the back-edge bra; iteration 1's
                        // bra belongs to the preceding Cost segment
                        // (counted there, but segments never harvest), so
                        // it is harvested here *before* the body-param /
                        // step accounting to preserve the interpreter's
                        // error ordering (mixed slope fires ahead of
                        // iteration-2 UnknownParam / StepLimit)
                        harvest_breaks_into(dct, dtd, db1, ntid, *pc as usize, &mut breaks)
                            .map_err(PolyBail::Exec)?;
                    }
                    let extra = (trips - 1) as u128;
                    if extra > 0 {
                        self.check_params(count, body_params, args, max_steps)?;
                        count = extra
                            .checked_mul(*body_count as u128)
                            .and_then(|x| count.checked_add(x))
                            .ok_or_else(|| self.step_limit(max_steps))?;
                        if count > max_steps as u128 {
                            return Err(self.step_limit(max_steps));
                        }
                        for (acc, v) in by_cat.iter_mut().zip(body_cat.iter()) {
                            *acc += extra * *v as u128;
                        }
                        if sloped {
                            // iterations 2..=T shift the difference's
                            // intercept by the uniform stride; the slopes
                            // are unchanged, so no further errors can
                            // arise past the k=1 harvest above. Bounded:
                            // the step-limit check just passed, so
                            // T <= max_steps / body_count. Uniform guards
                            // skip this entirely (a zero-slope harvest is
                            // a no-op), preserving O(1) for counted loops.
                            let mut dbk = db1;
                            for _ in 2..=trips {
                                dbk = dbk
                                    .checked_add(dd)
                                    .ok_or(PolyBail::Unsupported("loop poly overflow"))?;
                                harvest_breaks_into(dct, dtd, dbk, ntid, *pc as usize, &mut breaks)
                                    .map_err(PolyBail::Exec)?;
                            }
                        }
                    }
                    cur = *next;
                }
                PNode::End => break,
            }
        }
        breaks.sort_unstable_by_key(|b| match b {
            Break::Tau(v) | Break::Tid(v) | Break::Block(v) => *v,
        });
        breaks.dedup();
        let mut cat = [0u64; NCAT];
        for (o, v) in cat.iter_mut().zip(by_cat.iter()) {
            *o = *v as u64;
        }
        Ok(ThreadOutcome {
            count: count as u64,
            by_cat: cat,
            breaks,
        })
    }
}

/// Evaluate a [`CondExpr`] for a concrete thread, replicating
/// `setp_val`'s harvest + truth exactly: breakpoints are harvested from
/// the affine difference, and constant differences compare with the
/// type-aware wrap.
#[allow(clippy::too_many_arguments)]
fn eval_cond(
    cond: &CondExpr,
    cta: i128,
    tid: i128,
    ntid: i128,
    args: &[u64],
    nctaid: u64,
    pc: u32,
    breaks: &mut Vec<Break>,
) -> Result<bool, PolyBail> {
    let ev = |l: &SLin| -> Option<(i128, i128, i128)> {
        Some((
            l.ct.eval(args, nctaid)?,
            l.td.eval(args, nctaid)?,
            l.b.eval(args, nctaid)?,
        ))
    };
    let ((act, atd, ab), (bct, btd, bb)) = ev(&cond.a)
        .zip(ev(&cond.b))
        .ok_or(PolyBail::Unsupported("cond poly overflow"))?;
    let lin = |ct: i128, td: i128, b: i128| -> Option<i128> {
        ct.checked_mul(cta)?
            .checked_add(td.checked_mul(tid)?)?
            .checked_add(b)
    };
    let (dct, dtd, db) = (
        act.checked_sub(bct),
        atd.checked_sub(btd),
        ab.checked_sub(bb),
    );
    let ((dct, dtd), db) = dct
        .zip(dtd)
        .zip(db)
        .ok_or(PolyBail::Unsupported("cond poly overflow"))?;
    harvest_breaks_into(dct, dtd, db, ntid, pc as usize, breaks).map_err(PolyBail::Exec)?;
    let (va, vb) = lin(act, atd, ab)
        .zip(lin(bct, btd, bb))
        .ok_or(PolyBail::Unsupported("cond poly overflow"))?;
    let truth = if dct == 0 && dtd == 0 {
        cond.cmp.eval_i(wrap_for(cond.t, va), wrap_for(cond.t, vb))
    } else {
        cond.cmp.eval_i(va, vb)
    };
    Ok(truth)
}

fn complement(c: CmpOp) -> CmpOp {
    match c {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

/// First `k >= 1` at which the loop guard says *exit*, for the guard
/// difference trajectory `d_k = d1 + (k-1)*dd`. The back edge is taken
/// while `truth != neg`, so the exit predicate is `cmp` itself when
/// `neg` and its complement otherwise. `None` = the loop never exits
/// under the linear model (the interpreter would run to its step limit;
/// the caller falls back so it does exactly that).
fn first_exit(cmp: CmpOp, neg: bool, d1: i128, dd: i128) -> Option<i128> {
    let q = if neg { cmp } else { complement(cmp) };
    match q {
        CmpOp::Eq => {
            if d1 == 0 {
                Some(1)
            } else if dd == 0 || (-d1) % dd != 0 {
                None
            } else {
                let km1 = (-d1) / dd;
                if km1 >= 1 {
                    Some(1 + km1)
                } else {
                    None
                }
            }
        }
        CmpOp::Ne => {
            if d1 != 0 {
                Some(1)
            } else if dd != 0 {
                Some(2)
            } else {
                None
            }
        }
        CmpOp::Lt => first_low(d1, dd, -1),
        CmpOp::Le => first_low(d1, dd, 0),
        CmpOp::Gt => first_high(d1, dd, 1),
        CmpOp::Ge => first_high(d1, dd, 0),
    }
}

/// First `k >= 1` with `d1 + (k-1)*dd >= bound`.
fn first_high(d1: i128, dd: i128, bound: i128) -> Option<i128> {
    if d1 >= bound {
        return Some(1);
    }
    if dd <= 0 {
        return None;
    }
    let need = bound.checked_sub(d1)?; // > 0
    Some(1 + (need - 1) / dd + 1)
}

/// First `k >= 1` with `d1 + (k-1)*dd <= bound`.
fn first_low(d1: i128, dd: i128, bound: i128) -> Option<i128> {
    if d1 <= bound {
        return Some(1);
    }
    if dd >= 0 {
        return None;
    }
    let need = d1.checked_sub(bound)?; // > 0
    let step = dd.checked_neg()?; // > 0
    Some(1 + (need - 1) / step + 1)
}

/// Verify a guard-operand trajectory stays inside the wrap-identity
/// domain of its comparison type for `k` in `1..=trips` (endpoints
/// suffice: the trajectory is linear in `k`). Outside the domain the
/// interpreter's wrapped compare diverges from the linear model, so the
/// launch falls back.
fn check_range(t: Type, v1: i128, dv: i128, trips: i128) -> Result<(), PolyBail> {
    let (lo, hi) = match t {
        Type::U32 | Type::B32 => (0, u32::MAX as i128),
        Type::U64 => (0, u64::MAX as i128),
        _ => return Ok(()), // wrap_for is the identity for signed/float
    };
    let vend = dv
        .checked_mul(trips - 1)
        .and_then(|x| v1.checked_add(x))
        .ok_or(PolyBail::Unsupported("loop range overflow"))?;
    if v1 < lo || v1 > hi || vend < lo || vend > hi {
        return Err(PolyBail::Unsupported("loop leaves wrap domain"));
    }
    Ok(())
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn s_add(a: &SVal, b: &SVal) -> SVal {
    match (a, b) {
        (SVal::Lin(la), SVal::Lin(lb)) => la.add(lb).map(SVal::Lin).unwrap_or(SVal::Unknown),
        _ => SVal::Unknown,
    }
}

fn s_sub(a: &SVal, b: &SVal) -> SVal {
    match (a, b) {
        (SVal::Lin(la), SVal::Lin(lb)) => la.sub(lb).map(SVal::Lin).unwrap_or(SVal::Unknown),
        _ => SVal::Unknown,
    }
}

fn s_scale_lit(a: &SVal, k: i128) -> SVal {
    match a {
        SVal::Lin(l) => l
            .scale_poly(&ArgPoly::cnst(k))
            .map(SVal::Lin)
            .unwrap_or(SVal::Unknown),
        _ => SVal::Unknown,
    }
}

/// `a | b` folded to `a + b` when provably disjoint *on every launch*:
/// the symbolic analogue of the interpreter's Fig. 2 `shl`/`or` gid
/// idiom. All six affine components must be launch-independent and
/// non-negative (so both runtime ranges have non-negative lower bounds),
/// and the bounded side must have no block slope (so its upper bound is
/// launch-independent); then "alignment of one side exceeds the other's
/// upper bound" implies the interpreter's runtime check for every
/// launch.
fn or_idiom(a: &SVal, b: &SVal, ntid: u32) -> SVal {
    let (SVal::Lin(la), SVal::Lin(lb)) = (a, b) else {
        return SVal::Unknown;
    };
    let lits = |l: &SLin| -> Option<(i128, i128, i128)> {
        Some((l.ct.as_const()?, l.td.as_const()?, l.b.as_const()?))
    };
    let (Some(ca), Some(cb)) = (lits(la), lits(lb)) else {
        return SVal::Unknown;
    };
    let ((act, atd, ab), (bct, btd, bb)) = (ca, cb);
    if [act, atd, ab, bct, btd, bb].iter().any(|&x| x < 0) {
        return SVal::Unknown;
    }
    let n = ntid as i128;
    let align = |ct: i128, td: i128, b: i128| -> i128 {
        let g = gcd(gcd(ct.unsigned_abs(), td.unsigned_abs()), b.unsigned_abs()) as i128;
        if g == 0 {
            i128::MAX
        } else {
            g & g.wrapping_neg()
        }
    };
    let bh = (bct == 0).then(|| btd * (n - 1) + bb);
    let ah = (act == 0).then(|| atd * (n - 1) + ab);
    let disjoint = bh.is_some_and(|bh| align(act, atd, ab) > bh)
        || ah.is_some_and(|ah| align(bct, btd, bb) > ah);
    if disjoint {
        s_add(a, b)
    } else {
        SVal::Unknown
    }
}

/// Symbolic mirror of the interpreter's `bin_val`. Folds only where the
/// interpreter folds on *every* launch: uniform forms stand in for
/// runtime constants, literals for launch-independent constants.
/// Anything less precise degrades to `Unknown`, which can only cause a
/// fallback — never a diverging count.
fn sym_bin(op: BinOp, t: Type, a: &SVal, b: &SVal, ntid: u32) -> SVal {
    use BinOp::*;
    if t.is_float() {
        return match (op, a, b) {
            (Add, SVal::F32(x), SVal::F32(y)) => SVal::F32(x + y),
            (Sub, SVal::F32(x), SVal::F32(y)) => SVal::F32(x - y),
            (Mul, SVal::F32(x), SVal::F32(y)) => SVal::F32(x * y),
            (Div, SVal::F32(x), SVal::F32(y)) => SVal::F32(x / y),
            (Min, SVal::F32(x), SVal::F32(y)) => SVal::F32(x.min(*y)),
            (Max, SVal::F32(x), SVal::F32(y)) => SVal::F32(x.max(*y)),
            _ => SVal::Unknown,
        };
    }
    let lit2 = || a.as_literal().zip(b.as_literal());
    match op {
        Add => s_add(a, b),
        Sub => s_sub(a, b),
        Mul | MulWide => match (a, b) {
            (SVal::Lin(la), SVal::Lin(lb)) if la.is_uniform() => {
                lb.scale_poly(&la.b).map(SVal::Lin).unwrap_or(SVal::Unknown)
            }
            (SVal::Lin(la), SVal::Lin(lb)) if lb.is_uniform() => {
                la.scale_poly(&lb.b).map(SVal::Lin).unwrap_or(SVal::Unknown)
            }
            _ => SVal::Unknown,
        },
        Div => match lit2() {
            Some((x, y)) if y != 0 => SVal::lit(x.div_euclid(y)),
            _ => SVal::Unknown,
        },
        Rem => match lit2() {
            Some((x, y)) if y != 0 => SVal::lit(x.rem_euclid(y)),
            _ => SVal::Unknown,
        },
        Min => match lit2() {
            Some((x, y)) => SVal::lit(x.min(y)),
            _ => SVal::Unknown,
        },
        Max => match lit2() {
            Some((x, y)) => SVal::lit(x.max(y)),
            _ => SVal::Unknown,
        },
        Shl => match b.as_literal() {
            Some(k) if (0..63).contains(&k) => s_scale_lit(a, 1i128 << k),
            _ => SVal::Unknown,
        },
        Shr => match lit2() {
            Some((x, k)) if (0..63).contains(&k) => SVal::lit(x >> k),
            _ => SVal::Unknown,
        },
        And => match lit2() {
            Some((x, y)) => SVal::lit(x & y),
            _ => SVal::Unknown,
        },
        Or => match lit2() {
            Some((x, y)) => SVal::lit(x | y),
            _ => or_idiom(a, b, ntid),
        },
        Xor => match lit2() {
            Some((x, y)) => SVal::lit(x ^ y),
            _ => SVal::Unknown,
        },
    }
}

/// Symbolic mirror of `un_val`. `Not` folds to `-x - 1` on uniform forms
/// (exactly the two's-complement fold the interpreter applies to its
/// runtime constants); sloped operands stay `Unknown` like the
/// interpreter's.
fn sym_un(op: UnOp, a: &SVal) -> SVal {
    match (op, a) {
        (UnOp::Neg, SVal::Lin(_)) => s_scale_lit(a, -1),
        (UnOp::Neg, SVal::F32(x)) => SVal::F32(-x),
        (UnOp::Abs, SVal::F32(x)) => SVal::F32(x.abs()),
        (UnOp::Sqrt, SVal::F32(x)) => SVal::F32(x.sqrt()),
        (UnOp::Rcp, SVal::F32(x)) => SVal::F32(1.0 / x),
        (UnOp::Ex2, SVal::F32(x)) => SVal::F32(x.exp2()),
        (UnOp::Lg2, SVal::F32(x)) => SVal::F32(x.log2()),
        (UnOp::Not, SVal::Lin(l)) if l.is_uniform() => {
            l.b.neg()
                .and_then(|p| p.sub(&ArgPoly::cnst(1)))
                .map(|p| SVal::Lin(SLin::from_poly(p)))
                .unwrap_or(SVal::Unknown)
        }
        _ => SVal::Unknown,
    }
}

/// Symbolic mirror of `cvt_val`. Bit reinterpretations fold only on full
/// literals (the interpreter also folds launch-dependent runtime
/// constants there; losing those cases degrades to `Unknown`, which is
/// fallback-safe).
fn sym_cvt(to: Type, from: Type, v: &SVal) -> SVal {
    match (to, from) {
        (Type::U64, Type::U32) | (Type::U32, Type::U64) | (Type::S32, Type::U32) => v.clone(),
        (Type::F32, Type::B32) => match v.as_literal() {
            Some(x) => SVal::F32(f32::from_bits(x as u32)),
            None => SVal::Unknown,
        },
        (Type::F32, Type::U32) | (Type::F32, Type::S32) => match v.as_literal() {
            Some(x) => SVal::F32(x as f32),
            None => SVal::Unknown,
        },
        (Type::U32, Type::F32) | (Type::S32, Type::F32) => match v {
            SVal::F32(x) => SVal::lit(*x as i128),
            _ => SVal::Unknown,
        },
        _ => v.clone(),
    }
}

/// Symbolic mirror of `setp_val`. Truth is `Some` only when it is the
/// same on every launch (both operands fully literal, compared with the
/// interpreter's wrap rule, or a float compare); affine operand pairs
/// always carry a [`CondExpr`] for runtime resolution.
fn sym_setp(cmp: CmpOp, t: Type, a: &SVal, b: &SVal, tainted: bool) -> SPred {
    match (a, b) {
        (SVal::F32(x), SVal::F32(y)) => SPred {
            truth: Some(cmp.eval_f(*x, *y)),
            cond: None,
            tainted,
        },
        (SVal::Lin(la), SVal::Lin(lb)) => {
            if la.sub(lb).is_none() {
                // coefficient overflow: can't carry an exact difference
                return SPred::opaque(tainted);
            }
            let truth = la
                .as_literal()
                .zip(lb.as_literal())
                .map(|(x, y)| cmp.eval_i(wrap_for(t, x), wrap_for(t, y)));
            SPred {
                truth,
                cond: Some(CondExpr {
                    cmp,
                    t,
                    a: la.clone(),
                    b: lb.clone(),
                }),
                tainted,
            }
        }
        _ => SPred::opaque(tainted),
    }
}

/// Straight-line cost accumulator (one pending [`PNode::Cost`]).
#[derive(Debug, Clone, PartialEq)]
struct CostAcc {
    count: u64,
    by_cat: [u64; NCAT],
    params: Vec<(u32, u64)>,
}

impl CostAcc {
    fn new() -> Self {
        CostAcc {
            count: 0,
            by_cat: [0; NCAT],
            params: Vec::new(),
        }
    }
}

/// One compile-known guard decision inside a loop body. The symbolic
/// difference `d` is recorded so pass-to-pass equality proves the
/// decision can never drift (equal captured polynomials across passes
/// force the drift functional to zero).
#[derive(Debug, Clone, PartialEq)]
struct SeqEntry {
    pc: u32,
    d: SLin,
    taken: bool,
}

/// Per-pass body bookkeeping.
#[derive(Debug, Default)]
struct BodyScratch {
    seq: Vec<SeqEntry>,
    written: BTreeSet<u32>,
    pwritten: BTreeSet<u32>,
}

/// Guard classification for one instruction.
enum G {
    /// Executes (no guard, or compile-known true).
    T,
    /// Predicated off on every launch: destination untouched.
    F,
    /// Runtime-resolvable comparison (drives [`PNode::Branch`]).
    Cond { slot: u32 },
    /// Truth unknown to the compiler (the interpreter may still know it):
    /// destinations become opaque, error-carrying ops bail.
    Opaque,
    /// Compile-known *this* iteration but not provably stable across
    /// iterations (body mode only).
    Unstable,
}

fn classify(env: &SEnv, guard: Option<(u32, bool)>, body: bool) -> G {
    let Some((p, neg)) = guard else {
        return G::T;
    };
    let Some(sp) = &env.preds[p as usize] else {
        return G::Opaque;
    };
    if let Some(v) = sp.truth {
        // a body decision is only stable if the fixed-point check can see
        // its defining comparison (cond) and the capture is untainted
        if body && (sp.cond.is_none() || sp.tainted) {
            return G::Unstable;
        }
        if v != neg {
            G::T
        } else {
            G::F
        }
    } else if sp.cond.is_some() && !sp.tainted {
        G::Cond { slot: p }
    } else if body {
        G::Unstable
    } else {
        G::Opaque
    }
}

fn sval(env: &SEnv, o: &DOperand) -> SVal {
    match *o {
        DOperand::Slot(i) => env.regs[i as usize].clone(),
        DOperand::Val(Val::Lin { ct, td, b }) => SVal::Lin(SLin::literal(ct, td, b)),
        DOperand::Val(Val::F32(x)) => SVal::F32(x),
        DOperand::Val(Val::Unknown) => SVal::Unknown,
        DOperand::NCtaId => SVal::Lin(SLin::from_poly(ArgPoly::slot(NCTAID_SLOT))),
    }
}

fn otaint(env: &SEnv, o: &DOperand) -> bool {
    matches!(*o, DOperand::Slot(i) if env.taint[i as usize])
}

/// Does this operand's value drift across loop iterations (written in
/// the body, or already tainted)? Non-affine folds over drifting inputs
/// can mimic linearity for the three checked passes and then diverge, so
/// their destinations must be tainted.
fn drifts(env: &SEnv, w: &BTreeSet<u32>, o: &DOperand) -> bool {
    matches!(*o, DOperand::Slot(i) if w.contains(&i) || env.taint[i as usize])
}

type BodyCtx<'a, 'b> = Option<(&'a mut BodyScratch, &'b BTreeSet<u32>)>;

fn write_reg(env: &mut SEnv, body: &mut BodyCtx<'_, '_>, dst: u32, v: SVal, tnt: bool) {
    env.regs[dst as usize] = v;
    env.taint[dst as usize] = tnt;
    if let Some((bs, _)) = body {
        bs.written.insert(dst);
    }
}

fn write_pred(env: &mut SEnv, body: &mut BodyCtx<'_, '_>, dst: u32, sp: SPred) {
    env.preds[dst as usize] = Some(sp);
    if let Some((bs, _)) = body {
        bs.pwritten.insert(dst);
    }
}

struct Compiler<'a> {
    prog: &'a DenseProgram,
    /// Per-pc evaluation flags, mirroring `Machine::with_slice`.
    evaluate: Vec<bool>,
    /// Per-pc (one past the end included): is this a forward-branch target,
    /// where the arms of an earlier branch can meet again?
    join: Vec<bool>,
    /// Compiled suffixes by join pc: the symbolic state on arrival and the
    /// head node of everything from there on. A later arrival in an equal
    /// state links to that node instead of compiling the suffix again.
    joined: HashMap<usize, Vec<(SEnv, u32)>>,
    /// Join states held in `joined` plus those pending in open
    /// [`Compiler::compile_from`] frames (bounded by [`MAX_JOIN_STATES`]).
    join_states: usize,
    nodes: Vec<PNode>,
    sym_steps: u64,
}

impl Compiler<'_> {
    fn tick(&mut self) -> Result<(), Bail> {
        self.sym_steps += 1;
        if self.sym_steps > MAX_SYM_STEPS {
            return Err("symbolic step budget exhausted");
        }
        Ok(())
    }

    fn push(&mut self, n: PNode) -> Result<u32, Bail> {
        if self.nodes.len() >= MAX_NODES {
            return Err("node budget exhausted");
        }
        self.nodes.push(n);
        Ok((self.nodes.len() - 1) as u32)
    }

    fn flush(&mut self, acc: CostAcc, next: u32) -> Result<u32, Bail> {
        if acc.count == 0 {
            return Ok(next);
        }
        self.push(PNode::Cost {
            count: acc.count,
            by_cat: Box::new(acc.by_cat),
            params: acc.params,
            next,
        })
    }

    /// Symbolically execute one non-branch, non-ret instruction.
    fn exec_inst(
        &mut self,
        pc: usize,
        inst: &DInst,
        env: &mut SEnv,
        acc: &mut CostAcc,
        mut body: BodyCtx<'_, '_>,
    ) -> Result<(), Bail> {
        let in_body = body.is_some();
        // slice mode: off-slice instructions only poison their
        // destination, guard ignored — exactly the interpreter's path
        if !self.evaluate[pc] {
            match inst.off_dst {
                OffDst::Value(d) => write_reg(env, &mut body, d, SVal::Unknown, in_body),
                OffDst::Pred(d) => write_pred(env, &mut body, d, SPred::opaque(in_body)),
                OffDst::None => {}
            }
            return Ok(());
        }
        let g = classify(env, inst.guard, in_body);
        // record stable body guard decisions for the fixed-point check
        if in_body && matches!(g, G::T | G::F) {
            if let Some((p, _)) = inst.guard {
                let sp = env.preds[p as usize].as_ref().expect("stable guard");
                let c = sp.cond.as_ref().expect("stable guard");
                let d = c.a.sub(&c.b).ok_or("guard difference overflow")?;
                if let Some((bs, _)) = body.as_mut() {
                    bs.seq.push(SeqEntry {
                        pc: pc as u32,
                        d,
                        taken: matches!(g, G::T),
                    });
                }
            }
        }
        if matches!(g, G::F) {
            return Ok(()); // predicated off: destination untouched
        }
        let exact = matches!(g, G::T);
        match &inst.op {
            DOp::Set { dst, src } => {
                let (v, tnt) = if exact {
                    (sval(env, src), otaint(env, src))
                } else {
                    (SVal::Unknown, in_body)
                };
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::MovPred { dst, src } => {
                if exact {
                    if let Some(s) = src {
                        if let Some(pi) = env.preds[*s as usize].clone() {
                            write_pred(env, &mut body, *dst, pi);
                        }
                    }
                } else {
                    write_pred(env, &mut body, *dst, SPred::opaque(in_body));
                }
            }
            DOp::LdParam { dst, pslot } => {
                if !exact {
                    // the interpreter's missing-arg error fires only when
                    // the guard is not false; an unknown guard makes the
                    // error set launch-dependent in ways we can't encode
                    return Err("guarded ld.param with unresolved guard");
                }
                if *pslot >= NCTAID_SLOT as u32 {
                    return Err("parameter slot out of range");
                }
                acc.params.push((*pslot, acc.count - 1));
                let v = SVal::Lin(SLin::from_poly(ArgPoly::slot(*pslot as u16)));
                write_reg(env, &mut body, *dst, v, false);
            }
            DOp::ParamErr { .. } => return Err("unresolvable ld.param"),
            DOp::Bin { op, t, dst, a, b } => {
                let (v, tnt) = if exact {
                    let va = sval(env, a);
                    let vb = sval(env, b);
                    let base = otaint(env, a) || otaint(env, b);
                    let extra = match (&body, op) {
                        (
                            Some((_, w)),
                            BinOp::Div
                            | BinOp::Rem
                            | BinOp::Min
                            | BinOp::Max
                            | BinOp::And
                            | BinOp::Or
                            | BinOp::Xor
                            | BinOp::Shr,
                        ) => drifts(env, w, a) || drifts(env, w, b),
                        (Some((_, w)), BinOp::Shl) => drifts(env, w, b),
                        _ => false,
                    };
                    (sym_bin(*op, *t, &va, &vb, self.prog.ntid()), base || extra)
                } else {
                    (SVal::Unknown, in_body)
                };
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::Un { op, dst, a } => {
                let (v, tnt) = if exact {
                    (sym_un(*op, &sval(env, a)), otaint(env, a))
                } else {
                    (SVal::Unknown, in_body)
                };
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::Mad { t, dst, a, b, c } => {
                let (v, tnt) = if exact {
                    let prod = sym_bin(
                        BinOp::Mul,
                        *t,
                        &sval(env, a),
                        &sval(env, b),
                        self.prog.ntid(),
                    );
                    let v = sym_bin(BinOp::Add, *t, &prod, &sval(env, c), self.prog.ntid());
                    (v, otaint(env, a) || otaint(env, b) || otaint(env, c))
                } else {
                    (SVal::Unknown, in_body)
                };
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::Cvt { to, from, dst, src } => {
                let (v, tnt) = if exact {
                    let base = otaint(env, src);
                    // an int from a drifting float can track an affine
                    // sequence for the checked passes and then diverge
                    // (precision), so it may not justify decisions
                    let extra = match (&body, to, from) {
                        (Some((_, w)), Type::U32 | Type::S32, Type::F32) => drifts(env, w, src),
                        _ => false,
                    };
                    (sym_cvt(*to, *from, &sval(env, src)), base || extra)
                } else {
                    (SVal::Unknown, in_body)
                };
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::Setp { cmp, t, dst, a, b } => {
                let sp = if exact {
                    let tnt = otaint(env, a) || otaint(env, b);
                    sym_setp(*cmp, *t, &sval(env, a), &sval(env, b), tnt)
                } else {
                    SPred::opaque(in_body)
                };
                write_pred(env, &mut body, *dst, sp);
            }
            DOp::Selp { dst, a, b, p } => {
                let mut out: Option<(SVal, bool)> = None;
                if exact {
                    if let Some(sp) = env.preds[*p as usize].as_ref() {
                        let stable = !in_body || (sp.cond.is_some() && !sp.tainted);
                        if let (Some(pick), true) = (sp.truth, stable) {
                            if in_body {
                                let c = sp.cond.as_ref().expect("stable selp");
                                let d = c.a.sub(&c.b).ok_or("selp difference overflow")?;
                                if let Some((bs, _)) = body.as_mut() {
                                    bs.seq.push(SeqEntry {
                                        pc: pc as u32,
                                        d,
                                        taken: pick,
                                    });
                                }
                            }
                            let o = if pick { a } else { b };
                            out = Some((sval(env, o), otaint(env, o) || sp.tainted));
                        }
                    }
                }
                let (v, tnt) = out.unwrap_or((SVal::Unknown, in_body));
                write_reg(env, &mut body, *dst, v, tnt);
            }
            DOp::Nop | DOp::Bra { .. } | DOp::Ret => {}
        }
        Ok(())
    }

    /// Compile from `pc` with symbolic state `env`, returning the head
    /// node of the compiled suffix.
    ///
    /// Join points (forward-branch targets) cut the pending cost segment.
    /// If an equal state reached the same join before, the segment links
    /// to that compiled suffix and compilation stops; otherwise the state
    /// is recorded once this suffix's head is known. The suffix from a
    /// join depends on nothing but its pc and state, and a cut leaves
    /// evaluation unchanged (each segment checks its parameter loads and
    /// the step limit against the running count), so the arms of a branch
    /// share one copy of the code after it instead of one copy each.
    fn compile_from(&mut self, mut pc: usize, mut env: SEnv, depth: u32) -> Result<u32, Bail> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep");
        }
        let mut acc = CostAcc::new();
        // segments cut at the joins passed: (cost before, join pc, state)
        let mut pending: Vec<(CostAcc, usize, SEnv)> = Vec::new();
        let mut head = loop {
            if self.join[pc] {
                let seen = self.joined.get(&pc).and_then(|states| {
                    states
                        .iter()
                        .find(|(state, _)| *state == env)
                        .map(|&(_, node)| node)
                });
                if let Some(node) = seen {
                    break self.flush(acc, node)?;
                }
                if self.join_states < MAX_JOIN_STATES {
                    self.join_states += 1;
                    pending.push((std::mem::replace(&mut acc, CostAcc::new()), pc, env.clone()));
                }
            }
            self.tick()?;
            if pc >= self.prog.prog.len() {
                let end = self.push(PNode::End)?;
                break self.flush(acc, end)?;
            }
            let inst = self.prog.prog[pc].clone();
            acc.count += 1;
            acc.by_cat[inst.cat_idx as usize] += 1;
            if let DOp::Bra { target } = inst.op {
                match classify(&env, inst.guard, false) {
                    // compile-known guards have launch-independent (or
                    // absent) affine differences, so the interpreter's
                    // harvest on them is a no-op — following the edge
                    // directly is exact
                    G::T => {
                        pc = target.ok_or("branch to undefined label")? as usize;
                        continue;
                    }
                    G::F => {
                        pc += 1;
                        continue;
                    }
                    G::Cond { slot } => {
                        let t = target.ok_or("branch to undefined label")? as usize;
                        let neg = inst.guard.expect("cond guard").1;
                        if t <= pc {
                            let tail = self.close_loop(t, pc, neg, slot, &env, depth)?;
                            break self.flush(acc, tail)?;
                        }
                        let cond = env.preds[slot as usize]
                            .as_ref()
                            .and_then(|sp| sp.cond.clone())
                            .expect("cond guard");
                        let taken = self.compile_from(t, env.clone(), depth + 1)?;
                        let fall = self.compile_from(pc + 1, env, depth + 1)?;
                        let b = self.push(PNode::Branch {
                            pc: pc as u32,
                            neg,
                            cond,
                            taken,
                            fall,
                        })?;
                        break self.flush(acc, b)?;
                    }
                    _ => return Err("branch guard unresolvable"),
                }
            }
            if matches!(inst.op, DOp::Ret) {
                let end = self.push(PNode::End)?;
                break self.flush(acc, end)?;
            }
            self.exec_inst(pc, &inst, &mut env, &mut acc, None)?;
            pc += 1;
        };
        for (acc, at, state) in pending.into_iter().rev() {
            self.joined.entry(at).or_default().push((state, head));
            head = self.flush(acc, head)?;
        }
        Ok(head)
    }

    /// Symbolically execute one loop-body pass from `pc_h`, stopping at
    /// the back-edge branch `pc_b` (which is counted but not followed).
    fn run_body(
        &mut self,
        pc_h: usize,
        pc_b: usize,
        env: &mut SEnv,
        w: &BTreeSet<u32>,
    ) -> Result<(CostAcc, BodyScratch), Bail> {
        let mut acc = CostAcc::new();
        let mut bs = BodyScratch::default();
        let mut pc = pc_h;
        loop {
            self.tick()?;
            if pc >= self.prog.prog.len() {
                return Err("loop body escapes program");
            }
            let inst = self.prog.prog[pc].clone();
            acc.count += 1;
            acc.by_cat[inst.cat_idx as usize] += 1;
            if pc == pc_b {
                if !matches!(inst.op, DOp::Bra { .. }) {
                    return Err("back edge is not a branch");
                }
                return Ok((acc, bs));
            }
            if let DOp::Bra { target } = inst.op {
                let g = classify(env, inst.guard, true);
                let taken = match g {
                    G::T | G::F => {
                        if let Some((p, _)) = inst.guard {
                            let sp = env.preds[p as usize].as_ref().expect("stable guard");
                            let c = sp.cond.as_ref().expect("stable guard");
                            let d = c.a.sub(&c.b).ok_or("guard difference overflow")?;
                            bs.seq.push(SeqEntry {
                                pc: pc as u32,
                                d,
                                taken: matches!(g, G::T),
                            });
                        }
                        matches!(g, G::T)
                    }
                    _ => return Err("divergent branch in loop body"),
                };
                if taken {
                    let t = target.ok_or("branch to undefined label")? as usize;
                    if t < pc_h || t > pc_b {
                        return Err("loop body escapes");
                    }
                    pc = t;
                } else {
                    pc += 1;
                }
                continue;
            }
            if matches!(inst.op, DOp::Ret) {
                return Err("ret inside loop body");
            }
            self.exec_inst(pc, &inst, env, &mut acc, Some((&mut bs, w)))?;
            pc += 1;
        }
    }

    /// Close a backward [`G::Cond`] edge into a [`PNode::Loop`]; see the
    /// module docs for the translation-stability argument.
    #[allow(clippy::too_many_arguments)]
    fn close_loop(
        &mut self,
        pc_h: usize,
        pc_b: usize,
        neg: bool,
        gslot: u32,
        env1: &SEnv,
        depth: u32,
    ) -> Result<u32, Bail> {
        let guard_of = |env: &SEnv| -> Result<(CmpOp, Type, SLin, SLin), Bail> {
            let sp = env.preds[gslot as usize]
                .as_ref()
                .ok_or("loop guard unset")?;
            if sp.tainted {
                return Err("loop guard tainted");
            }
            let c = sp.cond.as_ref().ok_or("loop guard opaque")?;
            // ctaid/tid-sloped operands are fine (softmax's `i = tid`
            // strided loop); the stride-uniformity check below is what
            // keeps the per-iteration extrapolation exact
            Ok((c.cmp, c.t, c.a.clone(), c.b.clone()))
        };
        let (cmp1, t1, va1, vb1) = guard_of(env1)?;
        // discovery pass: the body's write set (decisions are truth-driven
        // and taint-independent, so the path — and thus the set — matches
        // the checked passes; under-tainting here can only hide an error
        // the checked passes will hit anyway)
        let w = {
            let mut probe = env1.clone();
            self.run_body(pc_h, pc_b, &mut probe, &BTreeSet::new())?
                .1
                .written
        };
        let mut e = env1.clone();
        let (acc_a, sa) = self.run_body(pc_h, pc_b, &mut e, &w)?;
        let e2 = e.clone();
        let (acc_b, sb) = self.run_body(pc_h, pc_b, &mut e, &w)?;
        let e3 = e.clone();
        let (acc_c, sc) = self.run_body(pc_h, pc_b, &mut e, &w)?;
        let e4 = e;
        let (cmp2, t2, va2, vb2) = guard_of(&e2)?;
        let (cmp3, t3, va3, vb3) = guard_of(&e3)?;
        let (cmp4, t4, va4, vb4) = guard_of(&e4)?;
        let stable_cmp = [cmp2, cmp3, cmp4]
            .iter()
            .all(|c| discriminant(c) == discriminant(&cmp1))
            && [t2, t3, t4]
                .iter()
                .all(|t| discriminant(t) == discriminant(&t1));
        if !stable_cmp {
            return Err("loop guard comparison unstable");
        }
        if acc_a != acc_b || acc_b != acc_c {
            return Err("loop body cost unstable");
        }
        if sa.seq != sb.seq || sb.seq != sc.seq {
            return Err("loop body decisions unstable");
        }
        if sa.written != w || sb.written != w || sc.written != w {
            return Err("loop body write set unstable");
        }
        if sa.pwritten != sb.pwritten || sb.pwritten != sc.pwritten {
            return Err("loop body predicate set unstable");
        }
        if e2.taint != e3.taint || e3.taint != e4.taint {
            return Err("loop body taint pattern unstable");
        }
        let ptaints = |env: &SEnv| -> Vec<Option<bool>> {
            env.preds
                .iter()
                .map(|p| p.as_ref().map(|s| s.tainted))
                .collect()
        };
        if ptaints(&e2) != ptaints(&e3) || ptaints(&e3) != ptaints(&e4) {
            return Err("loop body predicate taint unstable");
        }
        let delta3 = |x1: &SLin, x2: &SLin, x3: &SLin, x4: &SLin| -> Result<SLin, Bail> {
            let d1 = x2.sub(x1).ok_or("loop delta overflow")?;
            let d2 = x3.sub(x2).ok_or("loop delta overflow")?;
            let d3 = x4.sub(x3).ok_or("loop delta overflow")?;
            if d1 != d2 || d2 != d3 {
                return Err("loop guard drift nonlinear");
            }
            Ok(d1)
        };
        let dva = delta3(&va1, &va2, &va3, &va4)?;
        let dvb = delta3(&vb1, &vb2, &vb3, &vb4)?;
        // the guard difference's per-iteration step must be the same for
        // every thread: then the slope classification (uniform / tid /
        // tau / block / mixed) is identical at every iteration, and a
        // mixed-slope guard can only fire at k = 1 — exactly where the
        // interpreter raises it
        if !dva.sub(&dvb).ok_or("loop delta overflow")?.is_uniform() {
            return Err("loop stride not launch-uniform");
        }
        // every untainted affine register the body writes must translate
        // by a constant delta (the affine-map fixed point that makes the
        // linear extrapolation exact for all iterations)
        for &r in &w {
            let r = r as usize;
            if e4.taint[r] {
                continue; // tainted values never drive decisions
            }
            let vs = [&env1.regs[r], &e2.regs[r], &e3.regs[r], &e4.regs[r]];
            if vs.iter().all(|v| matches!(v, SVal::Lin(_))) {
                let lin = |v: &SVal| match v {
                    SVal::Lin(l) => l.clone(),
                    _ => unreachable!(),
                };
                let d1 = lin(vs[1]).sub(&lin(vs[0])).ok_or("loop delta overflow")?;
                let d2 = lin(vs[2]).sub(&lin(vs[1])).ok_or("loop delta overflow")?;
                let d3 = lin(vs[3]).sub(&lin(vs[2])).ok_or("loop delta overflow")?;
                if d1 != d2 || d2 != d3 {
                    return Err("loop register drift nonlinear");
                }
            } else if !(vs.iter().all(|v| matches!(v, SVal::F32(_)))
                || vs.iter().all(|v| matches!(v, SVal::Unknown)))
            {
                // mixed kinds: structure not provably stable. (All-float
                // and all-unknown are fine: floats cannot justify
                // decisions — their predicates carry no cond — and
                // unknowns reject them.)
                return Err("loop register kind unstable");
            }
        }
        // exit state: post-loop values are opaque and tainted (sound:
        // any decision on them falls back; counting never reads them)
        let mut exit_env = env1.clone();
        for &r in &w {
            exit_env.regs[r as usize] = SVal::Unknown;
            exit_env.taint[r as usize] = true;
        }
        for &p in &sa.pwritten {
            exit_env.preds[p as usize] = Some(SPred::opaque(true));
        }
        let next = self.compile_from(pc_b + 1, exit_env, depth + 1)?;
        self.push(PNode::Loop {
            cmp: cmp1,
            t: t1,
            neg,
            pc: pc_b as u32,
            va1,
            dva,
            vb1,
            dvb,
            body_count: acc_a.count,
            body_cat: Box::new(acc_a.by_cat),
            body_params: acc_a.params,
            next,
        })
    }
}

/// Compile a decoded kernel to a [`KernelPoly`], optionally restricted
/// to the branch slice `G_v*` (must match the slice the interpreter mode
/// in use runs with, so off-slice semantics line up). `Err` means "keep
/// using the interpreter for this kernel" and is counted in
/// `ptx.poly.fallbacks`.
pub fn compile_kernel(
    program: &DenseProgram,
    slice: Option<&HashSet<usize>>,
) -> Result<KernelPoly, &'static str> {
    POLY_ATTEMPTS.inc();
    let evaluate = match slice {
        None => vec![true; program.len()],
        Some(s) => (0..program.len()).map(|pc| s.contains(&pc)).collect(),
    };
    let mut join = vec![false; program.len() + 1];
    for (pc, inst) in program.prog.iter().enumerate() {
        if let DOp::Bra { target: Some(t) } = inst.op {
            if t as usize > pc {
                join[t as usize] = true;
            }
        }
    }
    let mut c = Compiler {
        prog: program,
        evaluate,
        join,
        joined: HashMap::new(),
        join_states: 0,
        nodes: Vec::new(),
        sym_steps: 0,
    };
    match c.compile_from(0, SEnv::new(program), 0) {
        Ok(root) => {
            POLY_COMPILED.inc();
            Ok(KernelPoly {
                nodes: c.nodes,
                root,
                ntid: program.ntid(),
                kernel_name: program.kernel_name().to_string(),
                param_names: program.param_names.clone(),
            })
        }
        Err(e) => {
            POLY_FALLBACKS.inc();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Machine;
    use crate::slice::branch_slice;
    use ptx::builder::KernelBuilder;
    use ptx::inst::{Address, Operand};
    use ptx::types::{Space, SpecialReg};
    use ptx::Kernel;
    use std::sync::Arc;

    fn guard_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("k", 256);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(1.0));
        kb.place_label(exit);
        kb.ret();
        kb.finish()
    }

    fn loop_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("lk", 128);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        kb.counted_loop(n, |kb, i| {
            let acc = kb.r();
            kb.bin(BinOp::Add, Type::U32, acc, i, Operand::ImmI(7));
        });
        kb.ret();
        kb.finish()
    }

    /// Assert poly and interpreter agree exactly (outcome or error) for
    /// one launch point, and return the poly-side result.
    fn assert_parity(
        kp: &KernelPoly,
        m: &Machine,
        nctaid: u64,
        ctaid: u64,
        tid: u32,
        args: &[u64],
        max_steps: u64,
    ) {
        let got = kp.eval_thread(nctaid, ctaid, tid, args, max_steps);
        let want = m.run(ctaid, tid);
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "outcome mismatch at ({ctaid},{tid})"),
            (Err(PolyBail::Exec(a)), Err(b)) => {
                assert_eq!(a, b, "error mismatch at ({ctaid},{tid})")
            }
            (g, w) => panic!("shape mismatch at ({ctaid},{tid}): poly={g:?} interp={w:?}"),
        }
    }

    #[test]
    fn guard_kernel_matches_interpreter() {
        let k = guard_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).expect("affine guard compiles");
        for &n in &[0u64, 1, 255, 700, 1024, 4096] {
            let m = Machine::from_program(prog.clone(), 4, &[n]);
            for ctaid in 0..4 {
                for &tid in &[0u32, 1, 127, 254, 255] {
                    assert_parity(&kp, &m, 4, ctaid, tid, &[n], u64::MAX);
                }
            }
        }
    }

    #[test]
    fn guard_kernel_matches_under_slice() {
        let k = guard_kernel();
        let slice = branch_slice(&k);
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, Some(&slice)).expect("sliced guard compiles");
        let m = Machine::from_program(prog.clone(), 4, &[700]).with_slice(&slice);
        for ctaid in 0..4 {
            for &tid in &[0u32, 63, 255] {
                assert_parity(&kp, &m, 4, ctaid, tid, &[700], u64::MAX);
            }
        }
    }

    #[test]
    fn counted_loop_matches_all_trip_counts() {
        let k = loop_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).expect("affine loop compiles");
        for &n in &[0u64, 1, 2, 3, 9, 100, 10_000] {
            let m = Machine::from_program(prog.clone(), 2, &[n]);
            assert_parity(&kp, &m, 2, 0, 0, &[n], u64::MAX);
            assert_parity(&kp, &m, 2, 1, 127, &[n], u64::MAX);
        }
    }

    #[test]
    fn step_limit_payload_is_identical() {
        let k = loop_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).unwrap();
        // limits that land before, inside and after the loop
        for limit in 1..40u64 {
            let mut m = Machine::from_program(prog.clone(), 1, &[5]);
            m.set_max_steps(limit);
            assert_parity(&kp, &m, 1, 0, 0, &[5], limit);
        }
    }

    #[test]
    fn unknown_param_payload_is_identical() {
        let k = guard_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).unwrap();
        let m = Machine::from_program(prog.clone(), 2, &[]);
        assert_parity(&kp, &m, 2, 0, 0, &[], u64::MAX);
    }

    #[test]
    fn u32_wrapping_arg_falls_back() {
        // 2^32 + 5 stored in a u64 arg read as u32: the interpreter's
        // comparisons wrap to `i < 5` (5 trips), while the unwrapped
        // linear trajectory would run 2^32 + 5 trips. The guard bound
        // leaves the u32 range, so the evaluator must refuse and send the
        // launch to the interpreter rather than extrapolate.
        let k = loop_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).unwrap();
        let n = (1u64 << 32) + 5;
        match kp.eval_thread(1, 0, 0, &[n], u64::MAX) {
            Err(PolyBail::Unsupported(_)) => {}
            other => panic!("expected range fallback, got {other:?}"),
        }
        // the wrapped guard that skips the loop entirely stays exact
        let m = Machine::from_program(prog.clone(), 1, &[1u64 << 33]);
        assert_parity(&kp, &m, 1, 0, 0, &[1u64 << 33], u64::MAX);
    }

    #[test]
    fn data_dependent_branch_fails_compilation() {
        let mut kb = KernelBuilder::new("dd", 32);
        let p = kb.param("buf", Type::U64);
        let a = kb.rd();
        kb.mov(Type::U64, a, Operand::ImmI(0));
        let v = kb.r();
        kb.ld(Space::Global, Type::U32, v, Address::reg(a));
        let pr = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, pr, v, Operand::ImmI(10));
        let done = kb.label();
        kb.bra_if(pr, false, done);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(0.0));
        kb.place_label(done);
        kb.ret();
        let k = kb.finish();
        let _ = p;
        let prog = DenseProgram::decode(&k);
        assert!(
            compile_kernel(&prog, None).is_err(),
            "data-dependent branch must fall back"
        );
    }

    #[test]
    fn nested_affine_body_ops_close() {
        // loop body with mad/mul/shl over the induction variable: values
        // drift affinely, so the loop must still close
        let mut kb = KernelBuilder::new("nested", 64);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let gid = kb.global_id();
        kb.counted_loop(n, |kb, i| {
            let x = kb.r();
            kb.mad(Type::U32, x, i, gid, Operand::ImmI(3));
            let y = kb.r();
            kb.bin(BinOp::Shl, Type::U32, y, x, Operand::ImmI(2));
        });
        kb.ret();
        let k = kb.finish();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).expect("affine body must close");
        for &n in &[0u64, 1, 17] {
            let m = Machine::from_program(prog.clone(), 3, &[n]);
            for ctaid in 0..3 {
                assert_parity(&kp, &m, 3, ctaid, 5, &[n], u64::MAX);
            }
        }
    }

    /// Softmax-style strided loop `for (i = tid; i < n; i += ntid)`,
    /// optionally with a gid-affine start `i = ctaid*ntid + tid`.
    fn strided_kernel(gid_start: bool) -> Kernel {
        let mut kb = KernelBuilder::new("strided", 128);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let i = kb.r();
        if gid_start {
            let gid = kb.global_id();
            kb.mov(Type::U32, i, gid);
        } else {
            let tid = kb.special(SpecialReg::TidX);
            kb.mov(Type::U32, i, tid);
        }
        let head = kb.label();
        let done = kb.label();
        let p0 = kb.p();
        kb.setp(CmpOp::Ge, Type::U32, p0, i, n);
        kb.bra_if(p0, false, done);
        kb.place_label(head);
        kb.bin(BinOp::Add, Type::U32, i, i, Operand::ImmI(128));
        let pr = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, pr, i, n);
        kb.bra_if(pr, false, head);
        kb.place_label(done);
        kb.ret();
        kb.finish()
    }

    #[test]
    fn tid_sloped_loop_guard_compiles_and_matches() {
        // softmax-style strided loop: induction starts at tid, so the
        // guard difference is tid-sloped while the stride is uniform —
        // the loop must compile and agree bit-for-bit (counts *and*
        // harvested breakpoints) with the interpreter at every thread
        let k = strided_kernel(false);
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).expect("tid-sloped strided loop must compile");
        for &n in &[0u64, 1, 64, 127, 128, 129, 255, 300, 1000] {
            let m = Machine::from_program(prog.clone(), 3, &[n]);
            for ctaid in 0..3 {
                for &tid in &[0u32, 1, 63, 126, 127] {
                    assert_parity(&kp, &m, 3, ctaid, tid, &[n], u64::MAX);
                }
            }
        }
    }

    #[test]
    fn gid_sloped_loop_guard_compiles_and_matches() {
        // grid-strided variant: induction starts at ctaid*ntid + tid, so
        // the guard difference carries both cta and tid slopes (the tau
        // classification); trips differ per block *and* per thread
        let k = strided_kernel(true);
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).expect("gid-sloped strided loop must compile");
        for &n in &[0u64, 1, 200, 384, 1000] {
            let m = Machine::from_program(prog.clone(), 4, &[n]);
            for ctaid in 0..4 {
                for &tid in &[0u32, 5, 127] {
                    assert_parity(&kp, &m, 4, ctaid, tid, &[n], u64::MAX);
                }
            }
        }
    }

    /// `k = 3; if (tid >= n) k = fall_k; for (i = 0; i < k; i++) ...`: a
    /// tid-sloped branch whose arms meet before a loop over `k`.
    fn join_kernel(fall_k: i64) -> Kernel {
        let mut kb = KernelBuilder::new("join", 64);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let k = kb.r();
        kb.mov(Type::U32, k, Operand::ImmI(3));
        let tid = kb.special(SpecialReg::TidX);
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, tid, n);
        let join = kb.label();
        kb.bra_if(p, false, join);
        kb.mov(Type::U32, k, Operand::ImmI(fall_k));
        kb.place_label(join);
        kb.counted_loop(k, |kb, i| {
            let x = kb.r();
            kb.bin(BinOp::Add, Type::U32, x, i, Operand::ImmI(1));
        });
        kb.ret();
        kb.finish()
    }

    #[test]
    fn join_merges_equal_states_and_keeps_different_ones_apart() {
        let same = join_kernel(3);
        let differ = join_kernel(7);
        let mut sizes = Vec::new();
        for k in [&same, &differ] {
            let prog = Arc::new(DenseProgram::decode(k));
            let kp = compile_kernel(&prog, None).expect("join kernel compiles");
            for &n in &[0u64, 10, 64] {
                let m = Machine::from_program(prog.clone(), 2, &[n]);
                for &tid in &[0u32, 9, 10, 63] {
                    assert_parity(&kp, &m, 2, 1, tid, &[n], u64::MAX);
                }
            }
            sizes.push(kp.node_count());
        }
        // equal states share the loop after the join; different ones each
        // get their own copy
        assert!(sizes[0] < sizes[1], "{sizes:?}");
    }

    #[test]
    fn join_states_compare_floats_by_bits() {
        // the arms leave 0.0 and -0.0 behind; `rcp` turns them into +inf
        // and -inf, which a later compile-known branch tells apart, so the
        // two join states must not merge
        let mut kb = KernelBuilder::new("signed_zero", 64);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(0.0));
        let tid = kb.special(SpecialReg::TidX);
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, tid, n);
        let join = kb.label();
        kb.bra_if(p, false, join);
        kb.mov(Type::F32, f, Operand::ImmF(-0.0));
        kb.place_label(join);
        let g = kb.f();
        kb.un(UnOp::Rcp, Type::F32, g, f);
        let q = kb.p();
        kb.setp(CmpOp::Gt, Type::F32, q, g, Operand::ImmF(0.0));
        let end = kb.label();
        kb.bra_if(q, false, end);
        for _ in 0..5 {
            let x = kb.f();
            kb.mov(Type::F32, x, Operand::ImmF(1.0));
        }
        kb.place_label(end);
        kb.ret();
        let k = kb.finish();
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, Some(&branch_slice(&k))).expect("compiles");
        let m = Machine::from_program(prog.clone(), 1, &[32]).with_slice(&branch_slice(&k));
        for &tid in &[0u32, 31, 32, 63] {
            assert_parity(&kp, &m, 1, 0, tid, &[32], u64::MAX);
        }
    }

    #[test]
    fn every_template_compiles_to_a_compact_dag() {
        // the softmax max/expsum kernels branch at each of their reduction
        // phases; without join merging every phase doubled the suffix and
        // each compiled to thousands of nodes
        for t in ptx_codegen::Template::ALL {
            let k = t.build();
            let prog = DenseProgram::decode(&k);
            let kp = compile_kernel(&prog, Some(&branch_slice(&k)))
                .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            assert!(
                kp.node_count() <= 128,
                "{}: {} nodes",
                t.name(),
                kp.node_count()
            );
        }
    }

    #[test]
    fn sloped_loop_step_limit_payload_is_identical() {
        // fuel limits landing before, inside and after a tid-sloped loop
        // must produce the interpreter's exact StepLimit payloads
        let k = strided_kernel(false);
        let prog = Arc::new(DenseProgram::decode(&k));
        let kp = compile_kernel(&prog, None).unwrap();
        for limit in 1..60u64 {
            let mut m = Machine::from_program(prog.clone(), 1, &[700]);
            m.set_max_steps(limit);
            assert_parity(&kp, &m, 1, 0, 3, &[700], limit);
        }
    }
}
