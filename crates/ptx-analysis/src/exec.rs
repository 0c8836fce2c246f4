//! The dynamic-code-analysis executor (paper Section IV-A).
//!
//! Executes one representative thread of a kernel launch, tracking every
//! integer value as an *affine form* `ct*ctaid.x + td*tid.x + b`. Branch
//! predicates over affine values are resolved exactly for the
//! representative *and* reported as breakpoints — thread indices where the
//! predicate flips — which lets the counting layer split the launch grid
//! into equivalence classes instead of executing every thread.
//!
//! Loads from global/shared memory produce opaque values. The kernels our
//! code generator emits never branch on loaded data (borders and max-pool
//! selections are `selp`-if-converted), which is what makes this analysis
//! exact; a data-dependent branch surfaces as [`ExecError::DataDependentBranch`].
//!
//! In *slice mode* the executor only evaluates the backward slice `G_v*` of
//! the branch predicates (computed via [`crate::depgraph`]) and merely
//! counts everything else — the paper's core trick for outrunning
//! simulators.
//!
//! # Dense decoding
//!
//! A kernel is decoded exactly once into a [`DenseProgram`]: virtual
//! registers become contiguous `u32` slots, labels become resolved `pc`
//! values, `ld.param` names become parameter-slot indices, and special
//! registers fold into immediate affine forms. The per-step register file
//! is then a flat `Vec<Val>` (plus a `Vec<Option<PredInfo>>` for
//! predicates) instead of `HashMap` probes per operand, and the counting
//! layer's per-grid-rectangle re-runs share the decoded program instead of
//! re-resolving operands every time. The decode is a pure re-encoding: the
//! interpreter's observable behaviour (counts, category mixes, breakpoints
//! and errors) is bit-identical to the original map-based machine.

use ptx::inst::{AddrBase, BodyElem, Category, Instruction, Op, Operand};
use ptx::kernel::Kernel;
use ptx::types::{BinOp, CmpOp, Reg, RegClass, Space, SpecialReg, Type, UnOp};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Completed representative-thread executions.
static EXEC_RUNS: obs::LazyCounter = obs::LazyCounter::new("ptx.exec.runs");
/// Instructions executed by completed representative threads.
static EXEC_STEPS: obs::LazyCounter = obs::LazyCounter::new("ptx.exec.steps");
/// Cooperative cancellation checks performed (one per
/// [`CANCEL_CHECK_INTERVAL`] interpreter steps).
static EXEC_CANCEL_CHECKS: obs::LazyCounter = obs::LazyCounter::new("ptx.exec.cancel_checks");
/// Executions aborted by a passed budget deadline.
static EXEC_CANCELLED: obs::LazyCounter = obs::LazyCounter::new("ptx.exec.cancelled");
/// Kernels decoded into dense programs (once per prepared kernel, not per
/// representative run).
static EXEC_DECODES: obs::LazyCounter = obs::LazyCounter::new("ptx.exec.decodes");

/// Steps between cooperative-cancellation checks; amortizes the clock
/// read to noise on the interpreter hot loop.
///
/// This is the executor's cancellation-latency contract: a passed budget
/// deadline is observed within at most `CANCEL_CHECK_INTERVAL` interpreter
/// steps of any single representative-thread execution. The check also
/// fires at step 0, so in *nested* execution (the counting layer
/// re-running the machine once per grid rectangle, including slice mode)
/// the bound holds across representative runs too — a fresh run observes
/// a passed deadline before executing its first instruction.
pub const CANCEL_CHECK_INTERVAL: u64 = 8192;

/// Execution budget for the symbolic executor and the simulator: step
/// fuel plus one optional wall-clock deadline, read at the cooperative
/// check points (every [`CANCEL_CHECK_INTERVAL`] interpreter steps, every
/// grid rectangle of the counting layer, every `SIM_CANCEL_CHECK_EVENTS`
/// simulator events). A passed deadline surfaces as
/// [`ExecError::Cancelled`]. Clones share the deadline, so every rayon
/// worker of one analysis stops on the same verdict.
#[derive(Debug, Clone, Default)]
pub struct ExecBudget {
    max_steps: Option<u64>,
    deadline: Option<Arc<Deadline>>,
}

/// The deadline shared by the clones of one budget.
#[derive(Debug)]
struct Deadline {
    at: Mutex<Instant>,
    /// A sliding deadline's limit: each check point that finds the
    /// deadline unexpired moves it to now + the limit.
    slide: Option<Duration>,
}

impl Deadline {
    fn new(after: Duration, slide: Option<Duration>) -> Arc<Self> {
        Arc::new(Deadline {
            at: Mutex::new(later(Instant::now(), after)),
            slide,
        })
    }

    /// Whether the deadline has passed. With `slide`, an unexpired sliding
    /// deadline moves to now + its limit. Only an unexpired deadline
    /// moves, and the clock is monotonic, so once passed it stays passed.
    fn passed(&self, slide: bool) -> bool {
        // every write stores a whole `Instant`, so a poisoned guard is valid
        let mut at = self.at.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if now >= *at {
            return true;
        }
        if let (true, Some(limit)) = (slide, self.slide) {
            *at = later(now, limit);
        }
        false
    }
}

/// `now + d`, saturating 2^32 s (136 years) ahead.
fn later(now: Instant, d: Duration) -> Instant {
    now.checked_add(d)
        .unwrap_or(now + Duration::from_secs(u32::MAX.into()))
}

impl ExecBudget {
    /// Default fuel per representative-thread execution. Generous: the
    /// largest zoo kernels execute ~10^6 instructions per thread.
    pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// A fixed deadline `after` from now: an engine tier's time slice.
    pub fn with_deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(Deadline::new(after, None));
        self
    }

    /// A sliding deadline: it passes once `limit` goes by without a check
    /// point, because each check point that finds it unexpired moves it to
    /// now + `limit`. A corpus cell's `--cell-timeout-ms`.
    pub fn with_silence_limit(mut self, limit: Duration) -> Self {
        self.deadline = Some(Deadline::new(limit, Some(limit)));
        self
    }

    pub fn max_steps(&self) -> u64 {
        self.max_steps.unwrap_or(Self::DEFAULT_MAX_STEPS)
    }

    /// The check point: whether the deadline has passed, sliding it if it
    /// has not. Once passed it stays passed. Without a deadline this is
    /// one `Option` test.
    #[inline]
    pub fn check(&self) -> bool {
        self.deadline.as_ref().is_some_and(|d| d.passed(true))
    }

    /// Whether the deadline has passed, without sliding it: the poll of a
    /// loop that waits instead of making progress.
    pub fn expired(&self) -> bool {
        self.deadline.as_ref().is_some_and(|d| d.passed(false))
    }
}

/// Number of instruction categories tracked.
pub const NCAT: usize = Category::ALL.len();

pub(crate) fn cat_index(c: Category) -> usize {
    Category::ALL
        .iter()
        .position(|x| *x == c)
        .expect("category")
}

/// An abstract value: affine in `(ctaid.x, tid.x)`, a concrete float, or
/// opaque.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// `ct*ctaid.x + td*tid.x + b` over exact integers.
    Lin {
        ct: i128,
        td: i128,
        b: i128,
    },
    F32(f32),
    Unknown,
}

impl Val {
    pub fn cnst(v: i128) -> Val {
        Val::Lin { ct: 0, td: 0, b: v }
    }

    fn as_const(&self) -> Option<i128> {
        match *self {
            Val::Lin { ct: 0, td: 0, b } => Some(b),
            _ => None,
        }
    }

    /// Evaluate at a concrete (ctaid, tid).
    fn eval(&self, ctaid: i128, tid: i128) -> Option<i128> {
        match *self {
            Val::Lin { ct, td, b } => Some(ct * ctaid + td * tid + b),
            _ => None,
        }
    }
}

/// A grid split point discovered from an affine branch predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Break {
    /// Split the linear thread index `tau = ctaid*ntid + tid` at this value.
    Tau(i128),
    /// Split the tid dimension (same in every block).
    Tid(i128),
    /// Split the block dimension.
    Block(i128),
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A branch depended on a non-affine (e.g. loaded) value.
    DataDependentBranch { pc: usize },
    /// A branch predicate was affine but not expressible as a tau/tid/block
    /// split (mixed slopes).
    MixedSlopePredicate { pc: usize },
    /// Instruction budget exhausted (runaway loop) in the named kernel.
    StepLimit { limit: u64, kernel: String },
    /// Grid-splitting budget exhausted while counting the named kernel.
    SplitBudget { limit: u64, kernel: String },
    /// Execution stopped by a passed [`ExecBudget`] deadline. `step`
    /// reports where the cancel landed: the interpreter step count
    /// of the representative execution (or, from the counting layer, the
    /// accumulated steps across all representative runs of the launch).
    Cancelled { kernel: String, step: u64 },
    /// `ld.param` referenced an unknown parameter name.
    UnknownParam { name: String },
    /// Branch to an undefined label.
    BadLabel { pc: usize },
    /// The launch configuration can never become resident on the target
    /// device (e.g. per-block shared memory exceeding the SM budget):
    /// zero blocks fit, so there is nothing meaningful to model.
    Unlaunchable { kernel: String, reason: String },
    /// An instruction-count accumulation overflowed `u64` (degenerate
    /// launches with huge `nblocks x ntid x per-thread counts`). Surfaced
    /// as a typed error instead of silently wrapping to a small count.
    CountOverflow { kernel: String },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DataDependentBranch { pc } => {
                write!(f, "data-dependent branch at instruction {pc}")
            }
            ExecError::MixedSlopePredicate { pc } => {
                write!(f, "mixed-slope affine predicate at instruction {pc}")
            }
            ExecError::StepLimit { limit, kernel } => {
                write!(f, "step limit {limit} exhausted in kernel `{kernel}`")
            }
            ExecError::SplitBudget { limit, kernel } => {
                write!(
                    f,
                    "grid-split budget {limit} exhausted in kernel `{kernel}`"
                )
            }
            ExecError::Cancelled { kernel, step } => {
                write!(f, "execution of kernel `{kernel}` cancelled at step {step}")
            }
            ExecError::UnknownParam { name } => write!(f, "unknown param {name}"),
            ExecError::BadLabel { pc } => write!(f, "bad label at {pc}"),
            ExecError::Unlaunchable { kernel, reason } => {
                write!(f, "kernel `{kernel}` is unlaunchable: {reason}")
            }
            ExecError::CountOverflow { kernel } => {
                write!(
                    f,
                    "instruction-count accumulation overflowed u64 in kernel `{kernel}`"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of executing one representative thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// Instructions on the thread's control-flow path (predicated-off
    /// instructions issue and are therefore counted).
    pub count: u64,
    pub by_cat: [u64; NCAT],
    /// Grid splits this thread's branch predicates imply.
    pub breaks: Vec<Break>,
}

/// Predicate-register state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredInfo {
    pub(crate) truth: Option<bool>,
    /// The affine difference `d` with `cmp(d, 0)` defining the predicate,
    /// kept for breakpoint derivation.
    pub(crate) lin: Option<(CmpOp, Val)>,
}

const PRED_UNSET: PredInfo = PredInfo {
    truth: None,
    lin: None,
};

/// A decoded operand: either a dense register slot or an immediate value
/// resolved at decode time (integer/float immediates and all special
/// registers except `%nctaid.x`, which is a launch property).
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOperand {
    /// Dense value-register slot.
    Slot(u32),
    /// Decode-time constant (immediates, `%tid.x`/`%ctaid.x` affine forms,
    /// `%ntid.x` and the y-dimension constants).
    Val(Val),
    /// `%nctaid.x`: resolved from the launch at run time.
    NCtaId,
}

/// Off-slice destination of an instruction, mirroring the original
/// machine's `inst.dst()` + register-class dispatch: predicate-class
/// destinations poison predicate state, everything else poisons the value
/// file.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OffDst {
    None,
    Value(u32),
    Pred(u32),
}

/// A decoded instruction operation over dense slots.
#[derive(Debug, Clone)]
pub(crate) enum DOp {
    /// Write `src` to a value slot (`mov`, non-param `ld`).
    Set {
        dst: u32,
        src: DOperand,
    },
    /// `mov` into a predicate register: copy predicate state when the
    /// source is a register with known predicate state (the original
    /// machine ignores immediates and never-defined sources).
    MovPred {
        dst: u32,
        src: Option<u32>,
    },
    /// `ld.param` with a resolved parameter slot; the argument value is
    /// looked up at run time (launches share the decoded program).
    LdParam {
        dst: u32,
        pslot: u32,
    },
    /// `ld.param` that can never resolve (unknown name or register-based
    /// address): errors when evaluated, opaque when off-slice.
    ParamErr {
        name: Box<str>,
    },
    Bin {
        op: BinOp,
        t: Type,
        dst: u32,
        a: DOperand,
        b: DOperand,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: DOperand,
    },
    Mad {
        t: Type,
        dst: u32,
        a: DOperand,
        b: DOperand,
        c: DOperand,
    },
    Cvt {
        to: Type,
        from: Type,
        dst: u32,
        src: DOperand,
    },
    Setp {
        cmp: CmpOp,
        t: Type,
        dst: u32,
        a: DOperand,
        b: DOperand,
    },
    Selp {
        dst: u32,
        a: DOperand,
        b: DOperand,
        p: u32,
    },
    /// Branch with the label already resolved to a `pc` (`None` = the
    /// label is undefined and taking the branch is [`ExecError::BadLabel`]).
    Bra {
        target: Option<u32>,
    },
    /// `st` / `bar`: counted, no value semantics.
    Nop,
    Ret,
}

/// One decoded instruction: operation, guard (dense predicate slot),
/// pre-computed category and off-slice destination.
#[derive(Debug, Clone)]
pub(crate) struct DInst {
    pub(crate) op: DOp,
    pub(crate) guard: Option<(u32, bool)>,
    pub(crate) cat: Category,
    pub(crate) cat_idx: u8,
    pub(crate) off_dst: OffDst,
}

/// Deterministic dense-slot allocator: registers get contiguous indices in
/// first-appearance order, exactly mirroring the original `HashMap<Reg, _>`
/// keying (value and predicate files are separate namespaces, as before).
#[derive(Default)]
struct SlotAlloc {
    map: HashMap<Reg, u32>,
}

impl SlotAlloc {
    fn get(&mut self, r: Reg) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(r).or_insert(next)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A kernel pre-decoded for repeated representative-thread execution:
/// dense register slots, resolved branch targets, parameter-slot indices
/// and folded special registers. Launch-independent, so the counting layer
/// decodes each kernel exactly once and shares the program across all of
/// its launches (and all grid-rectangle re-runs within a launch).
pub struct DenseProgram {
    pub(crate) prog: Vec<DInst>,
    /// Parameter slot -> name, for `UnknownParam` attribution.
    pub(crate) param_names: Vec<String>,
    pub(crate) nregs: usize,
    pub(crate) npreds: usize,
    ntid: u32,
    pub(crate) kernel_name: String,
}

impl DenseProgram {
    /// Decode `kernel` into a dense program. The decode is deterministic
    /// and behaviour-preserving; see the module docs.
    pub fn decode(kernel: &Kernel) -> Self {
        EXEC_DECODES.inc();
        let mut instrs: Vec<&Instruction> = Vec::with_capacity(kernel.num_instructions());
        let mut label_at: HashMap<u32, u32> = HashMap::new();
        for e in &kernel.body {
            match e {
                BodyElem::Label(l) => {
                    label_at.insert(*l, instrs.len() as u32);
                }
                BodyElem::Inst(i) => instrs.push(i),
            }
        }
        let param_names: Vec<String> = kernel.params.iter().map(|p| p.name.clone()).collect();
        let param_index: HashMap<&str, u32> = param_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as u32))
            .collect();
        let ntid = kernel.block_threads();

        let mut vals = SlotAlloc::default();
        let mut preds = SlotAlloc::default();
        let operand = |vals: &mut SlotAlloc, o: &Operand| -> DOperand {
            match o {
                Operand::Reg(r) => DOperand::Slot(vals.get(*r)),
                Operand::ImmI(v) => DOperand::Val(Val::cnst(*v as i128)),
                Operand::ImmF(v) => DOperand::Val(Val::F32(*v)),
                Operand::Special(s) => DOperand::Val(match s {
                    SpecialReg::TidX => Val::Lin { ct: 0, td: 1, b: 0 },
                    SpecialReg::CtaIdX => Val::Lin { ct: 1, td: 0, b: 0 },
                    SpecialReg::NTidX => Val::cnst(ntid as i128),
                    SpecialReg::NCtaIdX => return DOperand::NCtaId,
                    SpecialReg::TidY | SpecialReg::CtaIdY => Val::cnst(0),
                    SpecialReg::NTidY | SpecialReg::NCtaIdY => Val::cnst(1),
                }),
            }
        };

        let mut prog = Vec::with_capacity(instrs.len());
        for inst in &instrs {
            let op = match &inst.op {
                Op::Mov { dst, src, .. } => {
                    if dst.class == RegClass::P {
                        let src = match src {
                            Operand::Reg(r) => Some(preds.get(*r)),
                            _ => None,
                        };
                        DOp::MovPred {
                            dst: preds.get(*dst),
                            src,
                        }
                    } else {
                        DOp::Set {
                            dst: vals.get(*dst),
                            src: operand(&mut vals, src),
                        }
                    }
                }
                Op::Ld {
                    space, dst, addr, ..
                } => match space {
                    Space::Param => match &addr.base {
                        AddrBase::Param(name) => match param_index.get(name.as_str()) {
                            Some(&pslot) => DOp::LdParam {
                                dst: vals.get(*dst),
                                pslot,
                            },
                            None => DOp::ParamErr {
                                name: name.as_str().into(),
                            },
                        },
                        AddrBase::Reg(_) => DOp::ParamErr {
                            name: "<reg>".into(),
                        },
                    },
                    _ => DOp::Set {
                        dst: vals.get(*dst),
                        src: DOperand::Val(Val::Unknown),
                    },
                },
                Op::St { .. } | Op::Bar => DOp::Nop,
                Op::Bin { op, t, dst, a, b } => DOp::Bin {
                    op: *op,
                    t: *t,
                    dst: vals.get(*dst),
                    a: operand(&mut vals, a),
                    b: operand(&mut vals, b),
                },
                Op::Un { op, dst, a, .. } => DOp::Un {
                    op: *op,
                    dst: vals.get(*dst),
                    a: operand(&mut vals, a),
                },
                Op::Mad { t, dst, a, b, c } => DOp::Mad {
                    t: *t,
                    dst: vals.get(*dst),
                    a: operand(&mut vals, a),
                    b: operand(&mut vals, b),
                    c: operand(&mut vals, c),
                },
                Op::Cvt { to, from, dst, src } => DOp::Cvt {
                    to: *to,
                    from: *from,
                    dst: vals.get(*dst),
                    src: operand(&mut vals, src),
                },
                Op::Setp { cmp, t, dst, a, b } => DOp::Setp {
                    cmp: *cmp,
                    t: *t,
                    dst: preds.get(*dst),
                    a: operand(&mut vals, a),
                    b: operand(&mut vals, b),
                },
                Op::Selp { dst, a, b, p, .. } => DOp::Selp {
                    dst: vals.get(*dst),
                    a: operand(&mut vals, a),
                    b: operand(&mut vals, b),
                    p: preds.get(*p),
                },
                Op::Bra { target, .. } => DOp::Bra {
                    target: label_at.get(target).copied(),
                },
                Op::Ret => DOp::Ret,
            };
            let guard = inst.guard.map(|(p, neg)| (preds.get(p), neg));
            let off_dst = match inst.dst() {
                None => OffDst::None,
                Some(d) if d.class == RegClass::P => OffDst::Pred(preds.get(d)),
                Some(d) => OffDst::Value(vals.get(d)),
            };
            let cat = inst.category();
            prog.push(DInst {
                op,
                guard,
                cat,
                cat_idx: cat_index(cat) as u8,
                off_dst,
            });
        }

        DenseProgram {
            prog,
            param_names,
            nregs: vals.len(),
            npreds: preds.len(),
            ntid,
            kernel_name: kernel.name.clone(),
        }
    }

    /// Instructions in the decoded program (labels excluded).
    pub fn len(&self) -> usize {
        self.prog.len()
    }

    pub fn is_empty(&self) -> bool {
        self.prog.is_empty()
    }

    /// Threads per block of the decoded kernel.
    pub fn ntid(&self) -> u32 {
        self.ntid
    }

    /// Name of the decoded kernel (for error attribution).
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }
}

/// A prepared kernel ready for repeated thread execution: a shared
/// [`DenseProgram`] plus the launch-specific state (grid size, parameter
/// values, budget and slice flags).
pub struct Machine {
    program: Arc<DenseProgram>,
    pub ntid: u32,
    pub nctaid: u64,
    args: Vec<u64>,
    budget: ExecBudget,
    /// Per-pc evaluation flags (`false` = off-slice: count but poison).
    evaluate: Vec<bool>,
}

impl Machine {
    /// Prepare `kernel` for a launch of `nctaid` blocks with the given
    /// parameter values. Decodes the kernel; use [`Machine::from_program`]
    /// to share one decode across launches.
    pub fn new(kernel: &Kernel, nctaid: u64, args: &[u64]) -> Self {
        Self::from_program(Arc::new(DenseProgram::decode(kernel)), nctaid, args)
    }

    /// Prepare a launch over an already-decoded program.
    pub fn from_program(program: Arc<DenseProgram>, nctaid: u64, args: &[u64]) -> Self {
        let evaluate = vec![true; program.prog.len()];
        let ntid = program.ntid;
        Self {
            program,
            ntid,
            nctaid,
            args: args.to_vec(),
            budget: ExecBudget::default(),
            evaluate,
        }
    }

    /// Restrict value evaluation to the backward slice of branch predicates
    /// (the paper's `G_v*`). Counting is unaffected; only the interpreter
    /// work shrinks.
    pub fn with_slice(mut self, slice: &HashSet<usize>) -> Self {
        for (pc, flag) in self.evaluate.iter_mut().enumerate() {
            *flag = slice.contains(&pc);
        }
        self
    }

    /// Replace the execution budget (fuel and/or deadline).
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    pub fn set_max_steps(&mut self, n: u64) {
        self.budget = self.budget.clone().with_max_steps(n);
    }

    /// Name of the prepared kernel (for error attribution).
    pub fn kernel_name(&self) -> &str {
        &self.program.kernel_name
    }

    #[inline]
    fn dval(&self, regs: &[Val], o: DOperand) -> Val {
        match o {
            DOperand::Slot(i) => regs[i as usize],
            DOperand::Val(v) => v,
            DOperand::NCtaId => Val::cnst(self.nctaid as i128),
        }
    }

    /// Execute `(ctaid, tid)` and also record the instruction-category
    /// trace along the path (used by the detailed GPU simulator to model
    /// per-warp pipelines).
    pub fn run_traced(
        &self,
        ctaid: u64,
        tid: u32,
    ) -> Result<(ThreadOutcome, Vec<Category>), ExecError> {
        let mut trace = Vec::new();
        let outcome = self.run_inner(ctaid, tid, Some(&mut trace))?;
        Ok((outcome, trace))
    }

    /// Execute the representative thread `(ctaid, tid)`.
    pub fn run(&self, ctaid: u64, tid: u32) -> Result<ThreadOutcome, ExecError> {
        self.run_inner(ctaid, tid, None)
    }

    fn run_inner(
        &self,
        ctaid: u64,
        tid: u32,
        mut trace: Option<&mut Vec<Category>>,
    ) -> Result<ThreadOutcome, ExecError> {
        let prog = &self.program.prog;
        let mut regs: Vec<Val> = vec![Val::Unknown; self.program.nregs];
        let mut preds: Vec<Option<PredInfo>> = vec![None; self.program.npreds];
        let mut pc = 0usize;
        let mut count = 0u64;
        let mut by_cat = [0u64; NCAT];
        let mut breaks: Vec<Break> = Vec::new();
        let cta = ctaid as i128;
        let t = tid as i128;

        let max_steps = self.budget.max_steps();
        while pc < prog.len() {
            if count >= max_steps {
                return Err(ExecError::StepLimit {
                    limit: max_steps,
                    kernel: self.program.kernel_name.clone(),
                });
            }
            if count.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                EXEC_CANCEL_CHECKS.inc();
                if self.budget.check() {
                    EXEC_CANCELLED.inc();
                    return Err(ExecError::Cancelled {
                        kernel: self.program.kernel_name.clone(),
                        step: count,
                    });
                }
            }
            let inst = &prog[pc];
            count += 1;
            by_cat[inst.cat_idx as usize] += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(inst.cat);
            }

            // guard evaluation (for value semantics; issue is counted above)
            let guard_truth: Option<bool> = match inst.guard {
                None => Some(true),
                Some((p, neg)) => preds[p as usize].and_then(|pi| pi.truth).map(|v| v != neg),
            };

            // branches drive control flow and must be resolvable
            if let DOp::Bra { target } = inst.op {
                let taken = match inst.guard {
                    None => true,
                    Some((p, _neg)) => {
                        let pi = preds[p as usize].unwrap_or(PRED_UNSET);
                        // harvest breakpoints from the predicate
                        if let Some((cmp, d)) = pi.lin {
                            self.harvest_breaks(cmp, d, pc, &mut breaks)?;
                        }
                        match guard_truth {
                            Some(v) => v,
                            None => return Err(ExecError::DataDependentBranch { pc }),
                        }
                    }
                };
                if taken {
                    pc = target.ok_or(ExecError::BadLabel { pc })? as usize;
                } else {
                    pc += 1;
                }
                continue;
            }
            if matches!(inst.op, DOp::Ret) {
                break;
            }

            // slice mode: skip value evaluation of off-slice instructions
            if self.evaluate[pc] {
                self.eval_dinst(inst, guard_truth, cta, t, &mut regs, &mut preds)?;
            } else {
                // keep soundness: off-slice destinations become opaque
                match inst.off_dst {
                    OffDst::Pred(d) => preds[d as usize] = Some(PRED_UNSET),
                    OffDst::Value(d) => regs[d as usize] = Val::Unknown,
                    OffDst::None => {}
                }
            }
            pc += 1;
        }

        breaks.sort_unstable_by_key(|b| match b {
            Break::Tau(v) | Break::Tid(v) | Break::Block(v) => *v,
        });
        breaks.dedup();
        EXEC_RUNS.inc();
        EXEC_STEPS.add(count);
        Ok(ThreadOutcome {
            count,
            by_cat,
            breaks,
        })
    }

    /// Derive grid splits from an affine predicate `cmp(d, 0)`.
    fn harvest_breaks(
        &self,
        _cmp: CmpOp,
        d: Val,
        pc: usize,
        out: &mut Vec<Break>,
    ) -> Result<(), ExecError> {
        let Val::Lin { ct, td, b } = d else {
            return Ok(()); // non-affine predicates carry no split info
        };
        harvest_breaks_into(ct, td, b, self.ntid as i128, pc, out)
    }

    fn eval_dinst(
        &self,
        inst: &DInst,
        guard_truth: Option<bool>,
        cta: i128,
        tid: i128,
        regs: &mut [Val],
        preds: &mut [Option<PredInfo>],
    ) -> Result<(), ExecError> {
        // predicated-off instructions leave their destination untouched;
        // unknown guards poison it
        if guard_truth == Some(false) {
            return Ok(());
        }
        let poison = guard_truth.is_none();
        macro_rules! set {
            ($dst:expr, $v:expr) => {
                regs[$dst as usize] = if poison { Val::Unknown } else { $v }
            };
        }

        match &inst.op {
            DOp::Set { dst, src } => {
                let v = self.dval(regs, *src);
                set!(*dst, v);
            }
            DOp::MovPred { dst, src } => {
                // mov into predicate (rare): copy predicate state
                if let Some(s) = src {
                    if let Some(pi) = preds[*s as usize] {
                        preds[*dst as usize] = Some(pi);
                    }
                }
            }
            DOp::LdParam { dst, pslot } => {
                let v = match self.args.get(*pslot as usize) {
                    Some(a) => Val::cnst(*a as i128),
                    None => {
                        return Err(ExecError::UnknownParam {
                            name: self.program.param_names[*pslot as usize].clone(),
                        })
                    }
                };
                set!(*dst, v);
            }
            DOp::ParamErr { name } => {
                return Err(ExecError::UnknownParam {
                    name: name.to_string(),
                });
            }
            DOp::Bin { op, t, dst, a, b } => {
                let va = self.dval(regs, *a);
                let vb = self.dval(regs, *b);
                let v = bin_val(*op, *t, va, vb, self.ntid as i128, self.nctaid as i128);
                set!(*dst, v);
            }
            DOp::Un { op, dst, a } => {
                let va = self.dval(regs, *a);
                set!(*dst, un_val(*op, va));
            }
            DOp::Mad { t, dst, a, b, c } => {
                let va = self.dval(regs, *a);
                let vb = self.dval(regs, *b);
                let vc = self.dval(regs, *c);
                let prod = bin_val(
                    BinOp::Mul,
                    *t,
                    va,
                    vb,
                    self.ntid as i128,
                    self.nctaid as i128,
                );
                let v = bin_val(
                    BinOp::Add,
                    *t,
                    prod,
                    vc,
                    self.ntid as i128,
                    self.nctaid as i128,
                );
                set!(*dst, v);
            }
            DOp::Cvt { to, from, dst, src } => {
                let v = self.dval(regs, *src);
                set!(*dst, cvt_val(*to, *from, v));
            }
            DOp::Setp { cmp, t, dst, a, b } => {
                let va = self.dval(regs, *a);
                let vb = self.dval(regs, *b);
                preds[*dst as usize] = Some(setp_val(*cmp, *t, va, vb, cta, tid));
            }
            DOp::Selp { dst, a, b, p } => {
                let truth = preds[*p as usize].and_then(|pi| pi.truth);
                let v = match truth {
                    Some(true) => self.dval(regs, *a),
                    Some(false) => self.dval(regs, *b),
                    None => Val::Unknown,
                };
                set!(*dst, v);
            }
            DOp::Bra { .. } | DOp::Nop | DOp::Ret => {}
        }
        Ok(())
    }
}

/// Classify an affine predicate difference `ct*ctaid + td*tid + b` into
/// grid split points. Shared verbatim by the interpreter and the poly
/// tier's evaluator so both harvest bit-identical breakpoints.
pub(crate) fn harvest_breaks_into(
    ct: i128,
    td: i128,
    b: i128,
    ntid: i128,
    pc: usize,
    out: &mut Vec<Break>,
) -> Result<(), ExecError> {
    if ct == 0 && td == 0 {
        return Ok(()); // constant predicate
    }
    if ct == td * ntid && td != 0 {
        // affine in tau = ctaid*ntid + tid with slope td
        for r in roots(td, b) {
            out.push(Break::Tau(r));
        }
        Ok(())
    } else if ct == 0 {
        for r in roots(td, b) {
            out.push(Break::Tid(r));
        }
        Ok(())
    } else if td == 0 {
        for r in roots(ct, b) {
            out.push(Break::Block(r));
        }
        Ok(())
    } else {
        Err(ExecError::MixedSlopePredicate { pc })
    }
}

/// Split points of `sign(s*i + b)` over integer `i`: the smallest `i` values
/// around the real root, so interval splitting at these points yields
/// constant truth on each side.
fn roots(s: i128, b: i128) -> Vec<i128> {
    debug_assert!(s != 0);
    // real root at -b/s; floor and the next integer bracket every flip
    let q = -b / s;
    // adjust for negative division toward -inf
    let fl = if (-b) % s != 0 && ((-b < 0) != (s < 0)) {
        q - 1
    } else {
        q
    };
    vec![fl, fl + 1]
}

/// u32 wrap helper for concrete comparisons.
pub(crate) fn wrap_for(t: Type, v: i128) -> i128 {
    match t {
        Type::U32 | Type::B32 => (v as u64 & 0xFFFF_FFFF) as i128,
        Type::U64 => (v as u128 & 0xFFFF_FFFF_FFFF_FFFF) as i128,
        _ => v,
    }
}

fn setp_val(cmp: CmpOp, t: Type, a: Val, b: Val, cta: i128, tid: i128) -> PredInfo {
    match (a, b) {
        (Val::F32(x), Val::F32(y)) => PredInfo {
            truth: Some(cmp.eval_f(x, y)),
            lin: None,
        },
        (Val::Lin { .. }, Val::Lin { .. }) => {
            let (
                Val::Lin {
                    ct: c1,
                    td: t1,
                    b: b1,
                },
                Val::Lin {
                    ct: c2,
                    td: t2,
                    b: b2,
                },
            ) = (a, b)
            else {
                unreachable!()
            };
            let d = Val::Lin {
                ct: c1 - c2,
                td: t1 - t2,
                b: b1 - b2,
            };
            let (Some(va), Some(vb)) = (a.eval(cta, tid), b.eval(cta, tid)) else {
                unreachable!()
            };
            // concrete truth with type-aware wrap; affine guards are
            // non-negative by construction so wrap only matters for the
            // constant-vs-constant case (borders), which carries no slope.
            let truth = if d.as_const().is_some() {
                cmp.eval_i(wrap_for(t, va), wrap_for(t, vb))
            } else {
                cmp.eval_i(va, vb)
            };
            PredInfo {
                truth: Some(truth),
                lin: Some((cmp, d)),
            }
        }
        _ => PredInfo {
            truth: None,
            lin: None,
        },
    }
}

fn lin_add(a: Val, b: Val) -> Val {
    match (a, b) {
        (
            Val::Lin {
                ct: c1,
                td: t1,
                b: b1,
            },
            Val::Lin {
                ct: c2,
                td: t2,
                b: b2,
            },
        ) => Val::Lin {
            ct: c1 + c2,
            td: t1 + t2,
            b: b1 + b2,
        },
        _ => Val::Unknown,
    }
}

fn lin_scale(a: Val, k: i128) -> Val {
    match a {
        Val::Lin { ct, td, b } => Val::Lin {
            ct: ct * k,
            td: td * k,
            b: b * k,
        },
        _ => Val::Unknown,
    }
}

/// Value range of an affine form given `ctaid < nctaid`, `tid < ntid`.
fn lin_range(v: Val, ntid: i128, nctaid: i128) -> Option<(i128, i128)> {
    let Val::Lin { ct, td, b } = v else {
        return None;
    };
    let (cl, ch) = if ct >= 0 {
        (0, ct * (nctaid - 1))
    } else {
        (ct * (nctaid - 1), 0)
    };
    let (tl, th) = if td >= 0 {
        (0, td * (ntid - 1))
    } else {
        (td * (ntid - 1), 0)
    };
    Some((cl + tl + b, ch + th + b))
}

fn bin_val(op: BinOp, t: Type, a: Val, b: Val, ntid: i128, nctaid: i128) -> Val {
    use BinOp::*;
    // float arithmetic
    if t.is_float() {
        return match (op, a, b) {
            (Add, Val::F32(x), Val::F32(y)) => Val::F32(x + y),
            (Sub, Val::F32(x), Val::F32(y)) => Val::F32(x - y),
            (Mul, Val::F32(x), Val::F32(y)) => Val::F32(x * y),
            (Div, Val::F32(x), Val::F32(y)) => Val::F32(x / y),
            (Min, Val::F32(x), Val::F32(y)) => Val::F32(x.min(y)),
            (Max, Val::F32(x), Val::F32(y)) => Val::F32(x.max(y)),
            _ => Val::Unknown,
        };
    }
    match op {
        Add => lin_add(a, b),
        Sub => lin_add(a, lin_scale(b, -1)),
        Mul | MulWide => match (a.as_const(), b.as_const()) {
            (Some(ka), _) => lin_scale(b, ka),
            (_, Some(kb)) => lin_scale(a, kb),
            _ => Val::Unknown,
        },
        Div => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) if y != 0 => Val::cnst(x.div_euclid(y)),
            _ => Val::Unknown,
        },
        Rem => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) if y != 0 => Val::cnst(x.rem_euclid(y)),
            _ => Val::Unknown,
        },
        Min => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => Val::cnst(x.min(y)),
            _ => Val::Unknown,
        },
        Max => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => Val::cnst(x.max(y)),
            _ => Val::Unknown,
        },
        Shl => match b.as_const() {
            Some(k) if (0..63).contains(&k) => lin_scale(a, 1i128 << k),
            _ => Val::Unknown,
        },
        Shr => match (a.as_const(), b.as_const()) {
            (Some(x), Some(k)) if (0..63).contains(&k) => Val::cnst(x >> k),
            _ => Val::Unknown,
        },
        And => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => Val::cnst(x & y),
            _ => Val::Unknown,
        },
        Or => {
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Val::cnst(x | y),
                _ => {
                    // disjoint-range OR folds to ADD (the Fig. 2 gid idiom):
                    // one side a multiple of 2^k, the other within [0, 2^k)
                    let ra = lin_range(a, ntid, nctaid);
                    let rb = lin_range(b, ntid, nctaid);
                    match (ra, rb) {
                        (Some((al, ah)), Some((bl, bh))) if al >= 0 && bl >= 0 => {
                            if disjoint_or(a, (al, ah), b, (bl, bh)) {
                                lin_add(a, b)
                            } else {
                                Val::Unknown
                            }
                        }
                        _ => Val::Unknown,
                    }
                }
            }
        }
        Xor => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => Val::cnst(x ^ y),
            _ => Val::Unknown,
        },
    }
}

/// Is `a | b == a + b` provable? True when one side's every value is a
/// multiple of `2^k` and the other side stays below `2^k`.
fn disjoint_or(a: Val, ra: (i128, i128), b: Val, rb: (i128, i128)) -> bool {
    fn alignment(v: Val) -> i128 {
        // gcd-of-coefficients power-of-two alignment
        if let Val::Lin { ct, td, b } = v {
            let g = gcd(gcd(ct.unsigned_abs(), td.unsigned_abs()), b.unsigned_abs());
            let g = g as i128;
            if g == 0 {
                i128::MAX
            } else {
                g & g.wrapping_neg() // largest power-of-two divisor
            }
        } else {
            1
        }
    }
    let (_, ah) = ra;
    let (_, bh) = rb;
    alignment(a) > bh || alignment(b) > ah
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn un_val(op: UnOp, a: Val) -> Val {
    match (op, a) {
        (UnOp::Neg, v @ Val::Lin { .. }) => lin_scale(v, -1),
        (UnOp::Neg, Val::F32(x)) => Val::F32(-x),
        (UnOp::Abs, Val::F32(x)) => Val::F32(x.abs()),
        (UnOp::Sqrt, Val::F32(x)) => Val::F32(x.sqrt()),
        (UnOp::Rcp, Val::F32(x)) => Val::F32(1.0 / x),
        (UnOp::Ex2, Val::F32(x)) => Val::F32(x.exp2()),
        (UnOp::Lg2, Val::F32(x)) => Val::F32(x.log2()),
        (UnOp::Not, v) => match v.as_const() {
            Some(x) => Val::cnst(!x),
            None => Val::Unknown,
        },
        _ => Val::Unknown,
    }
}

fn cvt_val(to: Type, from: Type, v: Val) -> Val {
    match (to, from) {
        // widening/narrowing integer conversions preserve affine forms
        (Type::U64, Type::U32) | (Type::U32, Type::U64) | (Type::S32, Type::U32) => v,
        // bit reinterpretation
        (Type::F32, Type::B32) => match v.as_const() {
            Some(x) => Val::F32(f32::from_bits(x as u32)),
            None => Val::Unknown,
        },
        (Type::F32, Type::U32) | (Type::F32, Type::S32) => match v.as_const() {
            Some(x) => Val::F32(x as f32),
            None => Val::Unknown,
        },
        (Type::U32, Type::F32) | (Type::S32, Type::F32) => match v {
            Val::F32(x) => Val::cnst(x as i128),
            _ => Val::Unknown,
        },
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::builder::KernelBuilder;
    use ptx::inst::Operand;

    /// Fig. 2-style kernel: guard `gid < n`, then a body instruction.
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

    #[test]
    fn guard_thread_below_bound_runs_body() {
        let k = guard_kernel();
        let m = Machine::new(&k, 4, &[700]);
        let lo = m.run(0, 0).unwrap();
        let hi = m.run(3, 255).unwrap(); // gid 1023 >= 700: skips body
        assert_eq!(lo.count, hi.count + 1, "body is a single mov");
    }

    #[test]
    fn guard_reports_tau_breakpoint() {
        let k = guard_kernel();
        let m = Machine::new(&k, 4, &[700]);
        let o = m.run(0, 0).unwrap();
        assert!(
            o.breaks
                .iter()
                .any(|b| matches!(b, Break::Tau(v) if (699..=701).contains(v))),
            "expected a tau break near 700, got {:?}",
            o.breaks
        );
    }

    #[test]
    fn counted_loop_executes_n_times() {
        let mut kb = KernelBuilder::new("k", 32);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        kb.counted_loop(n, |kb, _| {
            let f = kb.f();
            kb.mov(Type::F32, f, Operand::ImmF(1.0));
        });
        kb.ret();
        let k = kb.finish();
        let count_for = |trip: u64| Machine::new(&k, 1, &[trip]).run(0, 0).unwrap().count;
        // body is 4 instructions per iteration (mov, add, setp, bra)
        assert_eq!(count_for(10) - count_for(9), 4);
        assert_eq!(count_for(100) - count_for(99), 4);
        // zero-trip loop works (pre-check)
        assert!(count_for(0) < count_for(1));
    }

    #[test]
    fn strided_loop_breaks_on_tid() {
        // for (i = tid; i < n; i += 32): threads with tid < n%32 do one more
        let mut kb = KernelBuilder::new("k", 32);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let tid = kb.special(SpecialReg::TidX);
        let i = kb.r();
        kb.mov(Type::U32, i, tid);
        let p0 = kb.p();
        kb.setp(CmpOp::Ge, Type::U32, p0, i, n);
        let done = kb.label();
        kb.bra_if(p0, false, done);
        let head = kb.label();
        kb.place_label(head);
        kb.bin(BinOp::Add, Type::U32, i, i, Operand::ImmI(32));
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::U32, p, i, n);
        kb.bra_if(p, false, head);
        kb.place_label(done);
        kb.ret();
        let k = kb.finish();
        let m = Machine::new(&k, 1, &[70]); // 70 = 2*32 + 6
        let t0 = m.run(0, 0).unwrap(); // 3 iterations
        let t6 = m.run(0, 6).unwrap(); // 2 iterations
        assert!(t0.count > t6.count);
        assert!(
            t0.breaks.iter().any(|b| matches!(b, Break::Tid(_))),
            "expected tid breaks, got {:?}",
            t0.breaks
        );
    }

    #[test]
    fn data_dependent_branch_is_an_error() {
        let mut kb = KernelBuilder::new("k", 32);
        let p_x = kb.param("x", Type::U64);
        let x = kb.ld_param(&p_x, Type::U64);
        let f = kb.f();
        kb.ld(Space::Global, Type::F32, f, ptx::inst::Address::reg(x));
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::F32, p, f, Operand::ImmF(0.0));
        let l = kb.label();
        kb.bra_if(p, false, l);
        kb.place_label(l);
        kb.ret();
        let k = kb.finish();
        let m = Machine::new(&k, 1, &[0x1000]);
        assert!(matches!(
            m.run(0, 0),
            Err(ExecError::DataDependentBranch { .. })
        ));
    }

    #[test]
    fn fig2_or_idiom_resolves_gid() {
        // gid = (ctaid << 8) | tid with ntid=256 must behave as addition
        let k = guard_kernel();
        let m = Machine::new(&k, 8, &[2048]);
        // thread (4, 17): gid = 1041 < 2048 -> body runs
        let a = m.run(4, 17).unwrap();
        // thread (7, 255): gid = 2047 < 2048 -> body runs
        let b = m.run(7, 255).unwrap();
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn selp_with_unknown_pred_is_opaque_but_counted() {
        let mut kb = KernelBuilder::new("k", 32);
        let p_x = kb.param("x", Type::U64);
        let x = kb.ld_param(&p_x, Type::U64);
        let f = kb.f();
        kb.ld(Space::Global, Type::F32, f, ptx::inst::Address::reg(x));
        let p = kb.p();
        kb.setp(CmpOp::Lt, Type::F32, p, f, Operand::ImmF(0.0));
        let g = kb.f();
        kb.selp(Type::F32, g, f, Operand::ImmF(0.0), p);
        kb.ret();
        let k = kb.finish();
        let m = Machine::new(&k, 1, &[0x1000]);
        let o = m.run(0, 0).unwrap();
        assert_eq!(o.count, 5);
    }

    /// A `while(true)` loop.
    fn spin_kernel(name: &str) -> Kernel {
        let mut kb = KernelBuilder::new(name, 32);
        let head = kb.label();
        kb.place_label(head);
        let r = kb.r();
        kb.mov(Type::U32, r, Operand::ImmI(1));
        kb.bra_uni(head);
        kb.finish()
    }

    #[test]
    fn step_limit_catches_runaway() {
        let mut m = Machine::new(&spin_kernel("k"), 1, &[]);
        m.set_max_steps(1000);
        assert!(matches!(m.run(0, 0), Err(ExecError::StepLimit { .. })));
    }

    #[test]
    fn step_limit_error_names_the_kernel() {
        let m = Machine::new(&spin_kernel("runaway_kernel"), 1, &[])
            .with_budget(ExecBudget::default().with_max_steps(500));
        match m.run(0, 0) {
            Err(ExecError::StepLimit { limit, kernel }) => {
                assert_eq!(limit, 500);
                assert_eq!(kernel, "runaway_kernel");
            }
            other => panic!("expected StepLimit, got {other:?}"),
        }
    }

    #[test]
    fn passed_deadline_aborts_execution() {
        let k = spin_kernel("spin");
        let budget = ExecBudget::default().with_deadline(Duration::ZERO);
        let m = Machine::new(&k, 1, &[]).with_budget(budget);
        assert!(matches!(
            m.run(0, 0),
            Err(ExecError::Cancelled { kernel, step: 0 }) if kernel == "spin"
        ));
    }

    #[test]
    fn deadline_observed_within_documented_interval() {
        // the deadline passes mid-flight: the reported step is a multiple
        // of the documented interval
        let k = spin_kernel("spin2");
        let budget = ExecBudget::default().with_deadline(Duration::from_millis(20));
        let m = Machine::new(&k, 1, &[]).with_budget(budget);
        match m.run(0, 0) {
            Err(ExecError::Cancelled { kernel, step }) => {
                assert_eq!(kernel, "spin2");
                assert_eq!(step % CANCEL_CHECK_INTERVAL, 0, "step {step} off-interval");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn unexpired_deadline_does_not_disturb_execution() {
        let k = guard_kernel();
        let budget = ExecBudget::default().with_deadline(Duration::from_secs(3600));
        let budgeted = Machine::new(&k, 4, &[700]).with_budget(budget);
        let plain = Machine::new(&k, 4, &[700]);
        assert_eq!(
            budgeted.run(0, 0).unwrap().count,
            plain.run(0, 0).unwrap().count
        );
    }

    #[test]
    fn check_points_slide_a_silence_limit_and_a_passed_one_stays_passed() {
        let budget = ExecBudget::default().with_silence_limit(Duration::from_millis(200));
        let other_worker = budget.clone();
        // progress every 10 ms outlives the limit
        for _ in 0..30 {
            std::thread::sleep(Duration::from_millis(10));
            assert!(!budget.check(), "a cell making progress was stopped");
        }
        // a fixed deadline does not slide
        let fixed = ExecBudget::default().with_deadline(Duration::from_millis(50));
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(10));
            fixed.check();
        }
        assert!(fixed.expired());
        // silence: waiting loops poll without sliding
        while !budget.expired() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(other_worker.check(), "the clones share one deadline");
        assert!(budget.check(), "a check point must not revive it");
        assert!(!ExecBudget::default().check() && !ExecBudget::default().expired());
    }

    #[test]
    fn category_accounting_sums_to_count() {
        let k = guard_kernel();
        let m = Machine::new(&k, 4, &[700]);
        let o = m.run(0, 0).unwrap();
        assert_eq!(o.by_cat.iter().sum::<u64>(), o.count);
    }

    #[test]
    fn shared_program_matches_fresh_decode() {
        // one decode shared by two launches must behave like two decodes
        let k = guard_kernel();
        let prog = Arc::new(DenseProgram::decode(&k));
        for (nctaid, n) in [(4u64, 700u64), (8, 1024), (2, 100)] {
            let shared = Machine::from_program(Arc::clone(&prog), nctaid, &[n]);
            let fresh = Machine::new(&k, nctaid, &[n]);
            let a = shared.run(0, 0).unwrap();
            let b = fresh.run(0, 0).unwrap();
            assert_eq!(a.count, b.count);
            assert_eq!(a.by_cat, b.by_cat);
            assert_eq!(a.breaks, b.breaks);
        }
    }

    #[test]
    fn missing_argument_is_unknown_param_with_name() {
        // a kernel whose param list is known but whose launch forgot args
        let k = guard_kernel();
        let m = Machine::new(&k, 4, &[]);
        match m.run(0, 0) {
            Err(ExecError::UnknownParam { name }) => assert_eq!(name, k.params[0].name),
            other => panic!("expected UnknownParam, got {other:?}"),
        }
    }

    #[test]
    fn decode_is_launch_independent() {
        let k = guard_kernel();
        let prog = DenseProgram::decode(&k);
        assert_eq!(prog.len(), k.num_instructions());
        assert_eq!(prog.ntid(), 256);
        assert_eq!(prog.kernel_name(), "k");
    }
}
