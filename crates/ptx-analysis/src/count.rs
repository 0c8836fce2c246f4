//! Exact executed-instruction counting for kernel launches.
//!
//! The counting layer runs a per-thread evaluator on *representative
//! threads* only. The grid is recursively split into rectangles
//! `(block range) x (tid range)` at the breakpoints reported by affine
//! branch predicates; within a final rectangle every thread takes the same
//! control-flow path, so one representative's count multiplies by the
//! rectangle's area. Typical CNN kernels need fewer than ten representative
//! executions per launch regardless of grid size.
//!
//! Two evaluators share the identical splitting driver:
//!
//! * the [`crate::exec::Machine`] interpreter (O(steps) per representative),
//! * the [`crate::poly`] compiled trip-count polynomials (O(1) per
//!   representative), proven bit-identical and used whenever a kernel
//!   compiles (see [`CountMode`]).
//!
//! Both run on kernels from the process-wide [`crate::prepared`] table, so
//! a kernel is decoded, sliced and compiled once however many plans and
//! launches count it.

use crate::exec::{Break, DenseProgram, ExecBudget, ExecError, Machine, ThreadOutcome, NCAT};
use crate::poly::{KernelPoly, PolyBail};
use crate::prepared::{group_launches, prepare_kernel, prepare_plan, PreparedKernel};
use ptx::kernel::{Kernel, KernelLaunch, LaunchPlan};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Warp width of every modeled GPU.
pub const WARP: u32 = 32;

/// Launches counted to completion.
static COUNT_LAUNCHES: obs::LazyCounter = obs::LazyCounter::new("ptx.count.launches");
/// Representative-thread executions spent across counted launches.
static COUNT_REPS: obs::LazyCounter = obs::LazyCounter::new("ptx.count.representatives");
/// Uniform grid rectangles the counted launches decomposed into.
static COUNT_PIECES: obs::LazyCounter = obs::LazyCounter::new("ptx.count.pieces");
/// Representative threads evaluated through a compiled polynomial.
static POLY_EVALS: obs::LazyCounter = obs::LazyCounter::new("ptx.poly.evals");
/// Launches that started on the poly tier but re-ran on the interpreter
/// (evaluation-time range/overflow refusals; compile-time refusals are
/// `ptx.poly.fallbacks`).
static POLY_EVAL_FALLBACKS: obs::LazyCounter = obs::LazyCounter::new("ptx.poly.eval_fallbacks");

/// How the counting layer evaluates representative threads. Counts are
/// identical in every mode; [`count_launch`] and [`count_plan`] count in
/// `Auto`, and the `_mode` entry points take the mode explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountMode {
    /// Compile to trip-count polynomials; fall back to the interpreter
    /// per kernel (compile refusal) or per launch (evaluation refusal).
    Auto,
    /// Polynomials only: a refusal becomes `ExecError::Unlaunchable`
    /// with a `poly:`-prefixed reason (test/diagnostic mode).
    Poly,
    /// Dense interpreter only (the pre-poly behavior).
    Interp,
    /// Execute every thread (validation reference; exponentially slower).
    Bruteforce,
}

impl std::fmt::Display for CountMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CountMode::Auto => "auto",
            CountMode::Poly => "poly",
            CountMode::Interp => "interp",
            CountMode::Bruteforce => "bruteforce",
        })
    }
}

/// Exact instruction statistics for one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchCount {
    pub threads: u64,
    /// Per-thread executed instructions summed over all threads (the
    /// paper's "total number of PTX instructions" predictor).
    pub thread_instructions: u64,
    /// Warp-level issue count: per warp the maximum thread path within it
    /// (divergent warps execute the union of their threads' paths, which
    /// for guard-style divergence equals the longer path).
    pub warp_issues: u64,
    /// Thread-level instruction mix by [`ptx::inst::Category`] index.
    pub by_category: [u64; NCAT],
    /// Number of uniform rectangles the grid decomposed into.
    pub pieces: u32,
    /// Representative-thread executions performed.
    pub reps_executed: u32,
}

/// Counting statistics for a whole launch plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCount {
    pub per_launch: Vec<LaunchCount>,
    pub thread_instructions: u64,
    pub warp_issues: u64,
    pub by_category: [u64; NCAT],
}

/// How a plan was counted: which tier did the work and how often the poly
/// tier deferred. Deliberately *not* part of [`PlanCount`] — counts are
/// bit-identical across modes (the equivalence suite asserts it), so the
/// mode story rides alongside, never inside, the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountingReport {
    pub mode: CountMode,
    /// Distinct kernels the plan references.
    pub kernels: u32,
    /// Kernels that compiled to a trip-count polynomial (0 unless the
    /// mode consults the poly tier).
    pub poly_compiled: u32,
    /// Kernels the poly compiler refused (counted on the interpreter).
    pub poly_rejected: u32,
    /// Unique launches whose poly evaluation deferred to the interpreter
    /// at evaluation time (range/overflow refusals).
    pub poly_eval_fallbacks: u32,
    /// Distinct launch shapes actually evaluated: kernel, grid, argument
    /// count and the arguments the kernel's branch slice reads (see
    /// [`PreparedKernel::read_args`]), so launches differing only in buffer
    /// addresses count once. `Bruteforce` keys on every argument instead.
    pub unique_launches: u32,
}

/// One uniform rectangle of the launch grid.
#[derive(Debug, Clone)]
struct Rect {
    b0: u64,
    b1: u64, // block range [b0, b1)
    t0: u32,
    t1: u32, // tid range [t0, t1)
}

impl Rect {
    /// `None` when the thread count itself overflows `u64` (degenerate
    /// hostile launches; surfaced as [`ExecError::CountOverflow`]).
    fn area(&self) -> Option<u64> {
        (self.b1 - self.b0).checked_mul((self.t1 - self.t0) as u64)
    }
}

/// Internal evaluator error: a real execution error, or a poly-tier
/// "this launch needs the interpreter" refusal.
enum RunErr {
    Exec(ExecError),
    Unsupported(&'static str),
}

impl From<ExecError> for RunErr {
    fn from(e: ExecError) -> Self {
        RunErr::Exec(e)
    }
}

/// Count one launch exactly, in [`CountMode::Auto`]. `use_slice` enables
/// slice-mode execution (the paper's `G_v*` optimization; results are
/// identical, evaluation is cheaper).
pub fn count_launch(
    kernel: &Kernel,
    launch: &KernelLaunch,
    use_slice: bool,
) -> Result<LaunchCount, ExecError> {
    count_launch_mode(
        kernel,
        launch,
        use_slice,
        &ExecBudget::default(),
        CountMode::Auto,
    )
}

/// [`count_launch`] with an explicit execution budget (step fuel and a
/// cooperative deadline, applied to every representative thread) and
/// [`CountMode`]. The kernel is prepared through the process-wide table
/// (decoded, sliced and compiled once per process), except in
/// `Bruteforce` mode, the reference, which executes the kernel as given.
pub fn count_launch_mode(
    kernel: &Kernel,
    launch: &KernelLaunch,
    use_slice: bool,
    budget: &ExecBudget,
    mode: CountMode,
) -> Result<LaunchCount, ExecError> {
    if mode == CountMode::Bruteforce {
        return count_launch_bruteforce(kernel, launch);
    }
    let prepared = prepare_kernel(kernel);
    count_on(
        &prepared,
        launch,
        use_slice,
        budget,
        mode,
        &AtomicU32::new(0),
    )
}

/// The one counting path: poly tier first in `Auto`/`Poly`, the dense
/// interpreter on a refusal (`Auto`) or in `Interp`. Evaluation-time poly
/// refusals are added to `eval_fallbacks`.
fn count_on(
    kernel: &PreparedKernel,
    launch: &KernelLaunch,
    use_slice: bool,
    budget: &ExecBudget,
    mode: CountMode,
    eval_fallbacks: &AtomicU32,
) -> Result<LaunchCount, ExecError> {
    let program = kernel.program();
    let interp =
        || count_launch_prepared(program, use_slice.then(|| kernel.slice()), launch, budget);
    let unl = |reason: &str| ExecError::Unlaunchable {
        kernel: program.kernel_name().to_string(),
        reason: format!("poly: {reason}"),
    };
    match mode {
        CountMode::Bruteforce => count_launch_bruteforce(kernel.kernel(), launch),
        CountMode::Interp => interp(),
        CountMode::Auto | CountMode::Poly => match kernel.poly(use_slice) {
            Ok(kp) => match count_launch_poly_prepared(kp, launch, budget) {
                Ok(lc) => Ok(lc),
                Err(PolyBail::Exec(e)) => Err(e),
                Err(PolyBail::Unsupported(r)) => {
                    POLY_EVAL_FALLBACKS.inc();
                    eval_fallbacks.fetch_add(1, Ordering::Relaxed);
                    if mode == CountMode::Poly {
                        Err(unl(r))
                    } else {
                        interp()
                    }
                }
            },
            Err(r) if mode == CountMode::Poly => Err(unl(r)),
            Err(_) => interp(),
        },
    }
}

/// [`count_launch_mode`] over an already-decoded kernel, always on
/// the dense interpreter (the counting layer's `interp` tier). The
/// grid-rectangle re-runs all execute the shared [`DenseProgram`].
pub fn count_launch_prepared(
    program: &Arc<DenseProgram>,
    slice: Option<&HashSet<usize>>,
    launch: &KernelLaunch,
    budget: &ExecBudget,
) -> Result<LaunchCount, ExecError> {
    let nblocks = launch.blocks();
    let ntid = program.ntid();
    let mut machine = Machine::from_program(Arc::clone(program), nblocks, &launch.args)
        .with_budget(budget.clone());
    if let Some(s) = slice {
        machine = machine.with_slice(s);
    }
    let run = |b: u64, t: u32| machine.run(b, t).map_err(RunErr::Exec);
    match count_launch_rects(run, program.kernel_name(), nblocks, ntid, budget) {
        Ok(lc) => Ok(lc),
        Err(RunErr::Exec(e)) => Err(e),
        Err(RunErr::Unsupported(_)) => unreachable!("interpreter never defers"),
    }
}

/// Count one launch through a compiled [`KernelPoly`], sharing the exact
/// splitting driver with the interpreter path. `Unsupported` means this
/// launch must re-run on the interpreter (counts would not be provably
/// identical); `Exec` errors carry interpreter-identical payloads.
pub fn count_launch_poly_prepared(
    kp: &KernelPoly,
    launch: &KernelLaunch,
    budget: &ExecBudget,
) -> Result<LaunchCount, PolyBail> {
    let nblocks = launch.blocks();
    let ntid = kp.ntid();
    let max_steps = budget.max_steps();
    let run = |b: u64, t: u32| {
        POLY_EVALS.inc();
        kp.eval_thread(nblocks, b, t, &launch.args, max_steps)
            .map_err(|e| match e {
                PolyBail::Exec(x) => RunErr::Exec(x),
                PolyBail::Unsupported(r) => RunErr::Unsupported(r),
            })
    };
    match count_launch_rects(run, kp.kernel_name(), nblocks, ntid, budget) {
        Ok(lc) => Ok(lc),
        Err(RunErr::Exec(e)) => Err(PolyBail::Exec(e)),
        Err(RunErr::Unsupported(r)) => Err(PolyBail::Unsupported(r)),
    }
}

/// The shared grid-splitting driver: evaluate representative threads via
/// `run`, split at reported breakpoints, and accumulate exact totals with
/// overflow-checked arithmetic.
fn count_launch_rects<F>(
    mut run: F,
    kernel_name: &str,
    nblocks: u64,
    ntid: u32,
    budget: &ExecBudget,
) -> Result<LaunchCount, RunErr>
where
    F: FnMut(u64, u32) -> Result<ThreadOutcome, RunErr>,
{
    let mut work = vec![Rect {
        b0: 0,
        b1: nblocks,
        t0: 0,
        t1: ntid,
    }];
    let mut finals: Vec<(Rect, ThreadOutcome)> = Vec::new();
    let mut reps = 0u32;
    // evaluator steps across all representative runs so far: lets a
    // cancellation report where in the whole launch count it landed
    let mut steps_done = 0u64;
    // safety valve: pathological kernels could split forever
    const MAX_PIECES: usize = 4096;

    while let Some(r) = work.pop() {
        // nested-execution cancellation bound: besides the per-run check
        // every CANCEL_CHECK_INTERVAL steps, a passed deadline is observed
        // between rectangles, so the worst-case observation latency stays
        // one interval regardless of how many representatives run; each
        // rectangle is progress, so it slides a silence limit
        if budget.check() {
            return Err(RunErr::Exec(ExecError::Cancelled {
                kernel: kernel_name.to_string(),
                step: steps_done,
            }));
        }
        if finals.len() + work.len() > MAX_PIECES {
            return Err(RunErr::Exec(ExecError::SplitBudget {
                limit: MAX_PIECES as u64,
                kernel: kernel_name.to_string(),
            }));
        }
        let outcome = run(r.b0, r.t0).map_err(|e| match e {
            RunErr::Exec(ExecError::Cancelled { kernel, step }) => {
                RunErr::Exec(ExecError::Cancelled {
                    kernel,
                    step: steps_done + step,
                })
            }
            other => other,
        })?;
        steps_done += outcome.count;
        reps += 1;
        // find one applicable split
        let mut split: Option<(bool, u64)> = None; // (is_block_dim, at)
        'outer: for br in &outcome.breaks {
            match *br {
                Break::Tid(t) => {
                    if t > r.t0 as i128 && t < r.t1 as i128 {
                        split = Some((false, t as u64));
                        break 'outer;
                    }
                }
                Break::Block(c) => {
                    if c > r.b0 as i128 && c < r.b1 as i128 {
                        split = Some((true, c as u64));
                        break 'outer;
                    }
                }
                Break::Tau(tau) => {
                    if tau <= 0 {
                        continue;
                    }
                    let tau = tau as u64;
                    let blk = tau / ntid as u64;
                    let tid = (tau % ntid as u64) as u32;
                    // isolate the straddling block, then split its tids
                    if blk > r.b0 && blk < r.b1 {
                        split = Some((true, blk));
                        break 'outer;
                    }
                    if tid > 0 && blk + 1 > r.b0 && blk + 1 < r.b1 {
                        split = Some((true, blk + 1));
                        break 'outer;
                    }
                    if r.b1 - r.b0 == 1 && r.b0 == blk && tid > r.t0 && tid < r.t1 {
                        split = Some((false, tid as u64));
                        break 'outer;
                    }
                }
            }
        }
        match split {
            Some((true, at)) => {
                work.push(Rect {
                    b1: at,
                    ..r.clone()
                });
                work.push(Rect { b0: at, ..r });
            }
            Some((false, at)) => {
                work.push(Rect {
                    t1: at as u32,
                    ..r.clone()
                });
                work.push(Rect { t0: at as u32, ..r });
            }
            None => finals.push((r, outcome)),
        }
    }

    // accumulate thread-level totals; a hostile/degenerate launch whose
    // `area * count` wraps u64 must surface a typed error, never a small
    // wrapped count
    let overflow = || {
        RunErr::Exec(ExecError::CountOverflow {
            kernel: kernel_name.to_string(),
        })
    };
    let mut thread_instructions = 0u64;
    let mut by_category = [0u64; NCAT];
    for (r, o) in &finals {
        let area = r.area().ok_or_else(overflow)?;
        thread_instructions = area
            .checked_mul(o.count)
            .and_then(|x| thread_instructions.checked_add(x))
            .ok_or_else(overflow)?;
        for (acc, v) in by_category.iter_mut().zip(&o.by_cat) {
            *acc = area
                .checked_mul(*v)
                .and_then(|x| acc.checked_add(x))
                .ok_or_else(overflow)?;
        }
    }

    let warp_issues = warp_issue_total(&finals, nblocks, ntid).ok_or_else(overflow)?;
    let threads = nblocks.checked_mul(ntid as u64).ok_or_else(overflow)?;

    COUNT_LAUNCHES.inc();
    COUNT_REPS.add(reps as u64);
    COUNT_PIECES.add(finals.len() as u64);
    Ok(LaunchCount {
        threads,
        thread_instructions,
        warp_issues,
        by_category,
        pieces: finals.len() as u32,
        reps_executed: reps,
    })
}

/// Warp-level issue total: per warp, the maximum per-thread path length
/// among the rectangles covering it, summed over all warps of all blocks.
/// `None` on `u64` overflow (surfaced by the caller as
/// [`ExecError::CountOverflow`]).
fn warp_issue_total(finals: &[(Rect, ThreadOutcome)], nblocks: u64, ntid: u32) -> Option<u64> {
    // global boundary grid
    let mut bbs: Vec<u64> = vec![0, nblocks];
    let mut tbs: Vec<u32> = vec![0, ntid];
    for (r, _) in finals {
        bbs.push(r.b0);
        bbs.push(r.b1);
        tbs.push(r.t0);
        tbs.push(r.t1);
    }
    // warp boundaries in the tid dimension
    let mut w = 0;
    while w <= ntid {
        tbs.push(w);
        w += WARP;
    }
    bbs.sort_unstable();
    bbs.dedup();
    tbs.sort_unstable();
    tbs.dedup();

    let count_at = |b: u64, t: u32| -> u64 {
        finals
            .iter()
            .find(|(r, _)| b >= r.b0 && b < r.b1 && t >= r.t0 && t < r.t1)
            .map(|(_, o)| o.count)
            .unwrap_or(0)
    };

    let mut total = 0u64;
    for bi in bbs.windows(2) {
        let (b0, b1) = (bi[0], bi[1]);
        if b0 >= b1 {
            continue;
        }
        // per-warp max within this block stripe
        let mut stripe = 0u64;
        let mut w0 = 0u32;
        while w0 < ntid {
            let w1 = (w0 + WARP).min(ntid);
            let mut mx = 0u64;
            for ti in tbs.windows(2) {
                let (t0, t1) = (ti[0], ti[1]);
                if t0 >= w0 && t0 < w1 && t1 > t0 {
                    mx = mx.max(count_at(b0, t0));
                }
            }
            stripe = stripe.checked_add(mx)?;
            w0 = w1;
        }
        total = stripe
            .checked_mul(b1 - b0)
            .and_then(|x| total.checked_add(x))?;
    }
    Some(total)
}

/// Reference counter: executes *every* thread. Exponentially slower; used
/// by tests and the ablation bench to validate [`count_launch`].
pub fn count_launch_bruteforce(
    kernel: &Kernel,
    launch: &KernelLaunch,
) -> Result<LaunchCount, ExecError> {
    let nblocks = launch.blocks();
    let ntid = kernel.block_threads();
    let machine = Machine::new(kernel, nblocks, &launch.args);
    let mut thread_instructions = 0u64;
    let mut by_category = [0u64; NCAT];
    let mut warp_issues = 0u64;
    for b in 0..nblocks {
        let mut warp_max = 0u64;
        for t in 0..ntid {
            let o = machine.run(b, t)?;
            thread_instructions += o.count;
            for (acc, v) in by_category.iter_mut().zip(&o.by_cat) {
                *acc += v;
            }
            warp_max = warp_max.max(o.count);
            if (t + 1) % WARP == 0 || t + 1 == ntid {
                warp_issues += warp_max;
                warp_max = 0;
            }
        }
    }
    Ok(LaunchCount {
        threads: nblocks * ntid as u64,
        thread_instructions,
        warp_issues,
        by_category,
        pieces: 0,
        reps_executed: (nblocks * ntid as u64) as u32,
    })
}

/// Count a whole launch plan, in parallel over its distinct launch shapes
/// (see [`CountingReport::unique_launches`]); launches of one shape share
/// one count. Counts in [`CountMode::Auto`].
pub fn count_plan(plan: &LaunchPlan, use_slice: bool) -> Result<PlanCount, ExecError> {
    count_plan_mode_budgeted(plan, use_slice, &ExecBudget::default(), CountMode::Auto)
}

/// [`count_plan_mode_budgeted`] plus a [`CountingReport`] describing which
/// tier did the work (the `PlanCount` itself is mode-invariant).
pub fn count_plan_report_budgeted(
    plan: &LaunchPlan,
    use_slice: bool,
    budget: &ExecBudget,
    mode: CountMode,
) -> Result<(PlanCount, CountingReport), ExecError> {
    let prepared = prepare_plan(plan);
    let kernel_of = |l: &KernelLaunch| prepared[l.kernel].as_deref().expect("prepared above");
    let (firsts, group_of) = group_launches(&plan.launches, |l| {
        let read = if mode == CountMode::Bruteforce {
            l.args.clone()
        } else {
            kernel_of(l).read_args(&l.args)
        };
        (l.kernel, l.grid, l.args.len(), read)
    });

    let kernels: Vec<&PreparedKernel> = prepared.iter().flatten().map(|k| &**k).collect();
    // compile every referenced kernel before the parallel counts (a no-op
    // for kernels the table compiled before)
    let polys: Vec<bool> = if matches!(mode, CountMode::Auto | CountMode::Poly) {
        kernels.iter().map(|k| k.poly(use_slice).is_ok()).collect()
    } else {
        Vec::new()
    };
    let poly_compiled = polys.iter().filter(|ok| **ok).count() as u32;
    let eval_fallbacks = AtomicU32::new(0);

    let uniques: Vec<LaunchCount> = firsts
        .par_iter()
        .map(|&i| {
            let l = &plan.launches[i];
            count_on(kernel_of(l), l, use_slice, budget, mode, &eval_fallbacks)
        })
        .collect::<Result<_, _>>()?;

    let per_launch: Vec<LaunchCount> = group_of.iter().map(|&g| uniques[g].clone()).collect();
    let mut thread_instructions = 0u64;
    let mut warp_issues = 0u64;
    let mut by_category = [0u64; NCAT];
    for lc in &per_launch {
        thread_instructions += lc.thread_instructions;
        warp_issues += lc.warp_issues;
        for (acc, v) in by_category.iter_mut().zip(&lc.by_category) {
            *acc += v;
        }
    }
    let report = CountingReport {
        mode,
        kernels: kernels.len() as u32,
        poly_compiled,
        poly_rejected: polys.len() as u32 - poly_compiled,
        poly_eval_fallbacks: eval_fallbacks.into_inner(),
        unique_launches: firsts.len() as u32,
    };
    Ok((
        PlanCount {
            per_launch,
            thread_instructions,
            warp_issues,
            by_category,
        },
        report,
    ))
}

/// [`count_plan`] with an explicit execution budget and [`CountMode`]. A
/// deadline in the budget, shared by its clones, aborts all parallel
/// launch counts cooperatively. Each referenced kernel comes from the
/// process-wide table of prepared kernels, so it is decoded, sliced and
/// poly-compiled at most once per process.
pub fn count_plan_mode_budgeted(
    plan: &LaunchPlan,
    use_slice: bool,
    budget: &ExecBudget,
    mode: CountMode,
) -> Result<PlanCount, ExecError> {
    count_plan_report_budgeted(plan, use_slice, budget, mode).map(|(pc, _)| pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::builder::KernelBuilder;
    use ptx::inst::Operand;
    use ptx::types::Type;
    use std::collections::HashMap;

    fn guard_kernel(block: u32) -> Kernel {
        let mut kb = KernelBuilder::new("k", block);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        for _ in 0..5 {
            let f = kb.f();
            kb.mov(Type::F32, f, Operand::ImmF(1.0));
        }
        kb.place_label(exit);
        kb.ret();
        kb.finish()
    }

    fn launch_of(kernel: &Kernel, threads: u64, args: Vec<u64>) -> KernelLaunch {
        KernelLaunch {
            kernel: 0,
            tag: "t".into(),
            grid: (threads.div_ceil(kernel.block_threads() as u64) as u32, 1, 1),
            args,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    fn loop_kernel(block: u32) -> Kernel {
        let mut kb = KernelBuilder::new("k", block);
        let p_n = kb.param("n", Type::U32);
        let p_trip = kb.param("trip", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let trip = kb.ld_param(&p_trip, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        kb.counted_loop(trip, |kb, _| {
            let f = kb.f();
            kb.mov(Type::F32, f, Operand::ImmF(1.0));
        });
        kb.place_label(exit);
        kb.ret();
        kb.finish()
    }

    #[test]
    fn matches_bruteforce_on_guard_kernel() {
        let k = guard_kernel(64);
        for n in [1u64, 63, 64, 100, 255, 256, 300] {
            let l = launch_of(&k, 320, vec![n]);
            let fast = count_launch(&k, &l, false).unwrap();
            let brute = count_launch_bruteforce(&k, &l).unwrap();
            assert_eq!(
                fast.thread_instructions, brute.thread_instructions,
                "thread counts differ at n={n}"
            );
            assert_eq!(
                fast.warp_issues, brute.warp_issues,
                "warp issues differ at n={n}"
            );
            assert_eq!(fast.by_category, brute.by_category, "mix differs at n={n}");
        }
    }

    #[test]
    fn slice_mode_gives_identical_counts() {
        let k = guard_kernel(64);
        let l = launch_of(&k, 640, vec![423]);
        let full = count_launch(&k, &l, false).unwrap();
        let sliced = count_launch(&k, &l, true).unwrap();
        assert_eq!(full.thread_instructions, sliced.thread_instructions);
        assert_eq!(full.warp_issues, sliced.warp_issues);
    }

    #[test]
    fn piece_count_is_small_and_constant_in_grid_size() {
        let k = guard_kernel(256);
        let small = count_launch(&k, &launch_of(&k, 10_000, vec![9_000]), false).unwrap();
        let large = count_launch(&k, &launch_of(&k, 10_000_000, vec![9_000_000]), false).unwrap();
        assert!(small.pieces <= 6, "{}", small.pieces);
        assert_eq!(small.pieces, large.pieces);
        assert!(large.reps_executed < 20);
    }

    #[test]
    fn exact_boundary_no_divergence() {
        // n exactly fills the grid: single piece
        let k = guard_kernel(64);
        let l = launch_of(&k, 256, vec![256]);
        let c = count_launch(&k, &l, false).unwrap();
        assert_eq!(c.pieces, 1);
    }

    #[test]
    fn loop_kernel_matches_bruteforce() {
        let k = loop_kernel(32);
        let l = launch_of(&k, 96, vec![70, 9]);
        let fast = count_launch(&k, &l, false).unwrap();
        let brute = count_launch_bruteforce(&k, &l).unwrap();
        assert_eq!(fast.thread_instructions, brute.thread_instructions);
        assert_eq!(fast.warp_issues, brute.warp_issues);
    }

    #[test]
    fn poly_and_interp_modes_agree_exactly() {
        let budget = ExecBudget::default();
        for k in [guard_kernel(64), loop_kernel(32)] {
            for threads in [64u64, 320] {
                let l = launch_of(&k, threads, vec![61, 7]);
                let l = KernelLaunch {
                    args: l.args[..k.params.len()].to_vec(),
                    ..l
                };
                let poly = count_launch_mode(&k, &l, true, &budget, CountMode::Poly).unwrap();
                let interp = count_launch_mode(&k, &l, true, &budget, CountMode::Interp).unwrap();
                let auto = count_launch_mode(&k, &l, true, &budget, CountMode::Auto).unwrap();
                assert_eq!(poly, interp, "poly vs interp on {}", k.name);
                assert_eq!(auto, interp, "auto vs interp on {}", k.name);
            }
        }
    }

    #[test]
    fn count_overflow_is_reported_not_wrapped() {
        // 4e9 blocks x 1024 threads x ~4.7M-instruction paths: the exact
        // total exceeds u64, which previously wrapped silently
        let k = loop_kernel(1024);
        let l = KernelLaunch {
            kernel: 0,
            tag: "t".into(),
            grid: (4_000_000_000, 1, 1),
            args: vec![u64::MAX, 1_560_000],
            bytes_read: 0,
            bytes_written: 0,
        };
        let budget = ExecBudget::default();
        for mode in [CountMode::Interp, CountMode::Auto, CountMode::Poly] {
            match count_launch_mode(&k, &l, true, &budget, mode) {
                Err(ExecError::CountOverflow { kernel }) => assert_eq!(kernel, "k"),
                other => panic!("{mode}: expected CountOverflow, got {other:?}"),
            }
        }
    }

    #[test]
    fn strict_poly_mode_surfaces_fallback_reason() {
        // data-dependent branch: compiles on no mode, so strict poly must
        // error with an attributable reason while auto falls back cleanly
        let mut kb = KernelBuilder::new("dd", 32);
        let _p = kb.param("buf", Type::U64);
        let a = kb.rd();
        kb.mov(Type::U64, a, Operand::ImmI(0));
        let v = kb.r();
        kb.ld(
            ptx::types::Space::Global,
            Type::U32,
            v,
            ptx::inst::Address::reg(a),
        );
        let pr = kb.p();
        kb.setp(ptx::types::CmpOp::Lt, Type::U32, pr, v, Operand::ImmI(10));
        let done = kb.label();
        kb.bra_if(pr, false, done);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(0.0));
        kb.place_label(done);
        kb.ret();
        let k = kb.finish();
        let l = launch_of(&k, 64, vec![0]);
        let budget = ExecBudget::default();
        match count_launch_mode(&k, &l, true, &budget, CountMode::Poly) {
            Err(ExecError::Unlaunchable { reason, .. }) => {
                assert!(reason.starts_with("poly: "), "{reason}");
            }
            other => panic!("expected Unlaunchable, got {other:?}"),
        }
        // auto mode silently uses the interpreter — but the interpreter
        // itself can't resolve a data-dependent branch either, so expect
        // its error, not a poly-attributed one
        match count_launch_mode(&k, &l, true, &budget, CountMode::Auto) {
            Err(ExecError::DataDependentBranch { .. }) => {}
            other => panic!("expected DataDependentBranch, got {other:?}"),
        }
    }

    #[test]
    fn plan_totals_are_sums() {
        let model = cnn_ir::zoo::build("alexnet").unwrap();
        let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
        let pc = count_plan(&plan, true).unwrap();
        assert_eq!(pc.per_launch.len(), plan.launches.len());
        let sum: u64 = pc.per_launch.iter().map(|l| l.thread_instructions).sum();
        assert_eq!(sum, pc.thread_instructions);
        assert!(
            pc.thread_instructions > 1_000_000_000,
            "{}",
            pc.thread_instructions
        );
        // warp-level is less than thread-level by roughly the warp width
        assert!(pc.warp_issues * 2 < pc.thread_instructions);
    }

    #[test]
    fn memoization_reuses_repeated_launches() {
        let model = cnn_ir::zoo::build("vgg16").unwrap();
        let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
        let pc = count_plan(&plan, true).unwrap();
        // vgg has repeated same-shape convs; identical launches must have
        // identical counts
        let mut seen: HashMap<(usize, Vec<u64>), u64> = HashMap::new();
        for (l, c) in plan.launches.iter().zip(&pc.per_launch) {
            let key = (l.kernel, l.args.clone());
            if let Some(prev) = seen.insert(key, c.thread_instructions) {
                assert_eq!(prev, c.thread_instructions);
            }
        }
    }
}
