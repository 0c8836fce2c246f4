//! The detailed event-driven SM simulator — this crate's "real hardware".
//!
//! For each launch, one *wave* (a full complement of resident blocks on one
//! SM) is simulated instruction by instruction: a binary heap orders warps
//! by readiness; each issued instruction occupies its pipeline for its
//! reciprocal-throughput cost and delays its warp by its dependent-use
//! latency; global loads probe a deterministic L2 model and consume DRAM
//! bandwidth tokens on miss; barriers rejoin all warps of a block. Waves
//! multiply out to the full grid.
//!
//! The per-warp instruction stream is the representative-thread category
//! trace from [`ptx_analysis::Machine::run_traced`] — exact for uniform
//! launches, the dominant path under guard divergence.

use crate::occupancy::occupancy;
use crate::specs::DeviceSpec;
use crate::timing::{l2_hit_rate, timing_for, Timing};
use ptx::inst::Category;
use ptx::kernel::KernelLaunch;
use ptx_analysis::{ExecBudget, ExecError, LaunchCount, Machine, PreparedKernel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Launches entering the detailed simulator.
static SIM_LAUNCHES: obs::LazyCounter = obs::LazyCounter::new("sim.launches");
/// Grid waves implied by the simulated launches.
static SIM_WAVES: obs::LazyCounter = obs::LazyCounter::new("sim.waves");
/// Warp-issue events popped by the event-driven wave loop.
static SIM_EVENTS: obs::LazyCounter = obs::LazyCounter::new("sim.events");
/// Wave simulations aborted by a passed budget deadline.
static SIM_CANCELLED: obs::LazyCounter = obs::LazyCounter::new("sim.cancelled");
/// Launches rejected because zero blocks fit on an SM.
static SIM_INFEASIBLE: obs::LazyCounter = obs::LazyCounter::new("sim.occupancy.infeasible");

/// Scheduler events between cooperative-cancellation checks in the
/// event-driven wave loop. This is the detailed simulator's documented
/// cancellation-latency contract: once the [`ExecBudget`] deadline passes,
/// the cycle loop returns [`ExecError::Cancelled`] after at most this many
/// further warp-issue events (each event is one heap pop — nanoseconds of
/// host work — so the wall-clock observation latency is microseconds).
pub const SIM_CANCEL_CHECK_EVENTS: u64 = 4096;

/// Launches between cooperative-cancellation checks in the analytical arm
/// of [`crate::Simulator::simulate_plan`]: it checks before launch 0 and
/// then every this many launches. A check locks the deadline and reads the
/// clock, which costs more than a launch's closed-form arithmetic; one
/// check per 64 launches costs nothing measurable, and a passed deadline
/// is seen within 64 launches (microseconds of host work).
pub const ANALYTICAL_CANCEL_CHECK_LAUNCHES: u64 = 64;

/// Detailed-simulation result for one launch.
#[derive(Debug, Clone)]
pub struct LaunchSim {
    /// Core cycles the launch occupies the GPU.
    pub cycles: f64,
    /// Warp instructions issued (whole launch).
    pub warp_instructions: u64,
    /// Thread-level instruction count (whole launch).
    pub thread_instructions: u64,
    /// DRAM traffic after the L2 (bytes).
    pub dram_bytes: f64,
    pub l2_hit: f64,
    /// SMs with at least one resident block.
    pub active_sms: u32,
}

fn cat_idx(c: Category) -> usize {
    Category::ALL.iter().position(|x| *x == c).expect("cat")
}

/// Per-launch kernel overhead in microseconds (driver + dispatch).
pub const LAUNCH_OVERHEAD_US: f64 = 2.5;

/// Traces longer than this are truncated and scaled linearly — keeps worst
/// case dense layers tractable without changing the steady-state rate.
const TRACE_CAP: usize = 262_144;

/// Simulate one launch on `dev` in detail. `counts` is the launch's exact
/// instruction count from the analysis, reported as is; the simulation
/// itself runs the representative thread's category trace. The budget's
/// step fuel and deadline bound both the representative-thread
/// execution and — via [`SIM_CANCEL_CHECK_EVENTS`] — the event-driven
/// cycle loop itself, so a deadline-driven caller can abort a runaway
/// simulation.
pub fn simulate_launch(
    prepared: &PreparedKernel,
    launch: &KernelLaunch,
    counts: &LaunchCount,
    dev: &DeviceSpec,
    budget: &ExecBudget,
) -> Result<LaunchSim, ExecError> {
    let kernel = prepared.kernel();
    let timing = timing_for(dev);
    let occ = occupancy(kernel, dev);
    if !occ.feasible() {
        SIM_INFEASIBLE.inc();
        return Err(ExecError::Unlaunchable {
            kernel: kernel.name.clone(),
            reason: format!(
                "zero blocks fit on an SM of `{}` (limited by {:?})",
                dev.name, occ.limiter
            ),
        });
    }
    SIM_LAUNCHES.inc();
    let machine = Machine::from_program(
        Arc::clone(prepared.program()),
        launch.blocks(),
        &launch.args,
    )
    .with_budget(budget.clone());
    let (_, mut trace) = machine.run_traced(0, 0)?;

    let trace_scale = if trace.len() > TRACE_CAP {
        let s = trace.len() as f64 / TRACE_CAP as f64;
        trace.truncate(TRACE_CAP);
        s
    } else {
        1.0
    };

    let blocks = launch.blocks();
    let warps_per_block = kernel.block_threads().div_ceil(32).max(1);
    let capacity_blocks = (dev.sm_count * occ.blocks_per_sm) as u64;
    let waves = blocks.div_ceil(capacity_blocks.max(1)).max(1);
    SIM_WAVES.add(waves);
    let active_sms = blocks.min(dev.sm_count as u64) as u32;

    // blocks resident on the busiest SM during one wave
    let blocks_this_sm = blocks
        .div_ceil(waves)
        .div_ceil(active_sms.max(1) as u64)
        .clamp(1, occ.blocks_per_sm as u64) as u32;

    let l2_hit = l2_hit_rate(launch.bytes_read, dev.l2_cache_kb);
    // DRAM bytes generated per global-load warp instruction on this SM
    let trace_loads =
        trace.iter().filter(|c| **c == Category::LoadGlobal).count() as f64 * trace_scale;
    let total_load_issues = trace_loads * warps_per_block as f64 * blocks as f64;
    let bytes_per_load = if total_load_issues > 0.0 {
        launch.bytes_read as f64 / total_load_issues
    } else {
        0.0
    };
    let store_issues = trace
        .iter()
        .filter(|c| **c == Category::StoreGlobal)
        .count() as f64
        * trace_scale
        * warps_per_block as f64
        * blocks as f64;
    let bytes_per_store = if store_issues > 0.0 {
        launch.bytes_written as f64 / store_issues
    } else {
        0.0
    };
    // per-SM DRAM bandwidth share in bytes per cycle
    let dram_bpc_sm = dev.bytes_per_cycle() / active_sms.max(1) as f64;

    let wave_cycles = simulate_wave(
        &trace,
        warps_per_block,
        blocks_this_sm,
        &timing,
        l2_hit,
        bytes_per_load * (1.0 - l2_hit),
        bytes_per_store,
        dram_bpc_sm,
        budget,
        &kernel.name,
    )?;

    let cycles = wave_cycles * trace_scale * waves as f64
        + LAUNCH_OVERHEAD_US * 1e-6 * dev.boost_clock_mhz as f64 * 1e6;
    let dram_bytes = launch.bytes_read as f64 * (1.0 - l2_hit) + launch.bytes_written as f64;

    Ok(LaunchSim {
        cycles,
        warp_instructions: counts.warp_issues,
        thread_instructions: counts.thread_instructions,
        dram_bytes,
        l2_hit,
        active_sms,
    })
}

/// Event-driven simulation of one wave on one SM. Returns cycles. The
/// budget's deadline is checked every [`SIM_CANCEL_CHECK_EVENTS`] heap
/// pops; its step fuel also caps total events (a hung-wave backstop).
#[allow(clippy::too_many_arguments)]
fn simulate_wave(
    trace: &[Category],
    warps_per_block: u32,
    blocks: u32,
    timing: &Timing,
    l2_hit: f64,
    dram_bytes_per_load: f64,
    dram_bytes_per_store: f64,
    dram_bpc: f64,
    budget: &ExecBudget,
    kernel_name: &str,
) -> Result<f64, ExecError> {
    if trace.is_empty() {
        return Ok(0.0);
    }
    let nwarps = (warps_per_block * blocks) as usize;
    // warp state: (ready_time, trace cursor); heap keyed by ready time
    let mut cursor = vec![0usize; nwarps];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..nwarps).map(|w| Reverse((0u64, w))).collect();
    // pipeline next-free times (fixed-point cycles scaled by 1024 to keep
    // fractional CPIs exact in integer arithmetic)
    const FX: f64 = 1024.0;
    let mut pipe_free = [0u64; ptx_analysis::NCAT];
    let mut issue_free = 0u64;
    let mut dram_free = 0u64;
    // barrier bookkeeping: warps of one block rejoin at bar.sync
    let mut bar_wait: Vec<Vec<u64>> = vec![Vec::new(); blocks as usize];
    let mut finish = 0u64;
    // deterministic hash state for L2 hit decisions
    let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15;

    let dram_cpl = (dram_bytes_per_load / dram_bpc * FX) as u64;
    let dram_cps = (dram_bytes_per_store / dram_bpc * FX) as u64;

    let mut events: u64 = 0;
    let max_events = budget.max_steps();
    while let Some(Reverse((ready, w))) = heap.pop() {
        events += 1;
        if events.is_multiple_of(SIM_CANCEL_CHECK_EVENTS) {
            if budget.check() {
                SIM_EVENTS.add(events);
                SIM_CANCELLED.inc();
                return Err(ExecError::Cancelled {
                    kernel: kernel_name.to_string(),
                    step: events,
                });
            }
            if events > max_events {
                SIM_EVENTS.add(events);
                return Err(ExecError::StepLimit {
                    limit: max_events,
                    kernel: kernel_name.to_string(),
                });
            }
        }
        let i = cursor[w];
        if i >= trace.len() {
            finish = finish.max(ready);
            continue;
        }
        let cat = trace[i];
        let ci = cat_idx(cat);

        if cat == Category::Sync {
            // barrier: the warp parks; when all block warps arrive, release
            let block = w / warps_per_block as usize;
            bar_wait[block].push(ready);
            cursor[w] += 1;
            if bar_wait[block].len() == warps_per_block as usize {
                let t = *bar_wait[block].iter().max().expect("nonempty") + FX as u64;
                bar_wait[block].clear();
                // release all warps of this block at t
                let lo = block * warps_per_block as usize;
                let hi = lo + warps_per_block as usize;
                for (wb, &cur) in cursor.iter().enumerate().take(hi).skip(lo) {
                    if cur > 0 && cur <= trace.len() {
                        heap.push(Reverse((t, wb)));
                    }
                }
            }
            continue;
        }

        let t_issue = ready.max(issue_free).max(pipe_free[ci]);
        issue_free = t_issue + (timing.issue_cpi * FX) as u64;
        pipe_free[ci] = t_issue + (timing.cpi[ci] * FX) as u64;

        let mut lat = timing.latency[ci];
        if cat == Category::LoadGlobal {
            // deterministic pseudo-random L2 outcome at rate `l2_hit`
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hit = ((rng_state >> 33) as f64 / (1u64 << 31) as f64) < l2_hit;
            if !hit {
                lat = timing.dram_latency;
                let t_mem = t_issue.max(dram_free);
                dram_free = t_mem + dram_cpl;
            }
        } else if cat == Category::StoreGlobal && dram_cps > 0 {
            let t_mem = t_issue.max(dram_free);
            dram_free = t_mem + dram_cps;
        }

        let done = t_issue + (lat * FX) as u64;
        cursor[w] += 1;
        if cursor[w] < trace.len() {
            heap.push(Reverse((done, w)));
        } else {
            finish = finish.max(done);
        }
    }
    finish = finish.max(issue_free).max(dram_free);
    SIM_EVENTS.add(events);
    Ok(finish as f64 / FX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{gtx_1080_ti, quadro_p1000, v100s};
    use ptx::builder::KernelBuilder;
    use ptx::inst::Operand;
    use ptx::kernel::Kernel;
    use ptx::types::Type;

    /// Count `l` as the analysis does, then simulate it under `budget`.
    fn simulate(
        k: &Kernel,
        l: &KernelLaunch,
        dev: &DeviceSpec,
        budget: &ExecBudget,
    ) -> Result<LaunchSim, ExecError> {
        let counts = ptx_analysis::count_launch(k, l, true)?;
        simulate_launch(&ptx_analysis::prepare_kernel(k), l, &counts, dev, budget)
    }

    fn sim(k: &Kernel, l: &KernelLaunch, dev: &DeviceSpec) -> Result<LaunchSim, ExecError> {
        simulate(k, l, dev, &ExecBudget::default())
    }

    fn guard_kernel(body: u32) -> Kernel {
        let mut kb = KernelBuilder::new("k", 256);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        for _ in 0..body {
            let f = kb.f();
            kb.mov(Type::F32, f, Operand::ImmF(1.0));
        }
        kb.place_label(exit);
        kb.ret();
        kb.finish()
    }

    fn launch(kernel: &Kernel, threads: u64, args: Vec<u64>, br: u64, bw: u64) -> KernelLaunch {
        KernelLaunch {
            kernel: 0,
            tag: "t".into(),
            grid: (threads.div_ceil(kernel.block_threads() as u64) as u32, 1, 1),
            args,
            bytes_read: br,
            bytes_written: bw,
        }
    }

    #[test]
    fn more_work_takes_more_cycles() {
        // body heavy enough that waves dominate the fixed launch overhead
        let dev = gtx_1080_ti();
        let k = guard_kernel(64);
        let small = sim(&k, &launch(&k, 1 << 18, vec![1 << 18], 0, 0), &dev).unwrap();
        let large = sim(&k, &launch(&k, 1 << 24, vec![1 << 24], 0, 0), &dev).unwrap();
        assert!(
            large.cycles > small.cycles * 10.0,
            "small {} vs large {}",
            small.cycles,
            large.cycles
        );
    }

    #[test]
    fn faster_device_finishes_sooner() {
        let k = ptx_codegen::Template::GemmTiled.build();
        // 512x512x512 gemm
        let l = KernelLaunch {
            kernel: 0,
            tag: "gemm".into(),
            grid: ((512 * 512 / 256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, 0x3000, 512, 512, 512, 32, 0, 0],
            bytes_read: 512 * 512 * 8,
            bytes_written: 512 * 512 * 4,
        };
        let big = sim(&k, &l, &v100s()).unwrap();
        let small = sim(&k, &l, &quadro_p1000()).unwrap();
        assert!(
            small.cycles > 2.0 * big.cycles,
            "P1000 {} vs V100S {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn memory_bound_kernel_scales_with_bandwidth() {
        // pure copy kernel with huge traffic
        let k = ptx_codegen::Template::CopyF32.build();
        let n: u64 = 1 << 26; // 64M elements = 256 MB in + 256 MB out
        let l = launch(&k, n / 4, vec![0x1000, 0x2000, n], n * 4, n * 4);
        let fast = sim(&k, &l, &v100s()).unwrap();
        let slow = sim(&k, &l, &gtx_1080_ti()).unwrap();
        // V100S has 2.3x the bandwidth; allow a broad band
        let ratio = slow.cycles / fast.cycles;
        assert!(ratio > 1.3, "expected bandwidth-driven gap, got {ratio}");
    }

    #[test]
    fn barrier_kernel_completes() {
        let k = ptx_codegen::Template::SoftmaxMax.build();
        let l = KernelLaunch {
            kernel: 0,
            tag: "softmax".into(),
            grid: (1, 1, 1),
            args: vec![0x1000, 0, 0x2000, 0x3000, 1000],
            bytes_read: 4000,
            bytes_written: 4,
        };
        let s = sim(&k, &l, &gtx_1080_ti()).unwrap();
        assert!(s.cycles.is_finite() && s.cycles > 0.0);
    }

    #[test]
    fn ipc_in_plausible_range() {
        let k = ptx_codegen::Template::GemmTiled.build();
        let l = KernelLaunch {
            kernel: 0,
            tag: "gemm".into(),
            grid: ((1024 * 1024 / 256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, 0x3000, 1024, 1024, 1024, 64, 0, 0],
            bytes_read: 1024 * 1024 * 16,
            bytes_written: 1024 * 1024 * 4,
        };
        let dev = gtx_1080_ti();
        let s = sim(&k, &l, &dev).unwrap();
        let ipc_per_sm = s.warp_instructions as f64 / s.cycles / dev.sm_count as f64;
        assert!(
            (0.05..4.0).contains(&ipc_per_sm),
            "per-SM IPC {ipc_per_sm} out of range"
        );
    }

    #[test]
    fn cancelled_simulation_stops_within_bounded_events() {
        // a launch big enough that the wave loop runs far past one check
        // interval; a passed deadline must abort it at the first check
        let dev = gtx_1080_ti();
        let k = guard_kernel(64);
        let l = launch(&k, 1 << 22, vec![1 << 22], 0, 0);
        let budget = ExecBudget::default().with_deadline(std::time::Duration::ZERO);
        match simulate(&k, &l, &dev, &budget) {
            Err(ExecError::Cancelled { step, .. }) => {
                // observed within the documented bound: the representative
                // execution checks at step 0, the wave loop within
                // SIM_CANCEL_CHECK_EVENTS events
                assert!(
                    step <= SIM_CANCEL_CHECK_EVENTS,
                    "cancel observed only after {step} events"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn passed_deadline_cancels_the_analytical_arm_before_its_first_launch() {
        // more launches than one check interval, so the plan has several
        // check points; a zero deadline is seen at the first, before
        // launch 0, and an unexpired one changes nothing
        let k = guard_kernel(16);
        let mut module = ptx::kernel::Module::new("sm_61");
        std::sync::Arc::make_mut(&mut module.kernels).push(k.clone());
        let plan = ptx::kernel::LaunchPlan {
            model_name: "plan".into(),
            module,
            launches: (0..3 * ANALYTICAL_CANCEL_CHECK_LAUNCHES)
                .map(|i| launch(&k, (i + 1) << 10, vec![(i + 1) << 10], 1 << 16, 1 << 12))
                .collect(),
        };
        let counts = ptx_analysis::count_plan(&plan, true).unwrap();
        let sim = crate::Simulator::new(gtx_1080_ti(), crate::SimMode::Analytical);
        let run = |budget: ExecBudget| sim.simulate_plan(&plan, &counts, &budget);
        match run(ExecBudget::default().with_deadline(std::time::Duration::ZERO)) {
            Err(ExecError::Cancelled { kernel, step }) => {
                assert_eq!((kernel.as_str(), step), ("k", 0));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let plain = run(ExecBudget::default()).unwrap();
        let budgeted =
            run(ExecBudget::default().with_deadline(std::time::Duration::from_secs(3600))).unwrap();
        assert_eq!(plain.cycles.to_bits(), budgeted.cycles.to_bits());
        assert_eq!(plain.ipc.to_bits(), budgeted.ipc.to_bits());
        assert_eq!(plain.warp_instructions, budgeted.warp_instructions);
    }

    #[test]
    fn unexpired_deadline_matches_unbudgeted_simulation() {
        let dev = gtx_1080_ti();
        let k = guard_kernel(16);
        let l = launch(&k, 1 << 18, vec![200_000], 1 << 22, 1 << 20);
        let plain = sim(&k, &l, &dev).unwrap();
        let budget = ExecBudget::default().with_deadline(std::time::Duration::from_secs(3600));
        let budgeted = simulate(&k, &l, &dev, &budget).unwrap();
        assert_eq!(plain.cycles, budgeted.cycles);
        assert_eq!(plain.warp_instructions, budgeted.warp_instructions);
    }

    #[test]
    fn wave_event_fuel_catches_runaway() {
        // a tiny step fuel trips the wave loop's StepLimit backstop. The
        // kernel needs a long trace but few registers (so occupancy stays
        // high and events = warps x trace overwhelms the fuel): a counted
        // loop reusing one register, ~3.5k steps per thread.
        let mut kb = KernelBuilder::new("runaway", 256);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32);
        let (_gid, exit) = kb.guard_gid(n);
        let f = kb.f();
        kb.counted_loop(Operand::ImmI(700), |kb, _i| {
            kb.mov(Type::F32, f, Operand::ImmF(1.0));
        });
        kb.place_label(exit);
        kb.ret();
        let k = kb.finish();
        let l = launch(&k, 1 << 22, vec![1 << 22], 0, 0);
        let budget = ExecBudget::default().with_max_steps(SIM_CANCEL_CHECK_EVENTS);
        // representative execution fits in the fuel; the wave loop (many
        // warps x trace) does not
        match simulate(&k, &l, &gtx_1080_ti(), &budget) {
            Err(ExecError::StepLimit { .. }) => {}
            other => panic!("expected StepLimit, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_kernel_is_rejected_not_simulated() {
        // a block demanding more shared memory than the SM owns used to be
        // silently simulated as one resident block; it must now surface as
        // an explicit Unlaunchable error
        let dev = gtx_1080_ti();
        let mut kb = KernelBuilder::new("shared_hog", 64);
        kb.shared(dev.shared_mem_per_sm_kb * 1024 + 1);
        kb.ret();
        let k = kb.finish();
        let l = launch(&k, 1 << 12, vec![], 0, 0);
        match sim(&k, &l, &dev) {
            Err(ExecError::Unlaunchable { kernel, .. }) => assert_eq!(kernel, "shared_hog"),
            other => panic!("expected Unlaunchable, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let dev = gtx_1080_ti();
        let k = guard_kernel(16);
        let l = launch(&k, 1 << 18, vec![200_000], 1 << 22, 1 << 20);
        let a = sim(&k, &l, &dev).unwrap();
        let b = sim(&k, &l, &dev).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.warp_instructions, b.warp_instructions);
    }
}
