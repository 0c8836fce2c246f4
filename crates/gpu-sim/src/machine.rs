//! Whole-plan simulation: run every launch of a [`LaunchPlan`] on a device
//! and aggregate cycles, instruction counts and the headline IPC metric.

use crate::analytical::{launch_cycles, Precision};
use crate::detailed::{simulate_launch, LaunchSim, ANALYTICAL_CANCEL_CHECK_LAUNCHES};
use crate::occupancy::{occupancy, Occupancy};
use crate::specs::DeviceSpec;
use crate::timing::{l2_hit_rate, timing_for};
use ptx::kernel::{KernelLaunch, LaunchPlan};
use ptx_analysis::{ExecBudget, ExecError, PlanCount, PreparedKernel};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Launch simulations answered from the per-plan memo table.
static SIM_MEMO_HITS: obs::LazyCounter = obs::LazyCounter::new("sim.memo.hits");
/// Unique launch shapes actually simulated in memoized mode.
static SIM_MEMO_MISSES: obs::LazyCounter = obs::LazyCounter::new("sim.memo.misses");

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Event-driven wave simulation with launch memoization (dataset
    /// building).
    Detailed,
    /// Event-driven without memoization — every launch simulated
    /// separately, the honest stand-in for "run it on hardware under
    /// nvprof" in the Table IV timing comparison.
    DetailedNoMemo,
    /// Closed-form roofline estimate (ablation).
    Analytical,
}

/// Aggregated simulation result for one model on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    pub model_name: String,
    pub device_name: String,
    /// Total core cycles of the inference pass.
    pub cycles: f64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread-level executed instructions.
    pub thread_instructions: u64,
    /// The paper's response variable: warp instructions per *active* SM
    /// cycle, matching `nvprof`'s `ipc` metric (which averages over SMs
    /// that have resident work, not over idle ones).
    pub ipc: f64,
    /// Wall-clock latency implied by `cycles` at boost clock, in ms.
    pub latency_ms: f64,
    /// Total DRAM traffic (bytes).
    pub dram_bytes: f64,
    /// Traffic-weighted average L2 hit rate.
    pub l2_hit: f64,
    pub num_launches: usize,
}

/// The simulator: one device, one fidelity mode.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub dev: DeviceSpec,
    pub mode: SimMode,
}

impl Simulator {
    pub fn new(dev: DeviceSpec, mode: SimMode) -> Self {
        Self { dev, mode }
    }

    /// Simulate a full launch plan (serialized launches, as in single-stream
    /// inference). `counts` is the plan's count from the analysis, one
    /// entry per launch; the simulator reports those counts and never
    /// counts a launch itself. The budget's step fuel and deadline
    /// propagate into every per-launch simulation (detailed cycle
    /// loops included), so a deadline-driven caller can abort the whole
    /// plan cooperatively.
    pub fn simulate_plan(
        &self,
        plan: &LaunchPlan,
        counts: &PlanCount,
        budget: &ExecBudget,
    ) -> Result<SimReport, ExecError> {
        assert_eq!(
            counts.per_launch.len(),
            plan.launches.len(),
            "one count per launch of `{}`",
            plan.model_name
        );
        let sims: Vec<LaunchSim> = match self.mode {
            SimMode::Detailed => self.run_memoized(plan, counts, budget)?,
            SimMode::DetailedNoMemo => {
                // every launched kernel comes from the process-wide table,
                // resolved once per plan
                let prepared = ptx_analysis::prepare_plan(plan);
                (plan.launches.par_iter().enumerate())
                    .map(|(i, l)| {
                        let k = kernel_of(&prepared, l);
                        simulate_launch(k, l, &counts.per_launch[i], &self.dev, budget)
                    })
                    .collect::<Result<_, _>>()?
            }
            SimMode::Analytical => self.run_analytical(plan, counts, budget)?,
        };

        let cycles: f64 = sims.iter().map(|s| s.cycles).sum();
        let warp_instructions: u64 = sims.iter().map(|s| s.warp_instructions).sum();
        let thread_instructions: u64 = sims.iter().map(|s| s.thread_instructions).sum();
        let dram_bytes: f64 = sims.iter().map(|s| s.dram_bytes).sum();
        let l2_hit = if dram_bytes > 0.0 {
            sims.iter().map(|s| s.l2_hit * s.dram_bytes).sum::<f64>() / dram_bytes
        } else {
            0.0
        };
        // active-SM cycle integral: each launch contributes its cycles
        // weighted by the SMs that actually held blocks (nvprof semantics)
        let active_cycles: f64 = sims
            .iter()
            .map(|s| s.cycles * s.active_sms.max(1) as f64)
            .sum();
        let ipc = warp_instructions as f64 / active_cycles.max(1.0);
        let latency_ms = cycles / (self.dev.boost_clock_mhz as f64 * 1e3);

        Ok(SimReport {
            model_name: plan.model_name.clone(),
            device_name: self.dev.name.clone(),
            cycles,
            warp_instructions,
            thread_instructions,
            ipc,
            latency_ms,
            dram_bytes,
            l2_hit,
            num_launches: plan.launches.len(),
        })
    }

    /// The analytical arm: every launch in closed form, in a plain loop.
    /// A launch costs a few dozen multiply-adds, far less than the threads
    /// a parallel iterator would spawn. The device's timing tables are
    /// built once per plan and each kernel's occupancy is computed once per
    /// plan, at its first launch. The budget's deadline is checked before
    /// launch 0 and every [`ANALYTICAL_CANCEL_CHECK_LAUNCHES`] launches
    /// after; a passed one returns [`ExecError::Cancelled`] naming the
    /// launch's kernel, with the launch index as `step`.
    fn run_analytical(
        &self,
        plan: &LaunchPlan,
        counts: &PlanCount,
        budget: &ExecBudget,
    ) -> Result<Vec<LaunchSim>, ExecError> {
        let dev = &self.dev;
        let timing = timing_for(dev);
        let mut occupancies: Vec<Option<Occupancy>> = vec![None; plan.module.kernels.len()];
        let mut sims = Vec::with_capacity(plan.launches.len());
        for (i, (l, c)) in plan.launches.iter().zip(&counts.per_launch).enumerate() {
            let k = &plan.module.kernels[l.kernel];
            if (i as u64).is_multiple_of(ANALYTICAL_CANCEL_CHECK_LAUNCHES) && budget.check() {
                return Err(ExecError::Cancelled {
                    kernel: k.name.clone(),
                    step: i as u64,
                });
            }
            let occ = occupancies[l.kernel].get_or_insert_with(|| occupancy(k, dev));
            sims.push(LaunchSim {
                cycles: launch_cycles(k, l, c, dev, &timing, occ, Precision::Fp32)?,
                warp_instructions: c.warp_issues,
                thread_instructions: c.thread_instructions,
                dram_bytes: (l.bytes_read + l.bytes_written) as f64,
                l2_hit: l2_hit_rate(l.bytes_read, dev.l2_cache_kb),
                active_sms: dev.sm_count,
            });
        }
        Ok(sims)
    }

    /// Detailed simulation memoized by launch shape: kernel, grid, argument
    /// count, the arguments the kernel's branch slice reads, and the bytes
    /// read and written. Those fix the representative thread's path and
    /// every input of the wave model, so repeated layers cost one
    /// simulation whatever buffer addresses they pass.
    fn run_memoized(
        &self,
        plan: &LaunchPlan,
        counts: &PlanCount,
        budget: &ExecBudget,
    ) -> Result<Vec<LaunchSim>, ExecError> {
        let prepared = ptx_analysis::prepare_plan(plan);
        let (firsts, group_of) = ptx_analysis::group_launches(&plan.launches, |l| {
            (
                l.kernel,
                l.grid,
                l.args.len(),
                kernel_of(&prepared, l).read_args(&l.args),
                l.bytes_read,
                l.bytes_written,
            )
        });
        SIM_MEMO_MISSES.add(firsts.len() as u64);
        SIM_MEMO_HITS.add((plan.launches.len() - firsts.len()) as u64);
        let sims: Vec<LaunchSim> = firsts
            .par_iter()
            .map(|&i| {
                let l = &plan.launches[i];
                let k = kernel_of(&prepared, l);
                simulate_launch(k, l, &counts.per_launch[i], &self.dev, budget)
            })
            .collect::<Result<_, _>>()?;
        Ok(group_of.iter().map(|&g| sims[g].clone()).collect())
    }
}

/// The prepared kernel of launch `l`, from [`ptx_analysis::prepare_plan`].
fn kernel_of<'a>(
    prepared: &'a [Option<Arc<PreparedKernel>>],
    l: &KernelLaunch,
) -> &'a PreparedKernel {
    prepared[l.kernel]
        .as_deref()
        .expect("prepare_plan covers every launched kernel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{gtx_1080_ti, quadro_p1000, v100s};

    fn plan_for(name: &str) -> LaunchPlan {
        let model = cnn_ir::zoo::build(name).unwrap();
        ptx_codegen::lower(&model, "sm_61").unwrap()
    }

    /// Count `plan` as the analysis does, then simulate it.
    fn run(sim: &Simulator, plan: &LaunchPlan) -> SimReport {
        let counts = ptx_analysis::count_plan(plan, true).unwrap();
        sim.simulate_plan(plan, &counts, &ExecBudget::default())
            .unwrap()
    }

    #[test]
    fn alexnet_simulates_on_1080ti() {
        let sim = Simulator::new(gtx_1080_ti(), SimMode::Detailed);
        let r = run(&sim, &plan_for("alexnet"));
        assert!(r.cycles > 0.0);
        assert!(r.ipc > 0.01 && r.ipc < 8.0, "ipc {}", r.ipc);
        // AlexNet inference on a 1080 Ti is single-digit milliseconds in
        // reality; accept a broad band for the model
        assert!(
            r.latency_ms > 0.3 && r.latency_ms < 300.0,
            "latency {} ms",
            r.latency_ms
        );
    }

    #[test]
    fn memoized_equals_unmemoized() {
        let plan = plan_for("alexnet");
        let a = run(&Simulator::new(gtx_1080_ti(), SimMode::Detailed), &plan);
        let b = run(
            &Simulator::new(gtx_1080_ti(), SimMode::DetailedNoMemo),
            &plan,
        );
        assert_eq!(a.warp_instructions, b.warp_instructions);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }

    #[test]
    fn device_ordering_holds() {
        let plan = plan_for("mobilenet");
        let lat = |dev: DeviceSpec| run(&Simulator::new(dev, SimMode::Detailed), &plan).latency_ms;
        let v100 = lat(v100s());
        let gtx = lat(gtx_1080_ti());
        let p1000 = lat(quadro_p1000());
        assert!(v100 < p1000, "V100S {v100} >= P1000 {p1000}");
        assert!(gtx < p1000, "1080Ti {gtx} >= P1000 {p1000}");
    }

    #[test]
    fn ipc_varies_across_models() {
        let sim = Simulator::new(gtx_1080_ti(), SimMode::Detailed);
        let a = run(&sim, &plan_for("alexnet")).ipc;
        let b = run(&sim, &plan_for("mobilenet")).ipc;
        assert!(
            (a - b).abs() > 1e-3,
            "IPC suspiciously identical: {a} vs {b}"
        );
    }
}
