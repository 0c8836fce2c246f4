//! Power and energy estimation — the companion capability of the authors'
//! own prior work (Metz et al., CODES+ISSS'21 / MLCAD'22: PTX-category
//! instruction counts + architectural details → power), included here as an
//! implemented extension.
//!
//! The model is the standard decomposition `P = P_idle + P_dynamic`, with
//! dynamic energy charged per issued warp instruction by category and per
//! DRAM byte. Coefficients are scaled from each device's TDP so the model
//! stays plausible across the whole spec database.

use crate::machine::SimReport;
use crate::specs::DeviceSpec;
use ptx::inst::Category;
use ptx_analysis::{PlanCount, NCAT};
use serde::{Deserialize, Serialize};

/// Energy/power estimate for one inference pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerReport {
    pub model_name: String,
    pub device_name: String,
    /// Average power over the run, watts.
    pub avg_power_w: f64,
    /// Total energy, millijoules.
    pub energy_mj: f64,
    /// Energy-delay product, mJ·ms (the HW/SW co-design ranking metric).
    pub edp: f64,
    /// Share of energy from DRAM traffic.
    pub dram_energy_fraction: f64,
    /// Run time implied by the simulated cycles at the device's (possibly
    /// DVFS-scaled) boost clock, seconds.
    pub seconds: f64,
}

/// Board power limits per device (TDP and estimated idle), watts.
pub fn board_power(dev: &DeviceSpec) -> (f64, f64) {
    // a DVFS-scaled copy (`with_clock_scale`) is renamed "<board>@x0.50";
    // it is still the same board, so match on the base name
    let base_name = dev.name.split("@x").next().unwrap_or(&dev.name);
    let tdp = match base_name {
        "GTX 1080 Ti" => 250.0,
        "V100S" => 250.0,
        "Quadro P1000" => 47.0,
        "Titan Xp" => 250.0,
        "RTX 2080 Ti" => 260.0,
        "Tesla T4" => 70.0,
        "A100" => 250.0,
        "H100" => 700.0,
        "GTX 1050 Ti" => 75.0,
        // unknown device: scale from compute resources
        _ => 40.0 + 0.04 * dev.cuda_cores() as f64,
    };
    (tdp, 0.18 * tdp)
}

/// Per-warp-instruction dynamic energy by category, in nanojoules, scaled
/// so a fully FMA-bound kernel at peak throughput draws ~TDP.
fn energy_table(dev: &DeviceSpec) -> [f64; NCAT] {
    let (tdp, idle) = board_power(dev);
    // peak issue rate of FMA warp instructions per second (whole chip) at
    // the *reference* clock: switching energy per instruction is a
    // capacitive constant of the silicon, so a DVFS-scaled copy must keep
    // the per-op energy of its board rather than inflate it by 1/scale
    let peak_fma_rate = dev.sm_count as f64
        * (dev.cores_per_sm as f64 / 32.0)
        * dev.reference_boost_clock_mhz()
        * 1e6;
    let e_fma_nj = (tdp - idle) / peak_fma_rate * 1e9;
    let mut table = [e_fma_nj; NCAT];
    let idx = |c: Category| Category::ALL.iter().position(|x| *x == c).expect("cat");
    table[idx(Category::SpecialFunc)] = e_fma_nj * 2.0;
    table[idx(Category::LoadGlobal)] = e_fma_nj * 1.6;
    table[idx(Category::StoreGlobal)] = e_fma_nj * 1.6;
    table[idx(Category::LoadShared)] = e_fma_nj * 1.1;
    table[idx(Category::StoreShared)] = e_fma_nj * 1.1;
    table[idx(Category::LoadParam)] = e_fma_nj * 0.4;
    table[idx(Category::Control)] = e_fma_nj * 0.3;
    table[idx(Category::Sync)] = e_fma_nj * 0.3;
    table[idx(Category::Move)] = e_fma_nj * 0.5;
    table[idx(Category::Compare)] = e_fma_nj * 0.5;
    table[idx(Category::Convert)] = e_fma_nj * 0.6;
    table
}

/// DRAM access energy per byte (pJ/byte): HBM2 devices are cheaper per byte
/// than GDDR.
fn dram_pj_per_byte(dev: &DeviceSpec) -> f64 {
    if dev.mem_bus_bits >= 1024 {
        7.0 // HBM2
    } else {
        22.0 // GDDR5/5X/6
    }
}

/// Estimate power/energy for a simulated inference pass. `counts` supplies
/// the warp-level instruction mix; `sim` the cycles and DRAM traffic.
pub fn estimate(sim: &SimReport, counts: &PlanCount, dev: &DeviceSpec) -> PowerReport {
    let (_tdp, idle) = board_power(dev);
    // the *scaled* boost clock: a down-clocked device takes proportionally
    // longer to retire the same cycles, and pays idle power for all of it
    let seconds = sim.cycles / (dev.boost_clock_mhz as f64 * 1e6);

    // dynamic instruction energy: thread-level mix scaled to warp issues
    let table = energy_table(dev);
    let thread_total: u64 = counts.by_category.iter().sum();
    let scale = if thread_total > 0 {
        counts.warp_issues as f64 / thread_total as f64
    } else {
        0.0
    };
    let instr_j: f64 = counts
        .by_category
        .iter()
        .zip(&table)
        .map(|(&n, &e_nj)| n as f64 * scale * e_nj * 1e-9)
        .sum();

    let dram_j = sim.dram_bytes * dram_pj_per_byte(dev) * 1e-12;
    let idle_j = idle * seconds;
    let total_j = instr_j + dram_j + idle_j;

    let avg_power_w = if seconds > 0.0 {
        total_j / seconds
    } else {
        0.0
    };
    PowerReport {
        model_name: sim.model_name.clone(),
        device_name: dev.name.clone(),
        avg_power_w,
        energy_mj: total_j * 1e3,
        edp: total_j * 1e3 * sim.latency_ms,
        dram_energy_fraction: dram_j / total_j.max(1e-12),
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{SimMode, Simulator};
    use crate::specs::{gtx_1080_ti, quadro_p1000, v100s};

    fn run(name: &str, dev: &DeviceSpec) -> (SimReport, PlanCount) {
        let model = cnn_ir::zoo::build(name).expect("zoo model");
        let plan = ptx_codegen::lower(&model, &dev.sm_target()).expect("lowering");
        let counts = ptx_analysis::count_plan(&plan, true).expect("counts");
        let sim = Simulator::new(dev.clone(), SimMode::Detailed)
            .simulate_plan(&plan, &counts, &ptx_analysis::ExecBudget::default())
            .expect("simulation");
        (sim, counts)
    }

    #[test]
    fn power_stays_between_idle_and_tdp() {
        for dev in [gtx_1080_ti(), v100s(), quadro_p1000()] {
            let (sim, counts) = run("mobilenet", &dev);
            let p = estimate(&sim, &counts, &dev);
            let (tdp, idle) = board_power(&dev);
            assert!(
                p.avg_power_w >= idle * 0.99 && p.avg_power_w <= tdp * 1.3,
                "{}: {} W outside [{idle}, {tdp}]",
                dev.name,
                p.avg_power_w
            );
        }
    }

    #[test]
    fn bigger_model_costs_more_energy() {
        let dev = gtx_1080_ti();
        let (s1, c1) = run("mobilenet", &dev);
        let (s2, c2) = run("vgg16", &dev);
        let e1 = estimate(&s1, &c1, &dev).energy_mj;
        let e2 = estimate(&s2, &c2, &dev).energy_mj;
        assert!(e2 > 2.0 * e1, "vgg {e2} !>> mobilenet {e1}");
    }

    #[test]
    fn edp_combines_energy_and_latency() {
        let dev = gtx_1080_ti();
        let (sim, counts) = run("alexnet", &dev);
        let p = estimate(&sim, &counts, &dev);
        assert!((p.edp - p.energy_mj * sim.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn hbm_devices_spend_less_on_dram() {
        assert!(dram_pj_per_byte(&v100s()) < dram_pj_per_byte(&gtx_1080_ti()));
    }

    #[test]
    fn scaled_device_keeps_board_power() {
        // regression: "GTX 1080 Ti@x0.50" used to fall through the name
        // match to the generic-TDP arm, silently changing idle power
        let base = gtx_1080_ti();
        let scaled = base.with_clock_scale(0.5);
        assert_eq!(board_power(&scaled), board_power(&base));
    }

    #[test]
    fn downclocked_device_reports_proportionally_longer_seconds() {
        let base = gtx_1080_ti();
        let (sim, counts) = run("alexnet", &base);
        let p_full = estimate(&sim, &counts, &base);
        // same simulated cycles retired at half the clock: exactly 2x the
        // wall time, and the idle tail makes the energy strictly larger
        let half = base.with_clock_scale(0.5);
        let p_half = estimate(&sim, &counts, &half);
        let ratio = p_half.seconds / p_full.seconds;
        assert!((ratio - 2.0).abs() < 1e-3, "seconds ratio {ratio}");
        assert!(p_half.energy_mj > p_full.energy_mj);
        // per-instruction switching energy must *not* scale with the clock:
        // the only energy delta between the two runs is the idle tail
        let idle = board_power(&base).1;
        let expected_delta_mj = idle * (p_half.seconds - p_full.seconds) * 1e3;
        let delta_mj = p_half.energy_mj - p_full.energy_mj;
        assert!(
            (delta_mj - expected_delta_mj).abs() < 1e-6 * expected_delta_mj.max(1.0),
            "delta {delta_mj} vs idle-only {expected_delta_mj}"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let dev = gtx_1080_ti();
        let (s1, c1) = run("alexnet", &dev);
        let (s2, c2) = run("alexnet", &dev);
        assert_eq!(
            estimate(&s1, &c1, &dev).energy_mj,
            estimate(&s2, &c2, &dev).energy_mj
        );
    }
}
