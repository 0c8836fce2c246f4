//! Fast analytical (roofline-style) launch timing — the cheap alternative
//! to the event-driven simulator, kept for ablations and sanity checks.
//! Cycles are the maximum of the issue, compute-pipe, memory-bandwidth and
//! latency bounds.

use crate::occupancy::{occupancy, Occupancy};
use crate::specs::DeviceSpec;
use crate::timing::{l2_hit_rate, timing_for, Timing};
use ptx::inst::Category;
use ptx::kernel::{Kernel, KernelLaunch};
use ptx_analysis::{ExecError, LaunchCount};

/// Numeric precision a launch's float pipeline and activation traffic are
/// modeled at. The generated PTX is precision-agnostic (counts are
/// identical); precision changes the float-pipe CPI and the bytes each
/// activation element occupies in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    #[default]
    Fp32,
    /// Packed `half2`: dual-rate float pipes on Volta+ and half the
    /// activation bytes on the wire.
    Fp16,
}

impl Precision {
    /// Bytes per activation element.
    pub fn bytes_per_element(self) -> f64 {
        match self {
            Precision::Fp32 => 4.0,
            Precision::Fp16 => 2.0,
        }
    }
}

/// Analytical estimate of launch cycles. Uses the same exact counts as the
/// detailed mode but closed-form timing.
pub fn estimate_launch(
    kernel: &Kernel,
    launch: &KernelLaunch,
    counts: &LaunchCount,
    dev: &DeviceSpec,
) -> Result<f64, ExecError> {
    estimate_launch_prec(kernel, launch, counts, dev, Precision::Fp32)
}

/// [`estimate_launch`] at an explicit [`Precision`]: fp16 runs the float
/// pipes at the device's packed-half rate and moves half the bytes per
/// activation element.
pub fn estimate_launch_prec(
    kernel: &Kernel,
    launch: &KernelLaunch,
    counts: &LaunchCount,
    dev: &DeviceSpec,
    precision: Precision,
) -> Result<f64, ExecError> {
    let mut timing = timing_for(dev);
    if precision == Precision::Fp16 {
        let idx = |c: Category| Category::ALL.iter().position(|x| *x == c).expect("cat");
        timing.cpi[idx(Category::FloatAlu)] = timing.fp16_alu_cpi;
        timing.cpi[idx(Category::FloatFma)] = timing.fp16_alu_cpi;
    }
    let occ = occupancy(kernel, dev);
    launch_cycles(kernel, launch, counts, dev, &timing, &occ, precision)
}

/// The closed-form cycles of one launch, given the device's timing tables
/// and the kernel's occupancy on it. [`estimate_launch_prec`] computes
/// both per call; the analytical plan loop computes the timing once per
/// plan and each kernel's occupancy once per plan.
pub(crate) fn launch_cycles(
    kernel: &Kernel,
    launch: &KernelLaunch,
    counts: &LaunchCount,
    dev: &DeviceSpec,
    timing: &Timing,
    occ: &Occupancy,
    precision: Precision,
) -> Result<f64, ExecError> {
    let byte_scale = precision.bytes_per_element() / 4.0;
    if !occ.feasible() {
        return Err(ExecError::Unlaunchable {
            kernel: kernel.name.clone(),
            reason: format!(
                "zero blocks fit on an SM of `{}` (limited by {:?})",
                dev.name, occ.limiter
            ),
        });
    }
    let active_sms = launch.blocks().min(dev.sm_count as u64).max(1) as f64;

    // warp-level issues per category (approximate: thread-level mix scaled
    // to the warp total)
    let thread_total: u64 = counts.by_category.iter().sum();
    let scale = if thread_total > 0 {
        counts.warp_issues as f64 / thread_total as f64
    } else {
        0.0
    };

    let mut compute = 0.0f64;
    for (i, &n) in counts.by_category.iter().enumerate() {
        compute += n as f64 * scale * timing.cpi[i];
    }
    let compute_cycles = compute / active_sms;

    let issue_cycles = counts.warp_issues as f64 * timing.issue_cpi / active_sms;

    // launch byte counts are tabulated at fp32 width; scale to the wire
    // width of the modeled precision before the bandwidth bound
    let bytes_read = launch.bytes_read as f64 * byte_scale;
    let l2_hit = l2_hit_rate(bytes_read as u64, dev.l2_cache_kb);
    let dram_bytes = bytes_read * (1.0 - l2_hit) + launch.bytes_written as f64 * byte_scale;
    let mem_cycles = dram_bytes / dev.bytes_per_cycle();

    // latency bound: average dependent-use latency divided by the warps
    // available to hide it
    let mut avg_lat = 0.0f64;
    for (i, &n) in counts.by_category.iter().enumerate() {
        avg_lat += n as f64 * timing.latency[i];
    }
    if thread_total > 0 {
        avg_lat /= thread_total as f64;
    }
    let latency_cycles =
        counts.warp_issues as f64 * avg_lat / active_sms / occ.warps_per_sm.max(1) as f64;

    let overhead = crate::detailed::LAUNCH_OVERHEAD_US * 1e-6 * dev.boost_clock_mhz as f64 * 1e6;
    Ok(compute_cycles
        .max(issue_cycles)
        .max(mem_cycles)
        .max(latency_cycles)
        + overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::gtx_1080_ti;
    use ptx_analysis::count_launch;

    #[test]
    fn analytical_tracks_detailed_within_a_band() {
        // The two models must agree on order of magnitude for a compute-
        // heavy GEMM.
        let k = ptx_codegen::Template::GemmTiled.build();
        let l = ptx::kernel::KernelLaunch {
            kernel: 0,
            tag: "gemm".into(),
            grid: ((512 * 512 / 256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, 0x3000, 512, 512, 512, 32, 0, 0],
            bytes_read: 512 * 512 * 8,
            bytes_written: 512 * 512 * 4,
        };
        let dev = gtx_1080_ti();
        let counts = count_launch(&k, &l, true).unwrap();
        let fast = estimate_launch(&k, &l, &counts, &dev).unwrap();
        let prepared = ptx_analysis::prepare_kernel(&k);
        let budget = ptx_analysis::ExecBudget::default();
        let slow = crate::detailed::simulate_launch(&prepared, &l, &counts, &dev, &budget)
            .unwrap()
            .cycles;
        let ratio = slow / fast;
        assert!(
            (0.2..8.0).contains(&ratio),
            "detailed {slow:.0} vs analytical {fast:.0} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn memory_bound_launch_is_bandwidth_limited() {
        let k = ptx_codegen::Template::CopyF32.build();
        let n: u64 = 1 << 26;
        let l = ptx::kernel::KernelLaunch {
            kernel: 0,
            tag: "copy".into(),
            grid: ((n / 4 / 256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, n],
            bytes_read: n * 4,
            bytes_written: n * 4,
        };
        let dev = gtx_1080_ti();
        let counts = count_launch(&k, &l, true).unwrap();
        let cycles = estimate_launch(&k, &l, &counts, &dev).unwrap();
        // pure bandwidth bound: dram_bytes / bytes_per_cycle is the floor
        let l2 = crate::timing::l2_hit_rate(n * 4, dev.l2_cache_kb);
        let floor = (n as f64 * 4.0 * (1.0 - l2) + n as f64 * 4.0) / dev.bytes_per_cycle();
        assert!(cycles >= floor * 0.99, "{cycles} < {floor}");
    }

    #[test]
    fn fp16_halves_memory_bound_time() {
        // the copy above is bandwidth-bound: at fp16 every element is half
        // as wide, so the estimate should drop by roughly 2x
        let k = ptx_codegen::Template::CopyF32.build();
        let n: u64 = 1 << 26;
        let l = ptx::kernel::KernelLaunch {
            kernel: 0,
            tag: "copy".into(),
            grid: ((n / 4 / 256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, n],
            bytes_read: n * 4,
            bytes_written: n * 4,
        };
        let dev = crate::specs::v100s();
        let counts = count_launch(&k, &l, true).unwrap();
        let f32c = estimate_launch_prec(&k, &l, &counts, &dev, Precision::Fp32).unwrap();
        let f16c = estimate_launch_prec(&k, &l, &counts, &dev, Precision::Fp16).unwrap();
        let ratio = f32c / f16c;
        assert!((1.6..2.2).contains(&ratio), "fp32/fp16 ratio {ratio:.2}");
    }

    #[test]
    fn fp16_speeds_up_volta_but_penalizes_pascal_compute() {
        // float-pipe-heavy GELU (tanh chain per element): fp16 halves the
        // pipe time on V100 but collapses onto GP102's vestigial fp16 unit
        let k = ptx_codegen::Template::ActGelu.build();
        let n: u64 = 1 << 20;
        let l = ptx::kernel::KernelLaunch {
            kernel: 0,
            tag: "gelu".into(),
            grid: (n.div_ceil(256) as u32, 1, 1),
            args: vec![0x1000, 0x2000, n],
            bytes_read: n * 4,
            bytes_written: n * 4,
        };
        let counts = count_launch(&k, &l, true).unwrap();
        let volta = crate::specs::v100s();
        let v32 = estimate_launch_prec(&k, &l, &counts, &volta, Precision::Fp32).unwrap();
        let v16 = estimate_launch_prec(&k, &l, &counts, &volta, Precision::Fp16).unwrap();
        assert!(v16 < v32, "V100 fp16 {v16:.0} !< fp32 {v32:.0}");
        let pascal = gtx_1080_ti();
        let p32 = estimate_launch_prec(&k, &l, &counts, &pascal, Precision::Fp32).unwrap();
        let p16 = estimate_launch_prec(&k, &l, &counts, &pascal, Precision::Fp16).unwrap();
        assert!(
            p16 > 4.0 * p32,
            "GP102 fp16 {p16:.0} not penalized vs {p32:.0}"
        );
    }
}
