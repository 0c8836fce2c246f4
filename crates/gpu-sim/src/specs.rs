//! GPGPU architectural specifications — the hardware-feature predictors of
//! the paper (CUDA cores, memory bandwidth, L2 cache, clocks, registers).
//!
//! The database covers the devices the paper profiles (GTX 1080 Ti, V100S,
//! Quadro P1000) plus five more spanning Pascal through Ampere, enabling the
//! Table IV `n = 1..7` sweep and hold-one-GPU-out cross-platform
//! experiments.

use serde::{Deserialize, Serialize};

/// Static description of one GPGPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// FP32 CUDA cores per SM.
    pub cores_per_sm: u32,
    pub base_clock_mhz: u32,
    pub boost_clock_mhz: u32,
    /// Peak DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    pub l2_cache_kb: u32,
    pub mem_bus_bits: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    pub shared_mem_per_sm_kb: u32,
    pub max_warps_per_sm: u32,
    pub max_blocks_per_sm: u32,
    /// Special-function units per SM.
    pub sfu_per_sm: u32,
    /// Load/store units per SM.
    pub lsu_per_sm: u32,
    pub warp_schedulers_per_sm: u32,
    pub compute_capability: (u32, u32),
    /// Average DRAM access latency in core cycles.
    pub dram_latency_cycles: u32,
    /// Packed-half (`half2`) FP16 throughput relative to FP32: 2.0 on
    /// datacenter parts since Volta, 1/64 on Pascal consumer silicon
    /// (GP102/GP107 ship a single vestigial fp16x2 unit per SM).
    pub fp16_throughput_ratio: f64,
    /// Cumulative DVFS factor applied by [`DeviceSpec::with_clock_scale`]
    /// (1.0 for a device at its shipped clocks). Lets downstream models
    /// recover the reference clock from a scaled spec.
    pub clock_scale: f64,
}

impl DeviceSpec {
    /// Total CUDA cores.
    pub fn cuda_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Peak FP32 TFLOPS at boost clock (2 ops per FMA).
    pub fn peak_tflops(&self) -> f64 {
        2.0 * self.cuda_cores() as f64 * self.boost_clock_mhz as f64 * 1e6 / 1e12
    }

    /// Peak FP16 TFLOPS at boost clock (packed `half2` FMA path).
    pub fn peak_fp16_tflops(&self) -> f64 {
        self.peak_tflops() * self.fp16_throughput_ratio
    }

    /// Boost clock before any [`DeviceSpec::with_clock_scale`] scaling, MHz.
    pub fn reference_boost_clock_mhz(&self) -> f64 {
        self.boost_clock_mhz as f64 / self.clock_scale
    }

    /// `sm_NN` target string for the PTX module header.
    pub fn sm_target(&self) -> String {
        format!(
            "sm_{}{}",
            self.compute_capability.0, self.compute_capability.1
        )
    }

    /// DRAM bytes deliverable per core cycle (whole chip).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9 / (self.boost_clock_mhz as f64 * 1e6)
    }

    /// A copy with scaled core clocks (dynamic frequency scaling — the
    /// paper's future-work item).
    pub fn with_clock_scale(&self, factor: f64) -> DeviceSpec {
        let mut s = self.clone();
        s.base_clock_mhz = (s.base_clock_mhz as f64 * factor) as u32;
        s.boost_clock_mhz = (s.boost_clock_mhz as f64 * factor) as u32;
        s.clock_scale *= factor;
        s.name = format!("{}@x{:.2}", s.name, factor);
        s
    }

    /// The (name, value) feature vector used as GPGPU predictors in the
    /// training dataset — the `c_1..c_m` of the paper's Eq. (1): the
    /// architectural quantities the paper names (memory bandwidth, CUDA
    /// cores, base frequency, L2 cache). With two training devices every
    /// GPU feature separates them equally well; split tie-breaks resolve
    /// to the first feature, so bandwidth leads the list as in the paper's
    /// Table III.
    pub fn features(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("mem_bandwidth_gbs", self.mem_bandwidth_gbs),
            ("cuda_cores", self.cuda_cores() as f64),
            ("base_clock_mhz", self.base_clock_mhz as f64),
            ("l2_cache_kb", self.l2_cache_kb as f64),
        ]
    }

    /// The extended feature vector (every modeled architectural quantity) —
    /// used by the feature-set ablation.
    pub fn features_extended(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sm_count", self.sm_count as f64),
            ("cuda_cores", self.cuda_cores() as f64),
            ("base_clock_mhz", self.base_clock_mhz as f64),
            ("boost_clock_mhz", self.boost_clock_mhz as f64),
            ("mem_bandwidth_gbs", self.mem_bandwidth_gbs),
            ("l2_cache_kb", self.l2_cache_kb as f64),
            ("mem_bus_bits", self.mem_bus_bits as f64),
            ("registers_per_sm", self.registers_per_sm as f64),
            ("shared_mem_per_sm_kb", self.shared_mem_per_sm_kb as f64),
            ("peak_tflops", self.peak_tflops()),
            ("fp16_throughput_ratio", self.fp16_throughput_ratio),
        ]
    }
}

#[allow(clippy::too_many_arguments)]
fn spec(
    name: &str,
    sm_count: u32,
    cores_per_sm: u32,
    base: u32,
    boost: u32,
    bw: f64,
    l2_kb: u32,
    bus: u32,
    cc: (u32, u32),
) -> DeviceSpec {
    DeviceSpec {
        name: name.to_string(),
        sm_count,
        cores_per_sm,
        base_clock_mhz: base,
        boost_clock_mhz: boost,
        mem_bandwidth_gbs: bw,
        l2_cache_kb: l2_kb,
        mem_bus_bits: bus,
        registers_per_sm: 65_536,
        // unified L1/shared carve-out grows with the architecture: 96 KB
        // through Turing, 164 KB on Ampere GA100, 228 KB on Hopper
        shared_mem_per_sm_kb: match cc.0 {
            0..=7 => 96,
            8 => 164,
            _ => 228,
        },
        max_warps_per_sm: 64,
        max_blocks_per_sm: 32,
        sfu_per_sm: if cores_per_sm >= 128 { 32 } else { 16 },
        lsu_per_sm: 32,
        warp_schedulers_per_sm: 4,
        compute_capability: cc,
        dram_latency_cycles: if cc.0 >= 7 { 400 } else { 350 },
        // double-rate packed half2 since Volta; Pascal consumer silicon
        // executes fp16 on one vestigial unit per SM (1/64 rate)
        fp16_throughput_ratio: if cc.0 >= 7 { 2.0 } else { 1.0 / 64.0 },
        clock_scale: 1.0,
    }
}

/// The two training GPUs of the paper.
pub fn training_devices() -> Vec<DeviceSpec> {
    vec![gtx_1080_ti(), v100s()]
}

/// Builds one device's spec.
type Constructor = fn() -> DeviceSpec;

/// Every modeled device's name and constructor, in [`all_devices`] order.
const DEVICES: [(&str, Constructor); 9] = [
    ("GTX 1080 Ti", gtx_1080_ti),
    ("V100S", v100s),
    ("Quadro P1000", quadro_p1000),
    ("Titan Xp", titan_xp),
    ("RTX 2080 Ti", rtx_2080_ti),
    ("Tesla T4", tesla_t4),
    ("A100", a100),
    ("H100", h100),
    ("GTX 1050 Ti", gtx_1050_ti),
];

/// All modeled devices (nine, used for the Table IV `n = 1..7` sweep and
/// cross-platform experiments).
pub fn all_devices() -> Vec<DeviceSpec> {
    DEVICES.iter().map(|(_, build)| build()).collect()
}

/// Look up a device by name (case-insensitive), building only that one.
pub fn device_by_name(name: &str) -> Option<DeviceSpec> {
    DEVICES
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

/// NVIDIA GeForce GTX 1080 Ti (Pascal, GP102).
pub fn gtx_1080_ti() -> DeviceSpec {
    spec("GTX 1080 Ti", 28, 128, 1481, 1582, 484.0, 2816, 352, (6, 1))
}

/// NVIDIA Tesla V100S PCIe 32 GB (Volta, GV100).
pub fn v100s() -> DeviceSpec {
    spec("V100S", 80, 64, 1245, 1597, 1134.0, 6144, 4096, (7, 0))
}

/// NVIDIA Quadro P1000 (Pascal, GP107).
pub fn quadro_p1000() -> DeviceSpec {
    spec("Quadro P1000", 5, 128, 1266, 1480, 82.0, 1024, 128, (6, 1))
}

/// NVIDIA Titan Xp (Pascal, GP102).
pub fn titan_xp() -> DeviceSpec {
    spec("Titan Xp", 30, 128, 1405, 1582, 547.6, 3072, 384, (6, 1))
}

/// NVIDIA GeForce RTX 2080 Ti (Turing, TU102).
pub fn rtx_2080_ti() -> DeviceSpec {
    spec("RTX 2080 Ti", 68, 64, 1350, 1545, 616.0, 5632, 352, (7, 5))
}

/// NVIDIA Tesla T4 (Turing, TU104).
pub fn tesla_t4() -> DeviceSpec {
    spec("Tesla T4", 40, 64, 585, 1590, 320.0, 4096, 256, (7, 5))
}

/// NVIDIA A100 PCIe 40 GB (Ampere, GA100).
pub fn a100() -> DeviceSpec {
    spec("A100", 108, 64, 765, 1410, 1555.0, 40_960, 5120, (8, 0))
}

/// NVIDIA H100 SXM5 80 GB (Hopper, GH100).
pub fn h100() -> DeviceSpec {
    spec("H100", 132, 128, 1590, 1980, 3350.0, 51_200, 5120, (9, 0))
}

/// NVIDIA GeForce GTX 1050 Ti (Pascal, GP107).
pub fn gtx_1050_ti() -> DeviceSpec {
    spec("GTX 1050 Ti", 6, 128, 1290, 1392, 112.1, 1024, 128, (6, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_covers_paper_devices() {
        assert!(device_by_name("GTX 1080 Ti").is_some());
        assert!(device_by_name("V100S").is_some());
        assert!(device_by_name("Quadro P1000").is_some());
        assert_eq!(all_devices().len(), 9);
    }

    #[test]
    fn every_device_is_found_by_its_own_name() {
        for d in all_devices() {
            assert_eq!(device_by_name(&d.name).as_ref(), Some(&d));
            assert_eq!(device_by_name(&d.name.to_lowercase()).as_ref(), Some(&d));
        }
        assert!(device_by_name("GTX 9999").is_none());
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<String> = all_devices().into_iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn known_totals() {
        assert_eq!(gtx_1080_ti().cuda_cores(), 3584);
        assert_eq!(v100s().cuda_cores(), 5120);
        assert_eq!(quadro_p1000().cuda_cores(), 640);
        // 1080 Ti peak ~11.3 TFLOPS
        let t = gtx_1080_ti().peak_tflops();
        assert!((11.0..11.7).contains(&t), "{t}");
        // V100S ~16.4 TFLOPS
        let t = v100s().peak_tflops();
        assert!((16.0..16.7).contains(&t), "{t}");
    }

    #[test]
    fn sm_target_strings() {
        assert_eq!(gtx_1080_ti().sm_target(), "sm_61");
        assert_eq!(v100s().sm_target(), "sm_70");
        assert_eq!(a100().sm_target(), "sm_80");
        assert_eq!(h100().sm_target(), "sm_90");
    }

    #[test]
    fn clock_scaling() {
        let d = gtx_1080_ti().with_clock_scale(0.5);
        assert_eq!(d.boost_clock_mhz, 791);
        assert!(d.name.contains("@x0.50"));
        assert!((d.clock_scale - 0.5).abs() < 1e-12);
        // the reference clock survives scaling (and compounds correctly)
        assert!((d.reference_boost_clock_mhz() - 1582.0).abs() < 1.0);
        let dd = d.with_clock_scale(0.5);
        assert!((dd.clock_scale - 0.25).abs() < 1e-12);
    }

    #[test]
    fn feature_vector_is_stable() {
        let f = gtx_1080_ti().features();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].0, "mem_bandwidth_gbs");
        assert_eq!(f[0].1, 484.0);
        assert_eq!(gtx_1080_ti().features_extended().len(), 11);
    }

    #[test]
    fn fp16_rates_by_architecture() {
        // Pascal consumer parts: vestigial fp16 (slower than fp32)
        assert!(gtx_1080_ti().fp16_throughput_ratio < 0.1);
        // Volta onwards: double-rate packed half2
        for d in [v100s(), tesla_t4(), a100(), h100()] {
            assert_eq!(d.fp16_throughput_ratio, 2.0, "{}", d.name);
        }
        // H100 SXM5 fp32 peak ~67 TFLOPS, fp16 double that
        let t = h100().peak_tflops();
        assert!((60.0..70.0).contains(&t), "{t}");
        assert!((h100().peak_fp16_tflops() - 2.0 * t).abs() < 1e-9);
    }

    #[test]
    fn hopper_class_memory_hierarchy() {
        assert_eq!(a100().shared_mem_per_sm_kb, 164);
        assert_eq!(h100().shared_mem_per_sm_kb, 228);
        assert_eq!(rtx_2080_ti().shared_mem_per_sm_kb, 96);
        assert!(h100().mem_bandwidth_gbs > 2.0 * a100().mem_bandwidth_gbs);
    }
}
