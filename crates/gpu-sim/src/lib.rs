//! # gpu-sim — a GPGPU performance simulator
//!
//! The "hardware" substitute of this reproduction: since the paper measures
//! ground-truth IPC by running CNNs on real GPUs under `nvprof`, and no GPU
//! exists in this environment, this crate provides a cycle-approximate
//! GPGPU model to play that role.
//!
//! - [`specs`] — architectural database (GTX 1080 Ti, V100S, Quadro P1000
//!   and five more devices)
//! - [`occupancy`] — blocks/warps-per-SM calculator
//! - [`timing`] — per-pipeline throughput/latency tables and the L2 model
//! - [`detailed`] — event-driven per-warp SM simulation (ground truth)
//! - [`analytical`] — closed-form roofline estimate (ablation)
//! - [`machine`] — whole-plan simulation and the IPC metric
//! - [`profiler`] — `nvprof`-like facade with deterministic measurement
//!   jitter
//!
//! The simulators take the instruction counts the analysis already made;
//! they never count a launch themselves.
//!
//! ```no_run
//! use gpu_sim::{SimMode, Simulator};
//! use ptx_analysis::ExecBudget;
//!
//! let model = cnn_ir::zoo::build("mobilenet").unwrap();
//! let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
//! let counts = ptx_analysis::count_plan(&plan, true).unwrap();
//! let sim = Simulator::new(gpu_sim::specs::gtx_1080_ti(), SimMode::Detailed);
//! let report = sim.simulate_plan(&plan, &counts, &ExecBudget::default()).unwrap();
//! println!("IPC = {:.3}", report.ipc);
//! ```

pub mod analytical;
pub mod detailed;
pub mod faults;
pub mod machine;
pub mod occupancy;
pub mod power;
pub mod profiler;
pub mod specs;
pub mod timing;

pub use analytical::{estimate_launch_prec, Precision};
pub use detailed::{simulate_launch, ANALYTICAL_CANCEL_CHECK_LAUNCHES, SIM_CANCEL_CHECK_EVENTS};
pub use faults::{
    ChaosInjector, ChaosProfile, FaultInjector, FaultOutcome, FaultProfile, TierFaultKind,
};
pub use machine::{SimMode, SimReport, Simulator};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use power::{estimate as estimate_power, PowerReport};
pub use profiler::{
    mad, median, profile_robust_budgeted, robust_filter, ProfileFault, ProfileRecord, RetryPolicy,
    RobustFilter, RobustProfile, MAD_K, MAD_SIGMA,
};
pub use specs::{all_devices, device_by_name, training_devices, DeviceSpec};
