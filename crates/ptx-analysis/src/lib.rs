//! # ptx-analysis — the paper's dynamic code analysis module
//!
//! Implements Section IV-A of the paper: parse PTX into a data-dependency
//! graph `G = {V, E}` ([`depgraph`]), derive control flow ([`cfg`]), slice
//! the instructions needed to resolve branches (`G_v*`, [`slice`]), and
//! execute only those to obtain the **exact number of executed PTX
//! instructions** for any launch without hardware or a cycle-level
//! simulator ([`exec`], [`count`]). Each kernel is decoded, sliced and
//! compiled to trip-count polynomials ([`poly`]) once per process, in the
//! table of [`prepared`] kernels that every counting path shares.
//!
//! ```
//! let model = cnn_ir::zoo::build("alexnet").unwrap();
//! let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
//! let counts = ptx_analysis::count_plan(&plan, true).unwrap();
//! assert!(counts.thread_instructions > 0);
//! ```

pub mod cfg;
pub mod count;
pub mod depgraph;
pub mod exec;
pub mod poly;
pub mod prepared;
pub mod slice;
pub mod stats;

pub use cfg::Cfg;
pub use count::{
    count_launch, count_launch_bruteforce, count_launch_mode, count_launch_poly_prepared,
    count_launch_prepared, count_plan, count_plan_mode_budgeted, count_plan_report_budgeted,
    count_prepared, default_count_mode, set_default_count_mode, CountMode, CountingReport,
    LaunchCount, PlanCount, WARP,
};
pub use depgraph::DepGraph;
pub use exec::{
    Break, DenseProgram, ExecBudget, ExecError, Machine, ThreadOutcome, Val, CANCEL_CHECK_INTERVAL,
    NCAT,
};
pub use poly::{compile_kernel, KernelPoly, PolyBail};
pub use prepared::{
    clear_kernel_table, group_launches, prepare_kernel, prepare_plan, PreparedKernel,
    KERNEL_TABLE_CAPACITY,
};
pub use slice::{branch_slice, slice_fraction};
pub use stats::{kernel_stats, KernelStats};
