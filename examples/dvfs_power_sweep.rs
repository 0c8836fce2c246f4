//! Dynamic frequency scaling and power estimation — both named as future
//! work in the paper's conclusion ("dynamic frequency scaling" and the
//! authors' companion power-estimation line of work), implemented here.
//!
//! Sweeps a GTX 1080 Ti across clock points, simulating MobileNetV2
//! inference at each, and reports the latency/power/energy trade-off.
//!
//! ```text
//! cargo run --release --example dvfs_power_sweep
//! ```

use cnnperf::prelude::*;
use gpu_sim::{estimate_power, SimMode, Simulator};
use ptx_analysis::ExecBudget;

fn main() {
    let model = cnn_ir::zoo::build("MobileNetV2").expect("zoo model");
    let base = gpu_sim::specs::gtx_1080_ti();
    let plan = ptx_codegen::lower(&model, &base.sm_target()).expect("lowering");
    let counts = ptx_analysis::count_plan(&plan, true).expect("counts");

    let mut table = Table::new(
        format!("DVFS sweep: {} on {}", model.name(), base.name),
        &[
            "clock scale",
            "boost MHz",
            "latency (ms)",
            "IPC",
            "avg power (W)",
            "energy (mJ)",
            "EDP (mJ*ms)",
        ],
    );

    let mut rows: Vec<(f64, f64, f64)> = Vec::new(); // scale, latency, edp
    let mut rows_ipc = (0.0f64, 0.0f64); // first and last IPC of the sweep
    for scale in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2] {
        let dev = base.with_clock_scale(scale);
        let sim = Simulator::new(dev.clone(), SimMode::Detailed)
            .simulate_plan(&plan, &counts, &ExecBudget::default())
            .expect("simulation");
        let power = estimate_power(&sim, &counts, &dev);
        table.row(vec![
            format!("x{scale:.1}"),
            dev.boost_clock_mhz.to_string(),
            fixed(sim.latency_ms, 2),
            fixed(sim.ipc, 3),
            fixed(power.avg_power_w, 1),
            fixed(power.energy_mj, 1),
            fixed(power.edp, 1),
        ]);
        if rows.is_empty() {
            rows_ipc.0 = sim.ipc;
        }
        rows_ipc.1 = sim.ipc;
        rows.push((scale, sim.latency_ms, power.edp));
    }
    println!("{table}");

    let best = rows
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("non-empty sweep");
    let max_scale = rows.last().expect("non-empty").0;
    if best.0 < max_scale {
        println!(
            "Minimum energy-delay product at clock scale x{:.1} ({:.2} ms): \
             memory-bound phases stop rewarding higher clocks, so the EDP \
             optimum sits below the maximum frequency.",
            best.0, best.1
        );
    } else {
        println!(
            "EDP keeps improving up to x{max_scale:.1}: this workload is \
             issue/compute-bound across the sweep, so higher clocks pay for \
             themselves — note how IPC *drops* with clock ({:.3} -> {:.3}) as \
             the fixed-bandwidth DRAM costs more cycles per byte, the \
             signature of an emerging memory wall.",
            rows_ipc.0, rows_ipc.1
        );
    }
}
