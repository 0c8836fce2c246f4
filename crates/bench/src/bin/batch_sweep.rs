//! Batch-size sweep (extension): the paper profiles batch-1 inference;
//! this experiment shows how IPC and throughput scale with batch size —
//! utilization climbs until the GPU saturates, which is precisely the
//! structure the predictor's feature set cannot see (motivating the
//! occupancy-style features a follow-up would add).
//!
//! ```text
//! cargo run --release -p cnnperf-bench --bin batch_sweep
//! ```

use cnnperf_core::prelude::*;
use gpu_sim::{SimMode, Simulator};
use ptx_analysis::ExecBudget;
use ptx_codegen::GemmVariant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dev = gpu_sim::specs::gtx_1080_ti();
    let mut table = Table::new(
        format!("Batch-size sweep on {}", dev.name),
        &[
            "CNN",
            "batch",
            "latency (ms)",
            "imgs/s",
            "IPC",
            "instr x1e9",
        ],
    )
    .align(0, Align::Left);

    for name in ["MobileNetV2", "resnet50", "alexnet"] {
        let model = cnn_ir::zoo::build(name).ok_or_else(|| format!("unknown zoo model {name}"))?;
        let mut prev_ipc = 0.0;
        for batch in [1u32, 2, 4, 8, 16] {
            let plan =
                ptx_codegen::lower_with(&model, &dev.sm_target(), batch, GemmVariant::default())?;
            let counts = ptx_analysis::count_plan(&plan, true)?;
            let sim = Simulator::new(dev.clone(), SimMode::Detailed).simulate_plan(
                &plan,
                &counts,
                &ExecBudget::default(),
            )?;
            table.row(vec![
                name.to_string(),
                batch.to_string(),
                fixed(sim.latency_ms, 2),
                fixed(batch as f64 / (sim.latency_ms / 1e3), 0),
                fixed(sim.ipc, 3),
                fixed(sim.thread_instructions as f64 / 1e9, 2),
            ]);
            prev_ipc = sim.ipc;
        }
        let _ = prev_ipc;
    }
    println!("{table}");
    println!(
        "Throughput (imgs/s) grows sublinearly with batch while per-image \
         latency rises — the saturation curve every deployment guide warns \
         about, now derivable pre-silicon."
    );
    Ok(())
}
