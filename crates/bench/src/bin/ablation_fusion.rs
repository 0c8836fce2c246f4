//! Batch-norm folding ablation (extension): the inference-time graph
//! optimization every deployment stack applies. Measures what folding buys
//! in kernel launches, executed instructions and simulated latency.
//!
//! ```text
//! cargo run --release -p cnnperf-bench --bin ablation_fusion
//! ```

use cnnperf_core::prelude::*;
use gpu_sim::{SimMode, Simulator};
use ptx_analysis::ExecBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dev = gpu_sim::specs::gtx_1080_ti();
    let mut table = Table::new(
        "Batch-norm folding ablation (GTX 1080 Ti, detailed simulation)",
        &[
            "CNN",
            "graph",
            "norms folded",
            "launches",
            "instr x1e9",
            "latency (ms)",
        ],
    )
    .align(0, Align::Left)
    .align(1, Align::Left);

    for name in ["mobilenet", "MobileNetV2", "efficientnetb0", "densenet121"] {
        let model = cnn_ir::zoo::build(name).ok_or_else(|| format!("unknown zoo model {name}"))?;
        let (folded, stats) = cnn_ir::fold_batch_norm(&model);
        for (label, graph, folded_count) in [
            ("as-trained", &model, 0usize),
            ("BN-folded", &folded, stats.folded),
        ] {
            let plan = ptx_codegen::lower(graph, &dev.sm_target())?;
            let counts = ptx_analysis::count_plan(&plan, true)?;
            let sim = Simulator::new(dev.clone(), SimMode::Detailed).simulate_plan(
                &plan,
                &counts,
                &ExecBudget::default(),
            )?;
            table.row(vec![
                name.to_string(),
                label.to_string(),
                folded_count.to_string(),
                plan.launches.len().to_string(),
                fixed(counts.thread_instructions as f64 / 1e9, 2),
                fixed(sim.latency_ms, 2),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Folding removes one elementwise pass per conv+BN pair; the win is \
         largest for depthwise-separable networks whose BN launches touch as \
         many bytes as the convolutions themselves."
    );
    Ok(())
}
