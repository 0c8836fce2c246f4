//! Regenerates the paper's **Table IV**: wall-clock comparison of the
//! naive approach (profile the CNN on every candidate GPU — here, the
//! detailed simulator standing in for hardware + nvprof, launch-by-launch
//! with no memoization) against the proposed approach
//! (`T_est = t_dca + n * t_pm`) for seven CNNs over `n = 1..7` GPGPUs.
//!
//! Absolute seconds differ from the paper (their `t_p` is real-hardware
//! profiling time; ours is simulation time), but the *structure* — `T_est`
//! flat in `n`, `T_measur` linear in `n`, speedup growing with `n` — is
//! the reproduced claim.
//!
//! Both sides of the comparison are charged for PTX codegen: `t_dca`
//! includes lowering by construction, and [`naive_profile_time`] starts
//! its clock *before* lowering, so the reported speedups compare symmetric
//! end-to-end paths rather than flattering the estimation side.
//!
//! Both sides also start cold: the prepared-kernel table (and, for ours,
//! the analysis cache) is cleared before each side's timing. Within its
//! run the naive side still prepares each kernel once and reuses it
//! across launches, as any simulator of a whole plan would; it never
//! reuses a launch's simulation (no memo table).
//!
//! ```text
//! cargo run --release -p cnnperf-bench --bin table4_speedup
//! ```

use cnnperf_bench::corpus_cached;
use cnnperf_core::prelude::*;
use cnnperf_core::{clear_analysis_cache, clear_kernel_table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = corpus_cached()?;
    let (train, _) = corpus.dataset.split(0.7, 42);
    let predictor = PerformancePredictor::train(&train, RegressorKind::DecisionTree, 42);

    let devices = gpu_sim::all_devices();
    assert!(devices.len() >= 7, "need 7 devices for the n=1..7 sweep");
    let devices = &devices[..7];

    let mut header: Vec<String> = vec!["CNN".into(), "t_p (s)".into()];
    header.extend((1..=7).map(|n| format!("naive n={n}")));
    header.extend(["t_pm (ms)".to_string(), "t_dca (ms)".to_string()]);
    header.extend((1..=7).map(|n| format!("ours n={n}")));
    let headers: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table IV: naive profiling vs proposed estimation, n = 1..7 GPGPUs (seconds)",
        &headers,
    )
    .align(0, Align::Left);

    let mut speedups = Vec::new();
    for name in cnn_ir::zoo::table4_names() {
        let model = cnn_ir::zoo::build(name).ok_or_else(|| format!("unknown zoo model {name}"))?;

        // naive: profile on the first device, scale per device (the paper
        // likewise reports one t_p per CNN and multiplies by n)
        clear_kernel_table();
        let t_p = naive_profile_time(&model, &devices[0])?;

        // ours: one dynamic code analysis + n predictions
        clear_kernel_table();
        clear_analysis_cache();
        let outcome = rank_devices(&predictor, &model, devices)?;

        let mut row: Vec<String> = vec![name.to_string(), fixed(t_p, 2)];
        for n in 1..=7u32 {
            row.push(fixed(t_p * n as f64, 1));
        }
        row.push(fixed(outcome.t_pm * 1e3, 3));
        row.push(fixed(outcome.t_dca * 1e3, 1));
        for n in 1..=7u32 {
            row.push(fixed(outcome.t_dca + n as f64 * outcome.t_pm, 3));
        }
        table.row(row);

        let speedup_1 = t_p / (outcome.t_dca + outcome.t_pm);
        let speedup_7 = 7.0 * t_p / (outcome.t_dca + 7.0 * outcome.t_pm);
        speedups.push((name, speedup_1, speedup_7));
    }
    println!("{table}");

    let mut s = Table::new(
        "Speedup of the proposed approach over naive profiling",
        &["CNN", "n=1", "n=7"],
    )
    .align(0, Align::Left);
    let mut geo1 = 1.0f64;
    let mut geo7 = 1.0f64;
    for (name, s1, s7) in &speedups {
        s.row(vec![
            name.to_string(),
            format!("{s1:.1}x"),
            format!("{s7:.1}x"),
        ]);
        geo1 *= s1;
        geo7 *= s7;
    }
    let k = speedups.len() as f64;
    println!("{s}");
    println!(
        "Geometric-mean speedup: {:.1}x at n=1, {:.1}x at n=7 (paper: ~33x average at n=1, growing with n).",
        geo1.powf(1.0 / k),
        geo7.powf(1.0 / k)
    );
    let sidecar = cnnperf_bench::write_stats_sidecar("table4_speedup");
    eprintln!("[bench] metrics sidecar: {}", sidecar.display());
    Ok(())
}
