//! Zoo-wide integrity: every Table I model must build, analyze, lower and
//! stay close to the paper's trainable-parameter count.

use rayon::prelude::*;
use std::collections::BTreeSet;

/// Per-model tolerance on trainable parameters vs the paper's Table I.
/// Most models are exact; NASNet is a faithful-structure approximation and
/// AlexNet uses the original grouped weights (documented in DESIGN.md).
fn tolerance(name: &str) -> f64 {
    match name {
        "alexnet" => 0.05,
        "nasnetmobile" | "nasnetlarge" => 0.01,
        _ => 1e-12,
    }
}

#[test]
fn all_models_match_paper_parameters_within_tolerance() {
    let failures: Vec<String> = cnn_ir::zoo::all()
        .par_iter()
        .filter_map(|e| {
            let model = (e.build)();
            let s = cnn_ir::analyze(&model).expect("analyzes");
            let paper = e.paper.trainable_params as f64;
            let rel = (s.trainable_params as f64 - paper).abs() / paper;
            if rel > tolerance(e.name) {
                Some(format!(
                    "{}: ours {} vs paper {} (rel {:.4})",
                    e.name, s.trainable_params, e.paper.trainable_params, rel
                ))
            } else {
                None
            }
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Every model `build_any` resolves: the Table I zoo, the variants and the
/// transformers.
fn resolvable_names() -> Vec<&'static str> {
    let names: Vec<&str> = cnn_ir::zoo::all()
        .iter()
        .map(|e| e.name)
        .chain(cnn_ir::zoo::variants::all_variants().iter().map(|e| e.0))
        .chain(
            cnn_ir::zoo::transformer::all_transformers()
                .iter()
                .map(|e| e.0),
        )
        .collect();
    assert_eq!(names.len(), 45);
    names
}

#[test]
fn all_models_lower_to_nonempty_plans() {
    // every model `build_any` resolves, at every device's sm target. Apart
    // from the module header's `target`, lowering must not depend on the
    // target: one analysis per model serves every device.
    let names = resolvable_names();
    let targets: BTreeSet<String> = gpu_sim::all_devices()
        .iter()
        .map(|d| d.sm_target())
        .collect();
    let bad: Vec<String> = names
        .par_iter()
        .map(|name| {
            let model = cnn_ir::zoo::build_any(name).expect("build_any resolves its own names");
            let base = match ptx_codegen::lower(&model, cnnperf_core::DEFAULT_SM_TARGET) {
                Ok(plan) if !plan.launches.is_empty() => plan,
                Ok(_) => return vec![format!("{name}: empty plan")],
                Err(err) => return vec![format!("{name}: {err}")],
            };
            targets
                .iter()
                .filter_map(|target| {
                    let plan =
                        ptx_codegen::lower(&model, target).expect("it lowered at the default");
                    assert_eq!(plan.module.target, *target);
                    plan_differs(&base, &plan).map(|what| format!("{name} at {target}: {what}"))
                })
                .collect()
        })
        .collect::<Vec<Vec<String>>>()
        .concat();
    assert!(bad.is_empty(), "{bad:#?}");
}

/// The first difference between two plans, ignoring `module.target`.
fn plan_differs(a: &ptx::kernel::LaunchPlan, b: &ptx::kernel::LaunchPlan) -> Option<String> {
    if a.model_name != b.model_name {
        return Some("model name".into());
    }
    if (a.module.version, a.module.address_size) != (b.module.version, b.module.address_size) {
        return Some("module header".into());
    }
    if a.module.kernels != b.module.kernels {
        return Some("kernels".into());
    }
    if a.launches.len() != b.launches.len() {
        return Some("launch count".into());
    }
    a.launches
        .iter()
        .zip(&b.launches)
        .enumerate()
        .find_map(|(i, (x, y))| {
            let same = x.kernel == y.kernel
                && x.tag == y.tag
                && x.grid == y.grid
                && x.args == y.args
                && x.bytes_read == y.bytes_read
                && x.bytes_written == y.bytes_written;
            (!same).then(|| format!("launch {i} ({})", x.tag))
        })
}

#[test]
fn analytical_plan_sums_its_launches_on_every_device() {
    // the analytical arm of `simulate_plan` shares its per-plan timing and
    // occupancy among launches: it must report, bit for bit, the in-order
    // sum of `estimate_launch` over the plan's launches, and the counts
    // it was given
    let devices = gpu_sim::all_devices();
    let bad: Vec<String> = resolvable_names()
        .par_iter()
        .map(|name| {
            let model = cnn_ir::zoo::build_any(name).expect("build_any resolves its own names");
            let plan = ptx_codegen::lower(&model, cnnperf_core::DEFAULT_SM_TARGET).expect("lowers");
            let counts = ptx_analysis::count_plan(&plan, true).expect("counts");
            let warp: u64 = counts.per_launch.iter().map(|c| c.warp_issues).sum();
            devices
                .iter()
                .filter_map(|dev| {
                    let cycles: f64 = plan
                        .launches
                        .iter()
                        .zip(&counts.per_launch)
                        .map(|(l, c)| {
                            let k = &plan.module.kernels[l.kernel];
                            gpu_sim::analytical::estimate_launch(k, l, c, dev).expect("estimates")
                        })
                        .sum();
                    let sim = gpu_sim::Simulator::new(dev.clone(), gpu_sim::SimMode::Analytical);
                    let report = sim
                        .simulate_plan(&plan, &counts, &ptx_analysis::ExecBudget::default())
                        .expect("simulates");
                    (report.cycles.to_bits() != cycles.to_bits()
                        || report.warp_instructions != warp)
                        .then(|| {
                            format!(
                                "{name} on {}: cycles {} vs {cycles}, warp {} vs {warp}",
                                dev.name, report.cycles, report.warp_instructions
                            )
                        })
                })
                .collect()
        })
        .collect::<Vec<Vec<String>>>()
        .concat();
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn plans_count_without_analysis_errors() {
    // counting the three largest-graph models exercises every kernel
    // template and the memoization path
    for name in ["nasnetmobile", "InceptionResNetV2", "efficientnetb0"] {
        let model = cnn_ir::zoo::build(name).expect("model");
        let plan = ptx_codegen::lower(&model, "sm_61").expect("lowering");
        let counts =
            ptx_analysis::count_plan(&plan, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(counts.thread_instructions > 0);
        assert!(counts.warp_issues > 0);
        assert!(counts.warp_issues < counts.thread_instructions);
    }
}

#[test]
fn instruction_counts_scale_with_macs() {
    // models ordered by MACs should be ordered by instruction count too
    // (coarse monotonicity, pairwise on a clear-cut pair)
    let count_of = |name: &str| {
        let model = cnn_ir::zoo::build(name).expect("model");
        let plan = ptx_codegen::lower(&model, "sm_61").expect("lowering");
        ptx_analysis::count_plan(&plan, true)
            .expect("counts")
            .thread_instructions
    };
    assert!(count_of("vgg19") > count_of("vgg16"));
    assert!(count_of("resnet101") > count_of("resnet50"));
    assert!(count_of("densenet201") > count_of("densenet121"));
}
