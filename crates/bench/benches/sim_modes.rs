//! Simulator-fidelity ablation: detailed event-driven mode (the ground
//! truth / naive-profiling stand-in), detailed without launch memoization,
//! and the closed-form analytical mode. Each plan is counted once, outside
//! the timed loop, as the analysis does; the benches time simulation only.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{SimMode, SimReport, Simulator};
use ptx::kernel::LaunchPlan;
use ptx_analysis::{ExecBudget, PlanCount};
use std::hint::black_box;

fn simulate(sim: &Simulator, plan: &LaunchPlan, counts: &PlanCount) -> SimReport {
    sim.simulate_plan(plan, counts, &ExecBudget::default())
        .unwrap()
}

fn bench_sim_modes(c: &mut Criterion) {
    let model = cnn_ir::zoo::build("alexnet").unwrap();
    let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
    let counts = ptx_analysis::count_plan(&plan, true).unwrap();
    let dev = gpu_sim::specs::gtx_1080_ti();

    let mut group = c.benchmark_group("sim/alexnet");
    group.sample_size(10);
    group.bench_function("detailed_memoized", |b| {
        let sim = Simulator::new(dev.clone(), SimMode::Detailed);
        b.iter(|| black_box(simulate(&sim, &plan, &counts)))
    });
    group.bench_function("detailed_no_memo", |b| {
        let sim = Simulator::new(dev.clone(), SimMode::DetailedNoMemo);
        b.iter(|| black_box(simulate(&sim, &plan, &counts)))
    });
    group.bench_function("analytical", |b| {
        let sim = Simulator::new(dev.clone(), SimMode::Analytical);
        b.iter(|| black_box(simulate(&sim, &plan, &counts)))
    });
    group.finish();
}

/// Dynamic frequency scaling sweep (the paper's future-work item): cost of
/// re-simulating one model across five clock points.
fn bench_dvfs_sweep(c: &mut Criterion) {
    let model = cnn_ir::zoo::build("mobilenet").unwrap();
    let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
    let counts = ptx_analysis::count_plan(&plan, true).unwrap();
    let base = gpu_sim::specs::gtx_1080_ti();
    let mut group = c.benchmark_group("sim/dvfs_sweep");
    group.sample_size(10);
    group.bench_function("mobilenet_5_clockpoints", |b| {
        b.iter(|| {
            for scale in [0.6, 0.8, 1.0, 1.2, 1.4] {
                let dev = base.with_clock_scale(scale);
                let sim = Simulator::new(dev, SimMode::Detailed);
                black_box(simulate(&sim, &plan, &counts));
            }
        })
    });
    group.finish();
}

/// Codegen ablation: plain tiled GEMM vs 2x2 register-microtiled GEMM,
/// compared by simulated inference latency on the 1080 Ti.
fn bench_gemm_variants(c: &mut Criterion) {
    let model = cnn_ir::zoo::build("resnet50").unwrap();
    let dev = gpu_sim::specs::gtx_1080_ti();
    let mut group = c.benchmark_group("sim/gemm_variant_resnet50");
    group.sample_size(10);
    for (label, variant) in [
        ("tiled_1thread_per_elem", ptx_codegen::GemmVariant::Tiled),
        ("micro_2x2_per_thread", ptx_codegen::GemmVariant::Micro2x2),
    ] {
        let plan = ptx_codegen::lower_with(&model, "sm_61", 1, variant).unwrap();
        let counts = ptx_analysis::count_plan(&plan, true).unwrap();
        // report the simulated latency once (criterion measures wall time of
        // the simulation; the interesting number is the simulated ms)
        let simulator = Simulator::new(dev.clone(), SimMode::Detailed);
        let sim = simulate(&simulator, &plan, &counts);
        eprintln!(
            "[gemm-variant] {label}: simulated latency {:.2} ms, IPC {:.3}, {} thread instrs",
            sim.latency_ms, sim.ipc, sim.thread_instructions
        );
        group.bench_function(label, |b| {
            b.iter(|| black_box(simulate(&simulator, &plan, &counts)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_modes,
    bench_dvfs_sweep,
    bench_gemm_variants
);
criterion_main!(benches);
