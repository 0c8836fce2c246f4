//! End-to-end pipeline benches: static analysis, lowering, and the full
//! per-model feature extraction (`t_dca`) that Table IV's estimation path
//! pays once per CNN.

use cnnperf_core::{AnalyzedModel, DEFAULT_SM_TARGET};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptx_analysis::ExecBudget;
use std::hint::black_box;

fn bench_static_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/static_analysis");
    for name in ["mobilenet", "resnet50", "efficientnetb0"] {
        let model = cnn_ir::zoo::build(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            b.iter(|| black_box(cnn_ir::analyze(m).unwrap()))
        });
    }
    group.finish();
}

fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/lowering");
    for name in ["mobilenet", "resnet50"] {
        let model = cnn_ir::zoo::build(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            b.iter(|| black_box(ptx_codegen::lower(m, "sm_61").unwrap()))
        });
    }
    group.finish();
}

fn bench_full_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/profile_model_t_dca");
    group.sample_size(10);
    for name in ["alexnet", "mobilenet"] {
        let model = cnn_ir::zoo::build(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            let budget = ExecBudget::default();
            b.iter(|| black_box(AnalyzedModel::compute(m, DEFAULT_SM_TARGET, &budget).unwrap()))
        });
    }
    group.finish();
}

fn bench_zoo_build(c: &mut Criterion) {
    c.bench_function("pipeline/build_all_32_models", |b| {
        b.iter(|| black_box(cnn_ir::zoo::build_all()))
    });
}

criterion_group!(
    benches,
    bench_static_analysis,
    bench_lowering,
    bench_full_profile,
    bench_zoo_build
);
criterion_main!(benches);
