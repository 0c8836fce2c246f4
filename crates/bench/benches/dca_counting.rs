//! Ablation benches for the dynamic code analysis (paper Section IV-A):
//!
//! - interval-splitting representative execution vs per-thread brute force
//!   (the reason the DCA outruns simulators),
//! - slice-mode evaluation (`G_v*`) vs full-value evaluation, and
//! - dense-program decode reuse: decoding a kernel once and sharing the
//!   [`DenseProgram`] across launches vs re-decoding per count.
//!
//! Besides the criterion groups, the harness emits a BENCH json artifact
//! (`target/figures/dca_counting.bench.json`) quantifying the decode-reuse
//! win, plus the usual obs stats sidecar.

use criterion::{criterion_group, BenchmarkId, Criterion};
use ptx::kernel::KernelLaunch;
use ptx_analysis::{
    branch_slice, compile_kernel, count_launch, count_launch_bruteforce,
    count_launch_poly_prepared, count_launch_prepared, count_plan, count_plan_mode_budgeted,
    CountMode, DenseProgram, ExecBudget,
};
use ptx_codegen::Template;
use std::hint::black_box;
use std::sync::Arc;

fn launch_for(kernel: &ptx::kernel::Kernel, threads: u64, args: Vec<u64>) -> KernelLaunch {
    KernelLaunch {
        kernel: 0,
        tag: "bench".into(),
        grid: (threads.div_ceil(kernel.block_threads() as u64) as u32, 1, 1),
        args,
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// Interval splitting vs brute force on an elementwise kernel at growing
/// grid sizes: fast mode is O(pieces), brute force O(threads).
fn bench_splitting_vs_bruteforce(c: &mut Criterion) {
    let kernel = Template::ActRelu.build();
    let mut group = c.benchmark_group("counting/relu_kernel");
    for threads in [1_000u64, 10_000, 100_000] {
        let launch = launch_for(&kernel, threads, vec![0x1000, 0x2000, threads - 37]);
        group.bench_with_input(
            BenchmarkId::new("interval_splitting", threads),
            &launch,
            |b, l| b.iter(|| black_box(count_launch(&kernel, l, true).unwrap())),
        );
        // brute force only at the sizes where it terminates in reasonable time
        if threads <= 10_000 {
            group.bench_with_input(BenchmarkId::new("bruteforce", threads), &launch, |b, l| {
                b.iter(|| black_box(count_launch_bruteforce(&kernel, l).unwrap()))
            });
        }
    }
    group.finish();
}

/// Slice-restricted evaluation vs full evaluation on the GEMM kernel (long
/// fma-dense inner loops are exactly what slicing skips).
fn bench_slice_ablation(c: &mut Criterion) {
    let kernel = Template::GemmTiled.build();
    let launch = KernelLaunch {
        kernel: 0,
        tag: "gemm".into(),
        grid: (256, 1, 1),
        args: vec![0x1000, 0x2000, 0x3000, 256, 256, 1024, 64, 0, 0],
        bytes_read: 0,
        bytes_written: 0,
    };
    let mut group = c.benchmark_group("counting/gemm_slice_ablation");
    group.bench_function("slice_Gv*", |b| {
        b.iter(|| black_box(count_launch(&kernel, &launch, true).unwrap()))
    });
    group.bench_function("full_evaluation", |b| {
        b.iter(|| black_box(count_launch(&kernel, &launch, false).unwrap()))
    });
    group.finish();
}

/// Whole-plan counting for a zoo model (rayon-parallel, memoized).
fn bench_plan_counting(c: &mut Criterion) {
    let model = cnn_ir::zoo::build("mobilenet").unwrap();
    let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
    c.bench_function("counting/mobilenet_plan", |b| {
        b.iter(|| black_box(count_plan(&plan, true).unwrap()))
    });
}

/// One interpreter count that decodes and slices the kernel first: what
/// every count cost before kernels were prepared once per process.
fn count_decoding_afresh(
    kernel: &ptx::kernel::Kernel,
    launch: &KernelLaunch,
    budget: &ExecBudget,
) -> ptx_analysis::LaunchCount {
    let program = Arc::new(DenseProgram::decode(kernel));
    count_launch_prepared(&program, Some(&branch_slice(kernel)), launch, budget).unwrap()
}

/// Per-count kernel decode vs a shared pre-decoded [`DenseProgram`]: the
/// prepared path is what every count runs once the kernel table holds the
/// kernel, and what the grid-rectangle re-runs inside one count always
/// shared.
fn bench_decode_reuse(c: &mut Criterion) {
    let kernel = Template::GemmTiled.build();
    let launch = KernelLaunch {
        kernel: 0,
        tag: "gemm".into(),
        grid: (256, 1, 1),
        args: vec![0x1000, 0x2000, 0x3000, 256, 256, 1024, 64, 0, 0],
        bytes_read: 0,
        bytes_written: 0,
    };
    let budget = ExecBudget::default();
    let program = Arc::new(DenseProgram::decode(&kernel));
    let slice = branch_slice(&kernel);

    let mut group = c.benchmark_group("counting/gemm_decode_reuse");
    group.bench_function("decode_per_count", |b| {
        b.iter(|| black_box(count_decoding_afresh(&kernel, &launch, &budget)))
    });
    group.bench_function("shared_dense_program", |b| {
        b.iter(|| {
            black_box(count_launch_prepared(&program, Some(&slice), &launch, &budget).unwrap())
        })
    });
    group.bench_function("decode_only", |b| {
        b.iter(|| black_box(DenseProgram::decode(&kernel)))
    });
    group.finish();
}

/// Compiled trip-count polynomials vs the dense interpreter, per launch,
/// compile excluded (that is how `count_plan` amortizes it: one compile per
/// kernel, O(launches) evaluations). The gemm showcase is where the win is
/// largest — the interpreter walks every inner-loop iteration, the
/// polynomial evaluates in O(1).
fn bench_poly_vs_interp(c: &mut Criterion) {
    let kernel = Template::GemmTiled.build();
    let launch = KernelLaunch {
        kernel: 0,
        tag: "gemm".into(),
        grid: (256, 1, 1),
        args: vec![0x1000, 0x2000, 0x3000, 256, 256, 1024, 64, 0, 0],
        bytes_read: 0,
        bytes_written: 0,
    };
    let budget = ExecBudget::default();
    let program = Arc::new(DenseProgram::decode(&kernel));
    let slice = branch_slice(&kernel);
    let kp = compile_kernel(&program, Some(&slice)).expect("gemm compiles to a polynomial");

    let mut group = c.benchmark_group("counting/poly");
    group.bench_function("gemm_interp_launch", |b| {
        b.iter(|| {
            black_box(count_launch_prepared(&program, Some(&slice), &launch, &budget).unwrap())
        })
    });
    group.bench_function("gemm_poly_launch", |b| {
        b.iter(|| black_box(count_launch_poly_prepared(&kp, &launch, &budget).unwrap()))
    });
    group.bench_function("gemm_poly_compile", |b| {
        b.iter(|| black_box(compile_kernel(&program, Some(&slice)).unwrap()))
    });
    group.finish();

    // whole-plan effect on a zoo model
    let model = cnn_ir::zoo::build("mobilenet").unwrap();
    let plan = ptx_codegen::lower(&model, "sm_61").unwrap();
    let mut group = c.benchmark_group("counting/poly_plan");
    for (label, mode) in [("interp", CountMode::Interp), ("auto", CountMode::Auto)] {
        group.bench_function(format!("mobilenet_{label}"), |b| {
            b.iter(|| black_box(count_plan_mode_budgeted(&plan, true, &budget, mode).unwrap()))
        });
    }
    group.finish();
}

/// The `poly` BENCH artifact group: per-launch interpreter vs polynomial
/// timings over representative loop-heavy launches (the kernels CNN plans
/// are made of), with the compile cost reported separately and the median
/// speedup as the headline number.
fn poly_artifact_json() -> String {
    struct Case {
        name: &'static str,
        template: Template,
        grid: u32,
        args: Vec<u64>,
    }
    let cases = [
        Case {
            name: "gemm_tiled",
            template: Template::GemmTiled,
            grid: 256,
            args: vec![0x1000, 0x2000, 0x3000, 256, 256, 1024, 64, 0, 0],
        },
        Case {
            name: "gemm_micro",
            template: Template::GemmMicro,
            grid: 64,
            args: vec![0x1000, 0x2000, 0x3000, 127, 191, 512, 64, 96, 0x9000, 1],
        },
        Case {
            name: "gemv",
            template: Template::Gemv,
            grid: 4,
            args: vec![0x1000, 0x2000, 0x3000, 512, 4096, 0x9000, 1],
        },
        Case {
            name: "im2col",
            template: Template::Im2col,
            grid: 19,
            args: vec![0x1000, 0x2000, 4704, 27, 3, 6, 56, 56, 3, 2, 2, 1, 1, 112],
        },
        Case {
            name: "relu_guard",
            template: Template::ActRelu,
            grid: 391,
            args: vec![0x1000, 0x2000, 100_000],
        },
    ];

    const ITERS: u32 = 200;
    let budget = ExecBudget::default();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for case in &cases {
        let kernel = case.template.build();
        let launch = KernelLaunch {
            kernel: 0,
            tag: "bench".into(),
            grid: (case.grid, 1, 1),
            args: case.args.clone(),
            bytes_read: 0,
            bytes_written: 0,
        };
        let program = Arc::new(DenseProgram::decode(&kernel));
        let slice = branch_slice(&kernel);
        let tc = std::time::Instant::now();
        let compiled = compile_kernel(&program, Some(&slice));
        let compile_s = tc.elapsed().as_secs_f64();
        let kp = match compiled {
            Ok(kp) => kp,
            Err(reason) => {
                rows.push(format!(
                    "{{\"launch\":\"{}\",\"poly\":\"fallback\",\"reason\":\"{reason}\"}}",
                    case.name
                ));
                continue;
            }
        };

        let t0 = std::time::Instant::now();
        for _ in 0..ITERS {
            black_box(count_launch_prepared(&program, Some(&slice), &launch, &budget).unwrap());
        }
        let interp_s = t0.elapsed().as_secs_f64() / ITERS as f64;
        let t1 = std::time::Instant::now();
        for _ in 0..ITERS {
            black_box(count_launch_poly_prepared(&kp, &launch, &budget).unwrap());
        }
        let poly_s = t1.elapsed().as_secs_f64() / ITERS as f64;
        let speedup = interp_s / poly_s.max(1e-12);
        speedups.push(speedup);
        rows.push(format!(
            concat!(
                "{{\"launch\":\"{name}\",\"interp_seconds\":{i:.9},",
                "\"poly_seconds\":{p:.9},\"compile_seconds\":{c:.9},",
                "\"speedup\":{s:.2}}}"
            ),
            name = case.name,
            i = interp_s,
            p = poly_s,
            c = compile_s,
            s = speedup,
        ));
    }
    speedups.sort_by(|a, b| a.total_cmp(b));
    let median = if speedups.is_empty() {
        0.0
    } else {
        speedups[speedups.len() / 2]
    };
    eprintln!(
        "BENCH dca_poly_counting: median per-launch speedup {median:.1}x over {} launches",
        speedups.len()
    );
    format!(
        concat!(
            "{{\"bench\":\"dca_poly_counting\",\"iterations\":{iters},",
            "\"launches\":[{rows}],\"median_speedup\":{m:.2}}}"
        ),
        iters = ITERS,
        rows = rows.join(","),
        m = median,
    )
}

/// Instant-based measurement behind the BENCH json artifact: the same
/// decode-per-count vs shared-program comparison as the criterion group,
/// plus the decode counter deltas proving the reuse.
fn decode_reuse_json() -> String {
    let kernel = Template::GemmTiled.build();
    let launch = KernelLaunch {
        kernel: 0,
        tag: "gemm".into(),
        grid: (256, 1, 1),
        args: vec![0x1000, 0x2000, 0x3000, 256, 256, 1024, 64, 0, 0],
        bytes_read: 0,
        bytes_written: 0,
    };
    let budget = ExecBudget::default();
    const ITERS: u32 = 50;

    let decodes = || obs::global().snapshot().counter("ptx.exec.decodes");

    let d0 = decodes();
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        black_box(count_decoding_afresh(&kernel, &launch, &budget));
    }
    let per_count_s = t0.elapsed().as_secs_f64();
    let per_count_decodes = decodes() - d0;

    let d1 = decodes();
    let t1 = std::time::Instant::now();
    let program = Arc::new(DenseProgram::decode(&kernel));
    let slice = branch_slice(&kernel);
    for _ in 0..ITERS {
        black_box(count_launch_prepared(&program, Some(&slice), &launch, &budget).unwrap());
    }
    let shared_s = t1.elapsed().as_secs_f64();
    let shared_decodes = decodes() - d1;

    let speedup = per_count_s / shared_s.max(1e-12);
    let json = format!(
        concat!(
            "{{\"bench\":\"dca_decode_reuse\",\"kernel\":\"gemm_tiled\",",
            "\"iterations\":{iters},",
            "\"decode_per_count\":{{\"total_seconds\":{a:.6},\"decodes\":{ad}}},",
            "\"shared_dense_program\":{{\"total_seconds\":{b:.6},\"decodes\":{bd}}},",
            "\"speedup\":{s:.4}}}"
        ),
        iters = ITERS,
        a = per_count_s,
        ad = per_count_decodes,
        b = shared_s,
        bd = shared_decodes,
        s = speedup,
    );
    eprintln!(
        "BENCH dca_decode_reuse: per-count {per_count_s:.3}s ({per_count_decodes} decodes) \
         vs shared {shared_s:.3}s ({shared_decodes} decodes), {speedup:.2}x"
    );
    json
}

/// Write the BENCH artifact: one JSON object per line, `dca_decode_reuse`
/// then `dca_poly_counting` (the `poly` group).
fn emit_artifacts() {
    let decode = decode_reuse_json();
    let poly = poly_artifact_json();
    let dir = cnnperf_bench::figures_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("dca_counting.bench.json");
    let _ = std::fs::write(&path, format!("{decode}\n{poly}\n"));
    eprintln!("BENCH artifact -> {}", path.display());
    let sidecar = cnnperf_bench::write_stats_sidecar("dca_counting");
    eprintln!("BENCH stats sidecar: {}", sidecar.display());
}

criterion_group!(
    benches,
    bench_splitting_vs_bruteforce,
    bench_slice_ablation,
    bench_plan_counting,
    bench_decode_reuse,
    bench_poly_vs_interp
);

fn main() {
    benches();
    emit_artifacts();
}
