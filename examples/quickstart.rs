//! Quickstart: predict the performance (IPC) of a CNN on a GPGPU without
//! any hardware execution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cnnperf::prelude::*;
use gpu_sim::{profile_robust_budgeted, FaultInjector, FaultProfile, RetryPolicy};
use ptx_analysis::ExecBudget;

fn main() {
    // 1. Build a small training corpus: a few zoo CNNs "profiled" on the
    //    two training GPUs (GTX 1080 Ti, V100S). The full 32-model corpus
    //    is `build_paper_corpus()`; this subset keeps the example fast.
    let models: Vec<_> = [
        "alexnet",
        "mobilenet",
        "MobileNetV2",
        "resnet50",
        "vgg16",
        "densenet121",
        "inceptionv3",
        "Xception",
    ]
    .iter()
    .map(|n| cnn_ir::zoo::build(n).expect("zoo model"))
    .collect();
    let corpus = build_corpus(&models, &gpu_sim::training_devices()).expect("corpus");
    println!("corpus: {} observations", corpus.dataset.len());

    // 2. Train the paper's final model: a Decision Tree regressor.
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);

    // 3. Analyze a new CNN. Static analysis gives trainable parameters;
    //    the dynamic code analysis counts the executed PTX instructions by
    //    slicing — no GPU and no cycle-level simulation involved.
    let new_cnn = cnn_ir::zoo::build("resnet101v2").expect("zoo model");
    let analyzed = profile_model_cached(&new_cnn).expect("analysis");
    let profile = &analyzed.profile;
    println!(
        "\n{}: {} trainable params, {} executed PTX instructions (t_dca = {:.2}s)",
        profile.name,
        thousands(analyzed.summary.trainable_params),
        thousands(profile.ptx_instructions),
        profile.dca_seconds,
    );

    // 4. Predict its IPC on any device in the database — including ones the
    //    predictor never saw, thanks to the architectural features.
    println!("\npredicted IPC per device:");
    for dev in gpu_sim::all_devices() {
        let ipc = predictor.predict(profile, &dev);
        println!("  {:14} {:.3}", dev.name, ipc);
    }

    // 5. Sanity check: compare against the ground-truth profiler on one
    //    device (this is the step the predictor lets you skip).
    let dev = gpu_sim::specs::gtx_1080_ti();
    // one fault-free run of the robust profiling protocol
    let clean = FaultInjector::new(FaultProfile::none());
    let truth = profile_robust_budgeted(
        &analyzed.plan,
        &dev,
        1,
        &RetryPolicy::default(),
        &clean,
        &ExecBudget::default(),
    )
    .expect("profiling");
    let pred = predictor.predict(profile, &dev);
    println!(
        "\n{} on {}: predicted {:.3} vs measured {:.3} ({:.1}% error)",
        profile.name,
        dev.name,
        pred,
        truth.ipc,
        100.0 * ((truth.ipc - pred) / truth.ipc).abs()
    );
}
