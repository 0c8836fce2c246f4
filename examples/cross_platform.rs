//! Cross-platform prediction — the capability the paper claims over
//! single-device predictors like Bouzidi et al. [13]: because the model
//! takes GPGPU architectural features as inputs, one trained predictor
//! covers devices it has *never seen*, with no retraining.
//!
//! Here: train on GTX 1080 Ti + V100S only, then predict the same CNNs on
//! a Quadro P1000 and compare against ground truth.
//!
//! ```text
//! cargo run --release --example cross_platform
//! ```

use cnnperf::prelude::*;
use gpu_sim::{profile_robust_budgeted, FaultInjector, FaultProfile, RetryPolicy};
use ptx_analysis::ExecBudget;

fn main() {
    let names = [
        "alexnet",
        "mobilenet",
        "MobileNetV2",
        "resnet50",
        "resnet101",
        "vgg16",
        "densenet121",
        "inceptionv3",
        "Xception",
        "efficientnetb0",
    ];
    let models: Vec<_> = names
        .iter()
        .map(|n| cnn_ir::zoo::build(n).expect("zoo model"))
        .collect();

    // train ONLY on the two paper GPUs
    let corpus = build_corpus(&models, &gpu_sim::training_devices()).expect("corpus");
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);

    // evaluate on an unseen device
    let unseen = gpu_sim::specs::quadro_p1000();
    println!(
        "trained on: GTX 1080 Ti, V100S — predicting on unseen device: {}\n",
        unseen.name
    );

    let mut y_true = Vec::new();
    let mut y_pred = Vec::new();
    let mut table = Table::new(
        format!("Cross-platform prediction on {}", unseen.name),
        &["CNN", "measured IPC", "predicted IPC", "APE"],
    )
    .align(0, Align::Left);
    // ground truth: one fault-free run of the robust profiling protocol
    let clean = FaultInjector::new(FaultProfile::none());
    let (policy, budget) = (RetryPolicy::default(), ExecBudget::default());
    for model in &models {
        let analyzed = profile_model_cached(model).expect("analysis");
        let profile = &analyzed.profile;
        let truth = profile_robust_budgeted(&analyzed.plan, &unseen, 1, &policy, &clean, &budget)
            .expect("ground truth");
        let pred = predictor.predict(profile, &unseen);
        let ape = 100.0 * ((truth.ipc - pred) / truth.ipc).abs();
        table.row(vec![
            profile.name.clone(),
            fixed(truth.ipc, 3),
            fixed(pred, 3),
            pct(ape),
        ]);
        y_true.push(truth.ipc);
        y_pred.push(pred);
    }
    println!("{table}");
    println!(
        "cross-platform MAPE: {:.2}%  (R2 {:.3})",
        mlkit::metrics::mape(&y_true, &y_pred),
        mlkit::metrics::r2(&y_true, &y_pred)
    );
    println!(
        "\nA single-device predictor (no hardware features) cannot produce these \
         numbers at all without collecting a new training set on the {}.",
        unseen.name
    );
    println!(
        "Note the honest caveat: trees do not extrapolate, so with only two \
         training devices the unseen-device error is much larger than the \
         in-distribution error — exactly why the paper's conclusion calls for \
         'a more extensive range of GPGPUs for the generation of training data sets'."
    );

    // The remedy the paper proposes: widen the training fleet. Train again
    // with six devices and re-evaluate on the still-unseen P1000.
    let mut fleet = gpu_sim::all_devices();
    fleet.retain(|d| d.name != unseen.name && d.name != "GTX 1050 Ti");
    let wide = build_corpus(&models, &fleet).expect("corpus");
    let predictor6 = PerformancePredictor::train(&wide.dataset, RegressorKind::DecisionTree, 42);
    let mut y_pred6 = Vec::new();
    for model in &models {
        let profile = &profile_model_cached(model).expect("analysis").profile;
        y_pred6.push(predictor6.predict(profile, &unseen));
    }
    println!(
        "\nwith 6 training devices instead of 2: cross-platform MAPE {:.2}% (R2 {:.3})",
        mlkit::metrics::mape(&y_true, &y_pred6),
        mlkit::metrics::r2(&y_true, &y_pred6)
    );
}
