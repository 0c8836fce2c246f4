//! Build a *custom* CNN with the graph builder (not a zoo model), run the
//! full analysis pipeline on it, and predict its performance — the
//! neural-architecture-search use case from the paper's conclusion: score
//! candidate architectures on many GPUs without running any of them.
//!
//! ```text
//! cargo run --release --example custom_cnn
//! ```

use cnn_ir::{
    ActKind, Conv2d, Dense, DepthwiseConv2d, GraphBuilder, Layer, Padding, Pool2d, PoolKind,
    TensorShape,
};
use cnnperf::prelude::*;

/// A hand-rolled mobile-style architecture: stem, four depthwise-separable
/// stages with residuals, classifier.
fn build_candidate(width: u32, depth_per_stage: u32) -> cnn_ir::ModelGraph {
    let name = format!("candidate_w{width}_d{depth_per_stage}");
    let mut b = GraphBuilder::new(name, 4 * depth_per_stage + 2);
    let mut x = b.input(TensorShape::square(224, 3));

    // stem
    x = b.layer(
        Layer::Conv2d(Conv2d::new(width, 3, 2, Padding::Same).no_bias()),
        &[x],
    );
    x = b.layer(Layer::BatchNorm(Default::default()), &[x]);
    x = b.layer(Layer::Activation(ActKind::HardSwish), &[x]);

    let mut channels = width;
    for stage in 0..4u32 {
        let out_c = width << (stage + 1);
        for block in 0..depth_per_stage {
            let stride = if block == 0 { 2 } else { 1 };
            let shortcut = x;
            let mut y = b.layer(
                Layer::DepthwiseConv2d(DepthwiseConv2d::new(3, stride, Padding::Same).no_bias()),
                &[x],
            );
            y = b.layer(Layer::BatchNorm(Default::default()), &[y]);
            y = b.layer(Layer::Activation(ActKind::HardSwish), &[y]);
            y = b.layer(
                Layer::Conv2d(Conv2d::new(out_c, 1, 1, Padding::Same).no_bias()),
                &[y],
            );
            y = b.layer(Layer::BatchNorm(Default::default()), &[y]);
            if stride == 1 && channels == out_c {
                y = b.layer(Layer::Add, &[shortcut, y]);
            }
            x = y;
            channels = out_c;
        }
    }

    x = b.layer(Layer::Pool2d(Pool2d::avg(2, 2, Padding::Valid)), &[x]);
    x = b.layer(
        Layer::GlobalPool {
            kind: PoolKind::Avg,
        },
        &[x],
    );
    x = b.layer(Layer::Dense(Dense::new(100)), &[x]);
    x = b.layer(Layer::Activation(ActKind::Softmax), &[x]);
    b.finish(x)
}

fn main() {
    // predictor trained on a zoo subset
    let models: Vec<_> = [
        "mobilenet",
        "MobileNetV2",
        "efficientnetb0",
        "resnet50",
        "densenet121",
        "Xception",
    ]
    .iter()
    .map(|n| cnn_ir::zoo::build(n).expect("zoo model"))
    .collect();
    let corpus = build_corpus(&models, &gpu_sim::training_devices()).expect("corpus");
    // KNN rather than the decision tree: it interpolates between training
    // points, giving the sweep a smoother score surface than piecewise-
    // constant tree leaves when all candidates are far smaller than the
    // training CNNs.
    let predictor =
        PerformancePredictor::train(&corpus.dataset, RegressorKind::KNearestNeighbors, 42);

    println!("NAS-style sweep over custom architectures:\n");
    let dev = gpu_sim::specs::tesla_t4();
    for width in [16u32, 32, 64] {
        for depth in [1u32, 2, 3] {
            let model = build_candidate(width, depth);
            let AnalyzedModel {
                profile,
                counts,
                summary,
                ..
            } = &*profile_model_cached(&model).expect("analysis");
            let ipc = predictor.predict(profile, &dev);
            // predicted IPC + counted warp instructions give a latency
            // estimate without ever running the candidate:
            //   cycles = warp_instrs / (ipc * active SMs)
            let cycles = counts.warp_issues as f64 / (ipc * dev.sm_count as f64);
            let latency_ms = cycles / (dev.boost_clock_mhz as f64 * 1e3);
            println!(
                "{:18} params {:>10}  MACs {:>12}  PTX instrs {:>14}  IPC {:.3}  est. latency {:>6.2} ms",
                profile.name,
                thousands(summary.trainable_params),
                thousands(summary.macs),
                thousands(profile.ptx_instructions),
                ipc,
                latency_ms
            );
        }
    }
    println!(
        "\nNone of these candidates was ever executed — scores come from static \
         analysis + PTX slicing + the trained regressor."
    );
}
