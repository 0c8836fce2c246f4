//! Phase 2 of the paper (Fig. 3): predictive-model generation and
//! evaluation, plus prediction for new CNN/GPU pairs without any hardware
//! execution.

use crate::features::{feature_names, feature_row, CnnProfile};
use gpu_sim::DeviceSpec;
use mlkit::{evaluate, Dataset, Model, RegressorKind, Scores};
use serde::{Deserialize, Serialize};

/// A trained cross-platform performance predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerformancePredictor {
    pub kind: RegressorKind,
    pub feature_names: Vec<String>,
    model: Model,
}

impl PerformancePredictor {
    /// Train on a dataset whose rows follow [`feature_names`].
    pub fn train(dataset: &Dataset, kind: RegressorKind, seed: u64) -> Self {
        assert_eq!(
            dataset.feature_names,
            feature_names(),
            "dataset feature layout mismatch"
        );
        Self {
            kind,
            feature_names: dataset.feature_names.clone(),
            model: kind.fit(dataset, seed),
        }
    }

    /// Predict the IPC of a profiled CNN on a device — the "no runtime
    /// dependency" path: static analysis + dynamic code analysis only.
    pub fn predict(&self, profile: &CnnProfile, dev: &DeviceSpec) -> f64 {
        self.model.predict_row(&feature_row(profile, dev))
    }

    /// Predict from a raw feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.model.predict_row(row)
    }

    /// Score on a hold-out set.
    pub fn evaluate(&self, test: &Dataset) -> Scores {
        evaluate(&self.model, test)
    }

    /// Feature importances (tree models), paired with names and sorted
    /// descending — the paper's Table III.
    pub fn feature_importances(&self) -> Option<Vec<(String, f64)>> {
        let imps = self.model.feature_importances()?;
        let mut out: Vec<(String, f64)> = self.feature_names.iter().cloned().zip(imps).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        Some(out)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("predictor serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// One row of the paper's Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressorComparison {
    pub kind: RegressorKind,
    pub scores: Scores,
}

/// Reproduce the paper's Table II protocol: a single seeded 70/30 split,
/// all five regressors trained on the same split.
pub fn compare_regressors(dataset: &Dataset, seed: u64) -> Vec<RegressorComparison> {
    let (train, test) = dataset.split(0.7, seed);
    RegressorKind::ALL
        .iter()
        .map(|&kind| {
            let p = PerformancePredictor::train(&train, kind, seed);
            RegressorComparison {
                kind,
                scores: p.evaluate(&test),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_corpus;
    use cnn_ir::ModelGraph;

    fn corpus() -> crate::pipeline::Corpus {
        let models: Vec<ModelGraph> = [
            "alexnet",
            "mobilenet",
            "MobileNetV2",
            "vgg16",
            "resnet50",
            "densenet121",
        ]
        .iter()
        .map(|n| cnn_ir::zoo::build(n).unwrap())
        .collect();
        build_corpus(&models, &gpu_sim::training_devices()).unwrap()
    }

    #[test]
    fn train_predict_evaluate_roundtrip() {
        let c = corpus();
        let (tr, te) = c.dataset.split(0.7, 42);
        let p = PerformancePredictor::train(&tr, RegressorKind::DecisionTree, 42);
        let s = p.evaluate(&te);
        assert!(s.mape.is_finite());
        // predicting a training model on a training device stays in the
        // plausible IPC range
        let prof = c.profile("vgg16").unwrap();
        let y = p.predict(prof, &gpu_sim::specs::gtx_1080_ti());
        assert!(y > 0.0 && y < 10.0, "{y}");
    }

    #[test]
    fn comparison_covers_all_five() {
        let c = corpus();
        let rows = compare_regressors(&c.dataset, 7);
        assert_eq!(rows.len(), 5);
        let kinds: Vec<_> = rows.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegressorKind::DecisionTree));
        assert!(kinds.contains(&RegressorKind::XgBoost));
    }

    #[test]
    fn importances_cover_paper_features() {
        let c = corpus();
        let p = PerformancePredictor::train(&c.dataset, RegressorKind::DecisionTree, 1);
        let imps = p.feature_importances().unwrap();
        assert_eq!(imps.len(), feature_names().len());
        // sorted descending
        for w in imps.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let c = corpus();
        let p = PerformancePredictor::train(&c.dataset, RegressorKind::DecisionTree, 1);
        let q = PerformancePredictor::from_json(&p.to_json()).unwrap();
        let prof = c.profile("alexnet").unwrap();
        let dev = gpu_sim::specs::v100s();
        assert_eq!(p.predict(prof, &dev), q.predict(prof, &dev));
    }
}
