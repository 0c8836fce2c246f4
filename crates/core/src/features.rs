//! Feature extraction: assemble the paper's observation vector
//! `d = (y, p, c_1..c_m, t)` — executed PTX instructions `p`, GPGPU
//! architectural features `c`, trainable parameters `t` (Eq. 1).

use cnn_ir::GraphError;
use gpu_sim::{DeviceSpec, ProfileFault};
use ptx_analysis::ExecError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything the static + dynamic analysis extracts from one CNN
/// (GPU-independent; computed once per model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CnnProfile {
    pub name: String,
    /// Total executed PTX instructions (thread-level), the paper's `p`.
    pub ptx_instructions: u64,
    /// Trainable parameters, the paper's `t`.
    pub trainable_params: u64,
    /// Extra static-analysis outputs (the paper's future-work features).
    pub macs: u64,
    pub flops: u64,
    pub neurons: u64,
    pub num_launches: usize,
    /// Seconds spent in the dynamic code analysis (`t_dca` of Table IV).
    pub dca_seconds: f64,
}

/// Unified pipeline failure: everything that can go wrong between a model
/// graph and a corpus row. The [`transient`](ProfileError::transient) /
/// [`permanent`](ProfileError::permanent) split is what drives retry
/// decisions — transient failures are worth another attempt, permanent
/// ones fail the cell (or, in strict mode, the whole build).
#[derive(Debug)]
pub enum ProfileError {
    Graph(GraphError),
    Exec(ExecError),
    /// Measurement-layer failure from the robust profiling protocol.
    Fault(ProfileFault),
    /// The build journal could not be written; crash-safety is gone, so
    /// the build aborts rather than continuing unjournaled.
    Journal(String),
}

impl ProfileError {
    /// Retryable: a repeat attempt may succeed (injected transient
    /// failures and hung-run kills). Analysis and simulation errors are
    /// deterministic and therefore permanent.
    pub fn transient(&self) -> bool {
        match self {
            ProfileError::Graph(_) | ProfileError::Exec(_) | ProfileError::Journal(_) => false,
            ProfileError::Fault(f) => f.transient(),
        }
    }

    pub fn permanent(&self) -> bool {
        !self.transient()
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Graph(e) => write!(f, "graph error: {e}"),
            ProfileError::Exec(e) => write!(f, "analysis error: {e}"),
            ProfileError::Fault(e) => write!(f, "profiling fault: {e}"),
            ProfileError::Journal(e) => write!(f, "journal error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<GraphError> for ProfileError {
    fn from(e: GraphError) -> Self {
        ProfileError::Graph(e)
    }
}

impl From<ExecError> for ProfileError {
    fn from(e: ExecError) -> Self {
        ProfileError::Exec(e)
    }
}

impl From<ProfileFault> for ProfileError {
    fn from(e: ProfileFault) -> Self {
        ProfileError::Fault(e)
    }
}

/// Default PTX lowering target for device-independent profiling (the
/// instruction count is target-independent; the target only stamps the
/// emitted module).
pub const DEFAULT_SM_TARGET: &str = "sm_61";

/// Names of the full feature vector, in order: CNN features then GPU
/// features.
pub fn feature_names() -> Vec<String> {
    let mut names = vec![
        "ptx_instructions".to_string(),
        "trainable_params".to_string(),
    ];
    for (n, _) in gpu_sim::specs::gtx_1080_ti().features() {
        names.push(n.to_string());
    }
    names
}

/// Assemble one feature row for (CNN, GPU).
pub fn feature_row(profile: &CnnProfile, dev: &DeviceSpec) -> Vec<f64> {
    let mut row = vec![
        profile.ptx_instructions as f64,
        profile.trainable_params as f64,
    ];
    row.extend(dev.features().iter().map(|(_, v)| *v));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis_cache::AnalyzedModel;

    fn analyze(name: &str) -> AnalyzedModel {
        let model = cnn_ir::zoo::build_any(name).unwrap();
        AnalyzedModel::compute(&model, DEFAULT_SM_TARGET, &Default::default()).unwrap()
    }

    #[test]
    fn feature_vector_matches_names() {
        let profile = analyze("alexnet").profile;
        let dev = gpu_sim::specs::gtx_1080_ti();
        let row = feature_row(&profile, &dev);
        assert_eq!(row.len(), feature_names().len());
        assert_eq!(row[0], profile.ptx_instructions as f64);
        assert_eq!(row[1], 60_965_224.0);
    }

    #[test]
    fn transformer_models_profile_end_to_end() {
        // the attention-era layers (layernorm / MHA / GELU MLP) must flow
        // through the same Eq. 1 pipeline as the CNN zoo: static summary,
        // lowering, DCA, feature row
        let AnalyzedModel {
            profile,
            plan,
            summary,
            counting,
            ..
        } = analyze("bert-micro");
        assert!(profile.ptx_instructions > 0);
        assert!(profile.macs > 0 && profile.flops > profile.macs);
        assert_eq!(profile.trainable_params, summary.trainable_params);
        assert!(plan.launches.len() > 20, "{} launches", plan.launches.len());
        // the attention row kernels must count on the polynomial tier
        assert!(counting.poly_compiled > 0);
        let row = feature_row(&profile, &gpu_sim::specs::h100());
        assert_eq!(row.len(), feature_names().len());
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn profile_is_gpu_independent() {
        let a = analyze("mobilenet").profile;
        let b = analyze("mobilenet").profile;
        assert_eq!(a.ptx_instructions, b.ptx_instructions);
    }

    #[test]
    fn instruction_count_tracks_model_size() {
        let small = analyze("mobilenet").profile;
        let big = analyze("vgg16").profile;
        assert!(big.ptx_instructions > 3 * small.ptx_instructions);
    }
}
