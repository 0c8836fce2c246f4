//! # cnnperf-core — the paper's contribution
//!
//! Fast and accurate ML-based performance (IPC) estimation of CNNs for
//! GPGPUs, assembled from the substrate crates:
//!
//! 1. **Feature extraction** ([`features`]): static analysis (trainable
//!    parameters) + dynamic code analysis (exact executed-PTX-instruction
//!    count) + GPGPU architectural features.
//! 2. **Training-dataset creation** ([`pipeline`]): the 32-CNN zoo
//!    profiled on the training GPUs by the simulator-backed `nvprof`
//!    stand-in.
//! 3. **Predictive model** ([`model`]): five candidate regressors, the
//!    Decision Tree selected as in the paper; cross-platform prediction
//!    from device features.
//! 4. **Design-space exploration** ([`dse`]): rank `n` GPUs for a CNN in
//!    `T_est = t_dca + n * t_pm` instead of `T_measur = t_p * n`.
//!
//! ```no_run
//! use cnnperf_core::prelude::*;
//!
//! let corpus = build_paper_corpus().unwrap();
//! let (train, test) = corpus.dataset.split(0.7, 42);
//! let predictor = PerformancePredictor::train(&train, RegressorKind::DecisionTree, 42);
//! let scores = predictor.evaluate(&test);
//! println!("MAPE {:.2}%  R2 {:.2}", scores.mape, scores.r2);
//! ```

pub mod analysis_cache;
pub mod cache;
pub mod dse;
pub mod durable;
pub mod engine;
pub mod features;
pub mod invariants;
pub mod journal;
pub mod lifecycle;
pub mod model;
pub mod modelstore;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod scrub;
pub mod server;
pub mod vfs;

pub use analysis_cache::{
    analyze_cached, cache_stats, clear_analysis_cache, model_content_hash, profile_model_cached,
    AnalyzedModel, ANALYSIS_CACHE_CAPACITY,
};
pub use cache::{
    cached_corpus, corpus_cache_path, load_corpus, load_corpus_on, store_corpus, store_corpus_on,
    CacheMiss, CORPUS_CACHE_SCHEMA,
};
pub use dse::{naive_profile_time, rank_devices, DseOutcome};
pub use engine::{
    EngineConfig, EstimateOutcome, OutcomeKind, ResilientEngine, Tier, TierAttempt, TierFailure,
};
pub use features::{feature_names, feature_row, CnnProfile, ProfileError, DEFAULT_SM_TARGET};
pub use invariants::{check_invariants, Violation, INVARIANTS};
pub use journal::{
    BuildMeta, CellOutcome, Journal, JournalError, JournalRecord, Replay, JOURNAL_SCHEMA,
    SEGMENT_RECORDS,
};
pub use lifecycle::{
    family_of, ColdStart, IngestReport, LifecycleConfig, LifecycleManager, Measurement,
    MeasurementLog, PredictorSlot, RetrainOutcome, SwapRace,
};
pub use model::{compare_regressors, PerformancePredictor, RegressorComparison};
pub use modelstore::{
    ModelStore, ScanReport, SnapshotInfo, SnapshotMeta, StoreError, SNAPSHOT_SCHEMA,
};
pub use pipeline::{
    build_corpus, build_corpus_robust, build_corpus_robust_with, build_paper_corpus, BuildOptions,
    CellReport, CellStatus, Corpus, CorpusReport, RobustConfig, SampleMeta,
};
pub use ptx_analysis::clear_kernel_table;
pub use resilience::{BreakerConfig, BreakerState, CircuitBreaker, Deadline};
pub use scrub::{scrub_dir, scrub_path, Finding, FindingKind, Repair, ScrubOptions, ScrubReport};
pub use server::{
    default_sigpipe, DrainController, DrainReport, DrainState, QosClass, QosPolicy, Scheduler,
    ServeError, Server, ServerConfig, SessionEnd, SubmitError,
};
pub use vfs::{
    real_fs, CrashStyle, FaultKind, FaultPlan, FaultRule, OpKind, RealFs, SimFs, Vfs, VfsFile,
};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::analysis_cache::{analyze_cached, profile_model_cached, AnalyzedModel};
    pub use crate::cache::{load_corpus, store_corpus, CacheMiss};
    pub use crate::dse::{naive_profile_time, rank_devices};
    pub use crate::engine::{
        EngineConfig, EstimateOutcome, OutcomeKind, ResilientEngine, Tier, TierFailure,
    };
    pub use crate::features::{feature_names, feature_row, CnnProfile};
    pub use crate::model::{compare_regressors, PerformancePredictor};
    pub use crate::pipeline::{
        build_corpus, build_corpus_robust, build_paper_corpus, CellStatus, Corpus, CorpusReport,
        RobustConfig,
    };
    pub use crate::report::{fixed, pct, thousands, Align, Table};
    pub use crate::resilience::{BreakerConfig, BreakerState, CircuitBreaker, Deadline};
    pub use mlkit::{RegressorKind, Scores};
}
