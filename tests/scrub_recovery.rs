//! Scrub repairs exactly what the stores repair.
//!
//! One workload writes all three stores under one `state/` directory on
//! one [`SimFs`]: two corpus-cache stores, a journal open plus five
//! appends, and a model store's save, save, pin, unpin and demote. For
//! every crash point of that workload and both crash styles, `scrub_dir`
//! repairs the post-power-loss image, and then each store opens it with
//! nothing left to repair:
//!
//! - journal: no corrupt segment and no temp file to sweep;
//! - model store: no quarantine and no temp file to sweep;
//! - corpus cache: the load never quarantines.
//!
//! The scrubbed state must also equal what the stores' own recovery makes
//! of an unscrubbed copy of the same image (same crash point, same seed):
//! the same journal cells, the same `load_latest` version and predictor
//! bytes, and the same corpus, or the same absence of one.

use cnnperf_core::vfs::{CrashStyle, SimFs, Vfs};
use cnnperf_core::{
    build_corpus, load_corpus_on, scrub_dir, store_corpus_on, BuildMeta, CacheMiss, CellOutcome,
    Corpus, FindingKind, Journal, ModelStore, PerformancePredictor, ScrubOptions, JOURNAL_SCHEMA,
};
use gpu_sim::{FaultProfile, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;

fn p(s: &str) -> PathBuf {
    PathBuf::from(s)
}

fn meta() -> BuildMeta {
    BuildMeta {
        schema: JOURNAL_SCHEMA,
        sm_target: "sm_61".into(),
        runs: 3,
        retry: RetryPolicy::no_backoff(),
        faults: FaultProfile::none(),
        strict: false,
    }
}

fn cell(i: u64) -> CellOutcome {
    CellOutcome::Fault {
        timeout: false,
        waited_ms: 0,
        error: format!("c{i}"),
    }
}

fn tiny_predictor(seed: u64) -> PerformancePredictor {
    let mut d = mlkit::Dataset::new(cnnperf_core::feature_names());
    let nf = d.feature_names.len();
    for i in 0..12 {
        let mut row = vec![0.0; nf];
        row[0] = (i + seed as usize) as f64;
        row[1] = (i * i) as f64;
        d.push(format!("r{i}"), row, 0.5 + 0.1 * i as f64);
    }
    PerformancePredictor::train(&d, mlkit::RegressorKind::DecisionTree, seed)
}

/// What the workload writes: two corpus versions and two predictors.
struct Inputs {
    old: Corpus,
    new: Corpus,
    p1: PerformancePredictor,
    p2: PerformancePredictor,
}

impl Inputs {
    fn new() -> Self {
        let models = vec![cnn_ir::zoo::build("mobilenet").unwrap()];
        let old = build_corpus(&models, &[gpu_sim::specs::quadro_p1000()]).unwrap();
        let mut new = old.clone();
        new.samples[0].ipc = 0.123456789;
        Inputs {
            old,
            new,
            p1: tiny_predictor(1),
            p2: tiny_predictor(2),
        }
    }

    /// All three stores under `state/`; any step may die at the crash gate.
    fn run(&self, fs: &Arc<SimFs>) -> Result<(), Box<dyn std::error::Error>> {
        store_corpus_on(fs, &p("state/corpus.json"), &self.old)?;
        store_corpus_on(fs, &p("state/corpus.json"), &self.new)?;
        let (journal, _) = Journal::open_on(fs.handle(), &p("state/journal"), &meta(), false)?;
        for i in 0..5u64 {
            journal.append_cell("alexnet", i, &format!("device-{i}"), &cell(i))?;
        }
        let (mut store, _) = ModelStore::open_on(fs.handle(), &p("state/models"))?;
        store.save(&self.p1, 12, "v1")?;
        store.save(&self.p2, 12, "v2")?;
        store.pin(1)?;
        store.unpin();
        store.demote_latest()?;
        Ok(())
    }
}

/// The state each store recovers from an image, in comparable form.
#[derive(Debug, PartialEq)]
struct Recovered {
    /// (model hash, device, outcome JSON), sorted.
    cells: Vec<(u64, String, String)>,
    /// `load_latest`: version and predictor JSON.
    latest: Option<(u64, String)>,
    /// The corpus's canonical JSON, or `None` when there is none.
    corpus: Option<String>,
}

/// Open every store on `image`. With `scrubbed`, the image has been
/// scrubbed first, so no store may find anything left to repair.
fn recover(image: &Arc<SimFs>, scrubbed: bool, at: &str) -> Recovered {
    let (_journal, replay) = Journal::open_on(image.handle(), &p("state/journal"), &meta(), true)
        .unwrap_or_else(|e| panic!("{at}: journal resume failed: {e}"));
    let (store, scan) = ModelStore::open_on(image.handle(), &p("state/models"))
        .unwrap_or_else(|e| panic!("{at}: model store open failed: {e}"));
    let corpus = match load_corpus_on(image, &p("state/corpus.json")) {
        Ok(c) => Some(c.canonical_json()),
        Err(CacheMiss::Absent) => None,
        Err(CacheMiss::Quarantined(reason)) => {
            assert!(!scrubbed, "{at}: cache quarantined after scrub ({reason})");
            None
        }
    };
    if scrubbed {
        assert_eq!(replay.corrupt_segments, 0, "{at}: journal left corrupt");
        assert_eq!(replay.tmp_swept, 0, "{at}: journal temp file left");
        assert_eq!(scan.quarantined, 0, "{at}: snapshot left corrupt");
        assert_eq!(scan.tmp_swept, 0, "{at}: snapshot temp file left");
    }
    let mut cells: Vec<(u64, String, String)> = replay
        .cells
        .iter()
        .map(|((hash, device), outcome)| {
            (
                *hash,
                device.clone(),
                serde_json::to_string(outcome).unwrap(),
            )
        })
        .collect();
    cells.sort();
    let latest = store.load_latest().map(|(info, predictor)| {
        (
            info.meta.version,
            serde_json::to_string(&predictor).unwrap(),
        )
    });
    Recovered {
        cells,
        latest,
        corpus,
    }
}

#[test]
fn scrubbed_images_open_clean_and_match_store_recovery() {
    let inputs = Inputs::new();
    let probe = SimFs::new(5);
    inputs.run(&probe).expect("uncrashed workload");
    let total = probe.mut_ops();
    assert!(total >= 30, "workload too small: {total} mut ops");
    let mut repaired = Vec::new();

    for style in [CrashStyle::Strict, CrashStyle::Torn] {
        for k in 0..=total {
            let at = format!("{style:?}@{k}/{total}");
            let fs = SimFs::new(5);
            fs.set_crash_after(k);
            let _ = inputs.run(&fs); // dies at the gate
            let seed = 5000 + k;

            let scrubbed = fs.crash_image(style, seed);
            if scrubbed.exists(&p("state")) {
                let report = scrub_dir(&scrubbed, &p("state"), ScrubOptions::default())
                    .unwrap_or_else(|e| panic!("{at}: scrub failed: {e}"));
                assert_eq!(report.unrepaired(), 0, "{at}: {:?}", report.findings);
                repaired.extend(report.findings.iter().map(|f| f.kind));
            }
            let after_scrub = recover(&scrubbed, true, &at);
            let by_stores = recover(&fs.crash_image(style, seed), false, &at);
            assert_eq!(
                after_scrub, by_stores,
                "{at}: scrub and the stores recover different state"
            );
        }
    }
    // the enumeration must reach scrub's repairs, not only clean images
    for kind in [FindingKind::OrphanTmp, FindingKind::CorruptSegment] {
        assert!(repaired.contains(&kind), "no crash point needed a {kind:?}");
    }
}
