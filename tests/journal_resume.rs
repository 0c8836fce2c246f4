//! Integration tests for the crash-safe cell journal and the cells'
//! silence limit: a build interrupted mid-journal and resumed must produce
//! a corpus byte-identical to an uninterrupted one without recomputing
//! journaled cells; a corrupted segment tail must be quarantined, not
//! trusted; and a chaos-injected hanging cell must be cancelled once its
//! silence limit passes instead of wedging the build.

use cnnperf_core::{
    build_corpus_robust_with, BuildMeta, BuildOptions, CellStatus, Journal, JournalRecord, Replay,
    RobustConfig, DEFAULT_SM_TARGET, JOURNAL_SCHEMA,
};
use gpu_sim::{ChaosProfile, DeviceSpec};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// The journal and cell counters are process-global; serialize the tests
/// that assert on their deltas or bump them.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mini_models() -> Vec<cnn_ir::ModelGraph> {
    ["alexnet", "mobilenet"]
        .iter()
        .map(|n| cnn_ir::zoo::build(n).unwrap())
        .collect()
}

fn one_device() -> Vec<DeviceSpec> {
    vec![gpu_sim::training_devices().remove(0)]
}

fn meta_for(cfg: &RobustConfig) -> BuildMeta {
    BuildMeta {
        schema: JOURNAL_SCHEMA,
        sm_target: DEFAULT_SM_TARGET.to_string(),
        runs: cfg.runs,
        retry: cfg.retry.clone(),
        faults: cfg.faults.clone(),
        strict: cfg.strict,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cnnperf-journal-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decode one segment line (`{checksum:016x} {json}`) into its record.
fn decode_record(line: &str) -> JournalRecord {
    let (_checksum, json) = line.split_once(' ').expect("checksum-prefixed line");
    serde_json::from_str(json).expect("journal record")
}

fn build_journaled(
    dir: &std::path::Path,
    cfg: &RobustConfig,
    resume: bool,
) -> (cnnperf_core::Corpus, Replay) {
    let (journal, replay) = Journal::open(dir, &meta_for(cfg), resume).expect("journal open");
    let opts = BuildOptions {
        journal: Some(&journal),
        replay: Some(&replay),
        ..BuildOptions::none()
    };
    let (corpus, _report) =
        build_corpus_robust_with(&mini_models(), &one_device(), cfg, &opts).expect("build");
    (corpus, replay)
}

#[test]
fn resume_after_truncated_journal_matches_clean_build() {
    let _guard = lock();
    let cfg = RobustConfig::strict_single_run();
    let (clean, _) =
        build_corpus_robust_with(&mini_models(), &one_device(), &cfg, &BuildOptions::none())
            .expect("clean build");

    // full journaled build, then simulate a SIGKILL mid-build by
    // truncating the segment to a record prefix (every append is written,
    // flushed and fsynced, so a killed build leaves exactly such a prefix).
    // The cut is picked by record kind, not by line count: only a model's
    // own `Model` record is promised to precede its cells, and records of
    // different models interleave in the order their workers finish.
    // Cutting just after the first `Cell` keeps one model fully journaled
    // and leaves the other model's cell to recompute.
    let dir = fresh_dir("truncate");
    let _ = build_journaled(&dir, &cfg, false);
    let seg = dir.join("segment-00000.jsonl");
    let text = std::fs::read_to_string(&seg).expect("segment");
    let lines: Vec<&str> = text.lines().collect();
    let is_cell: Vec<bool> = lines
        .iter()
        .map(|l| matches!(decode_record(l), JournalRecord::Cell { .. }))
        .collect();
    let cut = 1 + is_cell
        .iter()
        .position(|&c| c)
        .expect("the kept prefix must hold a cell record");
    assert!(
        is_cell[cut..].contains(&true),
        "the cut must leave a cell record out"
    );
    let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&seg, prefix).expect("truncate");

    let before = obs::global().snapshot();
    let (resumed, replay) = build_journaled(&dir, &cfg, true);
    let after = obs::global().snapshot();
    assert!(replay.records > 0, "truncated journal must still replay");
    assert!(
        after.counter_delta(&before, "journal.replayed") > 0,
        "resume must replay journaled cells"
    );
    assert!(
        after.counter_delta(&before, "journal.computed") > 0,
        "resume must recompute the cells cut from the journal"
    );
    assert_eq!(
        resumed.canonical_json(),
        clean.canonical_json(),
        "resumed corpus must be byte-identical to an uninterrupted build"
    );
}

#[test]
fn fully_journaled_resume_recomputes_nothing() {
    let _guard = lock();
    let cfg = RobustConfig::strict_single_run();
    let dir = fresh_dir("full");
    let (first, _) = build_journaled(&dir, &cfg, false);

    let before = obs::global().snapshot();
    let (resumed, _) = build_journaled(&dir, &cfg, true);
    let after = obs::global().snapshot();
    assert_eq!(resumed.canonical_json(), first.canonical_json());
    assert_eq!(
        after.counter_delta(&before, "journal.computed"),
        0,
        "a fully journaled build must recompute no cell"
    );
    assert_eq!(
        after.counter_delta(&before, "analysis.cache.lookups"),
        0,
        "the full-replay fast path must skip even the cached analysis"
    );
    assert_eq!(
        after.counter_delta(&before, "journal.replayed") as usize,
        mini_models().len() * one_device().len(),
        "every cell must come from the journal"
    );
}

#[test]
fn corrupt_segment_tail_is_quarantined_and_resume_matches_clean() {
    let _guard = lock();
    let cfg = RobustConfig::strict_single_run();
    let (clean, _) =
        build_corpus_robust_with(&mini_models(), &one_device(), &cfg, &BuildOptions::none())
            .expect("clean build");

    let dir = fresh_dir("bitflip");
    let (_, _) = build_journaled(&dir, &cfg, false);
    let seg = dir.join("segment-00000.jsonl");
    let mut bytes = std::fs::read(&seg).expect("segment");
    // flip a bit inside the last record's JSON payload: the checksum must
    // catch it and quarantine the tail from that record on
    let flip_at = bytes.len() - 10;
    bytes[flip_at] ^= 0x01;
    std::fs::write(&seg, &bytes).expect("rewrite");

    let (resumed, replay) = build_journaled(&dir, &cfg, true);
    assert_eq!(replay.corrupt_segments, 1, "bad tail must be quarantined");
    assert!(
        dir.join("segment-00000.jsonl.corrupt").exists(),
        "quarantined segment must be preserved for forensics"
    );
    assert_eq!(
        resumed.canonical_json(),
        clean.canonical_json(),
        "corruption must cost recomputation, never correctness"
    );

    // and the repaired journal replays cleanly on the next resume
    let (_, replay2) = Journal::open(&dir, &meta_for(&cfg), true).expect("reopen");
    assert_eq!(replay2.corrupt_segments, 0, "repair must not leave damage");
}

#[test]
fn hanging_cell_is_cancelled_by_watchdog() {
    let _guard = lock();
    let cfg = RobustConfig {
        strict: false,
        ..RobustConfig::strict_single_run()
    };
    let opts = BuildOptions {
        cell_timeout: Some(Duration::from_millis(150)),
        chaos: ChaosProfile::parse("hang=1.0,seed=7").expect("chaos spec"),
        ..BuildOptions::none()
    };
    let models = vec![cnn_ir::zoo::build("alexnet").unwrap()];
    let t0 = std::time::Instant::now();
    let before = obs::global().snapshot();
    let (corpus, report) =
        build_corpus_robust_with(&models, &one_device(), &cfg, &opts).expect("build degrades");
    let after = obs::global().snapshot();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the silence limit must unwedge the build promptly"
    );
    assert_eq!(corpus.dataset.len(), 0, "a timed-out cell emits no row");
    assert_eq!(report.timed_out_count(), 1);
    let timed_out = report
        .cells
        .iter()
        .find(|c| matches!(c.status, CellStatus::TimedOut { .. }))
        .expect("timed-out cell in report");
    match timed_out.status {
        CellStatus::TimedOut { waited_ms } => assert!(
            waited_ms >= 150,
            "cancellation cannot precede the timeout (waited {waited_ms} ms)"
        ),
        _ => unreachable!(),
    }
    assert!(
        after.counter_delta(&before, "supervise.cancelled") >= 1,
        "the passed silence limit must have cancelled the cell"
    );
}

#[test]
fn cells_making_progress_outlive_a_shorter_silence_limit() {
    let _guard = lock();
    // the limit bounds silence, not run time: each check point of the
    // executor and the simulator moves the deadline
    let limit = Duration::from_millis(40);
    let opts = BuildOptions {
        cell_timeout: Some(limit),
        ..BuildOptions::none()
    };
    let models: Vec<_> = ["vgg16", "resnet152"]
        .iter()
        .map(|n| cnn_ir::zoo::build(n).unwrap())
        .collect();
    let cfg = RobustConfig::default();
    let (corpus, report) =
        build_corpus_robust_with(&models, &one_device(), &cfg, &opts).expect("build");
    assert_eq!(report.timed_out_count(), 0, "{}", report.summary());
    let longest = corpus
        .samples
        .iter()
        .map(|s| Duration::from_secs_f64(s.profiling_wall_s))
        .max()
        .expect("two cells");
    assert!(longest > limit, "no cell outran the {limit:?} limit");
}
