//! Crash-safe cell journal for corpus builds.
//!
//! The corpus build is the longest-running stage of the pipeline, and
//! before this module a crash or OOM-kill discarded every completed
//! (model, device) cell. The journal is an append-only write-ahead log of
//! per-cell results: each rayon worker's finished cell is serialized as a
//! single line — `{fnv1a checksum} {json record}` — and fsynced before the
//! build moves on, so a killed process (or a power loss) loses at most
//! the cell that was in flight.
//!
//! Defenses mirror [`crate::cache`]:
//!
//! - **Segmented**: records rotate into `segment-NNNNN.jsonl` files every
//!   [`SEGMENT_RECORDS`] appends, bounding how much data one torn tail can
//!   take down.
//! - **Checksummed**: every line carries an FNV-1a hash of its JSON
//!   payload; replay verifies it before trusting the record.
//! - **Quarantined**: the first bad line stops replay for its segment —
//!   the segment is renamed to `<name>.corrupt` (evidence preserved), its
//!   valid prefix is rewritten in place via temp file + fsync + atomic
//!   rename + parent-dir fsync, and every later segment is quarantined
//!   wholesale (ordering after a tear is no longer trustworthy).
//! - **Config-guarded**: the first record of a journal is the
//!   [`BuildMeta`] (sm target, runs, retry policy, fault profile, strict
//!   flag); resuming under a different configuration is refused rather
//!   than silently mixing measurement protocols.
//! - **Durable**: every append is fsynced and every segment creation is
//!   followed by a parent-directory fsync, so a journal that reported a
//!   record as written still has it after power loss. All I/O goes
//!   through [`crate::vfs::Vfs`], so the same code runs against the
//!   crash-enumerating [`crate::vfs::SimFs`].
//! - **ENOSPC-degrading**: a full disk must not kill a long build or the
//!   serve loop. The first `StorageFull` flips the journal into degraded
//!   mode — later appends become accepted no-ops, the condition is
//!   logged once and counted (`journal.degraded`, `vfs.errors.enospc`),
//!   and the build keeps its in-memory results.
//!
//! Replayed cells are skipped by `build_corpus_robust` (zero recompute —
//! not even the model analysis reruns if every cell of a model was
//! journaled), and the resulting corpus is byte-identical to an
//! uninterrupted build under [`crate::pipeline::Corpus::canonical_json`].

use crate::cache::fnv1a;
use crate::features::CnnProfile;
use crate::vfs::{durable_replace, real_fs, sync_parent_dir, Vfs, VfsFile};
use gpu_sim::{FaultProfile, RetryPolicy, RobustProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Records appended (meta + model + cell) across all journals.
static JOURNAL_APPENDS: obs::LazyCounter = obs::LazyCounter::new("journal.appends");
/// Cells served from replay instead of being recomputed.
static JOURNAL_REPLAYED: obs::LazyCounter = obs::LazyCounter::new("journal.replayed");
/// Cells computed (and journaled) because replay had no record.
static JOURNAL_COMPUTED: obs::LazyCounter = obs::LazyCounter::new("journal.computed");
/// Segments quarantined to `.corrupt` during replay.
static JOURNAL_CORRUPT_SEGMENTS: obs::LazyCounter =
    obs::LazyCounter::new("journal.corrupt_segments");
/// Stale `.tmp.<pid>` files swept on open (crashed builds leak them).
static JOURNAL_TMP_SWEPT: obs::LazyCounter = obs::LazyCounter::new("journal.tmp.swept");
/// Journals that entered ENOSPC-degraded (append-drop) mode.
static JOURNAL_DEGRADED: obs::LazyCounter = obs::LazyCounter::new("journal.degraded");

/// Bump when any journaled record changes shape; a resumed build refuses
/// journals written under a different schema.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Records per segment file before rotating to the next one.
pub const SEGMENT_RECORDS: u32 = 128;

/// Mark a replayed cell (called by the pipeline when a journal record is
/// used instead of recomputation).
pub fn note_replayed() {
    JOURNAL_REPLAYED.inc();
}

/// Mark a computed cell (called by the pipeline when a cell had to run).
pub fn note_computed() {
    JOURNAL_COMPUTED.inc();
}

/// Build configuration fingerprint; resuming checks it for equality so a
/// journal written under one measurement protocol can never leak cells
/// into a build with another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildMeta {
    pub schema: u32,
    pub sm_target: String,
    pub runs: u32,
    pub retry: RetryPolicy,
    pub faults: FaultProfile,
    pub strict: bool,
}

/// Result of one journaled cell: either the full robust profile or the
/// fault that killed it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CellOutcome {
    Profile(RobustProfile),
    Fault {
        /// True when the cell was cancelled by the supervision watchdog.
        timeout: bool,
        /// Milliseconds of silence before cancellation (0 if not a timeout).
        waited_ms: u64,
        error: String,
    },
}

/// One journaled line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    Meta(BuildMeta),
    /// Per-model analysis result, written once per model so a fully
    /// journaled model skips even the (cached) analysis on resume.
    Model {
        model: String,
        model_hash: u64,
        profile: CnnProfile,
    },
    Cell {
        model: String,
        model_hash: u64,
        device: String,
        outcome: CellOutcome,
    },
}

/// Journal failures surfaced to the CLI.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// The journal was written under a different build configuration (or
    /// schema); resuming would mix measurement protocols.
    ConfigMismatch {
        detail: String,
    },
    Serialize(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::ConfigMismatch { detail } => {
                write!(f, "journal configuration mismatch: {detail}")
            }
            JournalError::Serialize(e) => write!(f, "journal serialization error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Everything recovered from an existing journal.
#[derive(Debug, Default)]
pub struct Replay {
    pub meta: Option<BuildMeta>,
    /// Per-model analysis results, keyed by model content hash.
    pub profiles: HashMap<u64, CnnProfile>,
    /// Per-cell outcomes, keyed by (model content hash, device name).
    pub cells: HashMap<(u64, String), CellOutcome>,
    /// Valid records replayed (including meta/model records).
    pub records: u64,
    /// Segments quarantined to `.corrupt` during this replay.
    pub corrupt_segments: u64,
    /// Stale `.tmp.<pid>` files swept on open.
    pub tmp_swept: u64,
}

impl Replay {
    /// Outcome for one cell, if journaled.
    pub fn cell(&self, model_hash: u64, device: &str) -> Option<&CellOutcome> {
        self.cells.get(&(model_hash, device.to_string()))
    }
}

pub(crate) fn segment_name(index: u32) -> String {
    format!("segment-{index:05}.jsonl")
}

/// Parse `segment-NNNNN.jsonl` back to its index.
pub(crate) fn segment_index(name: &str) -> Option<u32> {
    name.strip_prefix("segment-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

/// Sorted (index, path) list of live segments in `dir`.
fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u32, PathBuf)>> {
    let mut segs = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(idx) = segment_index(&name) {
            segs.push((idx, dir.join(name)));
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    Ok(segs)
}

fn quarantine(vfs: &dyn Vfs, path: &Path) -> std::io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    vfs.rename(path, &path.with_file_name(name))?;
    sync_parent_dir(vfs, path)
}

/// Decode one journal line (`{checksum:016x} {json}`); `None` on any
/// corruption (torn write, flipped bit, bad JSON).
fn decode_line(line: &str) -> Option<JournalRecord> {
    let (hash_s, json) = line.split_once(' ')?;
    let stored = u64::from_str_radix(hash_s, 16).ok()?;
    if fnv1a(json.as_bytes()) != stored {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Split raw segment text into its valid prefix (as re-encodable lines)
/// and whether a corrupt tail was found. Shared with `cnnperf scrub`.
pub(crate) fn segment_valid_prefix(text: &str) -> (Vec<&str>, bool) {
    let mut valid = Vec::new();
    for line in text.lines() {
        if decode_line(line).is_some() {
            valid.push(line);
        } else {
            return (valid, true);
        }
    }
    (valid, false)
}

fn encode_line(record: &JournalRecord) -> Result<String, JournalError> {
    let json =
        serde_json::to_string(record).map_err(|e| JournalError::Serialize(format!("{e:?}")))?;
    debug_assert!(!json.contains('\n'), "journal records must be single-line");
    Ok(format!("{:016x} {json}\n", fnv1a(json.as_bytes())))
}

struct Writer {
    file: Box<dyn VfsFile>,
    seg_index: u32,
    records_in_segment: u32,
}

/// Append-only, checksummed, segmented WAL of corpus-build cells.
pub struct Journal {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Writer>,
    /// Set after the first ENOSPC: appends become accepted no-ops so a
    /// full disk degrades the build instead of killing it.
    degraded: AtomicBool,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Open (and, with `resume`, replay) the journal in `dir` on the real
    /// filesystem.
    pub fn open(
        dir: &Path,
        meta: &BuildMeta,
        resume: bool,
    ) -> Result<(Journal, Replay), JournalError> {
        Journal::open_on(real_fs(), dir, meta, resume)
    }

    /// Open (and, with `resume`, replay) the journal in `dir` on an
    /// explicit [`Vfs`].
    ///
    /// Fresh opens (`resume == false`) wipe any live segments — the caller
    /// explicitly asked to start over — while `.corrupt` quarantines from
    /// earlier incidents are left for debugging. Resume opens replay every
    /// live segment in order, quarantining from the first corrupt line
    /// onward, and refuse to proceed if the journaled [`BuildMeta`]
    /// differs from `meta`. Either way stale `.tmp.<pid>` files from
    /// crashed prefix-rewrites are swept, and the writer starts a *new*
    /// segment (one past the highest survivor); if replay recovered no
    /// meta, `meta` is appended as the first record.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        meta: &BuildMeta,
        resume: bool,
    ) -> Result<(Journal, Replay), JournalError> {
        vfs.create_dir_all(dir)?;
        let mut replay = Replay::default();
        let mut next_index = 0u32;

        // sweep tmp litter from crashed prefix-rewrites before replaying,
        // exactly like modelstore::open does for snapshot tmp files
        for name in vfs.read_dir(dir)? {
            if name.contains(".tmp.") {
                let path = dir.join(&name);
                if vfs.remove_file(&path).is_ok() {
                    JOURNAL_TMP_SWEPT.inc();
                    replay.tmp_swept += 1;
                    eprintln!(
                        "note: swept stale journal temp file {} (crashed rewrite)",
                        path.display()
                    );
                }
            }
        }
        if replay.tmp_swept > 0 {
            let _ = vfs.sync_dir(dir);
        }

        if resume {
            let swept = replay.tmp_swept;
            replay = replay_segments(&*vfs, dir)?;
            replay.tmp_swept = swept;
            if let Some(found) = &replay.meta {
                if found != meta {
                    return Err(JournalError::ConfigMismatch {
                        detail: format!("journaled {found:?} vs requested {meta:?}"),
                    });
                }
            }
            next_index = list_segments(&*vfs, dir)?
                .last()
                .map(|(i, _)| i + 1)
                .unwrap_or(0);
        } else {
            for (_, path) in list_segments(&*vfs, dir)? {
                vfs.remove_file(&path)?;
            }
            // make the wipe durable: a crash must not resurrect old cells
            vfs.sync_dir(dir)?;
        }

        let path = dir.join(segment_name(next_index));
        let file = vfs.open_append(&path)?;
        // the new segment's directory entry must be durable before any
        // record in it claims to be
        vfs.sync_dir(dir)?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            vfs,
            inner: Mutex::new(Writer {
                file,
                seg_index: next_index,
                records_in_segment: 0,
            }),
            degraded: AtomicBool::new(false),
        };
        if replay.meta.is_none() {
            journal.append(&JournalRecord::Meta(meta.clone()))?;
        }
        Ok((journal, replay))
    }

    /// Directory this journal writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True once an ENOSPC has flipped this journal into append-drop
    /// mode (surfaced in `/metrics` via `journal.degraded`).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Journal one model's analysis result.
    pub fn append_model(
        &self,
        model: &str,
        model_hash: u64,
        profile: &CnnProfile,
    ) -> Result<(), JournalError> {
        self.append(&JournalRecord::Model {
            model: model.to_string(),
            model_hash,
            profile: profile.clone(),
        })
    }

    /// Journal one completed cell.
    pub fn append_cell(
        &self,
        model: &str,
        model_hash: u64,
        device: &str,
        outcome: &CellOutcome,
    ) -> Result<(), JournalError> {
        self.append(&JournalRecord::Cell {
            model: model.to_string(),
            model_hash,
            device: device.to_string(),
            outcome: outcome.clone(),
        })
    }

    fn append(&self, record: &JournalRecord) -> Result<(), JournalError> {
        if self.degraded.load(Ordering::Relaxed) {
            // disk is full: drop the record, keep the build/serve alive
            return Ok(());
        }
        let line = encode_line(record)?;
        let mut w = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let result = (|| -> std::io::Result<()> {
            if w.records_in_segment >= SEGMENT_RECORDS {
                let next = w.seg_index + 1;
                let file = self.vfs.open_append(&self.dir.join(segment_name(next)))?;
                // segment entry durable before its records
                self.vfs.sync_dir(&self.dir)?;
                w.file = file;
                w.seg_index = next;
                w.records_in_segment = 0;
            }
            // write + fsync per record: after this returns, the record
            // survives power loss, not just a SIGKILL of this process
            w.file.write_all(line.as_bytes())?;
            w.file.flush()?;
            w.file.sync()
        })();
        match result {
            Ok(()) => {
                w.records_in_segment += 1;
                JOURNAL_APPENDS.inc();
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::StorageFull => {
                if !self.degraded.swap(true, Ordering::Relaxed) {
                    JOURNAL_DEGRADED.inc();
                    eprintln!(
                        "warning: journal {} hit ENOSPC; degrading to in-memory only \
                         (later appends are dropped, build continues)",
                        self.dir.display()
                    );
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// Replay all live segments in `dir`, quarantining from the first corrupt
/// line onward.
fn replay_segments(vfs: &dyn Vfs, dir: &Path) -> Result<Replay, JournalError> {
    let mut replay = Replay::default();
    let segments = list_segments(vfs, dir)?;
    let mut poisoned_from: Option<usize> = None;

    for (pos, (_, path)) in segments.iter().enumerate() {
        let text = vfs.read_to_string(path)?;
        let (valid_lines, bad) = segment_valid_prefix(&text);
        for line in &valid_lines {
            if let Some(record) = decode_line(line) {
                apply_record(&mut replay, record);
            }
        }
        if bad {
            let mut valid_prefix = String::new();
            for line in &valid_lines {
                valid_prefix.push_str(line);
                valid_prefix.push('\n');
            }
            eprintln!(
                "warning: journal segment {} has a corrupt tail; quarantining as .corrupt",
                path.display()
            );
            quarantine(vfs, path)?;
            JOURNAL_CORRUPT_SEGMENTS.inc();
            replay.corrupt_segments += 1;
            if !valid_prefix.is_empty() {
                // keep the valid prefix under the original name, written
                // durably (temp + fsync + rename + dir fsync)
                let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
                tmp_name.push(format!(".tmp.{}", std::process::id()));
                let tmp = path.with_file_name(tmp_name);
                durable_replace(vfs, &tmp, path, valid_prefix.as_bytes())?;
            }
            poisoned_from = Some(pos + 1);
            break;
        }
    }

    // segments after a corrupt one are untrustworthy wholesale: the writer
    // only opens segment N+1 after N is complete, so a torn segment N with
    // a live N+1 means files were tampered with or interleaved
    if let Some(from) = poisoned_from {
        for (_, path) in &segments[from..] {
            quarantine(vfs, path)?;
            JOURNAL_CORRUPT_SEGMENTS.inc();
            replay.corrupt_segments += 1;
        }
    }
    Ok(replay)
}

fn apply_record(replay: &mut Replay, record: JournalRecord) {
    replay.records += 1;
    match record {
        JournalRecord::Meta(m) => {
            // first meta wins; later ones (same config, re-appended after
            // an empty resume) are redundant by construction
            if replay.meta.is_none() {
                replay.meta = Some(m);
            }
        }
        JournalRecord::Model {
            model_hash,
            profile,
            ..
        } => {
            replay.profiles.insert(model_hash, profile);
        }
        JournalRecord::Cell {
            model_hash,
            device,
            outcome,
            ..
        } => {
            replay.cells.insert((model_hash, device), outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultRule, OpKind, SimFs};
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cnnperf-journal-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
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

    fn fault(err: &str) -> CellOutcome {
        CellOutcome::Fault {
            timeout: false,
            waited_ms: 0,
            error: err.to_string(),
        }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let (j, replay) = Journal::open(&dir, &meta(), false).unwrap();
        assert_eq!(replay.records, 0);
        j.append_cell("alexnet", 7, "GTX 1080 Ti", &fault("boom"))
            .unwrap();
        j.append_cell("alexnet", 7, "V100S", &fault("bang"))
            .unwrap();
        drop(j);

        let (_j2, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.meta, Some(meta()));
        assert_eq!(replay.cells.len(), 2);
        assert!(matches!(
            replay.cell(7, "V100S"),
            Some(CellOutcome::Fault { error, .. }) if error == "bang"
        ));
        assert_eq!(replay.corrupt_segments, 0);
    }

    #[test]
    fn fresh_open_wipes_live_segments() {
        let dir = tmp_dir("wipe");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("x")).unwrap();
        drop(j);
        let (_j, replay) = Journal::open(&dir, &meta(), false).unwrap();
        assert_eq!(replay.records, 0, "fresh open must not replay");
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert!(replay.cells.is_empty(), "wiped cells must not resurface");
    }

    #[test]
    fn config_mismatch_is_refused() {
        let dir = tmp_dir("mismatch");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        drop(j);
        let other = BuildMeta { runs: 99, ..meta() };
        match Journal::open(&dir, &other, true) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!(
                "expected config mismatch, got {other:?}",
                other = other.err()
            ),
        }
    }

    #[test]
    fn segments_rotate() {
        let dir = tmp_dir("rotate");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        for i in 0..(SEGMENT_RECORDS + 5) {
            j.append_cell("m", i as u64, "d", &fault("x")).unwrap();
        }
        drop(j);
        let segs = list_segments(&*real_fs(), &dir).unwrap();
        assert!(segs.len() >= 2, "expected rotation, got {segs:?}");
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.cells.len(), (SEGMENT_RECORDS + 5) as usize);
    }

    #[test]
    fn torn_tail_is_quarantined_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        j.append_cell("m", 2, "d2", &fault("b")).unwrap();
        drop(j);
        // tear the last record in half, as a SIGKILL mid-write would
        let path = dir.join(segment_name(0));
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().rfind('\n').unwrap() + 20;
        fs::write(&path, &text[..cut]).unwrap();

        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 1);
        assert!(replay.cell(1, "d1").is_some(), "valid prefix must survive");
        assert!(
            replay.cell(2, "d2").is_none(),
            "torn record must be dropped"
        );
        assert!(
            dir.join(format!("{}.corrupt", segment_name(0))).exists(),
            "evidence must be preserved"
        );
        // and the repaired segment replays cleanly a second time
        let (_j, replay2) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay2.corrupt_segments, 0);
        assert!(replay2.cell(1, "d1").is_some());
    }

    #[test]
    fn bitflip_is_detected_by_checksum() {
        let dir = tmp_dir("bitflip");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("a")).unwrap();
        drop(j);
        let path = dir.join(segment_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40; // flip a bit inside the last record's payload
        fs::write(&path, bytes).unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 1);
        assert!(replay.cell(1, "d").is_none());
    }

    #[test]
    fn later_segments_after_corruption_are_quarantined_wholesale() {
        let dir = tmp_dir("wholesale");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        for i in 0..(SEGMENT_RECORDS + 2) {
            j.append_cell("m", i as u64, "d", &fault("x")).unwrap();
        }
        drop(j);
        // corrupt the FIRST segment: everything after it must go too
        let path = dir.join(segment_name(0));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert!(replay.corrupt_segments >= 2, "{}", replay.corrupt_segments);
        assert!(
            replay.cells.len() < (SEGMENT_RECORDS + 2) as usize,
            "post-corruption segments must not be replayed"
        );
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = tmp_dir("tmpsweep");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("a")).unwrap();
        drop(j);
        // litter the dir the way a crash mid-prefix-rewrite would
        fs::write(dir.join("segment-00000.jsonl.tmp.12345"), "half a rewrite").unwrap();
        fs::write(dir.join("other.tmp.999"), "junk").unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.tmp_swept, 2);
        assert!(!dir.join("segment-00000.jsonl.tmp.12345").exists());
        assert!(!dir.join("other.tmp.999").exists());
        // the real segment replayed untouched
        assert!(replay.cell(1, "d").is_some());
        // a second open sweeps nothing
        let (_j, replay2) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay2.tmp_swept, 0);
    }

    #[test]
    fn enospc_degrades_instead_of_failing() {
        let fs = SimFs::new(42);
        let dir = PathBuf::from("journal");
        let (j, _) = Journal::open_on(fs.handle(), &dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        assert!(!j.is_degraded());
        // every append op now hits ENOSPC
        fs.inject(FaultRule::new(FaultKind::Enospc).on_op(OpKind::Append));
        j.append_cell("m", 2, "d2", &fault("b"))
            .expect("ENOSPC must degrade, not fail");
        assert!(j.is_degraded());
        // later appends are accepted no-ops
        j.append_cell("m", 3, "d3", &fault("c")).unwrap();
        drop(j);
        // the pre-ENOSPC record survived; the dropped ones did not
        let (_j, replay) = Journal::open_on(fs.handle(), &dir, &meta(), true).unwrap();
        assert!(replay.cell(1, "d1").is_some());
        assert!(replay.cell(2, "d2").is_none());
        assert!(replay.cell(3, "d3").is_none());
    }

    #[test]
    fn journal_is_durable_across_strict_power_loss() {
        // crash image after every append must replay exactly the appended
        // records — the fsync-per-record contract
        let fs = SimFs::new(7);
        let dir = PathBuf::from("j");
        let (j, _) = Journal::open_on(fs.handle(), &dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        j.append_cell("m", 2, "d2", &fault("b")).unwrap();
        let image = fs.crash_image(crate::vfs::CrashStyle::Strict, 1);
        let (_j, replay) = Journal::open_on(image.handle(), &dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 0, "no torn tail after power loss");
        assert!(replay.cell(1, "d1").is_some());
        assert!(replay.cell(2, "d2").is_some());
    }
}
