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
//! Files are kept through [`crate::durable`]:
//!
//! - **Segmented**: records rotate into `segment-NNNNN.jsonl` files every
//!   [`SEGMENT_RECORDS`] appends, bounding how much data one torn tail can
//!   take down.
//! - **Checksummed**: every line carries an FNV-1a hash of its JSON
//!   payload; replay verifies it before trusting the record.
//! - **Quarantined**: the first bad line (torn, flipped, or not UTF-8)
//!   ends a segment's valid prefix; see [`walk_segments`], the one walk
//!   that replay and `cnnperf scrub` share.
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
use crate::durable;
use crate::features::CnnProfile;
use crate::vfs::{real_fs, Vfs, VfsFile};
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

/// Bump when any journaled record changes shape or meaning; a resumed
/// build refuses journals written under a different schema. Schema 3 keys
/// cells by the structural [`crate::model_content_hash`], which replaced a
/// hash of the graph's JSON.
pub const JOURNAL_SCHEMA: u32 = 3;

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
        /// True when the cell was cancelled because its silence limit
        /// passed.
        timeout: bool,
        /// Milliseconds from the cell's start to its cancellation (0 if
        /// not a timeout).
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

/// Decode one journal line (`{checksum:016x} {json}`); `None` on any
/// corruption (torn write, flipped bit, bad JSON, not UTF-8).
fn decode_line(line: &[u8]) -> Option<JournalRecord> {
    let (hash_s, json) = std::str::from_utf8(line).ok()?.split_once(' ')?;
    let stored = u64::from_str_radix(hash_s, 16).ok()?;
    if fnv1a(json.as_bytes()) != stored {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Why [`walk_segments`] stopped trusting a segment.
pub(crate) enum Damage {
    /// The segment could not be read.
    Unreadable(std::io::Error),
    /// A line failed to decode after `valid` good records, the bytes of
    /// which are `prefix`.
    CorruptTail { valid: usize, prefix: Vec<u8> },
    /// A live segment after the damaged segment `after` (the writer opens
    /// segment N+1 only once N is complete).
    Suspect { after: u32 },
}

/// The journal's repair of a damaged segment: quarantine it, then publish
/// its valid prefix (if any) under the live name. `Ok(true)` when a
/// prefix was published.
pub(crate) fn repair_segment(vfs: &dyn Vfs, path: &Path, damage: &Damage) -> std::io::Result<bool> {
    durable::quarantine(vfs, path)?;
    match damage {
        Damage::CorruptTail { prefix, .. } if !prefix.is_empty() => {
            durable::publish(vfs, path, prefix).map(|()| true)
        }
        _ => Ok(false),
    }
}

/// The one segment walk, shared by replay and `cnnperf scrub`: the live
/// segments of `dir` in index order, each valid record to `on_record`.
/// The first damaged segment and every later one go to `on_damage`, which
/// decides whether to [`repair_segment`] it; an `Err` from it stops the
/// walk. Lines split like [`str::lines`], but on bytes, so a line that is
/// not UTF-8 ends the valid prefix like a torn one.
pub(crate) fn walk_segments(
    vfs: &dyn Vfs,
    dir: &Path,
    mut on_record: impl FnMut(JournalRecord),
    mut on_damage: impl FnMut(PathBuf, Damage) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut first_damaged = None;
    for (index, path) in list_segments(vfs, dir)? {
        let damage = match first_damaged {
            Some(after) => Damage::Suspect { after },
            None => match vfs.read(&path) {
                Err(e) => Damage::Unreadable(e),
                Ok(mut prefix) => {
                    let (mut end, mut valid) = (0, 0);
                    for raw in prefix.split_inclusive(|b| *b == b'\n') {
                        let line = raw
                            .strip_suffix(b"\n")
                            .map_or(raw, |l| l.strip_suffix(b"\r").unwrap_or(l));
                        let Some(record) = decode_line(line) else {
                            break;
                        };
                        on_record(record);
                        (end, valid) = (end + raw.len(), valid + 1);
                    }
                    if end == prefix.len() {
                        continue;
                    }
                    prefix.truncate(end);
                    Damage::CorruptTail { valid, prefix }
                }
            },
        };
        first_damaged.get_or_insert(index);
        on_damage(path, damage)?;
    }
    Ok(())
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
        let (mut next_index, mut corrupt_segments) = (0u32, 0);

        // sweep temp files from crashed prefix rewrites before replaying
        for (path, removed) in durable::sweep_tmp(&*vfs, dir, true)? {
            if removed.is_ok() {
                JOURNAL_TMP_SWEPT.inc();
                replay.tmp_swept += 1;
                eprintln!(
                    "note: swept stale journal temp file {} (crashed rewrite)",
                    path.display()
                );
            }
        }

        if resume {
            // replay repairs from the first damaged segment onward; an I/O
            // error aborts the open
            walk_segments(
                &*vfs,
                dir,
                |record| apply_record(&mut replay, record),
                |path, damage| {
                    match damage {
                        Damage::Unreadable(e) => return Err(e),
                        Damage::CorruptTail { .. } => eprintln!(
                            "warning: journal segment {} has a corrupt tail; quarantining as .corrupt",
                            path.display()
                        ),
                        Damage::Suspect { .. } => {}
                    }
                    repair_segment(&*vfs, &path, &damage)?;
                    JOURNAL_CORRUPT_SEGMENTS.inc();
                    corrupt_segments += 1;
                    Ok(())
                },
            )?;
            replay.corrupt_segments = corrupt_segments;
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
    fn journal_of_the_previous_schema_is_refused() {
        // its cells are keyed by another model hash, so resuming from it
        // must not mix them with this schema's cells
        let dir = tmp_dir("old-schema");
        let old = BuildMeta {
            schema: JOURNAL_SCHEMA - 1,
            ..meta()
        };
        let (j, _) = Journal::open(&dir, &old, false).unwrap();
        j.append_cell("m", 1, "d", &fault("x")).unwrap();
        drop(j);
        match Journal::open(&dir, &meta(), true) {
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
        // a low bit breaks the checksum; a high bit also breaks UTF-8, and
        // must end the valid prefix the same way, not fail the open
        for (tag, mask) in [("bitflip-low", 0x40u8), ("bitflip-high", 0x80)] {
            let dir = tmp_dir(tag);
            let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
            j.append_cell("m", 1, "d1", &fault("a")).unwrap();
            j.append_cell("m", 2, "d2", &fault("b")).unwrap();
            drop(j);
            let path = dir.join(segment_name(0));
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() - 10;
            bytes[mid] ^= mask; // flip a bit inside the last record's payload
            fs::write(&path, bytes).unwrap();
            let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
            assert_eq!(replay.corrupt_segments, 1, "{tag}");
            assert!(replay.cell(1, "d1").is_some(), "{tag}: prefix must survive");
            assert!(replay.cell(2, "d2").is_none(), "{tag}");
        }
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
