//! Offline integrity audit and repair for persisted state directories.
//!
//! `cnnperf scrub <DIR>` walks a state directory (corpus caches, cell
//! journals, predictor snapshot stores — any mix, nested arbitrarily)
//! and applies the same validation the owning stores run at open time,
//! without needing to construct those stores:
//!
//! | artifact                      | check                      | repair |
//! |-------------------------------|----------------------------|--------|
//! | `*.tmp.*`                     | always stale               | remove |
//! | `segment-NNNNN.jsonl`         | per-line FNV checksum      | quarantine `.corrupt`, rewrite valid prefix, quarantine later segments |
//! | `predictor-vNNNNNN.json`      | envelope schema/stamp/sum  | quarantine `.corrupt` |
//! | `*corpus*.json`               | cache envelope checksum    | quarantine `.corrupt` |
//! | `PINNED`                      | points at a valid snapshot | remove dangling pin |
//! | `*.corrupt` / `*.demoted`     | none (evidence)            | reported, kept |
//!
//! Each check and repair is the owning store's own (see
//! [`crate::durable`] and [`crate::journal::walk_segments`]), so a
//! scrubbed directory opens clean. A file that is not UTF-8 is corrupt;
//! in a segment, the first such line ends the valid prefix. With
//! `apply == false` the same audit runs read-only.
//!
//! The `scrub.*` counter invariant lives in
//! [`crate::invariants::INVARIANTS`].

use crate::durable;
use crate::journal::{repair_segment, Damage};
use crate::vfs::{real_fs, Vfs};
use std::path::{Path, PathBuf};

/// Findings recorded across all scrubs (informational ones included).
static SCRUB_FINDINGS: obs::LazyCounter = obs::LazyCounter::new("scrub.findings");
/// Findings actually repaired (never more than `scrub.findings`).
static SCRUB_REPAIRED: obs::LazyCounter = obs::LazyCounter::new("scrub.repaired");
/// Files examined across all scrubs.
static SCRUB_CHECKED: obs::LazyCounter = obs::LazyCounter::new("scrub.files_checked");

/// What kind of damage (or evidence) a finding describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A stale `*.tmp.*` file from a crashed temp+rename publish.
    OrphanTmp,
    /// A journal segment with a corrupt line.
    CorruptSegment,
    /// A live segment following a corrupt one (ordering untrustworthy).
    SuspectSegment,
    /// A snapshot failing envelope validation.
    CorruptSnapshot,
    /// A corpus cache file failing envelope validation.
    CorruptCache,
    /// A `PINNED` marker pointing at no valid snapshot (or unparseable).
    DanglingPin,
    /// Existing `.corrupt`/`.demoted` evidence from earlier incidents.
    Evidence,
}

impl FindingKind {
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::OrphanTmp => "orphan-tmp",
            FindingKind::CorruptSegment => "corrupt-segment",
            FindingKind::SuspectSegment => "suspect-segment",
            FindingKind::CorruptSnapshot => "corrupt-snapshot",
            FindingKind::CorruptCache => "corrupt-cache",
            FindingKind::DanglingPin => "dangling-pin",
            FindingKind::Evidence => "evidence",
        }
    }

    /// Evidence findings are purely informational: nothing to repair.
    fn needs_repair(self) -> bool {
        !matches!(self, FindingKind::Evidence)
    }
}

/// What the scrub did about a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repair {
    /// The file was removed (orphan tmps, dangling pins).
    Removed,
    /// The file was renamed aside to `.corrupt` (evidence preserved).
    Quarantined,
    /// Quarantined, then the valid prefix rewritten under the live name.
    PrefixRewritten,
    /// Informational finding; nothing to do.
    NotNeeded,
    /// Dry run: the repair was identified but not applied.
    Skipped,
    /// The repair itself failed (the directory still needs attention).
    Failed(String),
}

impl Repair {
    fn applied(&self) -> bool {
        matches!(
            self,
            Repair::Removed | Repair::Quarantined | Repair::PrefixRewritten
        )
    }
}

/// One problem (or piece of evidence) the audit surfaced.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub kind: FindingKind,
    /// Human-readable reason (checksum mismatch detail, etc.).
    pub detail: String,
    pub repair: Repair,
}

/// Scrub configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Apply repairs (false = audit-only dry run).
    pub apply: bool,
}

impl Default for ScrubOptions {
    fn default() -> Self {
        ScrubOptions { apply: true }
    }
}

/// Everything a scrub found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    pub findings: Vec<Finding>,
    /// Files examined (all kinds, clean ones included).
    pub files_checked: u64,
    /// Directories visited.
    pub dirs_visited: u64,
}

impl ScrubReport {
    /// Findings whose repair was applied.
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.repair.applied()).count()
    }

    /// Findings that needed a repair that did not happen (dry run or
    /// failure) — the directory is still damaged.
    pub fn unrepaired(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind.needs_repair() && !f.repair.applied())
            .count()
    }

    fn push(&mut self, path: &Path, kind: FindingKind, detail: String, repair: Repair) {
        SCRUB_FINDINGS.inc();
        if repair.applied() {
            SCRUB_REPAIRED.inc();
        }
        self.findings.push(Finding {
            path: path.to_path_buf(),
            kind,
            detail,
            repair,
        });
    }
}

/// Audit (and with `opts.apply`, repair) the state directory `dir`,
/// recursing into subdirectories.
pub fn scrub_dir(vfs: &dyn Vfs, dir: &Path, opts: ScrubOptions) -> std::io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    scrub_one_dir(vfs, dir, opts, &mut report)?;
    Ok(report)
}

/// [`scrub_dir`] on the real filesystem.
pub fn scrub_path(dir: &Path, opts: ScrubOptions) -> std::io::Result<ScrubReport> {
    scrub_dir(&*real_fs(), dir, opts)
}

fn scrub_one_dir(
    vfs: &dyn Vfs,
    dir: &Path,
    opts: ScrubOptions,
    report: &mut ScrubReport,
) -> std::io::Result<()> {
    report.dirs_visited += 1;
    let swept = durable::sweep_tmp(vfs, dir, opts.apply)?;
    for (path, removed) in &swept {
        SCRUB_CHECKED.inc();
        report.files_checked += 1;
        let repair = match removed {
            Ok(()) if opts.apply => Repair::Removed,
            Ok(()) => Repair::Skipped,
            Err(e) => Repair::Failed(e.to_string()),
        };
        let detail = "stale temp file from a crashed publish".into();
        report.push(path, FindingKind::OrphanTmp, detail, repair);
    }
    // valid snapshot versions in this dir, for pin consistency
    let mut valid_versions: Vec<u64> = Vec::new();
    for name in vfs.read_dir(dir)? {
        let path = dir.join(&name);
        if !vfs.exists(&path) || swept.iter().any(|(tmp, _)| *tmp == path) {
            continue;
        }
        if path != dir && vfs.read_dir(&path).is_ok() && vfs.read(&path).is_err() {
            // a subdirectory: recurse
            scrub_one_dir(vfs, &path, opts, report)?;
            continue;
        }
        SCRUB_CHECKED.inc();
        report.files_checked += 1;
        // journal segments and the pin marker are checked after this pass;
        // anything else (figures, benches, unrelated files) is not ours
        let invalid = if name.ends_with(".corrupt") || name.ends_with(".demoted") {
            let detail = "preserved evidence from an earlier incident".into();
            report.push(&path, FindingKind::Evidence, detail, Repair::NotNeeded);
            continue;
        } else if let Some(version) = crate::modelstore::parse_snapshot_version(&name) {
            let checked = crate::modelstore::read_snapshot(vfs, &path, version);
            if checked.is_ok() {
                valid_versions.push(version);
            }
            checked
                .err()
                .map(|reason| (FindingKind::CorruptSnapshot, reason))
        } else if name.ends_with(".json") && name.contains("corpus") {
            let checked = vfs
                .read(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|bytes| crate::cache::open_envelope(&bytes));
            checked
                .err()
                .map(|reason| (FindingKind::CorruptCache, reason))
        } else {
            None
        };
        if let Some((kind, reason)) = invalid {
            let repair = attempt(opts, || {
                durable::quarantine(vfs, &path).map(|_| Repair::Quarantined)
            });
            report.push(&path, kind, reason, repair);
        }
    }

    crate::journal::walk_segments(
        vfs,
        dir,
        |_| {},
        |path, damage| {
            let (kind, detail) = match &damage {
                Damage::Unreadable(e) => (FindingKind::CorruptSegment, format!("unreadable: {e}")),
                Damage::CorruptTail { valid, .. } => (
                    FindingKind::CorruptSegment,
                    format!("corrupt line after {valid} valid record(s)"),
                ),
                Damage::Suspect { after } => (
                    FindingKind::SuspectSegment,
                    format!("follows corrupt segment {after:05}"),
                ),
            };
            let repair = attempt(opts, || {
                Ok(match repair_segment(vfs, &path, &damage)? {
                    true => Repair::PrefixRewritten,
                    false => Repair::Quarantined,
                })
            });
            report.push(&path, kind, detail, repair);
            Ok(())
        },
    )?;

    // pin consistency: a pin must point at a valid snapshot in this dir
    let path = dir.join("PINNED");
    if vfs.exists(&path) {
        let target: Option<u64> = vfs
            .read_to_string(&path)
            .ok()
            .and_then(|t| t.trim().parse().ok());
        if !target.is_some_and(|v| valid_versions.contains(&v)) {
            let detail = match target {
                Some(v) => format!("pinned version {v} has no valid snapshot"),
                None => "unparseable pin marker".into(),
            };
            let repair = attempt(opts, || {
                vfs.remove_file(&path)?;
                durable::sync_parent_dir(vfs, &path)?;
                Ok(Repair::Removed)
            });
            report.push(&path, FindingKind::DanglingPin, detail, repair);
        }
    }
    Ok(())
}

/// Run a repair unless this is a dry run; a failed repair is recorded,
/// not fatal.
fn attempt(opts: ScrubOptions, repair: impl FnOnce() -> std::io::Result<Repair>) -> Repair {
    if !opts.apply {
        return Repair::Skipped;
    }
    repair().unwrap_or_else(|e| Repair::Failed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimFs;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn clean_dir_has_no_findings() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/notes.txt"), b"unrelated").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn orphan_tmp_is_removed() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/corpus.json.tmp.4242"), b"half").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::OrphanTmp);
        assert_eq!(report.repaired(), 1);
        assert_eq!(report.unrepaired(), 0);
        assert!(!fs.exists(&p("state/corpus.json.tmp.4242")));
    }

    #[test]
    fn dry_run_reports_without_touching() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/x.tmp.1"), b"half").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions { apply: false }).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.repaired(), 0);
        assert_eq!(report.unrepaired(), 1);
        assert!(fs.exists(&p("state/x.tmp.1")), "dry run must not modify");
    }

    #[test]
    fn dangling_pin_is_removed_valid_pin_kept() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("models")).unwrap();
        fs.write(&p("models/PINNED"), b"7\n").unwrap();
        let report = scrub_dir(&fs, &p("models"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::DanglingPin);
        assert!(!fs.exists(&p("models/PINNED")));
    }

    #[test]
    fn evidence_is_reported_not_repaired() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/predictor-v000001.json.corrupt"), b"old evidence")
            .unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::Evidence);
        assert_eq!(report.repaired(), 0);
        assert_eq!(report.unrepaired(), 0, "evidence is not damage");
        assert!(fs.exists(&p("state/predictor-v000001.json.corrupt")));
    }

    #[test]
    fn corrupt_snapshot_is_quarantined() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("models")).unwrap();
        fs.write(&p("models/predictor-v000003.json"), b"{torn garbage")
            .unwrap();
        let report = scrub_dir(&fs, &p("models"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::CorruptSnapshot);
        assert_eq!(report.findings[0].repair, Repair::Quarantined);
        assert!(fs.exists(&p("models/predictor-v000003.json.corrupt")));
        assert!(!fs.exists(&p("models/predictor-v000003.json")));
    }

    #[test]
    fn non_utf8_segment_keeps_its_valid_prefix() {
        use crate::journal::{BuildMeta, CellOutcome, Journal, JOURNAL_SCHEMA};
        let fs = SimFs::new(1);
        let meta = BuildMeta {
            schema: JOURNAL_SCHEMA,
            sm_target: "sm_61".into(),
            runs: 3,
            retry: gpu_sim::RetryPolicy::no_backoff(),
            faults: gpu_sim::FaultProfile::none(),
            strict: false,
        };
        let (j, _) = Journal::open_on(fs.handle(), &p("journal"), &meta, false).unwrap();
        for (hash, device) in [(1, "d1"), (2, "d2")] {
            let outcome = CellOutcome::Fault {
                timeout: false,
                waited_ms: 0,
                error: "x".into(),
            };
            j.append_cell("m", hash, device, &outcome).unwrap();
        }
        drop(j);
        // a flipped high bit in the last record makes that line invalid
        // UTF-8: the earlier lines are still a valid prefix
        let seg = p("journal/segment-00000.jsonl");
        let mut bytes = fs.read(&seg).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] |= 0x80;
        fs.write(&seg, &bytes).unwrap();
        let report = scrub_dir(&fs, &p("journal"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].kind, FindingKind::CorruptSegment);
        assert_eq!(report.findings[0].repair, Repair::PrefixRewritten);
        let (_j, replay) = Journal::open_on(fs.handle(), &p("journal"), &meta, true).unwrap();
        assert_eq!(replay.corrupt_segments, 0);
        assert!(replay.cell(1, "d1").is_some() && replay.cell(2, "d2").is_none());
    }

    #[test]
    fn recurses_into_subdirectories() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state/journal")).unwrap();
        fs.create_dir_all(&p("state/models")).unwrap();
        fs.write(&p("state/journal/a.tmp.1"), b"x").unwrap();
        fs.write(&p("state/models/b.tmp.2"), b"y").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.repaired(), 2);
        assert!(report.dirs_visited >= 3);
    }
}
