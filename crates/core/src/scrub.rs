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
//! Repairs are exactly the ones the stores would perform themselves, so
//! a scrubbed directory opens clean; every destructive step preserves
//! evidence (quarantine renames rather than deletes) and is published
//! durably through [`crate::vfs`]. With `apply == false` the same audit
//! runs read-only.
//!
//! The `scrub.*` counter invariant lives in
//! [`crate::invariants::INVARIANTS`].

use crate::vfs::{durable_replace, real_fs, sync_parent_dir, Vfs};
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
    let names = vfs.read_dir(dir)?;
    // valid snapshot versions in this dir, for pin consistency
    let mut valid_versions: Vec<u64> = Vec::new();
    let mut pin_name: Option<String> = None;
    // journal segments sort by index so "later than the first corrupt
    // one" is well-defined
    let mut poisoned_from: Option<u32> = None;
    let mut segments: Vec<(u32, String)> = Vec::new();

    for name in &names {
        let path = dir.join(name);
        if !vfs.exists(&path) {
            continue;
        }
        if path != dir && vfs.read_dir(&path).is_ok() && vfs.read(&path).is_err() {
            // a subdirectory: recurse
            scrub_one_dir(vfs, &path, opts, report)?;
            continue;
        }
        SCRUB_CHECKED.inc();
        report.files_checked += 1;

        if name.contains(".tmp.") {
            let repair = if opts.apply {
                match vfs.remove_file(&path) {
                    Ok(()) => {
                        let _ = sync_parent_dir(vfs, &path);
                        Repair::Removed
                    }
                    Err(e) => Repair::Failed(e.to_string()),
                }
            } else {
                Repair::Skipped
            };
            report.push(
                &path,
                FindingKind::OrphanTmp,
                "stale temp file from a crashed publish".into(),
                repair,
            );
            continue;
        }
        if name.ends_with(".corrupt") || name.ends_with(".demoted") {
            report.push(
                &path,
                FindingKind::Evidence,
                "preserved evidence from an earlier incident".into(),
                Repair::NotNeeded,
            );
            continue;
        }
        if let Some(idx) = crate::journal::segment_index(name) {
            segments.push((idx, name.clone()));
            continue; // handled after the listing pass, in index order
        }
        if name == "PINNED" {
            pin_name = Some(name.clone());
            continue; // checked after snapshots are validated
        }
        if let Some(version) = crate::modelstore::parse_snapshot_version(name) {
            match vfs
                .read_to_string(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|t| crate::modelstore::validate_snapshot_text(&t, version).map(|_| ()))
            {
                Ok(()) => valid_versions.push(version),
                Err(reason) => {
                    let repair = quarantine_repair(vfs, &path, opts);
                    report.push(&path, FindingKind::CorruptSnapshot, reason, repair);
                }
            }
            continue;
        }
        if name.ends_with(".json") && name.contains("corpus") {
            match vfs
                .read_to_string(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|t| crate::cache::validate_envelope(&t))
            {
                Ok(()) => {}
                Err(reason) => {
                    let repair = quarantine_repair(vfs, &path, opts);
                    report.push(&path, FindingKind::CorruptCache, reason, repair);
                }
            }
            continue;
        }
        // anything else (figures, benches, unrelated files) is not ours
    }

    // journal segments, in index order
    segments.sort();
    for (idx, name) in &segments {
        let path = dir.join(name);
        if poisoned_from.is_some_and(|from| *idx > from) {
            // a segment after a corrupt one: ordering is untrustworthy,
            // quarantine wholesale exactly like journal replay does
            let repair = quarantine_repair(vfs, &path, opts);
            report.push(
                &path,
                FindingKind::SuspectSegment,
                format!(
                    "follows corrupt segment {from:05}",
                    from = poisoned_from.unwrap()
                ),
                repair,
            );
            continue;
        }
        let text = match vfs.read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                let repair = quarantine_repair(vfs, &path, opts);
                report.push(
                    &path,
                    FindingKind::CorruptSegment,
                    format!("unreadable: {e}"),
                    repair,
                );
                poisoned_from = Some(*idx);
                continue;
            }
        };
        let (valid_lines, bad) = crate::journal::segment_valid_prefix(&text);
        if !bad {
            continue;
        }
        poisoned_from = Some(*idx);
        let detail = format!("corrupt line after {} valid record(s)", valid_lines.len());
        let repair = if opts.apply {
            match repair_segment(vfs, &path, &valid_lines) {
                Ok(rewrote) => {
                    if rewrote {
                        Repair::PrefixRewritten
                    } else {
                        Repair::Quarantined
                    }
                }
                Err(e) => Repair::Failed(e.to_string()),
            }
        } else {
            Repair::Skipped
        };
        report.push(&path, FindingKind::CorruptSegment, detail, repair);
    }

    // pin consistency: a pin must point at a valid snapshot in this dir
    if let Some(name) = pin_name {
        let path = dir.join(&name);
        let target: Option<u64> = vfs
            .read_to_string(&path)
            .ok()
            .and_then(|t| t.trim().parse().ok());
        let ok = target.is_some_and(|v| valid_versions.contains(&v));
        if !ok {
            let detail = match target {
                Some(v) => format!("pinned version {v} has no valid snapshot"),
                None => "unparseable pin marker".into(),
            };
            let repair = if opts.apply {
                match vfs.remove_file(&path) {
                    Ok(()) => {
                        let _ = sync_parent_dir(vfs, &path);
                        Repair::Removed
                    }
                    Err(e) => Repair::Failed(e.to_string()),
                }
            } else {
                Repair::Skipped
            };
            report.push(&path, FindingKind::DanglingPin, detail, repair);
        }
    }
    Ok(())
}

/// Rename `path` aside to `.corrupt`, durably. Returns the repair result.
fn quarantine_repair(vfs: &dyn Vfs, path: &Path, opts: ScrubOptions) -> Repair {
    if !opts.apply {
        return Repair::Skipped;
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    match vfs.rename(path, &path.with_file_name(name)) {
        Ok(()) => {
            let _ = sync_parent_dir(vfs, path);
            Repair::Quarantined
        }
        Err(e) => Repair::Failed(e.to_string()),
    }
}

/// Quarantine a torn segment and rewrite its valid prefix under the live
/// name (durable), mirroring journal replay's own repair. Returns whether
/// a prefix was rewritten.
fn repair_segment(vfs: &dyn Vfs, path: &Path, valid_lines: &[&str]) -> std::io::Result<bool> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    vfs.rename(path, &path.with_file_name(name))?;
    sync_parent_dir(vfs, path)?;
    if valid_lines.is_empty() {
        return Ok(false);
    }
    let mut prefix = String::new();
    for line in valid_lines {
        prefix.push_str(line);
        prefix.push('\n');
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    durable_replace(vfs, &tmp, path, prefix.as_bytes())?;
    Ok(true)
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
