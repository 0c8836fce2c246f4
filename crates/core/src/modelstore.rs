//! Crash-safe versioned predictor snapshot store.
//!
//! The lifecycle subsystem (see [`crate::lifecycle`]) promotes retrained
//! predictors at runtime; this module makes those versions durable so a
//! restarted `serve` cold-starts from the newest valid snapshot instead
//! of retraining. Snapshots are kept through [`crate::durable`]: each is
//! an envelope with a schema version and a checksum of the predictor,
//! published atomically. A scan sweeps the temp files of crashed writes
//! and quarantines as `<name>.corrupt` any snapshot that fails the
//! envelope check or whose version stamp contradicts its filename.
//!
//! Snapshot files are named `predictor-v000042.json`; version numbers are
//! monotonically increasing and never reused, even after a quarantine (a
//! corrupt v7 must not be silently replaced by a different v7). A `PINNED`
//! marker file (also written atomically) can force cold-starts onto a
//! specific version — the durable half of a drift rollback.
//!
//! The `modelstore.*` counter invariants live in
//! [`crate::invariants::INVARIANTS`].

use crate::durable;
use crate::model::PerformancePredictor;
use crate::vfs::{real_fs, Vfs};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot files considered by a directory scan.
static SNAPSHOTS_SCANNED: obs::LazyCounter = obs::LazyCounter::new("modelstore.snapshots.scanned");
/// Snapshots that validated and are servable.
static SNAPSHOTS_LOADED: obs::LazyCounter = obs::LazyCounter::new("modelstore.snapshots.loaded");
/// Snapshots that failed validation and were renamed `.corrupt`.
static SNAPSHOTS_QUARANTINED: obs::LazyCounter =
    obs::LazyCounter::new("modelstore.snapshots.quarantined");
/// Snapshots written (one per successful [`ModelStore::save`]).
static SNAPSHOTS_WRITTEN: obs::LazyCounter = obs::LazyCounter::new("modelstore.snapshots.written");
/// Orphaned temp files swept by a scan (the footprint of a crash
/// mid-write).
static TMP_SWEPT: obs::LazyCounter = obs::LazyCounter::new("modelstore.tmp.swept");
/// Pin-marker writes (`models pin` and drift rollbacks).
static PINS: obs::LazyCounter = obs::LazyCounter::new("modelstore.pins");
/// Versions demoted by `models rollback`.
static DEMOTIONS: obs::LazyCounter = obs::LazyCounter::new("modelstore.demotions");

/// Bump when the envelope or [`PerformancePredictor`] changes shape.
pub const SNAPSHOT_SCHEMA: u32 = 1;

const PIN_FILE: &str = "PINNED";

/// Descriptive metadata stored alongside the predictor, cheap to list
/// without deserializing the model itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Monotonic version number (matches the filename).
    pub version: u64,
    /// Regressor kind name (e.g. `decision-tree`).
    pub kind: String,
    /// Rows in the training set that produced this version.
    pub train_rows: usize,
    /// Free-form provenance note (e.g. `cold-start` / `promotion`).
    pub note: String,
}

#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SnapshotEnvelope {
    schema_version: u32,
    /// [`durable::checksum`] of the predictor.
    checksum: u64,
    meta: SnapshotMeta,
    predictor: PerformancePredictor,
}

/// One valid snapshot known to the store.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    pub meta: SnapshotMeta,
    pub path: PathBuf,
    pub checksum: u64,
}

/// Why the store could not do what was asked.
#[derive(Debug)]
pub enum StoreError {
    /// The directory could not be created or scanned.
    Init(String),
    /// An I/O failure on a specific snapshot operation.
    Io(String),
    /// The requested version does not exist (or is quarantined).
    NotFound(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Init(m) => write!(f, "model store init failed: {m}"),
            StoreError::Io(m) => write!(f, "model store i/o failed: {m}"),
            StoreError::NotFound(v) => write!(f, "snapshot version {v} not found"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What a directory scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    pub scanned: usize,
    pub loaded: usize,
    pub quarantined: usize,
    pub tmp_swept: usize,
}

pub(crate) fn snapshot_filename(version: u64) -> String {
    format!("predictor-v{version:06}.json")
}

/// Strict filename parse: `predictor-vNNNNNN.json` with all-digit NNNNNN.
pub(crate) fn parse_snapshot_version(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("predictor-v")?.strip_suffix(".json")?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Read and validate one snapshot file: the store's verified load,
/// shared with `cnnperf scrub`. `expect_version` is the version its
/// filename claims; a mismatched stamp is treated as corruption (a
/// renamed or copied snapshot must not impersonate another version).
pub(crate) fn read_snapshot(
    vfs: &dyn Vfs,
    path: &Path,
    expect_version: u64,
) -> Result<SnapshotEnvelope, String> {
    let bytes = vfs.read(path).map_err(|e| format!("unreadable: {e}"))?;
    let env: SnapshotEnvelope = durable::parse_envelope(&bytes)?;
    durable::check_envelope(
        env.schema_version,
        SNAPSHOT_SCHEMA,
        env.checksum,
        &env.predictor,
    )?;
    if env.meta.version != expect_version {
        return Err(format!(
            "version stamp {} contradicts filename version {expect_version}",
            env.meta.version
        ));
    }
    Ok(env)
}

/// The versioned snapshot store rooted at one directory.
pub struct ModelStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// Valid snapshots, ascending by version (refreshed by scans and
    /// kept current by saves/demotions).
    entries: Vec<SnapshotInfo>,
    /// Next version to assign; strictly greater than every version ever
    /// seen on disk, quarantined ones included.
    next_version: u64,
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.dir)
            .field("entries", &self.entries)
            .field("next_version", &self.next_version)
            .finish()
    }
}

impl ModelStore {
    /// Open (creating if needed) a store on the real filesystem.
    pub fn open(dir: &Path) -> Result<(ModelStore, ScanReport), StoreError> {
        ModelStore::open_on(real_fs(), dir)
    }

    /// Open (creating if needed) a store on an explicit [`Vfs`] and scan
    /// it: orphaned temp files are swept, invalid snapshots are
    /// quarantined, valid ones indexed.
    pub fn open_on(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<(ModelStore, ScanReport), StoreError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::Init(format!("create {}: {e}", dir.display())))?;
        let mut store = ModelStore {
            dir: dir.to_path_buf(),
            vfs,
            entries: Vec::new(),
            next_version: 1,
        };
        let report = store.scan()?;
        Ok((store, report))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Re-scan the directory. Validation happens here (and only here), so
    /// the `scanned == loaded + quarantined` invariant holds per scan.
    pub fn scan(&mut self) -> Result<ScanReport, StoreError> {
        let mut report = ScanReport::default();
        let mut entries: Vec<SnapshotInfo> = Vec::new();
        let mut max_seen: u64 = 0;
        let init =
            |e: std::io::Error| StoreError::Init(format!("read {}: {e}", self.dir.display()));
        // a crash mid-write leaves only the temp file; it never became
        // visible, so sweeping it is safe
        let swept = durable::sweep_tmp(&*self.vfs, &self.dir, true).map_err(init)?;
        report.tmp_swept = swept.len();
        swept.iter().for_each(|_| TMP_SWEPT.inc());
        for name in self.vfs.read_dir(&self.dir).map_err(init)? {
            let path = self.dir.join(&name);
            if let Some(v) = name
                .strip_suffix(".corrupt")
                .or_else(|| name.strip_suffix(".demoted"))
                .and_then(parse_snapshot_version)
            {
                // quarantined/demoted versions still reserve their number
                max_seen = max_seen.max(v);
                continue;
            }
            let version = match parse_snapshot_version(&name) {
                Some(v) => v,
                None => continue,
            };
            max_seen = max_seen.max(version);
            SNAPSHOTS_SCANNED.inc();
            report.scanned += 1;
            match read_snapshot(&*self.vfs, &path, version) {
                Ok(env) => {
                    SNAPSHOTS_LOADED.inc();
                    report.loaded += 1;
                    entries.push(SnapshotInfo {
                        meta: env.meta,
                        path,
                        checksum: env.checksum,
                    });
                }
                Err(reason) => {
                    durable::quarantine_logged(&*self.vfs, &path, "snapshot", &reason);
                    SNAPSHOTS_QUARANTINED.inc();
                    report.quarantined += 1;
                }
            }
        }
        entries.sort_by_key(|e| e.meta.version);
        self.entries = entries;
        self.next_version = max_seen + 1;
        Ok(report)
    }

    /// Valid snapshots, ascending by version.
    pub fn list(&self) -> &[SnapshotInfo] {
        &self.entries
    }

    /// Persist a predictor as the next version, crash-safely.
    pub fn save(
        &mut self,
        predictor: &PerformancePredictor,
        train_rows: usize,
        note: &str,
    ) -> Result<SnapshotInfo, StoreError> {
        let version = self.next_version;
        let meta = SnapshotMeta {
            version,
            kind: predictor.kind.name().to_string(),
            train_rows,
            note: note.to_string(),
        };
        let envelope = SnapshotEnvelope {
            schema_version: SNAPSHOT_SCHEMA,
            checksum: durable::checksum(predictor),
            meta: meta.clone(),
            predictor: predictor.clone(),
        };
        let json = serde_json::to_string(&envelope)
            .map_err(|e| StoreError::Io(format!("serialize v{version}: {e}")))?;
        let path = self.dir.join(snapshot_filename(version));
        durable::publish(&*self.vfs, &path, json.as_bytes())
            .map_err(|e| StoreError::Io(format!("publish {}: {e}", path.display())))?;
        SNAPSHOTS_WRITTEN.inc();
        let info = SnapshotInfo {
            meta,
            path,
            checksum: envelope.checksum,
        };
        self.entries.push(info.clone());
        self.next_version += 1;
        Ok(info)
    }

    /// Load a specific version, re-validating the envelope on read.
    pub fn load_version(
        &self,
        version: u64,
    ) -> Result<(SnapshotInfo, PerformancePredictor), StoreError> {
        let info = self
            .entries
            .iter()
            .find(|e| e.meta.version == version)
            .ok_or(StoreError::NotFound(version))?;
        match read_snapshot(&*self.vfs, &info.path, version) {
            Ok(env) => Ok((info.clone(), env.predictor)),
            Err(reason) => Err(StoreError::Io(format!("snapshot v{version}: {reason}"))),
        }
    }

    /// Load the newest valid snapshot — or the pinned one, if a pin marker
    /// points at an existing version. A snapshot that went bad since the
    /// scan is skipped in favor of the next-newest.
    pub fn load_latest(&self) -> Option<(SnapshotInfo, PerformancePredictor)> {
        if let Some(v) = self.pinned() {
            if let Ok(hit) = self.load_version(v) {
                return Some(hit);
            }
        }
        for info in self.entries.iter().rev() {
            if let Ok(env) = read_snapshot(&*self.vfs, &info.path, info.meta.version) {
                return Some((info.clone(), env.predictor));
            }
        }
        None
    }

    /// Pin cold-starts to a specific version (written atomically).
    pub fn pin(&self, version: u64) -> Result<(), StoreError> {
        if !self.entries.iter().any(|e| e.meta.version == version) {
            return Err(StoreError::NotFound(version));
        }
        let path = self.dir.join(PIN_FILE);
        durable::publish(&*self.vfs, &path, format!("{version}\n").as_bytes())
            .map_err(|e| StoreError::Io(format!("publish pin: {e}")))?;
        PINS.inc();
        Ok(())
    }

    /// Remove the pin marker (cold-starts return to newest-valid),
    /// durably.
    pub fn unpin(&self) {
        let path = self.dir.join(PIN_FILE);
        if self.vfs.remove_file(&path).is_ok() {
            let _ = self.vfs.sync_dir(&self.dir);
        }
    }

    /// The pinned version, if a valid marker exists.
    pub fn pinned(&self) -> Option<u64> {
        let text = self.vfs.read_to_string(&self.dir.join(PIN_FILE)).ok()?;
        text.trim().parse().ok()
    }

    /// Demote the newest version (rename to `.demoted` so its number stays
    /// reserved but it no longer serves). Returns the demoted version and
    /// the version now newest, if any. A pin pointing at the demoted
    /// version is cleared.
    pub fn demote_latest(&mut self) -> Result<(u64, Option<u64>), StoreError> {
        let info = self
            .entries
            .last()
            .cloned()
            .ok_or(StoreError::Init("store has no snapshots to demote".into()))?;
        let mut name = info.path.file_name().unwrap_or_default().to_os_string();
        name.push(".demoted");
        let demoted = info.path.with_file_name(name);
        self.vfs
            .rename(&info.path, &demoted)
            .map_err(|e| StoreError::Io(format!("demote v{}: {e}", info.meta.version)))?;
        // the demotion must survive a crash: a resurrected "latest" would
        // undo the rollback
        let _ = durable::sync_parent_dir(&*self.vfs, &info.path);
        DEMOTIONS.inc();
        self.entries.pop();
        if self.pinned() == Some(info.meta.version) {
            self.unpin();
        }
        Ok((
            info.meta.version,
            self.entries.last().map(|e| e.meta.version),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::feature_names;
    use mlkit::{Dataset, RegressorKind};
    use std::fs;

    fn tiny_predictor(seed: u64) -> PerformancePredictor {
        let mut d = Dataset::new(feature_names());
        let nf = d.feature_names.len();
        for i in 0..12 {
            let mut row = vec![0.0; nf];
            row[0] = i as f64;
            row[1] = (i * i) as f64;
            d.push(format!("r{i}"), row, 0.5 + 0.1 * i as f64);
        }
        PerformancePredictor::train(&d, RegressorKind::DecisionTree, seed)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("cnnperf-modelstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_scan_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let (mut store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report, ScanReport::default());
        let p = tiny_predictor(1);
        let info = store.save(&p, 12, "test").unwrap();
        assert_eq!(info.meta.version, 1);

        let (reopened, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.quarantined, 0);
        let (loaded_info, loaded) = reopened.load_latest().unwrap();
        assert_eq!(loaded_info.meta.version, 1);
        let row = vec![1.0; feature_names().len()];
        assert_eq!(p.predict_row(&row), loaded.predict_row(&row));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_quarantined_and_previous_version_serves() {
        let dir = tmpdir("torn");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.save(&tiny_predictor(1), 12, "good").unwrap();
        // simulate a crash mid-write of v2: a truncated published file
        // plus an orphaned temp file
        let v2 = dir.join(snapshot_filename(2));
        let full = fs::read_to_string(dir.join(snapshot_filename(1))).unwrap();
        fs::write(&v2, &full[..full.len() / 2]).unwrap();
        fs::write(dir.join("predictor-v000003.json.tmp.999"), "partial").unwrap();

        let (reopened, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.loaded, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.tmp_swept, 1);
        assert_eq!(report.scanned, report.loaded + report.quarantined);
        assert!(dir.join("predictor-v000002.json.corrupt").exists());
        let (info, _) = reopened.load_latest().unwrap();
        assert_eq!(info.meta.version, 1);
        // the quarantined version number is never reused
        assert_eq!(reopened.next_version, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_stamp_must_match_filename() {
        let dir = tmpdir("stamp");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.save(&tiny_predictor(1), 12, "good").unwrap();
        // copying v1 to v5 must not make it serve as v5
        fs::copy(
            dir.join(snapshot_filename(1)),
            dir.join(snapshot_filename(5)),
        )
        .unwrap();
        let (reopened, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(reopened.load_latest().unwrap().0.meta.version, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pin_and_demote() {
        let dir = tmpdir("pin");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.save(&tiny_predictor(1), 12, "v1").unwrap();
        store.save(&tiny_predictor(2), 12, "v2").unwrap();
        assert_eq!(store.load_latest().unwrap().0.meta.version, 2);

        store.pin(1).unwrap();
        assert_eq!(store.pinned(), Some(1));
        assert_eq!(store.load_latest().unwrap().0.meta.version, 1);
        assert!(store.pin(9).is_err());
        store.unpin();
        assert_eq!(store.load_latest().unwrap().0.meta.version, 2);

        let (demoted, active) = store.demote_latest().unwrap();
        assert_eq!(demoted, 2);
        assert_eq!(active, Some(1));
        assert_eq!(store.load_latest().unwrap().0.meta.version, 1);
        // the demoted number stays reserved across reopen
        let (reopened, _) = ModelStore::open(&dir).unwrap();
        assert_eq!(reopened.next_version, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn filename_parse_is_strict() {
        assert_eq!(parse_snapshot_version("predictor-v000042.json"), Some(42));
        assert_eq!(parse_snapshot_version("predictor-v.json"), None);
        assert_eq!(parse_snapshot_version("predictor-v12a.json"), None);
        assert_eq!(parse_snapshot_version("other-v000001.json"), None);
    }
}
