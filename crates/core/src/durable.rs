//! Durable files: the one place that decides how a store publishes,
//! verifies, quarantines and sweeps its files. The corpus cache, the cell
//! journal and the snapshot store keep their files through it, and
//! `cnnperf scrub` runs the stores' own checks on top of it:
//!
//! - [`publish`]: write `<name>.tmp.<pid>`, fsync, rename, fsync the
//!   directory, so readers see the old file or the new one, never a torn
//!   one;
//! - [`quarantine`]: rename to `<name>.corrupt`, fsync the directory;
//! - [`sweep_tmp`]: remove the `*.tmp.*` leftovers of cut-short publishes;
//! - [`checksum`], [`parse_envelope`], [`check_envelope`]: an envelope's
//!   schema version and the FNV-1a checksum of its payload's compact
//!   JSON. Bytes that are not UTF-8 fail like any other corruption.

use crate::cache::fnv1a;
use crate::vfs::Vfs;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// fsync the parent directory of `path` (no-op for bare filenames).
pub(crate) fn sync_parent_dir(vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => vfs.sync_dir(dir),
        _ => Ok(()),
    }
}

/// The crash-safe publish: write `bytes` to `<name>.tmp.<pid>`, fsync
/// it, rename it over `path`, fsync the parent directory. After this
/// returns, `path` holds `bytes` even across a power loss; if it fails,
/// the temp file is removed on a best-effort basis and `path` is
/// untouched (readers see the old version or nothing, never a torn file).
pub fn publish(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = with_suffix(path, &format!(".tmp.{}", std::process::id()));
    let written = (|| {
        vfs.write(&tmp, bytes)?;
        vfs.sync_file(&tmp)?;
        vfs.rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(vfs, path)
}

/// Move an invalid file aside to `<name>.corrupt`, durably, and return
/// the new path.
pub(crate) fn quarantine(vfs: &dyn Vfs, path: &Path) -> io::Result<PathBuf> {
    let aside = with_suffix(path, ".corrupt");
    vfs.rename(path, &aside)?;
    sync_parent_dir(vfs, path)?;
    Ok(aside)
}

/// [`quarantine`] a file that failed `what`'s validation for `reason`,
/// saying so on stderr.
pub(crate) fn quarantine_logged(vfs: &dyn Vfs, path: &Path, what: &str, reason: &str) {
    let outcome = match quarantine(vfs, path) {
        Ok(aside) => format!("quarantined as {}", aside.display()),
        Err(e) => format!("quarantine failed: {e}"),
    };
    eprintln!(
        "warning: {what} {} is corrupt ({reason}); {outcome}",
        path.display()
    );
}

/// Remove every `*.tmp.*` file directly under `dir` (with `apply ==
/// false`, only find them). Returns each one with its removal's result;
/// the directory is fsynced once after the removals.
pub(crate) fn sweep_tmp(
    vfs: &dyn Vfs,
    dir: &Path,
    apply: bool,
) -> io::Result<Vec<(PathBuf, io::Result<()>)>> {
    let mut swept = Vec::new();
    for name in vfs.read_dir(dir)? {
        if name.contains(".tmp.") {
            let path = dir.join(name);
            let removed = if apply {
                vfs.remove_file(&path)
            } else {
                Ok(())
            };
            swept.push((path, removed));
        }
    }
    if apply && swept.iter().any(|(_, removed)| removed.is_ok()) {
        let _ = vfs.sync_dir(dir);
    }
    Ok(swept)
}

/// FNV-1a over `payload`'s compact JSON: the checksum an envelope
/// stores beside its payload.
pub(crate) fn checksum<T: Serialize>(payload: &T) -> u64 {
    serde_json::to_string(payload).map_or(0, |json| fnv1a(json.as_bytes()))
}

/// Decode an envelope from a file's raw bytes.
pub(crate) fn parse_envelope<E: Deserialize>(bytes: &[u8]) -> Result<E, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not utf-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("unparseable envelope: {e}"))
}

/// Check a decoded envelope: its schema version against `want`, then the
/// checksum it stores against its payload.
pub(crate) fn check_envelope<T: Serialize>(
    schema: u32,
    want: u32,
    stored: u64,
    payload: &T,
) -> Result<(), String> {
    if schema != want {
        return Err(format!("schema version {schema} (want {want})"));
    }
    let actual = checksum(payload);
    if actual != stored {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{CrashStyle, SimFs};

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn publish_survives_any_strict_crash_point() {
        // enumerate every crash point of the publish sequence: at each one
        // the destination must hold the old version or the new version,
        // never a torn or empty file
        let total = {
            let fs = SimFs::new(3);
            fs.create_dir_all(&p("d")).unwrap();
            fs.write(&p("d/f"), b"old").unwrap();
            fs.sync_file(&p("d/f")).unwrap();
            fs.sync_dir(&p("d")).unwrap();
            publish(&fs, &p("d/f"), b"new").unwrap();
            fs.mut_ops()
        };
        for k in 0..=total {
            let fs = SimFs::new(3);
            fs.set_crash_after(k);
            let _ = (|| -> io::Result<()> {
                fs.create_dir_all(&p("d"))?;
                fs.write(&p("d/f"), b"old")?;
                fs.sync_file(&p("d/f"))?;
                fs.sync_dir(&p("d"))?;
                publish(&fs, &p("d/f"), b"new")
            })();
            let img = fs.crash_image(CrashStyle::Strict, k);
            if img.exists(&p("d/f")) {
                let got = img.read(&p("d/f")).unwrap();
                assert!(
                    got == b"old" || got == b"new",
                    "crash point {k}: torn content {got:?}"
                );
            }
        }
    }
}
