//! Crash-safe on-disk corpus cache.
//!
//! The corpus takes ~1 min to build, so both the CLI and the bench
//! harness cache it as JSON. A process killed mid-write (or a disk that
//! lies) must never leave a half-written file that poisons every later
//! run, so the cache is defended on both ends:
//!
//! - **Writes** go to a temp file in the same directory and are published
//!   with an atomic `rename`, so readers only ever see nothing or a
//!   complete file.
//! - **Reads** validate an envelope carrying a schema version and an
//!   FNV-1a checksum of the serialized corpus. Anything that fails to
//!   parse, carries the wrong schema, or fails the checksum is quarantined
//!   by renaming it to `<name>.corrupt` (with a warning on stderr) so the
//!   evidence survives for debugging while the cache slot frees up for a
//!   clean rebuild.

use crate::pipeline::Corpus;
use crate::vfs::{durable_replace, real_fs, sync_parent_dir, Vfs};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Corpus-cache traffic: `hits + misses == loads`; quarantines are the
/// subset of misses where an invalid file was moved aside.
static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.hits");
static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.misses");
static CACHE_QUARANTINED: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.quarantined");
static CACHE_STORES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.stores");

/// Bump when [`Corpus`] (or the envelope itself) changes shape; readers
/// treat any other version as corrupt-for-our-purposes and quarantine it.
pub const CORPUS_CACHE_SCHEMA: u32 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct CacheEnvelope {
    schema_version: u32,
    /// FNV-1a over the canonical (`serde_json::to_string`) corpus JSON.
    checksum: u64,
    corpus: Corpus,
}

/// FNV-1a (64-bit): the checksum of every on-disk envelope, the model
/// content hash and the scheduler's shard choice.
#[inline]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn corpus_checksum(corpus: &Corpus) -> u64 {
    match serde_json::to_string(corpus) {
        Ok(json) => fnv1a(json.as_bytes()),
        Err(_) => 0,
    }
}

/// Why a cache load produced nothing usable.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheMiss {
    /// No file at the path — a clean miss.
    Absent,
    /// The file existed but was invalid; it has been quarantined (renamed
    /// with a `.corrupt` suffix). The string says what was wrong.
    Quarantined(String),
}

/// Validate the raw bytes of a cache file without loading the corpus.
/// `Ok(())` means a well-formed envelope with matching schema and
/// checksum; `Err` says what is wrong (shared with `cnnperf scrub`).
pub(crate) fn validate_envelope(text: &str) -> Result<(), String> {
    match serde_json::from_str::<CacheEnvelope>(text) {
        Err(e) => Err(format!("unparseable envelope: {e:?}")),
        Ok(env) if env.schema_version != CORPUS_CACHE_SCHEMA => Err(format!(
            "schema version {} (want {})",
            env.schema_version, CORPUS_CACHE_SCHEMA
        )),
        Ok(env) => {
            let actual = corpus_checksum(&env.corpus);
            if actual != env.checksum {
                Err(format!(
                    "checksum mismatch: stored {:#018x}, computed {actual:#018x}",
                    env.checksum
                ))
            } else {
                Ok(())
            }
        }
    }
}

/// Load a corpus from `path`, validating the crash-safety envelope.
/// Invalid files are moved aside to `<path>.corrupt` so the next
/// [`store_corpus`] starts clean.
pub fn load_corpus(path: &Path) -> Result<Corpus, CacheMiss> {
    load_corpus_on(&*real_fs(), path)
}

/// [`load_corpus`] against an explicit [`Vfs`] (fault injection, crash
/// images).
pub fn load_corpus_on(vfs: &dyn Vfs, path: &Path) -> Result<Corpus, CacheMiss> {
    let text = match vfs.read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            CACHE_MISSES.inc();
            return Err(CacheMiss::Absent);
        }
    };
    let reason = match serde_json::from_str::<CacheEnvelope>(&text) {
        Err(e) => format!("unparseable envelope: {e:?}"),
        Ok(env) if env.schema_version != CORPUS_CACHE_SCHEMA => format!(
            "schema version {} (want {})",
            env.schema_version, CORPUS_CACHE_SCHEMA
        ),
        Ok(env) => {
            let actual = corpus_checksum(&env.corpus);
            if actual != env.checksum {
                format!(
                    "checksum mismatch: stored {:#018x}, computed {actual:#018x}",
                    env.checksum
                )
            } else {
                CACHE_HITS.inc();
                return Ok(env.corpus);
            }
        }
    };
    let quarantine = quarantine_path(path);
    match vfs.rename(path, &quarantine) {
        Ok(()) => {
            // make the quarantine itself durable so a crash right after
            // cannot resurrect the corrupt file under its live name
            let _ = sync_parent_dir(vfs, path);
            eprintln!(
                "warning: corpus cache {} is corrupt ({reason}); quarantined as {}",
                path.display(),
                quarantine.display()
            )
        }
        Err(e) => eprintln!(
            "warning: corpus cache {} is corrupt ({reason}); quarantine failed: {e}",
            path.display()
        ),
    }
    CACHE_MISSES.inc();
    CACHE_QUARANTINED.inc();
    Err(CacheMiss::Quarantined(reason))
}

fn quarantine_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    path.with_file_name(name)
}

/// Store a corpus at `path` crash-safely: envelope with schema + checksum,
/// written to a sibling temp file, fsynced, published atomically via
/// rename, parent directory fsynced. After this returns `Ok`, the file
/// survives a power loss.
pub fn store_corpus(path: &Path, corpus: &Corpus) -> io::Result<()> {
    store_corpus_on(&*real_fs(), path, corpus)
}

/// [`store_corpus`] against an explicit [`Vfs`].
pub fn store_corpus_on(vfs: &dyn Vfs, path: &Path, corpus: &Corpus) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            vfs.create_dir_all(dir)?;
        }
    }
    let envelope = CacheEnvelope {
        schema_version: CORPUS_CACHE_SCHEMA,
        checksum: corpus_checksum(corpus),
        // cloning the corpus once per store is noise next to the build
        corpus: corpus.clone(),
    };
    let json = serde_json::to_string(&envelope)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    durable_replace(vfs, &tmp, path, json.as_bytes())?;
    CACHE_STORES.inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_corpus;
    use std::fs;

    fn tiny_corpus() -> Corpus {
        let models: Vec<cnn_ir::ModelGraph> = vec![cnn_ir::zoo::build("mobilenet").unwrap()];
        let devices = vec![gpu_sim::specs::quadro_p1000()];
        build_corpus(&models, &devices).unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cnnperf-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn roundtrip_preserves_corpus() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&corpus).unwrap()
        );
    }

    #[test]
    fn absent_file_is_clean_miss() {
        let dir = tmp_dir("absent");
        assert_eq!(
            load_corpus(&dir.join("nope.json")).unwrap_err(),
            CacheMiss::Absent
        );
    }

    #[test]
    fn garbage_is_quarantined() {
        let dir = tmp_dir("garbage");
        let path = dir.join("corpus.json");
        fs::write(&path, "{not json at all").unwrap();
        match load_corpus(&path) {
            Err(CacheMiss::Quarantined(_)) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert!(
            dir.join("corpus.json.corrupt").exists(),
            "quarantined copy must survive for debugging"
        );
    }

    #[test]
    fn truncated_write_is_quarantined() {
        let dir = tmp_dir("truncated");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        // simulate a crash mid-write of a *non-atomic* writer: chop the
        // file in half
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(load_corpus(&path), Err(CacheMiss::Quarantined(_))));
        assert!(dir.join("corpus.json.corrupt").exists());
    }

    #[test]
    fn flipped_payload_fails_checksum() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        // corrupt a digit inside the payload without breaking JSON syntax
        let text = fs::read_to_string(&path).unwrap();
        let target = format!("\"ipc\":{}", corpus.samples[0].ipc);
        assert!(text.contains(&target), "test needs a recognizable field");
        let flipped = text.replace(&target, "\"ipc\":0.123456789");
        fs::write(&path, flipped).unwrap();
        match load_corpus(&path) {
            Err(CacheMiss::Quarantined(reason)) => {
                assert!(reason.contains("checksum"), "reason: {reason}")
            }
            other => panic!("expected checksum quarantine, got {other:?}"),
        }
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let dir = tmp_dir("tmpfiles");
        let path = dir.join("corpus.json");
        store_corpus(&path, &tiny_corpus()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
