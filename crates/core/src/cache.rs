//! Crash-safe on-disk corpus cache.
//!
//! The corpus takes about 6 s to build on two cores, so both the CLI and
//! the bench harness cache it as JSON. A process killed mid-write (or a
//! disk that lies) must never leave a half-written file that poisons
//! every later run. The cache keeps its file through [`crate::durable`]:
//! writes are published atomically, and a read validates an envelope
//! carrying a schema version and a checksum of the corpus. A file that
//! fails validation is quarantined as `<name>.corrupt` (with a warning
//! on stderr), so the evidence survives while the cache slot frees up for
//! a clean rebuild.

use crate::durable;
use crate::features::feature_names;
use crate::pipeline::Corpus;
use crate::vfs::{real_fs, Vfs};
use serde::{Deserialize, Serialize};
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

/// Corpus-cache traffic: `hits + misses == loads`; quarantines are the
/// subset of misses where an invalid file was moved aside.
static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.hits");
static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.misses");
static CACHE_QUARANTINED: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.quarantined");
static CACHE_STORES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.stores");

/// Bump when [`Corpus`] (or the envelope itself) changes shape; readers
/// treat any other version as corrupt-for-our-purposes and quarantine it.
/// Schema 2 holds no wall time: its samples lost `profiling_wall_s` and its
/// profiles' `dca_seconds` is always 0, so one input stores one file.
pub const CORPUS_CACHE_SCHEMA: u32 = 2;

#[derive(Debug, Serialize, Deserialize)]
struct CacheEnvelope {
    schema_version: u32,
    /// [`durable::checksum`] of the corpus.
    checksum: u64,
    corpus: Corpus,
}

/// FNV-1a (64-bit): the checksum of every on-disk envelope, the model
/// content hash and the scheduler's shard choice. Integers are written
/// little-endian and `usize`s as 64 bits, so a value hashes the same on
/// every platform.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    // the signed and `u8` writes default to these
    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
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

/// Decode and validate the raw bytes of a cache file: the one envelope
/// check, shared by [`load_corpus_on`] and `cnnperf scrub`. `Err` says
/// what is wrong.
pub(crate) fn open_envelope(bytes: &[u8]) -> Result<Corpus, String> {
    let CacheEnvelope {
        schema_version,
        checksum,
        corpus,
    } = durable::parse_envelope(bytes)?;
    durable::check_envelope(schema_version, CORPUS_CACHE_SCHEMA, checksum, &corpus)?;
    Ok(corpus)
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
    let Ok(bytes) = vfs.read(path) else {
        CACHE_MISSES.inc();
        return Err(CacheMiss::Absent);
    };
    match open_envelope(&bytes) {
        Ok(corpus) => {
            CACHE_HITS.inc();
            Ok(corpus)
        }
        Err(reason) => {
            durable::quarantine_logged(vfs, path, "corpus cache", &reason);
            CACHE_MISSES.inc();
            CACHE_QUARANTINED.inc();
            Err(CacheMiss::Quarantined(reason))
        }
    }
}

/// Where the CLI and the bench harness cache the paper corpus:
/// `CNNPERF_CORPUS`, else `cnnperf-paper-corpus-v2.json` under
/// `CARGO_TARGET_DIR` (or `target`).
pub fn corpus_cache_path() -> PathBuf {
    if let Ok(p) = std::env::var("CNNPERF_CORPUS") {
        return PathBuf::from(p);
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("cnnperf-paper-corpus-v2.json")
}

/// The corpus at [`corpus_cache_path`], or `None` when the cache is
/// absent, quarantined or holds an older feature layout.
pub fn cached_corpus() -> Option<Corpus> {
    match load_corpus(&corpus_cache_path()) {
        Ok(c) if c.dataset.feature_names == feature_names() => Some(c),
        Ok(_) => {
            eprintln!("corpus cache stale (feature layout changed)");
            None
        }
        // Absent is a clean miss; Quarantined already warned on stderr
        Err(_) => None,
    }
}

/// Store a corpus at `path` crash-safely: an envelope with schema and
/// checksum, published through [`durable::publish`]. After this returns
/// `Ok`, the file survives a power loss.
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
        checksum: durable::checksum(corpus),
        // cloning the corpus once per store is noise next to the build
        corpus: corpus.clone(),
    };
    let json = serde_json::to_string(&envelope)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    durable::publish(vfs, path, json.as_bytes())?;
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
    fn corpus_path_respects_env() {
        // no env mutation in parallel tests: just exercise the default path
        let p = corpus_cache_path();
        assert!(p.to_string_lossy().contains("cnnperf-paper-corpus"));
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
    fn high_bit_flip_is_quarantined_not_absent() {
        let dir = tmp_dir("highbit");
        let path = dir.join("corpus.json");
        store_corpus(&path, &tiny_corpus()).unwrap();
        // one flipped high bit makes the file invalid UTF-8: that is
        // corruption to keep as evidence, not a clean miss to overwrite
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        assert!(bytes[mid].is_ascii());
        bytes[mid] |= 0x80;
        fs::write(&path, bytes).unwrap();
        match load_corpus(&path) {
            Err(CacheMiss::Quarantined(reason)) => {
                assert!(reason.contains("utf-8"), "reason: {reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(dir.join("corpus.json.corrupt").exists());
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
