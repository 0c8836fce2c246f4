//! Shared helpers for the benchmark harness: a cached paper corpus (the
//! 32-CNN x 2-GPU training dataset takes ~1 min to build; every
//! regeneration binary reuses the same deterministic corpus from disk).

use cnnperf_core::prelude::*;
use cnnperf_core::{cached_corpus, corpus_cache_path};
use std::fs;
use std::path::PathBuf;

/// Load the paper corpus from the crash-safe cache
/// ([`cnnperf_core::cached_corpus`]), building (and caching) it on a
/// miss. The corpus is fully deterministic, so the cache is safe. A build
/// failure propagates instead of aborting the process, so regeneration
/// binaries can report it and exit with a status code.
pub fn corpus_cached() -> Result<Corpus, cnnperf_core::ProfileError> {
    let path = corpus_cache_path();
    if let Some(c) = cached_corpus() {
        eprintln!("[bench] corpus cache hit: {}", path.display());
        return Ok(c);
    }
    eprintln!("[bench] building paper corpus (32 CNNs x 2 GPUs) ...");
    let t0 = std::time::Instant::now();
    let corpus = build_paper_corpus()?;
    eprintln!("[bench] corpus built in {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = store_corpus(&path, &corpus) {
        eprintln!("[bench] warning: corpus cache write failed: {e}");
    }
    Ok(corpus)
}

/// The `target/figures/` artifact directory, anchored at the *workspace*
/// target dir regardless of the current working directory. Regen bins run
/// from the repo root, but `cargo bench` executes with cwd = the package
/// dir — a bare relative `target/` would scatter artifacts under
/// `crates/bench/target/`.
pub fn figures_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        });
    target.join("figures")
}

/// Write a CSV artifact under `target/figures/` (the raw series behind a
/// regenerated figure) and return its path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = figures_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    let mut text = headers.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    let _ = fs::write(&path, text);
    path
}

/// Write the global metrics snapshot next to a figure's CSV as
/// `target/figures/<name>.stats.json` and return its path. Each
/// regeneration binary calls this last, so every artifact ships with the
/// pipeline counters (cells profiled, retries, memo hits, ...) that
/// produced it — when a regenerated table looks off, the sidecar says
/// how much work actually ran.
pub fn write_stats_sidecar(name: &str) -> PathBuf {
    let dir = figures_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.stats.json"));
    let mut text = obs::global().snapshot().to_json();
    text.push('\n');
    let _ = fs::write(&path, text);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_sidecar_is_single_line_json() {
        obs::global().counter("bench.test.sidecar").inc();
        let p = write_stats_sidecar("unit_test_sidecar");
        let text = std::fs::read_to_string(&p).expect("written");
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"schema\":1,"), "{text}");
        assert!(text.contains("bench.test.sidecar"), "{text}");
    }

    #[test]
    fn write_csv_produces_readable_file() {
        let p = write_csv(
            "unit_test_artifact",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(&p).expect("written");
        assert_eq!(text, "a,b\n1,2\n");
    }
}
