//! End-to-end and per-layer benchmark of cnnperf.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse-cold --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! Run from the repository root. The paper's training corpus (32 CNNs x 2
//! training GPUs) is built once into `perfbench/work/` and reused; every
//! run then loads it (checksum-verified) and trains the Decision Tree, as
//! `cnnperf rank` and `cnnperf serve` do at start-up. Workloads are closed
//! loops over op lists generated from `--seed`:
//!
//! - `dse-cold`: the paper's DSE sweep. One caller; op = `build_any` +
//!   `rank_devices` over all nine devices after `clear_analysis_cache()`,
//!   the 45 models in seeded order. Nearly all its time is lowering plus
//!   the DCA, with no simulator and no server.
//! - `serve-analytical`: the service path under compute-heavy requests. An
//!   in-process `Server` on a Unix socket with the tier ladder `analytical`;
//!   one connection sending `batch` estimates over 16 models x 9 devices:
//!   80 (model, lowering target) keys against 64 cache entries, so the
//!   stream mixes hits, misses and evictions. The only workload that runs
//!   the server, the engine and gpu-sim's analytical model.
//! - `corpus-build`: training-dataset creation. One caller; op =
//!   `build_corpus_robust` with `RobustConfig::default()` over a seeded
//!   batch of 4 models x the 2 training GPUs, after
//!   `clear_analysis_cache()`. Dominated by gpu-sim's detailed simulation
//!   while server, engine and predictor sit idle: the control for
//!   serve-path changes.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the timed
//! phase, then runs the same op list again calling each layer's public
//! functions from here, and prints the per-layer metrics. The last line of
//! stdout is one JSON object; spans of a traced run go to
//! `perfbench/work/trace-<workload>-<seed>.tsv`.

mod alloc;
mod trace;
mod util;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::{percentile, tail_quantile};
use workloads::{Expect, Phase, RunOutput, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Scratch state (corpus, sockets, traces), relative to the repository
/// root the benchmark runs from.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds needs an integer in 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The corpus every run loads: built and stored (crash-safely) on first
/// use, outside every timed run. The build fills the process-wide analysis
/// cache, which is emptied again so that the run that built the corpus
/// starts from the same state as every later run.
fn ensure_corpus(path: &Path) -> Result<(), String> {
    if cnnperf_core::load_corpus(path).is_ok() {
        return Ok(());
    }
    eprintln!("perfbench: building the training corpus (32 CNNs x 2 GPUs) once...");
    let corpus = cnnperf_core::build_paper_corpus().map_err(|e| e.to_string())?;
    cnnperf_core::clear_analysis_cache();
    cnnperf_core::store_corpus(path, &corpus).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !Path::new("perfbench/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let corpus_path = work_dir.join("paper-corpus.json");
    if args.first().map(String::as_str) == Some("--record") {
        return record(&work_dir, &corpus_path);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = ensure_corpus(&corpus_path) {
        eprintln!("perfbench: corpus build failed: {e}");
        return ExitCode::from(1);
    }
    let expect = Expect::load(args.workload);
    let out = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &work_dir,
        &corpus_path,
        &expect,
    );
    let metrics = if args.trace {
        let trace_path = work_dir.join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed));
        let (_, tracer) = out.traced.as_ref().expect("traced run keeps its spans");
        if let Err(e) = std::fs::write(&trace_path, tracer.to_tsv()) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        }
        per_layer(args.workload, &out)
    } else {
        end_to_end(&out.timed, out.setup_s, out.ops)
    };
    let traced = out.traced.as_ref().map(|(p, _)| p);
    let attempted = out.ops + traced.map_or(0, |p| p.lat_s.len());
    let failed = out.timed.failed + traced.map_or(0, |p| p.failed);
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} failed, run digest {:016x}",
        args.workload.name(),
        args.seed,
        out.ops,
        failed,
        util::fnv1a(
            &out.timed
                .digests
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<u8>>()
        )
    );
    println!("{}", render(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Record the expected per-key digests of every workload (one pass each).
fn record(work_dir: &Path, corpus_path: &Path) -> ExitCode {
    if let Err(e) = ensure_corpus(corpus_path) {
        eprintln!("perfbench: corpus build failed: {e}");
        return ExitCode::from(1);
    }
    for w in Workload::ALL {
        let rec = Expect::recorder();
        let out = workloads::run(w, 0, 1, false, work_dir, corpus_path, &rec);
        if out.timed.failed > 0 {
            eprintln!(
                "perfbench: {} had {} failed ops",
                w.name(),
                out.timed.failed
            );
            return ExitCode::from(1);
        }
        let path = format!("perfbench/expected/{}.tsv", w.name());
        if let Err(e) = std::fs::write(&path, rec.to_tsv()) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("perfbench: recorded {path}");
    }
    ExitCode::SUCCESS
}

type Metric = (&'static str, f64, &'static str);

/// Op latencies in ms, ascending; a failed op misses every latency limit.
fn sorted_latencies_ms(p: &Phase) -> Vec<f64> {
    let mut v: Vec<f64> = p
        .lat_s
        .iter()
        .zip(&p.digests)
        .map(|(l, d)| if *d == 0 { f64::MAX } else { l * 1e3 })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(p: &Phase, (setup_s, setups): (f64, usize), ops: usize) -> Vec<Metric> {
    let lat = sorted_latencies_ms(p);
    let q = tail_quantile(ops);
    eprintln!(
        "perfbench: tail_ms is p{:.1} of {ops} ops; setup_s summarises {setups} set-ups",
        q * 100.0,
    );
    vec![
        ("setup_s", setup_s, "s"),
        ("p50_ms", percentile(&lat, 0.5), "ms"),
        ("tail_ms", percentile(&lat, q), "ms"),
        ("ops_per_s", ops as f64 / p.wall_s, "1/s"),
        ("cpu_ms_per_op", p.cpu_s * 1e3 / ops as f64, "ms"),
        (
            "peak_heap_mb",
            p.peak_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ]
}

fn counter(p: &Phase, name: &str) -> f64 {
    p.after.counter_delta(&p.before, name) as f64
}

fn hist_sum_ms(p: &Phase, name: &str) -> f64 {
    let sum = |s: &obs::Snapshot| s.histograms.get(name).map_or(0, |h| h.sum);
    sum(&p.after).saturating_sub(sum(&p.before)) as f64 * 1e-3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: counter and histogram deltas of the timed phase,
/// self times of the traced phase's spans, and the set-up split.
fn per_layer(w: Workload, out: &RunOutput) -> Vec<Metric> {
    let timed = &out.timed;
    let (traced, tracer) = out.traced.as_ref().expect("traced run has a traced phase");
    let ops = out.ops as f64;
    let spans = tracer.totals();
    let self_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.0 * 1e3 / ops);
    let span_allocs = |name: &str| spans.get(name).map_or(0.0, |s| s.1 as f64 / ops);

    let failures: f64 = timed
        .after
        .delta_counters(&timed.before)
        .iter()
        .filter(|(k, _)| k.starts_with("engine.tier.") && k.contains(".failure."))
        .map(|(_, v)| *v as f64)
        .sum();
    let memo_hits = counter(timed, "sim.memo.hits");
    let memo_misses = counter(timed, "sim.memo.misses");

    // server boundaries from the existing histograms, per op, in ms
    let serve = w == Workload::ServeAnalytical;
    let tier_hist = "engine.tier.analytical.latency_us";
    let request = hist_sum_ms(timed, "engine.request_us") / ops;
    let tier_ms = hist_sum_ms(timed, tier_hist) / ops;
    let qos = hist_sum_ms(timed, "server.qos.batch.latency_us") / ops;
    let rtt = timed.lat_s.iter().sum::<f64>() * 1e3 / ops;
    // serve: the traced requests' tier time that their replayed layers
    // (run as the program runs them, in parallel per launch) do not
    // explain; it is a difference of two timings and may dip below zero
    // within their noise. Otherwise: the part of each traced op no layer
    // span covers, i.e. the benchmark's own code between layer calls.
    let unattributed = if serve {
        let replayed = tracer.durations("replay").iter().sum::<f64>() * 1e3;
        (hist_sum_ms(traced, tier_hist) - replayed) / ops
    } else {
        self_ms("op")
    };
    let inclusive_ms = |name: &str| tracer.durations(name).iter().sum::<f64>() * 1e3 / ops;

    let untraced_p50 = percentile(&sorted_latencies_ms(timed), 0.5);
    let traced_p50 = percentile(&sorted_latencies_ms(traced), 0.5);
    let fastest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let load_ms = fastest(out.setup_parts.iter().map(|(l, _)| l * 1e3).collect());
    let train_ms = fastest(out.setup_parts.iter().map(|(_, t)| t * 1e3).collect());

    let mut m: Vec<Metric> = vec![
        ("cnn-ir.build_ms", self_ms("cnn-ir.build"), "ms"),
        ("cnn-ir.analyze_ms", self_ms("cnn-ir.analyze"), "ms"),
        ("ptx-codegen.lower_ms", self_ms("ptx-codegen.lower"), "ms"),
        (
            "ptx-analysis.decode_ms",
            self_ms("ptx-analysis.decode"),
            "ms",
        ),
        ("ptx-analysis.slice_ms", self_ms("ptx-analysis.slice"), "ms"),
        (
            "ptx-analysis.poly_compile_ms",
            self_ms("ptx-analysis.poly_compile"),
            "ms",
        ),
        ("ptx-analysis.eval_ms", self_ms("ptx-analysis.eval"), "ms"),
        (
            "ptx-analysis.compiles_per_op",
            counter(timed, "ptx.poly.attempts") / ops,
            "count",
        ),
        (
            "ptx-analysis.decodes_per_op",
            counter(timed, "ptx.exec.decodes") / ops,
            "count",
        ),
        (
            "ptx-analysis.interp_steps_per_op",
            counter(timed, "ptx.exec.steps") / ops,
            "count",
        ),
        ("gpu-sim.detailed_ms", self_ms("gpu-sim.detailed"), "ms"),
        (
            "gpu-sim.events_per_op",
            counter(timed, "sim.events") / ops,
            "count",
        ),
        (
            "gpu-sim.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
            "ratio",
        ),
        ("gpu-sim.analytical_ms", self_ms("gpu-sim.analytical"), "ms"),
        ("mlkit.train_ms", train_ms, "ms"),
        ("core.cache.load_ms", load_ms, "ms"),
        ("mlkit.predict_us", self_ms("mlkit.predict") * 1e3, "us"),
        (
            "core.analysis_cache.hash_ms",
            self_ms("core.analysis_cache.hash"),
            "ms",
        ),
        // the whole lookup, layers inside included
        (
            "core.analysis_cache.hit_ms",
            inclusive_ms("core.analysis_cache.hit"),
            "ms",
        ),
        (
            "core.analysis_cache.miss_ms",
            inclusive_ms("core.analysis_cache.miss"),
            "ms",
        ),
        (
            "core.analysis_cache.hit_ratio",
            ratio(
                counter(timed, "analysis.cache.hits"),
                counter(timed, "analysis.cache.lookups"),
            ),
            "ratio",
        ),
        (
            "core.analysis_cache.evictions_per_op",
            counter(timed, "analysis.cache.evictions") / ops,
            "count",
        ),
        (
            "core.engine.self_ms",
            if serve { request - tier_ms } else { 0.0 },
            "ms",
        ),
        ("core.engine.failures_per_op", failures / ops, "count"),
        (
            "core.server.retries_per_op",
            counter(timed, "server.retries") / ops,
            "count",
        ),
        (
            "core.server.queue_wait_ms",
            if serve { qos - request } else { 0.0 },
            "ms",
        ),
        (
            "core.server.transport_ms",
            if serve { rtt - qos } else { 0.0 },
            "ms",
        ),
        (
            "core.server.coalesce_ratio",
            ratio(
                counter(timed, "server.coalesced"),
                counter(timed, "server.admitted"),
            ),
            "ratio",
        ),
        ("allocs_per_op", timed.allocs as f64 / ops, "count"),
        ("unattributed_ms", unattributed, "ms"),
        ("traced_p50_ms", traced_p50, "ms"),
        (
            "trace_overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
    ];
    for (span, metric) in [
        ("cnn-ir.build", "cnn-ir.build.allocs_per_op"),
        ("ptx-codegen.lower", "ptx-codegen.lower.allocs_per_op"),
        (
            "ptx-analysis.poly_compile",
            "ptx-analysis.poly_compile.allocs_per_op",
        ),
        ("ptx-analysis.eval", "ptx-analysis.eval.allocs_per_op"),
        ("gpu-sim.detailed", "gpu-sim.detailed.allocs_per_op"),
        ("gpu-sim.analytical", "gpu-sim.analytical.allocs_per_op"),
        (
            "core.analysis_cache.hash",
            "core.analysis_cache.hash.allocs_per_op",
        ),
        ("mlkit.predict", "mlkit.predict.allocs_per_op"),
    ] {
        m.push((metric, span_allocs(span), "count"));
    }
    if serve {
        eprintln!(
            "perfbench: per op rtt {rtt:.4} ms = transport {:.4} + queue {:.4} + engine self {:.4} \
             + tier {tier_ms:.4}; traced tier minus replayed layers {unattributed:.4}",
            rtt - qos,
            qos - request,
            request - tier_ms,
        );
    }
    m
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, each value printed with all its digits.
fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { f64::MAX };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
