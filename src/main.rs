//! `cnnperf` — command-line interface to the estimation pipeline.
//!
//! ```text
//! cnnperf list                          # models and devices
//! cnnperf analyze resnet50              # static + dynamic analysis
//! cnnperf profile resnet50 "V100S"      # ground-truth simulation + power
//! cnnperf predict resnet50 --all-devices
//! cnnperf rank MobileNetV2              # DSE over the device fleet
//! cnnperf ptx mobilenet                 # dump the generated PTX module
//! cnnperf dot alexnet                   # Graphviz of the model graph
//! ```

use cnnperf::prelude::*;
use cnnperf_core::{
    build_corpus_robust_with, cached_corpus, corpus_cache_path, BuildMeta, BuildOptions, Journal,
    JournalError, ProfileError, Replay, ScrubOptions, DEFAULT_SM_TARGET, JOURNAL_SCHEMA,
};
use gpu_sim::{estimate_power, ChaosProfile, FaultProfile, SimMode, Simulator};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Exit-code taxonomy (documented in the README): `0` success, `1`
/// generic failure, then one code per distinguishable operational
/// condition so scripts and CI can branch without scraping stderr. Code
/// 3 is retired.
const EXIT_USAGE: u8 = 2;
/// Some `estimate` requests went unserved within their deadline.
const EXIT_DEADLINE: u8 = 4;
/// A crash-safe artifact (corpus cache or cell journal) was corrupt and
/// the command was not allowed to degrade around it (`--strict`).
const EXIT_CORRUPT: u8 = 5;
/// The server failed to bind its Unix socket or metrics endpoint.
const EXIT_BIND: u8 = 6;
/// The snapshot model store could not be initialised (`--model-dir` is
/// not a usable directory, or a `models` action failed against it).
const EXIT_MODELSTORE: u8 = 7;
/// `scrub` found damage it could not (or was not allowed to) repair.
const EXIT_SCRUB: u8 = 8;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cnnperf <command> [args]\n\
         commands:\n\
           list                          list zoo models, variants and devices\n\
           analyze <model>               static analyzer + executed-instruction count\n\
           profile <model> <device>      ground-truth simulation (IPC, latency, power)\n\
           predict <model> [<device>|--all-devices] [--regressor dt|knn|rf|xgb|lr]\n\
           rank <model> [--journal-dir DIR] [--resume] [--cell-timeout-ms N]\n\
                [--stats json|prom]      rank all devices by predicted IPC (warm: the\n\
                                         analysis cache skips repeated DCA; a corpus\n\
                                         cache miss rebuilds under the given journal)\n\
           corpus [--strict] [--runs N] [--fault-profile none|light|harsh|k=v,..]\n\
                  [--models m1,m2,..] [--devices d1,d2,..]\n\
                  [--journal-dir DIR] [--resume] [--cell-timeout-ms N]\n\
                  [--chaos none|k=v,..] [--out FILE]\n\
                  [--stats json|prom]    build the training corpus under the robust\n\
                                         measurement protocol and print its health\n\
                                         report; --journal-dir checkpoints every cell\n\
                                         so --resume skips completed work after a\n\
                                         crash, --cell-timeout-ms cancels cells that\n\
                                         make no progress for N ms, --out writes the\n\
                                         canonical (wall-clock-free) corpus JSON\n\
           estimate <models> <devices|--all-devices> [--deadline-ms N] [--tiers t1,t2,..]\n\
                    [--chaos none|k=v,..] [--stats json|prom]\n\
                                         deadline-bounded batch estimation through the\n\
                                         tiered engine (detailed > analytical > regressor\n\
                                         > stale-cache); models/devices comma-separated\n\
           serve [--socket PATH] [--metrics ADDR] [--workers N]\n\
                 [--deadlines I,B,E] [--quotas I,B,E] [--max-retries N]\n\
                 [--retry-backoff-ms N] [--no-revalidate] [--tiers t1,t2,..]\n\
                 [--chaos none|k=v,..] [--max-frame-bytes N] [--frame-stall-ms N]\n\
                 [--drain-deadline-ms N] [--stats-dump json|prom]\n\
                 [--model-dir DIR] [--retrain-interval-s N] [--shadow-window N]\n\
                 [--promotion-threshold F] [--drift-window N] [--drift-threshold F]\n\
                                         persistent NDJSON estimation server over a\n\
                                         Unix socket (or stdin/stdout without\n\
                                         --socket); per-client QoS classes\n\
                                         (interactive|batch|best-effort) with\n\
                                         admission control and request coalescing;\n\
                                         --metrics serves live Prometheus from the\n\
                                         same loop; SIGTERM drains gracefully;\n\
                                         --model-dir arms the predictor lifecycle:\n\
                                         cold-start from the newest valid snapshot,\n\
                                         background retraining from served ground\n\
                                         truth, shadow-gated promotion, drift\n\
                                         rollback, crash-safe snapshots\n\
           models <list|inspect V|pin V|unpin|rollback> --model-dir DIR\n\
                                         inspect and steer the snapshot store:\n\
                                         `pin` freezes cold-starts to a version,\n\
                                         `rollback` demotes the newest snapshot so\n\
                                         the previous one serves\n\
           scrub <dir> [--dry-run] [--stats json|prom]\n\
                                         audit a state directory (corpus caches,\n\
                                         cell journals, snapshot stores): checksum\n\
                                         every artifact, sweep orphan temp files,\n\
                                         quarantine corrupt files, rewrite valid\n\
                                         journal prefixes, remove dangling pins;\n\
                                         --dry-run reports without touching disk\n\
           stats-check <file>            validate the metrics snapshot emitted by\n\
                                         `--stats json` (last JSON line of <file>):\n\
                                         schema, shape, and counter invariants\n\
           ptx <model>                   print the generated PTX module\n\
           dot <model>                   print the model graph as Graphviz\n\
         exit codes: 0 ok, 1 failure, 2 usage/config error,\n\
                     4 deadline exceeded, 5 corrupt cache/journal,\n\
                     6 server bind/socket error, 7 model store init failure,\n\
                     8 scrub found unrepaired damage"
    );
    ExitCode::from(EXIT_USAGE)
}

/// A command's result. `Err` carries an early exit (a usage error, a
/// store that failed to open) so `?` can return it.
type Exit = Result<ExitCode, ExitCode>;

/// Print a one-line usage error; it exits 2.
fn usage_error(msg: impl Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(EXIT_USAGE)
}

/// Every command: its name, its flags (`--flag=` takes a value, `--flag`
/// is a bare switch), the least and most positionals, and its body.
type Command = (&'static str, &'static str, usize, usize, fn(&Args) -> Exit);
const COMMANDS: &[Command] = &[
    ("list", "", 0, 0, cmd_list),
    ("analyze", "", 1, 1, cmd_analyze),
    ("profile", "", 2, 2, cmd_profile),
    ("predict", "--regressor= --all-devices", 1, 2, cmd_predict),
    (
        "rank",
        "--journal-dir= --cell-timeout-ms= --stats= --resume",
        1,
        1,
        cmd_rank,
    ),
    (
        "corpus",
        "--runs= --fault-profile= --models= --devices= --journal-dir= --cell-timeout-ms= \
         --chaos= --out= --stats= --strict --resume",
        0,
        0,
        cmd_corpus,
    ),
    (
        "estimate",
        "--deadline-ms= --tiers= --chaos= --stats= --all-devices",
        1,
        2,
        cmd_estimate,
    ),
    (
        "serve",
        "--socket= --metrics= --workers= --deadlines= --quotas= --max-retries= \
         --retry-backoff-ms= --tiers= --chaos= --max-frame-bytes= --frame-stall-ms= \
         --drain-deadline-ms= --stats-dump= --model-dir= --retrain-interval-s= \
         --shadow-window= --promotion-threshold= --drift-window= --drift-threshold= \
         --no-revalidate",
        0,
        0,
        cmd_serve,
    ),
    ("models", "--model-dir=", 1, 2, cmd_models),
    ("scrub", "--stats= --dry-run", 1, 1, cmd_scrub),
    ("stats-check", "", 1, 1, cmd_stats_check),
    ("ptx", "", 1, 1, cmd_ptx),
    ("dot", "", 1, 1, cmd_dot),
];

/// One command's arguments: `--flag value` pairs, bare switches (with no
/// value) and positionals.
#[derive(Default)]
struct Args<'a> {
    flags: Vec<(&'a str, Option<&'a str>)>,
    pos: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Split `tokens` by `cmd`'s flags. An unknown flag, a flag without
    /// its value or a positional past the command's last is a usage error.
    fn parse(cmd: &Command, tokens: &[&'a str]) -> Result<Self, ExitCode> {
        let &(name, flags, _, max_pos, _) = cmd;
        let mut args = Args::default();
        let mut it = tokens.iter().copied();
        while let Some(t) = it.next() {
            let takes_value = flags
                .split_whitespace()
                .find_map(|f| (f.trim_end_matches('=') == t).then(|| f.ends_with('=')));
            match takes_value {
                Some(true) => {
                    let v = it.next();
                    let v = v.ok_or_else(|| usage_error(format!("{t} needs a value")))?;
                    args.flags.push((t, Some(v)));
                }
                Some(false) => args.flags.push((t, None)),
                None if t.starts_with("--") => {
                    return Err(usage_error(format!("unknown {name} flag `{t}`")))
                }
                None if args.pos.len() < max_pos => args.pos.push(t),
                None => return Err(usage_error(format!("{name}: unexpected argument `{t}`"))),
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == switch)
    }

    /// The value of the last `flag` given.
    fn raw(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|(f, _)| *f == flag)?.1
    }

    /// `flag`'s value through `parse`; a value it refuses is a usage error.
    fn get<T, E: Display>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, ExitCode> {
        let parsed = self
            .raw(flag)
            .map(|v| parse(v).map_err(|e| usage_error(format!("bad {flag} `{v}`: {e}"))));
        parsed.transpose()
    }

    fn get_or<T, E: Display>(
        &self,
        flag: &str,
        default: T,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<T, ExitCode> {
        Ok(self.get(flag, parse)?.unwrap_or(default))
    }
}

/// An integer of at least `min`.
fn at_least<T: FromStr + PartialOrd + Display + Copy>(
    min: T,
) -> impl Fn(&str) -> Result<T, String> {
    move |v| {
        v.parse()
            .ok()
            .filter(|n| *n >= min)
            .ok_or_else(|| format!("needs an integer >= {min}"))
    }
}

/// A finite number that `ok` accepts.
fn number(ok: fn(f64) -> bool, what: &'static str) -> impl Fn(&str) -> Result<f64, &'static str> {
    move |v| {
        v.parse()
            .ok()
            .filter(|f: &f64| f.is_finite() && ok(*f))
            .ok_or(what)
    }
}

/// An `I,B,E` triple (interactive, batch, best-effort) of positive integers.
fn triple<T: FromStr + PartialOrd + From<u8>>(spec: &str) -> Result<[T; 3], &'static str> {
    let parts: Option<Vec<T>> = spec
        .split(',')
        .map(|s| s.trim().parse().ok().filter(|n| *n >= T::from(1)))
        .collect();
    parts
        .and_then(|p| p.try_into().ok())
        .ok_or("needs three positive integers: interactive,batch,best-effort")
}

fn regressor(flag: &str) -> Result<RegressorKind, &'static str> {
    Ok(match flag {
        "dt" => RegressorKind::DecisionTree,
        "knn" => RegressorKind::KNearestNeighbors,
        "rf" => RegressorKind::RandomForest,
        "xgb" => RegressorKind::XgBoost,
        "lr" => RegressorKind::LinearRegression,
        _ => return Err("needs dt|knn|rf|xgb|lr"),
    })
}

/// The journal and cell silence limit a corpus build runs under:
/// `--journal-dir`, `--resume` and `--cell-timeout-ms`.
#[derive(Default)]
struct Journaling<'a> {
    dir: Option<&'a Path>,
    resume: bool,
    cell_timeout_ms: Option<u64>,
}

impl<'a> Journaling<'a> {
    /// Read the three flags, refusing `--resume` without a journal.
    fn parse(a: &Args<'a>) -> Result<Self, ExitCode> {
        let j = Journaling {
            dir: a.raw("--journal-dir").map(Path::new),
            resume: a.has("--resume"),
            cell_timeout_ms: a.get("--cell-timeout-ms", at_least(1))?,
        };
        if j.resume && j.dir.is_none() {
            return Err(usage_error(
                "--resume needs --journal-dir (nothing to resume from)",
            ));
        }
        Ok(j)
    }
}

fn model_or_exit(name: &str) -> cnn_ir::ModelGraph {
    cnn_ir::zoo::build_any(name).unwrap_or_else(|| {
        eprintln!("unknown model '{name}' — see `cnnperf list`");
        std::process::exit(EXIT_USAGE as i32)
    })
}

/// The model's one analysis, counted in `auto` mode; a failed analysis
/// exits with status 1.
fn analysis_or_exit(model: &cnn_ir::ModelGraph) -> std::sync::Arc<AnalyzedModel> {
    profile_model_cached(model).unwrap_or_else(|e| {
        eprintln!("analysis failed: {e}");
        std::process::exit(1)
    })
}

fn device_or_exit(name: &str) -> gpu_sim::DeviceSpec {
    gpu_sim::device_by_name(name).unwrap_or_else(|| {
        eprintln!("unknown device '{name}' — see `cnnperf list`");
        std::process::exit(EXIT_USAGE as i32)
    })
}

/// Output format for the end-of-run metrics snapshot (`--stats`).
#[derive(Clone, Copy)]
enum StatsFormat {
    Json,
    Prom,
}

impl StatsFormat {
    fn parse(s: &str) -> Result<Self, &'static str> {
        match s {
            "json" => Ok(StatsFormat::Json),
            "prom" => Ok(StatsFormat::Prom),
            _ => Err("needs json or prom"),
        }
    }
}

/// Emit the global metrics snapshot to stdout, if asked for. The JSON
/// form is a single line (always the *last* stdout line of the command)
/// so scripts and `stats-check` can grab it without parsing the
/// human-readable report above it.
fn emit_stats(fmt: Option<StatsFormat>) {
    let snap = obs::global().snapshot();
    match fmt {
        Some(StatsFormat::Json) => println!("{}", snap.to_json()),
        Some(StatsFormat::Prom) => print!("{}", snap.to_prometheus()),
        None => {}
    }
}

/// Load the full paper corpus from the crash-safe cache, or build and
/// cache it. A build runs under the given journal (checkpointing every
/// cell) and silence limit, so a killed `rank` warm-up can be resumed instead
/// of restarted. It uses the paper's strict single-run protocol — the
/// same corpus the cache would have held.
fn corpus(journaling: &Journaling) -> Result<Corpus, ExitCode> {
    if let Some(c) = cached_corpus() {
        return Ok(c);
    }
    eprintln!("building training corpus (32 CNNs x 2 GPUs, ~6 s on 2 cores, cached afterwards)...");
    let cfg = RobustConfig::strict_single_run();
    let models = cnn_ir::zoo::build_all();
    let devices = gpu_sim::training_devices();
    let built = build_journaled(&models, &devices, &cfg, journaling, ChaosProfile::none())?;
    let (c, _report) = built.map_err(|e| {
        eprintln!("corpus build failed: {e}");
        ExitCode::FAILURE
    })?;
    if let Err(e) = store_corpus(&corpus_cache_path(), &c) {
        eprintln!("warning: corpus cache write failed: {e}");
    }
    Ok(c)
}

/// Open (or resume) the cell journal at `dir`, mapping the failure modes
/// to the exit-code taxonomy: a configuration mismatch is a usage error
/// ([`EXIT_USAGE`]), corrupt segments under `--strict` are
/// [`EXIT_CORRUPT`] (a lax build recomputes the quarantined cells and
/// continues).
fn open_journal_or_exit(
    dir: &Path,
    cfg: &RobustConfig,
    resume: bool,
) -> Result<(Journal, Replay), ExitCode> {
    // any of these differing between a journal and a resuming build makes
    // the journaled cells meaningless
    let meta = BuildMeta {
        schema: JOURNAL_SCHEMA,
        sm_target: DEFAULT_SM_TARGET.to_string(),
        runs: cfg.runs,
        retry: cfg.retry.clone(),
        faults: cfg.faults.clone(),
        strict: cfg.strict,
    };
    match Journal::open(dir, &meta, resume) {
        Ok((journal, replay)) => {
            if replay.corrupt_segments > 0 {
                eprintln!(
                    "journal: quarantined {} corrupt segment(s) to `.corrupt`",
                    replay.corrupt_segments
                );
                if cfg.strict {
                    eprintln!("strict build refuses a journal with corrupt segments");
                    return Err(ExitCode::from(EXIT_CORRUPT));
                }
            }
            if resume {
                eprintln!("journal: replayed {} record(s)", replay.records);
            }
            Ok((journal, replay))
        }
        Err(e @ JournalError::ConfigMismatch { .. }) => {
            eprintln!("cannot resume: {e}");
            Err(ExitCode::from(EXIT_USAGE))
        }
        Err(e) => {
            eprintln!("journal open failed: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Build `models` x `devices` under `cfg` and `journaling`. `Err` is a
/// journal that could not be opened.
fn build_journaled(
    models: &[cnn_ir::ModelGraph],
    devices: &[gpu_sim::DeviceSpec],
    cfg: &RobustConfig,
    journaling: &Journaling,
    chaos: ChaosProfile,
) -> Result<Result<(Corpus, CorpusReport), ProfileError>, ExitCode> {
    let journal = (journaling.dir)
        .map(|dir| open_journal_or_exit(dir, cfg, journaling.resume))
        .transpose()?;
    let opts = BuildOptions {
        journal: journal.as_ref().map(|(j, _)| j),
        replay: journal.as_ref().map(|(_, r)| r),
        cell_timeout: journaling.cell_timeout_ms.map(Duration::from_millis),
        chaos,
    };
    Ok(build_corpus_robust_with(models, devices, cfg, &opts))
}

fn cmd_list(_: &Args) -> Exit {
    println!("Table I zoo ({} models):", cnn_ir::zoo::all().len());
    for e in cnn_ir::zoo::all() {
        println!("  {}", e.name);
    }
    println!("\nvariants:");
    for (name, _) in cnn_ir::zoo::variants::all_variants() {
        println!("  {name}");
    }
    println!("\ntransformers:");
    for (name, _) in cnn_ir::zoo::transformer::all_transformers() {
        println!("  {name}");
    }
    println!("\ndevices:");
    for d in gpu_sim::all_devices() {
        println!(
            "  {:14} {:4} SMs, {:5} cores, {:6.0} GB/s, {:5} KB L2, sm_{}{}",
            d.name,
            d.sm_count,
            d.cuda_cores(),
            d.mem_bandwidth_gbs,
            d.l2_cache_kb,
            d.compute_capability.0,
            d.compute_capability.1
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(a: &Args) -> Exit {
    let model = model_or_exit(a.pos[0]);
    let AnalyzedModel {
        profile,
        plan,
        counts,
        summary,
        ..
    } = &*analysis_or_exit(&model);
    println!("model: {}", profile.name);
    println!(
        "  input:                {}x{}",
        summary.input_size.0, summary.input_size.1
    );
    println!("  graph nodes:          {}", summary.num_nodes);
    println!("  weighted layers:      {}", summary.weighted_layers);
    println!(
        "  trainable params:     {}",
        thousands(summary.trainable_params)
    );
    println!(
        "  non-trainable params: {}",
        thousands(summary.non_trainable_params)
    );
    println!("  neurons:              {}", thousands(summary.neurons));
    println!("  MACs:                 {}", thousands(summary.macs));
    println!("  FLOPs:                {}", thousands(summary.flops));
    println!("  kernel launches:      {}", plan.launches.len());
    println!(
        "  executed PTX instructions: {} (thread-level), {} (warp-level)",
        thousands(counts.thread_instructions),
        thousands(counts.warp_issues)
    );
    println!("  dynamic code analysis time: {:.2}s", profile.dca_seconds);
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(a: &Args) -> Exit {
    let model = model_or_exit(a.pos[0]);
    let dev = device_or_exit(a.pos[1]);
    let AnalyzedModel { plan, counts, .. } = &*analysis_or_exit(&model);
    let sim = Simulator::new(dev.clone(), SimMode::Detailed)
        .simulate_plan(plan, counts, &ptx_analysis::ExecBudget::default())
        .expect("simulation");
    let power = estimate_power(&sim, counts, &dev);
    println!("{} on {} (detailed simulation):", sim.model_name, dev.name);
    println!("  cycles:       {:.3e}", sim.cycles);
    println!("  latency:      {:.2} ms", sim.latency_ms);
    println!("  IPC:          {:.3}", sim.ipc);
    println!(
        "  DRAM traffic: {:.1} MB (avg L2 hit {:.0}%)",
        sim.dram_bytes / 1e6,
        sim.l2_hit * 100.0
    );
    println!("  avg power:    {:.1} W", power.avg_power_w);
    println!(
        "  energy:       {:.1} mJ (EDP {:.1} mJ*ms)",
        power.energy_mj, power.edp
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_predict(a: &Args) -> Exit {
    let kind = a.get_or("--regressor", RegressorKind::DecisionTree, regressor)?;
    let model = model_or_exit(a.pos[0]);
    let corpus = corpus(&Journaling::default())?;
    let predictor = PerformancePredictor::train(&corpus.dataset, kind, 42);
    let profile = &analysis_or_exit(&model).profile;
    let devices: Vec<_> = if a.has("--all-devices") {
        gpu_sim::all_devices()
    } else {
        vec![device_or_exit(
            a.pos.get(1).copied().unwrap_or("GTX 1080 Ti"),
        )]
    };
    println!("predicted IPC for {} ({}):", profile.name, kind.name());
    for dev in devices {
        println!("  {:14} {:.3}", dev.name, predictor.predict(profile, &dev));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_rank(a: &Args) -> Exit {
    let stats = a.get("--stats", StatsFormat::parse)?;
    let journaling = Journaling::parse(a)?;
    let model = model_or_exit(a.pos[0]);
    let corpus = corpus(&journaling)?;
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);
    let devices = gpu_sim::all_devices();
    let outcome = rank_devices(&predictor, &model, &devices).expect("dse");
    println!(
        "device ranking for {} (t_dca {:.2}s, t_pm {:.3}ms):",
        outcome.model,
        outcome.t_dca,
        outcome.t_pm * 1e3
    );
    for (i, r) in outcome.ranking.iter().enumerate() {
        println!(
            "  {}. {:14} predicted IPC {:.3}",
            i + 1,
            r.device,
            r.predicted_ipc
        );
    }
    let (entries, capacity) = cnnperf_core::cache_stats();
    println!("analysis cache: {entries}/{capacity} entries");
    emit_stats(stats);
    Ok(ExitCode::SUCCESS)
}

fn cmd_corpus(a: &Args) -> Exit {
    let defaults = RobustConfig::default();
    let cfg = RobustConfig {
        strict: a.has("--strict"),
        runs: a.get_or("--runs", defaults.runs, at_least(1u32))?,
        faults: a.get_or("--fault-profile", defaults.faults, FaultProfile::parse)?,
        ..defaults
    };
    let stats = a.get("--stats", StatsFormat::parse)?;
    let chaos = a.get_or("--chaos", ChaosProfile::none(), ChaosProfile::parse)?;
    let journaling = Journaling::parse(a)?;
    if chaos.hang_rate > 0.0 && journaling.cell_timeout_ms.is_none() {
        return Err(usage_error(
            "--chaos with hang>0 needs --cell-timeout-ms (an unwatched hang wedges the build)",
        ));
    }
    let models: Vec<cnn_ir::ModelGraph> = match a.raw("--models") {
        Some(spec) => spec.split(',').map(|n| model_or_exit(n.trim())).collect(),
        None => cnn_ir::zoo::build_all(),
    };
    let devices: Vec<gpu_sim::DeviceSpec> = match a.raw("--devices") {
        Some(spec) => spec.split(',').map(|n| device_or_exit(n.trim())).collect(),
        None => gpu_sim::training_devices(),
    };

    eprintln!(
        "building corpus ({} CNNs x {} GPUs, {} run(s)/cell, strict={}) ...",
        models.len(),
        devices.len(),
        cfg.runs,
        cfg.strict
    );
    let built = build_journaled(&models, &devices, &cfg, &journaling, chaos)?;
    let code = match built {
        Ok((corpus, report)) => {
            println!(
                "corpus: {} rows, {} models",
                corpus.dataset.len(),
                corpus.profiles.len()
            );
            println!("report: {}", report.summary());
            for cell in &report.cells {
                match &cell.status {
                    CellStatus::Ok => {}
                    CellStatus::Degraded {
                        transient_retries,
                        hangs,
                        rejected_outliers,
                        failed_runs,
                    } => println!(
                        "  degraded {}@{}: {} retries, {} hangs, {} outliers, {} dead runs ({} kept)",
                        cell.model,
                        cell.device,
                        transient_retries,
                        hangs,
                        rejected_outliers,
                        failed_runs,
                        cell.runs_retained
                    ),
                    CellStatus::Failed { error } => {
                        println!("  FAILED {}@{}: {error}", cell.model, cell.device)
                    }
                    CellStatus::TimedOut { waited_ms } => println!(
                        "  TIMEOUT {}@{}: cancelled {waited_ms} ms after it started, past its silence limit",
                        cell.model, cell.device
                    ),
                }
            }
            match a.raw("--out") {
                Some(path) => match cnnperf_core::durable::publish(
                    &*cnnperf_core::real_fs(),
                    Path::new(path),
                    corpus.canonical_json().as_bytes(),
                ) {
                    Ok(()) => {
                        eprintln!("canonical corpus written to {path}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cannot write --out {path}: {e}");
                        ExitCode::FAILURE
                    }
                },
                None => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!(
                "corpus build failed ({}): {e}",
                if e.transient() {
                    "transient"
                } else {
                    "permanent"
                }
            );
            ExitCode::FAILURE
        }
    };
    emit_stats(stats);
    Ok(code)
}

fn cmd_estimate(a: &Args) -> Exit {
    /// Each request's deadline when `--deadline-ms` is not given.
    const DEFAULT_DEADLINE_MS: u64 = 2000;
    let deadline_ms = a.get_or("--deadline-ms", DEFAULT_DEADLINE_MS, at_least(1u64))?;
    let defaults = EngineConfig::default();
    let config = EngineConfig {
        tiers: a.get_or("--tiers", defaults.tiers, Tier::parse_ladder)?,
        chaos: a.get_or("--chaos", defaults.chaos, ChaosProfile::parse)?,
        ..defaults
    };
    let stats = a.get("--stats", StatsFormat::parse)?;
    let all_devices = a.has("--all-devices");
    if a.pos.len() < 2 && !all_devices {
        return Err(usage_error(
            "estimate needs <models> and <devices> (or --all-devices)",
        ));
    }
    let models: Vec<&str> = a.pos[0].split(',').map(str::trim).collect();
    let devices: Vec<String> = if all_devices {
        gpu_sim::all_devices()
            .iter()
            .map(|d| d.name.clone())
            .collect()
    } else {
        a.pos[1].split(',').map(|s| s.trim().to_string()).collect()
    };
    let requests = models.len() * devices.len();

    let mut engine = ResilientEngine::new(config.clone());
    // a cached corpus arms the regressor and stale-cache tiers; estimation
    // is deadline-bounded, so a cache miss must not trigger a corpus build
    // here — the tiers simply degrade
    if let Some(corpus) = cached_corpus() {
        engine.warm_from_corpus(&corpus);
        engine = engine.with_predictor(PerformancePredictor::train(
            &corpus.dataset,
            RegressorKind::DecisionTree,
            42,
        ));
        eprintln!(
            "corpus cache armed regressor + stale-cache tiers ({} entries)",
            engine.cache_len()
        );
    } else if config.tiers.contains(&Tier::Regressor) || config.tiers.contains(&Tier::StaleCache) {
        eprintln!(
            "no corpus cache: regressor/stale-cache tiers will degrade (run `cnnperf corpus` to arm them)"
        );
    }

    println!(
        "estimating {requests} request(s), deadline {deadline_ms} ms, tiers [{}]:",
        config
            .tiers
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut served = 0;
    for model in &models {
        for device in &devices {
            let out = engine.estimate(model, device, deadline_ms);
            served += usize::from(out.served());
            println!("  {} elapsed_ms={:.1}", out.canonical(), out.elapsed_ms);
        }
    }
    println!("served {served}/{requests} within deadline");
    emit_stats(stats);
    Ok(if served == requests {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_DEADLINE)
    })
}

fn cmd_serve(a: &Args) -> Exit {
    use cnnperf_core::{
        ColdStart, LifecycleConfig, LifecycleManager, ModelStore, PredictorSlot, ServeError,
        Server, ServerConfig,
    };
    use std::sync::Arc;

    let mut cfg = ServerConfig::default();
    cfg.workers = a.get_or("--workers", cfg.workers, at_least(1))?;
    cfg.policy.deadline_ms = a.get_or("--deadlines", cfg.policy.deadline_ms, triple)?;
    cfg.policy.queue_quota = a.get_or("--quotas", cfg.policy.queue_quota, triple)?;
    cfg.max_retries = a.get_or("--max-retries", cfg.max_retries, at_least(0))?;
    cfg.retry_backoff_ms = a.get_or("--retry-backoff-ms", cfg.retry_backoff_ms, at_least(0))?;
    cfg.revalidate_stale &= !a.has("--no-revalidate");
    cfg.engine.tiers = a.get_or("--tiers", cfg.engine.tiers, Tier::parse_ladder)?;
    cfg.engine.chaos = a.get_or("--chaos", cfg.engine.chaos, ChaosProfile::parse)?;
    cfg.max_frame_bytes = a.get_or("--max-frame-bytes", cfg.max_frame_bytes, at_least(64))?;
    cfg.frame_stall_ms = a.get_or("--frame-stall-ms", cfg.frame_stall_ms, at_least(1))?;
    cfg.drain_deadline_ms = a.get_or("--drain-deadline-ms", cfg.drain_deadline_ms, at_least(1))?;
    let mut lc = LifecycleConfig::default();
    if let Some(s) = a.get("--retrain-interval-s", at_least(1))? {
        lc.retrain_interval = std::time::Duration::from_secs(s);
    }
    lc.shadow_window = a.get_or("--shadow-window", lc.shadow_window, at_least(1))?;
    let non_negative = number(|f| f >= 0.0, "needs a finite number >= 0");
    lc.promotion_threshold = a.get_or(
        "--promotion-threshold",
        lc.promotion_threshold,
        non_negative,
    )?;
    lc.drift_window = a.get_or("--drift-window", lc.drift_window, at_least(1))?;
    let positive = number(|f| f > 0.0, "needs a finite number > 0");
    lc.drift_threshold = a.get_or("--drift-threshold", lc.drift_threshold, positive)?;
    let stats_dump = a.get("--stats-dump", StatsFormat::parse)?;
    let socket = a.raw("--socket").map(Path::new);
    let metrics = a.raw("--metrics");
    let model_dir = a.raw("--model-dir").map(Path::new);
    if metrics.is_some() && socket.is_none() {
        return Err(usage_error(
            "--metrics needs --socket (the endpoint is served from the socket accept loop)",
        ));
    }

    // a cached corpus arms every shard's regressor + stale-cache tiers;
    // like `estimate`, a cache miss degrades instead of blocking startup
    // on a corpus build
    let corpus = cached_corpus().map(Arc::new);
    match &corpus {
        Some(c) => eprintln!(
            "serve: corpus cache armed regressor + stale-cache tiers ({} samples)",
            c.samples.len()
        ),
        None => eprintln!(
            "serve: no corpus cache — regressor/stale-cache tiers degrade (run `cnnperf corpus` to arm them)"
        ),
    }

    let server = match model_dir {
        Some(dir) => {
            let store = match ModelStore::open(dir) {
                Ok((store, report)) => {
                    eprintln!(
                        "serve: model store {} ({} valid, {} quarantined, {} temp swept)",
                        dir.display(),
                        report.loaded,
                        report.quarantined,
                        report.tmp_swept
                    );
                    store
                }
                Err(e) => {
                    eprintln!("serve: model store init failed: {e}");
                    return Err(ExitCode::from(EXIT_MODELSTORE));
                }
            };
            let base = corpus.as_ref().map(|c| c.dataset.clone());
            let manager = Arc::new(LifecycleManager::new(
                lc,
                Arc::new(PredictorSlot::new()),
                Some(store),
                base,
            ));
            match manager.cold_start() {
                ColdStart::Snapshot {
                    version,
                    generation,
                } => eprintln!(
                    "serve: lifecycle cold-start from snapshot v{version} (generation {generation})"
                ),
                ColdStart::Trained {
                    generation,
                    version,
                } => eprintln!(
                    "serve: lifecycle cold-start trained from corpus (generation {generation}{})",
                    match version {
                        Some(v) => format!(", snapshotted as v{v}"),
                        None => String::new(),
                    }
                ),
                ColdStart::Empty => eprintln!(
                    "serve: lifecycle cold-start empty — no snapshot, no corpus cache; the \
                     regressor tier stays dark until ground truth accrues"
                ),
            }
            Server::with_lifecycle(cfg, corpus, manager)
        }
        None => {
            let predictor = corpus.as_ref().map(|c| {
                Arc::new(PerformancePredictor::train(
                    &c.dataset,
                    RegressorKind::DecisionTree,
                    42,
                ))
            });
            Server::new(cfg, predictor, corpus)
        }
    };
    let result = match socket {
        Some(path) => {
            eprintln!(
                "serve: listening on {} ({} workers){}",
                path.display(),
                server.config().workers,
                match metrics {
                    Some(a) => format!(", metrics on http://{a}/metrics"),
                    None => String::new(),
                }
            );
            server.run_unix(path, metrics)
        }
        None => {
            eprintln!(
                "serve: NDJSON on stdin/stdout ({} workers), EOF drains",
                server.config().workers
            );
            server.run_stdio()
        }
    };
    let code = match result {
        Ok(report) => {
            eprintln!(
                "serve: drained in {:.1} ms ({} flushed{})",
                report.elapsed.as_secs_f64() * 1e3,
                report.flushed,
                if report.forced {
                    ", deadline forced"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e @ ServeError::Bind { .. }) => {
            eprintln!("serve: {e}");
            ExitCode::from(EXIT_BIND)
        }
    };
    emit_stats(stats_dump);
    Ok(code)
}

/// Inspect and steer the snapshot model store (`cnnperf models ...`).
/// Every action opens the store first, so orphaned temp files are swept
/// and corrupt snapshots quarantined as a side effect of any invocation.
fn cmd_models(a: &Args) -> Exit {
    use cnnperf_core::ModelStore;

    let action = a.pos[0];
    let Some(dir) = a.raw("--model-dir").map(Path::new) else {
        return Err(usage_error("models needs --model-dir DIR"));
    };
    let takes_version = matches!(action, "inspect" | "pin");
    let version = match a.pos.get(1) {
        Some(v) if takes_version => v.parse::<u64>().ok(),
        Some(v) => return Err(usage_error(format!("models: unexpected argument `{v}`"))),
        None => None,
    };
    if takes_version && version.is_none() {
        return Err(usage_error(format!(
            "models {action} needs a version number"
        )));
    }

    let (mut store, report) = match ModelStore::open(dir) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("models: store init failed: {e}");
            return Err(ExitCode::from(EXIT_MODELSTORE));
        }
    };
    let failed = |e: cnnperf_core::StoreError| {
        eprintln!("models: {e}");
        ExitCode::from(EXIT_MODELSTORE)
    };
    match (action, version) {
        ("list", _) => {
            println!(
                "model store {} — {} valid snapshot(s), {} quarantined, {} temp swept",
                dir.display(),
                report.loaded,
                report.quarantined,
                report.tmp_swept
            );
            let pinned = store.pinned();
            for info in store.list() {
                println!(
                    "  v{:06}  {:<4}  {:>5} rows  checksum {:016x}  {}{}",
                    info.meta.version,
                    info.meta.kind,
                    info.meta.train_rows,
                    info.checksum,
                    info.meta.note,
                    if pinned == Some(info.meta.version) {
                        "  [pinned]"
                    } else {
                        ""
                    }
                );
            }
            if store.list().is_empty() {
                println!("  (empty)");
            }
        }
        ("inspect", Some(v)) => {
            let (info, predictor) = store.load_version(v).map_err(failed)?;
            println!("version:    v{:06}", info.meta.version);
            println!("path:       {}", info.path.display());
            println!("kind:       {}", info.meta.kind);
            println!("train rows: {}", info.meta.train_rows);
            println!("note:       {}", info.meta.note);
            println!("checksum:   {:016x}", info.checksum);
            println!("features:   {}", predictor.feature_names.len());
            println!(
                "pinned:     {}",
                if store.pinned() == Some(v) {
                    "yes"
                } else {
                    "no"
                }
            );
        }
        ("pin", Some(v)) => {
            store.pin(v).map_err(failed)?;
            println!("pinned v{v} — cold starts serve it until unpin/rollback");
        }
        ("unpin", _) => {
            store.unpin();
            println!("unpinned — cold starts return to the newest valid snapshot");
        }
        ("rollback", _) => match store.demote_latest().map_err(failed)? {
            (demoted, Some(v)) => println!("demoted v{demoted}; newest valid is now v{v}"),
            (demoted, None) => println!("demoted v{demoted}; store is now empty"),
        },
        (other, _) => {
            return Err(usage_error(format!(
                "unknown models action `{other}` (list | inspect V | pin V | unpin | rollback)"
            )))
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `cnnperf scrub <dir>` — audit and repair a persisted state directory.
/// Exit 0 when the directory is clean or every repair succeeded;
/// [`EXIT_SCRUB`] when damage remains (dry run or failed repair).
fn cmd_scrub(a: &Args) -> Exit {
    let dir = a.pos[0];
    let apply = !a.has("--dry-run");
    let stats = a.get("--stats", StatsFormat::parse)?;
    let report = match cnnperf_core::scrub_path(Path::new(dir), ScrubOptions { apply }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scrub: cannot audit {dir}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    println!(
        "scrub {dir}: {} file(s) in {} dir(s), {} finding(s), {} repaired, {} unrepaired{}",
        report.files_checked,
        report.dirs_visited,
        report.findings.len(),
        report.repaired(),
        report.unrepaired(),
        if apply { "" } else { " (dry run)" },
    );
    for f in &report.findings {
        println!(
            "  [{}] {} — {} ({:?})",
            f.kind.label(),
            f.path.display(),
            f.detail,
            f.repair
        );
    }
    emit_stats(stats);
    if report.unrepaired() > 0 {
        Ok(ExitCode::from(EXIT_SCRUB))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Parse a non-negative integer out of a snapshot `Value`.
fn stat_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Validate a `--stats json` snapshot: find the last JSON line of `file`,
/// check the schema version, the overall shape and each histogram's
/// buckets, and evaluate the counter invariants of
/// [`cnnperf_core::INVARIANTS`]. Exits 1 with a reason on any violation,
/// so CI can gate on it.
fn cmd_stats_check(a: &Args) -> Exit {
    let file = a.pos[0];
    let fail = |msg: String| {
        eprintln!("stats-check: {msg}");
        ExitCode::FAILURE
    };
    let text =
        std::fs::read_to_string(file).map_err(|e| fail(format!("cannot read {file}: {e}")))?;
    let line = text.lines().rev().find(|l| l.trim_start().starts_with('{'));
    let line = line.ok_or_else(|| fail(format!("no JSON line found in {file}")))?;
    let snap = serde_json::parse(line.trim())
        .map_err(|e| fail(format!("snapshot line is not valid JSON: {e}")))?;
    match snap.get("schema").and_then(stat_u64) {
        Some(1) => {}
        other => return Err(fail(format!("bad schema version {other:?} (want 1)"))),
    }
    let Some(serde_json::Value::Obj(counters)) = snap.get("counters") else {
        return Err(fail("`counters` object missing".into()));
    };
    let Some(serde_json::Value::Obj(histograms)) = snap.get("histograms") else {
        return Err(fail("`histograms` object missing".into()));
    };
    let values: BTreeMap<String, u64> = counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), stat_u64(v)?)))
        .collect();
    let mut failures = 0u32;
    for v in cnnperf_core::check_invariants(&values) {
        eprintln!("stats-check: invariant violated: {v}");
        failures += 1;
    }
    for (name, h) in histograms {
        let count = h.get("count").and_then(stat_u64);
        let problem = match (count, h.get("sum").and_then(stat_u64), h.get("buckets")) {
            (Some(count), Some(_), Some(serde_json::Value::Obj(buckets))) => {
                let total: u64 = buckets.iter().filter_map(|(_, c)| stat_u64(c)).sum();
                (total != count).then(|| format!("bucket sum {total} != count {count}"))
            }
            (Some(_), Some(_), _) => Some("missing buckets".to_string()),
            _ => Some("missing count/sum".to_string()),
        };
        if let Some(problem) = problem {
            eprintln!("stats-check: histogram `{name}` {problem}");
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(fail(format!("{failures} failure(s) in {file}")));
    }
    println!(
        "stats OK: {} counters, {} histograms",
        counters.len(),
        histograms.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_ptx(a: &Args) -> Exit {
    let model = model_or_exit(a.pos[0]);
    let plan = ptx_codegen::lower(&model, DEFAULT_SM_TARGET).expect("lowering");
    print!("{}", ptx::printer::module(&plan.module));
    Ok(ExitCode::SUCCESS)
}

fn cmd_dot(a: &Args) -> Exit {
    print!("{}", cnn_ir::to_dot(&model_or_exit(a.pos[0])));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = argv.iter().map(String::as_str).collect();
    let Some((name, args)) = args.split_first() else {
        return usage();
    };
    let Some(command) = COMMANDS.iter().find(|c| c.0 == *name) else {
        return usage();
    };
    // `serve` keeps SIGPIPE ignored, so a session whose reader is gone
    // sees a write error and still drains
    if command.0 != "serve" {
        cnnperf_core::default_sigpipe();
    }
    let run = || -> Exit {
        let parsed = Args::parse(command, args)?;
        if parsed.pos.len() < command.2 {
            return Err(usage());
        }
        (command.4)(&parsed)
    };
    run().unwrap_or_else(|code| code)
}
