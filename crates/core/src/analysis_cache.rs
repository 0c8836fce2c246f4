//! Process-wide memoization of the static + dynamic model analysis.
//!
//! The paper's speed argument (Table IV) rests on the dynamic code
//! analysis being paid **once per model**: the executed-instruction count
//! is GPU-independent, so a DSE sweep over `n` devices costs
//! `t_dca + n * t_pm`, not `n * t_dca`. Before this cache the repo
//! undercut that — every estimation request, every corpus cell and every
//! DSE candidate re-lowered and re-executed the DCA from scratch.
//!
//! [`AnalyzedModel::compute`] is the one uncached analysis.
//! [`analyze_cached`] memoizes it on `(model content hash, sm target)`
//! behind an `Arc`. The content hash ([`model_content_hash`]) walks the
//! graph structurally into the FNV-1a of the on-disk envelopes
//! ([`crate::cache`]), so hashing neither serializes nor allocates.
//! Lowering reads the target only to stamp the module header, so every
//! program path asks at [`DEFAULT_SM_TARGET`]: the ResilientEngine's
//! tiers, `build_corpus_robust`, DSE sweeps and the CLI share one analysis
//! per model. Each entry's plan holds the one shared template list, not
//! kernels of its own. The cache is bounded (LRU over a logical access
//! stamp) and only successful analyses are stored; failures propagate
//! uncached.
//!
//! The engine names its models, so it finds a zoo model's analysis by
//! name: the cache memoizes each zoo name's content hash, and a warm
//! request neither builds nor hashes the graph.
//!
//! Traffic is observable via the `analysis.cache.{lookups,hits,misses,
//! evictions}` counters; their invariants live in
//! [`crate::invariants::INVARIANTS`]. The analysis itself runs *outside*
//! the cache lock: a slow DCA never blocks concurrent lookups of other
//! models.

use crate::cache::Fnv1a;
use crate::features::{CnnProfile, ProfileError, DEFAULT_SM_TARGET};
use cnn_ir::{ModelGraph, ModelSummary};
use ptx::kernel::LaunchPlan;
use ptx_analysis::{CountMode, CountingReport, ExecBudget, PlanCount};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache probes.
static CACHE_LOOKUPS: obs::LazyCounter = obs::LazyCounter::new("analysis.cache.lookups");
/// Probes answered from the cache.
static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("analysis.cache.hits");
/// Probes that ran the full analysis.
static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("analysis.cache.misses");
/// Entries displaced by the LRU bound.
static CACHE_EVICTIONS: obs::LazyCounter = obs::LazyCounter::new("analysis.cache.evictions");

/// Maximum cached analyses. Each entry holds a lowered plan plus counts
/// (tens of kilobytes). Every program path asks at [`DEFAULT_SM_TARGET`],
/// so 64 entries cover all 45 zoo, variant and transformer models.
pub const ANALYSIS_CACHE_CAPACITY: usize = 64;

/// The complete output of one model analysis, cached as a unit.
#[derive(Debug, Clone)]
pub struct AnalyzedModel {
    pub profile: CnnProfile,
    /// Seconds spent lowering and counting (`t_dca` of Table IV): wall
    /// time, so it stays in memory and out of every persisted profile.
    pub dca_seconds: f64,
    pub plan: LaunchPlan,
    pub counts: PlanCount,
    pub summary: ModelSummary,
    /// Which counting tier produced `counts` (poly vs interpreter) and how
    /// often the poly tier deferred — provenance for diagnostics; the
    /// counts themselves are mode-invariant.
    pub counting: CountingReport,
}

impl AnalyzedModel {
    /// Run the full static + dynamic analysis for one model, uncached:
    /// Table I values from the static analyzer, the executed-instruction
    /// count from the slicing executor, and the plan lowered for `target`
    /// (which only stamps the module header). The budget's deadline and
    /// step fuel bound the dynamic code analysis, so a deadline-driven
    /// caller can stop a DCA that will not finish in time. [`analyze_cached`] memoizes this.
    pub fn compute(
        model: &ModelGraph,
        target: &str,
        budget: &ExecBudget,
    ) -> Result<Self, ProfileError> {
        let summary = cnn_ir::analyze(model)?;
        let t0 = std::time::Instant::now();
        let plan = ptx_codegen::lower(model, target)?;
        let (counts, counting) =
            ptx_analysis::count_plan_report_budgeted(&plan, true, budget, CountMode::Auto)?;
        let dca_seconds = t0.elapsed().as_secs_f64();
        let profile = CnnProfile {
            name: model.name().to_string(),
            ptx_instructions: counts.thread_instructions,
            trainable_params: summary.trainable_params,
            macs: summary.macs,
            flops: summary.flops,
            neurons: summary.neurons,
            num_launches: plan.launches.len(),
            dca_seconds: 0.0,
        };
        Ok(AnalyzedModel {
            profile,
            dca_seconds,
            plan,
            counts,
            summary,
            counting,
        })
    }
}

struct Entry {
    value: Arc<AnalyzedModel>,
    /// Logical last-access stamp for LRU eviction.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, String), Entry>,
    /// Zoo model name, ASCII-lowercased -> content hash, so a request that
    /// names a zoo model finds its analysis without building or hashing
    /// the graph. `build_any` matches names case-insensitively and its 45
    /// names stay distinct when lowercased, and only names it resolves are
    /// stored, so this holds at most 45 entries. A zoo builder is a pure
    /// function of its name, so an entry never goes stale.
    zoo_hashes: HashMap<String, u64>,
    tick: u64,
}

fn cache() -> &'static Mutex<Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Inner::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Inner> {
    // a panicked analysis thread cannot corrupt the map (inserts are
    // atomic), so a poisoned lock is safe to keep using
    cache().lock().unwrap_or_else(|e| e.into_inner())
}

/// Content hash of a model graph: FNV-1a fed by the graph's structural
/// [`Hash`] (name, nominal depth, every node's name, layer and ordered
/// inputs, and the output), with no serialization or allocation. Graphs
/// built alike share a cache line and any change to topology, a layer
/// parameter or a name misses. The cell journal keys its cells by this
/// value, so changing what it hashes needs a
/// [`crate::journal::JOURNAL_SCHEMA`] bump.
pub fn model_content_hash(model: &ModelGraph) -> u64 {
    let mut h = Fnv1a::default();
    model.hash(&mut h);
    h.finish()
}

/// Analyze `model` lowered for `target`, memoized process-wide. On a hit
/// the budget is irrelevant (the work is already done); on a miss the full
/// analysis runs under `budget` outside the cache lock, and only success
/// is stored.
pub fn analyze_cached(
    model: &ModelGraph,
    target: &str,
    budget: &ExecBudget,
) -> Result<Arc<AnalyzedModel>, ProfileError> {
    lookup_or_compute(model_content_hash(model), target, || {
        AnalyzedModel::compute(model, target, budget)
    })
}

/// A zoo model named by a request, resolved by [`resolve_zoo`]: its
/// content hash, and its graph when resolving it had to build one.
pub(crate) struct ZooModel<'a> {
    name: &'a str,
    hash: u64,
    graph: Option<ModelGraph>,
}

/// Resolve `name` as `cnn_ir::zoo::build_any` does, without building the
/// graph once its content hash is known. `None` for a name `build_any`
/// does not resolve; such a name is never stored.
pub(crate) fn resolve_zoo(name: &str) -> Option<ZooModel<'_>> {
    let key = name.to_ascii_lowercase();
    if let Some(&hash) = lock().zoo_hashes.get(&key) {
        return Some(ZooModel {
            name,
            hash,
            graph: None,
        });
    }
    let graph = cnn_ir::zoo::build_any(name)?;
    let hash = model_content_hash(&graph);
    lock().zoo_hashes.insert(key, hash);
    Some(ZooModel {
        name,
        hash,
        graph: Some(graph),
    })
}

/// The one analysis of a resolved zoo model, at [`DEFAULT_SM_TARGET`]:
/// what [`profile_model_cached`] returns for its graph. Only a miss builds
/// the graph (unless [`resolve_zoo`] just did) and analyzes it under
/// `budget`.
pub(crate) fn analyze_zoo(
    zoo: ZooModel<'_>,
    budget: &ExecBudget,
) -> Result<Arc<AnalyzedModel>, ProfileError> {
    let ZooModel { name, hash, graph } = zoo;
    lookup_or_compute(hash, DEFAULT_SM_TARGET, || {
        let graph = graph
            .unwrap_or_else(|| cnn_ir::zoo::build_any(name).expect("a resolved zoo name builds"));
        AnalyzedModel::compute(&graph, DEFAULT_SM_TARGET, budget)
    })
}

/// The cache behind both entry points: one lookup of `(hash, target)`; on
/// a miss, `compute` runs outside the lock and only its success is stored,
/// evicting the least recently used entry at capacity.
fn lookup_or_compute(
    hash: u64,
    target: &str,
    compute: impl FnOnce() -> Result<AnalyzedModel, ProfileError>,
) -> Result<Arc<AnalyzedModel>, ProfileError> {
    let key = (hash, target.to_string());
    CACHE_LOOKUPS.inc();
    {
        let mut inner = lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.stamp = tick;
            CACHE_HITS.inc();
            return Ok(Arc::clone(&e.value));
        }
    }
    CACHE_MISSES.inc();
    let value = Arc::new(compute()?);

    let mut inner = lock();
    inner.tick += 1;
    let tick = inner.tick;
    if inner.map.len() >= ANALYSIS_CACHE_CAPACITY && !inner.map.contains_key(&key) {
        if let Some(victim) = inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| k.clone())
        {
            inner.map.remove(&victim);
            CACHE_EVICTIONS.inc();
        }
    }
    inner.map.insert(
        key,
        Entry {
            value: Arc::clone(&value),
            stamp: tick,
        },
    );
    Ok(value)
}

/// The model's one analysis: [`analyze_cached`] at [`DEFAULT_SM_TARGET`]
/// under the default budget.
pub fn profile_model_cached(model: &ModelGraph) -> Result<Arc<AnalyzedModel>, ProfileError> {
    analyze_cached(model, DEFAULT_SM_TARGET, &ExecBudget::default())
}

/// Point-in-time cache occupancy: `(entries, capacity)`. Traffic counters
/// live in the obs registry (`analysis.cache.*`).
pub fn cache_stats() -> (usize, usize) {
    (lock().map.len(), ANALYSIS_CACHE_CAPACITY)
}

/// Drop every cached analysis and every memoized zoo hash, so the next
/// request is fully cold (test isolation; traffic counters are not reset,
/// preserving the `hits + misses == lookups` invariant). Kernels prepared
/// for counting stay in ptx-analysis' table, so the next analysis measures
/// a model new to a warm process; `clear_kernel_table` empties that too.
pub fn clear_analysis_cache() {
    let mut inner = lock();
    inner.map.clear();
    inner.zoo_hashes.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_ir::{
        ActKind, BatchNorm, Conv2d, Dense, DepthwiseConv2d, GraphBuilder, Layer, Padding, Pool2d,
        PoolKind, TensorShape,
    };

    /// `model_content_hash` of resnet50.
    const PINNED_RESNET50_HASH: u64 = 0xecd5_cd61_da3d_9aa0;

    /// A node's name, layer and inputs (indices of earlier nodes).
    type NodeSpec = (String, Layer, Vec<usize>);

    /// The content hash of the graph built from `nodes`.
    fn hash_of(name: &str, depth: u32, nodes: &[NodeSpec], output: usize) -> u64 {
        let mut b = GraphBuilder::new(name, depth);
        let mut ids = Vec::new();
        for (node, layer, inputs) in nodes {
            let inputs: Vec<_> = inputs.iter().map(|&i| ids[i]).collect();
            ids.push(b.named_layer(node.clone(), layer.clone(), &inputs));
        }
        model_content_hash(&b.finish(ids[output]))
    }

    /// One node of every `Layer` variant, `Input` first, each fed by the
    /// node before it; the `Add` also by the input. Hashing never infers
    /// shapes, so the wiring need not type-check.
    fn every_layer() -> Vec<NodeSpec> {
        let layers = [
            Layer::Input {
                shape: TensorShape::square(8, 3),
            },
            Layer::Conv2d(Conv2d::new(4, 3, 1, Padding::Same)),
            Layer::DepthwiseConv2d(DepthwiseConv2d::new(3, 1, Padding::Same)),
            Layer::Dense(Dense::new(10)),
            Layer::Pool2d(Pool2d::max(2, 2, Padding::Valid)),
            Layer::GlobalPool {
                kind: PoolKind::Avg,
            },
            Layer::BatchNorm(BatchNorm::default()),
            Layer::GroupNorm { groups: 2 },
            Layer::Activation(ActKind::Relu),
            Layer::Add,
            Layer::Multiply,
            Layer::Concat,
            Layer::ChannelShuffle { groups: 2 },
            Layer::ZeroPad {
                top: 1,
                bottom: 1,
                left: 1,
                right: 1,
            },
            Layer::Flatten,
            Layer::Dropout { rate: 0.5 },
            Layer::LayerNorm,
            Layer::MultiHeadAttention { heads: 2 },
            Layer::MlpBlock { hidden: 8 },
        ];
        layers
            .into_iter()
            .enumerate()
            .map(|(i, layer)| {
                let inputs = match (i, &layer) {
                    (0, _) => vec![],
                    (_, Layer::Add) => vec![i - 1, 0],
                    _ => vec![i - 1],
                };
                (format!("n{i}"), layer, inputs)
            })
            .collect()
    }

    /// `layer` with one parameter changed, `None` for a variant without
    /// parameters. Exhaustive, so a new variant must say what it hashes.
    fn tweaked(layer: &Layer) -> Option<Layer> {
        Some(match layer.clone() {
            Layer::Input { mut shape } => {
                shape.c += 1;
                Layer::Input { shape }
            }
            Layer::Conv2d(mut c) => {
                c.groups += 1;
                Layer::Conv2d(c)
            }
            Layer::DepthwiseConv2d(mut d) => {
                d.use_bias = !d.use_bias;
                Layer::DepthwiseConv2d(d)
            }
            Layer::Dense(mut d) => {
                d.units += 1;
                Layer::Dense(d)
            }
            Layer::Pool2d(mut p) => {
                p.stride.1 += 1;
                Layer::Pool2d(p)
            }
            Layer::GlobalPool { .. } => Layer::GlobalPool {
                kind: PoolKind::Max,
            },
            Layer::BatchNorm(mut b) => {
                b.center = !b.center;
                Layer::BatchNorm(b)
            }
            Layer::GroupNorm { groups } => Layer::GroupNorm { groups: groups + 1 },
            Layer::Activation(_) => Layer::Activation(ActKind::Gelu),
            Layer::ChannelShuffle { groups } => Layer::ChannelShuffle { groups: groups + 1 },
            Layer::ZeroPad {
                top,
                bottom,
                left,
                right,
            } => Layer::ZeroPad {
                top,
                bottom,
                left,
                right: right + 1,
            },
            Layer::Dropout { rate } => Layer::Dropout { rate: rate / 2.0 },
            Layer::MultiHeadAttention { heads } => Layer::MultiHeadAttention { heads: heads + 1 },
            Layer::MlpBlock { hidden } => Layer::MlpBlock { hidden: hidden + 1 },
            Layer::Add | Layer::Multiply | Layer::Concat | Layer::Flatten | Layer::LayerNorm => {
                return None
            }
        })
    }

    #[test]
    fn content_hash_of_resnet50_is_pinned() {
        let resnet50 = cnn_ir::zoo::build_any("resnet50").unwrap();
        assert_eq!(
            model_content_hash(&resnet50),
            PINNED_RESNET50_HASH,
            "the model content hash changed value: the cell journal keys its \
             cells by it, so bump JOURNAL_SCHEMA and re-pin"
        );
    }

    #[test]
    fn every_resolvable_model_hashes_apart() {
        use cnn_ir::zoo::{transformer::all_transformers, variants::all_variants};
        let names: Vec<&str> = cnn_ir::zoo::all()
            .iter()
            .map(|e| e.name)
            .chain(all_variants().iter().map(|(n, _)| *n))
            .chain(all_transformers().iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(names.len(), 45);
        let mut hashes: Vec<u64> = names
            .iter()
            .map(|n| model_content_hash(&cnn_ir::zoo::build_any(n).unwrap()))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len(), "two models share a hash");
    }

    #[test]
    fn content_hash_covers_every_field_and_layer_parameter() {
        let nodes = every_layer();
        let last = nodes.len() - 1;
        let base = hash_of("g", 3, &nodes, last);
        assert_eq!(base, hash_of("g", 3, &nodes, last));

        let edit = |f: &dyn Fn(&mut Vec<NodeSpec>)| {
            let mut nodes = nodes.clone();
            f(&mut nodes);
            hash_of("g", 3, &nodes, last)
        };
        let add = nodes.iter().position(|n| n.1 == Layer::Add).unwrap();
        let mut changed = vec![
            ("model name", hash_of("h", 3, &nodes, last)),
            ("nominal depth", hash_of("g", 4, &nodes, last)),
            ("output", hash_of("g", 3, &nodes, last - 1)),
            ("node name", edit(&|n| n[1].0.push('x'))),
            ("input order", edit(&|n| n[add].2.reverse())),
        ];
        for (i, (_, layer, _)) in nodes.iter().enumerate() {
            if let Some(t) = tweaked(layer) {
                changed.push((layer.kind_name(), edit(&|n| n[i].1 = t.clone())));
            }
        }
        for (what, hash) in changed {
            assert_ne!(hash, base, "changing the {what} kept the hash");
        }
    }

    #[test]
    fn dropout_rates_hash_by_bit_pattern() {
        let with_rate = |rate: f32| {
            let mut nodes = every_layer();
            let i = nodes.iter().position(|n| n.1.kind_name() == "dropout");
            nodes[i.unwrap()].1 = Layer::Dropout { rate };
            hash_of("g", 3, &nodes, nodes.len() - 1)
        };
        assert_ne!(with_rate(0.0), with_rate(-0.0));
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let a = cnn_ir::zoo::build("mobilenet").unwrap();
        let b = cnn_ir::zoo::build("mobilenet").unwrap();
        let c = cnn_ir::zoo::build("alexnet").unwrap();
        assert_eq!(model_content_hash(&a), model_content_hash(&b));
        assert_ne!(model_content_hash(&a), model_content_hash(&c));
    }

    #[test]
    fn cached_analysis_matches_uncached() {
        let model = cnn_ir::zoo::build("mobilenet").unwrap();
        let cached = profile_model_cached(&model).unwrap();
        let uncached =
            AnalyzedModel::compute(&model, DEFAULT_SM_TARGET, &ExecBudget::default()).unwrap();
        assert_eq!(
            cached.profile.ptx_instructions,
            uncached.profile.ptx_instructions
        );
        assert_eq!(
            cached.profile.trainable_params,
            uncached.profile.trainable_params
        );
        assert_eq!(
            cached.counts.thread_instructions,
            uncached.counts.thread_instructions
        );
        assert_eq!(cached.counts.warp_issues, uncached.counts.warp_issues);
        assert_eq!(cached.plan.launches.len(), uncached.plan.launches.len());
        assert_eq!(cached.summary.neurons, uncached.summary.neurons);
    }

    #[test]
    fn target_is_part_of_the_key() {
        let model = cnn_ir::zoo::build("mobilenet").unwrap();
        let a = analyze_cached(&model, "sm_61", &ExecBudget::default()).unwrap();
        let b = analyze_cached(&model, "sm_70", &ExecBudget::default()).unwrap();
        assert_eq!(a.plan.module.target, "sm_61");
        assert_eq!(b.plan.module.target, "sm_70");
        // counts are target-independent even though the plans differ
        assert_eq!(a.counts.thread_instructions, b.counts.thread_instructions);
    }

    #[test]
    fn cached_analysis_carries_counting_provenance() {
        let model = cnn_ir::zoo::build("mobilenet").unwrap();
        let a = profile_model_cached(&model).unwrap();
        let c = &a.counting;
        assert!(c.kernels > 0);
        assert!(c.unique_launches > 0);
        // the default (auto) mode consults the poly tier for every kernel:
        // each one either compiled or was explicitly rejected
        assert_eq!(c.mode, ptx_analysis::CountMode::Auto);
        assert_eq!(c.poly_compiled + c.poly_rejected, c.kernels);
    }

    #[test]
    fn repeated_analysis_returns_the_same_arc() {
        let model = cnn_ir::zoo::build("mobilenet").unwrap();
        let a = profile_model_cached(&model).unwrap();
        let b = profile_model_cached(&model).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn a_zoo_name_finds_the_models_one_analysis() {
        let by_name = |name| {
            let zoo = resolve_zoo(name).expect("a zoo name resolves");
            analyze_zoo(zoo, &ExecBudget::default()).unwrap()
        };
        let a = by_name("ResNet50");
        let b = by_name("resnet50");
        let c = profile_model_cached(&cnn_ir::zoo::build_any("resnet50").unwrap()).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "names differing in case share the analysis"
        );
        assert!(Arc::ptr_eq(&a, &c), "the name finds the graph's analysis");
        assert!(resolve_zoo("not-a-model").is_none());
    }
}
