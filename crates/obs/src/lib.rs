//! Zero-dependency observability for the estimation pipeline: lock-free
//! atomic [`Counter`]s, fixed log2-bucket [`Histogram`]s and RAII
//! [`SpanTimer`]s behind a process-global [`MetricsRegistry`].
//!
//! # Determinism contract
//!
//! The pipeline's replay tests assert byte-identical behaviour across
//! fixed-seed runs, so the layer splits its signals by how reproducible
//! they are:
//!
//! - **Counters count events.** Two identical fixed-seed runs increment
//!   every counter the exact same number of times, so counter values in a
//!   snapshot are fully deterministic.
//! - **Histograms bucket magnitudes.** A *value* histogram (slice sizes,
//!   event counts) is deterministic like a counter. A *duration* histogram
//!   records wall-clock microseconds, so its total `count` is
//!   deterministic but its per-bucket occupancy is not — wall time never
//!   leaks anywhere else.
//!
//! Snapshot rendering keeps that contract visible: metric names are sorted
//! (`BTreeMap`), JSON output is a single line with a fixed key order, and
//! only nonzero buckets are emitted.
//!
//! # Naming scheme
//!
//! Metric names are dot-separated lowercase paths,
//! `<subsystem>.<object>.<detail>`: `engine.cache.hits`,
//! `sim.memo.misses`, `profile.fault.transient`. Duration histograms end
//! in `_us`. Dashes are allowed inside a segment (tier names like
//! `stale-cache`); the Prometheus renderer sanitizes them to underscores.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets in a [`Histogram`]. Bucket 0 holds exact zeros;
/// bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`; the last bucket absorbs
/// everything up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 64;

/// Map a value to its log2 bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket, for the Prometheus `le` label.
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= NUM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing event counter. All operations are relaxed
/// atomics: counters are statistics, never synchronization.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-size log2-bucket histogram of `u64` magnitudes (durations in
/// microseconds, sizes, counts). Lock-free; `sum` wraps on overflow rather
/// than panicking (2^64 µs is ~584k years of recorded time).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v > 0).then_some((i, v))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// RAII timer: records the elapsed wall time (µs) into its histogram when
/// dropped. Bind it (`let _span = ...`) for the scope you want timed.
#[must_use = "a span timer records on drop; an unbound one measures nothing"]
#[derive(Debug)]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    pub fn new(hist: Arc<Histogram>) -> Self {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Point-in-time view of one histogram: only nonzero buckets, as
/// `(bucket_index, count)` pairs in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(usize, u64)>,
}

/// Point-in-time view of every registered metric, with deterministic
/// (sorted) iteration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Value of a counter, zero if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// How much a counter grew since an earlier snapshot.
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// All counters that grew since `earlier`, as name → delta.
    pub fn delta_counters(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .filter(|(_, v)| *v > 0)
            .collect()
    }

    /// Render as a single line of JSON with fixed key order:
    /// `{"schema":1,"counters":{...},"histograms":{...}}`. Hand-rolled so
    /// the crate stays dependency-free; names are escaped per JSON rules.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":1,\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(name, &mut out);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(name, &mut out);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                h.count, h.sum
            );
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{idx}\":{n}");
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }

    /// Render in the Prometheus text exposition format. Names are prefixed
    /// `cnnperf_` and sanitized to `[a-zA-Z0-9_:]`; histograms expose the
    /// standard cumulative `_bucket{le=...}`, `_sum` and `_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, value) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (idx, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(*idx)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("cnnperf_");
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Registry of named metrics. Registration takes a mutex; the returned
/// `Arc<Counter>` / `Arc<Histogram>` handles are lock-free thereafter —
/// hot paths hold a handle (see [`LazyCounter`]) and never re-enter the
/// registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// An RAII timer recording into the duration histogram `name`.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(self.histogram(name))
    }

    /// Consistent-enough point-in-time view of every metric. Individual
    /// loads are relaxed, so a snapshot taken mid-increment may be off by
    /// in-flight events — quiesce the pipeline first when asserting exact
    /// values.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// The process-global registry every subsystem instruments into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A `static`-friendly counter handle: resolves its [`global`] registration
/// on first use, then stays lock-free. Declare once per instrumentation
/// site: `static HITS: LazyCounter = LazyCounter::new("engine.cache.hits");`
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The name this counter registers under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn handle(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    #[inline]
    pub fn inc(&self) {
        self.handle().inc();
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// [`LazyCounter`]'s histogram sibling.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The name this histogram registers under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn handle(&self) -> &Arc<Histogram> {
        self.cell.get_or_init(|| global().histogram(self.name))
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.handle().record(value);
    }

    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.handle().record_duration(d);
    }

    /// An RAII timer over this histogram.
    pub fn span(&self) -> SpanTimer {
        SpanTimer::new(Arc::clone(self.handle()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        // every bucket's upper bound maps back into that bucket
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn counter_concurrent_increments_are_exact() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("t.concurrent"), 80_000);
    }

    #[test]
    fn histogram_counts_and_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1029);
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (2, 1), (11, 1)]);
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let reg = MetricsRegistry::new();
        reg.counter("same").inc();
        reg.counter("same").inc();
        assert_eq!(reg.snapshot().counter("same"), 2);
    }

    #[test]
    fn json_is_single_line_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.histogram("h.sizes").record(5);
        let a = reg.snapshot().to_json();
        let b = reg.snapshot().to_json();
        assert_eq!(a, b, "identical state must render identically");
        assert!(!a.contains('\n'));
        assert_eq!(
            a,
            "{\"schema\":1,\"counters\":{\"a.first\":1,\"b.second\":2},\
             \"histograms\":{\"h.sizes\":{\"count\":1,\"sum\":5,\"buckets\":{\"3\":1}}}}"
        );
    }

    #[test]
    fn prometheus_renders_sanitized_names_and_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.tier.stale-cache.hits").add(3);
        let h = reg.histogram("lat_us");
        h.record(1);
        h.record(100);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("cnnperf_engine_tier_stale_cache_hits 3"));
        assert!(text.contains("cnnperf_lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("cnnperf_lat_us_bucket{le=\"127\"} 2"));
        assert!(text.contains("cnnperf_lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("cnnperf_lat_us_count 2"));
    }

    #[test]
    fn span_timer_records_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _span = reg.span("t.span_us");
        }
        assert_eq!(reg.snapshot().histograms["t.span_us"].count, 1);
    }

    #[test]
    fn lazy_statics_register_globally() {
        static C: LazyCounter = LazyCounter::new("obs.test.lazy");
        static H: LazyHistogram = LazyHistogram::new("obs.test.lazy_hist");
        C.inc();
        C.add(2);
        H.record(7);
        let snap = global().snapshot();
        assert_eq!(snap.counter("obs.test.lazy"), 3);
        assert_eq!(snap.histograms["obs.test.lazy_hist"].count, 1);
    }

    #[test]
    fn counter_delta_between_snapshots() {
        let reg = MetricsRegistry::new();
        reg.counter("d.x").inc();
        let before = reg.snapshot();
        reg.counter("d.x").add(4);
        reg.counter("d.y").inc();
        let after = reg.snapshot();
        assert_eq!(after.counter_delta(&before, "d.x"), 4);
        let deltas = after.delta_counters(&before);
        assert_eq!(deltas["d.x"], 4);
        assert_eq!(deltas["d.y"], 1);
    }
}
