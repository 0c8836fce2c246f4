//! The counter invariants the instrumentation promises, declared once.
//!
//! [`INVARIANTS`] lists every rule in the notation of DESIGN.md §5c:
//!
//! - `a + b == c` and `a <= b` compare two sums of counters;
//! - `a > 0 ⇒ b > 0` checks the comparison on the right only where the
//!   one on the left holds;
//! - a term is a counter name, an integer, or `prefix.*`, the sum of every
//!   counter whose name starts with `prefix.`; an absent counter reads 0;
//! - `guard: rule` applies the rule only where a counter of the guard
//!   (`+`-separated) is present, that is, where its subsystem ran.
//!
//! `cnnperf stats-check` evaluates the table over a `--stats json`
//! snapshot, and the tests over the counter deltas of their own runs.

use std::collections::BTreeMap;
use std::fmt;

/// Every counter invariant, with the reason it holds.
pub const INVARIANTS: &[&str] = &[
    // every request entering the engine ends in exactly one outcome
    "engine.requests: engine.outcome.served + engine.outcome.exhausted == engine.requests",
    // every stale-cache lookup is a hit or a miss
    "engine.cache.lookups: engine.cache.hits + engine.cache.misses == engine.cache.lookups",
    // every consultation of a tier is an attempt (cache lookups, breaker-open
    // rejections and deadline-spent short-circuits included), and the engine
    // records each attempt as exactly one success or one classified failure
    "engine.tier.detailed.attempts: engine.tier.detailed.success + engine.tier.detailed.failure.* == engine.tier.detailed.attempts",
    "engine.tier.analytical.attempts: engine.tier.analytical.success + engine.tier.analytical.failure.* == engine.tier.analytical.attempts",
    "engine.tier.regressor.attempts: engine.tier.regressor.success + engine.tier.regressor.failure.* == engine.tier.regressor.attempts",
    "engine.tier.stale-cache.attempts: engine.tier.stale-cache.success + engine.tier.stale-cache.failure.* == engine.tier.stale-cache.attempts",
    // every analysis lookup is a hit or a miss
    "analysis.cache.lookups: analysis.cache.hits + analysis.cache.misses == analysis.cache.lookups",
    // eviction can never outpace insertion
    "analysis.cache.lookups: analysis.cache.evictions <= analysis.cache.misses",
    // poly counting tier: every compile attempt either produced a
    // polynomial or fell back to the interpreter — the split is exhaustive
    "ptx.poly.attempts: ptx.poly.compiled + ptx.poly.fallbacks == ptx.poly.attempts",
    // a compiled kernel is always evaluated at least once (compilation
    // only happens on the counting path), so warm poly traffic shows up
    "ptx.poly.attempts: ptx.poly.compiled > 0 ⇒ ptx.poly.evals > 0",
    // an evaluation-time fallback is a subset of evaluations
    "ptx.poly.attempts: ptx.poly.eval_fallbacks <= ptx.poly.evals",
    // every shipped kernel template compiles on the poly tier since the
    // tid-sloped strided-loop and gemm_micro guard fixes, so a
    // compile-time fallback in a template-driven run is a regression
    "ptx.poly.attempts: ptx.poly.fallbacks == 0",
    // every cell of a completed corpus build is either replayed from the
    // journal or computed; the split must account for all of them
    "journal.replayed + journal.computed: corpus.cells.* > 0 ⇒ journal.replayed + journal.computed == corpus.cells.*",
    // a journaling build appends at least one record per computed cell
    "journal.appends: journal.computed <= journal.appends",
    // every scanned snapshot is either loaded or quarantined — the store
    // validates exclusively inside scan(), so the split is exhaustive
    "modelstore.snapshots.scanned: modelstore.snapshots.loaded + modelstore.snapshots.quarantined == modelstore.snapshots.scanned",
    // lifecycle: every retrain that reaches the shadow gate is promoted
    // or rejected, never both; cycles skipped for lack of data or lost
    // races don't reach the gate, so the sum is bounded by retrains
    "lifecycle.retrains: lifecycle.promotions + lifecycle.rejections <= lifecycle.retrains",
    // a shadow evaluation precedes every gate decision
    "lifecycle.retrains: lifecycle.promotions + lifecycle.rejections <= lifecycle.shadow.evals",
    // a rollback only ever follows a drift trip
    "lifecycle.rollbacks <= lifecycle.drift.trips",
    // every promotion that has a store attached writes a snapshot (and
    // cold-start training writes one too), so written >= promotions
    // whenever a store was in play
    "modelstore.snapshots.written: lifecycle.promotions <= modelstore.snapshots.written",
    // vfs fault injection can only tag operations that actually ran
    "vfs.injected <= vfs.ops",
    // sync calls are themselves vfs operations
    "vfs.sync_file + vfs.sync_dir <= vfs.ops",
    // scrub never repairs more than it found
    "scrub.repaired <= scrub.findings",
    // server admission: every request is admitted, shed, or rejected while
    // draining — same determinism contract as the engine.* counters
    "server.requests: server.admitted + server.shed + server.rejected.draining == server.requests",
    // every shed request is also counted under its QoS class
    "server.requests: server.shed.* == server.shed",
    // a coalesced request is by definition an admitted one
    "server.requests: server.coalesced <= server.admitted",
    // every admitted request resolves at most once: computed or
    // drain-flushed, never both
    "server.requests: server.completed + server.drain.flushed <= server.admitted",
    // drain-phase resolutions are a subset of all resolutions
    "server.requests: server.drained <= server.completed + server.drain.flushed",
];

/// A broken rule with the values of its two sides. For `A ⇒ B` they are
/// the left-hand sums of `A` and of `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub lhs: u64,
    pub rhs: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (left {}, right {})", self.rule, self.lhs, self.rhs)
    }
}

/// The violation of `rule`, if it applies to `counters` and breaks.
fn check(rule: &'static str, counters: &BTreeMap<String, u64>) -> Option<Violation> {
    let (guard, body) = rule.split_once(": ").unwrap_or(("", rule));
    let armed = guard.is_empty()
        || guard
            .split(" + ")
            .any(|t| counters.keys().any(|k| names(t, k)));
    let (holds, lhs, rhs) = match body.split_once(" ⇒ ") {
        Some((cond, then)) => {
            let (applies, a, _) = compare(counters, cond);
            let (ok, b, _) = compare(counters, then);
            (!applies || ok, a, b)
        }
        None => compare(counters, body),
    };
    (armed && !holds).then_some(Violation { rule, lhs, rhs })
}

/// Every rule of [`INVARIANTS`] that `counters` break.
pub fn check_invariants(counters: &BTreeMap<String, u64>) -> Vec<Violation> {
    INVARIANTS
        .iter()
        .filter_map(|r| check(r, counters))
        .collect()
}

/// Whether `term` names the counter `name`, itself or as a `prefix.*`.
fn names(term: &str, name: &str) -> bool {
    match term.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == term,
    }
}

fn sum(counters: &BTreeMap<String, u64>, expr: &str) -> u64 {
    let term = |t: &str| -> u64 {
        t.parse().unwrap_or_else(|_| {
            counters
                .iter()
                .filter(|(k, _)| names(t, k))
                .map(|(_, v)| v)
                .sum()
        })
    };
    expr.split(" + ").map(term).sum()
}

/// Evaluate `a OP b`: whether it holds, and both sides.
fn compare(counters: &BTreeMap<String, u64>, cmp: &str) -> (bool, u64, u64) {
    for op in [" == ", " <= ", " > "] {
        if let Some((a, b)) = cmp.split_once(op) {
            let (a, b) = (sum(counters, a), sum(counters, b));
            let holds = match op {
                " == " => a == b,
                " <= " => a <= b,
                _ => a > b,
            };
            return (holds, a, b);
        }
    }
    panic!("invariant `{cmp}` has no comparison")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(spec: &str) -> BTreeMap<String, u64> {
        spec.split_whitespace()
            .map(|kv| {
                let (k, v) = kv.split_once('=').expect("name=value");
                (k.to_string(), v.parse().expect("integer value"))
            })
            .collect()
    }

    /// Per rule, in table order: counters that break it, then ` | ` and the
    /// counters whose new values repair it.
    const CASES: &[&str] = &[
        "engine.requests=3 engine.outcome.served=2 | engine.outcome.exhausted=1",
        "engine.cache.lookups=2 engine.cache.hits=1 | engine.cache.misses=1",
        "engine.tier.detailed.attempts=2 engine.tier.detailed.success=1 | engine.tier.detailed.failure.timeout=1",
        "engine.tier.analytical.attempts=1 engine.tier.analytical.failure.panic=2 | engine.tier.analytical.attempts=2",
        "engine.tier.regressor.attempts=1 | engine.tier.regressor.success=1",
        "engine.tier.stale-cache.attempts=3 engine.tier.stale-cache.failure.cache-miss=2 | engine.tier.stale-cache.success=1",
        "analysis.cache.lookups=2 analysis.cache.hits=1 | analysis.cache.misses=1",
        "analysis.cache.lookups=0 analysis.cache.evictions=1 | analysis.cache.misses=1",
        "ptx.poly.attempts=2 ptx.poly.compiled=1 | ptx.poly.compiled=2",
        "ptx.poly.attempts=1 ptx.poly.compiled=1 | ptx.poly.evals=4",
        "ptx.poly.attempts=0 ptx.poly.eval_fallbacks=1 | ptx.poly.evals=1",
        "ptx.poly.attempts=1 ptx.poly.fallbacks=1 | ptx.poly.fallbacks=0",
        "journal.computed=3 corpus.cells.ok=2 corpus.cells.timeout=2 | journal.replayed=1",
        "journal.appends=1 journal.computed=2 | journal.appends=2",
        "modelstore.snapshots.scanned=2 modelstore.snapshots.loaded=1 | modelstore.snapshots.scanned=1",
        "lifecycle.retrains=1 lifecycle.promotions=1 lifecycle.rejections=1 lifecycle.shadow.evals=2 | lifecycle.retrains=2",
        "lifecycle.retrains=2 lifecycle.rejections=2 lifecycle.shadow.evals=1 | lifecycle.shadow.evals=2",
        "lifecycle.rollbacks=1 | lifecycle.drift.trips=1",
        "modelstore.snapshots.written=0 lifecycle.promotions=1 | modelstore.snapshots.written=1",
        "vfs.injected=1 | vfs.ops=1",
        "vfs.ops=1 vfs.sync_file=1 vfs.sync_dir=1 | vfs.ops=2",
        "scrub.findings=1 scrub.repaired=2 | scrub.findings=2",
        "server.requests=2 server.admitted=1 | server.rejected.draining=1",
        "server.requests=1 server.shed=1 server.shed.batch=2 | server.shed.batch=1",
        "server.requests=1 server.coalesced=1 | server.admitted=1",
        "server.requests=1 server.admitted=1 server.completed=1 server.drain.flushed=1 | server.completed=0",
        "server.requests=1 server.drained=1 | server.drain.flushed=1",
    ];

    #[test]
    fn every_rule_breaks_holds_and_is_skipped_without_its_guard() {
        assert_eq!(CASES.len(), INVARIANTS.len(), "one case per rule");
        for (rule, case) in INVARIANTS.iter().zip(CASES) {
            let (breaks, repair) = case.split_once(" | ").expect("`breaks | repair`");
            let mut map = counters(breaks);
            let reported = check_invariants(&map);
            assert!(
                reported.iter().any(|v| v.rule == *rule),
                "`{rule}` not reported on {breaks}: {reported:?}"
            );
            if let Some((guard, _)) = rule.split_once(": ") {
                let mut unguarded = map.clone();
                unguarded.retain(|k, _| !guard.split(" + ").any(|g| names(g, k)));
                assert_eq!(check(rule, &unguarded), None, "`{rule}` ran unguarded");
            }
            map.extend(counters(repair));
            assert_eq!(check(rule, &map), None, "`{rule}` reported on {case}");
        }
    }

    #[test]
    fn violations_carry_both_sides() {
        let map = counters("engine.requests=3 engine.outcome.served=2");
        let v = check_invariants(&map);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].lhs, v[0].rhs), (2, 3));
        assert!(v[0].to_string().ends_with("(left 2, right 3)"), "{}", v[0]);
        // an implication reports its two left-hand sums
        let map = counters("ptx.poly.attempts=5 ptx.poly.compiled=5");
        let v = check_invariants(&map);
        let rule = "ptx.poly.attempts: ptx.poly.compiled > 0 ⇒ ptx.poly.evals > 0";
        assert_eq!(
            v,
            [Violation {
                rule,
                lhs: 5,
                rhs: 0
            }]
        );
    }

    #[test]
    fn a_family_sums_its_members_only() {
        // `server.shed.*` excludes `server.shed` itself and `server.shedder`
        let map = counters(
            "server.shed=3 server.shed.batch=1 server.shed.interactive=2 server.shedder=9",
        );
        assert_eq!(sum(&map, "server.shed.*"), 3);
        assert_eq!(sum(&map, "server.shed + 4"), 7);
        // a guard counter present at zero still arms its rule
        let map = counters("engine.requests=0 engine.outcome.served=1");
        assert_eq!(check_invariants(&map).len(), 1);
    }

    #[test]
    fn the_empty_map_keeps_every_rule() {
        assert_eq!(check_invariants(&BTreeMap::new()), vec![]);
    }
}
