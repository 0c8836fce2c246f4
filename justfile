# Development tasks. `just ci` is what the GitHub Actions workflow runs.

default: ci

# Format check + lints + tests: the merge gate.
ci: fmt-check clippy test

fmt:
    cargo fmt --all

fmt-check:
    cargo fmt --all -- --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo test -q --workspace

# Fault/chaos acceptance suites. Seeds are fixed in the test sources, so a
# pass is reproducible byte-for-byte; `timeout` is the last-resort watchdog
# should the deadline machinery itself wedge. Then the hang drill: three of
# four cells hang, each is cancelled once its 200 ms silence limit passes,
# and the build still exits 0 with its counter invariants holding.
chaos:
    #!/usr/bin/env bash
    set -euo pipefail
    timeout 600 cargo test -q --test chaos_engine --test fault_tolerance
    timeout 300 cargo test -q -p cnnperf-core --test breaker_props
    cargo build --release
    out=target/hang-drill.out
    timeout 120 target/release/cnnperf corpus --models alexnet,mobilenet \
        --devices "GTX 1080 Ti,V100S" --chaos hang=0.5,seed=7 --cell-timeout-ms 200 \
        --stats json > "$out"
    grep -q ', 3 timed out$' "$out" || { echo "hang drill: expected 3 timed-out cells"; exit 1; }
    target/release/cnnperf stats-check "$out"
    echo "chaos OK"

build:
    cargo build --release --workspace

# End-to-end acceptance drill for the estimation server: start the daemon
# on a Unix socket, run a mixed-QoS NDJSON burst that includes malformed /
# oversized / unknown-op frames, then SIGTERM it and require a clean
# graceful drain (exit 0, typed outcomes throughout, no panics). The
# seeded protocol/scheduler chaos suite rides along.
serve-smoke:
    cargo build --release
    timeout 300 cargo run --release --example serve_smoke
    timeout 600 cargo test -q --test server_robustness --test server_coalesce

# Load test: 16 connections pipeline 10k+ concurrent requests at the
# daemon. Asserts interactive p99 stays under its deadline and that load
# shedding hits best-effort first (never interactive), then drains.
serve-bench:
    cargo build --release
    timeout 900 cargo run --release --example serve_bench

# Regenerate every paper table/figure (writes CSVs under target/figures/).
tables:
    cargo run --release -p cnnperf-bench --bin table1_model_zoo
    cargo run --release -p cnnperf-bench --bin table2_regressors
    cargo run --release -p cnnperf-bench --bin table3_importance
    cargo run --release -p cnnperf-bench --bin fig4_pred_vs_actual
    cargo run --release -p cnnperf-bench --bin table4_speedup

# Robust corpus build under the harsh fault preset, with health report.
corpus-harsh:
    cargo run --release -- corpus --runs 5 --fault-profile harsh

# End-to-end observability smoke: estimate 8 models on all 9 devices (72
# requests) with `--stats json`, require every request served, then
# validate the snapshot's schema and counter invariants with
# `stats-check`. Every device after a model's first reads its one
# analysis, so the `analysis.cache.*` invariants (hits + misses ==
# lookups, evictions <= misses) see hits and misses, and
# `engine.requests` is checked on a batch of more than 64.
stats-smoke:
    mkdir -p target
    cargo run --release -- estimate \
        "alexnet,mobilenet,squeezenet1.1,shufflenet_g4,vit-micro,bert-micro,gpt-micro,deit-micro" \
        --all-devices --tiers analytical --deadline-ms 60000 --stats json > target/stats-smoke.out
    cargo run --release -- stats-check target/stats-smoke.out
    grep -q '^served 72/72 ' target/stats-smoke.out

# Kill-resume smoke: SIGKILL a journaled corpus build mid-flight, resume
# it, and require the resumed canonical corpus to be byte-identical to an
# uninterrupted build's. `stats-check` gates the journal.* counter
# invariants on the resumed run's snapshot. Then run the journal
# suite pinned to one CPU, where the workers journal one after another.
resume-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release
    bin=target/release/cnnperf
    dir=target/resume-smoke
    rm -rf "$dir" && mkdir -p "$dir"
    "$bin" corpus --journal-dir "$dir/journal" --out "$dir/interrupted.json" &
    pid=$!
    # the whole build takes about 6 s on 2 vCPUs: kill well inside it
    sleep 2
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    echo "--- resuming after SIGKILL ---"
    "$bin" corpus --journal-dir "$dir/journal" --resume --cell-timeout-ms 60000 \
        --out "$dir/resumed.json" --stats json > "$dir/resume.out"
    "$bin" stats-check "$dir/resume.out"
    grep -q '"journal.replayed":' "$dir/resume.out" || { echo "no cells replayed"; exit 1; }
    echo "--- clean uninterrupted build ---"
    "$bin" corpus --out "$dir/clean.json"
    cmp "$dir/resumed.json" "$dir/clean.json"
    echo "--- journal suite on one CPU (one-worker record order) ---"
    taskset -c 0 cargo test -q --test journal_resume
    echo "resume-smoke OK: resumed corpus is byte-identical to a clean build"

# Lifecycle smoke: serve with a snapshot store, then replay the crash
# story of a SIGKILL landing mid-snapshot-write (a torn next-version file
# plus an orphaned temp file). The restarted server must quarantine the
# torn snapshot, cold-start from the previous valid version, and answer
# byte-identically to the pre-crash run — generation attribution
# included. `stats-check` gates the modelstore.* / lifecycle.* invariants
# on the restarted run's snapshot.
lifecycle-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release
    bin=target/release/cnnperf
    dir=target/lifecycle-smoke
    mdir="$dir/models"
    rm -rf "$dir" && mkdir -p "$dir"
    # arm the shared corpus cache (full paper corpus; instant when warm)
    "$bin" predict alexnet "GTX 1080 Ti" > /dev/null
    req='{"id":"smoke","model":"alexnet","device":"GTX 1080 Ti"}'
    echo "--- first run: cold-start trains from corpus, snapshots v1 ---"
    echo "$req" | "$bin" serve --model-dir "$mdir" --tiers regressor --stats-dump json \
        > "$dir/first.out" 2> "$dir/first.err"
    grep -q 'cold-start trained from corpus' "$dir/first.err"
    "$bin" models list --model-dir "$mdir" | grep -q 'v000001'
    echo "--- crash story: snapshot write torn by SIGKILL ---"
    head -c 100 "$mdir/predictor-v000001.json" > "$mdir/predictor-v000002.json"
    printf '{"torn":' > "$mdir/predictor-v000002.json.tmp.99999"
    echo "--- restart: torn file quarantined, v1 serves byte-identically ---"
    echo "$req" | "$bin" serve --model-dir "$mdir" --tiers regressor --stats-dump json \
        > "$dir/second.out" 2> "$dir/second.err"
    grep -q 'cold-start from snapshot v1' "$dir/second.err"
    test -f "$mdir/predictor-v000002.json.corrupt"
    test ! -e "$mdir/predictor-v000002.json.tmp.99999"
    grep '"id":"smoke"' "$dir/first.out" > "$dir/first.resp"
    grep '"id":"smoke"' "$dir/second.out" > "$dir/second.resp"
    cmp "$dir/first.resp" "$dir/second.resp"
    grep -q '"generation":1' "$dir/second.resp"
    "$bin" stats-check "$dir/second.out"
    "$bin" models pin 1 --model-dir "$mdir"
    "$bin" models list --model-dir "$mdir" | grep -q 'pinned'
    "$bin" models unpin --model-dir "$mdir"
    echo "lifecycle-smoke OK: torn snapshot quarantined, v1 served byte-identically"

# Storage-fault acceptance. Four layers: the crash-point enumeration
# oracle (every mutating VFS op in the journal / cache / modelstore
# workloads is a crash point, and every enumerated crash must recover
# invariant-clean), the scrub oracle (at every crash point of one workload
# over all three stores, a scrubbed image opens with nothing left to
# repair and recovers what the stores recover on their own), the SimFs
# model-based property suite (any seeded op and crash schedule yields a
# durable image equal to an fsync-consistent prefix of the op history),
# and two RealFs drills: a journaled mini corpus build must issue real
# fsyncs (vfs.sync_file / vfs.sync_dir nonzero in the stats snapshot),
# and `scrub` over a fault-littered state dir must repair everything it
# finds, exit 0, and leave a second pass with nothing but quarantine
# evidence.
crash-sim:
    #!/usr/bin/env bash
    set -euo pipefail
    timeout 600 cargo test -q --test crash_enum
    timeout 600 cargo test -q --test scrub_recovery
    timeout 300 cargo test -q -p cnnperf-core --test vfs_props
    cargo build --release
    bin=target/release/cnnperf
    dir=target/crash-sim
    rm -rf "$dir" && mkdir -p "$dir"
    echo "--- RealFs durability smoke: journaled mini corpus build ---"
    "$bin" corpus --models alexnet --devices "GTX 1080 Ti" \
        --journal-dir "$dir/journal" --out "$dir/corpus.json" \
        --stats json > "$dir/corpus.out"
    "$bin" stats-check "$dir/corpus.out"
    grep -Eq '"vfs.sync_file":[1-9]' "$dir/corpus.out"
    grep -Eq '"vfs.sync_dir":[1-9]' "$dir/corpus.out"
    echo "--- scrub drill: fault-littered state dir ---"
    sdir="$dir/state"
    mkdir -p "$sdir"
    printf 'not json' > "$sdir/corpus.json"
    printf 'garbage\n' > "$sdir/segment-00000.jsonl"
    printf '{"partial":' > "$sdir/predictor-v000001.json.tmp.12345"
    printf '{"torn":' > "$sdir/predictor-v000002.json"
    printf '7' > "$sdir/PINNED"
    "$bin" scrub "$sdir" --stats json > "$dir/scrub.out"
    "$bin" stats-check "$dir/scrub.out"
    grep -Eq '"scrub.findings":[1-9]' "$dir/scrub.out"
    grep -Eq '"scrub.repaired":[1-9]' "$dir/scrub.out"
    grep -q ' 0 unrepaired' "$dir/scrub.out"
    test -f "$sdir/corpus.json.corrupt"
    test ! -e "$sdir/predictor-v000001.json.tmp.12345"
    test ! -e "$sdir/PINNED"
    "$bin" scrub "$sdir" > "$dir/scrub2.out"
    grep -q ' 0 unrepaired' "$dir/scrub2.out"
    echo "crash-sim OK: every crash point recovers, fsyncs are real, scrub repairs"

# Decode-reuse ablation for the DCA interpreter. Besides the criterion
# groups, emits target/figures/dca_counting.bench.json (the BENCH
# artifact: decode-per-count vs shared dense program, plus the poly
# counting-tier group) and the obs stats sidecar.
bench-dca:
    cargo bench -p cnnperf-bench --bench dca_counting

# Regenerate the poly counting-tier artifact: per-launch interpreter vs
# compiled trip-count polynomial timings with the median speedup headline
# (target/figures/dca_counting.bench.json, `dca_poly_counting` line).
bench-poly:
    cargo bench -p cnnperf-bench --bench dca_counting -- counting/poly

# Poly counting-tier equivalence gate: the zoo-wide bit-identical
# PlanCount matrix (CNN and transformer zoos), the randomized kernel
# property suite, and the ptx.poly.* counter invariants over real
# estimation traffic — including a zero-fallback gate, since every
# shipped template now poly-compiles.
poly-equivalence:
    cargo test -q --test counting_equivalence
    cargo test -q -p ptx-analysis --test poly_prop
    cargo run --release -- estimate "alexnet,mobilenet" "GTX 1080 Ti,V100S" \
        --tiers analytical --deadline-ms 60000 --stats json > target/poly-smoke.out
    cargo run --release -- stats-check target/poly-smoke.out
    grep -q '"ptx.poly.compiled":' target/poly-smoke.out
    cargo run --release -- estimate "vit-micro,bert-micro,gpt-micro,deit-micro" "A100" \
        --tiers analytical --deadline-ms 60000 --stats json > target/poly-smoke-sm80.out
    cargo run --release -- stats-check target/poly-smoke-sm80.out
    grep -q '"ptx.poly.compiled":' target/poly-smoke-sm80.out

# The Rust sources the ROADMAP counts: crates/, src/, tests/, examples/,
# shims/ and perfbench/src/.
rust_sources := "find crates src tests examples shims perfbench/src -name '*.rs' -not -path '*/target/*'"

# Rust line count over the source set the ROADMAP records.
loc:
    @{{rust_sources}} | xargs cat | wc -l

# Record the benchmark trajectory as BENCH_PR<n>.json at the repo root:
# the measured git revision (`-dirty` when the tree has uncommitted
# changes), the Rust line count, and the final JSON line of each perfbench
# workload at seed 3 for 15 s with tracing off. Writes nothing unless
# every workload reports `"correct": true` and no failed op. `--locked`
# refuses to run, rather than rewrite perfbench/Cargo.lock, when a linked
# crate's dependencies change.
bench-record n:
    #!/usr/bin/env bash
    set -euo pipefail
    rev=$(git describe --always --dirty --abbrev=40)
    loc=$({{rust_sources}} | xargs cat | wc -l)
    runs=()
    for w in dse-cold serve-analytical corpus-build; do
        line=$(cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 3 --seconds 15 --trace 0 | tail -n 1)
        case "$line" in
            *'"correct": true, '*'"failed": 0, '*) ;;
            *) echo "bench-record: $w is not correct or has failed ops: $line" >&2; exit 1 ;;
        esac
        runs+=("    {\"workload\": \"$w\", \"result\": $line}")
    done
    out="BENCH_PR{{n}}.json"
    {
        printf '{\n  "revision": "%s",\n  "loc": %s,\n' "$rev" "$loc"
        printf '  "perfbench": "--seed 3 --seconds 15 --trace 0",\n  "runs": [\n'
        printf '%s,\n%s,\n%s\n' "${runs[@]}"
        printf '  ]\n}\n'
    } > "$out"
    echo "bench-record: wrote $out"
