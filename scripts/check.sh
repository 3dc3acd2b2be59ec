#!/usr/bin/env bash
# Repo quality gate: the tier-1 verify (ROADMAP.md) plus the robustness
# lints. Run from the repo root. Fails fast on the first broken step.
#
#   ./scripts/check.sh          # full gate
#   SKIP_RELEASE=1 ./scripts/check.sh   # debug-only (faster inner loop)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (release) =="
if [ "${SKIP_RELEASE:-0}" != "1" ]; then
  cargo build --release
else
  echo "skipped (SKIP_RELEASE=1)"
fi

# perfbench/ is a workspace of its own that builds against the suite's
# crates by path, so nothing else here compiles it: a workspace API
# change that breaks the benchmark must fail this gate, not the next
# benchmark run.
echo "== benchmark: perfbench builds against the workspace =="
cargo build --offline --release --manifest-path perfbench/Cargo.toml

# The suite promises identical results under every parallelism policy,
# so the whole test matrix runs twice: pinned sequential and pinned to
# a 4-worker pool (FAIREM_JOBS drives Parallelism::Auto).
#
# Every test invocation runs under a hard wall-clock timeout: the
# deadline subsystem exists so nothing can hang, and a regression that
# reintroduces a hang must fail this gate fast, not stall it. The limit
# is generous (the full debug matrix runs in ~1 min on the build box);
# override with CHECK_TEST_TIMEOUT=<secs> on slow machines.
TEST_TIMEOUT="${CHECK_TEST_TIMEOUT:-900}"
run_tests() {
  # timeout(1) sends TERM, then KILL 10s later if the run ignores it.
  local status=0
  timeout --kill-after=10 "$TEST_TIMEOUT" "$@" || status=$?
  if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
    echo "check.sh: FAIL — test run exceeded ${TEST_TIMEOUT}s wall clock (a hang?)" >&2
  fi
  return "$status"
}

echo "== tier-1: workspace tests (FAIREM_JOBS=1, ${TEST_TIMEOUT}s cap) =="
FAIREM_JOBS=1 run_tests cargo test -q --workspace

echo "== tier-1: workspace tests (FAIREM_JOBS=4, ${TEST_TIMEOUT}s cap) =="
FAIREM_JOBS=4 run_tests cargo test -q --workspace

# The chunked feature-generator build must equal the sequential one at
# a size where every column side spans several chunks; that case is too
# slow for the debug matrix above, so it runs here in release.
echo "== equivalence: multi-chunk ScaleMatch build (release, ${TEST_TIMEOUT}s cap) =="
FAIREM_JOBS=4 run_tests cargo test -q --release -p fairem-core \
  --test columnar_equivalence -- --include-ignored

echo "== lints: clippy, warnings denied, unwrap()/expect() banned outside tests =="
cargo clippy --workspace -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== lints: fairem-lint, workspace contracts (DESIGN.md §9) =="
# Three promises checked here: (a) the workspace is clean under the
# full rule catalog and every seeded fixture violation still fires
# exactly as the manifest records — a linter that silently goes blind
# fails the gate just like a dirty workspace does; (b) the emitted
# fairem-lint/3 JSON validates; (c) the parallel per-file pass is
# deterministic — the jobs=1 and jobs=4 reports are byte-identical.
LINT_DIR="$(mktemp -d)"
cargo run -q -p fairem-lint -- --jobs 4 --format json > "$LINT_DIR/jobs4.json"
cargo run -q -p fairem-lint -- --validate-json "$LINT_DIR/jobs4.json"
cargo run -q -p fairem-lint -- --jobs 1 --format json > "$LINT_DIR/jobs1.json"
if ! diff "$LINT_DIR/jobs4.json" "$LINT_DIR/jobs1.json"; then
  echo "check.sh: FAIL — jobs=1 and jobs=4 lint reports diverged" >&2
  exit 1
fi
rm -rf "$LINT_DIR"
cargo run -q -p fairem-lint -- \
  --expect crates/lint/tests/fixtures/expected.lint crates/lint/tests/fixtures

echo "== observability: products audit under --metrics, snapshot validated =="
# The recorder must produce a parseable fairem-obs/1 snapshot on a real
# CLI run; bench_baseline --validate parses it and prints the per-stage
# totals (failing the gate if the schema drifts).
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run -q --release -p fairem360 --bin fairem -- generate \
  --dataset products --out "$OBS_DIR"
cargo run -q --release -p fairem360 --bin fairem -- audit \
  --table-a "$OBS_DIR/tableA.csv" --table-b "$OBS_DIR/tableB.csv" \
  --matches "$OBS_DIR/matches.csv" --sensitive tier --blocking title \
  --metrics "$OBS_DIR/metrics.json" > /dev/null
cargo run -q --release -p fairem-bench --bin bench_baseline -- \
  --validate "$OBS_DIR/metrics.json"

echo "== calibration: citations audit under --calibrate, KS disparity gate =="
# Per-group isotonic calibration must not worsen the fleet's KS
# disparity (the max per-group KS distance vs the overall score
# distribution), the calibrated report section must render, and the
# run's snapshot must still validate as fairem-obs/1.
cargo run -q --release -p fairem360 --bin fairem -- generate \
  --dataset citations --out "$OBS_DIR/cit"
cargo run -q --release -p fairem360 --bin fairem -- audit \
  --table-a "$OBS_DIR/cit/tableA.csv" --table-b "$OBS_DIR/cit/tableB.csv" \
  --matches "$OBS_DIR/cit/matches.csv" --sensitive venue --blocking title \
  --calibrate isotonic --all-thresholds \
  --metrics "$OBS_DIR/calib_metrics.json" > "$OBS_DIR/calib.txt"
cargo run -q --release -p fairem-bench --bin bench_baseline -- \
  --validate "$OBS_DIR/calib_metrics.json"
ks_raw=$(sed -n 's/.*"calib.ks_max.raw": \([0-9.eE+-]*\).*/\1/p' \
  "$OBS_DIR/calib_metrics.json")
ks_cal=$(sed -n 's/.*"calib.ks_max.calibrated": \([0-9.eE+-]*\).*/\1/p' \
  "$OBS_DIR/calib_metrics.json")
if [ -z "$ks_raw" ] || [ -z "$ks_cal" ]; then
  echo "check.sh: FAIL — calibration gauges missing from the snapshot" >&2
  exit 1
fi
if ! awk -v cal="$ks_cal" -v raw="$ks_raw" 'BEGIN { exit !(cal <= raw) }'; then
  echo "check.sh: FAIL — calibration worsened KS disparity ($ks_raw -> $ks_cal)" >&2
  exit 1
fi
if ! grep -q "KS disparity: raw" "$OBS_DIR/calib.txt"; then
  echo "check.sh: FAIL — calibrated audit section missing from the report" >&2
  exit 1
fi
echo "KS disparity $ks_raw -> $ks_cal under per-group isotonic calibration"

echo "== perf: columnar featurization gate =="
# On one fixed Citations batch, sequentially, the columnar path (its
# generator build included) must beat the scalar oracle by >=3x at the
# lower bound of a 95% bootstrap CI over interleaved in-process trials;
# and the 4-worker pool must reach 75% parallel efficiency on a
# ~1e5-pair batch: speedup over sequential divided by min(4, hardware
# threads), i.e. >=1.5x on 2 threads, >=3x on 4+. A regression that
# slows the columnar hot path back down fails the gate here.
cargo run -q --release -p fairem-bench --bin bench_baseline -- --gate

echo "== serve: storm + SIGINT drain (${TEST_TIMEOUT}s cap) =="
# Boot the real release binary (not `cargo run`, so the INT signal
# reaches the server itself), storm it with the mixed client fleet,
# then SIGINT and assert a clean drain: exit 0, and a final snapshot
# that bench_baseline can re-parse. Everything rides under the same
# hard wall-clock cap as the test matrix.
cargo build -q --release -p fairem360 --bin fairem
serve_storm_leg() {
  local log="$OBS_DIR/serve.log"
  ./target/release/fairem serve --port 0 \
    --max-inflight 2 --request-timeout 0.5 --drain-timeout 5 \
    --metrics "$OBS_DIR/serve_metrics.json" > "$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^fairem-serve listening on //p' "$log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "check.sh: FAIL — server never reported its address" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  # Mixed storm: valid + malformed + slow + over-capacity clients.
  # `storm` exits 3 on transport failures, determinism violations, or
  # exhausted retries — any of which fails this gate.
  ./target/release/fairem storm --addr "$addr" --clients 16 --rounds 2
  # Graceful drain: SIGINT must end the process with exit 0 (a forced
  # cut would exit 4) and leave a parseable snapshot behind.
  kill -INT "$pid"
  local status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "check.sh: FAIL — serve exited $status after SIGINT (drain not clean?)" >&2
    cat "$log" >&2
    return 1
  fi
  cat "$log"
  cargo run -q --release -p fairem-bench --bin bench_baseline -- \
    --validate "$OBS_DIR/serve_metrics.json"
}
run_tests bash -c "$(declare -f serve_storm_leg); OBS_DIR='$OBS_DIR' serve_storm_leg"

echo "== sharded: equivalence, kill -9 resume, memory fence (${TEST_TIMEOUT}s cap) =="
# Gates on the windowed, sharded back half (DESIGN.md §11), on a ~1e5
# candidate-pair streamed dataset and then at the ~1e6 acceptance scale:
#   A. --shards 8 produces a byte-identical report to the unsharded run.
#   B. kill -KILL mid-audit, rerun with --resume: the report is still
#      byte-identical and the metrics prove committed shards were
#      skipped, not recomputed.
#   C. a --mem-budget below the floor (the training build, or the
#      resident training features plus retained score vectors plus a
#      one-pair window) exits 2 naming the stage; a budget under
#      the unbudgeted peak completes at --shards 1 and --shards 8,
#      byte-identically, with mem.peak_bytes inside the budget.
#   D. C again at ~1e6 candidate pairs, 40 MiB, --shards 1 and 16.
#   E. every verb the flags reach — calibration, the threshold-free
#      audit, JSON, and the workload dump — is byte-identical at
#      --shards 1, at --shards 8 with checkpoints, and on its resume.
sharded_resume_leg() {
  set -euo pipefail
  local dir="$OBS_DIR/scale"
  local bin=./target/release/fairem
  "$bin" generate --dataset scale --out "$dir"
  local flags=(--table-a "$dir/tableA.csv" --table-b "$dir/tableB.csv"
    --matches "$dir/matches.csv" --sensitive tier --blocking name)

  # Leg A: sharded == unsharded, bit for bit.
  "$bin" audit "${flags[@]}" > "$dir/unsharded.txt"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-eq" \
    > "$dir/sharded.txt"
  if ! diff -q "$dir/unsharded.txt" "$dir/sharded.txt" > /dev/null; then
    echo "check.sh: FAIL — sharded audit diverged from unsharded" >&2
    return 1
  fi

  # Leg B: stall one matcher's score stage so the kill window is wide,
  # poll until some (but not all) shard checkpoints have committed,
  # then SIGKILL — no destructors run, exactly the crash we promise to
  # survive. The resumed run drops the stall flag (the run key excludes
  # fault plans) and must reproduce the uninterrupted report.
  rm -rf "$dir/ckpt-kill"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-kill" \
    --inject-stall DTMatcher:score:400 > "$dir/killed.txt" 2>&1 &
  local pid=$! n=0
  for _ in $(seq 1 400); do
    n=$(ls "$dir/ckpt-kill" 2>/dev/null | grep -c '^shard-' || true)
    if [ "$n" -ge 2 ] && [ "$n" -lt 8 ]; then break; fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.02
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ "$n" -lt 1 ] || [ "$n" -ge 8 ]; then
    echo "check.sh: FAIL — kill window missed ($n shard files committed)" >&2
    return 1
  fi
  echo "killed mid-audit with $n committed shard checkpoint(s)"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-kill" \
    --resume --metrics "$dir/resume-metrics.json" > "$dir/resumed.txt"
  if ! diff -q "$dir/unsharded.txt" "$dir/resumed.txt" > /dev/null; then
    echo "check.sh: FAIL — resumed audit diverged from the uninterrupted report" >&2
    return 1
  fi
  local skipped
  skipped=$(sed -n 's/.*"ckpt.shards_skipped": \([0-9]*\).*/\1/p' \
    "$dir/resume-metrics.json")
  if [ -z "$skipped" ] || [ "$skipped" -lt 1 ]; then
    echo "check.sh: FAIL — resume recomputed every shard (skipped=${skipped:-0})" >&2
    return 1
  fi
  echo "resume skipped $skipped committed shard(s); report identical after kill -9"

  # Leg C: a budget below the floor fails with the data-error
  # exit and names the stage; 4 MiB sits under the unbudgeted run's
  # peak (~4.2 MB), so the windows must narrow — at one shard and at
  # eight — and the report must not change.
  budget_fence 1.5 "$dir/plain-metrics.json" "$dir/unsharded.txt" 4 1 8 \
    "${flags[@]}"
  echo "below-floor budget fences; 4 MiB completes identically at 1 and 8 shards"

  # Leg D: the acceptance scale — ~1e6 candidate pairs, streamed on
  # generation. The unbudgeted run peaks at ~42.7 MB; 40 MiB clears the
  # training transient (~33 MB) and must narrow the scoring windows,
  # while 16 MiB is below the floor.
  local big="$OBS_DIR/scale-1e6"
  "$bin" generate --dataset scale --rows 128000 --block-width 8 --out "$big"
  local bflags=(--table-a "$big/tableA.csv" --table-b "$big/tableB.csv"
    --matches "$big/matches.csv" --sensitive tier --blocking name
    --matchers DTMatcher,LinRegMatcher)
  "$bin" audit "${bflags[@]}" > "$big/plain.txt"
  budget_fence 16 "$big/plain-metrics.json" "$big/plain.txt" 40 1 16 \
    "${bflags[@]}"
  echo "1e6-pair audit completes in 40 MiB at 1 and 16 shards; 16 MiB fences"

  # Leg E: every flag at every shard count, fresh and resumed.
  local verbs=(--calibrate isotonic --all-thresholds --json)
  "$bin" audit "${flags[@]}" "${verbs[@]}" --shards 1 \
    --dump-workload "$dir/dump-1" > "$dir/verbs-1.json"
  rm -rf "$dir/ckpt-verbs"
  "$bin" audit "${flags[@]}" "${verbs[@]}" --shards 8 \
    --checkpoint-dir "$dir/ckpt-verbs" --dump-workload "$dir/dump-8" \
    > "$dir/verbs-8.json"
  "$bin" audit "${flags[@]}" "${verbs[@]}" --shards 8 \
    --checkpoint-dir "$dir/ckpt-verbs" --resume --dump-workload "$dir/dump-r" \
    --metrics "$dir/verbs-resume-metrics.json" > "$dir/verbs-r.json"
  if ! grep -q '"ckpt.shards_skipped": 8' "$dir/verbs-resume-metrics.json"; then
    echo "check.sh: FAIL — the verbs resume did not reuse all 8 shards" >&2
    return 1
  fi
  local n_dumps
  n_dumps=$(ls "$dir/dump-1" | grep -c '^workload_.*\.csv$' || true)
  if [ "$n_dumps" -lt 1 ]; then
    echo "check.sh: FAIL — --dump-workload wrote no CSV" >&2
    return 1
  fi
  for run in 8 r; do
    if ! diff -q "$dir/verbs-1.json" "$dir/verbs-$run.json" > /dev/null; then
      echo "check.sh: FAIL — calibrated JSON report diverged at run $run" >&2
      return 1
    fi
    if ! diff -rq "$dir/dump-1" "$dir/dump-$run" > /dev/null; then
      echo "check.sh: FAIL — dumped workloads diverged at run $run" >&2
      return 1
    fi
  done
  echo "calibrated report and $n_dumps dumped workload(s) identical at 1, 8, and resumed 8 shards"
}

# budget_fence LOW PLAIN_METRICS PLAIN_REPORT BUDGET SHARDS... -- FLAGS...
# (the flags are everything after the shard counts, which are integers).
# LOW MiB must exit 2 naming the stage it did not fit; BUDGET MiB must
# complete at each shard count with the report of PLAIN_REPORT, with
# mem.peak_bytes inside the budget, and below the peak of an unbudgeted
# run (recorded into PLAIN_METRICS) so the windows provably narrowed.
budget_fence() {
  set -euo pipefail
  local bin=./target/release/fairem
  local low="$1" plain_metrics="$2" plain="$3" budget="$4"
  shift 4
  local shard_counts=()
  while [[ "${1:-}" =~ ^[0-9]+$ ]]; do shard_counts+=("$1"); shift; done
  local status=0
  "$bin" audit "$@" --mem-budget "$low" > "$plain.fenced" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "memory budget exceeded at [a-z-]*:" "$plain.fenced"; then
    echo "check.sh: FAIL — ${low} MiB is below the floor but did not fence (exit $status)" >&2
    cat "$plain.fenced" >&2
    return 1
  fi
  "$bin" audit "$@" --metrics "$plain_metrics" > /dev/null
  local limit peak
  limit=$(awk -v m="$budget" 'BEGIN { printf "%d", m * 1024 * 1024 }')
  peak=$(sed -n 's/.*"mem.peak_bytes": \([0-9.eE+-]*\).*/\1/p' "$plain_metrics")
  if ! awk -v p="$peak" -v l="$limit" 'BEGIN { exit !(p > l) }'; then
    echo "check.sh: FAIL — unbudgeted peak $peak fits ${budget} MiB; the leg would not narrow" >&2
    return 1
  fi
  for n in "${shard_counts[@]}"; do
    local out="$plain.budget-$n" metrics="$plain.budget-$n.json"
    "$bin" audit "$@" --mem-budget "$budget" --shards "$n" --metrics "$metrics" > "$out"
    if ! diff -q "$plain" "$out" > /dev/null; then
      echo "check.sh: FAIL — ${budget} MiB audit at --shards $n diverged" >&2
      return 1
    fi
    peak=$(sed -n 's/.*"mem.peak_bytes": \([0-9.eE+-]*\).*/\1/p' "$metrics")
    if [ -z "$peak" ] || ! awk -v p="$peak" -v l="$limit" 'BEGIN { exit !(p <= l) }'; then
      echo "check.sh: FAIL — --shards $n peak ${peak:-?} B over the ${budget} MiB budget" >&2
      return 1
    fi
  done
}
run_tests bash -c "$(declare -f sharded_resume_leg budget_fence); OBS_DIR='$OBS_DIR' sharded_resume_leg"

echo "== check.sh: all gates passed =="
