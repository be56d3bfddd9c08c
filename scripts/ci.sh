#!/usr/bin/env bash
# Local CI gate: the tier-1 checks plus formatting, lints, and the
# conformance-fuzz smoke run.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
#
# Knobs:
#   NLI_THREADS   worker count for the deterministic parallel runtime.
#                 The suite and the fuzz smoke both run at 1 and 4 below,
#                 because the runtime promises bit-identical results at
#                 any worker count (DESIGN.md §3.2) — the fuzz driver's
#                 stdout is compared byte-for-byte across the two.
#   FUZZ_SEED / FUZZ_CASES
#                 fixed seed (default 42) and case count (default 500)
#                 for the fuzz smoke (DESIGN.md §3.4). Any oracle
#                 violation fails the gate; the driver prints a minimized
#                 reproducer plus its replay line.
#   NLI_BENCH=1   opt-in: run the benchmark baseline emitter in smoke mode
#                 (tiny iteration count) and validate the emitted JSON
#                 against the checked-in schema check (crates/bench's
#                 baseline::validate). Refreshing the committed
#                 BENCH_baseline.json uses a bigger --iters; see
#                 EXPERIMENTS.md.
#   NLI_BENCH_SCALED=1
#                 opt-in: run the scaled vectorization ladder on its 10k
#                 rung only (tree-walk vs indexed vs full-scan, with the
#                 built-in three-leg result-conformance gate — the ladder
#                 includes the index-favourable point/range/index_join
#                 rungs) and validate the emitted JSON (crates/bench's
#                 scaled::validate). Refreshing the committed
#                 BENCH_scaled.json uses the default rungs and a bigger
#                 --iters; the 1M rung is behind --full.
#   NLI_BENCH_SERVER=1
#                 opt-in: run the nli-server loadgen smoke — a 200-request
#                 burst (4 clients x 50) against the in-process server at
#                 --exec-workers 1 and 4, under NLI_THREADS=1 and 4, with
#                 the per-client response transcripts byte-compared across
#                 the two runs (the DESIGN.md §3.7 determinism contract on
#                 the wire). Wire latency is measured by perfbench, not
#                 here; see EXPERIMENTS.md.
#   NLI_BENCH_STORAGE=1
#                 opt-in: run the storage-engine smoke — persist the
#                 baseline database, mutate it through journaled DML,
#                 reopen, and byte-compare the seven-query ladder against
#                 the in-memory build; then a reduced crash matrix
#                 (strided fault budgets; the exhaustive sweep lives in
#                 tests/crash_recovery.rs). See DESIGN.md §3.8.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

# The parallel runtime promises bit-identical results at any worker count
# (DESIGN.md §3.2): run the suite sequentially and with a 4-worker pool so
# both the oracle path and the fan-out path gate the merge.
echo "==> cargo test (NLI_THREADS=1)"
NLI_THREADS=1 cargo test -q

echo "==> cargo test (NLI_THREADS=4)"
NLI_THREADS=4 cargo test -q

# perfbench/ is a standalone Cargo workspace, so the workspace build above
# never compiles it: build it and run its self-tests here, so a crate API
# change cannot silently break the repository benchmark.
echo "==> perfbench build + self-tests"
cargo test --release --manifest-path perfbench/Cargo.toml

# Conformance-fuzz smoke (DESIGN.md §3.4): a fixed-seed batch must be
# violation-free at 1 and 4 workers with byte-identical stdout, and the
# negative --inject-bug pass must prove the oracle still fires.
FUZZ_SEED="${FUZZ_SEED:-42}"
FUZZ_CASES="${FUZZ_CASES:-500}"
FUZZ_BIN=target/release/fuzz

echo "==> fuzz smoke (seed=$FUZZ_SEED cases=$FUZZ_CASES, NLI_THREADS=1)"
NLI_THREADS=1 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" > /tmp/nli_fuzz_t1.out

echo "==> fuzz smoke (seed=$FUZZ_SEED cases=$FUZZ_CASES, NLI_THREADS=4)"
NLI_THREADS=4 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" > /tmp/nli_fuzz_t4.out

echo "==> fuzz smoke output is byte-identical across worker counts"
cmp /tmp/nli_fuzz_t1.out /tmp/nli_fuzz_t4.out

# Index scans are an access path, not a semantics change: the same batch
# with every random index declaration suppressed must print the same bytes.
echo "==> fuzz smoke (--no-indexes) is byte-identical to the indexed run"
NLI_THREADS=4 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" --no-indexes > /tmp/nli_fuzz_noidx.out
cmp /tmp/nli_fuzz_t4.out /tmp/nli_fuzz_noidx.out

echo "==> fuzz negative check (--inject-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 100 --inject-bug > /dev/null

echo "==> fuzz negative check (--inject-index-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 200 --inject-index-bug > /dev/null

echo "==> fuzz negative check (--inject-wal-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 40 --inject-wal-bug > /dev/null

# Admin-plane smoke (DESIGN.md §3.9): boot the real
# server binary with slow capture at 0µs, drive a 200-request burst over
# the wire, and reconcile the observability plane end to end — nli-top
# must parse the STATS/STATS TENANT/SLOWLOG/HEALTH frames, the per-tenant
# request counts must sum to the fleet's total, the slow ring must be
# non-empty, and the drain-time SLO report must be written and non-empty.
echo "==> admin plane smoke (nli-server + loadgen --connect + nli-top)"
ADMIN_DIR=$(mktemp -d)
mkfifo "$ADMIN_DIR/stdin"
target/release/nli-server --addr 127.0.0.1:0 \
  --slow-threshold-us 0 --slo-report "$ADMIN_DIR/slo.json" \
  < "$ADMIN_DIR/stdin" > "$ADMIN_DIR/stdout" &
ADMIN_PID=$!
# hold the fifo open for writing so the server does not read EOF early
exec 9> "$ADMIN_DIR/stdin"
for _ in $(seq 1 100); do
  grep -q "listening on" "$ADMIN_DIR/stdout" 2>/dev/null && break
  sleep 0.1
done
ADMIN_ADDR=$(sed -n 's/^nli-server listening on \([0-9.:]*\).*/\1/p' "$ADMIN_DIR/stdout")
test -n "$ADMIN_ADDR" || { echo "server never bound a port"; exit 1; }
target/release/nli-server-loadgen --connect "$ADMIN_ADDR" \
  --clients 4 --requests 50
echo "==> nli-top reconciles per-tenant counts and the slow ring"
target/release/nli-top --addr "$ADMIN_ADDR" --once \
  --expect-requests 200 --require-slowlog
echo quit >&9
exec 9>&-
wait "$ADMIN_PID"
test -s "$ADMIN_DIR/slo.json" || { echo "SLO report missing or empty"; exit 1; }
grep -q '"slow_captured"' "$ADMIN_DIR/slo.json"
rm -rf "$ADMIN_DIR"

# Opt-in perf-baseline smoke: emit with a tiny iteration count, then
# re-read the file through the schema check so emitter and validator
# cannot drift apart.
if [[ "${NLI_BENCH:-0}" == "1" ]]; then
  echo "==> bench baseline smoke (NLI_BENCH=1)"
  target/release/baseline --iters 5 --out /tmp/nli_bench_baseline.json
  target/release/baseline --check /tmp/nli_bench_baseline.json
fi

# Opt-in scaled-ladder smoke: single 10k rung with a tiny iteration count.
# The emitter aborts if the tree-walk and vectorized executors disagree on
# any ladder query, so this doubles as a cheap end-to-end conformance pass.
if [[ "${NLI_BENCH_SCALED:-0}" == "1" ]]; then
  echo "==> bench scaled smoke (NLI_BENCH_SCALED=1)"
  target/release/scaled --rungs 10000 --iters 3 --out /tmp/nli_bench_scaled.json
  target/release/scaled --check /tmp/nli_bench_scaled.json
fi

# Opt-in server smoke: same 200-request burst at two executor-worker
# counts and two pool worker counts; every client's response transcript
# must be byte-identical between the runs.
if [[ "${NLI_BENCH_SERVER:-0}" == "1" ]]; then
  echo "==> server loadgen smoke (NLI_BENCH_SERVER=1)"
  NLI_THREADS=1 target/release/nli-server-loadgen \
    --clients 4 --requests 50 --exec-workers 1 \
    --dump /tmp/nli_server_dump_w1.txt
  NLI_THREADS=4 target/release/nli-server-loadgen \
    --clients 4 --requests 50 --exec-workers 4 \
    --dump /tmp/nli_server_dump_w4.txt
  echo "==> server transcripts are byte-identical across worker counts"
  cmp /tmp/nli_server_dump_w1.txt /tmp/nli_server_dump_w4.txt
fi

# Opt-in storage smoke: persist → journaled DML → reopen must answer the
# seven-query ladder byte-identically to the in-memory build, plus a
# strided crash matrix. The binary exits nonzero on any divergence.
if [[ "${NLI_BENCH_STORAGE:-0}" == "1" ]]; then
  echo "==> storage smoke (NLI_BENCH_STORAGE=1)"
  target/release/storage --stride 3
fi

echo "CI gate passed."
