#!/usr/bin/env bash
# One-command verification: configure + build the default preset, run the
# full test suite (which includes the 32-seed chaos smoke), then run a
# 128-seed chaos sweep with the chaos_explore driver — plus a 64-seed
# overload sweep and the retry-storm, stale-primary and leak-root bug
# demonstrators. Any violation fails the script and prints the
# reproducing seed. After the sweep, three
# observability gates: the obs unit suite runs under every preset (the
# asan-chaos ctest filter would otherwise skip it), a seeded
# chaos_explore --metrics --trace --replay must render byte-identical
# metrics and span trees twice, and every bench must emit a non-empty
# latency histogram under PROXY_BENCH_METRICS=1.
#
#   scripts/check.sh              # default preset
#   PRESET=asan-chaos scripts/check.sh   # sanitized build, chaos tests only
#   SEEDS=512 scripts/check.sh    # longer sweep
#   LINT_ONLY=1 scripts/check.sh  # fast pre-commit path: lint, no tests
#   BENCH=1 scripts/check.sh      # also run the perf-trajectory gate:
#                                 # deterministic bench metrics vs the
#                                 # committed bench/BENCH_wire.json, and
#                                 # a 1 s seed-1 run of every hostbench
#                                 # workload, which must report correct
#                                 # (default preset: its exact counts are
#                                 # gated vs bench/BENCH_host.json)
#   NIGHTLY=1 scripts/check.sh    # widen the 10x-client chaos lane to
#                                 # the full seed battery
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${PRESET:-default}"
SEEDS="${SEEDS:-128}"
LINT_ONLY="${LINT_ONLY:-0}"
BENCH="${BENCH:-0}"

case "$PRESET" in
  asan-ubsan) BUILD_DIR="build-asan" ;;
  asan-chaos) BUILD_DIR="build-asan-chaos" ;;
  *) BUILD_DIR="build" ;;
esac

echo "== configure ($PRESET) =="
cmake --preset "$PRESET"

echo "== lint (proxy_lint) =="
# The coroutine-hazard / encapsulation / view-lifetime / wire-symmetry
# analyzer (DESIGN.md §13). New findings fail; pre-existing ones are
# frozen in the checked-in baseline.
cmake --build --preset "$PRESET" -j "$(nproc)" --target proxy_lint
"./$BUILD_DIR/tools/proxy_lint"

if [ "$LINT_ONLY" = "1" ]; then
  # The fast pre-commit path still proves the analyzer itself: its rule
  # suite (fixtures, baseline ratchet, SARIF/diff plumbing) and the
  # lexer hardening suite run directly, without the full ctest cycle.
  echo "== lint self-tests =="
  cmake --build --preset "$PRESET" -j "$(nproc)" \
    --target proxy_lint_test lint_lexer_test
  "./$BUILD_DIR/tests/proxy_lint_test" --gtest_brief=1
  "./$BUILD_DIR/tests/lint_lexer_test" --gtest_brief=1
fi

# clang-tidy rides along when the host has it (the curated .clang-tidy
# covers the generic bugprone/coroutine checks proxy_lint leaves to the
# compiler folks). Advisory unless CLANG_TIDY_STRICT=1: we gate on our
# own analyzer, not on whichever clang-tidy version the host ships.
if command -v clang-tidy > /dev/null && [ -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "== lint (clang-tidy) =="
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  if ! clang-tidy -p "$BUILD_DIR" --quiet "${tidy_sources[@]}"; then
    if [ "${CLANG_TIDY_STRICT:-0}" = "1" ]; then
      echo "FAIL: clang-tidy findings (CLANG_TIDY_STRICT=1)"
      exit 1
    fi
    echo "note: clang-tidy findings above are advisory"
  fi
fi

if [ "$LINT_ONLY" = "1" ]; then
  echo "== OK (lint only) =="
  exit 0
fi

echo "== build =="
cmake --build --preset "$PRESET" -j "$(nproc)"

echo "== ctest =="
ctest --preset "$PRESET" -j "$(nproc)"

echo "== ctest (shard battery) =="
# The sharded-KV battery runs inside the suite above (its tests carry
# both the `shard` and `chaos` labels); this explicit pass proves the
# label wiring under every preset and gives the battery its own line.
ctest --test-dir "$BUILD_DIR" -L shard -j "$(nproc)" --output-on-failure

echo "== ctest (overload battery) =="
# Admission control, priority shedding and the degradation hooks, under
# every preset (same rationale as the shard line above).
ctest --test-dir "$BUILD_DIR" -L overload -j "$(nproc)" --output-on-failure

echo "== chaos sweep ($SEEDS seeds) =="
"./$BUILD_DIR/tools/chaos_explore" --seeds="$SEEDS"

echo "== chaos sweep, sharded ($SEEDS seeds) =="
# Same seeds over the sharded topology: two replica groups behind the
# routing proxy with online migrations through the fault window. Gates
# kv-lost-key / kv-split-shard on top of the replication invariants.
"./$BUILD_DIR/tools/chaos_explore" --seeds="$SEEDS" --sharded

echo "== chaos sweep, overload (64 seeds) =="
# Open-loop priority lanes drowning an admission-controlled server
# through the fault window. Gates no-priority-inversion, bounded-queue,
# shed-not-executed and bounded-retry-amplification.
"./$BUILD_DIR/tools/chaos_explore" --seeds=64 --overload

echo "== chaos sweep, 10x clients (16 seeds) =="
# Ten times the default client count: enough in-flight traffic to land
# writes inside failover races the 4-client workload never reaches (this
# lane found the deposed-primary epoch-stamp race at seed 15). The
# timer-wheel core keeps the bigger topology inside the CI budget; the
# NIGHTLY=1 run widens it to the full seed battery.
"./$BUILD_DIR/tools/chaos_explore" --seeds=16 --clients=40
if [ "${NIGHTLY:-0}" = "1" ]; then
  echo "== chaos sweep, 10x clients, nightly ($SEEDS seeds) =="
  "./$BUILD_DIR/tools/chaos_explore" --seeds="$SEEDS" --clients=40
  echo "== chaos sweep, 10x clients sharded, nightly (64 seeds) =="
  "./$BUILD_DIR/tools/chaos_explore" --seeds=64 --clients=40 --sharded
fi

echo "== chaos bug demonstrator: retry-storm =="
# The sweep must have teeth: with the client retry governors disabled
# (--bug=retry-storm implies --overload) some seed must trip the
# amplification bound. A sweep that passes a known retry storm proves
# nothing about the governors.
if "./$BUILD_DIR/tools/chaos_explore" --seeds=32 --bug=retry-storm \
    > /dev/null 2>&1; then
  echo "FAIL: retry-storm bug not caught by the 32-seed overload sweep"
  exit 1
fi

echo "== chaos bug demonstrator: stale-primary =="
# Same for epoch fencing: with it disabled (--bug=stale-primary) a
# deposed group primary keeps acknowledging writes, and the sharded
# sweep must report the resulting replication violation.
if "./$BUILD_DIR/tools/chaos_explore" --seeds=64 --sharded \
    --bug=stale-primary > /dev/null 2>&1; then
  echo "FAIL: stale-primary bug not caught by the 64-seed sharded sweep"
  exit 1
fi

echo "== chaos bug demonstrator: leak-root =="
# Frame ownership: with the scheduler's root registry off
# (--bug=leak-root) teardown cannot find the parked roots, and the
# frames-destroyed invariant must report the frames they leave alive at
# every seed (replica watchdogs never finish). The leaked frames' heap
# is leaked too, so LeakSanitizer's report goes to /dev/null with the
# rest of stderr.
leak_out="$("./$BUILD_DIR/tools/chaos_explore" --seeds=8 --bug=leak-root \
  2> /dev/null || true)"
if ! grep -q "sweep: 8 seeds, 8 violating" <<< "$leak_out" ||
    ! grep -q "frames-destroyed" <<< "$leak_out"; then
  echo "FAIL: leak-root bug not caught at every seed of the 8-seed sweep"
  exit 1
fi

echo "== obs unit tests =="
"./$BUILD_DIR/tests/obs_test" --gtest_brief=1

echo "== observability replay determinism =="
# --replay exits non-zero unless metrics tables AND span trees match
# byte-for-byte across the two runs.
"./$BUILD_DIR/tools/chaos_explore" --seed=7 --metrics --trace --replay \
  > /dev/null

echo "== bench histogram gate =="
# Every simulator bench must exercise the instrumented call path: its
# metrics footer has to contain a latency histogram with count >= 1.
# (bench_marshalling is exempt: pure-CPU google-benchmark, no RPC.)
for bench in "./$BUILD_DIR"/bench/bench_*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  [ "$name" = "bench_marshalling" ] && continue
  # Capture, then grep: under pipefail a `bench | grep -q` pipeline fails
  # with SIGPIPE when grep matches early and the bench keeps writing.
  out="$(PROXY_BENCH_METRICS=1 "$bench" 2>/dev/null)"
  if ! grep -q "call_ns count=[1-9]" <<< "$out"; then
    echo "FAIL: $name emitted no non-empty latency histogram"
    exit 1
  fi
done

if [ "$BENCH" = "1" ]; then
  echo "== perf trajectory gate =="
  # The gate compares only deterministic metrics (virtual-time throughput
  # and WireCopyCounter bytes-copied-per-op), so it is safe on loaded CI
  # machines; a >10% regression against the committed trajectory fails.
  python3 scripts/perf_gate.py --self-test
  wire_jsonl="$BUILD_DIR/bench_wire_current.jsonl"
  rm -f "$wire_jsonl"
  PROXY_BENCH_JSON="$wire_jsonl" PROXY_BENCH_SKIP_WALL=1 \
    "./$BUILD_DIR/bench/bench_marshalling" > /dev/null
  PROXY_BENCH_JSON="$wire_jsonl" "./$BUILD_DIR/bench/bench_lrpc" > /dev/null
  PROXY_BENCH_JSON="$wire_jsonl" "./$BUILD_DIR/bench/bench_replication" \
    > /dev/null
  PROXY_BENCH_JSON="$wire_jsonl" "./$BUILD_DIR/bench/bench_overload" \
    > /dev/null
  PROXY_BENCH_JSON="$wire_jsonl" "./$BUILD_DIR/bench/bench_sim_core" \
    > /dev/null
  python3 scripts/perf_gate.py --baseline bench/BENCH_wire.json \
    --current "$wire_jsonl"

  echo "== hostbench gate =="
  # hostbench builds its own copy of src/ (into .bench_build/), so only
  # running it shows that a src/ change still builds there and that every
  # workload's output checks pass. One second per workload and mode at
  # seed 1: --trace 0 for allocations and virtual latency, --trace 1 for
  # scheduler events per op. These counts are exact for one build, but
  # they depend on the toolchain's libstdc++, so they are gated against
  # bench/BENCH_host.json on the default preset only. The timings are
  # never gated.
  host_jsonl="$BUILD_DIR/bench_host_current.jsonl"
  rm -f "$host_jsonl"
  for workload in rpc_small kv_bulk kv_sharded_open kv_cached_zipf; do
    plain="$(python3 hostbench/run.py --workload "$workload" --seed 1 \
      --seconds 1 | tail -n 1)"
    traced="$(python3 hostbench/run.py --workload "$workload" --seed 1 \
      --seconds 1 --trace 1 | tail -n 1)"
    if ! python3 scripts/perf_gate.py --hostbench "$workload" "$plain" \
        "$traced" >> "$host_jsonl"; then
      echo "FAIL: hostbench $workload did not report correct=true"
      exit 1
    fi
  done
  if [ "$PRESET" = "default" ]; then
    python3 scripts/perf_gate.py --baseline bench/BENCH_host.json \
      --current "$host_jsonl"
  fi
fi

echo "== OK =="
