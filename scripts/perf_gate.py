#!/usr/bin/env python3
"""Perf-trajectory gate for the wire path and the host counts.

Compares a fresh bench emission (JSONL lines written by the benches when
PROXY_BENCH_JSON is set) against a committed baseline —
bench/BENCH_wire.json for the simulator benches, bench/BENCH_host.json
for hostbench — specifically against the *last* trajectory entry, which
is the performance the tree currently claims. Only metrics marked
deterministic are gated: they come from virtual time, the
serde::WireCopyCounter tally and hostbench's exact per-op counts, so
they are identical across runs of the same build. Wall-clock numbers
ride along in the JSONL for context but are never compared.

A metric regresses when it moves past its margin in the bad direction:

    ops_per_sec_virtual   must stay >= 0.9x baseline  (higher is better)
    ok_reads              must stay >= 0.9x baseline
    bytes_copied_per_op   must stay <= 1.1x baseline  (lower is better)
    mean_read_latency_ns  must stay <= 1.1x baseline
    msgs_per_call         must stay <= 1.1x baseline
    allocs_per_op         must stay <= 1.02x baseline (hostbench)
    ...                   (the full table is RULES below)

Metrics present in the baseline but absent from the current run fail the
gate (a silently-dropped scenario is a regression in coverage). Unknown
metric keys are informational and skipped.

Usage:
    perf_gate.py --baseline bench/BENCH_wire.json --current run.jsonl
    perf_gate.py --hostbench WORKLOAD PLAIN TRACED >> run.jsonl
        # one JSONL record from the last lines of `hostbench/run.py
        # --trace 0` and `--trace 1`; fails unless both say correct
    perf_gate.py --self-test        # prove the gate rejects regressions

Exit status: 0 pass, 1 regression(s), 2 usage/input error.
"""

import argparse
import json
import sys

# metric key -> (direction, margin ratio applied to the baseline value).
# "up" metrics fail below baseline*margin; "down" metrics fail above it.
RULES = {
    "ops_per_sec_virtual": ("up", 0.9),
    "ok_reads": ("up", 0.9),
    "bytes_copied_per_op": ("down", 1.1),
    "mean_read_latency_ns": ("down", 1.1),
    "msgs_per_call": ("down", 1.1),
    # Overload (F8): P0 must keep its goodput at 2x offered load with
    # admission control on, and the admission-off ablation must stay
    # collapsed — if it recovers, the ablation no longer demonstrates
    # the failure mode admission control exists to prevent.
    "p0_goodput_retention_x2": ("up", 0.9),
    "ablation_goodput_fraction_x2": ("down", 1.25),
    # Simulator core (F9): wall-clock events/sec is machine-dependent and
    # rides along uncompared; these deterministic rows pin that the lanes
    # still dispatch the same work (event counts, virtual-time rates).
    "events_run": ("up", 0.9),
    "events_per_virtual_sec": ("up", 0.9),
    "timers_cancelled": ("up", 0.9),
    # hostbench at seed 1 (bench/BENCH_host.json): exact counts of one
    # build, so the margins are tight — one extra allocation per
    # rpc_small op (~27) is +3.7% and fails. Virtual latency is fixed by
    # the link parameters and the event order, so any rise is a change
    # in behaviour.
    "allocs_per_op": ("down", 1.02),
    "alloc_bytes_per_op": ("down", 1.02),
    "vlat_mean_us": ("down", 1.001),
    "vlat_p99_us": ("down", 1.001),
    "sim.events_per_op": ("down", 1.01),
}

# The hostbench metrics gated, by the hostbench mode that reports them.
HOSTBENCH_PLAIN = ("allocs_per_op", "alloc_bytes_per_op", "vlat_mean_us",
                   "vlat_p99_us")
HOSTBENCH_TRACED = ("sim.events_per_op",)


def load_baseline(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("version") != 1 or not doc.get("trajectory"):
        raise ValueError(f"{path}: not a version-1 trajectory file")
    entry = doc["trajectory"][-1]
    if "label" not in entry or "metrics" not in entry:
        raise ValueError(
            f"{path}: last trajectory entry lacks 'label'/'metrics'"
        )
    return entry["label"], entry["metrics"]


def load_current(path):
    """Flattens JSONL bench lines to {bench/scenario/key: value},
    deterministic metrics only."""
    flat = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad JSON ({e})") from e
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            missing = [k for k in ("bench", "scenario", "metrics")
                       if k not in rec]
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: record missing key(s) "
                    f"{', '.join(missing)} — not a bench emission?"
                )
            prefix = f"{rec['bench']}/{rec['scenario']}"
            metrics = rec["metrics"]
            if not isinstance(metrics, dict):
                raise ValueError(f"{path}:{lineno}: 'metrics' is not an object")
            for key, m in metrics.items():
                if not isinstance(m, dict) or "value" not in m:
                    raise ValueError(
                        f"{path}:{lineno}: metric '{key}' has no 'value'"
                    )
                if m.get("deterministic"):
                    flat[f"{prefix}/{key}"] = m["value"]
    return flat


def hostbench_record(workload, plain, traced):
    """One bench JSONL record of the gated hostbench counts, from the
    JSON result lines of a --trace 0 and a --trace 1 run."""
    metrics = {}
    for mode, text, keys in (("--trace 0", plain, HOSTBENCH_PLAIN),
                             ("--trace 1", traced, HOSTBENCH_TRACED)):
        result = json.loads(text)
        if result.get("correct") is not True:
            raise ValueError(f"hostbench {workload} {mode}: not correct")
        for key in keys:
            metric = result["metrics"].get(key)
            if metric is None or metric.get("value") is None:
                raise ValueError(f"hostbench {workload} {mode}: no {key}")
            metrics[key] = {"value": metric["value"], "deterministic": True}
    return {"bench": "hostbench", "scenario": workload, "metrics": metrics}


def check(baseline, current):
    """Returns a list of human-readable failure strings."""
    failures = []
    checked = 0
    for name, base_value in sorted(baseline.items()):
        metric_key = name.rsplit("/", 1)[-1]
        rule = RULES.get(metric_key)
        if rule is None:
            continue
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        direction, margin = rule
        value = current[name]
        checked += 1
        if direction == "up":
            floor = base_value * margin
            if value < floor:
                failures.append(
                    f"{name}: {value:g} < {floor:g} "
                    f"(baseline {base_value:g}, allowed -{(1 - margin):.0%})"
                )
        else:
            ceiling = base_value * margin
            if value > ceiling:
                failures.append(
                    f"{name}: {value:g} > {ceiling:g} "
                    f"(baseline {base_value:g}, allowed +{(margin - 1):.0%})"
                )
    if checked == 0:
        failures.append("no gateable metrics found — empty comparison")
    return failures


def self_test():
    """The gate must reject a deliberately-regressed build and accept an
    identical one. Runs against synthetic data; no benches needed."""
    baseline = {
        "marshalling/wire_path/4096/bytes_copied_per_op": 8281.0,
        "marshalling/decode_request/4096/bytes_copied_per_op": 0.0,
        "lrpc/remote/ops_per_sec_virtual": 3814.64,
        "replication/single/steady/mean_read_latency_ns": 272938.0,
        "replication/single/steady/ok_reads": 300.0,
    }
    if check(baseline, dict(baseline)):
        print("self-test FAIL: identical run was rejected")
        return 1
    regressed = dict(baseline)
    regressed["marshalling/wire_path/4096/bytes_copied_per_op"] = 24744.0
    regressed["lrpc/remote/ops_per_sec_virtual"] = 3814.64 * 0.8
    failures = check(baseline, regressed)
    if len(failures) != 2:
        print(f"self-test FAIL: expected 2 rejections, got {failures}")
        return 1
    # A re-copy regression on a zero-copy metric must also trip: the
    # margin is multiplicative, so the floor for 0 is exactly 0.
    recopied = dict(baseline)
    recopied["marshalling/decode_request/4096/bytes_copied_per_op"] = 1.0
    if not check(baseline, recopied):
        print("self-test FAIL: reintroduced copy on zero-copy path passed")
        return 1
    dropped = dict(baseline)
    del dropped["replication/single/steady/ok_reads"]
    if not check(baseline, dropped):
        print("self-test FAIL: dropped scenario passed")
        return 1
    # Overload rules: the P0-retention floor and the ablation-collapse
    # ceiling must both have teeth.
    overload_base = {
        "overload/priority/x2/p0_goodput_retention_x2": 0.9,
        "overload/ablation/x2/ablation_goodput_fraction_x2": 0.1,
    }
    if check(overload_base, dict(overload_base)):
        print("self-test FAIL: identical overload run was rejected")
        return 1
    degraded = dict(overload_base)
    degraded["overload/priority/x2/p0_goodput_retention_x2"] = 0.5
    degraded["overload/ablation/x2/ablation_goodput_fraction_x2"] = 0.8
    if len(check(overload_base, degraded)) != 2:
        print("self-test FAIL: overload regressions passed")
        return 1
    # Sim-core rules: a lane dispatching fewer events and a collapsed
    # cancel count must both trip.
    sim_base = {
        "sim_core/timer_churn/events_run": 1998848.0,
        "sim_core/cancel_churn/timers_cancelled": 371976.0,
        "sim_core/timer_churn/events_per_virtual_sec": 1.15e8,
    }
    if check(sim_base, dict(sim_base)):
        print("self-test FAIL: identical sim-core run was rejected")
        return 1
    shrunk = dict(sim_base)
    shrunk["sim_core/timer_churn/events_run"] = 1998848.0 * 0.5
    shrunk["sim_core/cancel_churn/timers_cancelled"] = 100.0
    if len(check(sim_base, shrunk)) != 2:
        print("self-test FAIL: sim-core regressions passed")
        return 1
    # hostbench counts: one extra allocation per rpc_small op, or one
    # more scheduler event per op, must trip; a count that falls passes.
    host_base = {
        "hostbench/rpc_small/allocs_per_op": 27.0157,
        "hostbench/rpc_small/alloc_bytes_per_op": 3444.5541,
        "hostbench/rpc_small/vlat_mean_us": 272.91475738,
        "hostbench/rpc_small/vlat_p99_us": 281.644,
        "hostbench/rpc_small/sim.events_per_op": 10.0,
    }
    if check(host_base, dict(host_base)):
        print("self-test FAIL: identical hostbench run was rejected")
        return 1
    one_more = dict(host_base)
    one_more["hostbench/rpc_small/allocs_per_op"] += 1
    if len(check(host_base, one_more)) != 1:
        print("self-test FAIL: +1 alloc/op on rpc_small passed")
        return 1
    busier = dict(host_base)
    busier["hostbench/rpc_small/sim.events_per_op"] += 1
    busier["hostbench/rpc_small/vlat_p99_us"] += 1
    if len(check(host_base, busier)) != 2:
        print("self-test FAIL: +1 event/op or +1 us p99 passed")
        return 1
    leaner = dict(host_base)
    leaner["hostbench/rpc_small/allocs_per_op"] -= 5
    if check(host_base, leaner):
        print("self-test FAIL: fewer allocations were rejected")
        return 1
    record = hostbench_record(
        "rpc_small",
        json.dumps({"correct": True, "metrics": {
            k: {"value": 1.0} for k in HOSTBENCH_PLAIN}}),
        json.dumps({"correct": True, "metrics": {
            k: {"value": 2.0} for k in HOSTBENCH_TRACED}}))
    if sorted(record["metrics"]) != sorted(HOSTBENCH_PLAIN +
                                           HOSTBENCH_TRACED):
        print(f"self-test FAIL: hostbench record has {record['metrics']}")
        return 1
    try:
        hostbench_record("rpc_small", '{"correct": false, "metrics": {}}',
                         '{"correct": true, "metrics": {}}')
    except ValueError:
        pass
    else:
        print("self-test FAIL: an incorrect hostbench run was recorded")
        return 1
    # Malformed current-run records must produce a clear error naming the
    # offending line, not a bare KeyError traceback.
    import os
    import tempfile

    cases = [
        ('{"scenario": "s", "metrics": {}}', "missing key(s) bench"),
        ('{"bench": "b", "scenario": "s", "metrics": {"k": {}}}',
         "has no 'value'"),
        ('["not", "an", "object"]', "not an object"),
    ]
    for content, want in cases:
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(content + "\n")
            try:
                load_current(path)
            except ValueError as e:
                if want not in str(e):
                    print(
                        f"self-test FAIL: wanted '{want}' in error, got: {e}"
                    )
                    return 1
            else:
                print(f"self-test FAIL: malformed record accepted: {content}")
                return 1
        finally:
            os.unlink(path)
    print("perf_gate self-test: OK (regressions rejected, clean run passes)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_wire.json")
    parser.add_argument("--current", help="fresh JSONL bench emission")
    parser.add_argument("--hostbench", nargs=3,
                        metavar=("WORKLOAD", "PLAIN", "TRACED"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.hostbench:
        try:
            print(json.dumps(hostbench_record(*args.hostbench)))
        except (ValueError, KeyError) as e:
            print(f"perf_gate: {e}", file=sys.stderr)
            return 2
        return 0
    if not args.baseline or not args.current:
        parser.print_usage(sys.stderr)
        return 2

    try:
        label, baseline = load_baseline(args.baseline)
        current = load_current(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2

    failures = check(baseline, current)
    if failures:
        print(f"perf gate FAIL vs baseline '{label}':")
        for f in failures:
            print(f"  {f}")
        return 1
    gated = sum(1 for k in baseline if k.rsplit("/", 1)[-1] in RULES)
    print(f"perf gate OK: {gated} metrics within margins of '{label}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
