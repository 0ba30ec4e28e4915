#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

For every workload run.py knows (including txn_map_tcp, which BENCHMARK.json
does not gate) it makes one tiny untraced run and one tiny traced run
through run.py, and asserts that:
  * both runs pass their output checks and no op failed;
  * every metric BENCHMARK.json names was emitted, with its unit;
  * no traced call joined a client or daemon span longer than the call's
    own round trip (attr.bad_joins is 0);
  * the traced attribution rows (client self, wire, handler) plus the
    unattributed row, which run.py builds from the driver's stopwatch and
    the transport decorator, sum to the mean duration of the ops' own
    bench.* trace spans, a separate clock, within ATTRIBUTION_TOLERANCE
    plus one span tick;
  * the unattributed row is no more than ATTRIBUTION_TOLERANCE of the op.

Usage (from the repository root):
  python3 e2ebench/selfcheck.py
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

# The share of an op's latency the attribution may leave unexplained.
ATTRIBUTION_TOLERANCE = 0.10

# Trace spans read in whole microseconds.
SPAN_TICK_US = 1.0

# Length of each tiny run.
SECONDS = 2.0


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(SECONDS), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, "run.py exited with %d" % proc.returncode
    return json.loads(lines[-1]), None


def check(workload, spec):
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, err = run(workload, trace)
        if err:
            problems.append("trace=%d: %s" % (trace, err))
            continue
        if not result["correct"]:
            problems.append("trace=%d: output check failed" % trace)
        if result["failed"] != 0:
            problems.append("trace=%d: %d ops failed" % (trace,
                                                         result["failed"]))
        metrics = result["metrics"]
        for m in spec[section]:
            got = metrics.get(m["name"])
            if got is None:
                problems.append("trace=%d: %s not emitted" % (trace,
                                                              m["name"]))
            elif got["unit"] != m["unit"]:
                problems.append("trace=%d: %s unit %s, want %s" % (
                    trace, m["name"], got["unit"], m["unit"]))
        if trace == 1 and not problems:
            v = {k: metrics[k]["value"] for k in (
                "attr.span_op_us", "attr.client_self_us", "attr.wire_us",
                "attr.handler_us", "attr.unattributed_us", "attr.bad_joins")}
            rows = (v["attr.client_self_us"] + v["attr.wire_us"] +
                    v["attr.handler_us"] + v["attr.unattributed_us"])
            op = v["attr.span_op_us"]
            if v["attr.bad_joins"] != 0:
                problems.append("%d calls joined a span longer than their "
                                "round trip" % v["attr.bad_joins"])
            if op <= 0 or (abs(rows - op) >
                           ATTRIBUTION_TOLERANCE * op + SPAN_TICK_US):
                problems.append("rows sum to %.2f us, op spans %.2f us"
                                % (rows, op))
            if v["attr.unattributed_us"] > ATTRIBUTION_TOLERANCE * op:
                problems.append("unattributed %.2f us of %.2f us" % (
                    v["attr.unattributed_us"], op))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        problems = check(workload, spec)
        for msg in problems:
            print("selfcheck: %s: %s" % (workload, msg))
        print("selfcheck: %s %s" % (workload, "FAILED" if problems else "ok"))
        failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
