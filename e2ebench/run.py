#!/usr/bin/env python3
"""End-to-end Tango benchmark: one run of one workload.

Builds tango_logd and the e2e_driver from the source tree (e2ebench/ is its
own CMake package; the build lands in .bench_build/), runs the driver
against fresh deployments, reduces its raw samples, and prints one JSON
object as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off over PARTS driver processes of --seconds/PARTS each.  With --trace 1
they are the per-layer ones: an untraced half-length part (for the tracing
overhead) and a traced half-length part whose client spans, decorator call
records and daemon /traces are joined per call.  The traced run also prints
the per-layer attribution table.  README.md defines every metric.

Usage:
  python3 e2ebench/run.py --workload register_tcp --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")

WORKLOADS = ("register_tcp", "txn_map_tcp", "register_inproc")

# RPC methods the per-layer table breaks out (ids from src/corfu/types.h).
METHODS = {
    "seq_next": (0x0200, "rpc:sequencer.next"),
    "seq_tail": (0x0201, "rpc:sequencer.tail"),
    "stor_write": (0x0100, "rpc:storage.write"),
    "stor_read_batch": (0x0106, "rpc:storage.read_batch"),
    "stor_read": (0x0101, "rpc:storage.read"),
}

# Parts an untraced run is split over, each a fresh driver process on a
# fresh deployment; set-up time is their median.
PARTS = 5

# Length of the windows the end-to-end metrics take their medians over.
WINDOW_S = 1.0

# Every part must end by this many seconds after the build, so a hung
# deployment cannot hold the whole run past its 180 s budget.
RUN_DEADLINE_S = 170


def fail(msg, code=1):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("src/CMakeLists.txt", "tools/tango_logd.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the Tango sources are missing (%s)" % need, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "e2e_driver", "tango_logd"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed", 2)


def run_driver(args, out, seconds, traced, part):
    """Runs one part: a fresh driver process on a fresh deployment."""
    cmd = [os.path.join(BUILD, "e2e_driver"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % seconds, "--trace=%d" % traced,
           "--part=%d" % part, "--out=" + out,
           "--logd=" + os.path.join(BUILD, "tango_logd")]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The daemon child dies with the driver (PR_SET_PDEATHSIG).
        fail("driver timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 3):
        fail("driver exited with %d" % proc.returncode)
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    ops = []
    for line in proc.stdout.splitlines():
        kind, start, dur, read, trace = line.split()
        ops.append((kind, int(start), int(dur), int(read), int(trace), part))
    return summary, ops, proc.returncode == 0


# ---- statistics -------------------------------------------------------------

def pct(values, q):
    """Exact nearest-rank percentile of raw samples (0 when empty)."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(0, math.ceil(q * len(s)) - 1)])


def median(values):
    s = sorted(values)
    n = len(s)
    return (s[(n - 1) // 2] + s[n // 2]) / 2.0


def ratio(a, b):
    return float(a) / b if b else 0.0


# ---- end-to-end metrics -----------------------------------------------------

def end_to_end(workload, deps, ops):
    """Each deployment's measured phase is cut into windows of about a
    second; every metric is the median over all windows of its exact value
    within the window, so one noisy second cannot move it."""
    txn = workload == "txn_map_tcp"
    slots, widths = [], []
    for d in deps:
        n = max(1, int(round(d["elapsed_s"] / WINDOW_S)))
        slots.append([[] for _ in range(n)])
        widths.append(d["elapsed_s"] * 1e9 / n)
    for o in ops:
        if o[0] != "f":
            part, width = slots[o[5]], widths[o[5]]
            part[min(len(part) - 1, int((o[1] + o[2]) // width))].append(o)
    windows = [(w, widths[k] / 1e9) for k in range(len(deps))
               for w in slots[k]]

    per_window = {}
    for done, secs in windows:
        lat = [o[2] / 1e3 for o in done]
        if txn:
            good = sum(1 for o in done if o[0] == "c")
            reads = [o[3] / 1e3 for o in done]
            writes = [(o[2] - o[3]) / 1e3 for o in done]
        else:
            good = len(done)
            reads = [o[2] / 1e3 for o in done if o[0] == "r"]
            writes = [o[2] / 1e3 for o in done if o[0] == "w"]
        for name, v in (("ops_per_s", good / secs),
                        ("op_p50_us", pct(lat, 0.50)),
                        ("op_p99_us", pct(lat, 0.99)),
                        ("read_p50_us", pct(reads, 0.50)),
                        ("read_p99_us", pct(reads, 0.99)),
                        ("write_p50_us", pct(writes, 0.50)),
                        ("write_p99_us", pct(writes, 0.99))):
            per_window.setdefault(name, []).append(v)

    units = {"ops_per_s": "1/s"}
    metrics = {"setup_s": {"value": median([d["setup_s"] for d in deps]),
                           "unit": "s"}}
    for name, vals in per_window.items():
        metrics[name] = {"value": median(vals), "unit": units.get(name, "us")}
    metrics["stored_bytes_per_user_byte"] = {
        "value": median([ratio(d["stored_bytes"], d["user_bytes"])
                         for d in deps]),
        "unit": "ratio"}
    metrics["rss_mb"] = {
        "value": median([(d["rss_kb"]["client"] + d["rss_kb"]["daemon"]) /
                         1024.0 for d in deps]),
        "unit": "MB"}
    return metrics


# ---- per-layer metrics ------------------------------------------------------

def registry_delta(before, after):
    """Counter deltas and histogram (count, sum) deltas of two /vars dumps."""
    counters = {k: v - before["counters"].get(k, 0)
                for k, v in after["counters"].items()}
    hists = {}
    for k, h in after["histograms"].items():
        b = before["histograms"].get(k, {"count": 0, "mean": 0})
        hists[k] = (h["count"] - b["count"],
                    h["count"] * h["mean"] - b["count"] * b["mean"])
    return counters, hists


def load_calls(out):
    calls = []
    with open(os.path.join(out, "calls.txt")) as f:
        for line in f:
            m, trace, key, start, dur, req, resp, ok = map(int, line.split())
            calls.append((m, trace, key, start, dur, req, resp, ok))
    return calls


def load_client_spans(out):
    spans = []
    with open(os.path.join(out, "client_spans.txt")) as f:
        for line in f:
            name, trace, span, parent, dur = line.split()
            spans.append((name, int(trace), int(span), int(parent), int(dur)))
    return spans


def load_daemon_spans(out):
    path = os.path.join(out, "daemon_traces.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        events = json.load(f)
    return [(e["name"], e["args"]["trace_id"], e["args"]["span_id"],
             e["args"]["parent_id"], e["dur"]) for e in events]


def attribute(ops, calls, handler_us, op_span_us):
    """Splits each traced op's latency into client self time, per-RPC wire
    and handler time, and an unattributed remainder.

    An op's RPCs are the decorator calls made under its trace id.  Self time
    is the op's span minus the union of its RPC intervals.  Overlapping RPCs
    (parallel sub-batches) share the covered time in proportion to their
    round trips.  A call with no entry in `handler_us` (call key -> handler
    span, us) is unattributed.  Only ops inside the window the retained
    traces cover, and whose own bench.* span was retained, are counted.
    Returns the mean rows, the mean op span, and, per op, (kind, read phase
    us, self us)."""
    joined = [c for c in calls if c[2] in handler_us]
    if not joined:
        return None
    lo = min(c[3] for c in joined)
    hi = max(c[3] + c[4] for c in joined)
    by_trace = {}
    for c in calls:
        if c[1]:
            by_trace.setdefault(c[1], []).append(c)
    rows = {"op": 0.0, "self": 0.0, "wire": 0.0, "handler": 0.0,
            "unattributed": 0.0}
    span_total = 0.0
    per_op = []
    for kind, start, dur, read, trace, _dep in ops:
        if (kind == "f" or not trace or start < lo or start + dur > hi or
                trace not in op_span_us):
            continue
        end = start + dur
        spans = []
        for c in by_trace.get(trace, ()):
            s, e = max(c[3], start), min(c[3] + c[4], end)
            if e > s:
                spans.append((s, e, c))
        spans.sort(key=lambda x: x[0])
        covered, cur_s, cur_e = 0, None, None
        for s, e, _ in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        total_rtt = sum(e - s for s, e, _ in spans)
        share = covered / total_rtt if total_rtt else 0.0
        wire = handler = unattr = 0.0
        for s, e, c in spans:
            rtt = e - s
            h = handler_us.get(c[2])
            if h is None:
                unattr += rtt
            else:
                # A call clipped to the op's interval keeps the same handler
                # share of what is left of it.
                h = h * 1e3 * rtt / c[4]
                handler += h
                wire += rtt - h
        self_ns = dur - covered
        rows["op"] += dur
        rows["self"] += self_ns
        rows["wire"] += wire * share
        rows["handler"] += handler * share
        rows["unattributed"] += unattr * share
        span_total += op_span_us[trace]
        per_op.append((kind, read / 1e3, self_ns / 1e3))
    if not per_op:
        return None
    means = {k: v / len(per_op) / 1e3 for k, v in rows.items()}
    return means, span_total / len(per_op), per_op


def per_layer(workload, untraced, traced, out):
    summary, ops = traced
    txn = workload == "txn_map_tcp"
    tcp = workload != "register_inproc"
    n_ops = len(ops)
    good = (sum(1 for o in ops if o[0] == "c") if txn
            else sum(1 for o in ops if o[0] != "f"))
    base_summary, base_ops = untraced
    base_good = (sum(1 for o in base_ops if o[0] == "c") if txn
                 else sum(1 for o in base_ops if o[0] != "f"))
    traced_rate = good / summary["elapsed_s"]
    untraced_rate = base_good / base_summary["elapsed_s"]

    client = summary["client_metrics"]
    cc = client["counters"]
    if tcp:
        sc, sh = registry_delta(summary["daemon_before"],
                                summary["daemon_after"])
    else:
        sc = cc
        sh = {k: (h["count"], h["count"] * h["mean"])
              for k, h in client["histograms"].items()}

    calls = load_calls(out)
    cspans = load_client_spans(out)
    dspans = load_daemon_spans(out) if tcp else None
    # Join: decorator call key -> the transport's rpc:* span under it ->
    # (over TCP) the daemon's handler span under that.  In-proc, the
    # transport's span is the handler's own execution.
    client_rpc = {s[3]: s for s in cspans if s[0].startswith("rpc:")}
    server = {(s[1], s[3]): s[4] for s in dspans or ()
              if s[0].startswith("rpc:")}
    # Call key -> handler span (us).  Spans nest inside the decorator's
    # round trip and read in whole microseconds rounded down, so a joined
    # client or handler span longer than the round trip is a wrong join or
    # a clock mismatch: it is counted and its call left unattributed.
    handler_us, bad_joins = {}, 0
    for c in calls:
        cs = client_rpc.get(c[2]) if c[2] else None
        if cs is None:
            continue
        h = server.get((c[1], cs[2])) if tcp else cs[4]
        if h is None:
            continue
        if max(cs[4], h) * 1e3 > c[4]:
            bad_joins += 1
        else:
            handler_us[c[2]] = h
    handler_spans = dspans if tcp else cspans
    op_span_us = {s[1]: s[4] for s in cspans
                  if s[0].startswith("bench.") and s[3] == 0}

    m = {}
    m["failed_frac"] = ratio(sum(1 for o in ops if o[0] == "f"), n_ops)
    m["net.calls_per_op"] = ratio(len(calls), n_ops)
    m["net.req_bytes_per_op"] = ratio(sum(c[5] for c in calls), n_ops)
    m["net.resp_bytes_per_op"] = ratio(sum(c[6] for c in calls), n_ops)
    m["net.failed_calls"] = float(sum(1 for c in calls if not c[7]))
    for short, (mid, span_name) in METHODS.items():
        mine = [c for c in calls if c[0] == mid]
        rtt = [c[4] / 1e3 for c in mine]
        wire = [c[4] / 1e3 - handler_us[c[2]] for c in mine
                if c[2] in handler_us]
        handlers = [s[4] for s in handler_spans if s[0] == span_name]
        m["net.%s.calls_per_op" % short] = ratio(len(mine), n_ops)
        m["net.%s.rtt_p50_us" % short] = pct(rtt, 0.50)
        m["net.%s.rtt_p99_us" % short] = pct(rtt, 0.99)
        m["net.%s.wire_p50_us" % short] = pct(wire, 0.50)
        m["logd.%s.handler_p50_us" % short] = pct(handlers, 0.50)
        m["logd.%s.handler_p99_us" % short] = pct(handlers, 0.99)

    attr = attribute(ops, calls, handler_us, op_span_us)
    if attr is None:
        fail("no traced op could be joined to its RPCs")
    means, span_op_us, per_op = attr
    n_attr = len(per_op)
    if txn:
        # Reads inside a transaction only record the read set, so the read
        # phase is all client time and every RPC falls in the write/commit
        # phase.
        done = [a for a in per_op if a[0] in "ca"]
        m["client.read.self_p50_us"] = pct([a[1] for a in done], 0.50)
        m["client.write.self_p50_us"] = pct([a[2] - a[1] for a in done], 0.50)
        m["client.txn.self_p50_us"] = pct([a[2] for a in done], 0.50)
    else:
        m["client.read.self_p50_us"] = pct(
            [a[2] for a in per_op if a[0] == "r"], 0.50)
        m["client.write.self_p50_us"] = pct(
            [a[2] for a in per_op if a[0] == "w"], 0.50)
        m["client.txn.self_p50_us"] = 0.0
    m["client.attributed_frac"] = 1.0 - ratio(means["unattributed"],
                                              means["op"])
    m["attr.ops"] = float(n_attr)
    m["attr.op_us"] = means["op"]
    m["attr.client_self_us"] = means["self"]
    m["attr.wire_us"] = means["wire"]
    m["attr.handler_us"] = means["handler"]
    m["attr.unattributed_us"] = means["unattributed"]
    m["attr.span_op_us"] = span_op_us
    m["attr.bad_joins"] = float(bad_joins)

    appends = cc.get("log.appends", 0)
    m["corfu.appends_per_op"] = ratio(appends, n_ops)
    m["corfu.seq_grants_per_append"] = ratio(
        cc.get("rpc.sequencer.next.calls", 0), appends)
    hits, misses = cc.get("store.cache.hits", 0), cc.get("store.cache.misses", 0)
    m["corfu.store_cache_hit_frac"] = ratio(hits, hits + misses)
    count, total = sh.get("storage.read_batch.size", (0, 0))
    m["corfu.read_batch_size_mean"] = ratio(total, count)
    m["corfu.hole_timeouts"] = float(cc.get("log.hole_timeouts", 0))
    m["corfu.fills"] = float(cc.get("log.fills", 0))
    m["corfu.append_retries"] = float(cc.get("log.append_retries", 0))
    m["corfu.epoch_refreshes"] = float(cc.get("log.epoch_refreshes", 0))

    m["runtime.entries_played_per_op"] = ratio(
        cc.get("runtime.entries_played", 0), n_ops)
    m["runtime.txn_commit_frac"] = ratio(cc.get("runtime.txn.commits", 0),
                                         cc.get("runtime.txn.attempts", 0))
    par = cc.get("runtime.playback.entries.parallel", 0)
    seq = cc.get("runtime.playback.entries.sequential", 0)
    m["runtime.playback_parallel_frac"] = ratio(par, par + seq)
    m["runtime.playback_task_p50_us"] = pct(
        [s[4] for s in cspans if s[0] == "runtime.playback.task"], 0.50)
    # The registry keeps play lag only as a histogram; its buckets are one
    # entry wide below 64, so this p50 is exact while the lag stays small.
    m["runtime.play_lag_p50_entries"] = float(
        client["histograms"].get("runtime.play.lag_entries", {}).get("p50", 0))

    m["sequencer.tokens_per_op"] = ratio(sc.get("sequencer.tokens", 0), n_ops)
    m["sequencer.tail_checks_per_op"] = ratio(
        sc.get("sequencer.tail_checks", 0), n_ops)
    m["overload.shed"] = float(
        sc.get("overload.sequencer.shed", 0) +
        sc.get("overload.storage.shed", 0) +
        sc.get("overload.storage.wbuf_shed", 0))

    records = sc.get("storage.segment.records", 0)
    m["storage.records_per_op"] = ratio(records, n_ops)
    m["storage.records_per_flush"] = ratio(
        records, sc.get("storage.segment.flushes", 0))
    m["storage.records_per_fsync"] = ratio(
        records, sc.get("storage.segment.fsyncs", 0))
    m["storage.bytes_per_record"] = ratio(
        sc.get("storage.segment.bytes", 0), records)
    m["storage.crc_rejects"] = float(
        sc.get("storage.segment.corrupt_rejected", 0))

    m["obs.trace_overhead_frac"] = 1.0 - ratio(traced_rate, untraced_rate)
    return m


UNITS = [
    ("_us", "us"), ("_frac", "frac"), ("bytes_per_op", "B/op"),
    ("_per_op", "count/op"),
    ("_per_append", "count/append"), ("_per_flush", "count/flush"),
    ("_per_fsync", "count/fsync"), ("_per_record", "B/record"),
    ("_mean", "count"), ("_entries", "count"),
]


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(workload, m):
    print("per-layer attribution, %s (mean per op over %d traced ops)"
          % (workload, m["attr.ops"]))
    op = m["attr.op_us"]
    for row in ("client_self", "wire", "handler", "unattributed"):
        v = m["attr.%s_us" % row]
        print("  %-14s %10.2f us  %5.1f%%" % (row, v, 100.0 * ratio(v, op)))
    print("  %-14s %10.2f us" % ("op latency", op))
    print("  %-14s %10.2f us  (the ops' own spans, trace clock)"
          % ("op spans", m["attr.span_op_us"]))
    print("  %-14s %10d" % ("bad joins", m["attr.bad_joins"]))
    print("  %-18s %8s %8s %9s %9s %9s %9s" % (
        "rpc", "calls/op", "rtt_p50", "rtt_p99", "wire_p50", "hdlr_p50",
        "hdlr_p99"))
    for short in METHODS:
        print("  %-18s %8.3f %8.1f %9.1f %9.1f %9.1f %9.1f" % (
            short, m["net.%s.calls_per_op" % short],
            m["net.%s.rtt_p50_us" % short], m["net.%s.rtt_p99_us" % short],
            m["net.%s.wire_p50_us" % short],
            m["logd.%s.handler_p50_us" % short],
            m["logd.%s.handler_p99_us" % short]))
    for name in sorted(m):
        if not name.startswith(("attr.", "net.", "logd.")):
            print("  %-34s %.6g" % (name, m[name]))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build()
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    out = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                           os.getpid()))
    shutil.rmtree(out, ignore_errors=True)
    try:
        if args.trace == 0:
            parts = [run_driver(args, os.path.join(out, str(k)),
                                args.seconds / PARTS, 0, k)
                     for k in range(PARTS)]
            ops = [o for p in parts for o in p[1]]
            correct = all(p[2] for p in parts)
            metrics = end_to_end(args.workload, [p[0] for p in parts], ops)
        else:
            half = args.seconds / 2.0
            base = run_driver(args, os.path.join(out, "untraced"), half, 0, 0)
            traced_dir = os.path.join(out, "traced")
            summary, ops, correct = run_driver(args, traced_dir, half, 1, 1)
            correct = correct and base[2]
            m = per_layer(args.workload, base[:2], (summary, ops), traced_dir)
            print_table(args.workload, m)
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in sorted(m.items())}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not correct:
        print("e2ebench: output check failed", file=sys.stderr)
    print("e2ebench: workload=%s seed=%d seconds=%r trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o[0] == "f"),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
