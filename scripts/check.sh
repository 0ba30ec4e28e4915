#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest, then the same suite under
# ASan/UBSan.  Run from anywhere; builds land in build/ and build-asan/.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: RelWithDebInfo build + ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

echo "== overload smoke: fig_overload tiny sweep + JSON sanity =="
cmake --build "$ROOT/build" -j "$JOBS" --target fig_overload
"$ROOT/build/bench/fig_overload" --duration-ms=150 --threads=8 \
  --capacity=2000 --storage-latency-us=200 \
  --json="$ROOT/build/bench-overload-smoke.json"
python3 - "$ROOT/build/bench-overload-smoke.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
a = d["acceptance"]
assert a["priority_probe_failures"] == 0, a
assert any(c["sheds"] > 0 for c in d["cells"]), "no cell ever shed"
EOF

echo "== transport smoke: fig_transport small sweep + JSON sanity =="
# The full 36/1k/10k sweep is a longer run (see BENCH_transport.json); the
# smoke keeps the child-fleet plumbing and the bounded server thread count
# honest at small connection counts.  Raise the fd limit for the fleets.
cmake --build "$ROOT/build" -j "$JOBS" --target fig_transport
ulimit -n "$(ulimit -Hn)" || true
"$ROOT/build/bench/fig_transport" --conns=36,200 \
  --duration-ms=300 --json="$ROOT/build/bench-transport-smoke.json"
python3 - "$ROOT/build/bench-transport-smoke.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
a = d["acceptance"]
assert a["pass_sustain"], a
assert a["pass_threads"], a
for c in d["cells"]:
    assert c["connected"] == c["conns"], c
    assert c["good_per_sec"] > 0, c
EOF

echo "== tier-2: ASan/UBSan build + ctest =="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DCMAKE_BUILD_TYPE=Asan
cmake --build "$ROOT/build-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"

echo "== tier-3: TSan on the concurrency-heavy suites =="
# The full TSan ctest runs in its own CI job; locally we gate on the suites
# that exercise the parallel playback engine, the shared executor, the
# per-thread trace/flight rings under concurrent multiplexed RPC, the health
# monitor's concurrent reconfigurations, the segment store's group commit
# racing its readers, the log client's own-write completion wait, and the
# runtime's already-played watermark.
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DCMAKE_BUILD_TYPE=Tsan
cmake --build "$ROOT/build-tsan" -j "$JOBS" \
  --target playback_test util_test runtime_test txn_test obs_test \
  transport_test health_test segment_store_test log_client_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" ctest \
  --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
  -R '^(playback_test|util_test|runtime_test|txn_test|obs_test|transport_test|health_test|segment_store_test|log_client_test)$'

echo "check.sh: all green"
