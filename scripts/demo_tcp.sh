#!/usr/bin/env bash
# Cross-process smoke test: start a tango_logd daemon, drive it with
# tango_cli from separate processes, and verify the results.  Used both as a
# demo and as a ctest (tests/CMakeLists.txt wires it up with the built
# binary paths).
set -u

LOGD="${1:?usage: demo_tcp.sh <tango_logd> <tango_cli> [base_port]}"
CLI="${2:?usage: demo_tcp.sh <tango_logd> <tango_cli> [base_port]}"
PORT="${3:-$(( (RANDOM % 2000) + 21000 ))}"
FLAGS="--base-port=${PORT} --nodes=4 --repl=2"

fail() { echo "FAIL: $*" >&2; kill "${DAEMON_PID:-}" 2>/dev/null; exit 1; }

# Bad flags exit 2 with a usage line instead of starting a misconfigured
# daemon (an ignored --journal-dir would silently mean an in-memory log).
for BAD in --journal-dir=x --nodes=four; do
  timeout 10 "${LOGD}" ${FLAGS} "${BAD}" >/dev/null 2>&1
  RC=$?
  [ "${RC}" -eq 2 ] || fail "tango_logd ${BAD} exited ${RC}, want 2"
done

"${LOGD}" ${FLAGS} &
DAEMON_PID=$!
trap 'kill ${DAEMON_PID} 2>/dev/null' EXIT

# Wait for the daemon to come up.
for _ in $(seq 1 50); do
  if "${CLI}" ${FLAGS} tail >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"${CLI}" ${FLAGS} tail >/dev/null || fail "daemon never became ready"

# Raw log operations.
OUT=$("${CLI}" ${FLAGS} append hello-tcp 7) || fail "append"
echo "${OUT}" | grep -q "offset 0" || fail "append offset: ${OUT}"
OUT=$("${CLI}" ${FLAGS} read 0) || fail "read"
echo "${OUT}" | grep -q "hello-tcp" || fail "read payload: ${OUT}"
OUT=$("${CLI}" ${FLAGS} tail) || fail "tail"
echo "${OUT}" | grep -q "tail: 1" || fail "tail value: ${OUT}"

# Stream replay.
"${CLI}" ${FLAGS} append second-entry 7 >/dev/null || fail "append 2"
OUT=$("${CLI}" ${FLAGS} stream-read 7) || fail "stream-read"
echo "${OUT}" | grep -q "2 entries in stream 7" || fail "stream count: ${OUT}"

# Object-level access from separate CLI processes (views rebuilt each run).
"${CLI}" ${FLAGS} map-put 3 color blue >/dev/null || fail "map-put"
OUT=$("${CLI}" ${FLAGS} map-get 3 color) || fail "map-get"
[ "${OUT}" = "blue" ] || fail "map-get value: ${OUT}"

# Recovery actions.
"${CLI}" ${FLAGS} checkpoint-seq >/dev/null || fail "checkpoint-seq"
OUT=$("${CLI}" ${FLAGS} recover) || fail "recover"
echo "${OUT}" | grep -q "epoch 1" || fail "recover epoch: ${OUT}"
OUT=$("${CLI}" ${FLAGS} map-get 3 color) || fail "map-get after recover"
[ "${OUT}" = "blue" ] || fail "map-get after recover: ${OUT}"

echo "demo_tcp: all checks passed"
exit 0
