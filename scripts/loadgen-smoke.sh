#!/usr/bin/env bash
# loadgen-smoke.sh — drive bcp-serve with bcp-loadgen and prove the
# generator's two contracts:
#
#   1. Determinism: two invocations with the same seed against the
#      same still-running server must issue the identical request
#      schedule and produce identical deterministic counters
#      (requests, dedupe hits, 429 rejections) — compared field by
#      field, not approximately.
#   2. Behavior gate: a run on a freshly started server must pass
#      -compare against the committed BENCH_SERVE.json baseline — a
#      clean run whose seed, schedule hash and counters match exactly.
#      The gate needs a fresh server because repeated runs
#      progressively fill the result cache until canceled jobs finish
#      before their DELETEs (see internal/loadgen's package docs).
#
# The server shape (-queue/-job-workers/-workers) must match the
# loadgen profile; this script pins both sides to the short profile's
# shape. Used by CI (.github/workflows/ci.yml); run it locally before
# touching internal/loadgen, the service queue, or the SSE layer.
# Requires jq.
#
# Environment knobs:
#   LOADGEN_PORT         listen port (default 18110)
#   LOADGEN_SEED         schedule seed (default 1, matching the baseline)
#   LOADGEN_PROFILE      profile name (default short)
#   LOADGEN_BASELINE     baseline path for phase 2 (default
#                        BENCH_SERVE.json); set empty to skip the gate —
#                        the soak profile's schedule intentionally does
#                        not match the committed short baseline
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

command -v jq >/dev/null || { echo "loadgen-smoke: jq not found" >&2; exit 1; }

PORT="${LOADGEN_PORT:-18110}"
SEED="${LOADGEN_SEED:-1}"
PROFILE="${LOADGEN_PROFILE:-short}"
BASELINE="${LOADGEN_BASELINE-BENCH_SERVE.json}"
BASE="http://127.0.0.1:$PORT"
WORK=$(mktemp -d)
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/bcp-serve" ./cmd/bcp-serve
go build -o "$WORK/bcp-loadgen" ./cmd/bcp-loadgen

start() {
  "$WORK/bcp-serve" -addr "127.0.0.1:$PORT" \
    -queue 4 -job-workers 2 -workers 2 >"$WORK/serve.log" 2>&1 &
  PID=$!
  for i in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "loadgen-smoke: bcp-serve on :$PORT never became healthy" >&2
  tail -20 "$WORK/serve.log" >&2 || true
  return 1
}

stop() { kill -TERM "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; PID=""; }

loadgen() {
  "$WORK/bcp-loadgen" -base "$BASE" -seed "$SEED" -profile "$PROFILE" "$@"
}

# clean REPORT — a run is only meaningful if the server got every
# behavior right.
clean() {
  jq -e '.counters.unexpected_errors == 0 and .counters.sse_replay_errors == 0' "$1" >/dev/null || {
    echo "loadgen-smoke: run $1 was not clean:" >&2
    jq '.errors' "$1" >&2
    return 1
  }
}

echo "== phase 1: determinism (same seed, same live server, twice)"
start
loadgen -o "$WORK/run1.json"
loadgen -o "$WORK/run2.json"
clean "$WORK/run1.json"
clean "$WORK/run2.json"
if ! diff <(jq -S .counters "$WORK/run1.json") <(jq -S .counters "$WORK/run2.json"); then
  echo "loadgen-smoke: deterministic counters diverged between identical runs" >&2
  exit 1
fi
SHA1=$(jq -r .schedule_sha256 "$WORK/run1.json")
SHA2=$(jq -r .schedule_sha256 "$WORK/run2.json")
if [ "$SHA1" != "$SHA2" ]; then
  echo "loadgen-smoke: schedule hashes diverged: $SHA1 vs $SHA2" >&2
  exit 1
fi
echo "   counters and schedule hash identical across runs ($SHA1)"
stop

if [ -n "$BASELINE" ]; then
  echo "== phase 2: behavior gate against $BASELINE (fresh server)"
  start
  loadgen -compare "$BASELINE"
  stop
else
  echo "== phase 2 skipped (LOADGEN_BASELINE is empty)"
fi

echo "loadgen-smoke: OK"
