#!/usr/bin/env bash
# chaos-smoke.sh — rehearse a mid-sweep crash and assert byte-identical recovery.
#
# The drill, end to end:
#
#   1. Baseline: run bcp-serve undisturbed, submit a small sweep, save
#      its results.csv.
#   2. Chaos: fresh state/cache dirs, BULKTX_FAULTS slows every cell
#      down, submit the same sweep, SIGKILL the process mid-sweep.
#   3. Recovery: start a fresh process on the same dirs (no faults).
#      The journal must resurrect the job under its original id, the
#      disk cache must serve the pre-crash cells, and the recovered
#      results.csv must be byte-identical to the baseline.
#   4. Quarantine: a run where one cell panics must still finish done,
#      with that cell counted as failed and its row missing from
#      results.csv; every other row must match the baseline bytes.
#
# Used by CI (.github/workflows/ci.yml); run it locally before touching
# the journal, recovery, or quarantine code. Requires curl and jq.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

for tool in curl jq; do
  command -v "$tool" >/dev/null || { echo "chaos-smoke: $tool not found" >&2; exit 1; }
done

PORT="${CHAOS_PORT:-18090}"
BASE="http://127.0.0.1:$PORT"
WORK=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

BIN="$WORK/bcp-serve"
go build -o "$BIN" ./cmd/bcp-serve

# Small but multi-cell: 2 models x 2 sender counts = 4 cells.
SWEEP='{"models":["dual","sensor"],"senders":[5,10],"bursts":[100],"runs":1,"duration_s":30}'

# start STATE_DIR CACHE_DIR [FAULT_PLAN]
start() {
  local state=$1 cache=$2 faults=${3:-}
  BULKTX_FAULTS="$faults" "$BIN" -addr "127.0.0.1:$PORT" \
    -state-dir "$state" -cache-dir "$cache" \
    -job-workers 1 -workers 1 &
  PID=$!
  for i in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "chaos-smoke: service on :$PORT never became healthy" >&2
  return 1
}

stop() { kill -TERM "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; PID=""; }

submit_sweep() { curl -sf "$BASE/v1/sweeps" -d "$SWEEP" | jq -r .id; }

job_field() { curl -sf "$BASE/v1/jobs/$1" | jq -r "$2"; }

wait_done() {
  local id=$1 st=""
  for i in $(seq 1 300); do
    st=$(job_field "$id" .state)
    [ "$st" = done ] && return 0
    case "$st" in failed|canceled) break ;; esac
    sleep 0.2
  done
  echo "chaos-smoke: job $id never reached done (last state: $st)" >&2
  curl -s "$BASE/v1/jobs/$id" >&2 || true
  return 1
}

metric() { curl -sf "$BASE/metrics" | awk -v m="$1" '$1 == m { print $2 }'; }

echo "== phase 1: baseline (undisturbed run)"
start "$WORK/state-a" "$WORK/cache-a"
JOB=$(submit_sweep)
test -n "$JOB"
wait_done "$JOB"
curl -sf "$BASE/v1/jobs/$JOB/artifacts/results.csv" > "$WORK/baseline.csv"
head -1 "$WORK/baseline.csv" | grep -q '^model,'
stop

echo "== phase 2: chaos (stall faults, SIGKILL mid-sweep)"
start "$WORK/state-b" "$WORK/cache-b" 'cell.stall:delay=500ms'
CHAOS_JOB=$(submit_sweep)
# Content-keyed ids: the same sweep document must map to the same job
# id in every process, or recovery could not be tracked across crashes.
[ "$CHAOS_JOB" = "$JOB" ] || {
  echo "chaos-smoke: job id drifted across processes ($JOB vs $CHAOS_JOB)" >&2; exit 1; }
# Let at least one cell land in the disk cache, then crash rudely while
# the rest of the sweep is still in flight.
for i in $(seq 1 100); do
  DONE=$(job_field "$JOB" '.cells_done // 0')
  [ "${DONE:-0}" -ge 1 ] && break
  sleep 0.1
done
[ "${DONE:-0}" -ge 1 ]
STATE=$(job_field "$JOB" .state)
[ "$STATE" = running ] || {
  echo "chaos-smoke: expected to kill a running job, state=$STATE" >&2; exit 1; }
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== phase 3: recovery (same dirs, no faults)"
start "$WORK/state-b" "$WORK/cache-b"
REC=$(metric bulktx_jobs_recovered_total)
[ "${REC:-0}" -ge 1 ] || {
  echo "chaos-smoke: journal did not recover any jobs" >&2; exit 1; }
wait_done "$JOB"
CACHED=$(metric bulktx_cells_cached_total)
[ "${CACHED:-0}" -ge 1 ] || {
  echo "chaos-smoke: recovery re-simulated every cell (disk cache unused)" >&2; exit 1; }
curl -sf "$BASE/v1/jobs/$JOB/artifacts/results.csv" > "$WORK/recovered.csv"
stop
cmp "$WORK/baseline.csv" "$WORK/recovered.csv" || {
  echo "chaos-smoke: recovered results.csv differs from the baseline" >&2; exit 1; }

echo "== phase 4: quarantine (one cell panics, the sweep completes without it)"
start "$WORK/state-c" "$WORK/cache-c" 'cell.panic:count=1'
QJOB=$(submit_sweep)
wait_done "$QJOB"
FAILED=$(job_field "$QJOB" '.cells_failed // 0')
[ "$FAILED" -eq 1 ] || {
  echo "chaos-smoke: job reports $FAILED failed cells, want 1" >&2; exit 1; }
FAILED_TOTAL=$(metric bulktx_cells_failed_total)
[ "${FAILED_TOTAL:-0}" -eq 1 ] || {
  echo "chaos-smoke: bulktx_cells_failed_total = ${FAILED_TOTAL:-0}, want 1" >&2; exit 1; }
CELL_ERR=$(job_field "$QJOB" '.cell_errors[0].error // ""')
case "$CELL_ERR" in
  *panic*) ;;
  *) echo "chaos-smoke: cell error '$CELL_ERR' does not name the panic" >&2; exit 1 ;;
esac
curl -sf "$BASE/v1/jobs/$QJOB/artifacts/results.csv" > "$WORK/quarantined.csv"
stop
[ "$(wc -l < "$WORK/quarantined.csv")" -eq "$(($(wc -l < "$WORK/baseline.csv") - 1))" ] || {
  echo "chaos-smoke: quarantined results.csv should have one row fewer than the baseline" >&2; exit 1; }
STRAY=$(grep -vxFf "$WORK/baseline.csv" "$WORK/quarantined.csv" || true)
[ -z "$STRAY" ] || {
  echo "chaos-smoke: quarantined results.csv has rows the baseline lacks:" >&2
  echo "$STRAY" >&2; exit 1; }

echo "chaos-smoke: OK (crash recovery is byte-identical to the baseline; a panicking cell is quarantined)"
