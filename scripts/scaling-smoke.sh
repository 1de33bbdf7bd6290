#!/usr/bin/env bash
# scaling-smoke.sh — run the big-topology scaling sweep at reduced node
# counts and gate it against the committed BENCH_PR6.json curve:
#
#   1. Exact event-count equality per N: the sweep's event counts are
#      fully deterministic in (nodes, duration), so any drift from the
#      committed curve means simulation behavior changed — that belongs
#      in a fingerprint-reviewed PR, not a perf run.
#   2. Throughput gate: events/s per N may not fall more than
#      SCALING_MAX_REGRESS below the baseline. CI runners are far
#      noisier than the machine that captured the baseline, so the
#      default threshold is deliberately generous — the gate exists to
#      catch order-of-magnitude rot (an accidental O(N^2) path coming
#      back), not small wobbles.
#
# The full five-point curve including N=100k takes about a minute;
# baseline regeneration (go run ./cmd/bcp-bench -scaling) is a manual
# step done alongside the fingerprint review, never in CI. Used by CI
# (.github/workflows/ci.yml); run it locally before touching
# internal/sim's event heap, internal/topo's spatial hash, or the
# radio channel's neighbor rows.
#
# Environment knobs:
#   SCALING_NODES        comma-separated node counts (default 1000,5000)
#   SCALING_MAX_REGRESS  events/s gate threshold (default 0.75)
#   SCALING_BASELINE     baseline path (default BENCH_PR6.json)
set -euo pipefail
cd "$(dirname "$0")/.."

NODES="${SCALING_NODES:-1000,5000}"
MAX_REGRESS="${SCALING_MAX_REGRESS:-0.75}"
BASELINE="${SCALING_BASELINE:-BENCH_PR6.json}"

go run ./cmd/bcp-bench -scaling-compare "$BASELINE" -scaling-n "$NODES" -max-regress "$MAX_REGRESS"

echo "scaling-smoke OK (N=$NODES vs $BASELINE)"
