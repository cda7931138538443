#!/usr/bin/env bash
# Smoke test for the service mode (`wavemin serve` + `wavemin client`).
#
# Drives a real daemon over a Unix socket and asserts the service
# contract end to end:
#   - readiness: the health probe answers once the banner socket is up;
#   - session cache: the warm repetition of a request is faster than the
#     cold one and the cache hit shows up in `stats`;
#   - executors: the daemon runs the requested executor count and
#     reports per-executor busy/request lines in `stats` and `top`;
#   - backpressure: flooding a queue bound of 1 on a single-executor
#     daemon with content-distinct requests yields structured
#     `overloaded` rejections, never hangs or crashes;
#   - telemetry: `--time` reports the server-side wall time, `stats`
#     carries rolling percentiles whose p50 equals the cumulative
#     latency p50 (one histogram grid), the `metrics` request serves
#     Prometheus text and a JSON snapshot, `top --once` renders, and the
#     JSONL access log records every data-plane request (rejections
#     included);
#   - accounting: after each drain, every per-status counter of the
#     drain report equals the access-log lines with that status
#     (scripts/check_accounting.sh);
#   - flight recorder: the `flight` control request snapshots the event
#     ring, the overload episode leaves a request-id-named black-box
#     dump, and `wavemin explain` renders dumps into a human report;
#   - access-log rotation: with --access-log-max-bytes the log rotates
#     into at most --access-log-keep generations;
#   - top resilience: against a dead daemon, `top --once` exits 2 with
#     a structured error and the live view prints `daemon unavailable`
#     and keeps retrying instead of stack-tracing;
#   - bench-serve: the load generator produces a schema-valid
#     BENCH_serve.json, gated against bench/baselines/ when present, and
#     a duplicate-heavy profile (--dup-fraction) actually coalesces
#     requests through the server's single-flight layer;
#   - graceful drain: both a `shutdown` request and SIGTERM finish
#     in-flight work, join every executor, write the final BENCH-style
#     report and exit 0;
#   - fault seams: with every WAVEMIN_FAULTS seam armed the daemon
#     answers with structured errors (or degraded results) and stays up;
#   - chaos (delegated to scripts/server_chaos.sh): abusive peers
#     (slowloris dribble, silent hang, oversized flood), mid-request
#     disconnects, expired --deadline-ms bursts, and kill -9 + restart
#     with stale-socket eviction and client retry/backoff.
#
# Usage: scripts/server_smoke.sh [JOBS] [EXECUTORS]   (from the repo root)
# Env:   WAVEMIN_BIN        path to wavemin.exe (default _build/default/bin/...)
#        WAVEMIN_SMOKE_DIR  keep artifacts (logs, traces, reports) here
#                           instead of a throwaway mktemp dir — CI uploads
#                           this directory when the smoke fails.

set -euo pipefail

JOBS="${1:-1}"
EXECUTORS="${2:-1}"
W="${WAVEMIN_BIN:-_build/default/bin/wavemin.exe}"
if [ -n "${WAVEMIN_SMOKE_DIR:-}" ]; then
  TMP="$WAVEMIN_SMOKE_DIR"
  mkdir -p "$TMP"
  KEEP_TMP=1
else
  TMP="$(mktemp -d /tmp/wavemin-smoke.XXXXXX)"
  KEEP_TMP=0
fi
SOCK="unix:$TMP/serve.sock"
SERVER=""

fail() { echo "FAIL: $*" >&2; exit 1; }

cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true
  [ "$KEEP_TMP" -eq 1 ] || rm -rf "$TMP"
}
trap cleanup EXIT

wait_ready() {
  for _ in $(seq 1 100); do
    if "$W" client -A "$SOCK" health >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server never became ready on $SOCK"
}

wait_exit() { # pid -> exit code (fails if still alive after ~20 s)
  local pid="$1"
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || { wait "$pid"; return $?; }
    sleep 0.2
  done
  fail "server $pid did not exit"
}

echo "== wavemin serve smoke, jobs=$JOBS executors=$EXECUTORS =="

# ---- cache warmth, stats, telemetry, shutdown drain ------------------
REPORT="$TMP/BENCH_serve_drain.json"
ACCESS="$TMP/access.jsonl"
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors "$EXECUTORS" \
  --report "$REPORT" --access-log "$ACCESS" >"$TMP/serve.log" 2>&1 &
SERVER=$!
wait_ready

COLD=$("$W" client -A "$SOCK" run s38417 -a peakmin --time 2>&1 >/dev/null | awk '/^elapsed_ms/{print $2}')
WARM_TIMES="$TMP/warm.time"
"$W" client -A "$SOCK" run s38417 -a peakmin --time 2>"$WARM_TIMES" >/dev/null
WARM=$(awk '/^elapsed_ms/{print $2}' "$WARM_TIMES")
echo "cold ${COLD} ms -> warm ${WARM} ms"
awk -v c="$COLD" -v w="$WARM" 'BEGIN { exit !(w < c) }' \
  || fail "warm request (${WARM} ms) not faster than cold (${COLD} ms)"
# --time also reports the server-side breakdown, correlated by request id.
grep -q '^server_ms ' "$WARM_TIMES" \
  || fail "client --time reported no server-side wall time"
echo "server-side: $(grep '^server_ms' "$WARM_TIMES")"

HITS=$("$W" client -A "$SOCK" stats | sed -n 's/.*"hits": \([0-9]*\).*/\1/p' | head -1)
[ "${HITS:-0}" -ge 1 ] || fail "no cache hit in stats (hits=${HITS:-unset})"
echo "cache hits: $HITS"

# Rolling percentiles, the coalesce counter and the per-executor lines
# are live in stats; the metrics request exposes the registry as
# Prometheus text; top renders one snapshot with the executor lanes.
"$W" client -A "$SOCK" stats | grep -q '"rolling"' \
  || fail "stats carry no rolling block"
"$W" client -A "$SOCK" stats | grep -q '"coalesced"' \
  || fail "stats carry no coalesced counter"
"$W" client -A "$SOCK" stats | grep -q '"executors"' \
  || fail "stats carry no per-executor block"
"$W" client -A "$SOCK" metrics | grep -q 'wavemin_server_requests_total' \
  || fail "Prometheus exposition lacks the request counter"
"$W" client -A "$SOCK" metrics --format json | grep -q '"metrics"' \
  || fail "JSON metrics snapshot missing"
"$W" top -A "$SOCK" --once >"$TMP/top.out" || fail "top rendered nothing"
grep -q 'rolling' "$TMP/top.out" || fail "top carries no rolling line"
grep -q 'executors e0' "$TMP/top.out" || fail "top carries no executor line"
echo "telemetry endpoints ok (stats rolling/coalesced/executors, metrics, top)"

# One histogram: stats' cumulative and rolling latency read the same
# samples, on the same grid and quantile, so their p50 agree.
"$W" client -A "$SOCK" stats >"$TMP/stats.json"
python3 -c 'import json, sys
s = json.load(open(sys.argv[1]))
cum, rol = s["latency_ms"], s["rolling"]["latency_ms"]
assert cum["count"] == rol["count"] and cum["p50"] == rol["p50"], (cum, rol)
print("latency p50 %g ms, cumulative == rolling" % cum["p50"])' "$TMP/stats.json" \
  || fail "stats cumulative and rolling latency p50 disagree"

# Live flight-ring snapshot over the control plane, renderable offline.
"$W" client -A "$SOCK" flight >"$TMP/flight-snap.json" \
  || fail "flight control request failed"
grep -q 'wavemin-flight' "$TMP/flight-snap.json" \
  || fail "flight snapshot lacks the schema tag"
"$W" explain "$TMP/flight-snap.json" >"$TMP/flight-snap.report" \
  || fail "wavemin explain rejected the live snapshot"
grep -q 'solve timeline' "$TMP/flight-snap.report" \
  || fail "explain report carries no solve timeline"
echo "flight snapshot ok ($(grep -c 'wavemin-flight' "$TMP/flight-snap.json") schema tag)"

"$W" client -A "$SOCK" shutdown >/dev/null
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "shutdown drain exited $CODE"
[ -f "$REPORT" ] || fail "no drain report at $REPORT"
grep -q '"experiment": "serve-drain"' "$REPORT" || fail "malformed drain report"
grep -q '"requests_served"' "$REPORT" || fail "drain report lacks counters"
echo "shutdown drain ok, report written"

# One JSONL access line per data-plane request, each with a request id
# and timings.
[ -s "$ACCESS" ] || fail "no access log at $ACCESS"
grep -q '"rid":"r' "$ACCESS" || fail "access log lines carry no request id"
grep -q '"cache":"hit"' "$ACCESS" || fail "access log never saw a cache hit"
echo "access log ok ($(wc -l <"$ACCESS") lines)"
bash "$(dirname "$0")/check_accounting.sh" "$REPORT" "$ACCESS" \
  || fail "drain report and access log disagree"

# ---- backpressure: deterministic overflow on one executor ------------
# A single-executor daemon with a queue bound of 1: a slow request
# occupies the executor, the next one the single queue slot, and the
# rest of the burst — content-distinct kappas, so the single-flight
# layer cannot coalesce them — must be rejected with a structured
# `overloaded` error while the daemon keeps serving.
ACCESS_OVL="$TMP/access-overload.jsonl"
REPORT_OVL="$TMP/BENCH_serve_overload.json"
FLIGHT_DIR="$TMP/flight"
mkdir -p "$FLIGHT_DIR"
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --queue 1 --executors 1 \
  --report "$REPORT_OVL" --access-log "$ACCESS_OVL" --flight-dir "$FLIGHT_DIR" \
  >"$TMP/serve-overload.log" 2>&1 &
SERVER=$!
wait_ready
"$W" client -A "$SOCK" montecarlo s13207 -n 4000 >"$TMP/slow.json" 2>&1 &
SLOW=$!
sleep 0.3
BURST=""
for i in 1 2 3 4 5 6; do
  "$W" client -A "$SOCK" run s15850 -a initial -k "2$i" >"$TMP/burst.$i" 2>&1 &
  BURST="$BURST $!"
done
wait $SLOW || true
for pid in $BURST; do wait "$pid" || true; done
OVERLOADED=$(grep -l '"overloaded"' "$TMP"/burst.* | wc -l)
echo "overloaded rejections: $OVERLOADED/6"
[ "$OVERLOADED" -ge 1 ] || { cat "$TMP"/burst.*; fail "queue bound never rejected"; }
"$W" client -A "$SOCK" health >/dev/null || fail "daemon unhealthy after flood"
"$W" client -A "$SOCK" shutdown >/dev/null
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "overload daemon drain exited $CODE"
grep -q '"status":"rejected"' "$ACCESS_OVL" \
  || fail "access log missed the overloaded rejections"
bash "$(dirname "$0")/check_accounting.sh" "$REPORT_OVL" "$ACCESS_OVL" \
  || fail "overload drain report and access log disagree"

# The overload episode left exactly the black-box dump the flight
# recorder promises: request-id-named, versioned, explainable.
ls "$FLIGHT_DIR"/r*.flight.json >/dev/null 2>&1 \
  || fail "overload episode produced no flight dump in $FLIGHT_DIR"
DUMP=$(ls "$FLIGHT_DIR"/r*.flight.json | head -1)
grep -q '"schema":"wavemin-flight"' "$DUMP" || fail "dump $DUMP lacks the schema"
"$W" explain "$DUMP" | grep -q 'flight recorder:' \
  || fail "wavemin explain could not render $DUMP"
echo "flight dump ok ($(basename "$DUMP"))"

# top against the now-dead daemon: --once reports the failure and exits
# 2; the live view prints `daemon unavailable` and keeps retrying on
# the polling cadence until killed — never a stack trace.
CODE=0; "$W" top -A "$SOCK" --once >"$TMP/top-dead.out" 2>&1 || CODE=$?
[ "$CODE" -eq 2 ] || fail "top --once against a dead daemon exited $CODE"
CODE=0; timeout 2 "$W" top -A "$SOCK" -i 0.3 >"$TMP/top-retry.out" 2>&1 || CODE=$?
[ "$CODE" -eq 124 ] || fail "top stopped retrying a dead daemon (exit $CODE)"
grep -q 'daemon unavailable' "$TMP/top-retry.out" \
  || fail "top retry loop printed no daemon-unavailable notice"
if grep -qiE 'backtrace|exception|fatal' "$TMP/top-retry.out"; then
  fail "top stack-traced on a dead daemon"
fi
echo "top survives a dead daemon (retries with notice)"

# ---- bench-serve: load-generate and gate the BENCH_serve.json --------
BENCH="$TMP/BENCH_serve.json"
ROTLOG="$TMP/access-bench.jsonl"
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors "$EXECUTORS" \
  --no-report \
  --access-log "$ROTLOG" --access-log-max-bytes 600 --access-log-keep 2 \
  >"$TMP/serve-bench.log" 2>&1 &
SERVER=$!
wait_ready
"$W" bench-serve -A "$SOCK" -c 4 -n 32 -b s15850 -o "$BENCH" \
  >"$TMP/bench-serve.out" 2>&1 || fail "bench-serve failed: $(cat "$TMP/bench-serve.out")"
grep -q '"experiment": "serve"' "$BENCH" || fail "malformed bench-serve report"
grep -q '"latency_p95_ms"' "$BENCH" || fail "bench-serve report lacks percentiles"
if [ -f bench/baselines/BENCH_serve.json ]; then
  # Latency numbers are machine-dependent: the gate only guards the shape
  # and catastrophic slowdowns (both ratio AND slack must trip, in ms).
  "$W" bench-diff bench/baselines/BENCH_serve.json "$BENCH" \
    --runtime-ratio 50 --runtime-slack 5000 \
    || fail "bench-serve report failed the regression gate"
  echo "bench-serve gate ok against bench/baselines/BENCH_serve.json"
else
  echo "bench-serve ok (no baseline to gate against)"
fi

# A duplicate-heavy profile on the same daemon must actually coalesce:
# concurrent connections carrying content-identical requests share one
# solve through the single-flight layer.
DUPBENCH="$TMP/BENCH_serve_dup.json"
"$W" bench-serve -A "$SOCK" -c 4 -n 48 -b s15850 --dup-fraction 0.6 \
  -o "$DUPBENCH" >"$TMP/bench-dup.out" 2>&1 \
  || fail "dup-heavy bench-serve failed: $(cat "$TMP/bench-dup.out")"
grep -q '"dup-wavemin"' "$DUPBENCH" \
  || fail "dup-heavy report carries no dup-wavemin class"
grep -q '"coalesced"' "$DUPBENCH" \
  || fail "dup-heavy report carries no coalesced counter"
COAL=$(sed -n 's/^coalesced \([0-9][0-9]*\).*/\1/p' "$TMP/bench-dup.out")
[ "${COAL:-0}" -ge 1 ] || { cat "$TMP/bench-dup.out"; fail "dup-heavy load coalesced nothing"; }
echo "bench-serve dup profile ok (coalesced $COAL)"

"$W" client -A "$SOCK" shutdown >/dev/null
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "bench daemon drain exited $CODE"

# Bench-serve requests at ~200 bytes/line against a 600-byte cap: the
# log must have rotated, kept at most 2 generations, and every
# surviving line must still be one parseable JSON object.
[ -f "$ROTLOG.1" ] || fail "access log never rotated under --access-log-max-bytes"
[ ! -f "$ROTLOG.3" ] || fail "access log kept more than --access-log-keep generations"
for f in "$ROTLOG" "$ROTLOG".*; do
  [ -s "$f" ] || continue
  grep -q '"rid":"r' "$f" || fail "rotated access file $f carries no request ids"
done
echo "access-log rotation ok ($(ls "$ROTLOG".* | wc -l) generations)"

# ---- SIGTERM drain ----------------------------------------------------
REPORT2="$TMP/BENCH_serve_sigterm.json"
ACCESS2="$TMP/access-sigterm.jsonl"
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors "$EXECUTORS" \
  --report "$REPORT2" --access-log "$ACCESS2" >"$TMP/serve2.log" 2>&1 &
SERVER=$!
wait_ready
"$W" client -A "$SOCK" run s15850 -a initial >/dev/null
kill -TERM "$SERVER"
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "SIGTERM drain exited $CODE"
[ -f "$REPORT2" ] || fail "no drain report after SIGTERM"
bash "$(dirname "$0")/check_accounting.sh" "$REPORT2" "$ACCESS2" \
  || fail "SIGTERM drain report and access log disagree"
echo "SIGTERM drain ok"

# ---- every fault seam: structured errors, never a dead daemon --------
"$W" library >"$TMP/leaf.lib"
for SEAM in parser waveform-cache noise-table pool-task report-writer; do
  SEAM_FLIGHT="$TMP/flight-$SEAM"
  mkdir -p "$SEAM_FLIGHT"
  WAVEMIN_JOBS="$JOBS" WAVEMIN_FAULTS="$SEAM:1" \
    "$W" serve -A "$SOCK" --executors "$EXECUTORS" --no-report \
    --flight-dir "$SEAM_FLIGHT" \
    >"$TMP/serve-$SEAM.log" 2>&1 &
  SERVER=$!
  wait_ready
  # The parser seam only fires on a library parse, so ship one along.
  CODE=0
  "$W" client -A "$SOCK" run s15850 -a wavemin --library "$TMP/leaf.lib" \
    >"$TMP/fault-$SEAM.json" 2>&1 || CODE=$?
  case "$CODE" in 0|2) ;; *) fail "seam $SEAM: client exited $CODE" ;; esac
  "$W" client -A "$SOCK" health >/dev/null \
    || fail "seam $SEAM: daemon died under injected fault"
  "$W" client -A "$SOCK" shutdown >/dev/null
  CODE=0; wait_exit "$SERVER" || CODE=$?
  SERVER=""
  [ "$CODE" -eq 0 ] || fail "seam $SEAM: drain exited $CODE"
  # A request the seam faulted (or degraded) must leave a black-box
  # dump.  The parser seam deterministically faults the library parse;
  # other seams may be absorbed cleanly by fallbacks, so only assert
  # where the failure is guaranteed.
  if [ "$SEAM" = parser ]; then
    ls "$SEAM_FLIGHT"/r*.flight.json >/dev/null 2>&1 \
      || fail "seam $SEAM: faulted request left no flight dump"
    "$W" explain "$(ls "$SEAM_FLIGHT"/r*.flight.json | head -1)" \
      >/dev/null || fail "seam $SEAM: flight dump unrenderable"
  fi
  echo "seam $SEAM survived (client exit ok, daemon drained cleanly)"
done

# ---- chaos: abusive peers, expired deadlines, kill -9 recovery -------
# Delegated to the standalone chaos driver (CI also runs it as its own
# job); artifacts land in this smoke's directory.
WAVEMIN_BIN="$W" WAVEMIN_SMOKE_DIR="$TMP" \
  bash "$(dirname "$0")/server_chaos.sh" "$JOBS" \
  || fail "chaos driver failed"

echo "== smoke ok =="
