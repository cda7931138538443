#!/usr/bin/env bash
# Chaos driver for the service mode: deliberately abusive peers and
# ungraceful deaths against a live `wavemin serve`, asserting the
# daemon's resilience contract end to end:
#   - slowloris dribble / silent connection: the idle-timeout guard cuts
#     the peer off with a structured io-error (only complete request
#     lines reset the idle clock);
#   - oversized flood: a newline-less line past --max-line gets a
#     structured parse-error and a closed connection, never unbounded
#     buffering;
#   - mid-request disconnect: work whose client vanished is marked
#     abandoned at dispatch and skipped, the daemon stays healthy;
#   - expired deadlines: requests whose --deadline-ms passes while
#     queued come back as structured deadline-exceeded errors and are
#     provably never executed;
#   - accounting: after a graceful drain, every per-status counter of
#     the drain report equals the access-log lines with that status
#     (scripts/check_accounting.sh);
#   - kill -9 + restart: the stale socket file left behind is probed,
#     evicted and rebound by the next daemon, while a client with
#     --retries rides out the restart window on jittered backoff.
#
# Usage: scripts/server_chaos.sh [JOBS]   (from the repo root)
# Env:   WAVEMIN_BIN        path to wavemin.exe (default _build/default/bin/...)
#        WAVEMIN_CHAOS_BIN  path to the abusive-peer program test/chaos.ml
#                           (default _build/default/test/chaos.exe)
#        WAVEMIN_SMOKE_DIR  keep artifacts here instead of a throwaway
#                           mktemp dir (CI uploads it on failure; the
#                           full smoke passes its own dir through).

set -euo pipefail

JOBS="${1:-1}"
W="${WAVEMIN_BIN:-_build/default/bin/wavemin.exe}"
CHAOS="${WAVEMIN_CHAOS_BIN:-_build/default/test/chaos.exe}"
if [ -n "${WAVEMIN_SMOKE_DIR:-}" ]; then
  TMP="$WAVEMIN_SMOKE_DIR"
  mkdir -p "$TMP"
  KEEP_TMP=1
else
  TMP="$(mktemp -d /tmp/wavemin-chaos.XXXXXX)"
  KEEP_TMP=0
fi
SOCK="unix:$TMP/serve-chaos.sock"
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

echo "== wavemin chaos, jobs=$JOBS =="

# A short-fused single-executor daemon: 0.5 s idle timeout and a 4 KiB
# line cap so the abuse guards trip fast, one executor so queued work
# reliably outlives its deadline.
CHAOS_FLIGHT="$TMP/flight-chaos"
mkdir -p "$CHAOS_FLIGHT"
CHAOS_ACCESS="$TMP/access-chaos.jsonl"
CHAOS_REPORT="$TMP/BENCH_serve_chaos.json"
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors 1 \
  --report "$CHAOS_REPORT" \
  --idle-timeout 0.5 --max-line 4096 \
  --access-log "$CHAOS_ACCESS" --flight-dir "$CHAOS_FLIGHT" \
  >"$TMP/serve-chaos.log" 2>&1 &
SERVER=$!
wait_ready

# Slowloris: a byte-at-a-time dribbler never finishes a line (only
# complete lines reset the idle clock), so the guard cuts it off.
"$CHAOS" -A "$SOCK" dribble --delay 0.05 --wait 10 >"$TMP/chaos-dribble.out"
grep -qE 'io-error|idle|server closed' "$TMP/chaos-dribble.out" \
  || fail "dribbler not cut off: $(cat "$TMP/chaos-dribble.out")"
echo "chaos dribble ok: $(cat "$TMP/chaos-dribble.out")"

# Silent connection: same guard, zero bytes sent.
"$CHAOS" -A "$SOCK" hang --wait 10 >"$TMP/chaos-hang.out"
grep -qE 'io-error|idle|server closed' "$TMP/chaos-hang.out" \
  || fail "hanging peer not cut off: $(cat "$TMP/chaos-hang.out")"

# Oversized flood: a newline-less 1 MiB line against the 4 KiB cap gets
# a structured parse-error and a closed connection, never unbounded
# buffering.
"$CHAOS" -A "$SOCK" oversize --bytes 1048576 --wait 10 >"$TMP/chaos-oversize.out"
grep -qE 'parse-error|request-line|server closed' "$TMP/chaos-oversize.out" \
  || fail "oversized line not rejected: $(cat "$TMP/chaos-oversize.out")"
echo "chaos oversize ok: $(cat "$TMP/chaos-oversize.out")"
"$W" client -A "$SOCK" health >/dev/null || fail "daemon unhealthy after abuse"

# Mid-request disconnect + expired-deadline burst.  A slow solve pins
# the executor; behind it queue (a) a heavy request whose client
# vanishes immediately and (b) three 1 ms-deadline requests.  At
# dispatch the abandoned one is skipped, the expired ones come back as
# structured deadline-exceeded errors, and none of the four executes.
"$W" client -A "$SOCK" montecarlo s13207 -n 4000 >/dev/null 2>&1 &
SLOWC=$!
sleep 0.3
"$CHAOS" -A "$SOCK" disconnect -b s38417 >"$TMP/chaos-disc.out"
DEADQ=""
for i in 1 2 3; do
  "$W" client -A "$SOCK" run s38417 -a initial -k "3$i" --deadline-ms 1 \
    >"$TMP/deadline.$i" 2>&1 &
  DEADQ="$DEADQ $!"
done
wait $SLOWC || true
for pid in $DEADQ; do wait "$pid" || true; done
# (grep || true): under pipefail a zero-match grep would kill the
# script before the diagnostic below could print.
EXPIRED=$( (grep -l 'deadline-exceeded' "$TMP"/deadline.* || true) | wc -l)
[ "$EXPIRED" -eq 3 ] || { cat "$TMP"/deadline.*; fail "deadline burst: $EXPIRED/3 expired"; }
STATS=$("$W" client -A "$SOCK" stats)
echo "$STATS" | grep -q '"expired": [1-9]' \
  || fail "stats counted no expired requests"
echo "$STATS" | grep -q '"abandoned": [1-9]' \
  || fail "stats counted no abandoned requests"
echo "chaos deadlines ok (3/3 expired at the client, abandoned counted)"

# The access log saw the whole episode: abusive peers as rejected
# lines, shed work as expired/abandoned — all without executing.
grep -q '"status":"rejected"' "$CHAOS_ACCESS" \
  || fail "access log missed the abusive-peer rejections"
grep -q '"status":"expired"' "$CHAOS_ACCESS" \
  || fail "access log missed the expired requests"
grep -q '"status":"abandoned"' "$CHAOS_ACCESS" \
  || fail "access log missed the abandoned request"

# Drain, then the books must balance: each status's drain-report
# counter equals its access-log lines (peer rejections included).
"$W" client -A "$SOCK" shutdown >/dev/null
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "chaos daemon drain exited $CODE"
bash "$(dirname "$0")/check_accounting.sh" "$CHAOS_REPORT" "$CHAOS_ACCESS" \
  || fail "drain report and access log disagree"

# kill -9: no drain, no unlink — the socket file is left behind.  The
# next daemon must probe it, find nobody answering, evict it and bind;
# a client retrying with backoff rides out the restart window.
WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors 1 --no-report \
  >"$TMP/serve-chaos-victim.log" 2>&1 &
SERVER=$!
wait_ready
kill -9 "$SERVER" 2>/dev/null || true
wait "$SERVER" 2>/dev/null || true
SERVER=""
SOCKPATH="${SOCK#unix:}"
[ -S "$SOCKPATH" ] || fail "kill -9 left no stale socket (test premise broken)"
( sleep 0.5
  exec env WAVEMIN_JOBS="$JOBS" "$W" serve -A "$SOCK" --executors 1 \
    --no-report --log-level info >"$TMP/serve-chaos2.log" 2>&1 ) &
SERVER=$!
"$W" client -A "$SOCK" run s15850 -a initial \
  --retries 20 --retry-backoff 50 \
  >"$TMP/retry.out" 2>"$TMP/retry.err" \
  || { cat "$TMP/retry.err"; fail "retrying client never reached the restarted daemon"; }
grep -q 'retry' "$TMP/retry.err" \
  || fail "restart window closed before the client ever retried"
echo "chaos kill -9 ok: stale socket recovered, client retried through the restart"
grep -q 'removing stale socket' "$TMP/serve-chaos2.log" \
  || fail "restarted daemon never reported the stale-socket eviction"

"$W" client -A "$SOCK" shutdown >/dev/null
CODE=0; wait_exit "$SERVER" || CODE=$?
SERVER=""
[ "$CODE" -eq 0 ] || fail "chaos daemon drain exited $CODE"

echo "== chaos ok =="
