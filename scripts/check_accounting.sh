#!/usr/bin/env bash
# Cross-check a drained daemon's books: every per-status counter in the
# drain report must equal the number of access-log lines with that
# status, and requests_coalesced the lines answered from another
# request's solve.  Both come from the one request-outcome record, so
# any difference is a bookkeeping bug.
#
# Usage: scripts/check_accounting.sh REPORT ACCESS_LOG
#   REPORT      the daemon's drain report (serve --report)
#   ACCESS_LOG  its access log (serve --access-log, without rotation:
#               rotated-away generations would be missing lines)

set -euo pipefail

[ "$#" -eq 2 ] || { echo "usage: $0 REPORT ACCESS_LOG" >&2; exit 2; }
REPORT="$1"
ACCESS="$2"

for pair in \
  'requests_served "status":"ok"' \
  'request_errors "status":"error"' \
  'requests_rejected "status":"rejected"' \
  'requests_expired "status":"expired"' \
  'requests_abandoned "status":"abandoned"' \
  'requests_coalesced "cache":"coalesced"'; do
  key="${pair%% *}"
  pattern="${pair#* }"
  want=$(sed -n "s/.*\"$key\": *\"\([0-9]*\)\".*/\1/p" "$REPORT" | head -1)
  [ -n "$want" ] || { echo "FAIL: $REPORT has no $key" >&2; exit 1; }
  got=$(grep -cF "$pattern" "$ACCESS" || true)
  [ "$want" -eq "$got" ] || {
    echo "FAIL: $key is $want in $REPORT but $got lines of $ACCESS have $pattern" >&2
    exit 1
  }
done
echo "accounting ok: drain report and access log agree ($(wc -l <"$ACCESS") lines)"
