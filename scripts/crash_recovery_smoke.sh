#!/usr/bin/env bash
# Crash-recovery smoke: boot a durable bfserved, register + mutate a
# graph, kill the daemon with SIGKILL (no drain, no checkpoint), boot a
# second daemon over the same -data-dir, and require it to serve the
# exact same (version, butterflies) it acked before dying.
#
# Used by `make crash-smoke` and the CI store-recovery job. Needs only
# curl + standard shell tools.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
DIR="$(mktemp -d)"
BIN="${BFSERVED:-./bfserved}"
cleanup() {
  if [ -n "${SERVER:-}" ] && [ "${SERVER:-0}" -gt 0 ]; then
    kill -9 "$SERVER" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

if [ ! -x "$BIN" ]; then
  go build -o bfserved ./cmd/bfserved
  BIN=./bfserved
fi

wait_ready() {
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "bfserved never became ready" >&2
  return 1
}

# jq when available, portable sed fallback otherwise.
field() { # field <json> <name>
  if command -v jq >/dev/null 2>&1; then
    printf '%s' "$1" | jq -r ".$2"
  else
    printf '%s' "$1" | sed -E "s/.*\"$2\":([0-9]+).*/\1/"
  fi
}

echo "== first life (data dir $DIR)"
"$BIN" -addr "$ADDR" -data-dir "$DIR" -fsync always -preload occupations@50 &
SERVER=$!
wait_ready

curl -sf -X POST "http://$ADDR/graphs" \
  -d '{"name":"crash","m":4,"n":4,"edges":[[0,0],[0,1],[0,2],[1,0],[1,1],[1,2],[2,0],[2,1],[2,2],[3,3]]}' >/dev/null
curl -sf -X POST "http://$ADDR/graphs/crash/mutate" \
  -d '{"inserts":[[3,0],[3,1]],"deletes":[[2,2]]}' >/dev/null
curl -sf -X POST "http://$ADDR/graphs/occupations/mutate" \
  -d '{"deletes":[[0,0],[1,1],[2,2]]}' >/dev/null

BEFORE_CRASH=$(curl -sf "http://$ADDR/graphs/crash")
BEFORE_OCC=$(curl -sf "http://$ADDR/graphs/occupations")
echo "   crash:       $BEFORE_CRASH"
echo "   occupations: $BEFORE_OCC"

echo "== kill -9"
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true

echo "== second life"
# Same -preload on purpose: the recovered (mutated) graph must win.
"$BIN" -addr "$ADDR" -data-dir "$DIR" -fsync always -preload occupations@50 &
SERVER=$!
wait_ready

AFTER_CRASH=$(curl -sf "http://$ADDR/graphs/crash")
AFTER_OCC=$(curl -sf "http://$ADDR/graphs/occupations")
echo "   crash:       $AFTER_CRASH"
echo "   occupations: $AFTER_OCC"

fail=0
for name in crash occupations; do
  if [ "$name" = crash ]; then before=$BEFORE_CRASH after=$AFTER_CRASH; else before=$BEFORE_OCC after=$AFTER_OCC; fi
  for f in version butterflies edges; do
    b=$(field "$before" "$f"); a=$(field "$after" "$f")
    if [ "$b" != "$a" ]; then
      echo "FAIL: $name.$f changed across kill -9: $b -> $a" >&2
      fail=1
    fi
  done
done

# A fresh exact count over the recovered graph must agree with the
# stamped butterfly count.
COUNT=$(curl -sf -X POST "http://$ADDR/graphs/crash/count" -d '{}')
if [ "$(field "$COUNT" butterflies)" != "$(field "$AFTER_CRASH" butterflies)" ]; then
  echo "FAIL: recount $(field "$COUNT" butterflies) != recovered stamp $(field "$AFTER_CRASH" butterflies)" >&2
  fail=1
fi

kill -TERM "$SERVER"
wait "$SERVER"
SERVER=0

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "OK: kill -9 recovery serves identical state"
