#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the serving stack, using only
# repo binaries (no curl/jq): boot rtserved, prove the cache contract
# (miss then hit, byte-equal bodies, the repeat answered without
# decoding, byte-equal to a local `rtrun -scenario` run), hold a
# pinned latency SLO on a cached burst, then saturate a deliberately
# tiny second instance and prove the admission layer sheds with 429s
# that /metrics reflects.
#
# Environment:
#   SMOKE_SLO_P99   p99 bound for the cached burst (default 1s — the
#                   burst is cache-hit dominated, so even a loaded
#                   1-CPU runner clears this by orders of magnitude)
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
server_pid=""
sat_pid=""
cleanup() {
  status=$?
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
  [ -n "$sat_pid" ] && kill "$sat_pid" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

die() {
  echo "serve-smoke: $*" >&2
  exit 1
}

# wait_port <file>: the port-file handshake — rtserved renames the
# file into place only after the listener is bound.
wait_port() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

echo "serve-smoke: building rtserved, rtload, rtrun" >&2
go build -o "$tmp/rtserved" ./cmd/rtserved
go build -o "$tmp/rtload" ./cmd/rtload
go build -o "$tmp/rtrun" ./cmd/rtrun

scen=testdata/scenarios/figure5.json
mix="$scen,testdata/scenarios/jitter-stop.json"

"$tmp/rtserved" -addr 127.0.0.1:0 -workers 2 -queue 8 -port-file "$tmp/port" 2>"$tmp/rtserved.log" &
server_pid=$!
wait_port "$tmp/port" || { cat "$tmp/rtserved.log" >&2; die "server never wrote its port file"; }
url="http://$(cat "$tmp/port")"
echo "serve-smoke: rtserved at $url" >&2

"$tmp/rtload" -url "$url" -health || die "/healthz never answered"

# The cache contract: first POST is a miss, the repeat is a hit, and
# both bodies are byte-identical.
"$tmp/rtload" -url "$url" -scenario "$scen" -post -out "$tmp/r1.txt" 2>"$tmp/h1" \
  || { cat "$tmp/h1" >&2; die "first POST failed"; }
grep -q 'status=200 cache=miss' "$tmp/h1" || { cat "$tmp/h1" >&2; die "first POST was not a 200 miss"; }
"$tmp/rtload" -url "$url" -scenario "$scen" -post -out "$tmp/r2.txt" 2>"$tmp/h2" \
  || { cat "$tmp/h2" >&2; die "repeat POST failed"; }
grep -q 'status=200 cache=hit' "$tmp/h2" || { cat "$tmp/h2" >&2; die "repeat POST was not a 200 cache hit"; }
cmp "$tmp/r1.txt" "$tmp/r2.txt" || die "cache hit returned different bytes than the miss"
# The repeat was byte-identical, so the body memo answered it without
# decoding or digesting.
"$tmp/rtload" -url "$url" -metrics >"$tmp/hitmetrics.json"
grep -Eq '"decodes_skipped": [1-9]' "$tmp/hitmetrics.json" \
  || { cat "$tmp/hitmetrics.json" >&2; die "/metrics does not show the repeat skipped decoding"; }

# The serving contract: the served report is byte-equal to what a
# local `rtrun -scenario` run prints (the summary on stderr).
"$tmp/rtrun" -scenario "$scen" >/dev/null 2>"$tmp/local.txt"
cmp "$tmp/r1.txt" "$tmp/local.txt" || die "served report differs from rtrun -scenario"
echo "serve-smoke: served report byte-equal to rtrun, cache hit verified" >&2

# Pinned latency SLO on a cached burst.
"$tmp/rtload" -url "$url" -scenario "$mix" -rate 40 -duration 2s -slo-p99 "${SMOKE_SLO_P99:-1s}" \
  || die "cached burst missed its latency SLO"

# Saturation: a deliberately tiny instance (one worker, one queue
# slot) under content-unique load must shed with 429s — and keep
# serving — rather than queue without bound.
"$tmp/rtserved" -addr 127.0.0.1:0 -workers 1 -queue 1 -port-file "$tmp/satport" 2>"$tmp/sat.log" &
sat_pid=$!
wait_port "$tmp/satport" || { cat "$tmp/sat.log" >&2; die "saturation server never wrote its port file"; }
saturl="http://$(cat "$tmp/satport")"
"$tmp/rtload" -url "$saturl" -scenario testdata/scenarios/scaling-100.json \
  -unique -rate 200 -duration 1s -concurrency 16 -min-throttled 1 \
  || die "saturating burst did not shed (or errored)"
"$tmp/rtload" -url "$saturl" -metrics >"$tmp/metrics.json"
grep -Eq '"throttled": [1-9]' "$tmp/metrics.json" || { cat "$tmp/metrics.json" >&2; die "/metrics does not reflect the shed load"; }
"$tmp/rtload" -url "$saturl" -health || die "server unhealthy after saturation"

echo "serve-smoke: OK (cache, byte-equality, SLO, shedding, metrics)" >&2
