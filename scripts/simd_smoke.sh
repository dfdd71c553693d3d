#!/usr/bin/env sh
# Smoke-test the simd server end to end, the way CI does: build it,
# serve on a local port, drive a verify and a pooled 4-round verify with
# curl, run a scenario remotely as a one-shard sweep and replay it
# locally, assert the NDJSON and /statsz shapes, then check SIGTERM
# drains to a clean exit. Run via `make smoke`.
set -eu

PORT="${SIMD_PORT:-$((20000 + $$ % 20000))}"
BASE="http://127.0.0.1:$PORT"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$WORKDIR/simd" ./cmd/simd
"$WORKDIR/simd" -addr "127.0.0.1:$PORT" -workers 4 -max-sessions 2 &
SERVER_PID=$!

ok=0
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "simd smoke: server never came up on $BASE" >&2; exit 1; }

echo "== verify: NDJSON stream with config records and a passing summary =="
VERIFY=$(curl -fsS "$BASE/v1/verify" -d '{"workload":"hamming","params":{"words":64}}')
echo "$VERIFY"
echo "$VERIFY" | grep -q '"record":"config"'
echo "$VERIFY" | grep -q '"record":"summary"'
echo "$VERIFY" | grep -q '"schema_version":1'
echo "$VERIFY" | grep -q '"verified":true'
echo "$VERIFY" | grep -q '"passed":true'

echo "== 4-round verify: pooled session, reset-and-replay rounds =="
ROUNDS=$(curl -fsS "$BASE/v1/verify" -d '{"workload":"hamming","params":{"words":64},"rounds":4}')
echo "$ROUNDS" | tail -1
echo "$ROUNDS" | grep -q '"pool_hit":true'
echo "$ROUNDS" | grep -q '"rounds":4'
echo "$ROUNDS" | grep -q '"elaborations":'
[ "$(echo "$ROUNDS" | grep -c '"record":"config"')" -ge 4 ]
# there is one verify route: /v1/sweep is gone
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sweep" -d '{"workload":"hamming","rounds":4}')
[ "$CODE" = 404 ] || { echo "/v1/sweep: HTTP $CODE, want 404" >&2; exit 1; }

echo "== campaign: a remote one-shard sweep that replays bit-identically =="
go build -o "$WORKDIR/testsuite" ./cmd/testsuite
"$WORKDIR/testsuite" sweep run -scenario examples/scenarios/mixed-poisson.json \
    -shards 1 -remote "$BASE" -out "$WORKDIR/trace.jsonl" -q
head -1 "$WORKDIR/trace.jsonl"
tail -1 "$WORKDIR/trace.jsonl"
grep -q '"record":"scenario"' "$WORKDIR/trace.jsonl"
grep -q '"record":"case"' "$WORKDIR/trace.jsonl"
grep -q '"record":"scenario_summary"' "$WORKDIR/trace.jsonl"
grep -q '"ok":true' "$WORKDIR/trace.jsonl"
"$WORKDIR/testsuite" -replay "$WORKDIR/trace.jsonl" | grep -q "replay matches the recorded trace"
echo "replayed $(grep -c '"record":"case"' "$WORKDIR/trace.jsonl") remotely recorded cases bit-identically"
# a malformed scenario is a clean 400, not a broken stream
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sweep/sharded" \
    -d '{"spec":{"name":"bad","scenario":{"name":"bad","cases":1,"mix":[]}},"shard":0}')
[ "$CODE" = 400 ] || { echo "scenario validation: HTTP $CODE, want 400" >&2; exit 1; }

echo "== sharded sweep: one shard job streamed as shard records =="
CAMP='{"name":"smoke-camp","shards":2,"grid":{"workloads":["hamming,words=8"],"seed_from":1,"seed_to":5}}'
SHARD=$(curl -fsS "$BASE/v1/sweep/sharded" -d "{\"spec\":$CAMP,\"shard\":0}")
echo "$SHARD" | head -1
echo "$SHARD" | tail -1
echo "$SHARD" | grep -q '"record":"shard"'
echo "$SHARD" | grep -q '"record":"case"'
echo "$SHARD" | grep -q '"record":"shard_result"'
echo "$SHARD" | grep -q '"campaign":"smoke-camp"'
# a shard index outside the campaign layout is a clean 400
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sweep/sharded" -d "{\"spec\":$CAMP,\"shard\":9}")
[ "$CODE" = 400 ] || { echo "sharded sweep validation: HTTP $CODE, want 400" >&2; exit 1; }

echo "== backends: descriptor catalog with the server default =="
BACKENDS=$(curl -fsS "$BASE/v1/backends")
echo "$BACKENDS"
echo "$BACKENDS" | grep -q '"schema_version":1'
echo "$BACKENDS" | grep -q '"default":"twolevel"'
echo "$BACKENDS" | grep -q '"name":"twolevel"'
echo "$BACKENDS" | grep -q '"kind":"event"'
echo "$BACKENDS" | grep -q '"name":"compiled"'
echo "$BACKENDS" | grep -q '"kind":"cycle"'
echo "$BACKENDS" | grep -q '"supports_gang":true'

echo "== statsz: pool and throughput counters =="
STATS=$(curl -fsS "$BASE/statsz")
echo "$STATS"
echo "$STATS" | grep -q '"schema_version":1'
echo "$STATS" | grep -q '"sessions":1'
echo "$STATS" | grep -q '"pool_hits":1'
echo "$STATS" | grep -q '"pool_misses":1'
echo "$STATS" | grep -q '"sessions_detail"'

echo "== SIGTERM drains to a clean exit =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""

echo "simd smoke: OK"
