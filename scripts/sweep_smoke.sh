#!/usr/bin/env sh
# Smoke-test the sharded sweep coordinator end to end, the way CI does:
# run a single-shard reference campaign, run the same campaign sharded
# across subprocess workers with a kill injected mid-shard (the pass
# must fail and preserve its completed shards), resume it, and assert
# the merged file is byte-identical to the reference, replays
# bit-identically, and is reproduced by a merge-only pass over the
# finished shard directory. Run via `make sweep-smoke`.
set -eu

WORKDIR="$(mktemp -d)"
cleanup() { rm -rf "$WORKDIR"; }
trap cleanup EXIT

go build -o "$WORKDIR/testsuite" ./cmd/testsuite
SPEC=examples/sweeps/mixed-campaign.json

echo "== reference: the same campaign as one shard, one worker =="
"$WORKDIR/testsuite" sweep run -spec "$SPEC" -shards 1 -out-dir "$WORKDIR/ref" -q

echo "== chaos: sharded subprocess campaign, worker killed mid-shard =="
if SWEEP_FAULT=kill:1 "$WORKDIR/testsuite" sweep run -spec "$SPEC" -subprocess -out-dir "$WORKDIR/camp" -q; then
    echo "sweep smoke: injected kill did not fail the pass" >&2
    exit 1
fi
if [ -f "$WORKDIR/camp/campaign.jsonl" ]; then
    echo "sweep smoke: merged file written despite a torn shard" >&2
    exit 1
fi
"$WORKDIR/testsuite" sweep status -out-dir "$WORKDIR/camp"

echo "== resume: only the lost shards re-execute =="
"$WORKDIR/testsuite" sweep run -spec "$SPEC" -out-dir "$WORKDIR/camp" -resume -shard-workers 2 -q

echo "== merged campaign is byte-identical to the single-shard reference =="
cmp "$WORKDIR/ref/campaign.jsonl" "$WORKDIR/camp/campaign.jsonl"

echo "== merge-only pass over the finished shards writes the same bytes =="
"$WORKDIR/testsuite" sweep merge -out-dir "$WORKDIR/camp" -out "$WORKDIR/remerged.jsonl"
cmp "$WORKDIR/ref/campaign.jsonl" "$WORKDIR/remerged.jsonl"

echo "== merged campaign replays bit-identically =="
go run ./cmd/testsuite -replay "$WORKDIR/camp/campaign.jsonl" | grep -q "replay matches the recorded trace"

echo "== flaky remote fleet: one live simd server, one dead endpoint =="
# The dispatch layer must quarantine the unreachable endpoint, requeue
# its shards on the live server, and still merge the identical bytes.
go build -o "$WORKDIR/simd" ./cmd/simd
PORT="${SIMD_PORT:-$((20000 + $$ % 20000))}"
"$WORKDIR/simd" -addr "127.0.0.1:$PORT" -workers 4 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; cleanup' EXIT
ok=0
for _ in $(seq 1 100); do
    if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "sweep smoke: simd never came up on :$PORT" >&2; exit 1; }

"$WORKDIR/testsuite" sweep run -spec "$SPEC" -out-dir "$WORKDIR/fleet" \
    -remote "http://127.0.0.1:$PORT,http://127.0.0.1:1" \
    -shard-workers 2 2>"$WORKDIR/fleet.log"
cat "$WORKDIR/fleet.log"

echo "== fleet merge is byte-identical to the single-shard reference =="
cmp "$WORKDIR/ref/campaign.jsonl" "$WORKDIR/fleet/campaign.jsonl"

echo "== the dead endpoint was routed around, not retried into failure =="
grep -q "requeues" "$WORKDIR/fleet.log" || {
    echo "sweep smoke: no requeues reported with a dead endpoint in the fleet" >&2
    exit 1
}

echo "sweep smoke: OK"
