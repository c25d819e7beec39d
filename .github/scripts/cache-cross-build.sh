#!/usr/bin/env bash
# Cross-build leg of the result-cache smoke test: a fleet cache filled by
# an older build must replay into this build's art9-batch. Run it from
# anywhere inside a checkout, naming the base revision:
#
#   bash .github/scripts/cache-cross-build.sh HEAD~1
#
# It builds art9-serve and art9-batch of the base revision from a detached
# git worktree, and art9-batch of the checkout's working tree. Two
# cache-enabled leaves of the base build take the base build's cold run
# of examples/batch/manifest.json; this build then runs the manifest twice,
# once replaying from those leaves and once cold without a cache.
#
#   - When both builds share sim.SemanticsVersion and gate.ModelDigest(),
#     every replayed job must hit, and the replayed rows (name, metrics,
#     implementations) must equal the base build's cold rows.
#   - Otherwise the keys differ, so no job may hit.
#   - Either way the replayed rows must equal this build's cold rows.
#
# Needs go, git, jq and curl, and free ports 9411 and 9412. Everything it
# writes goes to a temporary directory, removed on exit with the worktree.
set -euo pipefail

base=${1:?usage: cache-cross-build.sh BASE_REVISION}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
	for f in "$work"/*.pid; do
		[ -e "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
	done
	git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base"
go -C "$work/base" build -o "$work/base-serve" ./cmd/art9-serve
go -C "$work/base" build -o "$work/base-batch" ./cmd/art9-batch
go -C "$root" build -o "$work/batch" ./cmd/art9-batch

semantics() { grep -o 'SemanticsVersion = "[^"]*"' "$1/internal/sim/sim.go"; }

"$work/base-serve" -addr 127.0.0.1:9411 -workers 2 -cache >"$work/leaf1.log" 2>&1 &
echo $! >"$work/leaf1.pid"
"$work/base-serve" -addr 127.0.0.1:9412 -workers 2 -cache \
	-cache-peers http://127.0.0.1:9411 >"$work/leaf2.log" 2>&1 &
echo $! >"$work/leaf2.pid"
for port in 9411 9412; do
	for _ in $(seq 1 50); do
		curl -fsS "http://127.0.0.1:$port/v1/healthz" >/dev/null 2>&1 && break
		sleep 0.2
	done
	curl -fsS "http://127.0.0.1:$port/v1/healthz" | jq -e '.cache == true' >/dev/null
done

manifest="$root/examples/batch/manifest.json"
peers=http://127.0.0.1:9411,http://127.0.0.1:9412
rows() { jq '.jobs | map({name, metrics, implementations}) | sort_by(.name)' "$1"; }

# The base build's cold run fills both leaves (the write-behind queue
# drains when the batch closes its evaluator, before it exits).
"$work/base-batch" -manifest "$manifest" -cache -cache-peers "$peers" -o "$work/base-cold.json"
jq -e '.failures == 0 and .cache.results.puts >= 1' "$work/base-cold.json" >/dev/null

# This build replays from the base build's leaves with an empty local
# store, then computes the same manifest cold.
"$work/batch" -manifest "$manifest" -cache -cache-peers "$peers" -o "$work/replay.json"
"$work/batch" -manifest "$manifest" -o "$work/cold.json"
for f in replay cold; do
	jq -e '.failures == 0' "$work/$f.json" >/dev/null
done

rows "$work/base-cold.json" >"$work/base-rows.json"
rows "$work/replay.json" >"$work/replay-rows.json"
rows "$work/cold.json" >"$work/cold-rows.json"
jobs=$(jq '.jobs | length' "$work/replay.json")
hits=$(jq '.cache.results.hits' "$work/replay.json")
if [ "$(semantics "$work/base")" = "$(semantics "$root")" ] &&
	[ "$(jq -r '.cache.results.model_digest' "$work/base-cold.json")" = \
		"$(jq -r '.cache.results.model_digest' "$work/replay.json")" ]; then
	jq -e '.cache.results.hits == (.jobs | length) and
	       .cache.results.peer_hits >= 1 and
	       ([.jobs[].worker] | all(. == -1))' "$work/replay.json" >/dev/null ||
		{ echo "cross-build: $hits of $jobs jobs hit the base build's cache, want all"; exit 1; }
	diff -u "$work/base-rows.json" "$work/replay-rows.json"
	verdict="all $jobs jobs hit; rows identical to the base build's cold rows and to this build's"
else
	jq -e '.cache.results.hits == 0' "$work/replay.json" >/dev/null ||
		{ echo "cross-build: $hits jobs hit across a semantics or model change, want none"; exit 1; }
	verdict="semantics or model changed: no job hit; rows identical to this build's cold rows"
fi
diff -u "$work/cold-rows.json" "$work/replay-rows.json"
echo "cache cross-build against $base ($(git -C "$root" rev-parse --short "$base")): $verdict"
