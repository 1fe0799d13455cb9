#!/bin/sh
# serve-smoke.sh — end-to-end smoke test of the experiment daemon.
#
# Builds the real cmd/experiments binary, boots it with -serve on an
# ephemeral port, waits for the "serving on" announcement, then:
#   1. checks /healthz answers "ok",
#   2. fetches one exhibit as CSV over HTTP,
#   3. runs the same exhibit through the plain CLI with -csv,
#   4. diffs the two byte-for-byte, and checks every spill in the shared
#      cache is an MLPCOLS2 manifest,
#   5. sends SIGTERM and asserts the daemon drains and exits 0.
#
# Everything lives under a temp dir; the trace cache is shared between
# daemon and CLI so the second run replays the first run's spill.
set -eu

GO="${GO:-go}"
EXHIBIT="${EXHIBIT:-table5}"
WARMUP="${WARMUP:-20000}"
MEASURE="${MEASURE:-60000}"

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building cmd/experiments"
"$GO" build -o "$tmp/experiments" ./cmd/experiments

echo "serve-smoke: starting daemon on an ephemeral port"
"$tmp/experiments" -serve 127.0.0.1:0 \
    -warmup "$WARMUP" -measure "$MEASURE" \
    -trace-cache-dir "$tmp/atrace" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!

# The daemon prints "experiments: serving on http://HOST:PORT" before it
# accepts connections; poll the log for that line.
base=""
i=0
while [ $i -lt 100 ]; do
    base="$(sed -n 's/^experiments: serving on //p' "$tmp/daemon.log" | head -n1)"
    [ -n "$base" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: FAIL daemon died before announcing its address" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$base" ]; then
    echo "serve-smoke: FAIL daemon never announced its address" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
echo "serve-smoke: daemon is up at $base"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

health="$(fetch "$base/healthz")"
if [ "$health" != "ok" ]; then
    echo "serve-smoke: FAIL /healthz said '$health', want 'ok'" >&2
    exit 1
fi

echo "serve-smoke: fetching $EXHIBIT as CSV over HTTP"
fetch "$base/v1/exhibits/$EXHIBIT?format=csv" >"$tmp/server.csv"

echo "serve-smoke: running the same exhibit through the CLI"
"$tmp/experiments" -only "$EXHIBIT" \
    -warmup "$WARMUP" -measure "$MEASURE" \
    -trace-cache-dir "$tmp/atrace" -csv "$tmp/cli" >/dev/null

if ! diff -u "$tmp/cli/$EXHIBIT.csv" "$tmp/server.csv"; then
    echo "serve-smoke: FAIL server CSV differs from CLI CSV" >&2
    exit 1
fi
echo "serve-smoke: server and CLI CSV are byte-identical"

# Every spill in the shared cache must be an MLPCOLS2 manifest (its
# segment bodies sit beside it as *.acol.segNNNN).
spills=0
for f in "$tmp"/atrace/*.acol; do
    [ -e "$f" ] || continue
    spills=$((spills + 1))
    if [ "$(head -c 8 "$f")" != "MLPCOLS2" ]; then
        echo "serve-smoke: FAIL spill $f is not an MLPCOLS2 manifest" >&2
        exit 1
    fi
done
if [ "$spills" -eq 0 ]; then
    echo "serve-smoke: FAIL no spills in the trace cache directory" >&2
    exit 1
fi
echo "serve-smoke: all $spills spills are MLPCOLS2 manifests"

echo "serve-smoke: sending SIGTERM"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: FAIL daemon exited non-zero after SIGTERM" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q "drained" "$tmp/daemon.log"; then
    echo "serve-smoke: FAIL daemon log never reported a clean drain" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
echo "serve-smoke: PASS (clean drain, exit 0)"
