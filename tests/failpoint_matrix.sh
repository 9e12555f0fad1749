#!/bin/sh
# Failpoint matrix: arm each production failpoint site in turn and require
# rloopd to degrade gracefully — clean exit with a consistent invariant, no
# crash, no hang — and to prove the armed site fired: every rloopd entry
# writes --stats-out and fails unless rloop_failpoint_trips_total{name=<site>}
# is at least 1. Runs only against a -DRLOOP_FAILPOINTS=ON build (with
# failpoints compiled out every spec below is inert, so ctest gates it on
# the option).
#
# Usage: failpoint_matrix.sh <rloopd-binary> [pcap_inspect-binary]
set -eu

RLOOPD=$1
PCAP_INSPECT=${2:-}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/rloop_fpmatrix.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1" >&2
  cat "$WORK/err" >&2
  exit 1
}

# Fails unless the stats file records at least one trip of site $1.
require_trip() {
  trips=$(grep -F '"rloop_failpoint_trips_total"' "$WORK/stats.json" |
    grep -F "{\"name\":\"$1\"}" | sed 's/.*"value":\([0-9]*\).*/\1/')
  if [ -z "$trips" ] || [ "$trips" -eq 0 ]; then
    fail "$1: armed but never tripped"
  fi
  echo "   $1 tripped $trips time(s)"
}

run_site() {
  spec=$1
  shift
  echo "== $spec =="
  rm -f "$WORK/stats.json"
  RLOOP_FAILPOINTS_SPEC="$spec" timeout 120 "$RLOOPD" "$@" \
      --stats-out "$WORK/stats.json" >"$WORK/out" 2>"$WORK/err" ||
    fail "$spec: rloopd exited non-zero"
  require_trip "${spec%%=*}"
}

# drop-newest so a single injected push failure sheds one record instead of
# blocking the producer forever.
SCEN="--scenario ddos_burst --seed 0 --speed max --policy drop-newest --quiet"

for site in daemon.ring.push daemon.ring.pop daemon.epoch \
            daemon.governor.degrade streaming.insert flat_map.grow; do
  run_site "$site=trip@nth:5" $SCEN --alerts-out "$WORK/alerts.txt"
done

# A failed snapshot write must be absorbed (counted, retried next epoch),
# never fatal — and must not leave a half-written file the next start trusts.
run_site "daemon.checkpoint.write=trip@nth:2" $SCEN \
  --checkpoint-dir "$WORK/ckpt"
env -u RLOOP_FAILPOINTS_SPEC timeout 120 "$RLOOPD" $SCEN \
  --checkpoint-dir "$WORK/ckpt" >"$WORK/out" 2>"$WORK/err" ||
  fail "restart after tripped checkpoint write"

# SIGHUP mid-run with the reload failpoint tripped: the reload is abandoned,
# the running config stays live, and the run still completes. rloopd prints
# its cold-start line once its signal handlers reach the daemon; the HUP
# waits for that line (polled, at most 60 s) rather than for a fixed time,
# which a slow sanitized build can outlast.
echo "== daemon.config.reload=trip@nth:1 (live SIGHUP) =="
echo "stats_interval_s=0" >"$WORK/reload.conf"
rm -f "$WORK/stats.json"
RLOOP_FAILPOINTS_SPEC="daemon.config.reload=trip@nth:1" \
  timeout 120 "$RLOOPD" --scenario ddos_burst --seed 0 --speed 5 \
  --policy drop-newest --quiet --config "$WORK/reload.conf" \
  --checkpoint-dir "$WORK/reload_ckpt" \
  --stats-out "$WORK/stats.json" >"$WORK/out" 2>"$WORK/err" &
PID=$!
polls=0
until grep -q "rloopd: cold start" "$WORK/err"; do
  kill -0 "$PID" 2>/dev/null || break
  if [ "$polls" -ge 600 ]; then
    kill "$PID" 2>/dev/null || true
    fail "daemon.config.reload: no cold-start line within 60 s"
  fi
  sleep 0.1
  polls=$((polls + 1))
done
kill -HUP "$PID" 2>/dev/null || true
wait "$PID" || fail "daemon.config.reload trip during SIGHUP"
require_trip daemon.config.reload

# pcap ingest sites need a real capture; pcap_inspect --selftest writes one.
if [ -n "$PCAP_INSPECT" ]; then
  TMPDIR="$WORK" "$PCAP_INSPECT" --selftest >/dev/null
  PCAP="$WORK/rloop_selftest.pcap"
  # pcap.read: the capture is cut short and counted as truncated.
  run_site "pcap.read=trip@nth:40" --pcap "$PCAP" --speed max --quiet
  # pcap.mmap: the mapping is refused and the file is read whole instead,
  # with identical records.
  run_site "pcap.mmap=trip@nth:1" --pcap "$PCAP" --speed max --quiet
  # arena.alloc: only offline detection builds an Arena, so the site runs
  # through pcap_inspect, which writes no stats: the failed allocation must
  # surface as its out-of-memory error exit, not an abort.
  echo "== arena.alloc=trip@nth:1 (pcap_inspect) =="
  status=0
  RLOOP_FAILPOINTS_SPEC="arena.alloc=trip@nth:1" timeout 120 \
    "$PCAP_INSPECT" "$PCAP" >"$WORK/out" 2>"$WORK/err" || status=$?
  [ "$status" -eq 1 ] && grep -q "out of memory" "$WORK/err" ||
    fail "arena.alloc: pcap_inspect exited $status, want 1 with out of memory"
fi

echo "failpoint_matrix: PASS"
