#!/usr/bin/env bash
# End-to-end smoke of the service tier: starts a real osd_server on an
# ephemeral loopback port, drives it with concurrent osd_cli query
# clients (a plain query, an S-SD query under the "lgp" preset alias, a
# mid-flight cancel, a deadline-degraded run),
# then SIGTERMs the server mid-flight and asserts a clean drain — every
# in-flight ticket finished, summary printed, exit code 0. A durability
# leg then runs a --wal-dir server through an acked write, a sealed
# SIGTERM shutdown (whose --metrics-out exposition is linted: one # TYPE
# per family, *_total families typed counter, and the net and tenant
# series consistent with the drain summary), and a restart that must
# recover the write; wal-dump and checkpoint-info must accept the
# surviving directory. Finishes with
# a quick osd_chaos soak (adversarial clients + failpoint storms + drain
# cycles, all resilience invariants asserted) and a short SIGKILL
# crash-recovery soak (scripts/check_crash.sh runs the long one).
#
# Usage: scripts/server_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/osd_server"
CLI="$BUILD_DIR/tools/osd_cli"
CHAOS="$BUILD_DIR/tools/osd_chaos"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target osd_server osd_cli osd_chaos

TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

"$SERVER" --gen-data 1000 --gen-dim 2 --port 0 --threads 2 \
  >"$TMP/server.out" 2>"$TMP/server.err" &
SERVER_PID=$!

# The server prints one machine-readable line once the listener is live.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on [^:]*:\([0-9]*\)$/\1/p' "$TMP/server.out")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "FAIL: server died during startup"; cat "$TMP/server.err"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no listening line"; exit 1; }
echo "server up on port $PORT"

# Four concurrent clients: a plain streamed query, an S-SD query under a
# non-default filter preset (the Fig. 16 name "lgp", an alias of "gp"), a
# mid-flight cancel, and a tight deadline with --accept-degraded.
"$CLI" query --port "$PORT" --query-id 5 --op psd \
  >"$TMP/plain.out" 2>&1 &
PLAIN=$!
"$CLI" query --port "$PORT" --query-id 9 --op ssd --filters lgp \
  >"$TMP/ssd.out" 2>&1 &
SSD=$!
"$CLI" query --port "$PORT" --query-id 17 --op fsd --k 3 \
  --cancel-after-ms 5 >"$TMP/cancel.out" 2>&1 &
CANCEL=$!
"$CLI" query --port "$PORT" --query-id 42 --op fsd --k 2 \
  --deadline-ms 2 --accept-degraded >"$TMP/degraded.out" 2>&1 &
DEGRADED=$!

wait "$PLAIN" || { echo "FAIL: plain query client failed"
                   cat "$TMP/plain.out"; exit 1; }
grep -q '"type":"candidate"' "$TMP/plain.out" \
  || { echo "FAIL: no progressive frame"; cat "$TMP/plain.out"; exit 1; }
grep -q '"status":"OK"' "$TMP/plain.out" \
  || { echo "FAIL: plain query not OK"; cat "$TMP/plain.out"; exit 1; }
wait "$SSD" || { echo "FAIL: S-SD query client failed"
                 cat "$TMP/ssd.out"; exit 1; }
grep -q '"type":"candidate"' "$TMP/ssd.out" \
  || { echo "FAIL: no S-SD candidate frame"; cat "$TMP/ssd.out"; exit 1; }
grep -q '"status":"OK"' "$TMP/ssd.out" \
  || { echo "FAIL: S-SD query not OK"; cat "$TMP/ssd.out"; exit 1; }

# The cancel and deadline clients race real execution: any consistent
# terminal frame is correct, hanging or crashing is not.
wait "$CANCEL" || true
grep -q '"type":"result"' "$TMP/cancel.out" \
  || { echo "FAIL: cancel client got no terminal frame"
       cat "$TMP/cancel.out"; exit 1; }
wait "$DEGRADED" || true
grep -q '"type":"result"' "$TMP/degraded.out" \
  || { echo "FAIL: degraded client got no terminal frame"
       cat "$TMP/degraded.out"; exit 1; }
echo "concurrent clients OK"

# SIGTERM with a query in flight: the drain must finish the ticket, the
# client must still get its terminal frame, and the server must exit 0.
"$CLI" query --port "$PORT" --query-id 0 --op fsd --k 8 \
  >"$TMP/inflight.out" 2>&1 &
INFLIGHT=$!
sleep 0.05
kill -TERM "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
[[ "$SERVER_RC" -eq 0 ]] \
  || { echo "FAIL: server exited $SERVER_RC"; cat "$TMP/server.err"; exit 1; }
grep -q 'drained;' "$TMP/server.err" \
  || { echo "FAIL: no drain summary"; cat "$TMP/server.err"; exit 1; }
grep -q '0 in flight' "$TMP/server.err" \
  || { echo "FAIL: drain left tickets in flight"
       cat "$TMP/server.err"; exit 1; }
wait "$INFLIGHT" || true
grep -q '"type":"result"' "$TMP/inflight.out" \
  || { echo "FAIL: in-flight client lost its terminal frame on drain"
       cat "$TMP/inflight.out"; exit 1; }
echo "drain OK: $(grep 'drained;' "$TMP/server.err")"

# Durability: a --wal-dir server must make an acked write durable, seal
# its log on SIGTERM, and serve the write again after a restart.
WAL_DIR="$TMP/wal"
"$SERVER" --gen-data 100 --gen-dim 2 --wal-dir "$WAL_DIR" --port 0 \
  --threads 2 --metrics-out "$TMP/dur1.prom" \
  >"$TMP/dur1.out" 2>"$TMP/dur1.err" &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on [^:]*:\([0-9]*\)$/\1/p' "$TMP/dur1.out")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "FAIL: durable server died during startup"
    cat "$TMP/dur1.err"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no listening line (durable)"; exit 1; }

"$CLI" mutate --port "$PORT" \
  --insert '9000:0.31,0.62,2;0.33,0.64,1' >"$TMP/mutate.out" 2>&1 \
  || { echo "FAIL: mutate client failed"; cat "$TMP/mutate.out"; exit 1; }
grep -q '"seq":1' "$TMP/mutate.out" \
  || { echo "FAIL: mutate_ok carries no durable seq"
       cat "$TMP/mutate.out"; exit 1; }

kill -TERM "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
[[ "$SERVER_RC" -eq 0 ]] \
  || { echo "FAIL: durable server exited $SERVER_RC"
       cat "$TMP/dur1.err"; exit 1; }
grep -q 'WAL sealed at seq 1' "$TMP/dur1.err" \
  || { echo "FAIL: shutdown did not seal the WAL"
       cat "$TMP/dur1.err"; exit 1; }

# Lint the live server's exposition (engine, net, tenant and WAL series):
# one # TYPE line per family, and every *_total family typed as a counter.
# The exposition is written after the SIGTERM drain, so it must also agree
# with the drain summary: no tenant query in flight, no connection open,
# draining set, and as many accepted connections as the summary served.
python3 - "$TMP/dur1.prom" "$TMP/dur1.err" <<'PY' \
  || { echo "FAIL: metrics exposition lint"; exit 1; }
import re
import sys
types = {}
samples = {}
bad = []
for line in open(sys.argv[1]):
    parts = line.split()
    if len(parts) == 2 and not line.startswith("#"):
        samples[parts[0]] = float(parts[1])
    if len(parts) != 4 or parts[:2] != ["#", "TYPE"]:
        continue
    family, kind = parts[2], parts[3]
    if family in types:
        bad.append(f"{family}: more than one # TYPE line")
    types[family] = kind
    if family.endswith("_total") and kind != "counter":
        bad.append(f"{family}: _total family typed {kind}")
if not types:
    bad.append("no # TYPE lines")
for name, value in samples.items():
    if name.startswith("osd_tenant_inflight{") and value != 0:
        bad.append(f"{name} = {value:g} after drain")
for name, want in [("osd_net_connections_active", 0),
                   ("osd_net_draining", 1)]:
    if samples.get(name) != want:
        bad.append(f"{name} = {samples.get(name)} after drain, want {want}")
served = re.search(r"(\d+) connection\(s\) served", open(sys.argv[2]).read())
accepted = samples.get("osd_net_connections_accepted_total")
if served is None:
    bad.append("no 'connection(s) served' in the drain summary")
elif accepted != int(served.group(1)):
    bad.append(f"osd_net_connections_accepted_total = {accepted}, drain "
               f"summary served {served.group(1)}")
for b in bad:
    print(f"metrics lint: {b}")
sys.exit(1 if bad else 0)
PY

# Offline inspection of the sealed directory: the acked batch must be
# visible in the log and every checkpoint must load cleanly.
"$CLI" wal-dump "$WAL_DIR" >"$TMP/waldump.out" \
  || { echo "FAIL: wal-dump rejected a sealed log"
       cat "$TMP/waldump.out"; exit 1; }
grep -q '"kind":"batch"' "$TMP/waldump.out" \
  || { echo "FAIL: acked batch missing from wal-dump"
       cat "$TMP/waldump.out"; exit 1; }
"$CLI" checkpoint-info "$WAL_DIR" >/dev/null \
  || { echo "FAIL: checkpoint-info"; exit 1; }

# Restart from the directory alone: the 100 generated objects plus the
# inserted one must come back, and the inserted object must be queryable.
"$SERVER" --wal-dir "$WAL_DIR" --port 0 --threads 2 \
  >"$TMP/dur2.out" 2>"$TMP/dur2.err" &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on [^:]*:\([0-9]*\)$/\1/p' "$TMP/dur2.out")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "FAIL: restarted server died during recovery"
    cat "$TMP/dur2.err"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no listening line (restart)"; exit 1; }
grep -q 'recovered 101 object(s) at seq 1' "$TMP/dur2.err" \
  || { echo "FAIL: restart did not recover 100 generated + 1 inserted"
       cat "$TMP/dur2.err"; exit 1; }
grep -q ', clean shutdown' "$TMP/dur2.err" \
  || { echo "FAIL: restart did not report a clean-shutdown recovery"
       cat "$TMP/dur2.err"; exit 1; }
"$CLI" query --port "$PORT" --query-id 9000 --op psd >"$TMP/recq.out" 2>&1 \
  || { echo "FAIL: query against recovered object failed"
       cat "$TMP/recq.out"; exit 1; }
grep -q '"status":"OK"' "$TMP/recq.out" \
  || { echo "FAIL: recovered object not queryable"
       cat "$TMP/recq.out"; exit 1; }
kill -TERM "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
[[ "$SERVER_RC" -eq 0 ]] \
  || { echo "FAIL: restarted server exited $SERVER_RC"
       cat "$TMP/dur2.err"; exit 1; }
echo "durability OK: acked write survived seal + restart"

# Quick chaos soak: in-process server under hostile clients, failpoint
# storms and SIGTERM cycles; fails on any resilience-invariant violation.
"$CHAOS" --quick \
  || { echo "FAIL: chaos soak"; exit 1; }

# Short crash-recovery soak: forked --wal-dir servers SIGKILLed mid-storm,
# every acked write verified after each restart. The 20-cycle version is
# scripts/check_crash.sh (nightly CI).
"$CHAOS" --crash-cycles 4 --wal-dir "$TMP/crash" \
  || { echo "FAIL: crash soak"; exit 1; }
echo "PASS: server smoke"
