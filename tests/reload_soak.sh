#!/usr/bin/env bash
# Chaos soak for the hot-reload + overload-control surface (wired as the
# `reload_soak` ctest; docs/ROBUSTNESS.md "Hot reload & overload control"):
#
#   1. hot swap under live traffic: train two snapshots of the same
#      user/item universe, serve A with the mtime watcher armed, replay a
#      paced request stream from hosr_loadgen with a dual verify oracle
#      (--verify_snapshot A --verify_snapshot_b B), and publish B
#      atomically (write sibling + rename) mid-replay. Every reply must be
#      bit-identical to exactly one engine, every request accounted for,
#      zero drops (ok == stream length), both oracles actually exercised.
#      After the swap is acknowledged in /varz, a fresh replay must match
#      B alone — zero stale-version replies.
#   2. chaos reloads: same serving setup with net.read and snapshot.load
#      faults armed. The first publish of B is vetoed by the injected
#      snapshot.load fault (rejected, rollback, replies keep verifying);
#      republishing swaps for real. Then two corrupted candidates in a row
#      degrade /healthz (reload_reject_streak >= 2) and dump the flight
#      recorder while the active snapshot keeps serving; a good publish
#      recovers /healthz, and POST /reloadz / GET /reloadz answer 200/405.
#   3. breaker: with the popularity fallback off and a delay fault inside
#      engine.score, a deadline-bearing replay turns into a failure storm
#      — the breaker trips and sheds at the wire (shed > 0, trips >= 1,
#      requests == responses). A second, deadline-free replay drives the
#      half-open probes to success: the breaker closes and every request
#      is served.
#   4. reload_test under AddressSanitizer (built by the asan_build ctest).
#
# Usage: reload_soak.sh <hosr_cli> <hosr_serve> <hosr_loadgen> <asan build dir>
set -eu

CLI="$1"
SERVE="$2"
LOADGEN="$3"
ASAN="$4"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckptA" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snapA"
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckptB" --model=BPR \
  --epochs=4 --snapshot_out="$WORK/snapB"
test -s "$WORK/snapA" -a -s "$WORK/snapB" \
  || { echo "FAIL: snapshots not written" >&2; exit 1; }
cmp -s "$WORK/snapA" "$WORK/snapB" \
  && { echo "FAIL: training produced identical snapshots" >&2; exit 1; }

wait_for_port() {
  local port_file="$1"
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && return 0
    sleep 0.1
  done
  echo "FAIL: server never wrote $port_file" >&2
  exit 1
}

# Atomic publish, the way a deploy job must do it: the watcher stats the
# serving path, so a candidate may never be visible half-written there.
publish() {
  cp "$1" "$2.staging.$$"
  mv -f "$2.staging.$$" "$2"
}

# admin_http GET|POST <port> <path> -> "status<TAB>body" on stdout.
admin_http() {
  python3 - "$1" "$2" "$3" <<'EOF'
import http.client, sys
conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[2]), timeout=10)
conn.request(sys.argv[1], sys.argv[3],
             headers={"Content-Length": "0"} if sys.argv[1] == "POST" else {})
response = conn.getresponse()
print("%d\t%s" % (response.status, response.read().decode().replace("\n", " ")))
EOF
}

wait_for_var() {  # wait_for_var <admin port> <varz substring>
  for _ in $(seq 1 100); do
    if admin_http GET "$1" /varz | grep -qF "$2"; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: /varz never showed $2" >&2
  admin_http GET "$1" /varz >&2
  exit 1
}

# --- phase 1: mid-replay hot swap drops nothing, staleness window closes -----

publish "$WORK/snapA" "$WORK/live1"
"$SERVE" --snapshot="$WORK/live1" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port1" --workers=2 \
  --reload_watch --reload_poll_ms=50 \
  --admin_port=0 --admin_port_file="$WORK/admin1" \
  --summary_out="$WORK/server1.json" > /dev/null &
SERVER_PID=$!
wait_for_port "$WORK/port1"
wait_for_port "$WORK/admin1"

# ~3s of paced traffic so the swap lands mid-stream.
"$LOADGEN" --port="$(cat "$WORK/port1")" \
  --num_requests=3000 --k=10 --zipf=0.9 --seed=5 --connections=2 --qps=1000 \
  --reconnect_backoff_ms=5 \
  --verify_snapshot="$WORK/snapA" --verify_snapshot_b="$WORK/snapB" \
  --verify_data="$WORK/data" \
  --summary_out="$WORK/loadgen1.json" > /dev/null &
LOADGEN_PID=$!
sleep 1
publish "$WORK/snapB" "$WORK/live1"
wait "$LOADGEN_PID"

# The swap ack: /varz reports v2 active. From here on, *every* reply must
# come from B — a fresh replay against the B oracle alone proves there is
# no stale-version window after the ack.
wait_for_var "$(cat "$WORK/admin1")" '"snapshot_version": "2"'
"$LOADGEN" --port="$(cat "$WORK/port1")" \
  --num_requests=400 --k=10 --zipf=0.9 --seed=6 --connections=2 \
  --verify_snapshot="$WORK/snapB" --verify_data="$WORK/data" \
  --summary_out="$WORK/loadgen1b.json" > /dev/null

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

python3 - "$WORK/loadgen1.json" "$WORK/loadgen1b.json" "$WORK/server1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    swap = json.load(f)
with open(sys.argv[2]) as f:
    after = json.load(f)
with open(sys.argv[3]) as f:
    srv = json.load(f)
# Zero-downtime: the swap dropped nothing and broke nothing.
assert swap["outcomes"]["ok"] == 3000, swap
assert sum(swap["outcomes"].values()) == 3000, swap
assert swap["verify_failures"] == 0, swap
# Both snapshots actually served: the swap landed mid-replay. (Cache-served
# replies are not verified, so the matched totals cover fresh answers only.)
assert swap["matched_a"] > 0 and swap["matched_b"] > 0, swap
# Post-ack replay is pure B: zero stale-version replies.
assert after["verified"] and after["verify_failures"] == 0, after
assert after["outcomes"]["ok"] == 400, after
assert srv["net"]["requests"] == srv["net"]["responses"] == 3400, srv
assert srv["reload"]["enabled"] and srv["reload"]["active_version"] == 2, srv
assert srv["reload"]["reloads_ok"] == 1, srv
# Swapping invalidated cached pre-swap results: the zipf replay re-asks
# hot users after the swap, and those lookups must miss, not serve v1.
assert srv["cache"]["stale_hits"] >= 1, srv
print("reload_soak phase1 OK: swap at A=%d/B=%d replies, zero dropped, "
      "zero stale after ack" % (swap["matched_a"], swap["matched_b"]))
EOF

# --- phase 2: chaos reloads — injected faults, corruption, rollback ----------

publish "$WORK/snapA" "$WORK/live2"
mkdir -p "$WORK/flight"
# snapshot.load:once=2 vetoes the *second* load — i.e. the first
# watcher-triggered reload — while startup (hit 1) stays clean.
"$SERVE" --snapshot="$WORK/live2" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port2" --workers=2 \
  --reload_watch --reload_poll_ms=50 \
  --fault_spec='net.read:n=150,snapshot.load:once=2' --fault_seed=1 \
  --flight_dir="$WORK/flight" \
  --admin_port=0 --admin_port_file="$WORK/admin2" \
  --summary_out="$WORK/server2.json" > /dev/null 2>&1 &
SERVER_PID=$!
wait_for_port "$WORK/port2"
wait_for_port "$WORK/admin2"
ADMIN2="$(cat "$WORK/admin2")"

"$LOADGEN" --port="$(cat "$WORK/port2")" \
  --num_requests=3000 --k=10 --zipf=0.9 --seed=7 --connections=2 --qps=1000 \
  --reconnect_backoff_ms=5 \
  --verify_snapshot="$WORK/snapA" --verify_snapshot_b="$WORK/snapB" \
  --verify_data="$WORK/data" \
  --summary_out="$WORK/loadgen2.json" > /dev/null &
LOADGEN_PID=$!
sleep 1
publish "$WORK/snapB" "$WORK/live2"          # vetoed by snapshot.load fault
wait_for_var "$ADMIN2" '"reloads_rejected": "1"'
publish "$WORK/snapB" "$WORK/live2"          # clean retry swaps for real
wait_for_var "$ADMIN2" '"snapshot_version": "2"'
wait "$LOADGEN_PID"

# Two corrupted candidates in a row: rejected with rollback, /healthz
# degrades on the streak, the flight recorder captures forensics.
head -c 512 "$WORK/snapA" > "$WORK/corrupt"
publish "$WORK/corrupt" "$WORK/live2"
wait_for_var "$ADMIN2" '"reloads_rejected": "2"'
echo "more garbage" >> "$WORK/corrupt"
publish "$WORK/corrupt" "$WORK/live2"
wait_for_var "$ADMIN2" '"reloads_rejected": "3"'
HEALTH_DEGRADED="$(admin_http GET "$ADMIN2" /healthz)"
# Rollback: v2 still serves bit-identical B answers through the storm.
"$LOADGEN" --port="$(cat "$WORK/port2")" \
  --num_requests=400 --k=10 --seed=8 --connections=2 \
  --verify_snapshot="$WORK/snapB" --verify_data="$WORK/data" \
  --summary_out="$WORK/loadgen2b.json" > /dev/null
# A good publish recovers: version advances, /healthz is ok again.
publish "$WORK/snapA" "$WORK/live2"
wait_for_var "$ADMIN2" '"snapshot_version": "3"'
HEALTH_RECOVERED="$(admin_http GET "$ADMIN2" /healthz)"
RELOADZ_POST="$(admin_http POST "$ADMIN2" /reloadz)"
RELOADZ_GET="$(admin_http GET "$ADMIN2" /reloadz)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

python3 - "$WORK/loadgen2.json" "$WORK/loadgen2b.json" "$WORK/server2.json" \
  "$HEALTH_DEGRADED" "$HEALTH_RECOVERED" "$RELOADZ_POST" "$RELOADZ_GET" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    chaos = json.load(f)
with open(sys.argv[2]) as f:
    rollback = json.load(f)
with open(sys.argv[3]) as f:
    srv = json.load(f)
degraded_status, degraded_body = sys.argv[4].split("\t")
recovered_status, recovered_body = sys.argv[5].split("\t")
reloadz_status, reloadz_body = sys.argv[6].split("\t")
reloadz_get_status, _ = sys.argv[7].split("\t")
# Chaos replay: injected net.read closes are redialed (with backoff) and
# every request still resolves to exactly one verified outcome.
assert sum(chaos["outcomes"].values()) == 3000, chaos
assert chaos["verify_failures"] == 0, chaos
assert chaos["outcomes"]["closed"] > 0, chaos
assert chaos["reconnects"] > 0 and chaos["backoff_waits"] > 0, chaos
assert chaos["matched_a"] > 0 and chaos["matched_b"] > 0, chaos
# The vetoed reload rolled back; the retry swapped; corruption never won.
assert srv["reload"]["reloads_ok"] >= 2, srv
assert srv["reload"]["reloads_rejected"] >= 3, srv
assert rollback["verified"] and rollback["verify_failures"] == 0, rollback
# net.read stays armed for the server's whole life, so a few replies close;
# everything that was answered verified against the rolled-back-to engine.
assert rollback["outcomes"]["ok"] > 0, rollback
assert rollback["outcomes"]["ok"] + rollback["outcomes"]["closed"] == 400, \
    rollback
assert srv["net"]["requests"] == srv["net"]["responses"], srv
assert srv["faults_injected"] > 0, srv
# Health: degraded on the reject streak, recovered after a good swap.
assert degraded_status == "503" and '"status": "degraded"' in degraded_body, \
    (degraded_status, degraded_body)
assert json.loads(degraded_body)["reload_reject_streak"] >= 2, degraded_body
assert recovered_status == "200" and '"status": "ok"' in recovered_body, \
    (recovered_status, recovered_body)
assert reloadz_status == "200" and '"status": "ok"' in reloadz_body, \
    (reloadz_status, reloadz_body)
assert reloadz_get_status == "405", reloadz_get_status
print("reload_soak phase2 OK: vetoed+corrupt reloads rolled back "
      "(rejected=%d), healthz degraded then recovered"
      % srv["reload"]["reloads_rejected"])
EOF

ls "$WORK/flight"/flight_*.json > /dev/null 2>&1 \
  || { echo "FAIL: no flight dump for rejected reloads" >&2; exit 1; }
grep -l "reload rejected" "$WORK/flight"/flight_*.json > /dev/null \
  || { echo "FAIL: flight dump lacks reload_rejected note" >&2; exit 1; }

# --- phase 3: breaker trips under a failure storm, then closes ---------------

# Popularity fallback off: the injected 15ms scoring delay + a 5ms wire
# deadline make every executed request fail, so the breaker sees the storm.
"$SERVE" --snapshot="$WORK/snapA" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port3" --workers=2 \
  --degraded=0 --breaker --breaker_window=32 --breaker_min_samples=8 \
  --breaker_trip_ratio=0.5 --breaker_open_ms=200 --breaker_probes=4 \
  --fault_spec='engine.score:p=1:delay_ms=15' --fault_seed=1 \
  --summary_out="$WORK/server3.json" > /dev/null 2>&1 &
SERVER_PID=$!
wait_for_port "$WORK/port3"

"$LOADGEN" --port="$(cat "$WORK/port3")" \
  --num_requests=120 --k=10 --seed=9 --connections=2 --deadline_ms=5 \
  --summary_out="$WORK/loadgen3.json" > /dev/null

# Cooldown, then a deadline-free replay: the slow-but-healthy engine now
# answers, half-open probes succeed, and the breaker closes.
sleep 0.5
"$LOADGEN" --port="$(cat "$WORK/port3")" \
  --num_requests=60 --k=10 --seed=10 --connections=1 \
  --summary_out="$WORK/loadgen3b.json" > /dev/null

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

python3 - "$WORK/loadgen3.json" "$WORK/loadgen3b.json" "$WORK/server3.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    storm = json.load(f)
with open(sys.argv[2]) as f:
    calm = json.load(f)
with open(sys.argv[3]) as f:
    srv = json.load(f)
# The storm tripped the breaker: deadline failures first, then wire sheds.
assert storm["outcomes"]["deadline_exceeded"] > 0, storm
assert storm["outcomes"]["shed"] > 0, storm
assert sum(storm["outcomes"].values()) == 120, storm
assert srv["breaker"]["enabled"], srv
assert srv["breaker"]["trips"] >= 1, srv
assert srv["breaker"]["rejected"] > 0, srv
# Recovery: probes closed the breaker and the calm replay fully succeeds.
assert calm["outcomes"]["ok"] == 60, calm
assert srv["breaker"]["state"] == 0, srv
# Sheds are answered, not dropped: accounting stays exact.
assert srv["net"]["requests"] == srv["net"]["responses"], srv
print("reload_soak phase3 OK: breaker tripped %d time(s), shed %d at the "
      "wire, then closed" % (srv["breaker"]["trips"], srv["breaker"]["rejected"]))
EOF

# --- reload surface under AddressSanitizer -----------------------------------

"$ASAN/tests/reload_test" > "$WORK/asan_reload.log" 2>&1 \
  || { tail -50 "$WORK/asan_reload.log" >&2; exit 1; }
echo "asan OK: reload_test clean"

echo "reload_soak OK"
