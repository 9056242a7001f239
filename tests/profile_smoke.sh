#!/usr/bin/env bash
# Continuous-profiling smoke test (wired as the `profile_smoke` ctest):
#   1. train 5 epochs with --profile_out/--timeseries_out and assert the
#      collapsed stacks resolve a real hot-path symbol (graph::Spmm), the
#      profile summary is valid JSON with captured samples, and the
#      timeseries dump CRC-verifies and carries the trainer phase timeline,
#   2. serve with --admin_port=0, probe /profilez?seconds=1 (collapsed +
#      summary) and /timeseriez over a real socket, JSON-validate both, and
#      assert the windowed counter points reconstruct admin/requests' rate
#      within one snapshot interval.
#
# Usage: profile_smoke.sh <hosr_cli binary> <hosr_serve binary>
set -eu

CLI="$1"
SERVE="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# --- training under the continuous profiler -----------------------------------

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.1 --seed=3
# One epoch yields only about 55 samples, and in a quarter of runs none of
# them landed in Spmm. Five epochs yield about 180, with 2-10 in Spmm.
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --epochs=5 \
  --profile_out="$WORK/prof.collapsed" --profile_hz=997 \
  --timeseries_out="$WORK/train_ts.json" --timeseries_interval=0.2 \
  > "$WORK/train.log" 2>&1

grep -q "Spmm" "$WORK/prof.collapsed" || {
  echo "FAIL: hot-path symbol Spmm absent from collapsed stacks" >&2
  cat "$WORK/prof.collapsed" >&2
  exit 1
}

python3 - "$WORK/prof.collapsed.summary.json" "$WORK/train_ts.json" <<'EOF'
import json, sys, zlib

with open(sys.argv[1]) as f:
    summary = json.load(f)
assert summary["samples"] > 0, summary
assert summary["hz"] == 997, summary
assert summary["top"], "empty leaf-frame ranking: %s" % summary

# The timeseries dump is CRC-footed (WriteFileAtomicWithCrc).
with open(sys.argv[2], "rb") as f:
    raw = f.read()
body, footer = raw[:-4], raw[-4:]
assert zlib.crc32(body) & 0xFFFFFFFF == int.from_bytes(footer, "little"), \
    "timeseries dump CRC mismatch"
series = json.loads(body.decode())["series"]
trainer = [name for name in series if name.startswith("trainer/")]
assert trainer, "no trainer phase timeline in timeseries dump: %s" % \
    sorted(series)
print("profile_smoke: train profile OK (%d samples, %d trainer series)"
      % (summary["samples"], len(trainer)))
EOF

# --- live /profilez + /timeseriez ---------------------------------------------

"$CLI" generate --out="$WORK/sdata" --preset=yelp --scale=0.02 --seed=3
"$CLI" train --data="$WORK/sdata" --checkpoint="$WORK/sckpt" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snap"

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/sdata" \
  --num_requests=500 --k=10 --zipf=0.9 --seed=5 \
  --admin_port=0 --admin_port_file="$WORK/port" --admin_linger_s=30 \
  --timeseries_interval=0.2 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "FAIL: hosr_serve died before publishing its admin port" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  }
  sleep 0.1
done
[ -s "$WORK/port" ] || { echo "FAIL: admin port file never appeared" >&2; exit 1; }

python3 - "$(cat "$WORK/port")" <<'EOF'
import json, sys, time, urllib.request, urllib.error

port = int(sys.argv[1])
base = "http://127.0.0.1:%d" % port

def get(path):
    try:
        with urllib.request.urlopen(base + path, timeout=60) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

# Generate admin/requests traffic spanning several snapshot intervals so
# the counter's windowed points carry nonzero deltas.
for _ in range(5):
    get("/healthz")
    time.sleep(0.15)

status, body = get("/timeseriez")
assert status == 200, (status, body)
series = json.loads(body)["series"]
requests = series["admin/requests"]
assert requests["type"] == "counter", requests["type"]
active = [p for p in requests["points"] if p["delta"] > 0]
assert active, "no admin/requests window saw traffic: %s" % requests
for point in active:
    # value is the window's rate/s; times the window width it must
    # reconstruct the counted delta (interval_s is rendered at millisecond
    # precision, hence the small slack).
    rebuilt = point["value"] * point["interval_s"]
    assert abs(rebuilt - point["delta"]) <= 0.05 * point["delta"] + 0.5, \
        (rebuilt, point)

status, body = get("/timeseriez?metric=admin/&windows=1")
assert status == 200, (status, body)
filtered = json.loads(body)["series"]
assert all(name.startswith("admin/") for name in filtered), sorted(filtered)
assert all(len(s["points"]) <= 1 for s in filtered.values()), body[:400]

status, body = get("/profilez?seconds=1&format=summary")
assert status == 200, (status, body)
summary = json.loads(body)
assert "samples" in summary and "duration_seconds" in summary, summary

status, body = get("/profilez?seconds=0.5")
assert status == 200, (status, body)
# Collapsed text, not JSON: each non-empty line ends in a sample count.
for line in body.splitlines():
    assert line.rsplit(" ", 1)[-1].isdigit(), line

print("profile_smoke: live /profilez + /timeseriez OK "
      "(%d active admin/requests windows)" % len(active))
EOF

kill -0 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" || {
  echo "FAIL: hosr_serve exited nonzero" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

echo "profile_smoke: OK"
