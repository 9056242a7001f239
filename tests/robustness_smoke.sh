#!/usr/bin/env bash
# Robustness smoke test (wired as the `robustness_smoke` ctest), exercising
# the docs/ROBUSTNESS.md story end to end:
#   1. generate a tiny synthetic YelpLike dataset;
#   2. train with --train_state and an injected crash (cli.train_crash:once=2)
#      — the process must die with exit code 42 after epoch 2's state is on
#      disk;
#   3. resume a copy cut inside its parameters, one whose second optimizer
#      slot has one row and one with a single slot (each with a valid CRC),
#      and assert each exits 1 and leaves the file unchanged; then resume
#      the real state with --resume and finish training + export a
#      snapshot;
#   4. train the same config straight through in a second directory and
#      assert the resumed snapshot is BYTE-IDENTICAL to the uninterrupted
#      one (the kill-and-resume contract, end to end);
#   5. replay requests twice through hosr_serve with engine faults armed
#      (engine.score:p=0.2, --deadline_ms=5) and assert: every request
#      resolved, >0 degraded, >0 deadline_exceeded, and both runs report
#      identical outcome counts;
#   6. run the fault + serve + obs-admin + net unit tests built under
#      AddressSanitizer (-DHOSR_SANITIZE=address, by the asan_build ctest)
#      — the obs_admin and net suites cover the live socket servers (admin
#      HTTP and the wire-protocol NetServer), the exemplar slots, and the
#      flight recorder under a sanitizer.
#
# Usage: robustness_smoke.sh <hosr_cli> <hosr_serve> <asan build dir>
set -eu

CLI="$1"
SERVE="$2"
ASAN="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3

# --- crash, resume, and bit-identity -----------------------------------------

set +e
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR --epochs=4 \
  --train_state="$WORK/state" --fault_spec=cli.train_crash:once=2 \
  > "$WORK/crash_run.log" 2>&1
CRASH_EXIT=$?
set -e
if [ "$CRASH_EXIT" -ne 42 ]; then
  echo "FAIL: injected crash should exit 42, got $CRASH_EXIT" >&2
  cat "$WORK/crash_run.log" >&2
  exit 1
fi
test -s "$WORK/state" || { echo "FAIL: no training state on disk" >&2; exit 1; }

# A state that exists but does not restore must stop --resume (exit 1) and
# stay on disk as it was; only an absent state starts fresh. Each defect is
# re-wrapped with a valid CRC (zlib.crc32 is util::Crc32), so only the
# decoder can refuse it: the 64 bytes before the 4-byte sentinel removed;
# the second RMSprop slot declared 1 row, its payload cut to match; the
# slot count 1, the second slot removed.
python3 - "$WORK/state" "$WORK" <<'EOF'
import struct, sys, zlib
body = open(sys.argv[1], "rb").read()[:-4]
def wrap(name, new):
    with open(sys.argv[2] + "/" + name, "wb") as f:
        f.write(new + struct.pack("<I", zlib.crc32(new)))
wrap("cut_state", body[:-68] + body[-4:])
# The slots follow the RNG states: a u64 count, then per parameter a matrix
# block (u32 "HOSR", u64 rows, u64 cols, the floats).
first = body.index(struct.pack("<I", 0x484F5352))
assert struct.unpack_from("<Q", body, first - 8)[0] == 2
def block_end(at):
    rows, cols = struct.unpack_from("<QQ", body, at + 4)
    return at + 20 + rows * cols * 4
second = block_end(first)
end = block_end(second)
cols = struct.unpack_from("<Q", body, second + 12)[0]
wrap("short_slot_state",
     body[:second] + struct.pack("<IQQ", 0x484F5352, 1, cols) +
     body[second + 20:second + 20 + cols * 4] + body[end:])
wrap("one_slot_state",
     body[:first - 8] + struct.pack("<Q", 1) + body[first:second] + body[end:])
EOF
for defect in cut_state short_slot_state one_slot_state; do
  cp "$WORK/$defect" "$WORK/$defect.orig"
  set +e
  "$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR \
    --epochs=4 --train_state="$WORK/$defect" --resume \
    > "$WORK/$defect.log" 2>&1
  DEFECT_EXIT=$?
  set -e
  if [ "$DEFECT_EXIT" -ne 1 ]; then
    echo "FAIL: resuming $defect should exit 1, got $DEFECT_EXIT" >&2
    cat "$WORK/$defect.log" >&2
    exit 1
  fi
  cmp "$WORK/$defect" "$WORK/$defect.orig" \
    || { echo "FAIL: a refused $defect was overwritten" >&2; exit 1; }
done
echo "resume refusal OK: cut and misfitting states exit 1 and stay unchanged"

"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR --epochs=4 \
  --train_state="$WORK/state" --resume --snapshot_out="$WORK/snap_resumed" \
  | tee "$WORK/resume_run.log"
grep -q "resumed from" "$WORK/resume_run.log" \
  || { echo "FAIL: resume did not pick up the checkpoint" >&2; exit 1; }

"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR --epochs=4 \
  --snapshot_out="$WORK/snap_straight" > /dev/null

cmp "$WORK/snap_resumed" "$WORK/snap_straight" \
  || { echo "FAIL: resumed training diverged from uninterrupted run" >&2; exit 1; }
echo "resume OK: crash at epoch 2, resumed snapshot bit-identical"

# --- deterministic degraded serving under injection --------------------------

for run in 1 2; do
  "$SERVE" --snapshot="$WORK/snap_resumed" --data="$WORK/data" \
    --num_requests=4000 --k=10 --zipf=0.9 --seed=5 \
    --fault_spec=engine.score:p=0.2 --deadline_ms=5 \
    --metrics_out="$WORK/metrics$run.json" \
    --summary_out="$WORK/summary$run.json" > /dev/null
done

python3 - "$WORK/summary1.json" "$WORK/summary2.json" "$WORK/metrics1.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    first = json.load(f)
with open(sys.argv[2]) as f:
    second = json.load(f)
with open(sys.argv[3]) as f:
    metrics = json.load(f)

outcomes = first["outcomes"]
# Every request resolved to exactly one outcome: nothing hung, nothing lost.
assert sum(outcomes.values()) == first["requests"] == 4000, first
assert outcomes["degraded"] > 0, outcomes
assert outcomes["deadline_exceeded"] > 0, outcomes
assert outcomes["error"] == 0, outcomes
assert first["faults_injected"] > 0, first
# Same seed, same spec: bit-identical outcome counts.
assert outcomes == second["outcomes"], (outcomes, second["outcomes"])
assert first["faults_injected"] == second["faults_injected"]

names = metrics["metrics"].keys()
assert "fault/injected" in names, sorted(names)
assert "serve/degraded" in names, sorted(names)
assert "serve/deadline_exceeded" in names, sorted(names)
print("fault replay OK: outcomes %s, faults_injected=%d"
      % (outcomes, first["faults_injected"]))
EOF

# --- fault + serve unit tests under AddressSanitizer -------------------------

"$ASAN/tests/fault_test" > "$WORK/asan_fault.log" 2>&1 \
  || { tail -50 "$WORK/asan_fault.log" >&2; exit 1; }
"$ASAN/tests/serve_test" > "$WORK/asan_serve.log" 2>&1 \
  || { tail -50 "$WORK/asan_serve.log" >&2; exit 1; }
"$ASAN/tests/robustness_test" > "$WORK/asan_robustness.log" 2>&1 \
  || { tail -50 "$WORK/asan_robustness.log" >&2; exit 1; }
"$ASAN/tests/obs_admin_test" > "$WORK/asan_obs_admin.log" 2>&1 \
  || { tail -50 "$WORK/asan_obs_admin.log" >&2; exit 1; }
"$ASAN/tests/net_test" > "$WORK/asan_net.log" 2>&1 \
  || { tail -50 "$WORK/asan_net.log" >&2; exit 1; }
echo "asan OK: fault_test + serve_test + robustness_test + obs_admin_test + net_test clean"

echo "robustness_smoke OK"
