#!/usr/bin/env bash
# Serving smoke test (wired as the `serve_smoke` ctest):
#   1. generate a tiny synthetic YelpLike dataset,
#   2. train BPR for 2 epochs and export a serving snapshot, and for 10
#      with --early-stop, which must print its validation line,
#   3. replay 1k skewed requests through hosr_serve,
#   4. assert nonzero cache hits and valid JSON metrics + summary output,
#   5. assert that each out-of-range flag of hosr_serve and of
#      `hosr_cli train`, and each `hosr_cli train` flag combination that
#      would drop crash safety, exits 1 with an error naming the flag.
#
# Usage: serve_smoke.sh <hosr_cli binary> <hosr_serve binary>
set -eu

CLI="$1"
SERVE="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3

"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snap"
test -s "$WORK/snap" || { echo "FAIL: snapshot not written" >&2; exit 1; }

# --early-stop selects its epoch on a validation slice of the training split.
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/es.ckpt" --model=BPR \
  --epochs=10 --early-stop > "$WORK/early_stop.log"
grep "^early stopping: best validation Recall@20 " "$WORK/early_stop.log" \
  || { echo "FAIL: --early-stop printed no validation line" >&2;
       cat "$WORK/early_stop.log" >&2; exit 1; }

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --num_requests=1000 --k=10 --zipf=0.9 --seed=5 \
  --metrics_out="$WORK/metrics.json" --summary_out="$WORK/summary.json"

python3 - "$WORK/summary.json" "$WORK/metrics.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
with open(sys.argv[2]) as f:
    metrics = json.load(f)

assert summary["requests"] == 1000, summary
assert summary["qps"] > 0, summary
assert summary["latency_us"]["p50"] > 0, summary
assert summary["latency_us"]["p99"] >= summary["latency_us"]["p50"], summary
assert summary["cache"]["enabled"], summary
assert summary["cache"]["hits"] > 0, "expected nonzero cache hits"
assert 0.0 < summary["cache"]["hit_rate"] <= 1.0, summary

names = metrics["metrics"].keys()
assert "serve/queries" in names, sorted(names)
assert "serve/cache_hits" in names, sorted(names)
assert metrics["metrics"]["serve/cache_hits"]["value"] > 0, metrics
print("serve_smoke OK: qps=%.0f hit_rate=%.3f" %
      (summary["qps"], summary["cache"]["hit_rate"]))
EOF

# Out-of-range sizes and counts are refused up front (exit 1, an error that
# names the flag), never a CHECK abort or a silently wrapped size_t.
for bad in "--retries=20" "--retries=-3" "--cache_shards=0" \
    "--port=0 --workers=0" "--breaker --breaker_window=0" \
    "--cache_capacity=-1"; do
  flag="${bad##* }"
  flag="${flag%%=*}"
  set +e
  # shellcheck disable=SC2086  # $bad holds one or two flags
  timeout 60 "$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
    --num_requests=100 --serve_duration_s=1 $bad \
    > /dev/null 2> "$WORK/bad_flag.err"
  rc=$?
  set -e
  if [ "$rc" -ne 1 ] || ! grep -q "^error: .*$flag=" "$WORK/bad_flag.err"; then
    echo "FAIL: hosr_serve $bad exited $rc, expected 1 naming $flag" >&2
    cat "$WORK/bad_flag.err" >&2
    exit 1
  fi
done
echo "serve_smoke: out-of-range flags exit 1 with a named error"

# --early-stop neither saves nor resumes a training state, and --resume
# needs one: those combinations are refused before anything loads.
for bad in "--epochs=0" "--epochs=-1" "--batch=0" "--dim=0" "--layers=-1" \
    "--k=0" "--lr=0" "--weight-decay=-1" \
    "--early-stop --train_state=$WORK/es.state" "--early-stop --resume" \
    "--resume"; do
  flag="${bad##* }"
  flag="${flag%%=*}"
  set +e
  # shellcheck disable=SC2086  # $bad holds one or two flags
  timeout 60 "$CLI" train --data="$WORK/data" --checkpoint="$WORK/bad.ckpt" \
    --model=BPR $bad > /dev/null 2> "$WORK/bad_flag.err"
  rc=$?
  set -e
  if [ "$rc" -ne 1 ] || ! grep -q "^error: .*$flag=" "$WORK/bad_flag.err"; then
    echo "FAIL: hosr_cli train $bad exited $rc, expected 1 naming $flag" >&2
    cat "$WORK/bad_flag.err" >&2
    exit 1
  fi
done
echo "serve_smoke: bad hosr_cli train flags exit 1 with a named error"
