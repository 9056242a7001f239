#!/usr/bin/env bash
# Builds the AddressSanitizer unit-test suites that robustness_smoke and
# reload_soak run (wired as the `asan_build` ctest, the setup of their
# `asan` fixture). The build directory persists, so later runs rebuild
# only what changed.
#
# Usage: asan_build.sh <cmake> <source dir> <build dir>
set -eu

CMAKE="$1"
SRC="$2"
DIR="$3"
mkdir -p "$DIR"

"$CMAKE" -B "$DIR" -S "$SRC" -DHOSR_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$DIR/asan_configure.log" 2>&1 \
  || { cat "$DIR/asan_configure.log" >&2; exit 1; }
"$CMAKE" --build "$DIR" -j "$(nproc)" \
  --target fault_test serve_test robustness_test obs_admin_test net_test \
  reload_test > "$DIR/asan_build.log" 2>&1 \
  || { tail -50 "$DIR/asan_build.log" >&2; exit 1; }
echo "asan_build OK: six suites built in $DIR"
