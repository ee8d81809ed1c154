#!/usr/bin/env bash
# Line-coverage gate over the migration-critical modules.
#
#   scripts/coverage.sh            # coverage build + ctest + gcovr report
#   scripts/coverage.sh --floor N  # additionally fail when any gated file's
#                                  # line coverage drops below N percent
#
# The report covers src/core + src/storage (the online-migration execution
# path), src/analysis (the static verification stack), the batch
# execution engine, and the multi-tenant fleet layer; the floor gates
# src/core/migration_executor.cc, src/core/rewriter_dml.cc (the write
# rewriter), src/analysis/writability.cc, src/engine/vec_executor.cc, and
# src/fleet/scheduler.cc (the fleet scheduler). With gcovr
# installed, writes coverage.xml (Cobertura) and coverage.txt into the build
# dir for CI to upload; without it, falls back to plain gcov for the floor
# check and skips the report artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

floor=""
if [ "${1:-}" = "--floor" ]; then
  floor="${2:?--floor needs a percentage}"
fi

jobs="$(nproc 2>/dev/null || echo 4)"
build_dir="build-coverage"

echo "== coverage: configuring instrumented build ($build_dir) =="
cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPROGSCHEMA_COVERAGE=ON >/dev/null

echo "== coverage: building =="
cmake --build "$build_dir" -j "$jobs" >/dev/null

echo "== coverage: running the test suite =="
(cd "$build_dir" && ctest --output-on-failure -j "$jobs" >/dev/null)

target_files=(
  "src/core/migration_executor.cc"
  "src/core/rewriter_dml.cc"
  "src/analysis/writability.cc"
  "src/engine/vec_executor.cc"
  "src/fleet/scheduler.cc"
)

if command -v gcovr >/dev/null 2>&1; then
  echo "== coverage: gcovr report over src/core + src/storage + src/analysis + vec engine + fleet =="
  gcovr --root . --object-directory "$build_dir" \
    --filter 'src/core/.*' --filter 'src/storage/.*' --filter 'src/analysis/.*' \
    --filter 'src/engine/vec_executor\.cc' --filter 'src/fleet/.*' \
    --xml "$build_dir/coverage.xml" \
    --txt "$build_dir/coverage.txt" \
    --print-summary
  cat "$build_dir/coverage.txt"
fi

# Per-file line coverage: from the gcovr table when available, else gcov.
file_pct() {
  local target_file="$1"
  local base; base="$(basename "$target_file")"
  if command -v gcovr >/dev/null 2>&1; then
    # Row format: name, lines, exec, cover%, missing-ranges — find the % field.
    awk -v f="$target_file" '$0 ~ f {
        for (i = 1; i <= NF; ++i) if ($i ~ /%$/) { gsub(/%/, "", $i); print $i; exit }
      }' "$build_dir/coverage.txt"
    return
  fi
  # gcno/gcda live next to the object files; resolve this file's. -quit (not
  # `| head -1`) so find exits itself — under pipefail a SIGPIPE'd find would
  # abort the whole script.
  local gcda; gcda="$(find "$build_dir" -name "$base.gcda" -print -quit)"
  if [ -z "$gcda" ]; then
    return
  fi
  local obj_dir; obj_dir="$(dirname "$gcda")"
  if [ -z "$obj_dir" ]; then
    return
  fi
  # gcov reports one block per file; take the percentage that follows the
  # file's own "File '...'" line (headers get their own blocks). Capture the
  # report before awk — an early awk exit would SIGPIPE gcov under pipefail.
  local report; report="$( (cd "$obj_dir" && gcov -n "$base.gcda" 2>/dev/null) || true )"
  awk -v f="$base" '
      /^File / { hit = index($0, f) > 0 }
      hit && /^Lines executed:/ {
        split($2, parts, ":"); gsub(/%/, "", parts[2]); print parts[2]; exit
      }' <<<"$report"
}

if ! command -v gcovr >/dev/null 2>&1; then
  echo "== coverage: gcovr not found; falling back to gcov =="
fi

failed=0
for target_file in "${target_files[@]}"; do
  pct="$(file_pct "$target_file")"
  if [ -z "${pct:-}" ]; then
    echo "coverage: could not determine $target_file line coverage" >&2
    failed=1
    continue
  fi
  echo "== coverage: $target_file line coverage: ${pct}% =="
  if [ -n "$floor" ]; then
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
      echo "coverage: $target_file at ${pct}% is below the ${floor}% floor" >&2
      failed=1
    fi
  fi
done
if [ "$failed" -ne 0 ]; then
  exit 1
fi
if [ -n "$floor" ]; then
  echo "== coverage: floor ${floor}% OK =="
fi
