#!/usr/bin/env bash
# Builds (Release) and runs the machine-readable benches, leaving their JSON
# artifacts in the repo root — the project's perf trajectory across PRs.
#
#   scripts/bench.sh            # build + run, writes BENCH_laa_scaling.json
#                               # and BENCH_engine_micro.json
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
build_dir="build-bench"

echo "== bench: configuring Release build ($build_dir) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "== bench: building =="
cmake --build "$build_dir" -j "$jobs" --target bench_laa_scaling --target bench_engine_micro \
  --target bench_fleet >/dev/null

echo "== bench: LAA scaling (pruned vs brute force vs cached vs GAA) =="
"$build_dir"/bench/bench_laa_scaling --json=BENCH_laa_scaling.json

echo "== bench: validating BENCH_laa_scaling.json =="
# Skipped brute runs must be JSON null, never a numeric sentinel, and every
# brute row must agree with the pruned and cached sweeps bit-for-bit.
if grep -E '"schemas_evaluated_brute_run": -1|"exhaustive_ms": -1' BENCH_laa_scaling.json; then
  echo "bench JSON uses numeric sentinels for skipped brute runs (want null)" >&2
  exit 1
fi
if grep -q '"cost_equal_to_brute": false' BENCH_laa_scaling.json; then
  echo "pruned/cached LAA disagreed with brute force on some row" >&2
  exit 1
fi
grep -q '"cached_ms"' BENCH_laa_scaling.json || {
  echo "bench JSON is missing the cached-run columns" >&2
  exit 1
}
# The online-migration section must be present (batch size, I/O budget,
# per-phase probe I/O) and at least one phase must have committed batches.
for key in '"online_migration"' '"batch_rows"' '"io_budget"' '"probe_io"'; do
  grep -q "$key" BENCH_laa_scaling.json || {
    echo "bench JSON is missing the online-migration key $key" >&2
    exit 1
  }
done
grep -Eq '"batches": [1-9]' BENCH_laa_scaling.json || {
  echo "online migration committed no batches in any phase" >&2
  exit 1
}
# The concurrent-serving section must report per-phase throughput and latency
# quantiles for at least 4 live sessions, and those sessions must have
# answered real queries.
for key in '"concurrent_serving"' '"throughput_qps"' '"p50_ms"' '"p95_ms"' '"p99_ms"'; do
  grep -q "$key" BENCH_laa_scaling.json || {
    echo "bench JSON is missing the concurrent-serving key $key" >&2
    exit 1
  }
done
grep -q '"sessions": 4' BENCH_laa_scaling.json || {
  echo "concurrent serving has no 4-session rows" >&2
  exit 1
}
grep -Eq '"sessions": [48], "phase": [0-9]+, "queries": [1-9]' BENCH_laa_scaling.json || {
  echo "concurrent serving answered no queries in any phase" >&2
  exit 1
}
# Lockdep is a compile-time option and this is a lockdep-off Release build:
# the serving numbers must stay at the seed level (~3.4-4.9k qps on the CI
# class of machine). A generous floor catches the instrumentation being
# accidentally compiled in (or another order-of-magnitude regression)
# without flaking on slow runners.
peak_qps="$(grep -o '"throughput_qps": [0-9.]*' BENCH_laa_scaling.json \
  | awk '{ if ($2 > m) m = $2 } END { printf "%d", m }')"
if [ "${peak_qps:-0}" -lt 1000 ]; then
  echo "concurrent serving peak throughput ${peak_qps} qps is below the 1000 qps floor" >&2
  exit 1
fi
echo "== bench: peak concurrent-serving throughput ${peak_qps} qps (floor 1000) =="
# The mixed read/write section must be present, the writer lanes must have
# applied real statements through the write rewriter, and no row may report
# a non-bind failure (unservable write windows are counted, never errors).
for key in '"mixed_rw_serving"' '"write_fraction"' '"unservable_writes"' '"fragment_writes"' \
  '"dual_applied"'; do
  grep -q "$key" BENCH_laa_scaling.json || {
    echo "bench JSON is missing the mixed-rw key $key" >&2
    exit 1
  }
done
grep -Eq '"writes": [1-9]' BENCH_laa_scaling.json || {
  echo "mixed read/write serving applied no writes in any row" >&2
  exit 1
}
if sed -n '/"mixed_rw_serving"/,$p' BENCH_laa_scaling.json | grep -Eq '"errors": [1-9]'; then
  echo "mixed read/write serving reported write-path errors" >&2
  exit 1
fi

echo "== bench: engine micro (batch engine vs reference row engine) =="
"$build_dir"/bench/bench_engine_micro --json=BENCH_engine_micro.json

echo "== bench: validating BENCH_engine_micro.json =="
for key in '"scan_filter_project"' '"row_ms"' '"vectorized_ms"' '"row_rows_per_s"' \
  '"vectorized_rows_per_s"' '"speedup"'; do
  grep -q "$key" BENCH_engine_micro.json || {
    echo "engine micro JSON is missing the key $key" >&2
    exit 1
  }
done
# The batch engine must beat the reference row engine (tests/reference) by
# at least 2x on the scan->filter->project micro (column-pruned batch decode
# vs per-row full-tuple deserialization); anything less means the batch path
# lost its structural edge.
sfp_speedup="$(grep '"scan_filter_project"' BENCH_engine_micro.json \
  | grep -o '"speedup": [0-9.]*' | awk '{print $2}')"
if ! awk -v s="${sfp_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
  echo "batch engine scan-filter-project speedup ${sfp_speedup}x is below the 2.0x floor" >&2
  exit 1
fi
echo "== bench: batch engine scan-filter-project speedup ${sfp_speedup}x (floor 2.0x) =="

echo "== bench: fleet (1024 tenant shards under one scheduler) =="
"$build_dir"/bench/bench_fleet --json=BENCH_fleet.json

echo "== bench: validating BENCH_fleet.json =="
for key in '"fleet"' '"tenants_migrated"' '"throughput_qps"' '"p50_ms"' '"p95_ms"' \
  '"p99_ms"' '"io_peak_outstanding"' '"same_step_plan_cache"'; do
  grep -q "$key" BENCH_fleet.json || {
    echo "fleet JSON is missing the key $key" >&2
    exit 1
  }
done
# The acceptance floor: at least 1000 tenants migrated end to end.
fleet_migrated="$(grep -o '"tenants_migrated": [0-9]*' BENCH_fleet.json | awk '{print $2}')"
if [ "${fleet_migrated:-0}" -lt 1000 ]; then
  echo "fleet migrated only ${fleet_migrated} tenants (floor 1000)" >&2
  exit 1
fi
# Zero non-bind foreground errors across the whole rollout window
# (unservable statements are counted separately, never as errors).
grep -q '"errors": 0,' BENCH_fleet.json || {
  echo "fleet serving reported foreground errors" >&2
  exit 1
}
# The global migration-I/O budget must hold exactly.
io_cap="$(grep -o '"io_capacity": [0-9]*' BENCH_fleet.json | awk '{print $2}')"
io_peak="$(grep -o '"io_peak_outstanding": [0-9]*' BENCH_fleet.json | awk '{print $2}')"
if [ "${io_peak:-0}" -gt "${io_cap:-0}" ]; then
  echo "fleet exceeded its I/O budget (peak ${io_peak} > capacity ${io_cap})" >&2
  exit 1
fi
# Same-step tenants must amortize planning to >= 90% shared-cache hits.
fleet_hit_pct="$(grep -o '"same_step_hit_pct": [0-9.]*' BENCH_fleet.json | awk '{print $2}')"
if ! awk -v h="${fleet_hit_pct:-0}" 'BEGIN { exit !(h >= 90.0) }'; then
  echo "same-step plan-cache hit rate ${fleet_hit_pct}% is below the 90% floor" >&2
  exit 1
fi
echo "== bench: fleet migrated ${fleet_migrated} tenants, same-step hit rate ${fleet_hit_pct}% =="

echo "== bench: OK =="
