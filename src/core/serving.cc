#include "core/serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <shared_mutex>

#include "common/lock_registry.h"
#include "common/thread_pool.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Sorted-sample percentile (nearest-rank on the closed [0,1] interpolation
/// grid); `sorted` must be non-empty and ascending.
double Percentile(const std::vector<double>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Per-lane tallies, merged serially after the join.
struct LaneResult {
  std::vector<double> latencies_ms;  // reads and writes together
  uint64_t writes = 0;
  uint64_t unservable = 0;
  uint64_t unservable_writes = 0;
  uint64_t errors = 0;
  Status first_error;  // kept for the returned status message
};

}  // namespace

Result<ServeMetrics> ServeDuringMigration(Database* db, ServingSchema* serving,
                                          const std::vector<WorkloadQuery>& queries,
                                          const std::vector<double>& freqs,
                                          const ServeOptions& options,
                                          const std::function<Status()>& migrate) {
  if (options.sessions == 0) {
    return Status::InvalidArgument("serve window needs at least one session");
  }
  if (freqs.size() != queries.size()) {
    return Status::InvalidArgument("serve frequency vector does not match the workload");
  }
  // The mix: active queries of the phase, weighted by frequency. Both
  // versions' queries land here — old ones serve throughout, new ones start
  // serving the moment their operators publish.
  std::vector<size_t> active;
  std::vector<double> weights;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (freqs[q] > 0) {
      active.push_back(q);
      weights.push_back(freqs[q]);
    }
  }

  const size_t lanes = options.sessions + 1;  // lane 0 drives the migration
  std::vector<LaneResult> results(lanes);
  std::atomic<bool> stop{false};
  Status migrate_status;

  Clock::time_point window_start = Clock::now();
  ThreadPool pool(lanes);
  pool.ParallelFor(lanes, [&](size_t lane) {
    if (lane == 0) {
      migrate_status = migrate();
      stop.store(true, std::memory_order_release);
      return;
    }
    LaneResult& r = results[lane];
    const bool writes_on =
        options.router != nullptr && options.write_fraction > 0 && options.make_write;
    if (active.empty() && !writes_on) return;
    std::mt19937_64 rng(options.seed + lane);
    std::discrete_distribution<size_t> pick;
    if (!active.empty()) {
      pick = std::discrete_distribution<size_t>(weights.begin(), weights.end());
    }
    std::bernoulli_distribution write_coin(writes_on ? options.write_fraction : 0.0);
    uint64_t lane_writes = 0;
    // The floor counts *attempts*, not successes: a phase whose every active
    // statement is still unservable must not spin a lane forever.
    uint64_t attempts = 0;
    while (!stop.load(std::memory_order_acquire) ||
           attempts < options.min_queries_per_lane) {
      ++attempts;
      const bool do_write = writes_on && (active.empty() || write_coin(rng));
      Clock::time_point t0 = Clock::now();
      Status failed;
      bool ran = false;
      if (do_write) {
        LogicalDml dml = options.make_write(lane_writes++, rng);
        PSE_LOCKDEP_SCOPE("ServeDuringMigration::writer");
        // Same latch discipline as the read path, then the router's write
        // mutex (rank 25) and table latches (rank 30) underneath — the
        // canonical ascending order.
        std::shared_lock<SharedMutex> schema_lock(db->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = serving->Get();
        Status s = options.router->Execute(dml, *schema);
        if (!s.ok()) {
          if (s.IsBindError()) {
            // A planned write-unsafe window (writability cell kUnservable):
            // the statement is skipped, not failed — accounting parity with
            // unservable reads.
            ++r.unservable;
            ++r.unservable_writes;
            continue;
          }
          failed = s;
        } else {
          ran = true;
        }
        if (!ran) {
          ++r.errors;
          if (r.first_error.ok()) r.first_error = failed;
          continue;
        }
        ++r.writes;
        r.latencies_ms.push_back(MsSince(t0));
        continue;
      }
      const LogicalQuery& query = queries[active[pick(rng)]].query;
      {
        PSE_LOCKDEP_SCOPE("ServeDuringMigration::lane");
        // Catalog latch shared across rewrite+plan+execute; the snapshot is
        // taken under the same latch the migration publishes under, so it
        // always matches the physical catalog (file comment in serving.h).
        std::shared_lock<SharedMutex> schema_lock(db->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = serving->Get();
        Result<BoundQuery> bound = RewriteQuery(query, *schema);
        if (!bound.ok()) {
          if (bound.status().IsBindError()) {
            ++r.unservable;
            continue;
          }
          failed = bound.status();
        } else {
          DatabaseCatalogView view(db);
          Result<PlanPtr> plan = PlanQuery(*bound, view);
          if (!plan.ok()) {
            failed = plan.status();
          } else {
            Status s = ExecutePlan(**plan, db).status();
            if (!s.ok()) {
              failed = s;
            } else {
              ran = true;
            }
          }
        }
      }
      if (!ran) {
        ++r.errors;
        if (r.first_error.ok()) r.first_error = failed;
        continue;
      }
      r.latencies_ms.push_back(MsSince(t0));
    }
  });

  ServeMetrics m;
  m.wall_ms = MsSince(window_start);
  std::vector<double> all;
  Status first_error;
  for (const LaneResult& r : results) {
    m.queries += r.latencies_ms.size() - r.writes;
    m.writes += r.writes;
    m.unservable += r.unservable;
    m.unservable_writes += r.unservable_writes;
    m.errors += r.errors;
    if (first_error.ok() && !r.first_error.ok()) first_error = r.first_error;
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  if (m.wall_ms > 0) {
    m.throughput_qps = static_cast<double>(m.queries + m.writes) / (m.wall_ms / 1000.0);
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    m.p50_ms = Percentile(all, 0.50);
    m.p95_ms = Percentile(all, 0.95);
    m.p99_ms = Percentile(all, 0.99);
  }
  if (!migrate_status.ok()) return migrate_status;
  if (m.errors > 0) {
    return Status(first_error.code(),
                  "foreground session failed during migration: " + first_error.message() +
                      " (" + std::to_string(m.errors) + " errors)");
  }
  return m;
}

}  // namespace pse
