// FleetScheduler: advances thousands of tenant shards along the shared
// migration schedule while serve lanes keep answering mixed-version traffic
// on every shard — the paper's progressive rollout, fleet-wide.
//
// Three cooperating pieces:
//
//   IoTokenBucket   a global budget on concurrently copying shards. Every
//                   shard holds one token per in-flight copy batch (and
//                   returns it between batches), so however many migration
//                   lanes run, at most `capacity` shards do migration I/O
//                   at any instant — the SaaS operator's "don't melt the
//                   storage tier" knob.
//
//   staggering      which eligible shard migrates next: round-robin (fair
//   policies        interleave), laggard-first (minimize trajectory spread),
//                   hot-tenant-deferred (migrate cold tenants while hot ones
//                   keep serving; hot ones go last). Every policy drains the
//                   whole fleet — deferral reorders, never starves.
//
//   serve lanes     foreground sessions that pick a shard, snapshot its
//                   serving schema under its catalog latch, fetch the
//                   rewrite from the fleet's SharedPlanCache keyed on the
//                   shard's published step, then plan/execute against the
//                   shard's own catalog (plans stay per-tenant; rewrites
//                   amortize fleet-wide). Writes go through the shard's
//                   DmlRouter exactly like single-database serving.
//
// Lock classes (DESIGN.md §17/§20): "fleet" (rank 4) guards pick/busy
// state, "shard:<id>" (6) each shard's trajectory state, "fleet:iobudget"
// (8) the token bucket, "fleet:plancache" (28) the rewrite cache. All sort
// below/above the existing catalog (10) … bufferpool (40) ranks so lockdep
// checks the fleet paths end to end.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/migration_executor.h"
#include "core/rewriter_dml.h"
#include "core/workload.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"

namespace pse {

/// \brief Counting budget on concurrent migration I/O, blocking at capacity.
class IoTokenBucket {
 public:
  explicit IoTokenBucket(uint64_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    mu_.LockdepRegister("fleet:iobudget", kLockRankFleetIo, /*allows_io=*/false);
  }

  /// Takes one token, blocking while the bucket is drained.
  void Acquire();
  /// Returns one token and wakes a waiter.
  void Release();

  uint64_t capacity() const { return capacity_; }
  uint64_t outstanding() const;
  /// High-water mark of simultaneously held tokens (exact: tracked under
  /// the bucket mutex). The scheduler invariant peak <= capacity is pinned
  /// by tests/fleet/scheduler_test.cc.
  uint64_t peak_outstanding() const;
  uint64_t total_acquired() const;

 private:
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  uint64_t capacity_;
  uint64_t outstanding_ = 0;
  uint64_t peak_ = 0;
  uint64_t total_ = 0;
};

/// Which eligible shard a migration lane picks next.
enum class FleetPolicy {
  kRoundRobin,        ///< cycle shard ids, skipping busy/done
  kLaggardFirst,      ///< lowest trajectory step first
  kHotTenantDeferred  ///< lowest hotness first; hot tenants migrate last
};

const char* FleetPolicyName(FleetPolicy policy);

/// Knobs for one fleet run.
struct FleetOptions {
  FleetPolicy policy = FleetPolicy::kRoundRobin;
  /// Lanes advancing migrations (each works one shard at a time).
  size_t migration_lanes = 2;
  /// Lanes serving foreground traffic across all shards.
  size_t serve_lanes = 2;
  /// IoTokenBucket capacity: shards copying concurrently at any instant.
  uint64_t io_tokens = 4;
  /// Each serve lane issues at least this many statements even when the
  /// fleet migration finishes instantly.
  uint64_t min_queries_per_lane = 32;
  uint64_t seed = 42;
  /// Probability a serve-lane iteration issues a write; needs make_write.
  double write_fraction = 0.0;
  /// Produces the i-th write of a lane against `shard` (the lane's rng keeps
  /// the workload reproducible per (seed, lane)).
  std::function<LogicalDml(size_t shard, uint64_t i, std::mt19937_64& rng)> make_write;
  /// Base migration options per operator (batch sizing, durability, user
  /// hooks); each shard wires its router/publish on top — see
  /// TenantShard::AdvanceOneOp.
  MigrationOptions migration;
  /// Per-shard serve weight; hot-tenant-deferred migrates low weights first
  /// and serve lanes sample shards proportionally. Empty = uniform 1.0.
  std::vector<double> hotness;
  /// Observer called after every successfully applied operator (outside all
  /// fleet locks) with the shard index and its new step — the policy tests
  /// reconstruct migration order from it.
  std::function<void(size_t shard, size_t step)> on_shard_op;
};

/// Fleet-wide outcome of one Run window.
struct FleetMetrics {
  size_t tenants = 0;
  size_t tenants_migrated = 0;  ///< shards that reached the end of the schedule
  uint64_t ops_applied = 0;
  uint64_t batches = 0;
  uint64_t migration_io = 0;
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t unservable = 0;
  uint64_t unservable_writes = 0;
  uint64_t errors = 0;  ///< non-bind foreground failures (must stay 0)
  double wall_ms = 0;
  double throughput_qps = 0;  ///< (queries + writes) / wall seconds
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  PlanCacheStats plan_cache;      ///< delta of this run
  uint64_t io_capacity = 0;       ///< bucket capacity of the run
  uint64_t io_peak_outstanding = 0;
};

/// \brief Drives a fleet of shards through the shared schedule under load.
class FleetScheduler {
 public:
  /// `cache` is the fleet's shared rewrite/plan cache; must outlive the
  /// scheduler. The schedule is owned (all shards reference it via Run).
  FleetScheduler(FleetSchedule schedule, SharedPlanCache* cache);

  void AddShard(std::unique_ptr<TenantShard> shard);
  size_t size() const { return shards_.size(); }
  TenantShard* shard(size_t i) { return shards_[i].get(); }
  const FleetSchedule& schedule() const { return schedule_; }

  /// \brief Migrates every shard to the end of the schedule while serve
  /// lanes drive `queries` (weighted by `freqs`) across the fleet.
  ///
  /// Returns the merged fleet metrics; fails on the first migration error
  /// or any non-bind foreground failure (unservable statements are counted,
  /// never errors — the single-database serving contract, fleet-wide).
  Result<FleetMetrics> Run(const std::vector<WorkloadQuery>& queries,
                           const std::vector<double>& freqs, const FleetOptions& options);

 private:
  struct LaneResult;

  /// Picks and busy-marks the next shard per policy; -1 when none eligible.
  int PickNext(const FleetOptions& options);
  void FinishShard(size_t shard);

  Mutex mu_;  ///< "fleet": busy marks + round-robin cursor
  FleetSchedule schedule_;
  SharedPlanCache* cache_;
  std::vector<std::unique_ptr<TenantShard>> shards_;
  std::vector<uint8_t> busy_;
  size_t rr_cursor_ = 0;
};

}  // namespace pse
