// Concurrent multi-version serving: the load-generation side of the paper's
// premise that old- and new-version applications keep issuing queries while
// the schema evolves underneath them. ServeDuringMigration runs a migration
// step on one lane of a thread pool while N worker lanes execute a weighted
// query mix through the Rewriter against the currently *published* schema,
// and reports throughput plus latency percentiles for the window.
//
// The consistency contract (DESIGN.md §15): a worker acquires the
// database's catalog latch shared, snapshots the serving schema, and keeps
// the latch across rewrite + plan + execute. The migration executor
// publishes each operator's post-op schema from inside its exclusive-latch
// quiesce window (MigrationOptions::on_publish), so a worker's snapshot can
// never disagree with the catalog it executes against — every query sees
// either the pre-op or the post-op layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/physical_schema.h"
#include "core/rewriter_dml.h"
#include "core/workload.h"
#include "storage/database.h"

namespace pse {

/// Load-generator knobs for one serve window.
struct ServeOptions {
  /// Concurrent query sessions (worker lanes). The migration itself runs on
  /// one extra lane.
  size_t sessions = 4;
  /// Each lane executes at least this many queries even if the migration
  /// finishes instantly, so op-less phases still produce latency samples.
  uint64_t min_queries_per_lane = 4;
  /// Base RNG seed; lane l draws from seed + l, so a window's query mix is
  /// reproducible given (seed, sessions).
  uint64_t seed = 42;

  // -- writer lanes (the write half of the serve mix; DESIGN.md §19) --

  /// Router the writer share of the mix executes through. Null keeps the
  /// window read-only (write_fraction is then ignored). Wire the same router
  /// into MigrationOptions::dml_router so live-frontier writes dual-apply.
  DmlRouter* router = nullptr;
  /// Probability a lane iteration issues a write instead of a query.
  double write_fraction = 0.0;
  /// Produces the i-th write of a lane (i counts that lane's writes; rng is
  /// the lane's own, so the workload stays reproducible per (seed, lane)).
  std::function<LogicalDml(uint64_t, std::mt19937_64&)> make_write;
};

/// What happened during one serve window. An unservable *write* window (the
/// writability cell for the statement's DML kind is kUnservable on the live
/// intermediate — a planned write-unsafe phase) counts under `unservable`
/// exactly like an unservable read, never under `errors`.
struct ServeMetrics {
  uint64_t queries = 0;      ///< successfully executed foreground queries
  uint64_t writes = 0;       ///< successfully executed foreground writes
  uint64_t unservable = 0;   ///< skipped: not yet servable on the live schema
  uint64_t unservable_writes = 0;  ///< the write share of `unservable`
  uint64_t errors = 0;       ///< non-bind failures (must stay 0)
  double wall_ms = 0;        ///< window duration (migration + drain)
  double throughput_qps = 0; ///< (queries + writes) / wall
  double p50_ms = 0;         ///< median statement latency
  double p95_ms = 0;
  double p99_ms = 0;
};

/// \brief Latched holder of the schema snapshot foreground sessions serve
/// against.
///
/// Readers take a cheap shared_ptr snapshot; the migration swaps it from
/// on_publish inside the exclusive-catalog quiesce window. Callers must read
/// it while holding the database catalog latch shared (see file comment)
/// for the snapshot to be consistent with the physical catalog.
class ServingSchema {
 public:
  explicit ServingSchema(const PhysicalSchema& initial)
      : current_(std::make_shared<PhysicalSchema>(initial)) {
    // Snapshot swaps are pointer moves; nothing under this mutex may fault
    // a page, so lockdep treats any I/O under it as a violation.
    mu_.LockdepRegister("servingschema", kLockRankServing, /*allows_io=*/false);
  }

  std::shared_ptr<const PhysicalSchema> Get() const {
    std::lock_guard<Mutex> lock(mu_);
    return current_;
  }
  void Publish(const PhysicalSchema& schema) {
    auto next = std::make_shared<PhysicalSchema>(schema);
    std::lock_guard<Mutex> lock(mu_);
    current_ = std::move(next);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const PhysicalSchema> current_;
};

/// \brief Runs `migrate` while `options.sessions` lanes serve `queries`.
///
/// Workers pick queries with probability proportional to `freqs` (entries
/// <= 0 never run — both application versions' active queries should carry
/// positive frequency). They loop until `migrate` returns *and* each lane
/// has executed min_queries_per_lane, then the merged metrics are computed.
/// A worker whose query is unservable on the live schema (BindError — its
/// new attribute has no physical home yet) counts it as `unservable` and
/// moves on; any other failure counts as an error and is also carried in
/// the returned status if `migrate` itself succeeded.
///
/// The caller wires `serving` to the executor via
/// MigrationOptions::on_publish before calling. `migrate` runs exactly once,
/// on one lane of an internal pool; it may apply any number of operators.
Result<ServeMetrics> ServeDuringMigration(Database* db, ServingSchema* serving,
                                          const std::vector<WorkloadQuery>& queries,
                                          const std::vector<double>& freqs,
                                          const ServeOptions& options,
                                          const std::function<Status()>& migrate);

}  // namespace pse
