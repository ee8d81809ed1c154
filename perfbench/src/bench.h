// Shared declarations of the benchmark program: the TPC-W inputs, the
// metric sink, the correctness recorder, the phase-cost replay and the
// open-loop foreground generator. Each workload (workloads.cc) is a
// composition of these pieces; main.cc parses the command line and prints
// the result line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/logical_database.h"
#include "core/rewriter_dml.h"
#include "core/serving.h"
#include "core/workload.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"
#include "storage/database.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"
#include "trace.h"

namespace perfbench {

using pse::Database;
using pse::LogicalDatabase;
using pse::LogicalDml;
using pse::PhysicalSchema;
using pse::Row;
using pse::Status;
using pse::WorkloadQuery;

// ---------------------------------------------------------------- results

/// Metric values of one run, printed in insertion order.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Records failed correctness checks (printed to stderr as they happen).
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  void ExpectOk(const Status& s, const std::string& what) {
    Expect(s.ok(), what + (s.ok() ? "" : ": " + s.ToString()));
  }
  bool passed() const { return failures_.load() == 0; }

 private:
  std::atomic<uint64_t> failures_{0};
  std::mutex mu_;
};

// ---------------------------------------------------------------- inputs

/// The TPC-W universe of one run: schemas, entity data, the 20 queries and
/// the Fig 9 irregular phase schedule over them.
struct Tpcw {
  std::unique_ptr<pse::TpcwSchema> schema;
  std::vector<WorkloadQuery> queries;
  std::vector<std::vector<double>> freqs;
};
Tpcw MakeTpcw();

/// Sorted rows of one table.
pse::Result<std::vector<Row>> SortedTableRows(Database* db, const std::string& table);
/// Sorted result rows of `query` rewritten onto `schema` (BindError when it
/// is not servable there), executed with the default engine options.
pse::Result<std::vector<Row>> SortedQueryRows(Database* db, const pse::LogicalQuery& query,
                                              const PhysicalSchema& schema);
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);

/// True when every table of `db` (laid out by `schema`) equals a fresh
/// materialization of `truth` on `schema`.
bool TablesMatch(Database* db, const PhysicalSchema& schema, const LogicalDatabase& truth);

/// `db` (whose tables follow `schema`) must equal a fresh materialization of
/// `truth` on `schema`, table for table; and every query must return the
/// same rows on `db` as on a fresh materialization of `truth` on the object
/// schema.
void CheckAgainstTruth(Database* db, const PhysicalSchema& schema, const LogicalDatabase& truth,
                       const Tpcw& w, const std::string& where, Checker* checker);

// ---------------------------------------------------------------- migration hooks

/// Instrumentation on MigrationOptions::on_batch / on_publish, shared by
/// every workload. on_publish always stamps the last publish (rollout_s
/// ends there); with tracing on, on_batch also records batch intervals,
/// rows moved, the quiesce window (last batch event -> on_publish) and the
/// gap from an operator's start mark to its first batch.
class MigrationProbe {
 public:
  /// Hooks are installed on top of whatever `options` already carries.
  void Install(pse::MigrationOptions* options);
  /// Marks the start of an operator on the calling thread; `mark_gap`
  /// starts the op-gap clock here.
  void OpStart(bool mark_gap);
  /// Marks the end of an operator on the calling thread; `mark_gap` starts
  /// the op-gap clock for the thread's next operator.
  void OpEnd(pse::OperatorKind kind, bool mark_gap);
  /// Time an operator is assumed to start on a thread that never marked one.
  void set_default_start(int64_t ns) { default_start_ns_ = ns; }

  int64_t last_publish_ns() const { return last_publish_ns_.load(); }
  uint64_t rows() const { return rows_.load(); }
  /// Batch intervals (ms) of every finished operator, traced runs only.
  std::vector<std::vector<double>> op_batches();

 private:
  void OnBatch(const pse::MigrationBatchEvent& ev);
  void OnPublish();

  std::atomic<int64_t> last_publish_ns_{0};
  std::atomic<uint64_t> rows_{0};
  int64_t default_start_ns_ = 0;
  std::mutex mu_;  ///< guards op_batches_
  std::vector<std::vector<double>> op_batches_;
};

const char* OpSpanName(pse::OperatorKind kind);

// ---------------------------------------------------------------- replay

/// The paper's Fig 8(a) Pro-Schema run, one thread, both planners.
struct ReplayConfig {
  size_t pool_pages = 1024;
  /// Run the correctness checks (optimality enumeration, per-intermediate
  /// query equality, final-state equality).
  bool check = true;
};

struct ReplayOutcome {
  double phase_cost_laa = 0;
  double phase_cost_gaa = 0;
  uint64_t migration_pages = 0;  ///< LAA trajectory data movement
  uint64_t db_pages = 0;         ///< heap pages of the final schema's tables
  double apply_s = 0;  ///< time in MigrationExecutor::Apply, LAA trajectory
  uint64_t page_reads = 0;  ///< LAA database, whole replay
  uint64_t page_writes = 0;
  uint64_t batches = 0;  ///< LAA trajectory copy batches
  uint64_t queries_run = 0;
  /// Latency of every executed priced query (rewrite, plan, execute).
  std::vector<double> read_ms;
};

/// Planner timings of a run: one sample per pass over the five migration
/// points, and the search effort of one pass.
struct PlannerTiming {
  std::vector<double> laa_s, gaa_s;
  uint64_t laa_schemas = 0, gaa_evaluations = 0;
  pse::CostCacheStats cost_cache;  ///< one pass of both planners
};
/// Appends `passes` passes of both planners alone (choices applied to the
/// schema only, a fresh cost cache per pass) to `timing`.
Status TimePlanners(const Tpcw& w, const LogicalDatabase& data, int passes,
                    PlannerTiming* timing);

/// `rewrite_cache` serves the priced queries' rewrites (steps keyed by
/// trajectory and operators applied; reuse it only across replays of the
/// same data).
pse::Result<ReplayOutcome> RunReplay(const Tpcw& w, const LogicalDatabase& data,
                                     const ReplayConfig& config, MigrationProbe* probe,
                                     pse::SharedPlanCache* rewrite_cache, Checker* checker);

// ---------------------------------------------------------------- foreground

/// One tenant as the foreground sees it.
struct Target {
  Database* db = nullptr;
  pse::ServingSchema* serving = nullptr;
  pse::DmlRouter* router = nullptr;
  /// Its published trajectory step is read under the catalog latch.
  const pse::TenantShard* shard = nullptr;
};

/// One statement of the seeded open-loop schedule. Each slot carries a
/// fallback drawn from statements servable at every step; the slot issues
/// the fallback when its primary is not servable at the tenant's published
/// step.
struct Statement {
  double due_s = 0;
  uint32_t tenant = 0;
  bool write = false;
  uint32_t query = 0, fallback_query = 0;
  uint32_t table = 0, fallback_table = 0;  ///< index into Traffic::tables
  LogicalDml dml, fallback_dml;
};

struct TrafficConfig {
  size_t statements = 0;
  double rate = 100;  ///< statements per second offered
  /// The share of writes and the relative weights of INSERT, UPDATE and
  /// DELETE among them. The defaults are the repository's fleet bench
  /// (bench/bench_fleet.cc): a fifth of the statements write, as the
  /// ordering interactions of TPC-W's shopping mix do, at 6 : 3 : 1.
  double write_share = 0.2;
  std::array<double, 3> write_kinds = {6, 3, 1};
  size_t tenants = 1;
  /// Per-tenant key ranges of the generated data (same scale everywhere).
  pse::TpcwScale scale;
};

/// The statement schedule plus the servability tables it is issued under.
struct Traffic {
  std::vector<Statement> statements;
  std::vector<pse::VersionTable> tables;  ///< order-family version tables
  /// read_ok[step][q], write_ok[step][table][kind]
  std::vector<std::vector<bool>> read_ok;
  std::vector<std::vector<std::vector<bool>>> write_ok;
};

/// Builds the seeded schedule over `steps` (the trajectory's schemas).
pse::Result<Traffic> MakeTraffic(const Tpcw& w, const std::vector<PhysicalSchema>& steps,
                                 const TrafficConfig& config, uint64_t seed);

/// What the foreground did. A statement that returns any error, BindError
/// (unservable) included, is failed and has no latency sample.
struct ForegroundResult {
  std::vector<double> read_ms, write_ms, late_ms;
  uint64_t attempted = 0, failed = 0;
};

/// Runs the schedule open-loop, in due order, on one worker thread against
/// `targets`, and applies every acknowledged write to the tenant's entity
/// mirror (created from truth[tenant] on its first write) in the order the
/// writes ran.
class Foreground {
 public:
  Foreground(const Tpcw& w, const Traffic& traffic, std::vector<Target> targets,
             std::vector<const LogicalDatabase*> truth, pse::SharedPlanCache* cache);
  /// Starts the worker; statement i is due at start + due_s.
  void Start();
  /// Waits for every statement to finish.
  ForegroundResult Join();

  /// The tenant's entity truth after the run: its mirror when written,
  /// else its initial data.
  const LogicalDatabase& Truth(size_t tenant) const;

 private:
  void Run(Clock::time_point start);
  void Execute(const Statement& stmt, Clock::time_point due);

  const Tpcw& w_;
  const Traffic& traffic_;
  std::vector<Target> targets_;
  std::vector<const LogicalDatabase*> truth_;
  std::vector<std::unique_ptr<LogicalDatabase>> mirrors_;
  pse::SharedPlanCache* cache_;
  ForegroundResult result_;
  std::thread thread_;
  std::string first_error_;
};

// ---------------------------------------------------------------- workloads

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSink metrics;
};

RunResult RunPhaseCost(const RunOptions& options);
RunResult RunFleetRollout(const RunOptions& options);

/// Prints the README's reference figures (Fig 8(a) situations, copy-loop
/// probe); returns the process exit code.
int RunReference(uint64_t seed);

/// Peak resident set of this process, MB.
double PeakRssMb();

}  // namespace perfbench
