// Concurrent multi-version serving under stress: N reader threads execute a
// mixed old/new-version query load through the Rewriter while the
// MigrationExecutor applies batched operators on another thread. Built for
// the ThreadSanitizer leg (scripts/check.sh --tsan) but meaningful under
// any sanitizer: every successful read must equal the serial oracle
// (the rewriter invariant says any valid intermediate schema answers
// identically), no reader may fail with anything but BindError, and the
// ServeDuringMigration harness must report clean metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <random>
#include <shared_mutex>

#include "analysis/lockorder.h"
#include "common/lock_registry.h"
#include "common/thread_pool.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/rewriter.h"
#include "core/serving.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::SameRows;
using testutil::SortRows;

/// Clears the lock registry before a scenario; at scope end asserts a clean
/// lockdep report — zero recorded violations and an acyclic, rank-ordered
/// acquisition graph — plus that instrumentation actually observed latch
/// traffic. In a non-lockdep build the latch hooks compile out, so the
/// checks pass trivially; the check.sh --lockdep and --tsan legs build the
/// suite with PROGSCHEMA_LOCKDEP=ON, where they bite.
class LockdepCleanScope {
 public:
  LockdepCleanScope() { LockRegistry::Instance().ClearEvents(); }
  ~LockdepCleanScope() {
    LockOrderGraph g = LockRegistry::Instance().Snapshot();
    for (const LockViolation& v : g.violations) {
      ADD_FAILURE() << "lockdep violation: " << v.ToString();
    }
    DiagnosticReport report = AnalyzeLockOrder(g);
    EXPECT_TRUE(report.ok()) << report.ToString();
#ifdef PSE_LOCKDEP
    EXPECT_GT(g.acquisitions, 0u) << "lockdep build recorded no acquisitions";
#endif
    LockRegistry::Instance().ClearEvents();
  }
};

/// Rewrites + executes `query` on `schema` over `db`. BindError (the query
/// is not servable on this intermediate schema) comes back as nullopt; any
/// other failure sets `*hard_error`.
std::optional<std::vector<Row>> TryRun(Database* db, const LogicalQuery& query,
                                       const PhysicalSchema& schema, bool* hard_error) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    if (!bound.status().IsBindError()) *hard_error = true;
    return std::nullopt;
  }
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(*bound, view);
  if (!plan.ok()) {
    *hard_error = true;
    return std::nullopt;
  }
  auto rows = ExecutePlan(**plan, db);
  if (!rows.ok()) {
    *hard_error = true;
    return std::nullopt;
  }
  return SortRows(std::move(*rows));
}

/// The engine's per-batch table latches must stay clean under lockdep and
/// TSAN while the migration latches the same tables.
class ServingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(6, 9, 80);

    // Old-version queries over book x author and user; a new-version query
    // needing the not-yet-created b_abstract (unservable early on).
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs_->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries_.emplace_back(std::move(book), /*is_old=*/true);

    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs_->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries_.emplace_back(std::move(user), /*is_old=*/true);

    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs_->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries_.emplace_back(std::move(abstract_q), /*is_old=*/false);

    // Serial oracle: every query on the fully-migrated object schema.
    Database oracle_db(1024);
    ASSERT_TRUE(data_->Materialize(&oracle_db, bs_->object).ok());
    ASSERT_TRUE(oracle_db.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries_) {
      bool hard = false;
      auto rows = TryRun(&oracle_db, wq.query, bs_->object, &hard);
      ASSERT_TRUE(rows.has_value() && !hard) << wq.query.name;
      oracle_.push_back(std::move(*rows));
    }

    auto opset = ComputeOperatorSet(bs_->source, bs_->object);
    ASSERT_TRUE(opset.ok()) << opset.status().ToString();
    opset_ = std::move(*opset);
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::vector<WorkloadQuery> queries_;
  std::vector<std::vector<Row>> oracle_;
  OperatorSet opset_;
};

TEST_F(ServingStressTest, ReadersMatchSerialOracleDuringMigration) {
  constexpr size_t kReaders = 4;
  LockdepCleanScope lockdep;

  Database db(1024);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs_->source;
  ServingSchema serving(current);

  MigrationExecutor exec(&db, data_.get());
  MigrationOptions opts;
  opts.batch_rows = 8;  // many small batches -> many latch handoffs
  opts.on_publish = [&](const PhysicalSchema& s) { serving.Publish(s); };
  exec.set_options(std::move(opts));

  auto topo = opset_.TopologicalOrder();
  ASSERT_TRUE(topo.ok());

  std::atomic<bool> stop{false};
  Status migrate_status;
  // Per-lane tallies; gtest assertions are not thread-safe, so workers only
  // count and the main thread asserts after the join.
  struct Tally {
    uint64_t reads = 0, unservable = 0, mismatches = 0, hard_errors = 0;
  };
  std::vector<Tally> tallies(kReaders);

  ThreadPool pool(kReaders + 1);
  pool.ParallelFor(kReaders + 1, [&](size_t lane) {
    if (lane == kReaders) {  // migration lane
      for (int op : *topo) {
        auto io = exec.Apply(opset_.ops[static_cast<size_t>(op)], &current);
        if (!io.ok()) {
          migrate_status = io.status();
          break;
        }
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    Tally& t = tallies[lane];
    std::mt19937_64 rng(1234 + lane);
    // Keep reading a little past the finish so post-migration reads are
    // exercised through the same path.
    while (!stop.load(std::memory_order_acquire) || t.reads + t.unservable < 8) {
      size_t q = rng() % queries_.size();
      std::shared_lock<SharedMutex> schema_lock(db.schema_latch());
      std::shared_ptr<const PhysicalSchema> snapshot = serving.Get();
      bool hard = false;
      auto rows = TryRun(&db, queries_[q].query, *snapshot, &hard);
      if (hard) {
        ++t.hard_errors;
        continue;
      }
      if (!rows.has_value()) {
        ++t.unservable;
        continue;
      }
      ++t.reads;
      if (!SameRows(*rows, oracle_[q])) ++t.mismatches;
    }
  });

  ASSERT_TRUE(migrate_status.ok()) << migrate_status.ToString();
  uint64_t reads = 0;
  for (const Tally& t : tallies) {
    EXPECT_EQ(t.hard_errors, 0u);
    EXPECT_EQ(t.mismatches, 0u);
    reads += t.reads;
  }
  EXPECT_GT(reads, 0u);

  // The migrated database itself must now equal the oracle on every query.
  ASSERT_TRUE(db.AnalyzeAll().ok());
  for (size_t q = 0; q < queries_.size(); ++q) {
    bool hard = false;
    auto rows = TryRun(&db, queries_[q].query, current, &hard);
    ASSERT_TRUE(rows.has_value() && !hard) << queries_[q].query.name;
    EXPECT_TRUE(SameRows(*rows, oracle_[q])) << queries_[q].query.name;
  }
}

TEST_F(ServingStressTest, ServeHarnessReportsCleanMetrics) {
  LockdepCleanScope lockdep;
  Database db(1024);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs_->source;
  ServingSchema serving(current);

  MigrationExecutor exec(&db, data_.get());
  MigrationOptions opts;
  opts.batch_rows = 8;
  opts.on_publish = [&](const PhysicalSchema& s) { serving.Publish(s); };
  exec.set_options(std::move(opts));

  auto topo = opset_.TopologicalOrder();
  ASSERT_TRUE(topo.ok());

  ServeOptions serve;
  serve.sessions = 4;
  serve.min_queries_per_lane = 8;
  std::vector<double> freqs = {10, 10, 5};
  auto metrics = ServeDuringMigration(&db, &serving, queries_, freqs, serve, [&]() -> Status {
    for (int op : *topo) {
      auto io = exec.Apply(opset_.ops[static_cast<size_t>(op)], &current);
      if (!io.ok()) return io.status();
    }
    return Status::OK();
  });
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->errors, 0u);
  EXPECT_GT(metrics->queries, 0u);
  EXPECT_GT(metrics->throughput_qps, 0.0);
  EXPECT_LE(metrics->p50_ms, metrics->p95_ms);
  EXPECT_LE(metrics->p95_ms, metrics->p99_ms);
}

TEST_F(ServingStressTest, WriterLanesStayCleanAcrossALiveMigration) {
  // The write half of the serve mix: lanes issue random DML from BOTH
  // application versions through the DmlRouter while the migration copies
  // and publishes underneath them (the router dual-applies whatever lands on
  // a live frontier). Unservable write windows — glossary DML before the
  // combine, by design — must drain into `unservable`, never `errors`, and
  // the whole scenario must leave lockdep clean.
  LockdepCleanScope lockdep;
  Database db(1024);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs_->source;
  ServingSchema serving(current);
  DmlRouter router(&db);

  MigrationExecutor exec(&db, data_.get());
  MigrationOptions opts;
  opts.batch_rows = 8;
  opts.dml_router = &router;
  opts.on_publish = [&](const PhysicalSchema& s) { serving.Publish(s); };
  exec.set_options(std::move(opts));

  std::vector<VersionTable> tables = VersionTablesOf(bs_->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs_->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }
  const LogicalSchema& lg = bs_->logical;
  auto make_write = [&tables, &lg](uint64_t i, std::mt19937_64& rng) {
    LogicalDml dml;
    dml.table = tables[rng() % tables.size()];
    uint64_t roll = rng() % 10;
    dml.kind = roll < 5 ? DmlKind::kInsert : roll < 8 ? DmlKind::kUpdate : DmlKind::kDelete;
    // Early writes hit seeded rows (both sides of a frontier); the tail of
    // each lane appends fresh keys.
    dml.key = static_cast<int64_t>(i < 8 ? rng() % 90 : 1000 + rng() % 500);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : dml.table.attrs) {
        if (rng() % 2 != 0) continue;
        dml.set_attrs.push_back(a);
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value() || attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(static_cast<int64_t>(rng() % 6)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng() % 100) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng() % 1000)));
        }
      }
    }
    return dml;
  };

  auto topo = opset_.TopologicalOrder();
  ASSERT_TRUE(topo.ok());

  ServeOptions serve;
  serve.sessions = 4;
  serve.min_queries_per_lane = 12;
  serve.router = &router;
  serve.write_fraction = 0.35;
  serve.make_write = make_write;
  std::vector<double> freqs = {10, 10, 5};
  auto metrics = ServeDuringMigration(&db, &serving, queries_, freqs, serve, [&]() -> Status {
    for (int op : *topo) {
      auto io = exec.Apply(opset_.ops[static_cast<size_t>(op)], &current);
      if (!io.ok()) return io.status();
    }
    return Status::OK();
  });
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->errors, 0u);
  EXPECT_GT(metrics->queries, 0u);
  EXPECT_GT(metrics->writes, 0u);
  EXPECT_LE(metrics->unservable_writes, metrics->unservable);
  EXPECT_GT(metrics->throughput_qps, 0.0);
  EXPECT_GT(router.stats().statements, 0u);
  EXPECT_FALSE(router.attached()) << "migration left the router attached";

  // Split integrity after the storm: whatever the writers did, the two
  // user-anchored fragments of the migrated schema (the executor names its
  // targets, so find them by anchor) must hold exactly the same key set —
  // the fan-out writes both fragments or neither.
  ASSERT_TRUE(db.AnalyzeAll().ok());
  std::vector<std::string> user_fragments;
  for (const PhysicalTable& t : current.tables()) {
    if (t.anchor == bs_->user) user_fragments.push_back(t.name);
  }
  ASSERT_EQ(user_fragments.size(), 2u);
  auto keys_of = [&](const std::string& table) {
    std::vector<Value> keys;
    for (const Row& r : testutil::TableRows(&db, table)) keys.push_back(r[0]);
    return keys;  // TableRows sorts; the anchor key is column 0
  };
  std::vector<Value> gen_keys = keys_of(user_fragments[0]);
  std::vector<Value> rest_keys = keys_of(user_fragments[1]);
  ASSERT_EQ(gen_keys.size(), rest_keys.size());
  for (size_t i = 0; i < gen_keys.size(); ++i) {
    EXPECT_EQ(gen_keys[i].Compare(rest_keys[i]), 0)
        << user_fragments[0] << "/" << user_fragments[1] << " key sets diverge at index " << i;
  }
  {
    std::shared_lock<SharedMutex> schema_lock(db.schema_latch());
    for (size_t i = 0; i < tables.size(); ++i) {
      LogicalDml probe;
      probe.kind = DmlKind::kInsert;
      probe.table = tables[i];
      probe.key = 20000 + static_cast<int64_t>(i);
      EXPECT_TRUE(router.Execute(probe, current).ok()) << tables[i].name;
    }
  }
}

TEST_F(ServingStressTest, WritersDoNotStarveBehindAReaderStream) {
  // Regression for the glibc shared_mutex starvation that motivated
  // common/rw_latch.h: a tight release/re-acquire reader loop must not keep
  // an exclusive acquisition (the migration's quiesce) waiting forever.
  LockdepCleanScope lockdep;
  Database db(256);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> exclusive_grants{0};
  ThreadPool pool(4);
  pool.ParallelFor(4, [&](size_t lane) {
    if (lane == 0) {
      for (int i = 0; i < 50; ++i) {
        std::unique_lock<SharedMutex> w(db.schema_latch());
        exclusive_grants.fetch_add(1, std::memory_order_relaxed);
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    while (!stop.load(std::memory_order_acquire)) {
      std::shared_lock<SharedMutex> r(db.schema_latch());
    }
  });
  EXPECT_EQ(exclusive_grants.load(), 50u);
}

}  // namespace
}  // namespace pse
