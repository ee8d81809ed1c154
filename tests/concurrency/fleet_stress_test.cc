// Fleet-wide serving stress: serve lanes drive mixed-version reads AND
// writes across every shard while migration lanes walk other shards along
// the shared schedule under the global I/O token budget. Built for the
// ThreadSanitizer and lockdep legs (scripts/check.sh --tsan / --lockdep):
// the whole run must finish with zero non-bind foreground errors, every
// tenant migrated, the I/O budget respected, and a clean lock-order report
// across the fleet's four new lock classes (fleet, shard:<id>,
// fleet:iobudget, fleet:plancache) interleaved with the catalog, router,
// and table latches.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/lockorder.h"
#include "analysis/writability.h"
#include "common/lock_registry.h"
#include "core/rewriter.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;

/// Same contract as the serving suite's scope: clear the registry, then at
/// scope end require zero violations and an acyclic rank-ordered graph.
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

class FleetStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    auto schedule = PlanFleetSchedule(bs_->source, bs_->object);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    schedule_ = std::make_unique<FleetSchedule>(std::move(*schedule));

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

    // Mixed-version write targets: user-anchored tables of both eras (no
    // FKs, so any value mix keeps the instance covering for the reads).
    for (const VersionTable& vt : VersionTablesOf(bs_->source)) {
      if (vt.anchor == bs_->user) write_tables_.push_back(vt);
    }
    for (const VersionTable& vt : VersionTablesOf(bs_->object)) {
      if (vt.anchor == bs_->user) write_tables_.push_back(vt);
    }
    ASSERT_GE(write_tables_.size(), 3u);
  }

  /// Random user-era DML: INSERT/UPDATE/DELETE on a version table of either
  /// era, keys in a per-shard range so lanes collide on rows too.
  LogicalDml MakeWrite(size_t shard, std::mt19937_64& rng) {
    const VersionTable& vt = write_tables_[rng() % write_tables_.size()];
    LogicalDml dml;
    uint64_t roll = rng() % 10;
    dml.kind = roll < 5 ? DmlKind::kInsert : roll < 8 ? DmlKind::kUpdate : DmlKind::kDelete;
    dml.table = vt;
    dml.key = static_cast<int64_t>(1000 * shard + rng() % 40);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : vt.attrs) {
        if (rng() % 10 >= 6) continue;
        dml.set_attrs.push_back(a);
        const LogicalAttribute& attr = bs_->logical.attr(a);
        if (attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(static_cast<int64_t>(rng() % 1000)));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng() % 100)));
        }
      }
    }
    return dml;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<FleetSchedule> schedule_;
  std::vector<WorkloadQuery> queries_;
  std::vector<VersionTable> write_tables_;
  std::vector<std::unique_ptr<LogicalDatabase>> data_;
};

// Serve lanes hammer K shards with mixed-version reads and writes while
// migration lanes walk the fleet under every staggering policy. Nothing may
// fail with anything but BindError, the budget holds, and lockdep stays
// clean across the whole interleaving.
TEST_F(FleetStressTest, FleetServesCleanlyWhileMigrating) {
  constexpr size_t kTenants = 5;
  LockdepCleanScope lockdep;
  SharedPlanCache cache;

  for (FleetPolicy policy : {FleetPolicy::kRoundRobin, FleetPolicy::kLaggardFirst,
                             FleetPolicy::kHotTenantDeferred}) {
    SCOPED_TRACE(FleetPolicyName(policy));
    FleetScheduler fleet(*schedule_, &cache);
    for (size_t t = 0; t < kTenants; ++t) {
      data_.push_back(bs_->MakeData(3, 3, 20 + static_cast<int>(t)));
      auto shard = TenantShard::Create(t, bs_->source, data_.back().get());
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      fleet.AddShard(std::move(*shard));
    }

    FleetOptions options;
    options.policy = policy;
    options.migration_lanes = 2;
    options.serve_lanes = 3;
    options.io_tokens = 2;
    options.min_queries_per_lane = 64;
    options.seed = 20260808 + static_cast<uint64_t>(policy);
    options.write_fraction = 0.3;
    options.make_write = [this](size_t shard, uint64_t, std::mt19937_64& rng) {
      return MakeWrite(shard, rng);
    };
    options.migration.batch_rows = 8;  // several batches per target: real frontiers
    options.hotness = {1.0, 2.0, 4.0, 1.0, 3.0};

    std::vector<double> freqs = {10, 10, 5};
    auto metrics = fleet.Run(queries_, freqs, options);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

    EXPECT_EQ(metrics->errors, 0u);
    EXPECT_EQ(metrics->tenants_migrated, kTenants);
    EXPECT_EQ(metrics->ops_applied, kTenants * schedule_->steps());
    EXPECT_LE(metrics->io_peak_outstanding, options.io_tokens);
    EXPECT_GT(metrics->queries, 0u);
    EXPECT_GT(metrics->writes, 0u);
    EXPECT_GT(metrics->plan_cache.hits, 0u);

    // Post-rollout, every shard serves every query on the object layout.
    for (size_t i = 0; i < fleet.size(); ++i) {
      TenantShard* shard = fleet.shard(i);
      EXPECT_TRUE(shard->done(*schedule_)) << "shard " << i;
      for (const WorkloadQuery& wq : queries_) {
        EXPECT_TRUE(RewriteQuery(wq.query, shard->CurrentSchema()).ok())
            << "shard " << i << " cannot serve " << wq.query.name << " post-migration";
      }
    }
  }
}

}  // namespace
}  // namespace pse
