// Differential testing: random single-table queries executed through the
// full parse->bind->plan->execute stack are checked against a naive
// reference evaluator applied directly to the raw rows. Catches planner/
// executor/expression bugs that hand-written cases miss.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/logical_database.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/migration_planner.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"
#include "sql/session.h"
#include "tests/common/test_db_builder.h"
#include "tests/reference/row_engine.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

using testutil::MakeInstance;
using testutil::RandomInstance;
using testutil::SameRows;
using testutil::SortRows;

/// Random predicate over columns id/a/b/s. Depth-bounded.
ExprPtr RandomPredicate(Rng* rng, int depth = 0) {
  double roll = rng->UniformDouble();
  if (depth < 2 && roll < 0.3) {
    ExprPtr l = RandomPredicate(rng, depth + 1);
    ExprPtr r = RandomPredicate(rng, depth + 1);
    if (rng->Bernoulli(0.5)) return And(std::move(l), std::move(r));
    return std::make_unique<LogicExpr>(LogicOp::kOr, std::move(l), std::move(r));
  }
  if (roll < 0.4) {
    return std::make_unique<NotExpr>(RandomPredicate(rng, depth + 1));
  }
  if (roll < 0.5) {
    const char* cols[] = {"a", "b"};
    return std::make_unique<IsNullExpr>(Col(cols[rng->Index(2)]), rng->Bernoulli(0.5));
  }
  if (roll < 0.6) {
    return std::make_unique<LikeExpr>(Col("s"), rng->Bernoulli(0.5) ? "a%" : "%b%",
                                      rng->Bernoulli(0.3));
  }
  const char* cols[] = {"id", "a", "b"};
  CompareOp ops[] = {CompareOp::kEq,  CompareOp::kNe, CompareOp::kLt,
                     CompareOp::kLe,  CompareOp::kGt, CompareOp::kGe};
  return Cmp(ops[rng->Index(6)], Col(cols[rng->Index(3)]),
             Const(Value::Int(rng->UniformInt(-20, 20))));
}

class DifferentialProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialProperty, FilterQueriesMatchReference) {
  Rng rng(GetParam());
  RandomInstance inst = MakeInstance(&rng, 400);
  DatabaseCatalogView view(inst.db.get());

  for (int iter = 0; iter < 40; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);

    // Engine path.
    BoundQuery q;
    TableAccess t("t", {"id", "a", "b", "s"});
    t.filters.push_back(pred->Clone());
    q.tables.push_back(std::move(t));
    q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kNone, "a");
    auto plan = PlanQuery(q, view);
    ASSERT_TRUE(plan.ok()) << pred->ToString() << ": " << plan.status().ToString();
    auto got = ExecutePlan(**plan, inst.db.get());
    ASSERT_TRUE(got.ok()) << pred->ToString() << ": " << got.status().ToString();

    // Reference path: evaluate the predicate against the raw rows.
    ExprPtr ref = pred->Clone();
    ASSERT_TRUE(ref->Resolve([](const std::string& name) -> Result<size_t> {
                     if (name == "id") return 0;
                     if (name == "a") return 1;
                     if (name == "b") return 2;
                     if (name == "s") return 3;
                     return Status::BindError("?");
                   })
                    .ok());
    std::vector<Row> want;
    for (const auto& row : inst.rows) {
      auto pass = EvalPredicate(*ref, row);
      ASSERT_TRUE(pass.ok());
      if (*pass) want.push_back({row[0], row[1]});
    }

    std::vector<Row> got_sorted = SortRows(*got);
    std::vector<Row> want_sorted = SortRows(want);
    ASSERT_EQ(got_sorted.size(), want_sorted.size()) << pred->ToString();
    for (size_t i = 0; i < got_sorted.size(); ++i) {
      ASSERT_TRUE(RowEq()(got_sorted[i], want_sorted[i]))
          << pred->ToString() << ": " << RowToString(got_sorted[i]) << " vs "
          << RowToString(want_sorted[i]);
    }
  }
}

TEST_P(DifferentialProperty, AggregateQueriesMatchReference) {
  Rng rng(GetParam() * 31 + 7);
  RandomInstance inst = MakeInstance(&rng, 300);
  DatabaseCatalogView view(inst.db.get());

  for (int iter = 0; iter < 20; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);

    // Engine: SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a) GROUP BY b.
    BoundQuery q;
    TableAccess t("t", {"id", "a", "b", "s"});
    t.filters.push_back(pred->Clone());
    q.tables.push_back(std::move(t));
    q.group_by.push_back(Col("t.b"));
    q.select_items.emplace_back(Col("t.b"), AggFunc::kNone, "b");
    q.select_items.emplace_back(nullptr, AggFunc::kCountStar, "n");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kSum, "sum_a");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kMin, "min_a");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kMax, "max_a");
    auto plan = PlanQuery(q, view);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto got = ExecutePlan(**plan, inst.db.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    // Reference.
    ExprPtr ref = pred->Clone();
    ASSERT_TRUE(ref->Resolve([](const std::string& name) -> Result<size_t> {
                     if (name == "id") return 0;
                     if (name == "a") return 1;
                     if (name == "b") return 2;
                     if (name == "s") return 3;
                     return Status::BindError("?");
                   })
                    .ok());
    struct Agg {
      int64_t count = 0;
      int64_t sum = 0;
      bool has = false;
      int64_t min = 0, max = 0;
    };
    std::map<std::string, Agg> groups;  // key = b's display (handles NULL)
    std::map<std::string, Value> key_of;
    for (const auto& row : inst.rows) {
      auto pass = EvalPredicate(*ref, row);
      ASSERT_TRUE(pass.ok());
      if (!*pass) continue;
      std::string key = row[2].ToString();
      key_of.emplace(key, row[2]);
      Agg& agg = groups[key];
      ++agg.count;
      if (!row[1].is_null()) {
        int64_t v = row[1].AsInt();
        agg.sum += v;
        if (!agg.has || v < agg.min) agg.min = v;
        if (!agg.has || v > agg.max) agg.max = v;
        agg.has = true;
      }
    }
    ASSERT_EQ(got->size(), groups.size()) << pred->ToString();
    for (const auto& row : *got) {
      std::string key = row[0].ToString();
      auto it = groups.find(key);
      ASSERT_NE(it, groups.end()) << pred->ToString() << " group " << key;
      const Agg& agg = it->second;
      EXPECT_EQ(row[1].AsInt(), agg.count) << key;
      if (agg.has) {
        EXPECT_EQ(row[2].AsInt(), agg.sum) << key;
        EXPECT_EQ(row[3].AsInt(), agg.min) << key;
        EXPECT_EQ(row[4].AsInt(), agg.max) << key;
      } else {
        EXPECT_TRUE(row[2].is_null()) << key;
        EXPECT_TRUE(row[3].is_null()) << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty, ::testing::Values(1, 17, 23, 99));

// --- cross-schema differential oracle ---
//
// The rewriter's correctness invariant (core/rewriter.h) says a query
// answers identically on every valid intermediate schema. This test checks
// it end to end on the paper's own trajectory: ground truth is the full
// TPC-W workload executed on the fully-migrated object schema; then the
// Fig-7-style LAA trajectory is replayed operator by operator with the
// MigrationExecutor, and after every single operator each servable query is
// rewritten onto the current intermediate schema, executed, and compared
// row for row.

/// Rewrites + executes `query` on `schema` over `db` through the production
/// engine and the reference row engine, asserting they agree row for row
/// before returning the result; unservable (BindError) comes back as
/// std::nullopt, any other failure is a test failure.
std::optional<std::vector<Row>> RunOnSchema(Database* db, const LogicalQuery& query,
                                            const PhysicalSchema& schema) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    EXPECT_TRUE(bound.status().IsBindError())
        << query.name << ": " << bound.status().ToString();
    return std::nullopt;
  }
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(*bound, view);
  EXPECT_TRUE(plan.ok()) << query.name << ": " << plan.status().ToString();
  if (!plan.ok()) return std::nullopt;
  auto rows = ExecutePlan(**plan, db);
  EXPECT_TRUE(rows.ok()) << query.name << ": " << rows.status().ToString();
  if (!rows.ok()) return std::nullopt;
  auto ref_rows = reference::ExecutePlan(**plan, db);
  EXPECT_TRUE(ref_rows.ok()) << query.name << " (reference): "
                             << ref_rows.status().ToString();
  if (!ref_rows.ok()) return std::nullopt;
  std::vector<Row> sorted = SortRows(std::move(*rows));
  std::vector<Row> ref_sorted = SortRows(std::move(*ref_rows));
  EXPECT_TRUE(SameRows(sorted, ref_sorted))
      << query.name << ": engine diverges from the reference row engine ("
      << sorted.size() << " vs " << ref_sorted.size() << " rows)";
  return sorted;
}

TEST(CrossSchemaOracle, TpcwWorkloadRowEqualOnEveryLaaIntermediate) {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  std::vector<std::vector<double>> phase_freqs = Fig9IrregularFrequencies();
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny());
  std::vector<LogicalStats> phase_stats = {data->ComputeStats()};

  // Ground truth: every query on the fully-migrated object schema.
  std::vector<std::vector<Row>> oracle(queries->size());
  {
    Database db(4096);
    ASSERT_TRUE(data->Materialize(&db, schema->object).ok());
    ASSERT_TRUE(db.AnalyzeAll().ok());
    for (size_t q = 0; q < queries->size(); ++q) {
      auto rows = RunOnSchema(&db, (*queries)[q].query, schema->object);
      ASSERT_TRUE(rows.has_value()) << "query " << (*queries)[q].query.name
                                    << " must be servable on the object schema";
      oracle[q] = std::move(*rows);
    }
  }

  auto opset = ComputeOperatorSet(schema->source, schema->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();

  Database db(4096);
  ASSERT_TRUE(data->Materialize(&db, schema->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = schema->source;
  MigrationExecutor exec(&db, data.get());

  MigrationContext ctx;
  ctx.object = &schema->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &phase_freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &*queries;

  size_t intermediates = 0;
  auto check_all = [&](const std::string& where) {
    for (size_t q = 0; q < queries->size(); ++q) {
      auto rows = RunOnSchema(&db, (*queries)[q].query, current);
      if (!rows.has_value()) continue;  // unservable here: allowed
      EXPECT_TRUE(SameRows(*rows, oracle[q]))
          << (*queries)[q].query.name << " diverges from the object-schema oracle "
          << where << " (" << rows->size() << " vs " << oracle[q].size() << " rows)";
    }
    ++intermediates;
  };

  check_all("on the source schema");
  for (size_t p = 0; p < phase_freqs.size(); ++p) {
    ctx.current = &current;
    auto laa = SelectOpsLaa(ctx, p);
    ASSERT_TRUE(laa.ok()) << laa.status().ToString();
    for (int op : laa->ops_to_apply) {
      auto io = exec.Apply(opset->ops[static_cast<size_t>(op)], &current);
      ASSERT_TRUE(io.ok()) << "op#" << opset->ops[static_cast<size_t>(op)].id << ": "
                           << io.status().ToString();
      ctx.applied[static_cast<size_t>(op)] = true;
      ASSERT_TRUE(db.AnalyzeAll().ok());
      check_all("after op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
    }
  }

  // Final migration: ops LAA never found cost-beneficial are applied at the
  // end of the last phase (what MigrationSimulation does), still checking
  // every intermediate.
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int op : *topo) {
    if (ctx.applied[static_cast<size_t>(op)]) continue;
    auto io = exec.Apply(opset->ops[static_cast<size_t>(op)], &current);
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    ctx.applied[static_cast<size_t>(op)] = true;
    ASSERT_TRUE(db.AnalyzeAll().ok());
    check_all("after final-migration op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
  }

  // The trajectory must have moved through several distinct intermediates.
  EXPECT_GT(intermediates, 2u);
  for (size_t q = 0; q < queries->size(); ++q) {
    EXPECT_TRUE(RewriteQuery((*queries)[q].query, current).ok())
        << (*queries)[q].query.name << " must be servable once migration completes";
  }
}

// --- mixed read/write differential oracle ---
//
// The write-side extension of the invariant above: random DML from BOTH
// application versions flows through the DmlRouter on every LAA
// intermediate — including mid-copy, on both sides of a live frontier — and
// is mirrored on the entity-level LogicalDatabase. After every burst the
// physical tables must equal a fresh materialization of the mirror, and
// every servable read (executed through the production engine and checked
// against the reference row engine) must equal the same query answered on
// the fully-migrated object schema built from the mirror.

TEST(MixedRwCrossSchemaOracle, DmlFromBothVersionsAgreesOnEveryLaaIntermediate) {
  auto bs = testutil::Bookstore::Make();
  const LogicalSchema& lg = bs->logical;
  // The mirror doubles as the executor's entity source (kCreateTable rows),
  // which is exactly the shared-truth semantics: rows written before the
  // create op must appear in the created fragment too. DML therefore pauses
  // while an entity-sourced copy is in flight (the row vector must not move
  // under the scan); scan/join-sourced ops take live writes every batch.
  auto mirror = bs->MakeData(5, 4, 40);

  std::vector<VersionTable> tables = VersionTablesOf(bs->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }

  // Read workload: one query per version era (the new one needs b_abstract,
  // unservable until its create op lands), reused as the LAA's predicted
  // workload.
  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(book), /*is_old=*/true);
    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries.emplace_back(std::move(user), /*is_old=*/true);
    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries.emplace_back(std::move(abstract_q), /*is_old=*/false);
  }

  Database db(4096);
  ASSERT_TRUE(mirror->Materialize(&db, bs->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs->source;
  DmlRouter router(&db);
  Rng rng(20260808);

  // The workload keeps the instance COVERING (every FK names a live author):
  // FKs always reference a seed author, INSERTs must provide them, and
  // author rows are never deleted. Reads rewrite parent joins as inner
  // joins, so the join layout and the denormalized layout only answer alike
  // on covering data — the uncovered cases (dangling/NULL FK) are state-
  // checked by the RewriteDmlOracle suite instead.
  auto random_statement = [&]() {
    const VersionTable& vt = tables[rng.Index(tables.size())];
    LogicalDml dml;
    double roll = rng.UniformDouble();
    dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
    if (dml.kind == DmlKind::kDelete && vt.anchor == bs->author) dml.kind = DmlKind::kUpdate;
    dml.table = vt;
    // Keys straddle the MakeData ranges so hits, misses, and rows on both
    // sides of a mid-copy frontier all occur.
    dml.key = rng.UniformInt(0, 45);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : vt.attrs) {
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value()) {
          if (dml.kind == DmlKind::kInsert || rng.Bernoulli(0.6)) {
            dml.set_attrs.push_back(a);
            dml.set_values.push_back(Value::Int(rng.UniformInt(0, 4)));
          }
          continue;
        }
        if (!rng.Bernoulli(0.6)) continue;
        dml.set_attrs.push_back(a);
        if (attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(rng.UniformInt(-5, 40)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng.UniformInt(0, 999))));
        }
      }
    }
    return dml;
  };

  uint64_t applied_writes = 0;
  auto write_one = [&]() -> Status {
    LogicalDml dml = random_statement();
    Status s = router.Execute(dml, current);
    if (s.IsBindError()) return Status::OK();  // unservable here: skipped
    if (!s.ok()) return s;
    testutil::MirrorApply(mirror.get(), dml);
    ++applied_writes;
    return Status::OK();
  };

  size_t checked_intermediates = 0;
  auto check_all = [&](const std::string& where) {
    ++checked_intermediates;
    ASSERT_TRUE(db.AnalyzeAll().ok());
    testutil::ExpectStateMatchesMirror(&db, *mirror, current, where);
    // Read side: the object-schema answer from the mirror is the oracle.
    Database scratch(4096);
    ASSERT_TRUE(mirror->Materialize(&scratch, bs->object).ok());
    ASSERT_TRUE(scratch.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries) {
      auto want = RunOnSchema(&scratch, wq.query, bs->object);
      ASSERT_TRUE(want.has_value()) << wq.query.name << " " << where;
      auto got = RunOnSchema(&db, wq.query, current);
      if (!got.has_value()) continue;  // unservable on this intermediate
      EXPECT_TRUE(SameRows(*got, *want))
          << wq.query.name << " diverges from the mirror oracle " << where << " ("
          << got->size() << " vs " << want->size() << " rows)";
    }
  };

  auto opset = ComputeOperatorSet(bs->source, bs->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  MigrationExecutor exec(&db, mirror.get());

  auto apply_with_live_writes = [&](const MigrationOperator& op) {
    MigrationOptions opts;
    opts.batch_rows = 8;  // several batches per target: a real frontier
    opts.dml_router = &router;
    // Entity-sourced creates read the mirror's row vectors directly; live
    // statements would mutate them mid-scan. Scan/join ops write every batch.
    if (op.kind != OperatorKind::kCreateTable) {
      opts.on_batch = [&](const MigrationBatchEvent&) -> Status {
        PSE_RETURN_NOT_OK(write_one());
        return write_one();
      };
    }
    exec.set_options(std::move(opts));
    auto io = exec.Apply(op, &current);
    ASSERT_TRUE(io.ok()) << "op#" << op.id << ": " << io.status().ToString();
    ASSERT_FALSE(router.attached()) << "op#" << op.id << " left the router attached";
  };

  std::vector<std::vector<double>> phase_freqs = {{10, 10, 5}};
  std::vector<LogicalStats> phase_stats = {mirror->ComputeStats()};
  MigrationContext ctx;
  ctx.object = &bs->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &phase_freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &queries;

  // Burst on the source schema first, then after every operator the LAA
  // trajectory publishes (cost-picked ops first, the remainder in topo
  // order — the same walk MigrationSimulation takes).
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(write_one().ok());
  check_all("on the source schema");

  auto run_op = [&](int op) {
    apply_with_live_writes(opset->ops[static_cast<size_t>(op)]);
    ctx.applied[static_cast<size_t>(op)] = true;
    for (int i = 0; i < 15; ++i) ASSERT_TRUE(write_one().ok());
    check_all("after op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
  };
  ctx.current = &current;
  auto laa = SelectOpsLaa(ctx, 0);
  ASSERT_TRUE(laa.ok()) << laa.status().ToString();
  for (int op : laa->ops_to_apply) run_op(op);
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int op : *topo) {
    if (!ctx.applied[static_cast<size_t>(op)]) run_op(op);
  }

  EXPECT_GT(checked_intermediates, 2u);
  EXPECT_GT(applied_writes, 0u);
  EXPECT_GT(router.stats().dual_applied, 0u) << "no write ever landed on a live frontier";
  // Post-migration, every version table of both eras must accept writes.
  for (const VersionTable& vt : tables) {
    LogicalDml probe;
    probe.kind = DmlKind::kInsert;
    probe.table = vt;
    probe.key = 9000 + static_cast<int64_t>(&vt - tables.data());
    EXPECT_TRUE(router.Execute(probe, current).ok()) << vt.name;
    testutil::MirrorApply(mirror.get(), probe);
  }
  testutil::ExpectStateMatchesMirror(&db, *mirror, current, "after the post-migration probes");
}

// --- multi-tenant mixed R/W differential oracle ---
//
// The fleet-wide extension: three tenant shards with distinct data walk the
// SAME FleetSchedule but stop at DIFFERENT positions, with random DML from
// both application versions flowing through every shard's own DmlRouter
// between operators. Each tenant must keep matching its OWN single-tenant
// oracle (its entity-level mirror materialized fresh), proving tenants are
// truly shared-nothing: a neighbor's writes, provenance, or trajectory
// position never bleed into another shard's answers.

TEST(FleetDifferentialOracle, TenantsAtDifferentStepsEachMatchTheirOwnOracle) {
  auto bs = testutil::Bookstore::Make();
  const LogicalSchema& lg = bs->logical;
  auto schedule = PlanFleetSchedule(bs->source, bs->object);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const size_t steps = schedule->steps();
  ASSERT_GE(steps, 3u) << "the bookstore trajectory must have several steps";
  // Tenant 0 barely starts, tenant 1 parks mid-trajectory, tenant 2
  // finishes — three different serving schemas under one schedule.
  const size_t positions[3] = {1, 2, steps};

  std::vector<VersionTable> tables = VersionTablesOf(bs->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }

  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(book), /*is_old=*/true);
    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries.emplace_back(std::move(user), /*is_old=*/true);
    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries.emplace_back(std::move(abstract_q), /*is_old=*/false);
  }

  // Per-tenant mirror + shard. The mirror doubles as the shard's entity
  // source (the MixedRwCrossSchemaOracle shared-truth semantics); writes
  // happen only between operators here, so entity-sourced creates never
  // scan a mirror mid-mutation.
  std::unique_ptr<LogicalDatabase> mirrors[3];
  std::unique_ptr<TenantShard> shards[3];
  for (size_t t = 0; t < 3; ++t) {
    mirrors[t] = bs->MakeData(4 + static_cast<int>(t), 3, 25 + 5 * static_cast<int>(t));
    auto shard = TenantShard::Create(t, bs->source, mirrors[t].get());
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards[t] = std::move(*shard);
  }

  Rng rng(20260808);
  // Covering-data discipline as in MixedRwCrossSchemaOracle: FKs always
  // reference a seed author (every tenant has >= 4), authors never deleted.
  auto random_statement = [&]() {
    const VersionTable& vt = tables[rng.Index(tables.size())];
    LogicalDml dml;
    double roll = rng.UniformDouble();
    dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
    if (dml.kind == DmlKind::kDelete && vt.anchor == bs->author) dml.kind = DmlKind::kUpdate;
    dml.table = vt;
    dml.key = rng.UniformInt(0, 40);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : vt.attrs) {
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value()) {
          if (dml.kind == DmlKind::kInsert || rng.Bernoulli(0.6)) {
            dml.set_attrs.push_back(a);
            dml.set_values.push_back(Value::Int(rng.UniformInt(0, 3)));
          }
          continue;
        }
        if (!rng.Bernoulli(0.6)) continue;
        dml.set_attrs.push_back(a);
        if (attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(rng.UniformInt(-5, 40)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng.UniformInt(0, 999))));
        }
      }
    }
    return dml;
  };

  uint64_t applied_writes = 0;
  auto write_one = [&](size_t t) -> Status {
    LogicalDml dml = random_statement();
    Status s = shards[t]->router()->Execute(dml, shards[t]->CurrentSchema());
    if (s.IsBindError()) return Status::OK();  // unservable on this tenant's step
    if (!s.ok()) return s;
    testutil::MirrorApply(mirrors[t].get(), dml);
    ++applied_writes;
    return Status::OK();
  };

  // Each tenant's oracle is its OWN mirror: physical state must equal a
  // fresh materialization, and every servable read must equal the same
  // query answered on the object schema built from that mirror alone.
  auto check_tenant = [&](size_t t, const std::string& where) {
    ASSERT_TRUE(shards[t]->db()->AnalyzeAll().ok());
    PhysicalSchema current = shards[t]->CurrentSchema();
    testutil::ExpectStateMatchesMirror(shards[t]->db(), *mirrors[t], current,
                                       "tenant " + std::to_string(t) + " " + where);
    Database scratch(4096);
    ASSERT_TRUE(mirrors[t]->Materialize(&scratch, bs->object).ok());
    ASSERT_TRUE(scratch.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries) {
      auto want = RunOnSchema(&scratch, wq.query, bs->object);
      ASSERT_TRUE(want.has_value()) << wq.query.name;
      auto got = RunOnSchema(shards[t]->db(), wq.query, current);
      if (!got.has_value()) continue;  // unservable at this tenant's step
      EXPECT_TRUE(SameRows(*got, *want))
          << "tenant " << t << ": " << wq.query.name << " diverges from its own oracle "
          << where << " (" << got->size() << " vs " << want->size() << " rows)";
    }
  };

  MigrationOptions options;
  options.batch_rows = 8;  // several batches per target: a real frontier
  for (size_t s = 1; s <= steps; ++s) {
    // Writes land on EVERY tenant before each rollout wave, so a migrating
    // tenant's neighbors are mid-write exactly when cross-shard state could
    // bleed.
    for (size_t t = 0; t < 3; ++t) {
      for (int i = 0; i < 6; ++i) ASSERT_TRUE(write_one(t).ok());
    }
    for (size_t t = 0; t < 3; ++t) {
      if (positions[t] < s) continue;  // this tenant parked earlier
      ASSERT_EQ(shards[t]->step(), s - 1);
      Status st = shards[t]->AdvanceOneOp(*schedule, options);
      ASSERT_TRUE(st.ok()) << "tenant " << t << " step " << s << ": " << st.ToString();
    }
    for (size_t t = 0; t < 3; ++t) {
      check_tenant(t, "after rollout wave " + std::to_string(s));
    }
  }

  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(shards[t]->step(), positions[t]) << "tenant " << t;
    EXPECT_TRUE(shards[t]->CurrentSchema().EquivalentTo(schedule->at(positions[t])));
  }
  EXPECT_GT(applied_writes, 0u);
  // A final burst on the parked tenants: intermediate schemas keep taking
  // writes after the fleet's rollout wave has passed them by.
  for (size_t t = 0; t < 3; ++t) {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(write_one(t).ok());
    check_tenant(t, "after the post-rollout burst");
  }
}

}  // namespace
}  // namespace pse
