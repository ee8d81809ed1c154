// The phase-cost replay: the paper's Fig 8(a) Pro-Schema run on one thread.
//
// At each migration point LAA (and, on a second database, GAA) chooses the
// operators to apply; MigrationExecutor applies them with no router and no
// foreground traffic; then every active query of the phase runs once on a
// cold pool, and its page I/O is C_i. Phase cost = sum over phases of
// sum_i F_i * C_i. Queries not yet servable are priced the way the paper's
// simulation prices them: 3x their estimated cost on the object schema.
#include <algorithm>
#include <shared_mutex>

#include "bench.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/migration_planner.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace perfbench {

namespace {

using pse::MigrationContext;
using pse::OperatorSet;
using pse::Result;

constexpr double kUnservablePenalty = 3.0;

/// C_i of one query on the current schema: cold-pool page I/O, or the
/// penalized object-schema estimate when it is not servable yet. A priced
/// query is served as a foreground read is: under the catalog latch shared,
/// rewritten through the shared plan cache at `step`, planned, executed.
/// Its latency, the cold-pool eviction before it excluded, goes to
/// `read_ms`.
Result<double> PriceQuery(Database* db, size_t step, const PhysicalSchema& schema,
                          const WorkloadQuery& wq, const PhysicalSchema& object,
                          const pse::LogicalStats& stats, pse::SharedPlanCache* cache,
                          std::vector<double>* read_ms) {
  const int64_t wait_start = NowNs();
  std::shared_lock<pse::SharedMutex> lock(db->schema_latch());
  const int64_t start = NowNs();
  Tracer::Get().Record("storage.database.latch_wait", wait_start, start);
  Result<pse::BoundQuery> bound = [&] {
    ScopedSpan span("fleet.plan_cache.get");
    return cache->GetOrRewrite(step, wq.query, schema);
  }();
  if (!bound.ok()) {
    if (!bound.status().IsBindError()) return bound.status();
    PSE_ASSIGN_OR_RETURN(double est, pse::EstimateQueryCost(wq.query, object, stats));
    return kUnservablePenalty * est;
  }
  pse::DatabaseCatalogView view(db);
  Result<pse::PlanPtr> plan = [&] {
    ScopedSpan span("engine.planner.plan");
    return pse::PlanQuery(*bound, view);
  }();
  if (!plan.ok()) return plan.status();
  const int64_t planned = NowNs();
  PSE_RETURN_NOT_OK(db->pool()->EvictAll());
  const uint64_t before = db->TotalIo();
  const int64_t executing = NowNs();
  {
    ScopedSpan span("engine.executor.execute");
    PSE_RETURN_NOT_OK(pse::ExecutePlan(**plan, db, pse::ExecOptions::Default()).status());
  }
  read_ms->push_back(static_cast<double>((planned - start) + (NowNs() - executing)) / 1e6);
  return static_cast<double>(db->TotalIo() - before);
}

/// The benchmark's own LAA oracle: the lowest estimated phase cost over every
/// dependency-closed subset of the remaining operators, enumerated here
/// without the planner's cluster pruning or cost cache.
Result<double> BestClosedSubsetCost(const MigrationContext& ctx, const OperatorSet& opset,
                                    const std::vector<double>& freqs,
                                    const pse::LogicalStats& stats, const PhysicalSchema& object,
                                    const std::vector<WorkloadQuery>& queries) {
  std::vector<int> remaining = ctx.RemainingOps();
  pse::CostOptions cost_options;
  cost_options.fallback_schema = &object;
  double best = -1;
  for (uint64_t mask = 0; mask < (uint64_t{1} << remaining.size()); ++mask) {
    std::vector<int> subset;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if ((mask >> i) & 1) subset.push_back(remaining[i]);
    }
    if (!opset.IsClosed(subset, ctx.applied)) continue;
    PhysicalSchema candidate = *ctx.current;
    PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
    for (int op : topo) {
      if (std::find(subset.begin(), subset.end(), op) == subset.end()) continue;
      PSE_RETURN_NOT_OK(pse::ApplyOperator(opset.ops[static_cast<size_t>(op)], &candidate));
    }
    PSE_ASSIGN_OR_RETURN(double cost, pse::EstimateWorkloadCost(candidate, stats, queries, freqs,
                                                                cost_options));
    if (best < 0 || cost < best) best = cost;
  }
  return best;
}

Result<double> ScheduleCost(const PhysicalSchema& current, const std::vector<int>& subset,
                            const OperatorSet& opset, const std::vector<double>& freqs,
                            const pse::LogicalStats& stats, const PhysicalSchema& object,
                            const std::vector<WorkloadQuery>& queries) {
  PhysicalSchema candidate = current;
  for (int op : subset) {
    PSE_RETURN_NOT_OK(pse::ApplyOperator(opset.ops[static_cast<size_t>(op)], &candidate));
  }
  pse::CostOptions cost_options;
  cost_options.fallback_schema = &object;
  return pse::EstimateWorkloadCost(candidate, stats, queries, freqs, cost_options);
}

/// GAA as the paper's Fig 8 benches configure it.
pse::GaaOptions ReplayGaaOptions(pse::QueryCostCache* cost_cache) {
  pse::GaaOptions gaa;
  gaa.ga.population_size = 32;
  gaa.ga.generations = 40;
  gaa.ga.stall_generations = 12;
  gaa.unservable_penalty = kUnservablePenalty;
  gaa.analysis.cost_cache = cost_cache;
  return gaa;
}

struct Trajectory {
  double phase_cost = 0;
  uint64_t migration_pages = 0;
  double apply_s = 0;
  uint64_t page_reads = 0, page_writes = 0;
  uint64_t batches = 0;
  uint64_t queries_run = 0;
  std::unique_ptr<pse::TenantShard> shard;
  PhysicalSchema current;
};

enum class Planner { kLaa, kGaa };

Result<Trajectory> RunTrajectory(Planner planner, const Tpcw& w, const LogicalDatabase& data,
                                 const OperatorSet& opset, const std::vector<pse::LogicalStats>& stats,
                                 pse::QueryCostCache* cost_cache, const ReplayConfig& config,
                                 const std::vector<std::vector<Row>>* oracle, MigrationProbe* probe,
                                 pse::SharedPlanCache* rewrite_cache, std::vector<double>* read_ms,
                                 Checker* checker) {
  const pse::TpcwSchema& S = *w.schema;
  const char* tag = planner == Planner::kLaa ? "LAA" : "GAA";
  Trajectory t;
  pse::ShardOptions shard_options;
  shard_options.pool_pages = config.pool_pages;
  {
    ScopedSpan span("fleet.tenant_shard.create");
    PSE_ASSIGN_OR_RETURN(t.shard, pse::TenantShard::Create(planner == Planner::kLaa ? 0 : 1,
                                                           S.source, &data,
                                                           std::move(shard_options)));
  }
  Database* db = t.shard->db();
  db->ResetIoStats();
  t.current = S.source;

  pse::MigrationExecutor exec(db, &data);
  pse::MigrationOptions migration;
  uint64_t batches = 0;
  migration.on_batch = [&batches](const pse::MigrationBatchEvent&) {
    ++batches;
    return Status::OK();
  };
  probe->Install(&migration);
  exec.set_options(std::move(migration));

  MigrationContext ctx;
  ctx.object = &S.object;
  ctx.opset = &opset;
  ctx.phase_freqs = &w.freqs;
  ctx.phase_stats = &stats;
  ctx.queries = &w.queries;
  std::vector<bool> applied(opset.size(), false);
  std::vector<int> times_applied(opset.size(), 0);
  size_t applied_count = 0;

  pse::AnalysisOptions analysis;
  analysis.cost_cache = cost_cache;
  pse::GaaOptions gaa = ReplayGaaOptions(cost_cache);

  auto apply = [&](int op) -> Status {
    const pse::MigrationOperator& mop = opset.ops[static_cast<size_t>(op)];
    // Each operator starts on a cold pool, so its page count does not depend
    // on which queries (priced or checked) ran before it.
    PSE_RETURN_NOT_OK(db->pool()->EvictAll());
    probe->OpStart(/*mark_gap=*/true);
    Clock::time_point t0 = Clock::now();
    Result<uint64_t> io = [&] {
      ScopedSpan span("core.migration_executor.apply");
      return exec.Apply(mop, &t.current);
    }();
    t.apply_s += std::chrono::duration<double>(Clock::now() - t0).count();
    probe->OpEnd(mop.kind, /*mark_gap=*/false);
    if (!io.ok()) return io.status();
    t.migration_pages += *io;
    applied[static_cast<size_t>(op)] = true;
    ++times_applied[static_cast<size_t>(op)];
    ++applied_count;
    if (oracle != nullptr) {
      // Every measured query must answer on this intermediate exactly as on
      // the object schema (unservable here is allowed).
      for (size_t q = 0; q < w.queries.size(); ++q) {
        Result<std::vector<Row>> rows = SortedQueryRows(db, w.queries[q].query, t.current);
        if (!rows.ok() && rows.status().IsBindError()) continue;
        checker->Expect(rows.ok() && SameRows(*rows, (*oracle)[q]),
                        std::string(tag) + " trajectory: " + w.queries[q].query.name +
                            " diverges from the object schema after op#" +
                            std::to_string(mop.id));
      }
    }
    return Status::OK();
  };

  pse::Result<std::vector<int>> topo = opset.TopologicalOrder();
  if (!topo.ok()) return topo.status();
  for (size_t p = 0; p < w.freqs.size(); ++p) {
    ctx.current = &t.current;
    ctx.applied = applied;
    std::vector<int> to_apply;
    if (planner == Planner::kLaa) {
      // LAA adapts to the measured status: at the point opening phase p it
      // has seen phase p-1 (the paper's Pro-Schema setting).
      const size_t observed = p == 0 ? 0 : p - 1;
      Result<pse::LaaResult> laa = [&] {
        ScopedSpan span("core.migration_planner.laa");
        return pse::SelectOpsLaa(ctx, p, observed, /*max_ops=*/22, analysis);
      }();
      if (!laa.ok()) return laa.status();
      to_apply = laa->ops_to_apply;
      if (config.check) {
        Result<double> best = BestClosedSubsetCost(ctx, opset, w.freqs[observed], stats[0],
                                                   S.object, w.queries);
        Result<double> chosen = ScheduleCost(t.current, to_apply, opset, w.freqs[observed],
                                             stats[0], S.object, w.queries);
        checker->Expect(best.ok() && chosen.ok() && *chosen <= *best * (1 + 1e-9) + 1e-9,
                        "LAA subset at point " + std::to_string(p) +
                            " is not the cheapest dependency-closed subset");
      }
    } else {
      Result<pse::GaaResult> plan = [&] {
        ScopedSpan span("ga.plan");
        return pse::PlanGaa(ctx, p, gaa);
      }();
      if (!plan.ok()) return plan.status();
      std::vector<int> now = plan->ApplyNow();
      for (int op : *topo) {
        if (std::find(now.begin(), now.end(), op) != now.end()) to_apply.push_back(op);
      }
    }
    for (int op : to_apply) PSE_RETURN_NOT_OK(apply(op));
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (w.freqs[p][q] <= 0) continue;
      ScopedSpan span("replay.price_query");
      // The shared cache's step keys must name one schema: trajectory and
      // operators applied so far.
      const size_t step = (planner == Planner::kLaa ? 0 : 1000) + applied_count;
      PSE_ASSIGN_OR_RETURN(double c, PriceQuery(db, step, t.current, w.queries[q], S.object,
                                                stats[0], rewrite_cache, read_ms));
      t.phase_cost += c * w.freqs[p][q];
      ++t.queries_run;
    }
  }
  // Forced completion: the rollout ends on the object schema.
  for (int op : *topo) {
    if (!applied[static_cast<size_t>(op)]) PSE_RETURN_NOT_OK(apply(op));
  }
  t.batches = batches;
  t.page_reads = db->disk()->stats().page_reads.load();
  t.page_writes = db->disk()->stats().page_writes.load();

  if (config.check) {
    bool once = std::all_of(times_applied.begin(), times_applied.end(),
                            [](int n) { return n == 1; });
    checker->Expect(once, std::string(tag) + " trajectory did not apply every operator once");
    checker->Expect(t.current.EquivalentTo(S.object),
                    std::string(tag) + " trajectory did not end on the object schema");
    Database fresh(4096);
    checker->ExpectOk(data.Materialize(&fresh, t.current),
                      std::string(tag) + ": materialize the final schema");
    for (const pse::PhysicalTable& table : t.current.tables()) {
      Result<std::vector<Row>> got = SortedTableRows(db, table.name);
      Result<std::vector<Row>> want = SortedTableRows(&fresh, table.name);
      checker->Expect(got.ok() && want.ok() && SameRows(*got, *want),
                      std::string(tag) + " final table " + table.name +
                          " differs from a fresh materialization");
    }
  }
  return t;
}

}  // namespace

Status TimePlanners(const Tpcw& w, const LogicalDatabase& data, int passes,
                    PlannerTiming* timing) {
  const pse::TpcwSchema& S = *w.schema;
  PSE_ASSIGN_OR_RETURN(OperatorSet opset, pse::ComputeOperatorSet(S.source, S.object));
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
  std::vector<pse::LogicalStats> stats = {data.ComputeStats()};
  const bool first = timing->laa_s.empty();
  for (int pass = 0; pass < passes; ++pass) {
    for (Planner planner : {Planner::kLaa, Planner::kGaa}) {
      // A fresh cost cache per pass, as in a replay; choices are applied to
      // the schema only.
      pse::QueryCostCache cost_cache;
      pse::AnalysisOptions analysis;
      analysis.cost_cache = &cost_cache;
      pse::GaaOptions gaa = ReplayGaaOptions(&cost_cache);
      PhysicalSchema current = S.source;
      MigrationContext ctx;
      ctx.object = &S.object;
      ctx.opset = &opset;
      ctx.phase_freqs = &w.freqs;
      ctx.phase_stats = &stats;
      ctx.queries = &w.queries;
      ctx.applied.assign(opset.size(), false);
      double seconds = 0;
      for (size_t p = 0; p < w.freqs.size(); ++p) {
        ctx.current = &current;
        std::vector<int> chosen;
        Clock::time_point t0 = Clock::now();
        if (planner == Planner::kLaa) {
          ScopedSpan span("core.migration_planner.laa");
          PSE_ASSIGN_OR_RETURN(pse::LaaResult laa,
                               pse::SelectOpsLaa(ctx, p, p == 0 ? 0 : p - 1, 22, analysis));
          chosen = laa.ops_to_apply;
          if (first && pass == 0) timing->laa_schemas += laa.schemas_evaluated;
        } else {
          ScopedSpan span("ga.plan");
          PSE_ASSIGN_OR_RETURN(pse::GaaResult plan, pse::PlanGaa(ctx, p, gaa));
          for (int op : topo) {
            std::vector<int> now = plan.ApplyNow();
            if (std::find(now.begin(), now.end(), op) != now.end()) chosen.push_back(op);
          }
          if (first && pass == 0) timing->gaa_evaluations += plan.evaluations;
        }
        seconds += std::chrono::duration<double>(Clock::now() - t0).count();
        for (int op : chosen) {
          PSE_RETURN_NOT_OK(pse::ApplyOperator(opset.ops[static_cast<size_t>(op)], &current));
          ctx.applied[static_cast<size_t>(op)] = true;
        }
      }
      (planner == Planner::kLaa ? timing->laa_s : timing->gaa_s).push_back(seconds);
      if (first && pass == 0) {
        const pse::CostCacheStats c = cost_cache.Snapshot();
        timing->cost_cache.hits += c.hits;
        timing->cost_cache.misses += c.misses;
      }
    }
  }
  return Status::OK();
}

Result<ReplayOutcome> RunReplay(const Tpcw& w, const LogicalDatabase& data,
                                const ReplayConfig& config, MigrationProbe* probe,
                                pse::SharedPlanCache* rewrite_cache, Checker* checker) {
  const pse::TpcwSchema& S = *w.schema;
  PSE_ASSIGN_OR_RETURN(OperatorSet opset, pse::ComputeOperatorSet(S.source, S.object));
  std::vector<pse::LogicalStats> stats = {data.ComputeStats()};

  std::vector<std::vector<Row>> oracle;
  if (config.check) {
    Database object_db(4096);
    {
      ScopedSpan span("core.logical_database.materialize");
      PSE_RETURN_NOT_OK(data.Materialize(&object_db, S.object));
    }
    PSE_RETURN_NOT_OK(object_db.AnalyzeAll());
    for (const WorkloadQuery& wq : w.queries) {
      PSE_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           SortedQueryRows(&object_db, wq.query, S.object));
      oracle.push_back(std::move(rows));
    }
  }

  pse::QueryCostCache cost_cache;
  ReplayOutcome out;
  PSE_ASSIGN_OR_RETURN(Trajectory laa,
                       RunTrajectory(Planner::kLaa, w, data, opset, stats, &cost_cache, config,
                                     config.check ? &oracle : nullptr, probe, rewrite_cache,
                                     &out.read_ms, checker));
  PSE_ASSIGN_OR_RETURN(Trajectory gaa,
                       RunTrajectory(Planner::kGaa, w, data, opset, stats, &cost_cache, config,
                                     config.check ? &oracle : nullptr, probe, rewrite_cache,
                                     &out.read_ms, checker));
  out.phase_cost_laa = laa.phase_cost;
  out.phase_cost_gaa = gaa.phase_cost;
  out.migration_pages = laa.migration_pages;
  for (const pse::PhysicalTable& table : laa.current.tables()) {
    PSE_ASSIGN_OR_RETURN(pse::TableInfo * info, laa.shard->db()->GetTable(table.name));
    out.db_pages += info->heap->NumPages();
  }
  out.apply_s = laa.apply_s;
  out.page_reads = laa.page_reads;
  out.page_writes = laa.page_writes;
  out.batches = laa.batches;
  out.queries_run = laa.queries_run + gaa.queries_run;
  return out;
}

}  // namespace perfbench
