// The paper's complexity argument made observable: LAA's exhaustive search
// estimates O(2^m) candidate schemas per migration point, while GAA's
// population x generations budget is flat — and the operator-interaction
// analysis (src/analysis/interaction.h) collapses the exhaustive sweep to a
// sum of per-cluster enumerations while staying exact.
//
// Two synthetic families are swept:
//   independent  m entities, one 2-attr split each — m singleton clusters,
//                so pruning turns 2^m into m*2 + 1.
//   clustered    4 entities x 5 attrs, object = single-attr fragments — 4
//                interference clusters of 4 dependency-free splits each
//                (m = 16), the acceptance shape for pruned LAA.
//
// For each point the bench runs pruned LAA, brute-force LAA (where feasible),
// and GAA, checks the pruned and brute costs agree, and prints a table.
// --json=PATH additionally emits machine-readable rows (BENCH_laa_scaling.json
// via scripts/bench.sh).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/serving.h"
#include "core/simulation.h"
#include "engine/cost_cache.h"

namespace pse {
namespace {

/// Synthetic universe builder output.
struct Synthetic {
  std::unique_ptr<LogicalSchema> logical;
  PhysicalSchema source, object;
  LogicalStats stats;
  std::vector<WorkloadQuery> queries;
  std::unique_ptr<LogicalDatabase> data;  ///< filled by FillData for online runs
};

void FillStats(Synthetic* s) {
  s->stats.Resize(*s->logical);
  for (size_t e = 0; e < s->logical->num_entities(); ++e) s->stats.entity_rows[e] = 10000;
  for (size_t a = 0; a < s->logical->num_attributes(); ++a) {
    s->stats.attrs[a].num_distinct = 10000;
    s->stats.attrs[a].min = 0;
    s->stats.attrs[a].max = 9999;
  }
}

/// `m` independent entities, each with two attributes; the object schema
/// splits every entity's table, giving exactly m independent split operators.
Synthetic MakeIndependent(size_t m) {
  Synthetic s;
  s.logical = std::make_unique<LogicalSchema>();
  s.source = PhysicalSchema(s.logical.get());
  s.object = PhysicalSchema(s.logical.get());
  for (size_t i = 0; i < m; ++i) {
    std::string n = std::to_string(i);
    EntityId e = s.logical->AddEntity("e" + n, "e" + n + "_id");
    AttrId a = *s.logical->AddAttribute(e, "e" + n + "_a", TypeId::kVarchar, 40);
    AttrId b = *s.logical->AddAttribute(e, "e" + n + "_b", TypeId::kVarchar, 40);
    (void)s.source.AddTable("t" + n, e, {a, b});
    (void)s.object.AddTable("t" + n + "_a", e, {a});
    (void)s.object.AddTable("t" + n + "_b", e, {b});
    // One old query per entity wanting both halves; one new wanting one.
    LogicalQuery old_q;
    old_q.anchor = e;
    old_q.name = "O" + n;
    old_q.select.emplace_back(Col("e" + n + "_a"), AggFunc::kNone, "a");
    old_q.select.emplace_back(Col("e" + n + "_b"), AggFunc::kNone, "b");
    s.queries.emplace_back(std::move(old_q), true);
    LogicalQuery new_q;
    new_q.anchor = e;
    new_q.name = "N" + n;
    new_q.select.emplace_back(Col("e" + n + "_a"), AggFunc::kNone, "a");
    s.queries.emplace_back(std::move(new_q), false);
  }
  FillStats(&s);
  return s;
}

/// `entities` entities with `attrs_per_entity` attributes each; the object
/// schema shatters every table into single-attribute fragments. All splits
/// of one entity share the source table, so each entity is one interference
/// cluster of attrs_per_entity - 1 dependency-free splits.
Synthetic MakeClustered(size_t entities, size_t attrs_per_entity) {
  Synthetic s;
  s.logical = std::make_unique<LogicalSchema>();
  s.source = PhysicalSchema(s.logical.get());
  s.object = PhysicalSchema(s.logical.get());
  for (size_t i = 0; i < entities; ++i) {
    std::string n = std::to_string(i);
    EntityId e = s.logical->AddEntity("c" + n, "c" + n + "_id");
    std::vector<AttrId> attrs;
    for (size_t j = 0; j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      attrs.push_back(*s.logical->AddAttribute(e, an, TypeId::kVarchar, 40));
      (void)s.object.AddTable("t" + n + "_" + std::to_string(j), e, {attrs.back()});
    }
    (void)s.source.AddTable("t" + n, e, attrs);
    // Old query reads the whole row; new query reads the first two attrs.
    LogicalQuery old_q;
    old_q.anchor = e;
    old_q.name = "O" + n;
    for (size_t j = 0; j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      old_q.select.emplace_back(Col(an), AggFunc::kNone, an);
    }
    s.queries.emplace_back(std::move(old_q), true);
    LogicalQuery new_q;
    new_q.anchor = e;
    new_q.name = "N" + n;
    for (size_t j = 0; j < 2 && j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      new_q.select.emplace_back(Col(an), AggFunc::kNone, an);
    }
    s.queries.emplace_back(std::move(new_q), false);
  }
  FillStats(&s);
  return s;
}

/// Populates `rows` entity rows per entity so the online-migration
/// simulation has real data to move (the planner sweeps above only need
/// statistics, not rows).
void FillData(Synthetic* s, size_t rows) {
  s->data = std::make_unique<LogicalDatabase>(s->logical.get());
  for (size_t e = 0; e < s->logical->num_entities(); ++e) {
    const LogicalEntity& ent = s->logical->entity(e);
    for (size_t k = 0; k < rows; ++k) {
      Row row;
      for (AttrId a : ent.attributes) {
        const LogicalAttribute& attr = s->logical->attr(a);
        row.push_back(attr.is_key ? Value::Int(static_cast<int64_t>(k))
                                  : Value::Varchar(attr.name + "-" + std::to_string(k)));
      }
      (void)s->data->AddRow(static_cast<EntityId>(e), std::move(row));
    }
  }
}

/// One (configuration, phase) measurement of the online-migration mode:
/// batched data movement with foreground probe queries interleaved between
/// batches (the paper's "both versions stay live" scenario).
struct OnlineRow {
  uint64_t batch_rows = 0;
  uint64_t io_budget = 0;
  size_t phase = 0;
  double query_cost = 0;    ///< the phase's Phase-Cost (sum C_i * F_i)
  double migration_io = 0;  ///< data-movement I/O at this migration point
  double probe_io = 0;      ///< I/O of probe queries run between batches
  uint64_t batches = 0;     ///< migration batches committed this phase
  uint64_t probes = 0;      ///< probe queries executed this phase
};

/// Runs the Pro-Schema situation online over a small independent instance
/// for each (batch size, I/O budget) configuration.
int RunOnline(std::vector<OnlineRow>* out) {
  Synthetic s = MakeIndependent(4);
  FillData(&s, 512);
  std::vector<std::vector<double>> freqs(3, std::vector<double>(s.queries.size()));
  for (size_t p = 0; p < 3; ++p) {
    for (size_t q = 0; q < s.queries.size(); ++q) {
      bool old_q = s.queries[q].is_old;
      freqs[p][q] = old_q ? 30.0 - 10.0 * static_cast<double>(p)
                          : 10.0 + 10.0 * static_cast<double>(p);
    }
  }
  struct Cfg {
    uint64_t batch_rows, io_budget;
  };
  for (Cfg cfg : {Cfg{64, 0}, Cfg{256, 0}, Cfg{64, 64}}) {
    SimulationConfig config;
    config.buffer_pool_pages = 256;
    config.online_migration = true;
    config.migration_batch_rows = cfg.batch_rows;
    config.migration_io_budget = cfg.io_budget;
    MigrationSimulation sim(&s.source, &s.object, &s.queries, freqs, s.data.get(), config);
    auto pro = sim.Run(Situation::kProSchema);
    if (!pro.ok()) {
      std::fprintf(stderr, "online Pro: %s\n", pro.status().ToString().c_str());
      return 1;
    }
    for (size_t p = 0; p < pro->phases.size(); ++p) {
      const PhaseReport& ph = pro->phases[p];
      OnlineRow row;
      row.batch_rows = cfg.batch_rows;
      row.io_budget = cfg.io_budget;
      row.phase = p;
      row.query_cost = ph.query_cost;
      row.migration_io = ph.migration_io;
      row.probe_io = ph.online_probe_io;
      row.batches = ph.online_batches;
      row.probes = ph.online_probes;
      out->push_back(row);
    }
  }
  return 0;
}

/// One (session count, phase) measurement of concurrent mixed-version
/// serving: foreground SQL sessions execute the phase's query mix against
/// live snapshots while the migration executor moves data in batches.
struct ServeRow {
  size_t sessions = 0;
  size_t phase = 0;
  uint64_t queries = 0;      ///< foreground queries answered this phase
  uint64_t unservable = 0;   ///< BindError on the intermediate (counted, not failed)
  uint64_t batches = 0;      ///< migration batches committed this phase
  double wall_ms = 0;        ///< serve-window wall clock
  double throughput_qps = 0; ///< answered queries / wall seconds
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;  ///< per-query latency quantiles
};

/// Runs the Pro-Schema situation with live concurrent sessions for each
/// session count; every phase migrates under a real mixed-version read
/// load.
int RunServe(std::vector<ServeRow>* out) {
  for (size_t sessions : {4u, 8u}) {
    Synthetic s = MakeIndependent(4);
    FillData(&s, 512);
    std::vector<std::vector<double>> freqs(3, std::vector<double>(s.queries.size()));
    for (size_t p = 0; p < 3; ++p) {
      for (size_t q = 0; q < s.queries.size(); ++q) {
        bool old_q = s.queries[q].is_old;
        freqs[p][q] = old_q ? 30.0 - 10.0 * static_cast<double>(p)
                            : 10.0 + 10.0 * static_cast<double>(p);
      }
    }
    SimulationConfig config;
    config.buffer_pool_pages = 256;
    config.migration_batch_rows = 64;
    config.serve_sessions = sessions;
    config.serve_min_queries = 8;
    MigrationSimulation sim(&s.source, &s.object, &s.queries, freqs, s.data.get(), config);
    auto pro = sim.Run(Situation::kProSchema);
    if (!pro.ok()) {
      std::fprintf(stderr, "serve Pro: %s\n", pro.status().ToString().c_str());
      return 1;
    }
    for (size_t p = 0; p < pro->phases.size(); ++p) {
      const PhaseReport& ph = pro->phases[p];
      ServeRow row;
      row.sessions = sessions;
      row.phase = p;
      row.queries = ph.serve_queries;
      row.unservable = ph.serve_unservable;
      row.batches = ph.online_batches;
      row.wall_ms = ph.serve_wall_ms;
      row.throughput_qps = ph.serve_throughput_qps;
      row.p50_ms = ph.serve_p50_ms;
      row.p95_ms = ph.serve_p95_ms;
      row.p99_ms = ph.serve_p99_ms;
      out->push_back(row);
    }
  }
  return 0;
}

/// One session-count measurement of mixed read/write serving:
/// lanes issue the query mix plus random DML from both version eras through
/// the DmlRouter while the executor migrates (writes landing on a live copy
/// frontier dual-apply into the in-flight targets).
struct MixedRwRow {
  size_t sessions = 0;
  double write_fraction = 0;
  uint64_t queries = 0;            ///< foreground reads answered
  uint64_t writes = 0;             ///< foreground statements applied
  uint64_t unservable = 0;         ///< reads+writes skipped on the intermediate
  uint64_t unservable_writes = 0;  ///< the write share of `unservable`
  uint64_t errors = 0;             ///< non-bind failures (must stay 0)
  uint64_t fragment_writes = 0;    ///< physical row writes the fan-out did
  uint64_t dual_applied = 0;       ///< statements also applied to live targets
  double wall_ms = 0;
  double throughput_qps = 0;  ///< (queries + writes) / wall seconds
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

/// Runs the full migration under a mixed read/write foreground load for each
/// session count, routing every write through RewriteDml.
int RunMixedRw(std::vector<MixedRwRow>* out) {
  for (size_t sessions : {4u, 8u}) {
    Synthetic s = MakeIndependent(4);
    FillData(&s, 512);
    Database db(2048);
    if (!s.data->Materialize(&db, s.source).ok() || !db.AnalyzeAll().ok()) {
      std::fprintf(stderr, "mixed-rw: materialize failed\n");
      return 1;
    }
    PhysicalSchema current = s.source;
    ServingSchema serving(current);
    DmlRouter router(&db);

    MigrationExecutor exec(&db, s.data.get());
    MigrationOptions mopts;
    mopts.batch_rows = 64;
    mopts.dml_router = &router;
    mopts.on_publish = [&](const PhysicalSchema& sch) { serving.Publish(sch); };
    exec.set_options(std::move(mopts));

    auto opset = ComputeOperatorSet(s.source, s.object);
    if (!opset.ok()) {
      std::fprintf(stderr, "mixed-rw opset: %s\n", opset.status().ToString().c_str());
      return 1;
    }
    auto topo = opset->TopologicalOrder();
    if (!topo.ok()) {
      std::fprintf(stderr, "mixed-rw topo: %s\n", topo.status().ToString().c_str());
      return 1;
    }

    std::vector<VersionTable> tables = VersionTablesOf(s.source);
    {
      std::vector<VersionTable> object_tables = VersionTablesOf(s.object);
      tables.insert(tables.end(), object_tables.begin(), object_tables.end());
    }
    const LogicalSchema* lg = s.logical.get();
    ServeOptions serve;
    serve.sessions = sessions;
    serve.min_queries_per_lane = 32;
    serve.router = &router;
    serve.write_fraction = 0.3;
    serve.make_write = [&tables, lg](uint64_t i, std::mt19937_64& rng) {
      LogicalDml dml;
      dml.table = tables[rng() % tables.size()];
      uint64_t roll = rng() % 10;
      dml.kind = roll < 5 ? DmlKind::kInsert : roll < 8 ? DmlKind::kUpdate : DmlKind::kDelete;
      // Early statements hit seeded rows (both sides of a copy frontier);
      // later ones append fresh keys.
      dml.key = static_cast<int64_t>(i < 16 ? rng() % 512 : 10000 + rng() % 4096);
      if (dml.kind != DmlKind::kDelete) {
        for (AttrId a : dml.table.attrs) {
          if (rng() % 2 != 0) continue;
          dml.set_attrs.push_back(a);
          dml.set_values.push_back(
              Value::Varchar(lg->attr(a).name + "-w" + std::to_string(rng() % 1000)));
        }
      }
      return dml;
    };

    std::vector<double> freqs(s.queries.size(), 10.0);
    auto metrics = ServeDuringMigration(
        &db, &serving, s.queries, freqs, serve, [&]() -> Status {
          for (int op : *topo) {
            auto io = exec.Apply(opset->ops[static_cast<size_t>(op)], &current);
            if (!io.ok()) return io.status();
          }
          return Status::OK();
        });
    if (!metrics.ok()) {
      std::fprintf(stderr, "mixed-rw serve: %s\n", metrics.status().ToString().c_str());
      return 1;
    }
    MixedRwRow row;
    row.sessions = sessions;
    row.write_fraction = serve.write_fraction;
    row.queries = metrics->queries;
    row.writes = metrics->writes;
    row.unservable = metrics->unservable;
    row.unservable_writes = metrics->unservable_writes;
    row.errors = metrics->errors;
    row.fragment_writes = router.stats().fragment_writes;
    row.dual_applied = router.stats().dual_applied;
    row.wall_ms = metrics->wall_ms;
    row.throughput_qps = metrics->throughput_qps;
    row.p50_ms = metrics->p50_ms;
    row.p95_ms = metrics->p95_ms;
    row.p99_ms = metrics->p99_ms;
    out->push_back(row);
  }
  return 0;
}

struct BenchRow {
  std::string family;
  size_t m = 0;
  size_t clusters = 0;
  size_t pruned_evals = 0;
  double pruned_ms = 0;
  double brute_closed = 0;  ///< closed subsets brute force would cost
  long long exhaustive_evals = -1;
  double exhaustive_ms = -1;
  bool exhaustive_run = false;
  bool cost_equal = true;
  size_t gaa_evals = 0;
  double gaa_ms = 0;
  /// Cached + pooled repeat of the row's most expensive serial sweep (the
  /// brute sweep when it ran, else the pruned one).
  double cached_ms = 0;
  double cache_hit_pct = 0;
  size_t threads = 1;
};

/// Runs pruned LAA, optionally brute-force LAA, and GAA on one instance.
int RunPoint(const std::string& family, Synthetic* s, bool run_exhaustive, BenchRow* row) {
  auto opset = ComputeOperatorSet(s->source, s->object);
  if (!opset.ok()) {
    std::fprintf(stderr, "opset: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<double>> freqs(3, std::vector<double>(s->queries.size()));
  for (size_t p = 0; p < 3; ++p) {
    for (size_t q = 0; q < s->queries.size(); ++q) {
      bool old_q = s->queries[q].is_old;
      freqs[p][q] = old_q ? 30.0 - 10.0 * static_cast<double>(p)
                          : 10.0 + 10.0 * static_cast<double>(p);
    }
  }
  std::vector<LogicalStats> stats{s->stats};
  MigrationContext ctx;
  ctx.current = &s->source;
  ctx.object = &s->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &stats;
  ctx.queries = &s->queries;

  row->family = family;
  row->m = opset->size();

  Stopwatch pruned_timer;
  auto pruned = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20);
  row->pruned_ms = pruned_timer.ElapsedSeconds() * 1000.0;
  if (!pruned.ok()) {
    std::fprintf(stderr, "pruned LAA: %s\n", pruned.status().ToString().c_str());
    return 1;
  }
  row->pruned_evals = pruned->schemas_evaluated;
  row->clusters = pruned->clusters.size();
  row->brute_closed = pruned->schemas_exhaustive;

  double serial_best = pruned->best_cost;
  if (run_exhaustive) {
    AnalysisOptions brute_options;
    brute_options.prune_laa = false;
    Stopwatch brute_timer;
    auto brute = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20, brute_options);
    row->exhaustive_ms = brute_timer.ElapsedSeconds() * 1000.0;
    if (!brute.ok()) {
      std::fprintf(stderr, "brute LAA: %s\n", brute.status().ToString().c_str());
      return 1;
    }
    row->exhaustive_run = true;
    row->exhaustive_evals = static_cast<long long>(brute->schemas_evaluated);
    double tol = 1e-6 * std::max(1.0, std::fabs(brute->best_cost));
    row->cost_equal = std::fabs(pruned->best_cost - brute->best_cost) <= tol;
    serial_best = brute->best_cost;
  }

  // Cached + pooled repeat of the row's most expensive serial sweep: same
  // enumeration, with candidate costing fanned across a thread pool and
  // memoized by layout fingerprint. The chosen plan's cost must be
  // bit-identical to the serial run (deterministic reduction, exact cache).
  {
    QueryCostCache cache;
    ThreadPool pool;
    AnalysisOptions cached_options;
    cached_options.prune_laa = !run_exhaustive;
    cached_options.cost_cache = &cache;
    cached_options.pool = &pool;
    auto cached = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20, cached_options);
    if (!cached.ok()) {
      std::fprintf(stderr, "cached LAA: %s\n", cached.status().ToString().c_str());
      return 1;
    }
    row->cached_ms = cached->wall_ms;
    row->cache_hit_pct = cached->cache_stats.hit_pct();
    row->threads = cached->threads;
    double tol = 1e-6 * std::max(1.0, std::fabs(serial_best));
    row->cost_equal = row->cost_equal && std::fabs(cached->best_cost - serial_best) <= tol;
  }

  GaaOptions options;
  options.ga.population_size = 32;
  options.ga.generations = 40;
  options.ga.stall_generations = 12;
  Stopwatch gaa_timer;
  auto gaa = PlanGaa(ctx, 0, options);
  row->gaa_ms = gaa_timer.ElapsedSeconds() * 1000.0;
  row->gaa_evals = gaa.ok() ? gaa->evaluations : 0;
  return 0;
}

void PrintRow(const BenchRow& r) {
  std::printf("%-12s %-4zu %8zu %13zu %16.0f", r.family.c_str(), r.m, r.clusters,
              r.pruned_evals, r.brute_closed);
  if (r.exhaustive_run) {
    std::printf(" %13lld %8s", r.exhaustive_evals, r.cost_equal ? "yes" : "NO");
  } else {
    std::printf(" %13s %8s", "-", r.cost_equal ? "yes" : "NO");
  }
  std::printf(" %10.1f %10.1f %10.1f %6.1f%% %4zu %12zu %10.1f\n", r.pruned_ms,
              r.exhaustive_run ? r.exhaustive_ms : 0.0, r.cached_ms, r.cache_hit_pct, r.threads,
              r.gaa_evals, r.gaa_ms);
}

void PrintOnline(const std::vector<OnlineRow>& rows) {
  std::printf(
      "\n=== online migration (Pro-Schema, m=4 independent, 512 rows/entity) ===\n"
      "%-10s %-9s %-5s %12s %12s %10s %8s %7s\n",
      "batch-rows", "io-budget", "phase", "query-cost", "migration-io", "probe-io", "batches",
      "probes");
  for (const OnlineRow& r : rows) {
    std::printf("%-10llu %-9llu %-5zu %12.1f %12.1f %10.1f %8llu %7llu\n",
                static_cast<unsigned long long>(r.batch_rows),
                static_cast<unsigned long long>(r.io_budget), r.phase, r.query_cost,
                r.migration_io, r.probe_io, static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.probes));
  }
}

void PrintServe(const std::vector<ServeRow>& rows) {
  std::printf(
      "\n=== concurrent serving (Pro-Schema, m=4 independent, 512 rows/entity) ===\n"
      "%-8s %-5s %8s %10s %8s %9s %10s %8s %8s %8s\n",
      "sessions", "phase", "queries", "unservable", "batches", "wall-ms", "thr-qps",
      "p50-ms", "p95-ms", "p99-ms");
  for (const ServeRow& r : rows) {
    std::printf("%-8zu %-5zu %8llu %10llu %8llu %9.1f %10.1f %8.2f %8.2f %8.2f\n",
                r.sessions, r.phase,
                static_cast<unsigned long long>(r.queries),
                static_cast<unsigned long long>(r.unservable),
                static_cast<unsigned long long>(r.batches), r.wall_ms, r.throughput_qps,
                r.p50_ms, r.p95_ms, r.p99_ms);
  }
}

void PrintMixedRw(const std::vector<MixedRwRow>& rows) {
  std::printf(
      "\n=== mixed read/write serving (Pro-Schema, m=4 independent, 512 rows/entity) ===\n"
      "%-8s %-6s %8s %7s %10s %8s %7s %9s %10s %8s %8s %8s\n",
      "sessions", "w-frac", "queries", "writes", "unservable", "unsrv-w", "errors",
      "wall-ms", "thr-qps", "p50-ms", "p95-ms", "p99-ms");
  for (const MixedRwRow& r : rows) {
    std::printf("%-8zu %-6.2f %8llu %7llu %10llu %8llu %7llu %9.1f %10.1f %8.2f %8.2f "
                "%8.2f\n",
                r.sessions, r.write_fraction,
                static_cast<unsigned long long>(r.queries),
                static_cast<unsigned long long>(r.writes),
                static_cast<unsigned long long>(r.unservable),
                static_cast<unsigned long long>(r.unservable_writes),
                static_cast<unsigned long long>(r.errors), r.wall_ms, r.throughput_qps, r.p50_ms,
                r.p95_ms, r.p99_ms);
  }
}

void WriteJson(const std::string& path, const std::vector<BenchRow>& rows,
               const std::vector<OnlineRow>& online, const std::vector<ServeRow>& serve,
               const std::vector<MixedRwRow>& mixed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"laa_scaling\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    // Rows whose brute sweep was skipped carry JSON null — not a numeric
    // sentinel that downstream tooling could mistake for a measurement.
    std::string brute_evals = "null", brute_ms = "null";
    if (r.exhaustive_run) {
      brute_evals = std::to_string(r.exhaustive_evals);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", r.exhaustive_ms);
      brute_ms = buf;
    }
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"m\": %zu, \"clusters\": %zu, "
                 "\"schemas_evaluated_pruned\": %zu, \"schemas_exhaustive\": %.0f, "
                 "\"pruned_pct_of_exhaustive\": %.4f, "
                 "\"schemas_evaluated_brute_run\": %s, \"cost_equal_to_brute\": %s, "
                 "\"pruned_ms\": %.2f, \"exhaustive_ms\": %s, "
                 "\"cached_ms\": %.2f, \"cache_hit_pct\": %.1f, \"threads\": %zu, "
                 "\"gaa_evaluations\": %zu, \"gaa_ms\": %.2f}%s\n",
                 r.family.c_str(), r.m, r.clusters, r.pruned_evals, r.brute_closed,
                 r.brute_closed > 0
                     ? 100.0 * static_cast<double>(r.pruned_evals) / r.brute_closed
                     : 0.0,
                 brute_evals.c_str(),
                 r.exhaustive_run ? (r.cost_equal ? "true" : "false") : "null",
                 r.pruned_ms, brute_ms.c_str(), r.cached_ms, r.cache_hit_pct, r.threads,
                 r.gaa_evals, r.gaa_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"online_migration\": [\n");
  for (size_t i = 0; i < online.size(); ++i) {
    const OnlineRow& r = online[i];
    std::fprintf(f,
                 "    {\"batch_rows\": %llu, \"io_budget\": %llu, \"phase\": %zu, "
                 "\"query_cost\": %.2f, \"migration_io\": %.2f, \"probe_io\": %.2f, "
                 "\"batches\": %llu, \"probes\": %llu}%s\n",
                 static_cast<unsigned long long>(r.batch_rows),
                 static_cast<unsigned long long>(r.io_budget), r.phase, r.query_cost,
                 r.migration_io, r.probe_io, static_cast<unsigned long long>(r.batches),
                 static_cast<unsigned long long>(r.probes), i + 1 < online.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"concurrent_serving\": [\n");
  for (size_t i = 0; i < serve.size(); ++i) {
    const ServeRow& r = serve[i];
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"phase\": %zu, \"queries\": %llu, "
                 "\"unservable\": %llu, \"batches\": %llu, \"wall_ms\": %.2f, "
                 "\"throughput_qps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
                 "\"p99_ms\": %.3f}%s\n",
                 r.sessions, r.phase, static_cast<unsigned long long>(r.queries),
                 static_cast<unsigned long long>(r.unservable),
                 static_cast<unsigned long long>(r.batches), r.wall_ms, r.throughput_qps,
                 r.p50_ms, r.p95_ms, r.p99_ms, i + 1 < serve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mixed_rw_serving\": [\n");
  for (size_t i = 0; i < mixed.size(); ++i) {
    const MixedRwRow& r = mixed[i];
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"write_fraction\": %.2f, \"queries\": %llu, "
                 "\"writes\": %llu, \"unservable\": %llu, \"unservable_writes\": %llu, "
                 "\"errors\": %llu, \"fragment_writes\": %llu, \"dual_applied\": %llu, "
                 "\"wall_ms\": %.2f, \"throughput_qps\": %.2f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.sessions, r.write_fraction, static_cast<unsigned long long>(r.queries),
                 static_cast<unsigned long long>(r.writes),
                 static_cast<unsigned long long>(r.unservable),
                 static_cast<unsigned long long>(r.unservable_writes),
                 static_cast<unsigned long long>(r.errors),
                 static_cast<unsigned long long>(r.fragment_writes),
                 static_cast<unsigned long long>(r.dual_applied), r.wall_ms, r.throughput_qps,
                 r.p50_ms, r.p95_ms, r.p99_ms, i + 1 < mixed.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace pse

int main(int argc, char** argv) {
  using namespace pse;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  std::printf("=== LAA pruned (interaction clusters) vs brute force vs cached vs GAA ===\n");
  std::printf("%-12s %-4s %8s %13s %16s %13s %8s %10s %10s %10s %7s %4s %12s %10s\n", "family",
              "m", "clusters", "pruned-evals", "brute-closed", "brute-evals", "equal",
              "pruned-ms", "brute-ms", "cached-ms", "hit", "thr", "GAA-evals", "GAA-ms");
  std::vector<BenchRow> rows;
  int rc = 0;
  for (size_t m : {4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
    Synthetic s = MakeIndependent(m);
    BenchRow row;
    // Brute force doubles per operator; cap the comparison runs at m = 12.
    rc |= RunPoint("independent", &s, /*run_exhaustive=*/m <= 12, &row);
    PrintRow(row);
    rows.push_back(std::move(row));
  }
  {
    // The acceptance shape: m = 16 in 4 interference clusters.
    Synthetic s = MakeClustered(/*entities=*/4, /*attrs_per_entity=*/5);
    BenchRow row;
    rc |= RunPoint("clustered", &s, /*run_exhaustive=*/true, &row);
    PrintRow(row);
    rows.push_back(std::move(row));
  }
  std::printf(
      "\nBrute-force LAA doubles per operator (the paper's 2^m); cluster-wise LAA pays the\n"
      "sum of the clusters instead of their product, at identical chosen-plan cost; the\n"
      "cached column repeats the row's most expensive sweep with layout-fingerprint\n"
      "memoization + a thread pool, again at identical cost; GAA stays within its GA\n"
      "budget.\n");
  std::vector<OnlineRow> online;
  rc |= RunOnline(&online);
  PrintOnline(online);
  std::printf(
      "\nOnline mode moves data in journaled batches and runs one foreground probe query\n"
      "between batches; probe I/O is the price live traffic pays during movement and is\n"
      "excluded from migration-io. Smaller batches (or an I/O budget) trade total batches\n"
      "for shorter foreground stalls.\n");
  std::vector<ServeRow> serve;
  rc |= RunServe(&serve);
  PrintServe(serve);
  std::printf(
      "\nConcurrent serving runs real SQL sessions against live schema snapshots while\n"
      "the executor migrates; unservable counts new-version queries that bind only after\n"
      "their attributes materialize. Latency quantiles are per answered query.\n");
  std::vector<MixedRwRow> mixed;
  rc |= RunMixedRw(&mixed);
  PrintMixedRw(mixed);
  std::printf(
      "\nMixed read/write serving adds writer traffic to the same window: each lane's\n"
      "iterations issue random DML from both version eras through the write rewriter\n"
      "(RewriteDml), dual-applying onto live copy frontiers. An unservable write window\n"
      "counts under unservable (unsrv-w), never errors.\n");
  if (!json_path.empty()) WriteJson(json_path, rows, online, serve, mixed);
  return rc;
}
