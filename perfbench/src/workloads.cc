// The two workloads.
//
// The sandbox's CPU speed drifts by tens of percent over seconds, so no
// time metric rests on one stretch of a run:
//
//   * tpcw-phase-cost times deterministic work only — replay rounds, priced
//     queries, a fixed list of writes, planner passes — spread over the
//     run, on one thread;
//   * fleet-tiny-rollout runs its open-loop foreground through each
//     rollout window at a load a drift cannot push into queueing, and each
//     rollout takes a minority of its window: a latency median comes from
//     steady serving, a p99 from the rollout. Every time metric is a
//     median over the run's cycles, so one disturbed cycle does not move it.
//
// Thread budget (4 = nproc on the reference machine):
//   tpcw-phase-cost      main only
//   fleet-tiny-rollout   one migration lane + one foreground worker
#include <array>
#include <cstdio>
#include <functional>
#include <shared_mutex>
#include <thread>

#include "analysis/writability.h"
#include "bench.h"
#include "fleet/scheduler.h"
#include "tests/common/test_db_builder.h"

namespace perfbench {

namespace {

using pse::Result;

// ---- tpcw-phase-cost: the paper's Fig 8(a) instance (100MB at 1:20,
// 5 irregular migration points, a 1024-frame pool smaller than the data).
const pse::TpcwScale kPhaseCostScale{"100MB(1:20)", 3000, 6000};
constexpr size_t kPhaseCostPool = 1024;
constexpr int kPhaseCostSetups = 3;
constexpr int kPhaseCostRounds = 6;
/// Writes per round on the served database, spread over the round's slot.
constexpr size_t kPhaseCostWritesPerRound = 600;
/// Write latency quantiles are taken per group of rounds (1200 writes, so
/// a p99 has twelve beyond it) and the median over groups reported.
constexpr size_t kPhaseCostWriteGroups = 3;
/// Updates only: an INSERT there costs about 35 ms (its keyed lookups scan
/// the 9000-row order_payment), which would dominate the run.
constexpr std::array<double, 3> kPhaseCostWriteKinds = {0, 1, 0};

// ---- fleet-tiny-rollout: many in-memory tenants that fit their pools.
const pse::TpcwScale kTinyScale{"tiny-tenant", 40, 40};
constexpr size_t kTinyTenants = 1000;
constexpr size_t kTinyInstances = 16;
constexpr size_t kTinyPool = 64;
constexpr uint64_t kTinyBatchRows = 16;
constexpr uint64_t kTinyIoTokens = 2;
/// One lane: a second one keeps another core busy, and with two the
/// rollout time spread about twice as much over five seeds (0.17-0.19
/// against 0.10).
constexpr size_t kTinyLanes = 1;
/// Offered statements per second, all from one foreground worker; with the
/// default write share each cycle of a 30 s run gets 4200 reads and 1050
/// writes, so each cycle's p99 has ten or more samples beyond it.
constexpr double kTinyRate = 700;
/// A cycle's statements come in whole rounds of this many plus one
/// lost-order probe, each round's probe on its own checked tenant.
constexpr size_t kTinyRoundStatements = 250;
/// Rollout cycles per run; each sets up the fleet and rolls it out in a
/// window of (seconds / kTinyCycles) while the foreground runs.
constexpr int kTinyCycles = 4;
constexpr int kPlannerPassesPerCycle = 8;

/// The TPC-W data is the same in every run (data set v of the fleet uses
/// kDataSeed + v): each query and each copy does the same work in every
/// run, and --seed varies the statement schedule (order, tenants, keys,
/// values). Page counts then repeat exactly across seeds.
constexpr uint64_t kDataSeed = 42;
/// Planner passes are spaced this far apart on tpcw-phase-cost.
constexpr double kPlannerEvery_s = 1.0;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// p99 of a sample. It has ten samples beyond it only from 1000 samples
/// on; a smaller sample is reported with a warning on stderr (an empty one,
/// where the layer does not run, as 0).
double TailP99(const std::vector<double>& v, const char* what) {
  if (!v.empty() && v.size() < 1000) {
    std::fprintf(stderr, "warning: %s has %zu samples, too few for a p99\n", what, v.size());
  }
  return Quantile(v, 0.99);
}

Result<pse::FleetSchedule> PlanSchedule(const Tpcw& w, const LogicalDatabase& data,
                                        pse::SharedPlanCache* cache) {
  pse::LogicalStats stats = data.ComputeStats();
  pse::FleetScheduleInputs inputs;
  inputs.queries = &w.queries;
  inputs.phase_freqs = &w.freqs;
  inputs.stats = &stats;
  ScopedSpan span("fleet.schedule.plan");
  return pse::PlanFleetSchedule(w.schema->source, w.schema->object, inputs, cache->cost_cache());
}

std::unique_ptr<LogicalDatabase> Generate(const Tpcw& w, const pse::TpcwScale& scale,
                                          uint64_t seed) {
  ScopedSpan span("tpcw.datagen");
  return pse::GenerateTpcwData(*w.schema, scale, seed);
}

/// Cumulative counters of tenant databases and routers; Add with sign -1
/// before a window and +1 after it leaves the window's share.
struct StorageCounters {
  uint64_t page_reads = 0, page_writes = 0;
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0;
  uint64_t statements = 0, fragment_writes = 0, dual_applied = 0;

  void Add(Database* db, const pse::DmlRouter* router, int sign = 1) {
    // Unsigned wrap-around makes the signed sum exact.
    auto add = [sign](uint64_t* to, uint64_t v) { *to += sign > 0 ? v : 0 - v; };
    add(&page_reads, db->disk()->stats().page_reads.load());
    add(&page_writes, db->disk()->stats().page_writes.load());
    add(&pool_hits, db->pool()->stats().hits.load());
    add(&pool_misses, db->pool()->stats().misses.load());
    add(&evictions, db->pool()->stats().evictions.load());
    add(&statements, router->stats().statements);
    add(&fragment_writes, router->stats().fragment_writes);
    add(&dual_applied, router->stats().dual_applied);
  }
};

/// What a run accumulates over its cycles.
struct Accumulated {
  std::vector<double> setup_s, rollout_s;
  PlannerTiming planners;
  /// Foreground samples, one entry per cycle (tpcw-phase-cost: one per
  /// group of rounds, the reads all in the first).
  std::vector<ForegroundResult> fg;
  uint64_t attempted = 0, failed = 0;
  // Per-layer inputs beside the spans.
  StorageCounters storage;
  uint64_t batches = 0, io_pages = 0, io_peak = 0;
  pse::PlanCacheStats plan_cache;

  void AddForeground(ForegroundResult r) {
    attempted += r.attempted;
    failed += r.failed;
    fg.push_back(std::move(r));
  }
  /// The median over cycles of each cycle's median of `samples` (cycles
  /// without such samples left out).
  double P50(std::vector<double> ForegroundResult::*samples) const {
    std::vector<double> per_cycle;
    for (const ForegroundResult& r : fg) {
      if (!(r.*samples).empty()) per_cycle.push_back(Median(r.*samples));
    }
    return Median(per_cycle);
  }
  /// The median over cycles of each cycle's p99 of `samples`.
  double P99(std::vector<double> ForegroundResult::*samples, const char* what) const {
    std::vector<double> per_cycle;
    for (const ForegroundResult& r : fg) {
      if (!(r.*samples).empty()) per_cycle.push_back(TailP99(r.*samples, what));
    }
    return Median(per_cycle);
  }
  void AddPlanCache(uint64_t hits, uint64_t misses) {
    plan_cache.hits += hits;
    plan_cache.misses += misses;
  }
};

/// End-to-end metrics, the same names and meaning on every workload.
void SetEndToEnd(MetricSink* m, const Accumulated& a, const ReplayOutcome& replay) {
  m->Set("setup_s", Median(a.setup_s), "s");
  m->Set("rollout_s", Median(a.rollout_s), "s");
  m->Set("read_p50_ms", a.P50(&ForegroundResult::read_ms), "ms");
  m->Set("read_p99_ms", a.P99(&ForegroundResult::read_ms, "read latency"), "ms");
  m->Set("write_p50_ms", a.P50(&ForegroundResult::write_ms), "ms");
  m->Set("write_p99_ms", a.P99(&ForegroundResult::write_ms, "write latency"), "ms");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
  m->Set("phase_cost_pages_laa", replay.phase_cost_laa, "pages");
  m->Set("phase_cost_pages_gaa", replay.phase_cost_gaa, "pages");
  m->Set("migration_pages", static_cast<double>(replay.migration_pages), "pages");
  m->Set("db_pages", static_cast<double>(replay.db_pages), "pages");
  m->Set("plan_laa_s", Median(a.planners.laa_s), "s");
  m->Set("plan_gaa_s", Median(a.planners.gaa_s), "s");
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

/// Per-layer metrics of a traced run, from the spans and the counters.
void SetPerLayer(MetricSink* m, const Accumulated& a, int setups, MigrationProbe* probe) {
  std::vector<SpanRecord> spans = Tracer::Get().Collect();
  std::map<std::string, SpanSummary> by_name = Summarize(spans);
  auto durations = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? std::vector<double>{} : it->second.durations_ms;
  };
  auto total_ms = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_ms;
  };
  const StorageCounters& st = a.storage;

  m->Set("tpcw.datagen_s", total_ms("tpcw.datagen") / 1000.0 / setups, "s");
  m->Set("core.logical_database.materialize_s",
         Median(durations("core.logical_database.materialize")) / 1000.0, "s");
  m->Set("fleet.tenant_shard.create_s", Median(durations("fleet.tenant_shard.create")) / 1000.0,
         "s");
  m->Set("fleet.schedule.plan_ms", Median(durations("fleet.schedule.plan")), "ms");
  m->Set("core.migration_planner.laa_ms", Median(a.planners.laa_s) * 1000.0, "ms");
  m->Set("core.migration_planner.schemas_evaluated",
         static_cast<double>(a.planners.laa_schemas), "count");
  m->Set("ga.plan_ms", Median(a.planners.gaa_s) * 1000.0, "ms");
  m->Set("ga.evaluations", static_cast<double>(a.planners.gaa_evaluations), "count");
  m->Set("engine.cost_cache.hit_pct", a.planners.cost_cache.hit_pct(), "%");
  m->Set("storage.disk.page_reads", static_cast<double>(st.page_reads), "pages");
  m->Set("storage.disk.page_writes", static_cast<double>(st.page_writes), "pages");
  m->Set("core.migration_executor.op_ms.create",
         Median(durations(OpSpanName(pse::OperatorKind::kCreateTable))), "ms");
  m->Set("core.migration_executor.op_ms.split",
         Median(durations(OpSpanName(pse::OperatorKind::kSplitTable))), "ms");
  m->Set("core.migration_executor.op_ms.combine",
         Median(durations(OpSpanName(pse::OperatorKind::kCombineTable))), "ms");
  m->Set("core.migration_executor.batches", static_cast<double>(a.batches), "count");
  m->Set("core.migration_executor.io_pages", static_cast<double>(a.io_pages), "pages");
  const double op_s = (total_ms(OpSpanName(pse::OperatorKind::kCreateTable)) +
                       total_ms(OpSpanName(pse::OperatorKind::kSplitTable)) +
                       total_ms(OpSpanName(pse::OperatorKind::kCombineTable))) /
                      1000.0;
  m->Set("core.migration_executor.rows_per_s",
         op_s > 0 ? static_cast<double>(probe->rows()) / op_s : 0.0, "rows/s");
  m->Set("core.migration_executor.batch_ms_p50",
         Median(durations("core.migration_executor.batch")), "ms");
  // The operators with the most batches: their last batch against their
  // first (1.0 = a flat per-batch cost).
  std::vector<std::vector<double>> ops = probe->op_batches();
  size_t most = 0;
  for (const auto& b : ops) most = std::max(most, b.size());
  std::vector<double> ratios;
  for (const auto& b : ops) {
    if (b.size() == most && most >= 2 && b.front() > 0) ratios.push_back(b.back() / b.front());
  }
  m->Set("core.migration_executor.batch_ms_last_over_first", Median(ratios), "ratio");
  m->Set("core.migration_executor.quiesce_ms",
         Median(durations("core.migration_executor.quiesce")), "ms");
  m->Set("fleet.scheduler.op_gap_ms", Median(durations("fleet.scheduler.op_gap")), "ms");
  m->Set("fleet.scheduler.io_peak_outstanding", static_cast<double>(a.io_peak), "tokens");
  m->Set("storage.database.latch_wait_us",
         Median(durations("storage.database.latch_wait")) * 1000.0, "us");
  m->Set("fleet.plan_cache.get_us", Median(durations("fleet.plan_cache.get")) * 1000.0, "us");
  m->Set("fleet.plan_cache.hit_pct", a.plan_cache.hit_pct(), "%");
  m->Set("engine.planner.plan_us", Median(durations("engine.planner.plan")) * 1000.0, "us");
  m->Set("engine.executor.execute_ms", Median(durations("engine.executor.execute")), "ms");
  m->Set("storage.buffer_pool.hit_pct", Pct(st.pool_hits, st.pool_hits + st.pool_misses), "%");
  m->Set("storage.buffer_pool.evictions", static_cast<double>(st.evictions), "count");
  m->Set("core.rewriter_dml.execute_us",
         Median(durations("core.rewriter_dml.execute")) * 1000.0, "us");
  m->Set("core.rewriter_dml.fragment_writes_per_stmt",
         st.statements == 0 ? 0.0
                            : static_cast<double>(st.fragment_writes) /
                                  static_cast<double>(st.statements),
         "ratio");
  m->Set("core.rewriter_dml.dual_applied_pct", Pct(st.dual_applied, st.statements), "%");
  m->Set("load.late_ms_p99", a.P99(&ForegroundResult::late_ms, "generator lateness"), "ms");
  m->Set("trace.rollout_s", Median(a.rollout_s), "s");
  m->Set("trace.spans", static_cast<double>(spans.size()), "count");

  // Self time per layer: where the traced run's time went.
  std::printf("%-48s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, s] : by_name) {
    std::printf("%-48s %8zu %12.3f %12.3f\n", name.c_str(), s.durations_ms.size(), s.total_ms,
                s.self_ms);
  }
}

void Fail(RunResult* r, const std::string& what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), s.ToString().c_str());
  r->correct = false;
}

void Finish(RunResult* r, const Checker& checker, const Accumulated& a, int setups,
            const ReplayOutcome& replay, MigrationProbe* probe, bool trace) {
  r->correct = r->correct && checker.passed();
  r->attempted = a.attempted;
  r->failed = a.failed;
  if (trace) {
    SetPerLayer(&r->metrics, a, setups, probe);
  } else {
    SetEndToEnd(&r->metrics, a, replay);
  }
}


/// The rest of a round's slot, until `end`: `writes` calls of `write`
/// spaced evenly over it, and between them a planner pass once every
/// kPlannerEvery_s (at least one). Spreading the writes over the slot
/// samples the machine's speed at many moments, so a slow second does not
/// set their tail.
Status WriteAndPlanUntil(const Tpcw& w, const LogicalDatabase& data, Clock::time_point end,
                         size_t writes, const std::function<void(size_t)>& write,
                         PlannerTiming* timing) {
  const Clock::time_point begin = Clock::now();
  const auto every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kPlannerEvery_s));
  const size_t passes = std::max<size_t>(1, static_cast<size_t>((end - begin) / every));
  const auto gap = (end - begin) / static_cast<int64_t>(writes + 1);
  size_t k = 0, j = 0;
  while (k < writes || j < passes) {
    const Clock::time_point write_at = k < writes ? begin + gap * static_cast<int64_t>(k + 1)
                                                  : Clock::time_point::max();
    const Clock::time_point plan_at =
        j < passes ? begin + every * static_cast<int64_t>(j) : Clock::time_point::max();
    if (plan_at <= write_at) {
      std::this_thread::sleep_until(plan_at);
      PSE_RETURN_NOT_OK(TimePlanners(w, data, 1, timing));
      ++j;
    } else {
      std::this_thread::sleep_until(write_at);
      write(k++);
    }
  }
  return Status::OK();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

// ======================================================================
// tpcw-phase-cost
// ======================================================================

RunResult RunPhaseCost(const RunOptions& options) {
  RunResult r;
  Checker checker;
  Tpcw w = MakeTpcw();
  Accumulated acc;
  const PhysicalSchema& object = w.schema->object;

  // Setup: data generation, the served object-schema database and the
  // fleet's schedule planning.
  std::unique_ptr<LogicalDatabase> data;
  std::unique_ptr<Database> served;
  for (int i = 0; i < kPhaseCostSetups; ++i) {
    served.reset();
    Clock::time_point t0 = Clock::now();
    data = Generate(w, kPhaseCostScale, kDataSeed);
    served = std::make_unique<Database>(kPhaseCostPool);
    Status s;
    {
      ScopedSpan span("core.logical_database.materialize");
      s = data->Materialize(served.get(), object);
    }
    if (s.ok()) s = served->AnalyzeAll();
    pse::SharedPlanCache cache;
    Result<pse::FleetSchedule> schedule = PlanSchedule(w, *data, &cache);
    acc.setup_s.push_back(Seconds(t0));
    if (!s.ok() || !schedule.ok()) {
      Fail(&r, "setup", s.ok() ? schedule.status() : s);
      return r;
    }
  }

  // The writes: a seeded list of updates, applied to the served database
  // a share spread over each round's slot, and to its mirror.
  TrafficConfig traffic_config;
  traffic_config.statements = kPhaseCostWritesPerRound * kPhaseCostRounds;
  traffic_config.write_share = 1;
  traffic_config.write_kinds = kPhaseCostWriteKinds;
  traffic_config.scale = kPhaseCostScale;
  Result<Traffic> writes = MakeTraffic(w, {object}, traffic_config, options.seed);
  if (!writes.ok()) {
    Fail(&r, "traffic", writes.status());
    return r;
  }
  pse::DmlRouter router(served.get());
  LogicalDatabase mirror = *data;
  acc.storage.Add(served.get(), &router, -1);

  MigrationProbe probe;
  pse::SharedPlanCache rewrite_cache;
  ReplayOutcome first, last;
  std::vector<ForegroundResult> groups(kPhaseCostWriteGroups);
  const Clock::time_point start = Clock::now();
  const double slot_s = options.seconds / kPhaseCostRounds;
  for (int round = 0; round < kPhaseCostRounds; ++round) {
    std::this_thread::sleep_until(After(start, round * slot_s));
    // The first round runs every check; all must price the same pages.
    ReplayConfig config;
    config.pool_pages = kPhaseCostPool;
    config.check = round == 0;
    Result<ReplayOutcome> replay =
        RunReplay(w, *data, config, &probe, &rewrite_cache, &checker);
    if (!replay.ok()) {
      Fail(&r, "replay", replay.status());
      return r;
    }
    if (round > 0) {
      checker.Expect(replay->phase_cost_laa == first.phase_cost_laa &&
                         replay->phase_cost_gaa == first.phase_cost_gaa &&
                         replay->migration_pages == first.migration_pages &&
                         replay->db_pages == first.db_pages,
                     "replay page counts differ between rounds");
    }
    acc.rollout_s.push_back(replay->apply_s);
    groups[0].read_ms.insert(groups[0].read_ms.end(), replay->read_ms.begin(),
                             replay->read_ms.end());
    groups[0].attempted += replay->queries_run;
    acc.batches += replay->batches;
    acc.io_pages += replay->migration_pages;
    (round == 0 ? first : last) = std::move(*replay);

    ForegroundResult& samples = groups[round * kPhaseCostWriteGroups / kPhaseCostRounds];
    auto write = [&](size_t k) {
      const LogicalDml& dml = writes->statements[round * kPhaseCostWritesPerRound + k].dml;
      const int64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan span("core.rewriter_dml.execute");
        std::shared_lock<pse::SharedMutex> lock(served->schema_latch());
        s = router.Execute(dml, object);
      }
      ++samples.attempted;
      if (!s.ok()) {
        ++samples.failed;
        return;
      }
      samples.write_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      pse::testutil::MirrorApply(&mirror, dml);
    };
    Status planned = WriteAndPlanUntil(w, *data, After(start, (round + 1) * slot_s),
                                       kPhaseCostWritesPerRound, write, &acc.planners);
    if (!planned.ok()) {
      Fail(&r, "planners", planned);
      return r;
    }
  }
  for (ForegroundResult& g : groups) acc.AddForeground(std::move(g));
  acc.storage.Add(served.get(), &router);
  // Disk pages are the replay's: the last (unchecked) round's LAA database.
  acc.storage.page_reads = last.page_reads;
  acc.storage.page_writes = last.page_writes;
  const pse::PlanCacheStats c = rewrite_cache.Snapshot();
  acc.AddPlanCache(c.hits, c.misses);
  CheckAgainstTruth(served.get(), object, mirror, w, "served database", &checker);
  Finish(&r, checker, acc, kPhaseCostSetups, first, &probe, options.trace);
  return r;
}

// ======================================================================
// fleet-tiny-rollout
// ======================================================================

namespace {

/// The fleet as one setup leaves it.
struct Fleet {
  std::vector<std::unique_ptr<LogicalDatabase>> instances;
  std::unique_ptr<pse::SharedPlanCache> cache;
  std::vector<std::unique_ptr<pse::TenantShard>> shards;
  pse::FleetSchedule schedule;
};

Result<Fleet> SetUpFleet(const Tpcw& w) {
  Fleet f;
  for (size_t v = 0; v < kTinyInstances; ++v) {
    f.instances.push_back(Generate(w, kTinyScale, kDataSeed + v));
  }
  f.cache = std::make_unique<pse::SharedPlanCache>();
  for (size_t t = 0; t < kTinyTenants; ++t) {
    pse::ShardOptions shard_options;
    shard_options.pool_pages = kTinyPool;
    ScopedSpan span("fleet.tenant_shard.create");
    PSE_ASSIGN_OR_RETURN(std::unique_ptr<pse::TenantShard> shard,
                         pse::TenantShard::Create(t, w.schema->source,
                                                  f.instances[t % kTinyInstances].get(),
                                                  std::move(shard_options)));
    f.shards.push_back(std::move(shard));
  }
  PSE_ASSIGN_OR_RETURN(f.schedule, PlanSchedule(w, *f.instances[0], f.cache.get()));
  return f;
}

/// The lost-order probe: an order inserted with no payment through the
/// old version's `orders` table before the rollout, and a payment for it
/// inserted through the old version's `cc_xacts` after it. The object
/// schema keeps an order's columns only in its payments' rows, and the
/// cc_xacts x orders combine does not carry an order that has no payment
/// when it runs (see CHANGES.md), so on every tenant the payment arrives
/// with NULL order columns where its mirror has the order's values. The
/// keys lie past every key the foreground uses.
struct LostOrderProbe {
  LogicalDml order, payment;
};

LostOrderProbe MakeLostOrderProbe(const Tpcw& w) {
  const pse::TpcwSchema& S = *w.schema;
  LostOrderProbe p;
  for (const pse::VersionTable& vt : pse::VersionTablesOf(S.source)) {
    if (vt.anchor == S.orders) p.order.table = vt;
    if (vt.anchor == S.cc_xacts) p.payment.table = vt;
  }
  const int64_t order_key = static_cast<int64_t>(kTinyScale.num_orders()) + 1000000;
  p.order.key = order_key;
  p.payment.key = order_key;
  for (LogicalDml* dml : {&p.order, &p.payment}) {
    dml->kind = pse::DmlKind::kInsert;
    for (pse::AttrId a : dml->table.attrs) {
      const pse::LogicalAttribute& attr = S.logical.attr(a);
      dml->set_attrs.push_back(a);
      dml->set_values.push_back(
          attr.references == S.orders                  ? pse::Value::Int(order_key)
          : attr.references.has_value()                ? pse::Value::Int(0)
          : attr.type == pse::TypeId::kInt64           ? pse::Value::Int(20080101)
          : attr.type == pse::TypeId::kDouble          ? pse::Value::Double(1.0)
                                                       : pse::Value::Varchar("PENDING"));
    }
  }
  return p;
}

/// Runs `dml` on a tenant at its published schema, as the foreground does.
bool Acknowledged(pse::TenantShard* shard, const LogicalDml& dml) {
  std::shared_lock<pse::SharedMutex> lock(shard->db()->schema_latch());
  return shard->router()->Execute(dml, *shard->serving()->Get()).ok();
}

/// One cycle's window: the foreground replays `traffic` while the tenants
/// walk the schedule under one FleetScheduler; then the checks. Before the
/// window, the lost-order probe goes to one tenant per round of the
/// schedule; those tenants are the ones checked against their mirrors.
void RollOut(const Tpcw& w, Fleet* f, const Traffic& traffic, const LostOrderProbe& lost,
             MigrationProbe* probe, Accumulated* acc, Checker* checker) {
  const pse::FleetSchedule& schedule = f->schedule;
  pse::FleetScheduler fleet(schedule, f->cache.get());
  std::vector<pse::TenantShard*> shards;
  std::vector<Target> targets;
  std::vector<const LogicalDatabase*> truth;
  for (size_t t = 0; t < kTinyTenants; ++t) {
    pse::TenantShard* shard = f->shards[t].get();
    shards.push_back(shard);
    targets.push_back(Target{shard->db(), shard->serving(), shard->router(), shard});
    truth.push_back(f->instances[t % kTinyInstances].get());
    acc->storage.Add(shard->db(), shard->router(), -1);
    fleet.AddShard(std::move(f->shards[t]));
  }

  pse::FleetOptions fleet_options;
  fleet_options.migration_lanes = kTinyLanes;
  fleet_options.serve_lanes = 0;
  fleet_options.io_tokens = kTinyIoTokens;
  fleet_options.migration.batch_rows = kTinyBatchRows;
  probe->Install(&fleet_options.migration);
  fleet_options.on_shard_op = [&](size_t, size_t step) {
    const int64_t start = NowNs();
    probe->OpEnd(schedule.ops[step - 1].kind, /*mark_gap=*/true);
    probe->OpStart(/*mark_gap=*/false);
    Tracer::Get().Record("hook.on_shard_op", start, NowNs());
  };

  const size_t rounds = traffic.statements.size() / kTinyRoundStatements;
  std::vector<size_t> probed;
  std::vector<bool> order_acked;
  for (size_t k = 0; k < rounds; ++k) {
    probed.push_back(k * kTinyTenants / rounds);
    order_acked.push_back(Acknowledged(shards[probed.back()], lost.order));
  }

  const pse::PlanCacheStats cache_before = f->cache->Snapshot();
  Foreground fg(w, traffic, targets, truth, f->cache.get());
  const int64_t start_ns = NowNs();
  probe->set_default_start(start_ns);
  fg.Start();
  Result<pse::FleetMetrics> run = [&] {
    ScopedSpan span("fleet.scheduler.run");
    return fleet.Run({}, {}, fleet_options);
  }();
  acc->rollout_s.push_back(static_cast<double>(probe->last_publish_ns() - start_ns) / 1e9);
  ForegroundResult result = fg.Join();
  acc->AddForeground(std::move(result));
  const pse::PlanCacheStats cache_after = f->cache->Snapshot();
  acc->AddPlanCache(cache_after.hits - cache_before.hits,
                    cache_after.misses - cache_before.misses);
  for (pse::TenantShard* shard : shards) {
    acc->storage.Add(shard->db(), shard->router());
    acc->batches += shard->batches();
    acc->io_pages += shard->migration_io();
  }

  checker->ExpectOk(run.status(), "fleet rollout");
  if (run.ok()) {
    checker->Expect(run->tenants_migrated == kTinyTenants,
                    "not every tenant reached the last step");
    checker->Expect(run->io_peak_outstanding <= run->io_capacity,
                    "I/O token peak exceeds the bucket capacity");
    acc->io_peak = std::max(acc->io_peak, run->io_peak_outstanding);
  }
  for (pse::TenantShard* shard : shards) {
    checker->Expect(
        shard->step() == schedule.steps() && shard->published_step() == schedule.steps(),
        "tenant " + std::to_string(shard->id()) + " did not publish the last step");
  }
  // The probe's payment follows the rollout. The order's data survived
  // when the tenant then equals its mirror with both inserts; when it
  // equals the mirror with the payment alone, the order was lost and counts
  // as one failed statement.
  for (size_t k = 0; k < probed.size(); ++k) {
    const size_t t = probed[k];
    const bool payment_acked = Acknowledged(shards[t], lost.payment);
    LogicalDatabase without = fg.Truth(t);
    if (payment_acked) pse::testutil::MirrorApply(&without, lost.payment);
    LogicalDatabase with = fg.Truth(t);
    if (order_acked[k]) pse::testutil::MirrorApply(&with, lost.order);
    if (payment_acked) pse::testutil::MirrorApply(&with, lost.payment);
    const bool kept =
        order_acked[k] && TablesMatch(shards[t]->db(), shards[t]->CurrentSchema(), with);
    acc->attempted += 2;
    acc->failed += (kept ? 0 : 1) + (payment_acked ? 0 : 1);
    if (!kept && k == 0) {
      std::fprintf(stderr, "lost-order probe: tenant %zu lost order %lld in the rollout\n", t,
                   static_cast<long long>(lost.order.key));
    }
    CheckAgainstTruth(shards[t]->db(), shards[t]->CurrentSchema(), kept ? with : without, w,
                      "tenant " + std::to_string(t), checker);
  }
}

}  // namespace

RunResult RunFleetRollout(const RunOptions& options) {
  RunResult r;
  Checker checker;
  Tpcw w = MakeTpcw();
  Accumulated acc;

  // The phase-cost replay of the first data set, once and untraced: its
  // spans would mix a router-less copy loop into the rollout's migration
  // layers. Its page counts repeat exactly.
  const bool tracing = Tracer::Get().enabled();
  Tracer::Get().Enable(false);
  std::unique_ptr<LogicalDatabase> first_data =
      pse::GenerateTpcwData(*w.schema, kTinyScale, kDataSeed);
  MigrationProbe replay_probe;
  pse::SharedPlanCache replay_cache;
  ReplayConfig replay_config;
  replay_config.pool_pages = kTinyPool;
  Result<ReplayOutcome> replay =
      RunReplay(w, *first_data, replay_config, &replay_probe, &replay_cache, &checker);
  Tracer::Get().Enable(tracing);
  if (!replay.ok()) {
    Fail(&r, "replay", replay.status());
    return r;
  }

  MigrationProbe probe;
  Traffic traffic;
  const LostOrderProbe lost = MakeLostOrderProbe(w);
  for (int cycle = 0; cycle < kTinyCycles; ++cycle) {
    Clock::time_point t0 = Clock::now();
    Result<Fleet> fleet = SetUpFleet(w);
    acc.setup_s.push_back(Seconds(t0));
    if (!fleet.ok()) {
      Fail(&r, "setup", fleet.status());
      return r;
    }
    if (cycle == 0) {
      // Every cycle replays the same statement schedule.
      // Whole rounds that fill the cycle's window at the offered rate.
      const size_t rounds = std::max<size_t>(
          1, static_cast<size_t>(kTinyRate * options.seconds / kTinyCycles) / kTinyRoundStatements);
      TrafficConfig traffic_config;
      traffic_config.statements = rounds * kTinyRoundStatements;
      traffic_config.rate = kTinyRate;
      traffic_config.tenants = kTinyTenants;
      traffic_config.scale = kTinyScale;
      Result<Traffic> made =
          MakeTraffic(w, fleet->schedule.schemas, traffic_config, options.seed);
      if (!made.ok()) {
        Fail(&r, "traffic", made.status());
        return r;
      }
      traffic = std::move(*made);
    }
    RollOut(w, &*fleet, traffic, lost, &probe, &acc, &checker);
    // Planner passes between windows, on a quiet machine.
    Status planned =
        TimePlanners(w, *fleet->instances[0], kPlannerPassesPerCycle, &acc.planners);
    if (!planned.ok()) {
      Fail(&r, "planners", planned);
      return r;
    }
  }
  Finish(&r, checker, acc, kTinyCycles, *replay, &probe, options.trace);
  return r;
}

}  // namespace perfbench
