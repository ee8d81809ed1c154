// Reference figures for the README, printed by `run.py --reference`:
//
//   * Fig 8(a): Opt-Schema, Pro-Schema (LAA) and Obj-Schema phase costs of
//     the tpcw-phase-cost instance, from the program's own
//     MigrationSimulation;
//   * the copy-loop probe: one TPC-W 1GB(1:20) tenant walking the fleet
//     schedule through TenantShard::AdvanceOneOp (router attached) against
//     the same operators through a bare MigrationExecutor, per operator.
#include <cstdio>

#include "bench.h"
#include "core/migration_executor.h"
#include "core/simulation.h"
#include "fleet/schedule.h"

namespace perfbench {

namespace {

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

const char* KindName(pse::OperatorKind kind) {
  switch (kind) {
    case pse::OperatorKind::kCreateTable:
      return "Create";
    case pse::OperatorKind::kSplitTable:
      return "Split";
    case pse::OperatorKind::kCombineTable:
      return "Combine";
  }
  return "?";
}

}  // namespace

int RunReference(uint64_t seed) {
  Tpcw w = MakeTpcw();
  const pse::TpcwSchema& S = *w.schema;

  // Fig 8(a): the paper's three situations on the phase-cost instance.
  {
    std::unique_ptr<LogicalDatabase> data =
        pse::GenerateTpcwData(S, pse::TpcwScale{"100MB(1:20)", 3000, 6000}, seed);
    pse::SimulationConfig config;
    config.planner = pse::PlannerKind::kLaa;
    config.buffer_pool_pages = 1024;
    pse::MigrationSimulation sim(&S.source, &S.object, &w.queries, w.freqs, data.get(), config);
    auto opt = sim.Run(pse::Situation::kOptSchema);
    auto pro = sim.Run(pse::Situation::kProSchema);
    auto obj = sim.Run(pse::Situation::kObjSchema);
    if (!opt.ok() || !pro.ok() || !obj.ok()) {
      std::fprintf(stderr, "simulation failed\n");
      return 1;
    }
    std::printf("Fig 8(a) phase cost, TPC-W 100MB(1:20), seed %llu (pages)\n",
                static_cast<unsigned long long>(seed));
    std::printf("%-8s %12s %12s %12s\n", "phase", "Opt-Schema", "Pro-Schema", "Obj-Schema");
    for (size_t p = 0; p < opt->phases.size(); ++p) {
      std::printf("P%zu-P%zu    %12.0f %12.0f %12.0f\n", p, p + 1, opt->phases[p].query_cost,
                  pro->phases[p].query_cost, obj->phases[p].query_cost);
    }
    std::printf("%-8s %12.0f %12.0f %12.0f\n\n", "overall", opt->OverallCost(),
                pro->OverallCost(), obj->OverallCost());
  }

  // The copy-loop probe.
  std::unique_ptr<LogicalDatabase> data = pse::GenerateTpcwData(S, pse::Scaled1GB(), seed);
  pse::Result<pse::FleetSchedule> schedule = pse::PlanFleetSchedule(S.source, S.object);
  if (!schedule.ok()) return 1;
  pse::Result<std::unique_ptr<pse::TenantShard>> shard =
      pse::TenantShard::Create(0, S.source, data.get());
  if (!shard.ok()) return 1;
  pse::Database bare(pse::ShardOptions{}.pool_pages);
  if (!data->Materialize(&bare, S.source).ok() || !bare.AnalyzeAll().ok()) return 1;
  pse::MigrationExecutor exec(&bare, data.get());
  PhysicalSchema current = S.source;
  std::printf("copy-loop probe, TPC-W 1GB(1:20), pool %zu frames (s)\n",
              pse::ShardOptions{}.pool_pages);
  std::printf("%-12s %16s %16s\n", "operator", "AdvanceOneOp", "bare Apply");
  double shard_total = 0, bare_total = 0;
  for (size_t s = 0; s < schedule->steps(); ++s) {
    const pse::MigrationOperator& op = schedule->ops[s];
    Clock::time_point t0 = Clock::now();
    Status a = (*shard)->AdvanceOneOp(*schedule, pse::MigrationOptions{});
    const double shard_s = Seconds(t0);
    t0 = Clock::now();
    Status b = exec.Apply(op, &current).status();
    const double bare_s = Seconds(t0);
    if (!a.ok() || !b.ok()) return 1;
    shard_total += shard_s;
    bare_total += bare_s;
    std::printf("%-8s#%-3d %16.3f %16.3f\n", KindName(op.kind), op.id, shard_s, bare_s);
  }
  std::printf("%-12s %16.3f %16.3f\n", "total", shard_total, bare_total);
  return 0;
}

}  // namespace perfbench
