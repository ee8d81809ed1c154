#include "core/simulation.h"

#include "core/migration_executor.h"
#include "core/serving.h"
#include "core/workload_collector.h"
#include "core/rewriter.h"
#include "core/virtual_catalog.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

const char* SituationName(Situation s) {
  switch (s) {
    case Situation::kOptSchema:
      return "Opt-Schema";
    case Situation::kProSchema:
      return "Pro-Schema";
    case Situation::kObjSchema:
      return "Obj-Schema";
  }
  return "?";
}

double SituationReport::OverallCost() const {
  double total = 0;
  for (const auto& p : phases) total += p.query_cost;
  return total;
}

double SituationReport::TotalMigrationIo() const {
  double total = final_migration_io;
  for (const auto& p : phases) total += p.migration_io;
  return total;
}

double SituationReport::TotalOnlineProbeIo() const {
  double total = 0;
  for (const auto& p : phases) total += p.online_probe_io;
  return total;
}

uint64_t SituationReport::TotalOnlineBatches() const {
  uint64_t total = 0;
  for (const auto& p : phases) total += p.online_batches;
  return total;
}

MigrationSimulation::MigrationSimulation(const PhysicalSchema* source,
                                         const PhysicalSchema* object,
                                         const std::vector<WorkloadQuery>* queries,
                                         std::vector<std::vector<double>> phase_freqs,
                                         const LogicalDatabase* data, SimulationConfig config)
    : source_(source),
      object_(object),
      queries_(queries),
      phase_freqs_(std::move(phase_freqs)),
      data_(data),
      config_(config) {
  if (config_.visible_rows.empty()) {
    phase_stats_.push_back(data_->ComputeStats());
  } else {
    for (const auto& visible : config_.visible_rows) {
      phase_stats_.push_back(data_->ComputeStatsPrefix(visible));
    }
  }
}

Result<double> MigrationSimulation::MeasureQuery(Database* db, const PhysicalSchema& schema,
                                                 const LogicalQuery& query,
                                                 const LogicalStats& stats) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    if (bound.status().IsBindError()) {
      // Not servable yet (new attribute missing): price via the object
      // schema with the configured penalty.
      PSE_ASSIGN_OR_RETURN(double est, EstimateQueryCost(query, *object_, stats));
      return config_.unservable_penalty * est;
    }
    return bound.status();
  }
  if (!config_.measure_actual) {
    VirtualSchemaCatalog catalog(&schema, &stats);
    PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*bound, catalog));
    CostModel model(&catalog);
    PSE_ASSIGN_OR_RETURN(CostEstimate est, model.Estimate(*plan));
    return est.io_pages;
  }
  DatabaseCatalogView view(db);
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*bound, view));
  PSE_RETURN_NOT_OK(db->pool()->EvictAll());
  uint64_t before = db->TotalIo();
  PSE_RETURN_NOT_OK(ExecutePlan(*plan, db).status());
  return static_cast<double>(db->TotalIo() - before);
}

Result<double> MigrationSimulation::MeasurePhase(Database* db, const PhysicalSchema& schema,
                                                 const std::vector<double>& freqs,
                                                 const LogicalStats& stats) {
  double total = 0;
  for (size_t q = 0; q < queries_->size(); ++q) {
    if (freqs[q] <= 0) continue;
    PSE_ASSIGN_OR_RETURN(double io, MeasureQuery(db, schema, (*queries_)[q].query, stats));
    total += io * freqs[q];
  }
  return total;
}

Result<SituationReport> MigrationSimulation::Run(Situation situation) {
  SituationReport report;
  report.situation = situation;
  const size_t num_phases = phase_freqs_.size();

  if (situation == Situation::kOptSchema) {
    // Two coexisting systems; each query runs on its native schema. The
    // synchronization overhead the paper's introduction mentions is NOT
    // charged — Opt is the idealized lower bound.
    Database source_db(config_.buffer_pool_pages);
    Database object_db(config_.buffer_pool_pages);
    const bool grows = !config_.visible_rows.empty();
    if (grows) {
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&source_db, *source_, config_.visible_rows[0]));
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&object_db, *object_, config_.visible_rows[0]));
    } else {
      PSE_RETURN_NOT_OK(data_->Materialize(&source_db, *source_));
      PSE_RETURN_NOT_OK(data_->Materialize(&object_db, *object_));
    }
    for (size_t p = 0; p < num_phases; ++p) {
      if (grows && p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&source_db, *source_,
                                                  config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&object_db, *object_,
                                                  config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      PhaseReport phase;
      for (size_t q = 0; q < queries_->size(); ++q) {
        if (phase_freqs_[p][q] <= 0) continue;
        const WorkloadQuery& wq = (*queries_)[q];
        Database* db = wq.is_old ? &source_db : &object_db;
        const PhysicalSchema& schema = wq.is_old ? *source_ : *object_;
        PSE_ASSIGN_OR_RETURN(double io, MeasureQuery(db, schema, wq.query, StatsAt(p)));
        phase.query_cost += io * phase_freqs_[p][q];
      }
      phase.schema_desc = "source + object (dual)";
      report.phases.push_back(std::move(phase));
    }
    return report;
  }

  if (situation == Situation::kObjSchema) {
    Database db(config_.buffer_pool_pages);
    const bool grows = !config_.visible_rows.empty();
    if (grows) {
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&db, *object_, config_.visible_rows[0]));
    } else {
      PSE_RETURN_NOT_OK(data_->Materialize(&db, *object_));
    }
    for (size_t p = 0; p < num_phases; ++p) {
      if (grows && p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&db, *object_, config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      PhaseReport phase;
      PSE_ASSIGN_OR_RETURN(phase.query_cost,
                           MeasurePhase(&db, *object_, phase_freqs_[p], StatsAt(p)));
      phase.schema_desc = "object";
      report.phases.push_back(std::move(phase));
    }
    return report;
  }

  // Pro-Schema: progressive migration.
  if (config_.serve_sessions > 0 && !config_.measure_actual) {
    return Status::InvalidArgument(
        "serve_sessions requires measure_actual (the sessions execute real queries)");
  }
  Database db(config_.buffer_pool_pages);
  const bool grows = !config_.visible_rows.empty();
  if (grows) {
    PSE_RETURN_NOT_OK(data_->MaterializePrefix(&db, *source_, config_.visible_rows[0]));
  } else {
    PSE_RETURN_NOT_OK(data_->Materialize(&db, *source_));
  }
  PhysicalSchema current = *source_;
  PSE_ASSIGN_OR_RETURN(OperatorSet opset, ComputeOperatorSet(*source_, *object_));
  std::vector<bool> applied(opset.size(), false);
  MigrationExecutor executor(&db, data_);
  last_planner_evaluations_ = 0;

  MigrationContext ctx;
  ctx.object = object_;
  ctx.opset = &opset;
  ctx.phase_freqs = &phase_freqs_;
  ctx.phase_stats = &phase_stats_;
  ctx.queries = queries_;

  GaaResult committed_gaa;  // used when replan_each_point is false
  bool have_gaa_plan = false;
  WorkloadCollector collector(queries_->size());

  std::vector<std::vector<double>> planning_freqs = phase_freqs_;
  for (size_t p = 0; p < num_phases; ++p) {
    if (grows) {
      if (p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&db, current, config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      executor.set_visible_rows(config_.visible_rows[p]);
    }
    PhaseReport phase;
    ctx.current = &current;
    ctx.applied = applied;

    if (config_.forecast_from_observations && p > 0) {
      // Replace the unseen future (phases p..end) with the collector's
      // extrapolation of the phases measured so far.
      auto forecast = collector.Forecast(num_phases - p);
      if (forecast.ok()) {
        for (size_t f = 0; f < forecast->size(); ++f) {
          planning_freqs[p + f] = (*forecast)[f];
        }
      }
      ctx.phase_freqs = &planning_freqs;
    } else {
      ctx.phase_freqs = &phase_freqs_;
    }

    // --- migration point: choose and apply operators ---
    std::vector<int> to_apply;
    if (config_.planner == PlannerKind::kLaa) {
      // The paper's LAA adapts to the *measured* system status: at the
      // migration point opening phase p the collector has seen phase p-1.
      size_t observed = p == 0 ? 0 : p - 1;
      PSE_ASSIGN_OR_RETURN(LaaResult laa,
                           SelectOpsLaa(ctx, p, observed, config_.laa_max_ops));
      last_planner_evaluations_ += laa.schemas_evaluated;
      to_apply = laa.ops_to_apply;
    } else {
      GaaOptions gaa = config_.gaa;
      gaa.unservable_penalty = config_.unservable_penalty;
      if (config_.replan_each_point || !have_gaa_plan) {
        PSE_ASSIGN_OR_RETURN(GaaResult plan, PlanGaa(ctx, p, gaa));
        last_planner_evaluations_ += plan.evaluations;
        committed_gaa = std::move(plan);
        have_gaa_plan = true;
        to_apply = committed_gaa.ApplyNow();
      } else {
        // Follow the committed plan: ops assigned to offset (p - plan time).
        to_apply.clear();
        for (size_t i = 0; i < committed_gaa.assignment.size(); ++i) {
          int op = committed_gaa.remaining_ops[i];
          if (!applied[static_cast<size_t>(op)] &&
              committed_gaa.assignment[i] == static_cast<int>(p)) {
            to_apply.push_back(op);
          }
        }
      }
      // Dependency order.
      PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
      std::vector<int> ordered;
      for (int i : topo) {
        if (std::find(to_apply.begin(), to_apply.end(), i) != to_apply.end()) {
          ordered.push_back(i);
        }
      }
      to_apply = ordered;
    }
    if (config_.serve_sessions > 0) {
      // Concurrent serving: real foreground sessions execute this phase's
      // query mix on worker threads while the operators apply. Each
      // operator's post-op schema is published to the sessions from the
      // executor's exclusive-latch quiesce window, so a session always
      // plans against exactly what the catalog holds. Migration I/O is
      // approximate here (foreground and migration share the physical
      // counters); the single-threaded probe mode keeps the exact numbers.
      ServingSchema serving(current);
      MigrationOptions mo;
      mo.batch_rows = config_.migration_batch_rows;
      mo.batch_io_budget = config_.migration_io_budget;
      mo.on_batch = [&phase](const MigrationBatchEvent&) -> Status {
        ++phase.online_batches;
        return Status::OK();
      };
      mo.on_publish = [&serving](const PhysicalSchema& s) { serving.Publish(s); };
      executor.set_options(std::move(mo));
      ServeOptions so;
      so.sessions = config_.serve_sessions;
      so.min_queries_per_lane = config_.serve_min_queries;
      so.seed = config_.serve_seed + p;
      uint64_t mig_io = 0;
      auto migrate = [&]() -> Status {
        for (int op : to_apply) {
          auto io = executor.Apply(opset.ops[static_cast<size_t>(op)], &current);
          if (!io.ok()) return io.status();
          mig_io += *io;
          applied[static_cast<size_t>(op)] = true;
        }
        return Status::OK();
      };
      PSE_ASSIGN_OR_RETURN(ServeMetrics sm,
                           ServeDuringMigration(&db, &serving, *queries_, phase_freqs_[p],
                                                so, migrate));
      phase.migration_io += static_cast<double>(mig_io);
      phase.serve_queries = sm.queries;
      phase.serve_unservable = sm.unservable;
      phase.serve_wall_ms = sm.wall_ms;
      phase.serve_throughput_qps = sm.throughput_qps;
      phase.serve_p50_ms = sm.p50_ms;
      phase.serve_p95_ms = sm.p95_ms;
      phase.serve_p99_ms = sm.p99_ms;
      // Detach the hooks (they capture this iteration's locals); batch
      // sizing stays in effect for the forced completion.
      MigrationOptions detached;
      detached.batch_rows = config_.migration_batch_rows;
      detached.batch_io_budget = config_.migration_io_budget;
      executor.set_options(std::move(detached));
      phase.ops_applied = to_apply;
      phase.schema_desc = std::to_string(current.tables().size()) + " tables";

      PSE_ASSIGN_OR_RETURN(phase.query_cost,
                           MeasurePhase(&db, current, phase_freqs_[p], StatsAt(p)));
      report.phases.push_back(std::move(phase));
      for (size_t q = 0; q < queries_->size(); ++q) {
        PSE_RETURN_NOT_OK(collector.Record(q, phase_freqs_[p][q]));
      }
      collector.CloseWindow();
      continue;
    }

    // Online mode: between batches, run one of the phase's queries against
    // the still-current schema (source tables stay live until the copy is
    // durable), warm-cache, the way foreground traffic sees an online
    // schema change. Probe I/O is tracked separately from migration I/O.
    std::vector<size_t> probe_queries;
    size_t next_probe = 0;
    if (config_.online_migration) {
      for (size_t q = 0; q < queries_->size(); ++q) {
        if (phase_freqs_[p][q] > 0) probe_queries.push_back(q);
      }
      MigrationOptions mo;
      mo.batch_rows = config_.migration_batch_rows;
      mo.batch_io_budget = config_.migration_io_budget;
      mo.on_batch = [&](const MigrationBatchEvent&) -> Status {
        ++phase.online_batches;
        if (probe_queries.empty() || !config_.measure_actual) return Status::OK();
        const WorkloadQuery& wq = (*queries_)[probe_queries[next_probe % probe_queries.size()]];
        ++next_probe;
        Result<BoundQuery> bound = RewriteQuery(wq.query, current);
        if (!bound.ok()) {
          // Queries not yet servable mid-migration are simply skipped.
          if (bound.status().IsBindError()) return Status::OK();
          return bound.status();
        }
        DatabaseCatalogView view(&db);
        PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*bound, view));
        uint64_t before = db.TotalIo();
        PSE_RETURN_NOT_OK(ExecutePlan(*plan, &db).status());
        phase.online_probe_io += static_cast<double>(db.TotalIo() - before);
        ++phase.online_probes;
        return Status::OK();
      };
      executor.set_options(std::move(mo));
    }
    for (int op : to_apply) {
      PSE_ASSIGN_OR_RETURN(uint64_t io,
                           executor.Apply(opset.ops[static_cast<size_t>(op)], &current));
      phase.migration_io += static_cast<double>(io);
      applied[static_cast<size_t>(op)] = true;
    }
    if (config_.online_migration) {
      // The hook captures this iteration's locals; detach it before they go
      // out of scope (batch sizing stays in effect for forced completion).
      MigrationOptions mo;
      mo.batch_rows = config_.migration_batch_rows;
      mo.batch_io_budget = config_.migration_io_budget;
      executor.set_options(std::move(mo));
    }
    phase.ops_applied = to_apply;
    phase.schema_desc = std::to_string(current.tables().size()) + " tables";

    // --- measure the phase under the current schema ---
    PSE_ASSIGN_OR_RETURN(phase.query_cost,
                         MeasurePhase(&db, current, phase_freqs_[p], StatsAt(p)));
    report.phases.push_back(std::move(phase));

    // The collector tallies what actually ran during this phase.
    for (size_t q = 0; q < queries_->size(); ++q) {
      PSE_RETURN_NOT_OK(collector.Record(q, phase_freqs_[p][q]));
    }
    collector.CloseWindow();
  }

  // Forced completion: whatever is left is applied after the last phase so
  // the system ends exactly on the object schema. ApplyAll reports partial
  // progress — if a mid-sequence operator fails, the I/O already spent is
  // still accounted in the report and named in the error.
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
  std::vector<MigrationOperator> remaining;
  for (int i : topo) {
    if (!applied[static_cast<size_t>(i)]) {
      remaining.push_back(opset.ops[static_cast<size_t>(i)]);
      applied[static_cast<size_t>(i)] = true;
    }
  }
  MigrationProgress completion;
  auto final_io = executor.ApplyAll(remaining, &current, &completion);
  report.final_migration_io += static_cast<double>(completion.io);
  if (!final_io.ok()) {
    const Status& s = final_io.status();
    return Status(s.code(), "forced completion failed: " + s.message());
  }
  if (!current.EquivalentTo(*object_)) {
    return Status::Internal("progressive migration did not reach the object schema");
  }
  return report;
}

}  // namespace pse
