// MigrationSimulation: the experiment harness of Section IV. Runs the three
// situations the paper compares under one workload schedule:
//   Opt-Schema  — source and object databases coexist; old queries run on
//                 source, new queries on object (the ideal lower bound);
//   Obj-Schema  — one database already migrated to the object schema; every
//                 query is rewritten onto it (the classical one-shot
//                 migration / "existing system" upper bound);
//   Pro-Schema  — the paper's progressive migration: one database whose
//                 schema evolves at every migration point as chosen by LAA
//                 or GAA.
//
// Phase-Cost is measured as the paper does: C_i x F_i per query, with C_i
// the page I/O of one cold-cache execution of query i on the current
// schema, F_i its frequency in the phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/logical_database.h"
#include "core/migration_planner.h"
#include "core/workload.h"
#include "storage/database.h"

namespace pse {

enum class Situation { kOptSchema, kProSchema, kObjSchema };
enum class PlannerKind { kLaa, kGaa };

const char* SituationName(Situation s);

struct SimulationConfig {
  size_t buffer_pool_pages = 4096;
  PlannerKind planner = PlannerKind::kLaa;
  GaaOptions gaa;
  /// Execute queries for real and count buffer I/O (true), or use the cost
  /// model's estimates only (false; much faster, used by big sweeps).
  bool measure_actual = true;
  /// GAA re-plans at every migration point (the paper's imprecision-of-
  /// forecast argument); false commits to the first plan.
  bool replan_each_point = true;
  /// Penalty multiplier for queries not yet servable on an intermediate
  /// schema (priced via the object schema).
  double unservable_penalty = 3.0;
  /// LAA exhaustive-search guard.
  size_t laa_max_ops = 22;
  /// Plan from a WorkloadCollector's observations instead of the true
  /// schedule: at each migration point the planner sees only the phases
  /// measured so far and a least-squares forecast of the rest (the paper's
  /// "predicted trend may not be very precise" setting). The first point
  /// uses the true first-phase mix (the customer-predefined estimate).
  bool forecast_from_observations = false;
  /// Data growth: visible_rows[p][e] = rows of entity e visible during
  /// phase p (monotone per entity; last phase <= generated rows). Empty =
  /// static data. Growth inserts happen between phases and are not charged
  /// to query or migration I/O.
  std::vector<std::vector<size_t>> visible_rows;
  /// Online migration: move data in bounded batches and run one workload
  /// probe query (cycling through the phase's active queries, warm cache)
  /// between batches, the way foreground traffic interleaves with an online
  /// schema change. Probe I/O is reported per phase and excluded from
  /// migration_io. Requires measure_actual for the probes to execute.
  bool online_migration = false;
  /// Rows per migration batch in online mode.
  uint64_t migration_batch_rows = 256;
  /// Per-batch physical I/O budget in online mode (0 = unlimited).
  uint64_t migration_io_budget = 0;
  /// Concurrent serving (Pro only): run this many foreground query sessions
  /// on worker threads *while* each migration point applies its operators,
  /// and report per-phase throughput and latency percentiles. 0 = off (the
  /// single-threaded probe interleaving above). Requires measure_actual.
  /// With serving on, migration_io becomes approximate: foreground I/O and
  /// migration I/O share the physical counters, so the split between them
  /// is attributed by timing, not exactly. Probe hooks are disabled (the
  /// sessions *are* the foreground traffic) — probe-I/O numbers stay exact
  /// only in the single-threaded mode.
  size_t serve_sessions = 0;
  /// Minimum queries each serving session attempts per phase, so op-less
  /// phases still produce latency samples.
  uint64_t serve_min_queries = 4;
  /// Base RNG seed for the per-session query mix.
  uint64_t serve_seed = 42;
};

struct PhaseReport {
  double query_cost = 0;     ///< the paper's Phase-Cost (sum C_i * F_i)
  double migration_io = 0;   ///< data-movement I/O at this migration point
  std::vector<int> ops_applied;
  std::string schema_desc;
  // Online-migration instrumentation (zero unless config.online_migration).
  double online_probe_io = 0;   ///< I/O of probe queries run between batches
  uint64_t online_batches = 0;  ///< migration batches committed this phase
  uint64_t online_probes = 0;   ///< probe queries executed this phase
  // Concurrent-serving instrumentation (zero unless config.serve_sessions).
  uint64_t serve_queries = 0;      ///< foreground queries served this phase
  uint64_t serve_unservable = 0;   ///< skipped: not yet servable mid-phase
  double serve_wall_ms = 0;        ///< serve-window duration
  double serve_throughput_qps = 0; ///< queries per second across sessions
  double serve_p50_ms = 0;         ///< median foreground query latency
  double serve_p95_ms = 0;
  double serve_p99_ms = 0;
};

struct SituationReport {
  Situation situation = Situation::kProSchema;
  std::vector<PhaseReport> phases;
  /// I/O of the forced completion step after the last phase (Pro only).
  double final_migration_io = 0;

  double OverallCost() const;
  double TotalMigrationIo() const;
  double TotalOnlineProbeIo() const;
  uint64_t TotalOnlineBatches() const;
};

/// \brief Experiment driver for one (schedule, data) instance.
class MigrationSimulation {
 public:
  /// `phase_freqs[p][q]` is the frequency of queries[q] during phase p.
  /// `phase_stats` holds one entry (static data) or one per phase.
  MigrationSimulation(const PhysicalSchema* source, const PhysicalSchema* object,
                      const std::vector<WorkloadQuery>* queries,
                      std::vector<std::vector<double>> phase_freqs,
                      const LogicalDatabase* data, SimulationConfig config);

  /// Runs one situation end to end on a fresh database.
  Result<SituationReport> Run(Situation situation);

  /// Last Pro run's planner search effort (schemas estimated / GA evals).
  size_t last_planner_evaluations() const { return last_planner_evaluations_; }

  /// Data statistics in effect during `phase`.
  const LogicalStats& StatsAt(size_t phase) const {
    return phase_stats_.size() == 1 ? phase_stats_[0]
                                    : phase_stats_[std::min(phase, phase_stats_.size() - 1)];
  }

 private:
  /// Measures sum C_i*F_i for one phase on `schema` materialized in `db`.
  Result<double> MeasurePhase(Database* db, const PhysicalSchema& schema,
                              const std::vector<double>& freqs, const LogicalStats& stats);
  /// One query's cold-cache execution I/O (or estimate).
  Result<double> MeasureQuery(Database* db, const PhysicalSchema& schema,
                              const LogicalQuery& query, const LogicalStats& stats);

  const PhysicalSchema* source_;
  const PhysicalSchema* object_;
  const std::vector<WorkloadQuery>* queries_;
  std::vector<std::vector<double>> phase_freqs_;
  const LogicalDatabase* data_;
  SimulationConfig config_;
  std::vector<LogicalStats> phase_stats_;
  size_t last_planner_evaluations_ = 0;
};

}  // namespace pse
