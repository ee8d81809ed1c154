// Query execution entry point. Every planned query runs on the batch engine
// (engine/vec_executor.h): operators pass columnar TupleBatches and each
// scan takes its table's shared latch per batch, never for the whole
// execution. Physical I/O flows through the Database's buffer pool, so
// executed plans are measured by the same counters the experiments report.
#pragma once

#include <vector>

#include "engine/plan.h"
#include "storage/database.h"

namespace pse {

/// \brief Execution tuning knobs.
struct ExecOptions {
  /// Rows per TupleBatch.
  size_t batch_rows = 1024;

  static ExecOptions Default() { return {}; }
};

/// Builds, runs, and collects all output rows, in the plan's output order.
Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db,
                                     const ExecOptions& options = {});

}  // namespace pse
