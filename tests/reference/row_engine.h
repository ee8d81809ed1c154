// Row-at-a-time (Volcano) reference engine: each plan node becomes a
// pull-based iterator producing one Row per virtual call. It is not part of
// the program: production queries run on the batch engine behind
// engine/executor.h. This engine is kept as an independent, deliberately
// plain implementation of the same physical plans, so the differential
// oracles can check the production engine row for row against it, and
// bench_engine_micro can time the production engine against it.
//
// Latching: ExecutePlan holds every scanned table's shared latch for the
// whole execution (the production engine latches per batch instead).
#pragma once

#include <vector>

#include "engine/plan.h"
#include "storage/database.h"

namespace pse::reference {

/// Builds, runs, and collects all output rows on the row engine.
Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db);

}  // namespace pse::reference
