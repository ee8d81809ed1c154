// Batch-at-a-time executors: the production engine behind ExecutePlan
// (engine/executor.h). Each physical plan node becomes a pull-based
// operator over TupleBatch instead of one Row per virtual call. Scans fill
// ~1024-row batches straight off heap pages (one page pin per page, not per
// tuple), filters narrow selection vectors without copying values, and
// expressions run through compiled ExprVecExecutors.
//
// Latching: each scan takes its table's shared latch *per batch* —
// exactly the discipline the migration copy loop uses (and at the same
// `table:<name>` lockdep rank) — and never holds two table latches at once:
// joins fully drain or release one side before latching the other. Shared
// latches on the writer-preferring SharedMutex must never nest, so the
// per-batch style is also what makes it safe for a serve lane to read while
// the copy loop batches over the same source. Index probes and the row
// fetches they feed share one latch hold, so a row id never goes stale. A
// query therefore sees each table in batch-consistent snapshots, not one
// snapshot for the whole execution (DESIGN.md §15 lists the anomalies).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/executor.h"
#include "engine/expr_vec.h"
#include "engine/plan.h"
#include "engine/tuple_batch.h"
#include "storage/database.h"

namespace pse {

/// Per-executor output accounting, summed over the executor's lifetime.
struct VecExecutorStats {
  uint64_t batches = 0;      ///< batches produced (excluding end-of-stream)
  uint64_t output_rows = 0;  ///< live rows across those batches
};

/// \brief Pull-based batch operator.
///
/// Subclasses implement InternalNext(); the public Next() wraps it with
/// output-size stats. A produced batch may carry a selection vector;
/// consumers must index live rows through SelIndex()/EmitRows().
class VecExecutor {
 public:
  explicit VecExecutor(const ExecOptions& options) : options_(options) {}
  virtual ~VecExecutor() = default;

  /// Prepares the operator (may consume blocking inputs, e.g. sort/agg).
  virtual Status Init() = 0;

  /// Produces the next batch into `out`; returns false at end of stream.
  Result<bool> Next(TupleBatch* out) {
    PSE_ASSIGN_OR_RETURN(bool has, InternalNext(out));
    if (has) {
      ++stats_.batches;
      stats_.output_rows += out->size();
    }
    return has;
  }

  const VecExecutorStats& stats() const { return stats_; }

 protected:
  virtual Result<bool> InternalNext(TupleBatch* out) = 0;

  ExecOptions options_;

 private:
  VecExecutorStats stats_;
};

/// Builds the batch executor tree for a planned query.
Result<std::unique_ptr<VecExecutor>> BuildVecExecutor(const PlanNode& plan, Database* db,
                                                      const ExecOptions& options);

}  // namespace pse
