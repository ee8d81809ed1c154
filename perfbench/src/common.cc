#include <sys/resource.h>

#include <cstdio>
#include <sstream>

#include "bench.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpcw/queries.h"
#include "tpcw/workloads.h"

namespace perfbench {

void MetricSink::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string MetricSink::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": " << number
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}";
  return out.str();
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

Tpcw MakeTpcw() {
  Tpcw w;
  w.schema = pse::BuildTpcwSchema();
  pse::Result<std::vector<WorkloadQuery>> queries = pse::BuildTpcwWorkload(*w.schema);
  if (!queries.ok()) {
    std::fprintf(stderr, "TPC-W workload: %s\n", queries.status().ToString().c_str());
    std::exit(2);
  }
  w.queries = std::move(*queries);
  w.freqs = pse::Fig9IrregularFrequencies();
  return w;
}

namespace {

std::vector<Row> SortRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

}  // namespace

pse::Result<std::vector<Row>> SortedTableRows(Database* db, const std::string& table) {
  PSE_ASSIGN_OR_RETURN(pse::TableInfo * info, db->GetTable(table));
  std::vector<Row> out;
  for (auto it = info->heap->Begin(); !it.AtEnd();) {
    out.push_back(it.row());
    PSE_RETURN_NOT_OK(it.Next());
  }
  return SortRows(std::move(out));
}

pse::Result<std::vector<Row>> SortedQueryRows(Database* db, const pse::LogicalQuery& query,
                                              const PhysicalSchema& schema) {
  PSE_ASSIGN_OR_RETURN(pse::BoundQuery bound, pse::RewriteQuery(query, schema));
  pse::DatabaseCatalogView view(db);
  PSE_ASSIGN_OR_RETURN(pse::PlanPtr plan, pse::PlanQuery(bound, view));
  PSE_ASSIGN_OR_RETURN(std::vector<Row> rows,
                       pse::ExecutePlan(*plan, db, pse::ExecOptions::Default()));
  return SortRows(std::move(rows));
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

bool TablesMatch(Database* db, const PhysicalSchema& schema, const LogicalDatabase& truth) {
  Database fresh(4096);
  if (!truth.Materialize(&fresh, schema).ok()) return false;
  for (const pse::PhysicalTable& table : schema.tables()) {
    pse::Result<std::vector<Row>> got = SortedTableRows(db, table.name);
    pse::Result<std::vector<Row>> want = SortedTableRows(&fresh, table.name);
    if (!got.ok() || !want.ok() || !SameRows(*got, *want)) return false;
  }
  return true;
}

void CheckAgainstTruth(Database* db, const PhysicalSchema& schema, const LogicalDatabase& truth,
                       const Tpcw& w, const std::string& where, Checker* checker) {
  Database fresh(4096);
  Status s;
  {
    ScopedSpan span("core.logical_database.materialize");
    s = truth.Materialize(&fresh, schema);
  }
  checker->ExpectOk(s, where + ": materialize the truth");
  if (!s.ok()) return;
  for (const pse::PhysicalTable& table : schema.tables()) {
    pse::Result<std::vector<Row>> got = SortedTableRows(db, table.name);
    pse::Result<std::vector<Row>> want = SortedTableRows(&fresh, table.name);
    const bool same = got.ok() && want.ok() && SameRows(*got, *want);
    checker->Expect(same, where + ": table " + table.name + " differs from its entity mirror (" +
                              std::to_string(got.ok() ? got->size() : 0) + " vs " +
                              std::to_string(want.ok() ? want->size() : 0) + " rows)");
    if (!same && got.ok() && want.ok()) {
      // Name the first rows that differ, tenant side first.
      size_t shown = 0;
      for (size_t i = 0; i < std::max(got->size(), want->size()) && shown < 3; ++i) {
        const bool left = i < got->size(), right = i < want->size();
        if (left && right && SameRows({(*got)[i]}, {(*want)[i]})) continue;
        std::string line = "  tenant [";
        for (size_t c = 0; left && c < (*got)[i].size(); ++c) {
          line += (c ? ", " : "") + (*got)[i][c].ToString();
        }
        line += "]\n  mirror [";
        for (size_t c = 0; right && c < (*want)[i].size(); ++c) {
          line += (c ? ", " : "") + (*want)[i][c].ToString();
        }
        std::fprintf(stderr, "%s]\n", line.c_str());
        ++shown;
      }
    }
  }
  Database object_db(4096);
  {
    ScopedSpan span("core.logical_database.materialize");
    s = truth.Materialize(&object_db, w.schema->object);
  }
  checker->ExpectOk(s, where + ": materialize the truth on the object schema");
  if (!s.ok()) return;
  checker->ExpectOk(object_db.AnalyzeAll(), where + ": analyze");
  for (const WorkloadQuery& wq : w.queries) {
    pse::Result<std::vector<Row>> got = SortedQueryRows(db, wq.query, schema);
    pse::Result<std::vector<Row>> want = SortedQueryRows(&object_db, wq.query, w.schema->object);
    checker->Expect(got.ok() && want.ok() && SameRows(*got, *want),
                    where + ": query " + wq.query.name + " differs from its mirror database");
  }
}

// ---------------------------------------------------------------- probe

namespace {

/// Per-thread migration state of the probe (one migration runs on a thread
/// at a time).
struct ProbeThread {
  int64_t op_start_ns = 0;
  int64_t last_event_ns = 0;
  int64_t gap_start_ns = 0;
  int last_op_id = -1;
  uint64_t last_rows = 0;
  std::vector<double> batches_ms;
};
thread_local ProbeThread probe_thread;

}  // namespace

const char* OpSpanName(pse::OperatorKind kind) {
  switch (kind) {
    case pse::OperatorKind::kCreateTable:
      return "core.migration_executor.op.create";
    case pse::OperatorKind::kSplitTable:
      return "core.migration_executor.op.split";
    case pse::OperatorKind::kCombineTable:
      return "core.migration_executor.op.combine";
  }
  return "core.migration_executor.op.unknown";
}

void MigrationProbe::Install(pse::MigrationOptions* options) {
  auto base_publish = options->on_publish;
  options->on_publish = [this, base_publish](const PhysicalSchema& schema) {
    OnPublish();
    if (base_publish) base_publish(schema);
  };
  if (!Tracer::Get().enabled()) return;
  auto base_batch = options->on_batch;
  options->on_batch = [this, base_batch](const pse::MigrationBatchEvent& ev) {
    OnBatch(ev);
    const int64_t start = NowNs();
    Status s = base_batch ? base_batch(ev) : Status::OK();
    probe_thread.last_event_ns = NowNs();
    Tracer::Get().Record("hook.on_batch", start, probe_thread.last_event_ns);
    return s;
  };
}

void MigrationProbe::OpStart(bool mark_gap) {
  ProbeThread& t = probe_thread;
  t.op_start_ns = t.last_event_ns = NowNs();
  if (mark_gap) t.gap_start_ns = t.op_start_ns;
  t.last_rows = 0;
  t.last_op_id = -1;
  t.batches_ms.clear();
}

void MigrationProbe::OpEnd(pse::OperatorKind kind, bool mark_gap) {
  ProbeThread& t = probe_thread;
  const int64_t now = NowNs();
  if (t.op_start_ns == 0) t.op_start_ns = default_start_ns_;
  Tracer::Get().Record(OpSpanName(kind), t.op_start_ns, now, /*child=*/false);
  t.gap_start_ns = mark_gap ? now : 0;
  if (Tracer::Get().enabled() && !t.batches_ms.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    op_batches_.push_back(t.batches_ms);
  }
  t.batches_ms.clear();
}

void MigrationProbe::OnBatch(const pse::MigrationBatchEvent& ev) {
  ProbeThread& t = probe_thread;
  const int64_t now = NowNs();
  if (t.last_event_ns == 0) t.last_event_ns = default_start_ns_;
  if (t.gap_start_ns != 0) {
    Tracer::Get().Record("fleet.scheduler.op_gap", t.gap_start_ns, now, /*child=*/false);
    t.gap_start_ns = 0;
  }
  Tracer::Get().Record("core.migration_executor.batch", t.last_event_ns, now);
  t.batches_ms.push_back(static_cast<double>(now - t.last_event_ns) / 1e6);
  const uint64_t moved =
      ev.op_id == t.last_op_id && ev.rows_copied >= t.last_rows ? ev.rows_copied - t.last_rows
                                                                : ev.rows_copied;
  rows_.fetch_add(moved);
  t.last_rows = ev.rows_copied;
  t.last_op_id = ev.op_id;
}

void MigrationProbe::OnPublish() {
  const int64_t now = NowNs();
  ProbeThread& t = probe_thread;
  if (t.last_event_ns != 0) Tracer::Get().Record("core.migration_executor.quiesce", t.last_event_ns, now);
  int64_t prev = last_publish_ns_.load();
  while (prev < now && !last_publish_ns_.compare_exchange_weak(prev, now)) {
  }
}

std::vector<std::vector<double>> MigrationProbe::op_batches() {
  std::lock_guard<std::mutex> lock(mu_);
  return op_batches_;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
