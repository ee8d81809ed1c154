#include "tests/reference/row_engine.h"

#include "common/lock_registry.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "engine/agg_state.h"

namespace pse::reference {

namespace {

/// \brief Pull-based plan operator.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Prepares the operator (may consume blocking inputs, e.g. sort/agg).
  virtual Status Init() = 0;
  /// Produces the next row into `out`; returns false at end of stream.
  virtual Result<bool> Next(Row* out) = 0;
};

/// Projects the positions in `idxs` out of `in`.
Row ProjectRow(const Row& in, const std::vector<size_t>& idxs) {
  Row out;
  out.reserve(idxs.size());
  for (size_t i : idxs) out.push_back(in[i]);
  return out;
}

class SeqScanExecutor : public Executor {
 public:
  SeqScanExecutor(const PlanNode& plan, TableInfo* table) : plan_(plan), table_(table) {}

  Status Init() override {
    it_ = table_->heap->Begin();
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (!it_.AtEnd()) {
      const Row& full = it_.row();
      bool pass = true;
      if (plan_.scan_filter) {
        PSE_ASSIGN_OR_RETURN(pass, EvalPredicate(*plan_.scan_filter, full));
      }
      if (pass) {
        *out = ProjectRow(full, plan_.scan_column_idxs);
        PSE_RETURN_NOT_OK(it_.Next());
        return true;
      }
      PSE_RETURN_NOT_OK(it_.Next());
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  TableHeap::Iterator it_;
};

class IndexScanExecutor : public Executor {
 public:
  IndexScanExecutor(const PlanNode& plan, TableInfo* table, const BPlusTree* tree)
      : plan_(plan), table_(table), tree_(tree) {}

  Status Init() override {
    int64_t lo = plan_.lo.value_or(INT64_MIN);
    int64_t hi = plan_.hi.value_or(INT64_MAX);
    rids_.clear();
    pos_ = 0;
    return tree_->ScanRange(lo, hi, &rids_);
  }

  Result<bool> Next(Row* out) override {
    Row full;
    while (pos_ < rids_.size()) {
      PSE_RETURN_NOT_OK(table_->heap->Get(rids_[pos_], &full));
      ++pos_;
      bool pass = true;
      if (plan_.scan_filter) {
        PSE_ASSIGN_OR_RETURN(pass, EvalPredicate(*plan_.scan_filter, full));
      }
      if (pass) {
        *out = ProjectRow(full, plan_.scan_column_idxs);
        return true;
      }
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  const BPlusTree* tree_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

class FilterExecutor : public Executor {
 public:
  FilterExecutor(const PlanNode& plan, std::unique_ptr<Executor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override { return child_->Init(); }

  Result<bool> Next(Row* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      PSE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*plan_.predicate, *out));
      if (pass) return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> child_;
};

class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(const PlanNode& plan, std::unique_ptr<Executor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override { return child_->Init(); }

  Result<bool> Next(Row* out) override {
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&in_));
    if (!has) return false;
    out->clear();
    out->reserve(plan_.projections.size());
    for (const auto& p : plan_.projections) {
      PSE_ASSIGN_OR_RETURN(Value v, p->Eval(in_));
      out->push_back(std::move(v));
    }
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> child_;
  Row in_;
};

class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(const PlanNode& plan, std::unique_ptr<Executor> build,
                   std::unique_ptr<Executor> probe)
      : plan_(plan), build_(std::move(build)), probe_(std::move(probe)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(build_->Init());
    PSE_RETURN_NOT_OK(probe_->Init());
    table_.clear();
    Row row;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, build_->Next(&row));
      if (!has) break;
      const Value& key = row[plan_.left_key_pos];
      if (key.is_null()) continue;  // NULL never joins
      table_[key].push_back(row);
    }
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        const Row& build_row = (*matches_)[match_pos_++];
        out->clear();
        out->reserve(build_row.size() + probe_row_.size());
        out->insert(out->end(), build_row.begin(), build_row.end());
        out->insert(out->end(), probe_row_.begin(), probe_row_.end());
        return true;
      }
      PSE_ASSIGN_OR_RETURN(bool has, probe_->Next(&probe_row_));
      if (!has) return false;
      const Value& key = probe_row_[plan_.right_key_pos];
      matches_ = nullptr;
      if (key.is_null()) continue;
      auto it = table_.find(key);
      if (it != table_.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
      }
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> build_;
  std::unique_ptr<Executor> probe_;
  std::unordered_map<Value, std::vector<Row>, ValueHash, ValueEq> table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

class IndexNLJoinExecutor : public Executor {
 public:
  IndexNLJoinExecutor(const PlanNode& plan, std::unique_ptr<Executor> outer, TableInfo* inner,
                      const BPlusTree* tree)
      : plan_(plan), outer_(std::move(outer)), inner_(inner), tree_(tree) {}

  Status Init() override {
    rids_.clear();
    rid_pos_ = 0;
    return outer_->Init();
  }

  Result<bool> Next(Row* out) override {
    Row inner_full;
    while (true) {
      while (rid_pos_ < rids_.size()) {
        PSE_RETURN_NOT_OK(inner_->heap->Get(rids_[rid_pos_], &inner_full));
        ++rid_pos_;
        bool pass = true;
        if (plan_.scan_filter) {
          PSE_ASSIGN_OR_RETURN(pass, EvalPredicate(*plan_.scan_filter, inner_full));
        }
        if (!pass) continue;
        out->clear();
        out->reserve(outer_row_.size() + plan_.scan_column_idxs.size());
        out->insert(out->end(), outer_row_.begin(), outer_row_.end());
        for (size_t i : plan_.scan_column_idxs) out->push_back(inner_full[i]);
        return true;
      }
      PSE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_row_));
      if (!has) return false;
      rids_.clear();
      rid_pos_ = 0;
      const Value& key = outer_row_[plan_.left_key_pos];
      if (key.is_null() || key.type() != TypeId::kInt64) continue;
      PSE_RETURN_NOT_OK(tree_->ScanEqual(key.AsInt(), &rids_));
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> outer_;
  TableInfo* inner_;
  const BPlusTree* tree_;
  Row outer_row_;
  std::vector<Rid> rids_;
  size_t rid_pos_ = 0;
};

class DistinctExecutor : public Executor {
 public:
  explicit DistinctExecutor(std::unique_ptr<Executor> child) : child_(std::move(child)) {}

  Status Init() override {
    seen_.clear();
    return child_->Init();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      if (seen_.insert(*out).second) return true;
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
};

class AggregateExecutor : public Executor {
 public:
  AggregateExecutor(const PlanNode& plan, std::unique_ptr<Executor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    groups_.clear();
    order_.clear();
    Row row;
    bool saw_any = false;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
      if (!has) break;
      saw_any = true;
      Row key = ProjectRow(row, plan_.group_by_pos);
      auto [it, fresh] = groups_.try_emplace(key, std::vector<AggState>(plan_.aggs.size()));
      if (fresh) order_.push_back(key);
      for (size_t a = 0; a < plan_.aggs.size(); ++a) {
        const PlanAggSpec& spec = plan_.aggs[a];
        AggState& st = it->second[a];
        if (spec.func == AggFunc::kCountStar) {
          ++st.count;
          continue;
        }
        const Value& v = row[spec.arg_pos];
        if (v.is_null()) continue;
        AggAccumulate(spec.func, v, &st);
      }
    }
    // Scalar aggregate over an empty input still yields one row.
    if (!saw_any && plan_.group_by_pos.empty()) {
      Row key;
      groups_.try_emplace(key, std::vector<AggState>(plan_.aggs.size()));
      order_.push_back(key);
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= order_.size()) return false;
    const Row& key = order_[pos_++];
    const std::vector<AggState>& states = groups_.at(key);
    out->clear();
    out->insert(out->end(), key.begin(), key.end());
    for (size_t a = 0; a < plan_.aggs.size(); ++a) {
      PSE_ASSIGN_OR_RETURN(Value v, AggFinalize(plan_.aggs[a].func, states[a]));
      out->push_back(std::move(v));
    }
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> child_;
  std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq> groups_;
  std::vector<Row> order_;  // first-seen group order (deterministic output)
  size_t pos_ = 0;
};

class SortExecutor : public Executor {
 public:
  SortExecutor(const PlanNode& plan, std::unique_ptr<Executor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    rows_.clear();
    Row row;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
      if (!has) break;
      rows_.push_back(row);
    }
    const auto& keys = plan_.sort_keys;
    std::stable_sort(rows_.begin(), rows_.end(), [&keys](const Row& a, const Row& b) {
      for (const auto& k : keys) {
        int c = a[k.pos].Compare(b[k.pos]);
        if (c != 0) return k.desc ? c > 0 : c < 0;
      }
      return false;
    });
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class LimitExecutor : public Executor {
 public:
  LimitExecutor(const PlanNode& plan, std::unique_ptr<Executor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    emitted_ = 0;
    return child_->Init();
  }

  Result<bool> Next(Row* out) override {
    if (emitted_ >= plan_.limit_n) return false;
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    ++emitted_;
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<Executor> child_;
  int64_t emitted_ = 0;
};

/// Builds the row-engine executor tree for a planned query.
Result<std::unique_ptr<Executor>> BuildExecutor(const PlanNode& plan, Database* db) {
  switch (plan.kind) {
    case PlanNode::Kind::kSeqScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      return std::unique_ptr<Executor>(new SeqScanExecutor(plan, t));
    }
    case PlanNode::Kind::kIndexScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<Executor>(new IndexScanExecutor(plan, t, idx->tree.get()));
    }
    case PlanNode::Kind::kFilter: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new FilterExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kProject: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new ProjectExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kHashJoin: {
      PSE_ASSIGN_OR_RETURN(auto build, BuildExecutor(*plan.children[0], db));
      PSE_ASSIGN_OR_RETURN(auto probe, BuildExecutor(*plan.children[1], db));
      return std::unique_ptr<Executor>(
          new HashJoinExecutor(plan, std::move(build), std::move(probe)));
    }
    case PlanNode::Kind::kIndexNLJoin: {
      PSE_ASSIGN_OR_RETURN(auto outer, BuildExecutor(*plan.children[0], db));
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<Executor>(
          new IndexNLJoinExecutor(plan, std::move(outer), t, idx->tree.get()));
    }
    case PlanNode::Kind::kDistinct: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new DistinctExecutor(std::move(child)));
    }
    case PlanNode::Kind::kAggregate: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new AggregateExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kSort: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new SortExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kLimit: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildExecutor(*plan.children[0], db));
      return std::unique_ptr<Executor>(new LimitExecutor(plan, std::move(child)));
    }
  }
  return Status::Internal("unknown plan node kind");
}

/// Collects every base table the plan touches (scans and index-join inners).
void CollectPlanTables(const PlanNode& plan, std::vector<std::string>* out) {
  if (!plan.table.empty()) out->push_back(ToLower(plan.table));
  for (const auto& child : plan.children) CollectPlanTables(*child, out);
}
}  // namespace

Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db) {
  PSE_LOCKDEP_SCOPE("reference::ExecutePlan");
  // Shared content latch on every table the plan reads, held for the whole
  // execution. Sorted + deduped so concurrent executions acquire in one
  // global order (and a self-join never double-locks). Writers
  // (Database::Insert/Delete/Update, the migration copy loop) take these
  // exclusively, so a scan sees each table either before or after any
  // concurrent batch — never a torn page.
  std::vector<std::string> tables;
  CollectPlanTables(plan, &tables);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::vector<std::shared_lock<SharedMutex>> table_locks;
  table_locks.reserve(tables.size());
  for (const auto& name : tables) {
    PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(name));
    table_locks.emplace_back(t->latch);
  }
  PSE_ASSIGN_OR_RETURN(auto exec, BuildExecutor(plan, db));
  PSE_RETURN_NOT_OK(exec->Init());
  std::vector<Row> rows;
  Row row;
  while (true) {
    PSE_ASSIGN_OR_RETURN(bool has, exec->Next(&row));
    if (!has) break;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace pse::reference
