#include "engine/vec_executor.h"

#include "common/lock_registry.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/agg_state.h"

namespace pse {

namespace {

/// Projects `in` onto source columns `idxs` without touching individual
/// values: whole column vectors are moved when a source column is used
/// exactly once (copied otherwise) and `in`'s selection vector, if any,
/// transfers to `out` unchanged — physical indices are column-independent,
/// so narrowing survives the projection for free. `in` is left hollow;
/// callers Reset() it before reuse.
void GatherColumns(TupleBatch* in, const std::vector<size_t>& idxs, TupleBatch* out) {
  const size_t phys = in->num_rows();
  // No reservation: every column is replaced wholesale below.
  out->Reset(idxs.size(), 0);
  for (size_t j = 0; j < idxs.size(); ++j) {
    size_t uses = 0;
    for (size_t k : idxs) {
      if (k == idxs[j]) ++uses;
    }
    if (uses == 1) {
      out->col(j) = std::move(in->col(idxs[j]));
    } else {
      out->col(j) = in->col(idxs[j]);
    }
  }
  out->SetNumRows(phys);
  if (in->has_sel()) out->SetSel(in->sel());
}

/// Collects the resolved positions of every ColumnRef under `e` into `out`.
/// Returns false (collector output unusable) on an unresolved reference or a
/// node kind this walker does not know, in which case the caller must assume
/// every column is referenced.
bool CollectColumnPositions(const Expr& e, std::vector<size_t>* out) {
  if (const auto* col = dynamic_cast<const ColumnRefExpr*>(&e)) {
    if (!col->resolved()) return false;
    out->push_back(col->position());
    return true;
  }
  if (dynamic_cast<const ConstantExpr*>(&e) != nullptr) return true;
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&e)) {
    return CollectColumnPositions(*cmp->left(), out) &&
           CollectColumnPositions(*cmp->right(), out);
  }
  if (const auto* logic = dynamic_cast<const LogicExpr*>(&e)) {
    return CollectColumnPositions(*logic->left(), out) &&
           CollectColumnPositions(*logic->right(), out);
  }
  if (const auto* arith = dynamic_cast<const ArithExpr*>(&e)) {
    return CollectColumnPositions(*arith->left(), out) &&
           CollectColumnPositions(*arith->right(), out);
  }
  if (const auto* neg = dynamic_cast<const NotExpr*>(&e)) {
    return CollectColumnPositions(*neg->child(), out);
  }
  if (const auto* like = dynamic_cast<const LikeExpr*>(&e)) {
    return CollectColumnPositions(*like->child(), out);
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&e)) {
    return CollectColumnPositions(*isnull->child(), out);
  }
  if (const auto* in = dynamic_cast<const InListExpr*>(&e)) {
    return CollectColumnPositions(*in->child(), out);
  }
  return false;
}

class SeqScanVecExecutor : public VecExecutor {
 public:
  SeqScanVecExecutor(const PlanNode& plan, TableInfo* table, const ExecOptions& options)
      : VecExecutor(options), plan_(plan), table_(table) {}

  Status Init() override {
    if (plan_.scan_filter) {
      PSE_ASSIGN_OR_RETURN(filter_, ExprVecExecutor::Create(*plan_.scan_filter));
    }
    // Column pruning: decode only what the projection or the pushed-down
    // filter touches. Skipped columns (often wide varchars) never leave the
    // page and are never allocated.
    const size_t width = table_->schema->columns().size();
    needed_ = plan_.scan_column_idxs;
    if (plan_.scan_filter && !CollectColumnPositions(*plan_.scan_filter, &needed_)) {
      needed_.resize(width);
      for (size_t i = 0; i < width; ++i) needed_[i] = i;
    }
    std::sort(needed_.begin(), needed_.end());
    needed_.erase(std::unique(needed_.begin(), needed_.end()), needed_.end());
    // Shared content latch per batch, not per execution: the same
    // discipline (and lockdep rank) as the migration copy loop, so a serve
    // lane never nests table latches on the writer-preferring SharedMutex.
    std::shared_lock<SharedMutex> lock(table_->latch);
    it_ = table_->heap->Begin();
    // Batches never need more room than the table has rows; the live count
    // is only a reservation hint (a concurrent insert just grows a column).
    reserve_rows_ =
        std::min<size_t>(options_.batch_rows, std::max<uint64_t>(table_->row_count, 1));
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    const size_t width = table_->schema->columns().size();
    while (!it_.AtEnd()) {
      full_.Reset(width, 0);
      cols_.clear();
      for (size_t c : needed_) {
        full_.col(c).reserve(reserve_rows_);
        cols_.push_back(&full_.col(c));
      }
      size_t filled = 0;
      {
        std::shared_lock<SharedMutex> batch_lock(table_->latch);
        PSE_ASSIGN_OR_RETURN(filled,
                             it_.FillBatchColumns(options_.batch_rows, needed_, cols_));
      }
      if (filled == 0) return false;
      // Pruned columns stay empty; only `needed_` positions are readable,
      // which covers the filter and the gather below.
      full_.SetNumRows(filled);
      if (filter_.valid()) {
        PSE_RETURN_NOT_OK(filter_.EvalSelect(full_, &sel_));
        if (sel_.empty()) continue;  // all-filtered batch: keep scanning
        full_.SetSel(std::move(sel_));
      }
      GatherColumns(&full_, plan_.scan_column_idxs, out);
      return true;
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  TableHeap::Iterator it_;
  ExprVecExecutor filter_;
  std::vector<size_t> needed_;
  size_t reserve_rows_ = 0;
  std::vector<std::vector<Value>*> cols_;
  TupleBatch full_;
  std::vector<uint32_t> sel_;
};

/// Fetches `rid` from `table` and, if it passes `plan.scan_filter`, appends
/// its `plan.scan_column_idxs` values to `out`'s columns from `first_col` on.
/// The caller holds the table's shared latch across the index probe that
/// produced `rid` and this fetch, so the rid cannot go stale in between.
Result<bool> AppendIndexedRow(const PlanNode& plan, const TableInfo& table,
                              const Rid& rid, Row* scratch, TupleBatch* out,
                              size_t first_col) {
  PSE_RETURN_NOT_OK(table.heap->Get(rid, scratch));
  if (plan.scan_filter) {
    PSE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*plan.scan_filter, *scratch));
    if (!pass) return false;
  }
  for (size_t c = 0; c < plan.scan_column_idxs.size(); ++c) {
    out->col(first_col + c).push_back((*scratch)[plan.scan_column_idxs[c]]);
  }
  return true;
}

class IndexScanVecExecutor : public VecExecutor {
 public:
  IndexScanVecExecutor(const PlanNode& plan, TableInfo* table, const BPlusTree* tree,
                       const ExecOptions& options)
      : VecExecutor(options), plan_(plan), table_(table), tree_(tree) {}

  Status Init() override {
    next_lo_ = plan_.lo.value_or(INT64_MIN);
    done_ = false;
    return Status::OK();
  }

  // Each batch probes the next run of whole keys (about batch_rows row ids)
  // and fetches their rows under one shared latch, so a write between
  // batches cannot leave a probed rid pointing at a deleted or moved row.
  Result<bool> InternalNext(TupleBatch* out) override {
    const int64_t hi = plan_.hi.value_or(INT64_MAX);
    while (!done_) {
      out->Reset(plan_.scan_column_idxs.size(), 0);
      size_t kept = 0;
      std::optional<int64_t> resume;
      {
        std::shared_lock<SharedMutex> batch_lock(table_->latch);
        rids_.clear();
        PSE_RETURN_NOT_OK(
            tree_->ScanRange(next_lo_, hi, options_.batch_rows, &rids_, &resume));
        for (size_t j = 0; j < out->num_cols(); ++j) out->col(j).reserve(rids_.size());
        for (const Rid& rid : rids_) {
          PSE_ASSIGN_OR_RETURN(bool kept_row,
                               AppendIndexedRow(plan_, *table_, rid, &row_, out, 0));
          if (kept_row) ++kept;
        }
      }
      done_ = !resume.has_value();
      if (resume) next_lo_ = *resume;
      if (kept == 0) continue;
      out->SetNumRows(kept);
      return true;
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  const BPlusTree* tree_;
  int64_t next_lo_ = 0;
  bool done_ = false;
  std::vector<Rid> rids_;
  Row row_;
};

class FilterVecExecutor : public VecExecutor {
 public:
  FilterVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child,
                    const ExecOptions& options)
      : VecExecutor(options), plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_ASSIGN_OR_RETURN(pred_, ExprVecExecutor::Create(*plan_.predicate));
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      // Narrow the selection vector in place: no Value moves.
      PSE_RETURN_NOT_OK(pred_.EvalSelect(*out, &sel_));
      if (sel_.empty()) continue;  // all-filtered batch: pull the next one
      out->SetSel(std::move(sel_));
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  ExprVecExecutor pred_;
  std::vector<uint32_t> sel_;
};

class ProjectVecExecutor : public VecExecutor {
 public:
  static constexpr size_t kNotPassThrough = static_cast<size_t>(-1);

  ProjectVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child,
                     const ExecOptions& options)
      : VecExecutor(options), plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    pass_pos_.assign(plan_.projections.size(), kNotPassThrough);
    evals_.clear();
    evals_.resize(plan_.projections.size());
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      const Expr& e = *plan_.projections[j];
      if (const auto* col = dynamic_cast<const ColumnRefExpr*>(&e); col != nullptr &&
                                                                    col->resolved()) {
        pass_pos_[j] = col->position();
        continue;
      }
      PSE_ASSIGN_OR_RETURN(evals_[j], ExprVecExecutor::Create(e));
    }
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&in_));
    if (!has) return false;
    // Keep the child's physical layout and selection vector: computed
    // expressions land at their physical positions, pass-through columns
    // move wholesale, and no value is copied for narrowing.
    const size_t phys = in_.num_rows();
    const size_t live = in_.size();
    // No reservation: computed columns are sized below, pass-through
    // columns are replaced wholesale.
    out->Reset(plan_.projections.size(), 0);
    // Computed columns first — they read `in_` columns that the
    // pass-through moves below would hollow out.
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      if (pass_pos_[j] != kNotPassThrough) continue;
      const std::vector<Value>* vals = nullptr;
      PSE_RETURN_NOT_OK(evals_[j].Eval(in_, &vals));
      auto& dst = out->col(j);
      dst.resize(phys);
      for (size_t i = 0; i < live; ++i) {
        const size_t p = in_.SelIndex(i);
        dst[p] = (*vals)[p];
      }
    }
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      if (pass_pos_[j] == kNotPassThrough) continue;
      size_t uses = 0;
      for (size_t k : pass_pos_) {
        if (k == pass_pos_[j]) ++uses;
      }
      if (uses == 1) {
        out->col(j) = std::move(in_.col(pass_pos_[j]));
      } else {
        out->col(j) = in_.col(pass_pos_[j]);
      }
    }
    out->SetNumRows(phys);
    if (in_.has_sel()) out->SetSel(in_.sel());
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::vector<size_t> pass_pos_;
  std::vector<ExprVecExecutor> evals_;
  TupleBatch in_;
};

class HashJoinVecExecutor : public VecExecutor {
 public:
  HashJoinVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> build,
                      std::unique_ptr<VecExecutor> probe, const ExecOptions& options)
      : VecExecutor(options), plan_(plan), build_(std::move(build)), probe_(std::move(probe)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(build_->Init());
    PSE_RETURN_NOT_OK(probe_->Init());
    build_width_ = plan_.children[0]->output_columns.size();
    probe_width_ = plan_.children[1]->output_columns.size();
    table_.clear();
    // Drain the build side completely before the probe side pulls its
    // first batch, so the two scans never hold table latches concurrently.
    TupleBatch batch;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, build_->Next(&batch));
      if (!has) break;
      const size_t n = batch.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = batch.SelIndex(i);
        const Value& key = batch.At(plan_.left_key_pos, p);
        if (key.is_null()) continue;  // NULL never joins
        table_[key].push_back(batch.RowAt(p));
      }
    }
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, probe_->Next(&probe_batch_));
      if (!has) return false;
      out->Reset(build_width_ + probe_width_, probe_batch_.size());
      size_t emitted = 0;
      const size_t n = probe_batch_.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = probe_batch_.SelIndex(i);
        const Value& key = probe_batch_.At(plan_.right_key_pos, p);
        if (key.is_null()) continue;
        auto it = table_.find(key);
        if (it == table_.end()) continue;
        for (const Row& build_row : it->second) {
          for (size_t c = 0; c < build_width_; ++c) out->col(c).push_back(build_row[c]);
          for (size_t c = 0; c < probe_width_; ++c) {
            out->col(build_width_ + c).push_back(probe_batch_.At(c, p));
          }
          ++emitted;
        }
      }
      if (emitted == 0) continue;
      out->SetNumRows(emitted);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> build_;
  std::unique_ptr<VecExecutor> probe_;
  std::unordered_map<Value, std::vector<Row>, ValueHash, ValueEq> table_;
  TupleBatch probe_batch_;
  size_t build_width_ = 0;
  size_t probe_width_ = 0;
};

class IndexNLJoinVecExecutor : public VecExecutor {
 public:
  IndexNLJoinVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> outer,
                         TableInfo* inner, const BPlusTree* tree, const ExecOptions& options)
      : VecExecutor(options), plan_(plan), outer_(std::move(outer)), inner_(inner),
        tree_(tree) {}

  Status Init() override {
    outer_width_ = plan_.children[0]->output_columns.size();
    return outer_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    Row inner_full;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_batch_));
      if (!has) return false;
      out->Reset(outer_width_ + plan_.scan_column_idxs.size(), outer_batch_.size());
      size_t emitted = 0;
      const size_t n = outer_batch_.size();
      // The outer child released its own latches when the batch returned;
      // the inner probe is the only table latch this frame holds.
      std::shared_lock<SharedMutex> inner_lock(inner_->latch);
      for (size_t i = 0; i < n; ++i) {
        const size_t p = outer_batch_.SelIndex(i);
        const Value& key = outer_batch_.At(plan_.left_key_pos, p);
        if (key.is_null() || key.type() != TypeId::kInt64) continue;
        rids_.clear();
        PSE_RETURN_NOT_OK(tree_->ScanEqual(key.AsInt(), &rids_));
        for (const Rid& rid : rids_) {
          PSE_ASSIGN_OR_RETURN(bool pass, AppendIndexedRow(plan_, *inner_, rid, &inner_full,
                                                           out, outer_width_));
          if (!pass) continue;
          for (size_t c = 0; c < outer_width_; ++c) {
            out->col(c).push_back(outer_batch_.At(c, p));
          }
          ++emitted;
        }
      }
      if (emitted == 0) continue;
      out->SetNumRows(emitted);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> outer_;
  TableInfo* inner_;
  const BPlusTree* tree_;
  TupleBatch outer_batch_;
  std::vector<Rid> rids_;
  size_t outer_width_ = 0;
};

class DistinctVecExecutor : public VecExecutor {
 public:
  DistinctVecExecutor(std::unique_ptr<VecExecutor> child, const ExecOptions& options)
      : VecExecutor(options), child_(std::move(child)) {}

  Status Init() override {
    seen_.clear();
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      sel_.clear();
      const size_t n = out->size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = out->SelIndex(i);
        if (seen_.insert(out->RowAt(p)).second) sel_.push_back(static_cast<uint32_t>(p));
      }
      if (sel_.empty()) continue;
      out->SetSel(std::move(sel_));
      return true;
    }
  }

 private:
  std::unique_ptr<VecExecutor> child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  std::vector<uint32_t> sel_;
};

class AggregateVecExecutor : public VecExecutor {
 public:
  AggregateVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child,
                       const ExecOptions& options)
      : VecExecutor(options), plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    groups_.clear();
    order_.clear();
    bool saw_any = false;
    TupleBatch batch;
    Row key;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      const size_t n = batch.size();
      if (n > 0) saw_any = true;
      for (size_t i = 0; i < n; ++i) {
        const size_t p = batch.SelIndex(i);
        key.clear();
        key.reserve(plan_.group_by_pos.size());
        for (size_t g : plan_.group_by_pos) key.push_back(batch.At(g, p));
        auto [it, fresh] = groups_.try_emplace(key, std::vector<AggState>(plan_.aggs.size()));
        if (fresh) order_.push_back(key);
        for (size_t a = 0; a < plan_.aggs.size(); ++a) {
          const PlanAggSpec& spec = plan_.aggs[a];
          AggState& st = it->second[a];
          if (spec.func == AggFunc::kCountStar) {
            ++st.count;
            continue;
          }
          const Value& v = batch.At(spec.arg_pos, p);
          if (v.is_null()) continue;
          AggAccumulate(spec.func, v, &st);
        }
      }
    }
    // Scalar aggregate over an empty input still yields one row.
    if (!saw_any && plan_.group_by_pos.empty()) {
      Row empty_key;
      groups_.try_emplace(empty_key, std::vector<AggState>(plan_.aggs.size()));
      order_.push_back(empty_key);
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= order_.size()) return false;
    const size_t width = plan_.group_by_pos.size() + plan_.aggs.size();
    const size_t take = std::min(options_.batch_rows, order_.size() - pos_);
    out->Reset(width, take);
    Row row;
    for (size_t i = 0; i < take; ++i, ++pos_) {
      const Row& key = order_[pos_];
      const std::vector<AggState>& states = groups_.at(key);
      row.clear();
      row.reserve(width);
      row.insert(row.end(), key.begin(), key.end());
      for (size_t a = 0; a < plan_.aggs.size(); ++a) {
        PSE_ASSIGN_OR_RETURN(Value v, AggFinalize(plan_.aggs[a].func, states[a]));
        row.push_back(std::move(v));
      }
      out->AppendRow(std::move(row));
    }
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq> groups_;
  std::vector<Row> order_;  // first-seen group order (deterministic output)
  size_t pos_ = 0;
};

class SortVecExecutor : public VecExecutor {
 public:
  SortVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child,
                  const ExecOptions& options)
      : VecExecutor(options), plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    rows_.clear();
    TupleBatch batch;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      batch.EmitRows(&rows_);
    }
    // Stable over the child's batch order, which is heap order — ties break
    // deterministically under Sort+Limit.
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

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= rows_.size()) return false;
    const size_t width = rows_[pos_].size();
    const size_t take = std::min(options_.batch_rows, rows_.size() - pos_);
    out->Reset(width, take);
    for (size_t i = 0; i < take; ++i, ++pos_) out->AppendRow(std::move(rows_[pos_]));
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class LimitVecExecutor : public VecExecutor {
 public:
  LimitVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child,
                   const ExecOptions& options)
      : VecExecutor(options), plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    remaining_ = plan_.limit_n < 0 ? 0 : static_cast<size_t>(plan_.limit_n);
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (remaining_ == 0) return false;
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    if (out->size() > remaining_) {
      std::vector<uint32_t> sel;
      sel.reserve(remaining_);
      for (size_t i = 0; i < remaining_; ++i) {
        sel.push_back(static_cast<uint32_t>(out->SelIndex(i)));
      }
      out->SetSel(std::move(sel));
    }
    remaining_ -= out->size();
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  size_t remaining_ = 0;
};

}  // namespace

Result<std::unique_ptr<VecExecutor>> BuildVecExecutor(const PlanNode& plan, Database* db,
                                                      const ExecOptions& options) {
  switch (plan.kind) {
    case PlanNode::Kind::kSeqScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      return std::unique_ptr<VecExecutor>(new SeqScanVecExecutor(plan, t, options));
    }
    case PlanNode::Kind::kIndexScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<VecExecutor>(
          new IndexScanVecExecutor(plan, t, idx->tree.get(), options));
    }
    case PlanNode::Kind::kFilter: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(new FilterVecExecutor(plan, std::move(child), options));
    }
    case PlanNode::Kind::kProject: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(
          new ProjectVecExecutor(plan, std::move(child), options));
    }
    case PlanNode::Kind::kHashJoin: {
      PSE_ASSIGN_OR_RETURN(auto build, BuildVecExecutor(*plan.children[0], db, options));
      PSE_ASSIGN_OR_RETURN(auto probe, BuildVecExecutor(*plan.children[1], db, options));
      return std::unique_ptr<VecExecutor>(
          new HashJoinVecExecutor(plan, std::move(build), std::move(probe), options));
    }
    case PlanNode::Kind::kIndexNLJoin: {
      PSE_ASSIGN_OR_RETURN(auto outer, BuildVecExecutor(*plan.children[0], db, options));
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<VecExecutor>(
          new IndexNLJoinVecExecutor(plan, std::move(outer), t, idx->tree.get(), options));
    }
    case PlanNode::Kind::kDistinct: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(new DistinctVecExecutor(std::move(child), options));
    }
    case PlanNode::Kind::kAggregate: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(
          new AggregateVecExecutor(plan, std::move(child), options));
    }
    case PlanNode::Kind::kSort: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(new SortVecExecutor(plan, std::move(child), options));
    }
    case PlanNode::Kind::kLimit: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db, options));
      return std::unique_ptr<VecExecutor>(new LimitVecExecutor(plan, std::move(child), options));
    }
  }
  return Status::Internal("unknown plan node kind");
}

Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db,
                                     const ExecOptions& options) {
  PSE_LOCKDEP_SCOPE("ExecutePlan");
  // No whole-execution table latches here: every scan takes its table's
  // shared latch per batch (see vec_executor.h), so the engine sees each
  // table in batch-consistent snapshots exactly like the copy loop.
  PSE_ASSIGN_OR_RETURN(auto exec, BuildVecExecutor(plan, db, options));
  PSE_RETURN_NOT_OK(exec->Init());
  std::vector<Row> rows;
  TupleBatch batch;
  while (true) {
    PSE_ASSIGN_OR_RETURN(bool has, exec->Next(&batch));
    if (!has) break;
    batch.EmitRows(&rows);
  }
  return rows;
}

}  // namespace pse
