#include "core/rewriter_dml.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rw_latch.h"
#include "common/string_util.h"
#include "engine/expr.h"
#include "sql/ast.h"

namespace pse {

namespace {

/// Column position of attribute `a` in fragment `t`. ToTableSchema emits
/// the ANCHOR KEY as column 0 and the remaining attributes in AttrId order
/// after it — NOT plain AttrId order. The distinction only matters on
/// multi-entity fragments where a parent key has a smaller AttrId than the
/// anchor key (e.g. a book-anchored glossary storing a_id < b_id).
Result<size_t> ColOf(const LogicalSchema& lg, const PhysicalTable& t, AttrId a) {
  AttrId key = lg.entity(t.anchor).key;
  if (a == key) return size_t{0};
  auto it = std::lower_bound(t.attrs.begin(), t.attrs.end(), a);
  if (it == t.attrs.end() || *it != a) {
    return Status::Internal("attribute not stored in fragment '" + t.name + "'");
  }
  size_t idx = static_cast<size_t>(it - t.attrs.begin());
  auto kit = std::lower_bound(t.attrs.begin(), t.attrs.end(), key);
  size_t kidx = static_cast<size_t>(kit - t.attrs.begin());
  // The key left its sorted slot for column 0: attrs before it shift right
  // by one, attrs after it keep their index.
  return idx < kidx ? idx + 1 : idx;
}

/// Inverse of ColOf: the attribute stored at physical column `c` of `t`.
AttrId AttrAtCol(const LogicalSchema& lg, const PhysicalTable& t, size_t c) {
  AttrId key = lg.entity(t.anchor).key;
  if (c == 0) return key;
  size_t i = 0;
  for (AttrId a : t.attrs) {
    if (a == key) continue;
    if (++i == c) return a;
  }
  return kInvalidId;
}

/// Column of the final FK in the chain t.anchor -> e (the FK that references
/// `e` directly). Invariant 4 guarantees it is stored whenever any attribute
/// of `e` is.
Result<size_t> FkColInto(const LogicalSchema& lg, const PhysicalTable& t, EntityId e) {
  PSE_ASSIGN_OR_RETURN(std::vector<AttrId> path, lg.FkPath(t.anchor, e));
  if (path.empty()) return Status::Internal("FK chain into own anchor");
  return ColOf(lg, t, path.back());
}

/// True when the resolution chain from `t.anchor` to `a`'s entity passes
/// through entity `via` (a write invalidating `via`'s row therefore
/// invalidates this column).
bool ChainVisits(const LogicalSchema& lg, const PhysicalTable& t, AttrId a, EntityId via) {
  EntityId target = lg.attr(a).entity;
  if (target == t.anchor || target == via) return false;
  auto path = lg.FkPath(t.anchor, target);
  if (!path.ok()) return false;
  for (AttrId fk : *path) {
    if (lg.attr(fk).references && *lg.attr(fk).references == via) return true;
  }
  return false;
}

/// (rid, row) of every live tuple in `table` whose `col` SqlEquals `v`.
/// Takes the table's content latch shared for the scan only; callers mutate
/// the collected rids afterwards (the router's write mutex serializes whole
/// statements, so the set cannot change in between).
Result<std::vector<std::pair<Rid, Row>>> MatchRows(Database* db, const std::string& table,
                                                   size_t col, const Value& v) {
  PSE_ASSIGN_OR_RETURN(TableInfo * info, db->GetTable(table));
  std::vector<std::pair<Rid, Row>> out;
  std::shared_lock<SharedMutex> latch(info->latch);
  for (auto it = info->heap->Begin(); !it.AtEnd();) {
    if (col < it.row().size() && it.row()[col].SqlEquals(v)) out.emplace_back(it.rid(), it.row());
    PSE_RETURN_NOT_OK(it.Next());
  }
  return out;
}

/// First row whose `col` SqlEquals `v` and (when `want_col` is set) whose
/// `*want_col` is non-NULL; values only.
Result<std::optional<Row>> FindFirst(Database* db, const std::string& table, size_t col,
                                     const Value& v, std::optional<size_t> want_col) {
  PSE_ASSIGN_OR_RETURN(TableInfo * info, db->GetTable(table));
  std::shared_lock<SharedMutex> latch(info->latch);
  for (auto it = info->heap->Begin(); !it.AtEnd();) {
    const Row& row = it.row();
    if (col < row.size() && row[col].SqlEquals(v) &&
        (!want_col || (*want_col < row.size() && !row[*want_col].is_null()))) {
      return std::optional<Row>(row);
    }
    PSE_RETURN_NOT_OK(it.Next());
  }
  return std::optional<Row>();
}

/// Everything a ladder lookup needs. `schema` is the ground-truth layout the
/// values are read from — the *current* schema even while dual-applying onto
/// migration targets.
struct ResolveCtx {
  Database* db = nullptr;
  const PhysicalSchema* schema = nullptr;
  const ProvenanceStore* prov = nullptr;
  const std::map<AttrId, Value>* provided = nullptr;  ///< statement values
};

Result<Value> ResolveEntityAttr(const ResolveCtx& ctx, EntityId e, const Value& key, AttrId a);

/// Does entity row (e, key) exist on the ground-truth schema? True when a
/// fragment anchored at `e` holds the keyed row, when any covering row
/// carries the entity's key column non-NULL (dangling references keep it
/// NULL), or when the provenance store has the row.
Result<bool> EntityRowExists(const ResolveCtx& ctx, EntityId e, const Value& key) {
  if (key.is_null()) return false;
  const LogicalSchema& lg = *ctx.schema->logical();
  AttrId key_attr = lg.entity(e).key;
  for (const PhysicalTable& t : ctx.schema->tables()) {
    if (!t.Contains(key_attr)) continue;
    PSE_ASSIGN_OR_RETURN(size_t kc, ColOf(lg, t, key_attr));
    PSE_ASSIGN_OR_RETURN(auto row, FindFirst(ctx.db, t.name, kc, key, std::nullopt));
    if (row.has_value()) return true;
  }
  if (ctx.prov && key.type() == TypeId::kInt64 && ctx.prov->Has(e, key.AsInt())) return true;
  return false;
}

/// The resolution ladder (header comment): anchored fragment, sibling row,
/// provenance, statement-provided value, NULL.
Result<Value> ResolveEntityAttr(const ResolveCtx& ctx, EntityId e, const Value& key, AttrId a) {
  const LogicalSchema& lg = *ctx.schema->logical();
  const LogicalAttribute& attr = lg.attr(a);
  Value null = Value::Null(attr.type);
  if (key.is_null()) return null;
  if (attr.is_key) {
    PSE_ASSIGN_OR_RETURN(bool exists, EntityRowExists(ctx, e, key));
    return exists ? key : null;
  }
  auto placed = ctx.schema->TableOfNonKeyAttr(a);
  if (placed.ok()) {
    const PhysicalTable& t = ctx.schema->tables()[*placed];
    PSE_ASSIGN_OR_RETURN(size_t kc, ColOf(lg, t, lg.entity(e).key));
    PSE_ASSIGN_OR_RETURN(size_t ac, ColOf(lg, t, a));
    // Anchored fragment: the keyed row. Denormalized: any sibling row that
    // references the same entity row (keyed on the entity's key column, so
    // dangling rows never contribute) and has the value.
    PSE_ASSIGN_OR_RETURN(
        auto row, FindFirst(ctx.db, t.name, kc, key,
                            t.anchor == e ? std::nullopt : std::optional<size_t>(ac)));
    if (row.has_value()) return (*row)[ac];
  }
  if (ctx.prov && key.type() == TypeId::kInt64) {
    auto v = ctx.prov->Get(e, key.AsInt(), a);
    if (v.has_value()) return *v;
  }
  if (ctx.provided) {
    auto it = ctx.provided->find(a);
    if (it != ctx.provided->end()) return it->second;
  }
  return null;
}

/// Key of entity `to` as seen from row (from, from_key), following the FK
/// chain through stored values (overridden by statement values when given).
/// NULL when any hop is NULL or dangling.
Result<Value> ResolveChainKey(const ResolveCtx& ctx, EntityId from, const Value& from_key,
                              EntityId to, const std::map<AttrId, Value>* overrides) {
  if (from == to) return from_key;
  const LogicalSchema& lg = *ctx.schema->logical();
  PSE_ASSIGN_OR_RETURN(std::vector<AttrId> path, lg.FkPath(from, to));
  EntityId cur = from;
  Value cur_key = from_key;
  for (AttrId fk : path) {
    if (cur_key.is_null()) return Value::Null(TypeId::kInt64);
    Value v;
    auto ov = overrides ? overrides->find(fk) : std::map<AttrId, Value>::const_iterator{};
    if (overrides && ov != overrides->end()) {
      v = ov->second;
    } else {
      PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(ctx, cur, cur_key, fk));
    }
    cur = *lg.attr(fk).references;
    cur_key = v;
  }
  return cur_key;
}

Result<Value> CastForColumn(const Value& v, const Column& col) {
  if (v.is_null()) return Value::Null(col.type);
  return v.CastTo(col.type);
}

}  // namespace

// ---------------------------------------------------------------------------
// LogicalDml / FragmentWrite display
// ---------------------------------------------------------------------------

const char* FragmentWriteOpName(FragmentWriteOp op) {
  switch (op) {
    case FragmentWriteOp::kAnchorInsert: return "anchor-insert";
    case FragmentWriteOp::kKeyedUpdate: return "keyed-update";
    case FragmentWriteOp::kKeyedDelete: return "keyed-delete";
    case FragmentWriteOp::kFanUpdate: return "fan-update";
    case FragmentWriteOp::kFanClear: return "fan-clear";
    case FragmentWriteOp::kParentMerge: return "parent-merge";
  }
  return "?";
}

std::string LogicalDml::ToString() const {
  std::string s = std::string(DmlKindName(kind)) + " " + table.name + " key=" + std::to_string(key);
  for (size_t i = 0; i < set_attrs.size(); ++i) {
    s += (i == 0 ? " set " : ", ") + std::to_string(set_attrs[i]) + "=" +
         (i < set_values.size() ? set_values[i].ToString() : "?");
  }
  return s;
}

// ---------------------------------------------------------------------------
// RewriteDml: statement -> fan-out plan
// ---------------------------------------------------------------------------

namespace {

struct PlanCtx {
  const PhysicalSchema* schema = nullptr;
  const LogicalSchema* lg = nullptr;
  const LogicalDml* dml = nullptr;
  std::map<AttrId, Value> provided;
};

/// Fragment indexes anchored at `e`, in table order.
std::vector<size_t> AnchoredAt(const PhysicalSchema& schema, EntityId e) {
  std::vector<size_t> out;
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    if (schema.tables()[i].anchor == e) out.push_back(i);
  }
  return out;
}

/// The merge fan-out for entity `e` keyed by `match` (unset => resolved via
/// the FK chain at apply time): one full-row merge per fragment anchored at
/// `e`, one dangling-repair per fragment that denormalizes `e`'s attributes
/// under a descendant anchor. `attrs_of_e` restricts which attribute columns
/// the repairs touch (the merge-create rows always cover every column).
Status PlanMergesFor(const PlanCtx& p, EntityId e, std::optional<Value> match,
                     std::vector<FragmentWrite>* out) {
  const PhysicalSchema& schema = *p.schema;
  const LogicalSchema& lg = *p.lg;
  AttrId key_attr = lg.entity(e).key;
  for (size_t i : AnchoredAt(schema, e)) {
    const PhysicalTable& t = schema.tables()[i];
    FragmentWrite w;
    w.op = FragmentWriteOp::kParentMerge;
    w.table_idx = i;
    w.table = t.name;
    w.entity = e;
    w.resolve_match = !match.has_value();
    if (match) w.match_value = *match;
    w.row.assign(t.attrs.size(), Value());
    for (size_t c = 0; c < t.attrs.size(); ++c) {
      AttrId a = AttrAtCol(lg, t, c);
      if (a == key_attr) continue;  // filled with the resolved key
      w.resolve_cols.push_back(c);
      w.resolve_attrs.push_back(a);
    }
    out->push_back(std::move(w));
  }
  // Dangling-repair fragments: unique placements of e's non-key attributes
  // under some other anchor.
  std::vector<size_t> repair_tables;
  for (AttrId a : lg.entity(e).attributes) {
    if (lg.attr(a).is_key) continue;
    auto placed = schema.TableOfNonKeyAttr(a);
    if (!placed.ok()) continue;  // is_new attribute without storage yet
    if (schema.tables()[*placed].anchor == e) continue;
    if (std::find(repair_tables.begin(), repair_tables.end(), *placed) == repair_tables.end()) {
      repair_tables.push_back(*placed);
    }
  }
  for (size_t i : repair_tables) {
    const PhysicalTable& t = schema.tables()[i];
    FragmentWrite w;
    w.op = FragmentWriteOp::kParentMerge;
    w.table_idx = i;
    w.table = t.name;
    w.entity = e;
    w.resolve_match = !match.has_value();
    if (match) w.match_value = *match;
    PSE_ASSIGN_OR_RETURN(w.match_col, FkColInto(lg, t, e));
    PSE_ASSIGN_OR_RETURN(size_t kc, ColOf(lg, t, key_attr));
    w.cols.push_back(kc);        // the entity key column (repaired to the key)
    w.values.push_back(Value());  // placeholder; apply writes the resolved key
    for (AttrId a : lg.entity(e).attributes) {
      if (lg.attr(a).is_key || !t.Contains(a)) continue;
      if (lg.attr(a).entity != e) continue;
      PSE_ASSIGN_OR_RETURN(size_t c, ColOf(lg, t, a));
      w.cols.push_back(c);
      w.values.push_back(Value());
      w.resolve_cols.push_back(c);
      w.resolve_attrs.push_back(a);
    }
    out->push_back(std::move(w));
  }
  return Status::OK();
}

Status PlanInsert(const PlanCtx& p, BoundDml* out) {
  const PhysicalSchema& schema = *p.schema;
  const LogicalSchema& lg = *p.lg;
  EntityId anchor = p.dml->table.anchor;
  Value key = Value::Int(p.dml->key);

  // Parent entities the statement provides attribute values for: created
  // (existing wins) before the anchor rows so the ladder can see them.
  std::vector<EntityId> parents;
  for (AttrId a : p.dml->set_attrs) {
    EntityId e = lg.attr(a).entity;
    if (e == anchor) continue;
    if (std::find(parents.begin(), parents.end(), e) == parents.end()) parents.push_back(e);
  }
  for (EntityId parent : parents) {
    PSE_RETURN_NOT_OK(PlanMergesFor(p, parent, std::nullopt, &out->writes));
  }
  // The statement's own entity: merge semantics for every fragment that
  // denormalizes it (repairs rows that referenced the key before it existed;
  // provenance when nothing stores it), plus a plain insert per fragment
  // anchored at it.
  PSE_RETURN_NOT_OK(PlanMergesFor(p, anchor, key, &out->writes));
  // PlanMergesFor covers anchored fragments via kParentMerge full-row
  // creates; rewrite those as kAnchorInsert so the plan names the intent
  // (and tests can tell the two apart).
  for (FragmentWrite& w : out->writes) {
    if (w.entity == anchor && schema.tables()[w.table_idx].anchor == anchor) {
      w.op = FragmentWriteOp::kAnchorInsert;
    }
  }
  return Status::OK();
}

Status PlanUpdate(const PlanCtx& p, BoundDml* out) {
  const PhysicalSchema& schema = *p.schema;
  const LogicalSchema& lg = *p.lg;
  EntityId anchor = p.dml->table.anchor;
  Value key = Value::Int(p.dml->key);

  // Group assignments by placement fragment, anchor-entity attributes first
  // (FK updates must land before parent rows are located through them).
  struct Group {
    size_t table_idx = 0;
    EntityId entity = kInvalidId;
    std::vector<AttrId> attrs;
    std::vector<Value> values;
  };
  std::vector<Group> groups;
  auto group_for = [&](size_t table_idx, EntityId e) -> Group& {
    for (Group& g : groups) {
      if (g.table_idx == table_idx && g.entity == e) return g;
    }
    groups.push_back(Group{table_idx, e, {}, {}});
    return groups.back();
  };
  for (size_t i = 0; i < p.dml->set_attrs.size(); ++i) {
    AttrId a = p.dml->set_attrs[i];
    PSE_ASSIGN_OR_RETURN(size_t placed, schema.TableOfNonKeyAttr(a));
    Group& g = group_for(placed, lg.attr(a).entity);
    g.attrs.push_back(a);
    g.values.push_back(p.dml->set_values[i]);
  }
  std::stable_sort(groups.begin(), groups.end(), [&](const Group& a, const Group& b) {
    return (a.entity == anchor) > (b.entity == anchor);
  });

  for (const Group& g : groups) {
    const PhysicalTable& t = schema.tables()[g.table_idx];
    FragmentWrite w;
    w.table_idx = g.table_idx;
    w.table = t.name;
    w.entity = g.entity;
    // Rows representing entity row (entity, key): matched on the entity's
    // key column wherever it is stored — the anchored fragment's primary
    // key, or the denormalized copy (dangling rows keep it NULL and are
    // correctly left alone).
    PSE_ASSIGN_OR_RETURN(w.match_col, ColOf(lg, t, lg.entity(g.entity).key));
    w.op = t.anchor == g.entity ? FragmentWriteOp::kKeyedUpdate : FragmentWriteOp::kFanUpdate;
    if (g.entity == anchor) {
      w.match_value = key;
    } else {
      w.resolve_match = true;  // parent key via the (possibly updated) chain
    }
    for (size_t i = 0; i < g.attrs.size(); ++i) {
      PSE_ASSIGN_OR_RETURN(size_t c, ColOf(lg, t, g.attrs[i]));
      w.cols.push_back(c);
      w.values.push_back(g.values[i]);
    }
    out->writes.push_back(std::move(w));
  }
  return Status::OK();
}

Status PlanDelete(const PlanCtx& p, BoundDml* out) {
  const PhysicalSchema& schema = *p.schema;
  const LogicalSchema& lg = *p.lg;
  EntityId anchor = p.dml->table.anchor;
  Value key = Value::Int(p.dml->key);
  AttrId key_attr = lg.entity(anchor).key;

  for (size_t i : AnchoredAt(schema, anchor)) {
    const PhysicalTable& t = schema.tables()[i];
    FragmentWrite w;
    w.op = FragmentWriteOp::kKeyedDelete;
    w.table_idx = i;
    w.table = t.name;
    w.entity = anchor;
    PSE_ASSIGN_OR_RETURN(w.match_col, ColOf(lg, t, key_attr));
    w.match_value = key;
    out->writes.push_back(std::move(w));
  }
  // Fan-out: NULL the entity's columns (key + attributes) out of fragments
  // that denormalize it, along with every column whose resolution chain
  // passes through the deleted row (its grandparents become unreachable).
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    if (t.anchor == anchor || !t.Contains(key_attr)) continue;
    FragmentWrite w;
    w.op = FragmentWriteOp::kFanClear;
    w.table_idx = i;
    w.table = t.name;
    w.entity = anchor;
    PSE_ASSIGN_OR_RETURN(w.match_col, ColOf(lg, t, key_attr));
    w.match_value = key;
    for (size_t c = 0; c < t.attrs.size(); ++c) {
      AttrId a = AttrAtCol(lg, t, c);
      bool own = lg.attr(a).entity == anchor;
      if (own || ChainVisits(lg, t, a, anchor)) {
        w.cols.push_back(c);
        w.values.push_back(Value::Null(lg.attr(a).type));
      }
    }
    out->writes.push_back(std::move(w));
  }
  return Status::OK();
}

}  // namespace

Result<BoundDml> RewriteDml(const LogicalDml& dml, const PhysicalSchema& schema) {
  if (dml.kind == DmlKind::kSelect) {
    return Status::InvalidArgument("RewriteDml handles INSERT/UPDATE/DELETE; use RewriteQuery");
  }
  if (dml.set_attrs.size() != dml.set_values.size()) {
    return Status::InvalidArgument("DML assignment attrs/values arity mismatch");
  }
  for (AttrId a : dml.set_attrs) {
    if (!std::binary_search(dml.table.attrs.begin(), dml.table.attrs.end(), a)) {
      return Status::InvalidArgument("attribute #" + std::to_string(a) +
                                     " is not part of version table '" + dml.table.name + "'");
    }
  }
  // Servability agrees with the static analyzer by construction: the same
  // classification decides both (tests/core/rewriter_dml_test.cc).
  auto cells = ClassifyVersionTable(dml.table, schema);
  const WritabilityCell& cell = cells[static_cast<size_t>(dml.kind)];
  if (cell.level == Writability::kUnservable) {
    return Status::BindError(std::string(DmlKindName(dml.kind)) + " on '" + dml.table.name +
                             "' unservable: " + cell.detail);
  }

  BoundDml out;
  out.dml = dml;
  out.level = cell.level;
  PlanCtx p;
  p.schema = &schema;
  p.lg = schema.logical();
  p.dml = &dml;
  for (size_t i = 0; i < dml.set_attrs.size(); ++i) p.provided[dml.set_attrs[i]] = dml.set_values[i];
  switch (dml.kind) {
    case DmlKind::kInsert:
      PSE_RETURN_NOT_OK(PlanInsert(p, &out));
      break;
    case DmlKind::kUpdate:
      PSE_RETURN_NOT_OK(PlanUpdate(p, &out));
      break;
    case DmlKind::kDelete:
      PSE_RETURN_NOT_OK(PlanDelete(p, &out));
      break;
    case DmlKind::kSelect:
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ProvenanceStore
// ---------------------------------------------------------------------------

void ProvenanceStore::Put(EntityId entity, int64_t key, AttrId attr, const Value& v) {
  std::lock_guard<Mutex> lock(mu_);
  rows_[{entity, key}][attr] = v;
}

void ProvenanceStore::EnsureRow(EntityId entity, int64_t key) {
  std::lock_guard<Mutex> lock(mu_);
  rows_.try_emplace({entity, key});
}

std::optional<Value> ProvenanceStore::Get(EntityId entity, int64_t key, AttrId attr) const {
  std::lock_guard<Mutex> lock(mu_);
  auto row = rows_.find({entity, key});
  if (row == rows_.end()) return std::nullopt;
  auto v = row->second.find(attr);
  if (v == row->second.end()) return std::nullopt;
  return v->second;
}

bool ProvenanceStore::Has(EntityId entity, int64_t key) const {
  std::lock_guard<Mutex> lock(mu_);
  return rows_.count({entity, key}) > 0;
}

void ProvenanceStore::Erase(EntityId entity, int64_t key) {
  std::lock_guard<Mutex> lock(mu_);
  rows_.erase({entity, key});
}

std::vector<std::pair<int64_t, std::map<AttrId, Value>>> ProvenanceStore::RowsOf(
    EntityId entity) const {
  std::lock_guard<Mutex> lock(mu_);
  std::vector<std::pair<int64_t, std::map<AttrId, Value>>> out;
  for (auto it = rows_.lower_bound({entity, INT64_MIN});
       it != rows_.end() && it->first.first == entity; ++it) {
    out.emplace_back(it->first.second, it->second);
  }
  return out;
}

size_t ProvenanceStore::NumRows() const {
  std::lock_guard<Mutex> lock(mu_);
  return rows_.size();
}

// ---------------------------------------------------------------------------
// DmlRouter
// ---------------------------------------------------------------------------

DmlRouter::DmlRouter(Database* db, ProvenanceStore* provenance)
    : db_(db), provenance_(provenance ? provenance : &owned_provenance_) {
  write_mu_.LockdepRegister("dmlrouter", kLockRankDmlRouter, /*allows_io=*/true);
}

DmlRouter::TargetState* DmlRouter::FindTarget(const std::string& table) {
  if (after_ == nullptr) return nullptr;
  for (TargetState& t : targets_) {
    if (t.table == table) return &t;
  }
  return nullptr;
}

Status DmlRouter::AttachOp(const PhysicalSchema* after, std::vector<TargetState> targets) {
  std::lock_guard<Mutex> lock(write_mu_);
  after_ = after;
  targets_ = std::move(targets);
  return Status::OK();
}

Status DmlRouter::RebuildKeys() {
  std::lock_guard<Mutex> lock(write_mu_);
  for (TargetState& t : targets_) {
    t.keys.clear();
    auto info = db_->GetTable(t.table);
    if (!info.ok()) continue;  // fresh path: target not created yet
    std::shared_lock<SharedMutex> latch((*info)->latch);
    for (auto it = (*info)->heap->Begin(); !it.AtEnd();) {
      if (t.key_col < it.row().size() && !it.row()[t.key_col].is_null()) {
        t.keys.insert(it.row()[t.key_col]);
      }
      PSE_RETURN_NOT_OK(it.Next());
    }
  }
  return Status::OK();
}

void DmlRouter::DetachOp() {
  std::lock_guard<Mutex> lock(write_mu_);
  after_ = nullptr;
  targets_.clear();
}

bool DmlRouter::attached() const { return after_ != nullptr; }

Status DmlRouter::BackfillProvenance() {
  if (after_ == nullptr) return Status::OK();
  PSE_LOCKDEP_SCOPE("DmlRouter::BackfillProvenance");
  std::lock_guard<Mutex> lock(write_mu_);
  const LogicalSchema& lg = *after_->logical();
  for (TargetState& ts : targets_) {
    const PhysicalTable& t = after_->tables()[ts.after_idx];
    EntityId e = t.anchor;
    AttrId key_attr = lg.entity(e).key;
    auto schema = after_->ToTableSchema(ts.after_idx);
    for (const auto& [key, attrs] : provenance_->RowsOf(e)) {
      Value kv = Value::Int(key);
      if (ts.keys.count(kv) > 0) continue;
      Row row(t.attrs.size());
      for (size_t c = 0; c < t.attrs.size(); ++c) {
        AttrId a = AttrAtCol(lg, t, c);
        Value v = Value::Null(lg.attr(a).type);
        if (a == key_attr) {
          v = kv;
        } else {
          auto found = attrs.find(a);
          if (found != attrs.end()) v = found->second;
        }
        PSE_ASSIGN_OR_RETURN(row[c], CastForColumn(v, schema.column(c)));
      }
      PSE_RETURN_NOT_OK(db_->Insert(ts.table, row).status());
      ts.keys.insert(kv);
      MigrationJournal* j = db_->mutable_migration_journal();
      if (j->active && ts.journal_idx < j->targets.size()) {
        ++j->targets[ts.journal_idx].dest_rows;
      }
      ++stats_.fragment_writes;
    }
  }
  return Status::OK();
}

Status DmlRouter::Execute(const LogicalDml& dml, const PhysicalSchema& current,
                          const DmlExecOptions&) {
  PSE_LOCKDEP_SCOPE("DmlRouter::Execute");
  // Rewriting is pure; only the applies need the statement-scope mutex.
  // BindError (unservable on the live schema) surfaces before any lock so
  // callers can count it without contending.
  PSE_ASSIGN_OR_RETURN(BoundDml bound, RewriteDml(dml, current));

  std::lock_guard<Mutex> lock(write_mu_);
  std::map<AttrId, Value> provided;
  for (size_t i = 0; i < dml.set_attrs.size(); ++i) provided[dml.set_attrs[i]] = dml.set_values[i];
  ResolveCtx ctx{db_, &current, provenance_, &provided};

  // Entity-level statement guards: UPDATE/DELETE of a row that does not
  // exist is a no-op; INSERT of an existing key is ignored (idempotent under
  // retries and under the dual-apply replay).
  PSE_ASSIGN_OR_RETURN(bool exists,
                       EntityRowExists(ctx, dml.table.anchor, Value::Int(dml.key)));
  if (dml.kind == DmlKind::kInsert ? exists : !exists) {
    ++stats_.statements;
    return Status::OK();
  }

  std::map<EntityId, bool> parent_exists;

  if (dml.kind == DmlKind::kInsert) {
    // Bare rows first: an entity row the statement creates but no fragment
    // will anchor must exist in the provenance store before the fan-out
    // resolves key and attribute columns through it — otherwise a new child
    // row would carry the parent's attributes with a NULL parent key. This
    // covers the statement's own entity (a schema that stores it only
    // denormalized) and every parent entity the statement provides values
    // for. `parent_exists` snapshots the pre-statement answer so the merge
    // writes below still see it (existing wins must not be fooled by the
    // provenance rows this very statement writes).
    const LogicalSchema& lg = *current.logical();
    auto bare_write = [&](EntityId e, const Value& pk) {
      provenance_->EnsureRow(e, pk.AsInt());
      for (size_t i = 0; i < dml.set_attrs.size(); ++i) {
        const LogicalAttribute& attr = lg.attr(dml.set_attrs[i]);
        if (attr.entity != e || attr.is_key) continue;
        provenance_->Put(e, pk.AsInt(), dml.set_attrs[i], dml.set_values[i]);
        ++stats_.provenance_rows;
      }
    };
    bool anchor_anchored = false;
    for (const PhysicalTable& t : current.tables()) {
      if (t.anchor == dml.table.anchor) anchor_anchored = true;
    }
    if (!anchor_anchored) bare_write(dml.table.anchor, Value::Int(dml.key));
    for (size_t i = 0; i < dml.set_attrs.size(); ++i) {
      EntityId e = lg.attr(dml.set_attrs[i]).entity;
      if (e == dml.table.anchor || parent_exists.count(e) > 0) continue;
      PSE_ASSIGN_OR_RETURN(
          Value pk, ResolveChainKey(ctx, dml.table.anchor, Value::Int(dml.key), e, &provided));
      if (pk.is_null() || pk.type() != TypeId::kInt64) continue;
      PSE_ASSIGN_OR_RETURN(bool pexists, EntityRowExists(ctx, e, pk));
      parent_exists[e] = pexists;
      if (pexists) continue;
      bool parent_anchored = false;
      for (const PhysicalTable& t : current.tables()) {
        if (t.anchor == e) parent_anchored = true;
      }
      // With an anchored fragment the merge-create stores the row
      // physically; provenance is only the bare-row fallback.
      if (!parent_anchored) bare_write(e, pk);
    }
  }

  PSE_RETURN_NOT_OK(
      ApplyBound(bound, current, current, parent_exists, /*dest_mode=*/false));
  if (after_ != nullptr) {
    // Always-dual-apply: the statement lands on the post-op layout too,
    // restricted to the journal targets (shared tables already got it).
    PSE_ASSIGN_OR_RETURN(BoundDml bound_after, RewriteDml(dml, *after_));
    PSE_RETURN_NOT_OK(ApplyBound(bound_after, *after_, current, parent_exists,
                                 /*dest_mode=*/true));
    ++stats_.dual_applied;
  }
  if (dml.kind == DmlKind::kDelete) {
    provenance_->Erase(dml.table.anchor, dml.key);
  }
  ++stats_.statements;
  return Status::OK();
}

Status DmlRouter::ApplyBound(const BoundDml& bound, const PhysicalSchema& schema,
                             const PhysicalSchema& truth,
                             const std::map<EntityId, bool>& parent_exists,
                             bool dest_mode) {
  const LogicalSchema& lg = *schema.logical();
  std::map<AttrId, Value> provided;
  for (size_t i = 0; i < bound.dml.set_attrs.size(); ++i) {
    provided[bound.dml.set_attrs[i]] = bound.dml.set_values[i];
  }
  if (bound.dml.kind == DmlKind::kInsert) {
    // Existing wins, end to end: when a parent row pre-existed, the merge is
    // skipped AND the statement's values for that parent's attributes must
    // not leak into the new anchor row through the ladder's provided rung —
    // the child carries the parent's actual values (NULL if unknown).
    for (auto it = provided.begin(); it != provided.end();) {
      EntityId e = lg.attr(it->first).entity;
      auto known = parent_exists.find(e);
      if (e != bound.dml.table.anchor && known != parent_exists.end() && known->second) {
        it = provided.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The ladder always reads the *current* schema's data (`truth`) — during
  // dual-apply the source side stays authoritative until the operator
  // publishes, so dest writes resolve against it, not the post-op layout.
  ResolveCtx ctx{db_, &truth, provenance_, &provided};

  MigrationJournal* j = db_->mutable_migration_journal();
  auto bump_dest = [&](TargetState* ts, int64_t delta) {
    if (ts == nullptr || !j->active || ts->journal_idx >= j->targets.size()) return;
    uint64_t& n = j->targets[ts->journal_idx].dest_rows;
    n = delta >= 0 ? n + static_cast<uint64_t>(delta)
                   : n - std::min(n, static_cast<uint64_t>(-delta));
  };

  // Per-entity memo of (chain key, merge decision) so the merge writes of
  // one entity share a single create-vs-skip decision.
  struct MergeState {
    Value key;
    bool skip = false;  // entity already exists (existing wins)
  };
  std::map<EntityId, MergeState> merges;

  for (const FragmentWrite& w : bound.writes) {
    TargetState* ts = dest_mode ? FindTarget(w.table) : nullptr;
    if (dest_mode && ts == nullptr) continue;  // shared table: already applied
    // AttachOp precedes phase kCreateTargets, so a statement can land while
    // a target has no physical table yet. Skipping its dest write is
    // lossless: that target's copy hasn't started (batches serialize on the
    // write mutex) and will read the source side, which this statement just
    // updated.
    if (dest_mode && !db_->GetTable(w.table).ok()) continue;
    const PhysicalTable& frag = schema.tables()[w.table_idx];
    TableSchema frag_schema = schema.ToTableSchema(w.table_idx);

    // Resolve the row-match key (anchor key, or parent key via the chain).
    Value match = w.match_value;
    if (w.resolve_match) {
      PSE_ASSIGN_OR_RETURN(match, ResolveChainKey(ctx, bound.dml.table.anchor,
                                                  Value::Int(bound.dml.key), w.entity, &provided));
    }

    switch (w.op) {
      case FragmentWriteOp::kAnchorInsert:
      case FragmentWriteOp::kParentMerge: {
        if (match.is_null()) break;  // unreachable parent: nothing to merge
        MergeState* ms = nullptr;
        if (w.op == FragmentWriteOp::kParentMerge) {
          auto [it, fresh] = merges.try_emplace(w.entity);
          ms = &it->second;
          if (fresh) {
            ms->key = match;
            if (!dest_mode && w.entity != bound.dml.table.anchor) {
              // Existing wins: a parent row that already exists keeps its
              // values. Execute snapshots the answer before it writes the
              // bare-parent provenance rows; a live-check here would see the
              // statement's own provenance and always skip.
              auto known = parent_exists.find(w.entity);
              if (known != parent_exists.end()) {
                ms->skip = known->second;
              } else {
                PSE_ASSIGN_OR_RETURN(bool pexists, EntityRowExists(ctx, w.entity, match));
                ms->skip = pexists;
              }
            }
          }
          if (ms->skip) break;
        }
        if (frag.anchor == w.entity) {
          // Merge-create / anchor insert: one full row, ladder-resolved.
          if (dest_mode) {
            if (ts->keys.count(match) > 0) break;  // already on the dest side
          }
          Row row = w.row;
          row.resize(frag.attrs.size());
          AttrId key_attr = lg.entity(w.entity).key;
          for (size_t c = 0; c < frag.attrs.size(); ++c) {
            if (AttrAtCol(lg, frag, c) == key_attr) row[c] = match;
          }
          for (size_t i = 0; i < w.resolve_cols.size(); ++i) {
            AttrId a = w.resolve_attrs[i];
            EntityId ae = lg.attr(a).entity;
            Value v;
            if (ae == w.entity) {
              PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(ctx, ae, match, a));
            } else {
              PSE_ASSIGN_OR_RETURN(Value pk, ResolveChainKey(ctx, w.entity, match, ae, &provided));
              PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(ctx, ae, pk, a));
            }
            row[w.resolve_cols[i]] = v;
          }
          for (size_t c = 0; c < row.size(); ++c) {
            PSE_ASSIGN_OR_RETURN(row[c], CastForColumn(row[c], frag_schema.column(c)));
          }
          PSE_RETURN_NOT_OK(db_->Insert(w.table, row).status());
          ++stats_.fragment_writes;
          if (dest_mode) {
            ts->keys.insert(match);
            bump_dest(ts, 1);
          }
        } else {
          // Dangling repair: rows that referenced this key before the row
          // existed get its key column and values filled in.
          PSE_ASSIGN_OR_RETURN(auto rows, MatchRows(db_, w.table, w.match_col, match));
          for (auto& [rid, row] : rows) {
            AttrId key_attr = lg.entity(w.entity).key;
            Row next = row;
            for (size_t i = 0; i < w.cols.size(); ++i) {
              size_t c = w.cols[i];
              Value v = AttrAtCol(lg, frag, c) == key_attr ? match : w.values[i];
              // Attribute columns resolve through the ladder so an existing
              // row's values win over the statement's.
              for (size_t r = 0; r < w.resolve_cols.size(); ++r) {
                if (w.resolve_cols[r] == c) {
                  PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(ctx, w.entity, match, w.resolve_attrs[r]));
                  break;
                }
              }
              PSE_ASSIGN_OR_RETURN(next[c], CastForColumn(v, frag_schema.column(c)));
            }
            PSE_RETURN_NOT_OK(db_->Update(w.table, rid, next).status());
            ++stats_.fragment_writes;
          }
        }
        break;
      }

      case FragmentWriteOp::kKeyedUpdate:
      case FragmentWriteOp::kFanUpdate: {
        if (match.is_null()) break;
        // Updating an FK refreshes every denormalized column that resolves
        // through it (the parent swap changes what the row denormalizes).
        // The refresh reads the parent's ACTUAL values — never the
        // statement's: those land via the parent's own update group, which
        // only runs when the parent row exists. A provided rung here would
        // smear statement values onto rows whose new parent is dangling.
        ResolveCtx refresh_ctx = ctx;
        refresh_ctx.provided = nullptr;
        std::vector<size_t> cols = w.cols;
        std::vector<Value> values = w.values;
        for (size_t i = 0; i < w.cols.size(); ++i) {
          AttrId fa = AttrAtCol(lg, frag, w.cols[i]);
          if (!lg.attr(fa).references) continue;
          EntityId q = *lg.attr(fa).references;
          Value qk = values[i];
          for (size_t c = 0; c < frag.attrs.size(); ++c) {
            AttrId a = AttrAtCol(lg, frag, c);
            EntityId ae = lg.attr(a).entity;
            bool depends = (ae == q && a != fa) || ChainVisits(lg, frag, a, q);
            if (!depends || std::find(cols.begin(), cols.end(), c) != cols.end()) continue;
            Value v;
            if (ae == q) {
              if (lg.attr(a).is_key) {
                PSE_ASSIGN_OR_RETURN(bool exists, EntityRowExists(refresh_ctx, q, qk));
                v = exists ? qk : Value::Null(lg.attr(a).type);
              } else {
                PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(refresh_ctx, q, qk, a));
              }
            } else {
              PSE_ASSIGN_OR_RETURN(Value pk, ResolveChainKey(refresh_ctx, q, qk, ae, nullptr));
              if (lg.attr(a).is_key) {
                PSE_ASSIGN_OR_RETURN(bool exists, EntityRowExists(refresh_ctx, ae, pk));
                v = exists ? pk : Value::Null(lg.attr(a).type);
              } else {
                PSE_ASSIGN_OR_RETURN(v, ResolveEntityAttr(refresh_ctx, ae, pk, a));
              }
            }
            cols.push_back(c);
            values.push_back(v);
          }
        }
        PSE_ASSIGN_OR_RETURN(auto rows, MatchRows(db_, w.table, w.match_col, match));
        for (auto& [rid, row] : rows) {
          Row next = row;
          for (size_t i = 0; i < cols.size(); ++i) {
            PSE_ASSIGN_OR_RETURN(next[cols[i]], CastForColumn(values[i], frag_schema.column(cols[i])));
          }
          PSE_RETURN_NOT_OK(db_->Update(w.table, rid, next).status());
          ++stats_.fragment_writes;
        }
        // A row that lives only in provenance (no covering rows) is updated
        // there; and provenance copies are kept fresh either way.
        if (!dest_mode && match.type() == TypeId::kInt64 &&
            provenance_->Has(w.entity, match.AsInt())) {
          for (size_t i = 0; i < w.cols.size(); ++i) {
            AttrId a = AttrAtCol(lg, frag, w.cols[i]);
            if (lg.attr(a).entity != w.entity) continue;
            provenance_->Put(w.entity, match.AsInt(), a, w.values[i]);
            ++stats_.provenance_rows;
          }
        }
        break;
      }

      case FragmentWriteOp::kKeyedDelete: {
        PSE_ASSIGN_OR_RETURN(auto rows, MatchRows(db_, w.table, w.match_col, match));
        for (auto& [rid, row] : rows) {
          if (!dest_mode) {
            // Snapshot parent values this row is the storage of — the
            // provenance rows the combine lens class calls for.
            for (size_t c = 0; c < frag.attrs.size(); ++c) {
              AttrId a = AttrAtCol(lg, frag, c);
              const LogicalAttribute& attr = lg.attr(a);
              if (attr.entity == w.entity || attr.is_key) continue;
              auto kc = ColOf(lg, frag, lg.entity(attr.entity).key);
              if (!kc.ok() || (*kc) >= row.size()) continue;
              const Value& pk = row[*kc];
              if (pk.is_null() || pk.type() != TypeId::kInt64) continue;
              provenance_->EnsureRow(attr.entity, pk.AsInt());
              if (!row[c].is_null()) {
                provenance_->Put(attr.entity, pk.AsInt(), a, row[c]);
                ++stats_.provenance_rows;
              }
            }
          }
          PSE_RETURN_NOT_OK(db_->Delete(w.table, rid));
          ++stats_.fragment_writes;
          if (dest_mode) bump_dest(ts, -1);
        }
        // A later INSERT of the same key must reach the dest again.
        if (dest_mode) ts->keys.erase(match);
        break;
      }

      case FragmentWriteOp::kFanClear: {
        PSE_ASSIGN_OR_RETURN(auto rows, MatchRows(db_, w.table, w.match_col, match));
        for (auto& [rid, row] : rows) {
          Row next = row;
          for (size_t i = 0; i < w.cols.size(); ++i) next[w.cols[i]] = w.values[i];
          PSE_RETURN_NOT_OK(db_->Update(w.table, rid, next).status());
          ++stats_.fragment_writes;
        }
        break;
      }
    }
  }

  return Status::OK();
}

// ---------------------------------------------------------------------------
// SqlDmlBridge: parsed SQL -> LogicalDml
// ---------------------------------------------------------------------------

namespace {

std::string Unqualify(const std::string& n) {
  size_t dot = n.find('.');
  return dot == std::string::npos ? n : n.substr(dot + 1);
}

/// Lifts `WHERE <key> = <literal>` (either operand order) to the key value.
Result<int64_t> LiftKeyEq(const Expr* where, const std::string& key_name,
                          const std::string& table) {
  const Status reject = Status::InvalidArgument(
      "version-table DML on '" + table + "' must address one row as WHERE " + key_name +
      " = <literal>");
  const auto* cmp = dynamic_cast<const CompareExpr*>(where);
  if (cmp == nullptr || cmp->op() != CompareOp::kEq) return reject;
  const auto* col = dynamic_cast<const ColumnRefExpr*>(cmp->left());
  const auto* lit = dynamic_cast<const ConstantExpr*>(cmp->right());
  if (col == nullptr || lit == nullptr) {
    col = dynamic_cast<const ColumnRefExpr*>(cmp->right());
    lit = dynamic_cast<const ConstantExpr*>(cmp->left());
  }
  if (col == nullptr || lit == nullptr) return reject;
  if (!EqualsIgnoreCase(Unqualify(col->name()), key_name)) return reject;
  PSE_ASSIGN_OR_RETURN(Value key, lit->value().CastTo(TypeId::kInt64));
  if (key.is_null()) return reject;
  return key.AsInt();
}

}  // namespace

const VersionTable* SqlDmlBridge::Find(const std::string& name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t.name, name)) return &t;
  }
  return nullptr;
}

Result<std::shared_ptr<const PhysicalSchema>> SqlDmlBridge::Snapshot() const {
  std::shared_ptr<const PhysicalSchema> schema = current_ ? current_() : nullptr;
  if (schema == nullptr) {
    return Status::Internal("SqlDmlBridge has no current schema snapshot");
  }
  return schema;
}

Result<bool> SqlDmlBridge::OnInsert(const InsertStmt& stmt, uint64_t* affected) {
  const VersionTable* vt = Find(stmt.table);
  if (vt == nullptr) return false;
  PSE_ASSIGN_OR_RETURN(std::shared_ptr<const PhysicalSchema> schema, Snapshot());
  const LogicalSchema& lg = *schema->logical();
  const AttrId key_attr = lg.entity(vt->anchor).key;
  const std::string& key_name = lg.attr(key_attr).name;

  // Resolve the column list; kInvalidId marks the key column. An empty list
  // is positional: key first, then the version table's attributes in order.
  std::vector<AttrId> cols;
  if (stmt.columns.empty()) {
    cols.push_back(kInvalidId);
    cols.insert(cols.end(), vt->attrs.begin(), vt->attrs.end());
  } else {
    for (const auto& c : stmt.columns) {
      std::string n = Unqualify(c);
      if (EqualsIgnoreCase(n, key_name)) {
        cols.push_back(kInvalidId);
        continue;
      }
      bool found = false;
      for (AttrId a : vt->attrs) {
        if (EqualsIgnoreCase(lg.attr(a).name, n)) {
          cols.push_back(a);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("column '" + c + "' is not part of version table '" +
                                       vt->name + "'");
      }
    }
  }

  uint64_t done = 0;
  for (const auto& literals : stmt.rows) {
    if (literals.size() != cols.size()) {
      return Status::InvalidArgument("INSERT arity mismatch: got " +
                                     std::to_string(literals.size()) + ", want " +
                                     std::to_string(cols.size()));
    }
    LogicalDml dml;
    dml.kind = DmlKind::kInsert;
    dml.table = *vt;
    bool have_key = false;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == kInvalidId) {
        PSE_ASSIGN_OR_RETURN(Value key, literals[i].CastTo(TypeId::kInt64));
        if (key.is_null()) {
          return Status::ConstraintViolation("key column '" + key_name + "' may not be NULL");
        }
        dml.key = key.AsInt();
        have_key = true;
      } else {
        dml.set_attrs.push_back(cols[i]);
        dml.set_values.push_back(literals[i]);
      }
    }
    if (!have_key) {
      return Status::InvalidArgument("INSERT into version table '" + vt->name +
                                     "' must provide the key column '" + key_name + "'");
    }
    PSE_RETURN_NOT_OK(router_->Execute(dml, *schema));
    ++done;
  }
  *affected = done;
  return true;
}

Result<bool> SqlDmlBridge::OnUpdate(const UpdateStmt& stmt, uint64_t* affected) {
  const VersionTable* vt = Find(stmt.table);
  if (vt == nullptr) return false;
  PSE_ASSIGN_OR_RETURN(std::shared_ptr<const PhysicalSchema> schema, Snapshot());
  const LogicalSchema& lg = *schema->logical();
  const AttrId key_attr = lg.entity(vt->anchor).key;
  const std::string& key_name = lg.attr(key_attr).name;
  if (stmt.where == nullptr) {
    return Status::InvalidArgument("version-table UPDATE on '" + vt->name +
                                   "' requires WHERE " + key_name + " = <literal>");
  }
  LogicalDml dml;
  dml.kind = DmlKind::kUpdate;
  dml.table = *vt;
  PSE_ASSIGN_OR_RETURN(dml.key, LiftKeyEq(stmt.where.get(), key_name, vt->name));
  for (const auto& [col, expr] : stmt.assignments) {
    const auto* lit = dynamic_cast<const ConstantExpr*>(expr.get());
    if (lit == nullptr) {
      return Status::InvalidArgument(
          "version-table UPDATE assignments must be literals (entity-level writes)");
    }
    std::string n = Unqualify(col);
    if (EqualsIgnoreCase(n, key_name)) {
      return Status::InvalidArgument("updating the key of version table '" + vt->name +
                                     "' is not supported");
    }
    bool found = false;
    for (AttrId a : vt->attrs) {
      if (EqualsIgnoreCase(lg.attr(a).name, n)) {
        dml.set_attrs.push_back(a);
        dml.set_values.push_back(lit->value());
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("column '" + col + "' is not part of version table '" +
                                     vt->name + "'");
    }
  }
  PSE_RETURN_NOT_OK(router_->Execute(dml, *schema));
  *affected = 1;
  return true;
}

Result<bool> SqlDmlBridge::OnDelete(const DeleteStmt& stmt, uint64_t* affected) {
  const VersionTable* vt = Find(stmt.table);
  if (vt == nullptr) return false;
  PSE_ASSIGN_OR_RETURN(std::shared_ptr<const PhysicalSchema> schema, Snapshot());
  const LogicalSchema& lg = *schema->logical();
  const std::string& key_name = lg.attr(lg.entity(vt->anchor).key).name;
  if (stmt.where == nullptr) {
    return Status::InvalidArgument("version-table DELETE on '" + vt->name +
                                   "' requires WHERE " + key_name + " = <literal>");
  }
  LogicalDml dml;
  dml.kind = DmlKind::kDelete;
  dml.table = *vt;
  PSE_ASSIGN_OR_RETURN(dml.key, LiftKeyEq(stmt.where.get(), key_name, vt->name));
  PSE_RETURN_NOT_OK(router_->Execute(dml, *schema));
  *affected = 1;
  return true;
}

}  // namespace pse
