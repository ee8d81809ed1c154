// Write rewriter tests: RewriteDml plan shapes, servability agreement with
// the static writability analyzer, ProvenanceStore semantics, the SQL
// bridge, and the randomized static-schema oracle — every DML statement
// executed through the DmlRouter is mirrored on an entity-level
// LogicalDatabase, and the physical table states must equal a fresh
// materialization of the mirror after every burst (the write-side analogue
// of the rewriter's read invariant).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/writability.h"
#include "common/rng.h"
#include "core/logical_database.h"
#include "core/rewriter_dml.h"
#include "sql/session.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::ExpectStateMatchesMirror;
using testutil::MirrorApply;
using testutil::SameRows;
using testutil::TableRows;

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

const VersionTable* FindTable(const std::vector<VersionTable>& tables, const std::string& name) {
  for (const auto& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

class RewriteDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    old_tables_ = VersionTablesOf(bs_->source);
    new_tables_ = VersionTablesOf(bs_->object);
  }

  LogicalDml MakeDml(DmlKind kind, const VersionTable& t, int64_t key,
                     std::vector<AttrId> attrs = {}, std::vector<Value> values = {}) {
    LogicalDml dml;
    dml.kind = kind;
    dml.table = t;
    dml.key = key;
    dml.set_attrs = std::move(attrs);
    dml.set_values = std::move(values);
    return dml;
  }

  std::unique_ptr<Bookstore> bs_;
  std::vector<VersionTable> old_tables_;
  std::vector<VersionTable> new_tables_;
};

// ---------------------------------------------------------------------------
// Plan shapes
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, InsertOnOwnLayoutIsOneAnchorInsert) {
  const VersionTable* book = FindTable(old_tables_, "book");
  ASSERT_NE(book, nullptr);
  auto bound = RewriteDml(MakeDml(DmlKind::kInsert, *book, 7, {bs_->b_title},
                                  {Value::Varchar("t")}),
                          bs_->source);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->level, Writability::kSafe);
  ASSERT_EQ(bound->writes.size(), 1u);
  EXPECT_EQ(bound->writes[0].op, FragmentWriteOp::kAnchorInsert);
  EXPECT_EQ(bound->writes[0].table, "book");
}

TEST_F(RewriteDmlTest, InsertAcrossCombineFansOutToMergeAndAnchorInsert) {
  // New-version glossary INSERT on the object schema: the author values ride
  // along inside the book row, so the plan must merge the parent (dangling
  // repairs on the denormalized fragment) before the anchor insert.
  const VersionTable* glossary = FindTable(new_tables_, "glossary");
  ASSERT_NE(glossary, nullptr);
  auto bound = RewriteDml(
      MakeDml(DmlKind::kInsert, *glossary, 7, {bs_->b_a_id, bs_->a_name},
              {Value::Int(3), Value::Varchar("a")}),
      bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // One physical table stores the whole version table, so the classifier
  // calls this kSafe — the fan-out below is repair work, not propagation.
  EXPECT_EQ(bound->level, Writability::kSafe);
  bool saw_merge = false;
  bool saw_insert = false;
  size_t insert_pos = 0;
  size_t merge_pos = 0;
  for (size_t i = 0; i < bound->writes.size(); ++i) {
    const FragmentWrite& w = bound->writes[i];
    if (w.op == FragmentWriteOp::kParentMerge && w.entity == bs_->author) {
      saw_merge = true;
      merge_pos = i;
    }
    if (w.op == FragmentWriteOp::kAnchorInsert && w.table == "glossary") {
      saw_insert = true;
      insert_pos = i;
    }
  }
  EXPECT_TRUE(saw_merge);
  ASSERT_TRUE(saw_insert);
  EXPECT_LT(merge_pos, insert_pos) << "parent merges must precede the anchor insert";
}

TEST_F(RewriteDmlTest, UpdateAcrossSplitFansOutToEveryFragment) {
  // Old-version user UPDATE of u_name + u_addr on the object schema lands on
  // both split fragments, each matched on the user key.
  const VersionTable* user = FindTable(old_tables_, "user");
  ASSERT_NE(user, nullptr);
  auto bound = RewriteDml(
      MakeDml(DmlKind::kUpdate, *user, 3, {bs_->u_name, bs_->u_addr},
              {Value::Varchar("n"), Value::Varchar("a")}),
      bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->level, Writability::kNeedsPropagation);
  std::vector<std::string> tables;
  for (const FragmentWrite& w : bound->writes) {
    EXPECT_EQ(w.op, FragmentWriteOp::kKeyedUpdate);
    tables.push_back(w.table);
  }
  std::sort(tables.begin(), tables.end());
  EXPECT_EQ(tables, (std::vector<std::string>{"user_gen", "user_rest"}));
}

TEST_F(RewriteDmlTest, DeleteOfParentEntityPlansFanClears) {
  // Old-version author DELETE on the object schema: no author-anchored
  // fragment exists, so the whole plan is fan-clears on the denormalized
  // glossary rows.
  const VersionTable* author = FindTable(old_tables_, "author");
  ASSERT_NE(author, nullptr);
  auto bound = RewriteDml(MakeDml(DmlKind::kDelete, *author, 2), bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->writes.size(), 1u);
  const FragmentWrite& w = bound->writes[0];
  EXPECT_EQ(w.op, FragmentWriteOp::kFanClear);
  EXPECT_EQ(w.table, "glossary");
  // Cleared columns: the author's own (a_id, a_name, a_bio) but NOT the
  // book's stored FK b_a_id (the book keeps its dangling reference).
  const PhysicalTable& glossary = bs_->object.tables()[w.table_idx];
  for (size_t c : w.cols) {
    EXPECT_NE(glossary.attrs[c], bs_->b_a_id);
  }
  EXPECT_EQ(w.cols.size(), 3u);
}

TEST_F(RewriteDmlTest, MalformedStatementsAreInvalidArgument) {
  const VersionTable* book = FindTable(old_tables_, "book");
  ASSERT_NE(book, nullptr);
  // SELECT kind.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kSelect, *book, 1), bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
  // Arity mismatch.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kUpdate, *book, 1, {bs_->b_title}, {}), bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
  // Attribute outside the version table.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kUpdate, *book, 1, {bs_->u_addr},
                                 {Value::Varchar("x")}),
                         bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Servability agrees with the static analyzer
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, ServabilityAgreesWithClassifyVersionTable) {
  const PhysicalSchema* schemas[] = {&bs_->source, &bs_->object};
  const DmlKind kinds[] = {DmlKind::kInsert, DmlKind::kUpdate, DmlKind::kDelete};
  for (const PhysicalSchema* schema : schemas) {
    for (const auto& tables : {old_tables_, new_tables_}) {
      for (const VersionTable& vt : tables) {
        auto cells = ClassifyVersionTable(vt, *schema);
        for (DmlKind kind : kinds) {
          // Statement touching every attribute of the version table — the
          // shape the classifier's per-table verdict is about.
          std::vector<AttrId> attrs;
          std::vector<Value> values;
          if (kind != DmlKind::kDelete) {
            for (AttrId a : vt.attrs) {
              attrs.push_back(a);
              values.push_back(Value::Null(schema->logical()->attr(a).type));
            }
          }
          auto bound = RewriteDml(MakeDml(kind, vt, 424242, attrs, values), *schema);
          const WritabilityCell& cell = cells[static_cast<size_t>(kind)];
          if (cell.level == Writability::kUnservable) {
            ASSERT_FALSE(bound.ok())
                << vt.name << " " << DmlKindName(kind) << " must be unservable: " << cell.detail;
            EXPECT_TRUE(bound.status().IsBindError()) << bound.status().ToString();
          } else {
            ASSERT_TRUE(bound.ok()) << vt.name << " " << DmlKindName(kind) << ": "
                                    << bound.status().ToString();
            EXPECT_EQ(bound->level, cell.level) << vt.name << " " << DmlKindName(kind);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProvenanceStore
// ---------------------------------------------------------------------------

TEST(ProvenanceStore, PutGetEraseRowsOf) {
  ProvenanceStore store;
  EXPECT_EQ(store.NumRows(), 0u);
  store.EnsureRow(1, 10);
  EXPECT_TRUE(store.Has(1, 10));
  EXPECT_FALSE(store.Get(1, 10, 5).has_value());
  store.Put(1, 10, 5, Value::Varchar("x"));
  store.Put(1, 12, 5, Value::Varchar("y"));
  store.Put(2, 10, 7, Value::Int(3));
  ASSERT_TRUE(store.Get(1, 10, 5).has_value());
  EXPECT_EQ(store.Get(1, 10, 5)->AsString(), "x");
  auto rows = store.RowsOf(1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 10);
  EXPECT_EQ(rows[1].first, 12);
  store.Erase(1, 10);
  EXPECT_FALSE(store.Has(1, 10));
  EXPECT_TRUE(store.Has(2, 10));
  EXPECT_EQ(store.NumRows(), 2u);
}

// ---------------------------------------------------------------------------
// Static-schema behaviour of the router
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, DeleteSnapshotsParentValuesIntoProvenance) {
  // Deleting every book of an author on the object schema destroys the only
  // physical storage of the author's attributes; they must survive in the
  // provenance store and feed the ladder of a later insert.
  auto data = bs_->MakeData(3, 2, 4);
  Database db(1024);
  ASSERT_TRUE(data->Materialize(&db, bs_->object).ok());
  DmlRouter router(&db);
  const VersionTable* glossary = FindTable(new_tables_, "glossary");
  ASSERT_NE(glossary, nullptr);

  // Author 1's books are keys 2 and 3 (MakeData: books_per_author = 2).
  for (int64_t b : {2, 3}) {
    ASSERT_TRUE(router.Execute(MakeDml(DmlKind::kDelete, *glossary, b), bs_->object).ok());
  }
  ASSERT_TRUE(router.provenance()->Has(bs_->author, 1));
  auto name = router.provenance()->Get(bs_->author, 1, bs_->a_name);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->AsString(), "author-1");

  // A new book referencing author 1 resolves the author's values from
  // provenance — no physical row carries them anymore.
  ASSERT_TRUE(router
                  .Execute(MakeDml(DmlKind::kInsert, *glossary, 100,
                                   {bs_->b_title, bs_->b_a_id},
                                   {Value::Varchar("back"), Value::Int(1)}),
                           bs_->object)
                  .ok());
  std::vector<Row> rows = TableRows(&db, "glossary");
  bool found = false;
  auto g_idx = bs_->object.TableByName("glossary");
  ASSERT_TRUE(g_idx.ok());
  TableSchema g_schema = bs_->object.ToTableSchema(*g_idx);
  auto col_of = [&](AttrId a) {
    const std::string& name = bs_->logical.attr(a).name;
    for (size_t c = 0; c < g_schema.num_columns(); ++c) {
      if (g_schema.column(c).name == name) return c;
    }
    ADD_FAILURE() << "no column " << name;
    return size_t{0};
  };
  for (const Row& r : rows) {
    if (r[col_of(bs_->b_id)].SqlEquals(Value::Int(100))) {
      found = true;
      EXPECT_EQ(r[col_of(bs_->a_name)].AsString(), "author-1");
      EXPECT_FALSE(r[col_of(bs_->a_id)].is_null());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(router.stats().provenance_rows, 0u);
  EXPECT_GT(router.stats().fragment_writes, 0u);
}

TEST_F(RewriteDmlTest, InsertAndDeleteAreIdempotent) {
  auto data = bs_->MakeData(2, 2, 3);
  Database db(1024);
  ASSERT_TRUE(data->Materialize(&db, bs_->source).ok());
  DmlRouter router(&db);
  const VersionTable* user = FindTable(old_tables_, "user");
  ASSERT_NE(user, nullptr);

  size_t before = TableRows(&db, "user").size();
  LogicalDml ins = MakeDml(DmlKind::kInsert, *user, 50, {bs_->u_name}, {Value::Varchar("n")});
  ASSERT_TRUE(router.Execute(ins, bs_->source).ok());
  ASSERT_TRUE(router.Execute(ins, bs_->source).ok());  // replay: no-op
  EXPECT_EQ(TableRows(&db, "user").size(), before + 1);

  LogicalDml del = MakeDml(DmlKind::kDelete, *user, 50);
  ASSERT_TRUE(router.Execute(del, bs_->source).ok());
  ASSERT_TRUE(router.Execute(del, bs_->source).ok());  // absent: no-op
  EXPECT_EQ(TableRows(&db, "user").size(), before);
  // Update of an absent row is a no-op, not an error.
  ASSERT_TRUE(router
                  .Execute(MakeDml(DmlKind::kUpdate, *user, 50, {bs_->u_name},
                                   {Value::Varchar("x")}),
                           bs_->source)
                  .ok());
  EXPECT_EQ(TableRows(&db, "user").size(), before);
}

// ---------------------------------------------------------------------------
// Randomized static-schema oracle
// ---------------------------------------------------------------------------

class RewriteDmlOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteDmlOracle, RouterMatchesEntityLevelMirrorOnBothLayouts) {
  auto bs = Bookstore::Make();
  std::vector<VersionTable> old_tables = VersionTablesOf(bs->source);
  std::vector<VersionTable> new_tables = VersionTablesOf(bs->object);
  std::vector<VersionTable> all_tables = old_tables;
  all_tables.insert(all_tables.end(), new_tables.begin(), new_tables.end());

  const PhysicalSchema* schemas[] = {&bs->source, &bs->object};
  for (const PhysicalSchema* schema : schemas) {
    SCOPED_TRACE(schema == &bs->source ? "source schema" : "object schema");
    Rng rng(GetParam() * 131 + (schema == &bs->source ? 0 : 7));
    const LogicalSchema& lg = bs->logical;

    // Mirror and physical database start from the same data.
    auto mirror = bs->MakeData(4, 3, 8);
    Database db(2048);
    ASSERT_TRUE(mirror->Materialize(&db, *schema).ok());
    DmlRouter router(&db);

    auto random_value = [&](AttrId a) -> Value {
      const LogicalAttribute& attr = lg.attr(a);
      if (attr.references.has_value()) {
        // FK: mostly valid parents, sometimes dangling, sometimes NULL.
        if (rng.Bernoulli(0.1)) return Value::Null(TypeId::kInt64);
        return Value::Int(rng.UniformInt(0, 6));
      }
      switch (attr.type) {
        case TypeId::kInt64:
          return Value::Int(rng.UniformInt(-5, 40));
        case TypeId::kDouble:
          return Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0);
        case TypeId::kVarchar:
          return Value::Varchar("v" + std::to_string(rng.UniformInt(0, 999)));
        case TypeId::kBoolean:
          return Value::Bool(rng.Bernoulli(0.5));
      }
      return Value::Null(attr.type);
    };

    uint64_t applied = 0;
    uint64_t unservable = 0;
    for (int iter = 0; iter < 120; ++iter) {
      const VersionTable& vt = all_tables[rng.Index(all_tables.size())];
      LogicalDml dml;
      double roll = rng.UniformDouble();
      dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
      dml.table = vt;
      // Keys overlap the MakeData ranges so existing/missing rows both occur.
      dml.key = rng.UniformInt(0, 24);
      if (dml.kind != DmlKind::kDelete) {
        for (AttrId a : vt.attrs) {
          if (!rng.Bernoulli(0.6)) continue;
          dml.set_attrs.push_back(a);
          dml.set_values.push_back(random_value(a));
        }
      }

      Status s = router.Execute(dml, *schema);
      if (s.IsBindError()) {
        ++unservable;
        continue;  // unservable on this layout; the mirror skips it too
      }
      ASSERT_TRUE(s.ok()) << dml.ToString() << ": " << s.ToString();
      MirrorApply(mirror.get(), dml);
      ++applied;
      if (iter % 20 == 19) {
        ExpectStateMatchesMirror(&db, *mirror, *schema,
                                 "after statement " + std::to_string(iter));
      }
    }
    ExpectStateMatchesMirror(&db, *mirror, *schema, "after the full workload");
    EXPECT_GT(applied, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteDmlOracle, ::testing::Values(1, 7, 21, 63));

// ---------------------------------------------------------------------------
// SqlDmlBridge: SQL through the session hook
// ---------------------------------------------------------------------------

class SqlBridgeTest : public RewriteDmlTest {
 protected:
  void SetUp() override {
    RewriteDmlTest::SetUp();
    data_ = bs_->MakeData(3, 2, 4);
    db_ = std::make_unique<Database>(1024);
    ASSERT_TRUE(data_->Materialize(db_.get(), bs_->object).ok());
    router_ = std::make_unique<DmlRouter>(db_.get());
    snapshot_ = std::make_shared<PhysicalSchema>(bs_->object);
    bridge_ = std::make_unique<SqlDmlBridge>(
        router_.get(), old_tables_, [this]() { return snapshot_; });
    session_ = std::make_unique<Session>(db_.get());
    session_->set_dml_hook(bridge_.get());
  }

  std::unique_ptr<LogicalDatabase> data_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<DmlRouter> router_;
  std::shared_ptr<const PhysicalSchema> snapshot_;
  std::unique_ptr<SqlDmlBridge> bridge_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlBridgeTest, OldVersionSqlWritesLandOnTheNewLayout) {
  // The old app INSERTs into "book" — a table that no longer physically
  // exists on the object schema. The bridge fans it out onto glossary.
  auto ins = session_->Execute(
      "INSERT INTO book (b_id, b_title, b_cost, b_a_id) VALUES (77, 'bridged', 3.5, 1)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->affected, 1u);
  auto check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsString(), "bridged");

  auto upd = session_->Execute("UPDATE book SET b_title = 'renamed' WHERE b_id = 77");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsString(), "renamed");

  auto del = session_->Execute("DELETE FROM book WHERE b_id = 77");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows.size(), 0u);
}

TEST_F(SqlBridgeTest, UnknownTablesFallThroughToThePhysicalPath) {
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE scratch (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))")
          .ok());
  auto ins = session_->Execute("INSERT INTO scratch VALUES (1, 2)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto rows = session_->Execute("SELECT k, v FROM scratch");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(router_->stats().statements, 0u) << "the router must not see scratch-table DML";
}

TEST_F(SqlBridgeTest, NonKeyedWritesAreRejectedNotMisrouted) {
  // Version-table DML is entity-level: a predicate that is not
  // `key = literal` has no physical fallback and must be rejected.
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_title = 'x' WHERE b_cost > 2").ok());
  EXPECT_FALSE(session_->Execute("DELETE FROM book WHERE b_title = 'bridged'").ok());
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_title = 'x'").ok());
  // Updating the key is an entity identity change — rejected.
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_id = 9 WHERE b_id = 1").ok());
  // Either operand order of the keyed predicate is accepted.
  EXPECT_TRUE(session_->Execute("UPDATE book SET b_title = 'y' WHERE 1 = b_id").ok());
}

}  // namespace
}  // namespace pse
