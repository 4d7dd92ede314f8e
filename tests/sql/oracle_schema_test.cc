// Declared schemas against the oracle: every plan node carries the output
// schema its factory derived when the node was built, and planners bind
// expressions against it. The reference interpreter (db/reference.h)
// derives each operator's output on its own, so for every subtree of
// every plan checked here the declared schema must equal the column
// names and types of the table ReferenceExecute returns for it. Covered:
// the 22 TPC-H plans in rule order and as opt::Optimize rewrites them,
// their 2-shard fragments and the coordinator's residual plans over the
// gathered fragment tables, and the oracle's fuzzed SQL queries.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/partial_agg.h"
#include "db/reference.h"
#include "oracle_query_gen.h"
#include "opt/optimizer.h"
#include "shard/partition.h"
#include "shard/planner.h"
#include "sql/planner.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

db::Database* SchemaDb() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.002);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// Checks `node` and every subtree under it against the reference
/// interpreter run over `database`.
void ExpectDeclaredSchemas(const db::PlanNode& node,
                           const db::Database& database) {
  for (const db::PlanNode* child : node.Children()) {
    ExpectDeclaredSchemas(*child, database);
  }
  std::shared_ptr<const db::Table> reference =
      db::ReferenceExecute(node, database);
  EXPECT_EQ(node.schema(), reference->schema())
      << "declared " << node.schema().ToString() << "\nreference "
      << reference->schema().ToString() << "\nat " << node.Describe();
}

/// A table holding `rows`, registrable in a Database.
std::shared_ptr<db::Table> CopyOf(const db::Table& rows) {
  auto table = std::make_shared<db::Table>(rows.schema());
  table->AppendTable(rows);
  return table;
}

/// Checks the fragments of `plan` split over two shards against the
/// single-node database, then the residual plan against a database that
/// holds each fragment's gathered table the way the coordinator builds
/// it: a decomposed aggregate is merged and finalized first.
void ExpectDistributedSchemas(const db::PlanPtr& plan,
                              const db::Database& database) {
  shard::DistributedPlan dp =
      shard::PlanDistributed(plan, shard::TpchPartitionScheme());
  db::Database coordinator;
  for (size_t k = 0; k < dp.fragments.size(); ++k) {
    const shard::FragmentPlan& frag = dp.fragments[k];
    SCOPED_TRACE("fragment " + std::to_string(k));
    ExpectDeclaredSchemas(*frag.plan, database);
    std::shared_ptr<const db::Table> gathered =
        db::ReferenceExecute(frag.plan, database);
    if (frag.agg_split.has_value()) {
      db::Database partials;
      std::string partial_name = shard::FragmentTableName(k) + "_partial";
      partials.RegisterTable(partial_name, CopyOf(*gathered));
      db::PlanPtr merge = db::Aggregate(
          db::Scan(partial_name, frag.agg_split->partial_schema),
          frag.group_by, frag.agg_split->merge);
      ExpectDeclaredSchemas(*merge, partials);
      gathered = db::FinalizeMergedAggregates(
          *db::ReferenceExecute(merge, partials), frag.group_by.size(),
          frag.agg_split->finalize);
    }
    coordinator.RegisterTable(shard::FragmentTableName(k),
                              CopyOf(*gathered));
  }
  SCOPED_TRACE("residual");
  ExpectDeclaredSchemas(*dp.residual, coordinator);
}

class DeclaredSchemaTest : public ::testing::TestWithParam<int> {};

TEST_P(DeclaredSchemaTest, TpchPlansMatchReference) {
  db::Database* database = SchemaDb();
  db::PlanPtr rule_plan = workload::GetTpchQuery(GetParam()).Build(*database);
  db::PlanPtr optimized = opt::Optimize(rule_plan, *database).plan;
  for (const db::PlanPtr& plan : {rule_plan, optimized}) {
    SCOPED_TRACE(db::Explain(plan));
    ExpectDeclaredSchemas(*plan, *database);
    ExpectDistributedSchemas(plan, *database);
  }
}

INSTANTIATE_TEST_SUITE_P(All22, DeclaredSchemaTest, ::testing::Range(1, 23));

TEST(DeclaredSchemaSqlTest, FuzzedQueriesMatchReference) {
  db::Database* database = SchemaDb();
  // Shapes the generator does not produce: int64 SUM/MIN/MAX (which stay
  // int64), a computed group key, a composite join key, a join residual.
  std::vector<std::string> queries = {
      "SELECT l_suppkey, sum(l_linenumber) AS s, min(l_linenumber) AS lo, "
      "max(l_orderkey) AS hi, avg(l_linenumber) AS a FROM lineitem "
      "GROUP BY l_suppkey ORDER BY l_suppkey",
      "SELECT year(o_orderdate) AS y, count(*) AS n, sum(o_totalprice) AS t "
      "FROM orders GROUP BY y HAVING count(*) > 1 ORDER BY y",
      "SELECT l_orderkey, ps_supplycost FROM lineitem JOIN partsupp ON "
      "l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
      "ORDER BY l_orderkey, ps_supplycost LIMIT 20",
      "SELECT c_name, o_orderkey FROM orders JOIN customer ON "
      "o_custkey = c_custkey AND o_totalprice > c_acctbal "
      "ORDER BY o_orderkey LIMIT 10",
  };
  OracleQueryGen gen(20261021);
  for (int i = 0; i < 60; ++i) {
    queries.push_back(gen.Next().sql);
  }
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    Result<PlannedQuery> planned = PlanQuery(sql, *database);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ExpectDeclaredSchemas(*planned->plan, *database);
  }
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
