// Site-lattice placement and fragment extraction (DESIGN.md S16). These
// tests pin the planner's placement decisions on hand-built plans: which
// subtrees stay shard-local, which joins are recognized as co-located, and
// where the coordinator boundary cuts fragments.

#include <memory>

#include <gtest/gtest.h>

#include "db/plan.h"
#include "shard/planner.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"
#include "../test_scans.h"

namespace perfeval {
namespace shard {
namespace {

db::Database* Catalog() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.001);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// TpchPartitionScheme with customer partitioned on c_custkey in a domain
/// of its own: the placement under which orders ⨝ customer is not
/// co-located (TpchPartitionScheme replicates customer).
PartitionScheme CustkeyPartitionedScheme() {
  PartitionScheme scheme = TpchPartitionScheme();
  scheme.tables["customer"] = {"c_custkey", "custkey", 0xc7574aa5deadbeefULL};
  return scheme;
}

/// HashJoin nodes in `node`'s subtree.
int CountJoins(const db::PlanNode* node) {
  int joins = node->Spec().kind == db::PlanKind::kHashJoin ? 1 : 0;
  for (const db::PlanNode* child : node->Children()) {
    joins += CountJoins(child);
  }
  return joins;
}

const SiteAnnotation& AnnotOf(
    const std::map<const db::PlanNode*, SiteAnnotation>& annot,
    const db::PlanPtr& node) {
  return annot.at(node.get());
}

TEST(ShardPlannerTest, ScanSitesFollowTheScheme) {
  PartitionScheme scheme = TpchPartitionScheme();
  db::PlanPtr lineitem = ScanOf(*Catalog(), "lineitem");
  db::PlanPtr nation = ScanOf(*Catalog(), "nation");
  auto annot_l = AnnotateSites(lineitem, scheme);
  auto annot_n = AnnotateSites(nation, scheme);

  const SiteAnnotation& l = AnnotOf(annot_l, lineitem);
  EXPECT_EQ(l.site, Site::kPartitioned);
  // l_orderkey (column 0 of lineitem) carries the orderkey domain.
  ASSERT_EQ(l.key_domains.size(), 1u);
  EXPECT_EQ(l.key_domains.begin()->second, "orderkey");
  EXPECT_EQ(lineitem->schema().num_columns(),
            Catalog()->GetTable("lineitem").schema().num_columns());

  EXPECT_EQ(AnnotOf(annot_n, nation).site, Site::kReplicated);
  EXPECT_TRUE(AnnotOf(annot_n, nation).key_domains.empty());
}

TEST(ShardPlannerTest, CoPartitionedJoinStaysPartitioned) {
  PartitionScheme scheme = TpchPartitionScheme();
  // lineitem ⨝ orders on the co-partitioned orderkey domain.
  db::PlanPtr join =
      db::HashJoin(ScanOf(*Catalog(), "lineitem"), ScanOf(*Catalog(), "orders"),
                   "l_orderkey", "o_orderkey");
  auto annot = AnnotateSites(join, scheme);
  const SiteAnnotation& a = AnnotOf(annot, join);
  EXPECT_EQ(a.site, Site::kPartitioned);
  // Both sides' keys survive into the join output.
  EXPECT_EQ(a.key_domains.size(), 2u);
}

TEST(ShardPlannerTest, NonColocatedJoinMovesToCoordinator) {
  PartitionScheme scheme = CustkeyPartitionedScheme();
  // orders ⨝ customer joins the orderkey domain against the custkey
  // domain: equal o_custkey/c_custkey values live on different shards.
  db::PlanPtr join =
      db::HashJoin(ScanOf(*Catalog(), "orders"), ScanOf(*Catalog(), "customer"),
                   "o_custkey", "c_custkey");
  auto annot = AnnotateSites(join, scheme);
  EXPECT_EQ(AnnotOf(annot, join).site, Site::kCoordinator);
}

TEST(ShardPlannerTest, ResidualJoinKeepsItsPinnedAlgorithm) {
  PartitionScheme scheme = CustkeyPartitionedScheme();
  // The join is not co-located, so the residual rebuilds it over the
  // gathered fragments; the rebuilt node must run the original's pin.
  db::PlanPtr pinned =
      db::HashJoinWith(ScanOf(*Catalog(), "orders"),
                       ScanOf(*Catalog(), "customer"), {"o_custkey"},
                       {"c_custkey"}, db::JoinAlgo::kMerge);
  DistributedPlan dp = PlanDistributed(pinned, scheme);
  ASSERT_EQ(dp.residual->Spec().kind, db::PlanKind::kHashJoin);
  EXPECT_EQ(dp.residual->Spec().join_algo, db::JoinAlgo::kMerge);
  EXPECT_NE(db::Explain(dp.residual).find("algo=merge"), std::string::npos)
      << db::Explain(dp.residual);

  // An unpinned join stays unpinned: it follows the session knob.
  db::PlanPtr unpinned =
      db::HashJoin(ScanOf(*Catalog(), "orders"), ScanOf(*Catalog(), "customer"),
                   "o_custkey", "c_custkey");
  DistributedPlan dp2 = PlanDistributed(unpinned, scheme);
  EXPECT_FALSE(dp2.residual->Spec().join_algo.has_value());
  EXPECT_EQ(db::Explain(dp2.residual).find("algo="), std::string::npos);
}

TEST(ShardPlannerTest, PartitionedJoinReplicatedStaysPartitioned) {
  PartitionScheme scheme = TpchPartitionScheme();
  db::PlanPtr join = db::HashJoin(ScanOf(*Catalog(), "lineitem"),
                                  ScanOf(*Catalog(), "supplier"), "l_suppkey",
                                  "s_suppkey");
  auto annot = AnnotateSites(join, scheme);
  EXPECT_EQ(AnnotOf(annot, join).site, Site::kPartitioned);
}

TEST(ShardPlannerTest, SortAndAggregateLeaveThePartitionedSite) {
  PartitionScheme scheme = TpchPartitionScheme();
  db::PlanPtr sort =
      db::Sort(ScanOf(*Catalog(), "lineitem"), {{"l_orderkey", true}});
  auto annot = AnnotateSites(sort, scheme);
  EXPECT_EQ(AnnotOf(annot, sort).site, Site::kCoordinator);

  db::PlanPtr agg = db::Aggregate(
      ScanOf(*Catalog(), "nation"), {"n_regionkey"},
      {{db::AggOp::kCount, nullptr, "cnt"}});
  auto annot2 = AnnotateSites(agg, scheme);
  // Over a replicated child any single shard can aggregate.
  EXPECT_EQ(AnnotOf(annot2, agg).site, Site::kReplicated);
}

TEST(ShardPlannerTest, ReplicatedPlanBecomesOneShardZeroFragment) {
  PartitionScheme scheme = TpchPartitionScheme();
  db::PlanPtr plan = db::Sort(ScanOf(*Catalog(), "nation"), {{"n_name", true}});
  DistributedPlan dp = PlanDistributed(plan, scheme);
  ASSERT_EQ(dp.fragments.size(), 1u);
  EXPECT_TRUE(dp.fragments[0].replicated_only);
  EXPECT_FALSE(dp.fragments[0].agg_split.has_value());
  // The whole plan is the fragment; the residual is just its scan.
  EXPECT_EQ(dp.residual->Spec().kind, db::PlanKind::kScan);
  EXPECT_EQ(dp.residual->Spec().table_name, FragmentTableName(0));
}

TEST(ShardPlannerTest, AggregateOverPartitionedSplitsIntoPartials) {
  PartitionScheme scheme = TpchPartitionScheme();
  const db::Schema& lineitem = Catalog()->GetTable("lineitem").schema();
  db::PlanPtr plan = db::Aggregate(
      ScanOf(*Catalog(), "lineitem"), {"l_returnflag"},
      {{db::AggOp::kSum, db::Col(lineitem, "l_quantity"), "sum_qty"},
       {db::AggOp::kAvg, db::Col(lineitem, "l_extendedprice"), "avg_price"},
       {db::AggOp::kCount, nullptr, "cnt"}});
  DistributedPlan dp = PlanDistributed(plan, scheme);
  ASSERT_EQ(dp.fragments.size(), 1u);
  const FragmentPlan& frag = dp.fragments[0];
  EXPECT_FALSE(frag.replicated_only);
  ASSERT_TRUE(frag.agg_split.has_value());
  // AVG decomposes into SUM + COUNT partials, so the partial relation is
  // wider than the original aggregate list; the residual's scan of the
  // gathered fragment table still declares the original output schema.
  EXPECT_GT(frag.agg_split->partial.size(), 3u);
  EXPECT_EQ(dp.residual->schema().num_columns(), 4u);  // key + 3 aggs.
  EXPECT_EQ(frag.plan->Spec().kind, db::PlanKind::kAggregate);
}

TEST(ShardPlannerTest, PartitionKeyAggregateStaysPartitioned) {
  PartitionScheme scheme = TpchPartitionScheme();
  const db::Schema& lineitem = Catalog()->GetTable("lineitem").schema();
  // Every l_orderkey group lives on one shard, so each shard aggregates
  // its own groups completely: no partial/merge split, no coordinator.
  db::PlanPtr plan = db::Aggregate(
      ScanOf(*Catalog(), "lineitem"), {"l_returnflag", "l_orderkey"},
      {{db::AggOp::kSum, db::Col(lineitem, "l_quantity"), "sum_qty"},
       {db::AggOp::kCountDistinct, db::Col(lineitem, "l_suppkey"), "d"}});
  auto annot = AnnotateSites(plan, scheme);
  const SiteAnnotation& a = AnnotOf(annot, plan);
  EXPECT_EQ(a.site, Site::kPartitioned);
  // The key domain follows the group key to its output column.
  ASSERT_EQ(a.key_domains.size(), 1u);
  EXPECT_EQ(a.key_domains.count(1), 1u);
  EXPECT_EQ(a.key_domains.at(1), "orderkey");

  DistributedPlan dp = PlanDistributed(plan, scheme);
  ASSERT_EQ(dp.fragments.size(), 1u);
  EXPECT_FALSE(dp.fragments[0].replicated_only);
  EXPECT_FALSE(dp.fragments[0].agg_split.has_value());
  EXPECT_EQ(dp.fragments[0].plan.get(), plan.get());
  EXPECT_EQ(dp.residual->Spec().kind, db::PlanKind::kScan);

  // The same aggregate keyed on a column that is not a partition key
  // still leaves the shards.
  db::PlanPtr by_supplier = db::Aggregate(
      ScanOf(*Catalog(), "lineitem"), {"l_suppkey"},
      {{db::AggOp::kSum, db::Col(lineitem, "l_quantity"), "sum_qty"}});
  auto annot2 = AnnotateSites(by_supplier, scheme);
  EXPECT_EQ(AnnotOf(annot2, by_supplier).site, Site::kCoordinator);
}

TEST(ShardPlannerTest, OnlyQ15JoinsAtTheCoordinator) {
  // customer is replicated and orderkey-keyed aggregates stay on the
  // shards, so the queries that used to join gathered fragments (Q3, Q5,
  // Q7, Q8, Q10, Q18) each run as one fragment. Q15 still joins supplier
  // with an aggregate grouped by l_suppkey, which is not a partition key.
  PartitionScheme scheme = TpchPartitionScheme();
  for (int q = 1; q <= 22; ++q) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(*Catalog());
    DistributedPlan dp = PlanDistributed(plan, scheme);
    EXPECT_EQ(CountJoins(dp.residual.get()) > 0, q == 15)
        << "Q" << q << "\n" << db::Explain(dp.residual);
  }
  for (int q : {3, 5, 7, 8, 10, 18}) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(*Catalog());
    DistributedPlan dp = PlanDistributed(plan, scheme);
    EXPECT_EQ(dp.fragments.size(), 1u) << "Q" << q;
    EXPECT_GT(CountJoins(dp.fragments[0].plan.get()), 0) << "Q" << q;
  }
}

TEST(ShardPlannerTest, CountDistinctGathersInsteadOfSplitting) {
  PartitionScheme scheme = TpchPartitionScheme();
  const db::Schema& lineitem = Catalog()->GetTable("lineitem").schema();
  db::PlanPtr plan = db::Aggregate(
      ScanOf(*Catalog(), "lineitem"), {"l_returnflag"},
      {{db::AggOp::kCountDistinct, db::Col(lineitem, "l_suppkey"), "d"}});
  DistributedPlan dp = PlanDistributed(plan, scheme);
  // COUNT DISTINCT cannot merge from per-shard states: the fragment is
  // the raw child and the aggregate runs at the coordinator.
  ASSERT_EQ(dp.fragments.size(), 1u);
  EXPECT_FALSE(dp.fragments[0].agg_split.has_value());
  EXPECT_EQ(dp.fragments[0].plan->Spec().kind, db::PlanKind::kScan);
  EXPECT_EQ(dp.residual->Spec().kind, db::PlanKind::kAggregate);
}

TEST(ShardPlannerTest, ProjectKeepsKeysThroughIdentityColumns) {
  PartitionScheme scheme = TpchPartitionScheme();
  const db::Schema& orders = Catalog()->GetTable("orders").schema();
  db::PlanPtr project = db::Project(
      ScanOf(*Catalog(), "orders"),
      {db::Col(orders, "o_orderkey"), db::Col(orders, "o_totalprice")},
      {"key", "price"});
  auto annot = AnnotateSites(project, scheme);
  const SiteAnnotation& a = AnnotOf(annot, project);
  EXPECT_EQ(a.site, Site::kPartitioned);
  ASSERT_EQ(a.key_domains.count(0), 1u);
  EXPECT_EQ(a.key_domains.at(0), "orderkey");
  EXPECT_EQ(project->schema().num_columns(), 2u);
}

TEST(ShardPlannerTest, All22QueriesDecompose) {
  PartitionScheme scheme = TpchPartitionScheme();
  for (int q = 1; q <= 22; ++q) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(*Catalog());
    DistributedPlan dp = PlanDistributed(plan, scheme);
    EXPECT_GE(dp.fragments.size(), 1u) << "Q" << q;
    EXPECT_NE(dp.residual, nullptr) << "Q" << q;
    EXPECT_EQ(dp.original.get(), plan.get()) << "Q" << q;
  }
}

}  // namespace
}  // namespace shard
}  // namespace perfeval
