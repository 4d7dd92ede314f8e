// Cardinality and cost estimation (opt/estimator.h) over real plans on a
// small TPC-H instance: catalog lookups, selectivity and join-edge
// estimates, the post-order EstimatePlan contract (one NodeEstimate per
// plan node, positionally aligned with the Profiler's OpTraces), and
// cost-model orderings the DP relies on.

#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/plan.h"
#include "opt/cost_model.h"
#include "opt/estimator.h"
#include "workload/tpch_gen.h"
#include "../test_scans.h"

namespace perfeval {
namespace opt {
namespace {

db::Database* Db() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.005);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest()
      : stats_(*Db()),
        model_(CostModel::Default()),
        estimator_(stats_, model_) {}

  StatsCatalog stats_;
  CostModel model_;
  CardinalityEstimator estimator_;
};

TEST_F(EstimatorTest, CatalogResolvesBaseColumns) {
  const db::ColumnStats* orderkey = stats_.Column("l_orderkey");
  ASSERT_NE(orderkey, nullptr);
  EXPECT_GT(orderkey->rows, 0u);
  EXPECT_EQ(stats_.Column("no_such_column"), nullptr);
}

TEST_F(EstimatorTest, ScanEstimateIsExact) {
  db::PlanPtr scan = ScanOf(*Db(), "lineitem");
  double rows = estimator_.EstimateRows(*scan);
  size_t actual = Db()->GetTable("lineitem").num_rows();
  EXPECT_DOUBLE_EQ(rows, static_cast<double>(actual));
}

TEST_F(EstimatorTest, FilterEstimateTracksActualWithinQError) {
  db::Database* database = Db();
  const db::Schema& schema = database->GetTable("lineitem").schema();
  db::ExprPtr pred = db::Lt(db::Col(schema, "l_quantity"), db::LitInt(25));
  db::PlanPtr plan =
      FilterScanOf(*Db(), "lineitem", {"l_orderkey", "l_quantity"}, pred);
  double est = estimator_.EstimateRows(*plan);
  double actual =
      static_cast<double>(database->Run(plan).table->num_rows());
  ASSERT_GT(actual, 0.0);
  double q = est > actual ? est / actual : actual / est;
  // l_quantity is uniform 1..50: the histogram should be well within 2x.
  EXPECT_LT(q, 2.0) << "est=" << est << " actual=" << actual;
}

TEST_F(EstimatorTest, JoinSelectivityUsesTheLargerNdv) {
  double l_rows =
      static_cast<double>(Db()->GetTable("lineitem").num_rows());
  double o_rows = static_cast<double>(Db()->GetTable("orders").num_rows());
  double sel = estimator_.JoinSelectivity("l_orderkey", l_rows,
                                          "o_orderkey", o_rows);
  ASSERT_GT(sel, 0.0);
  // FK join: |L join O| = |L|, so sel ~= 1/|O| (o_orderkey is the key).
  double est_out = l_rows * o_rows * sel;
  double q = est_out > l_rows ? est_out / l_rows : l_rows / est_out;
  EXPECT_LT(q, 2.0);
}

TEST_F(EstimatorTest, EstimatePlanAlignsWithProfilerTraces) {
  db::Database* database = Db();
  const db::Schema& orders = database->GetTable("orders").schema();
  db::PlanPtr plan = db::Aggregate(
      db::HashJoin(FilterScanOf(*Db(), "orders", {},
                                  db::Lt(db::Col(orders, "o_orderkey"),
                                         db::LitInt(1000))),
                   ScanOf(*Db(), "customer"), "o_custkey", "c_custkey"),
      {"o_orderpriority"}, {{db::AggOp::kCount, nullptr, "n"}});
  std::vector<NodeEstimate> estimates;
  estimator_.EstimatePlan(*plan, &estimates);

  db::QueryResult result = database->Run(plan);
  const std::vector<db::OpTrace>& traces = result.profile.traces();
  ASSERT_EQ(estimates.size(), traces.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    // Positional zip: each estimate's op name prefixes its trace name
    // ("HashJoin" vs "HashJoin(radix, 4 bits)").
    EXPECT_EQ(traces[i].op.rfind(estimates[i].op, 0), 0u)
        << "node " << i << ": estimate op '" << estimates[i].op
        << "' vs trace '" << traces[i].op << "'";
    EXPECT_GE(estimates[i].rows_out, 0.0);
  }
}

TEST_F(EstimatorTest, PinnedJoinIsCostedByItsPin) {
  // The session default is radix; a node pinned to merge runs merge, so
  // its estimate must price merge. The unpinned node prices the default.
  ASSERT_NE(model_.JoinCost(db::JoinAlgo::kMerge, 1e4, 1e3, 1e4),
            model_.JoinCost(db::JoinAlgo::kRadix, 1e4, 1e3, 1e4));
  for (std::optional<db::JoinAlgo> pin :
       {std::optional<db::JoinAlgo>(db::JoinAlgo::kMerge),
        std::optional<db::JoinAlgo>()}) {
    db::PlanPtr join =
        db::HashJoinWith(ScanOf(*Db(), "orders"), ScanOf(*Db(), "customer"),
                         {"o_custkey"}, {"c_custkey"}, pin);
    std::vector<NodeEstimate> estimates;
    estimator_.EstimatePlan(*join, &estimates);
    ASSERT_EQ(estimates.size(), 3u);
    double probe = estimates[0].rows_out;
    double build = estimates[1].rows_out;
    const NodeEstimate& node = estimates[2];
    db::JoinAlgo ran = pin.value_or(db::JoinAlgo::kRadix);
    EXPECT_DOUBLE_EQ(node.cost_ns,
                     model_.JoinCost(ran, probe, build, node.rows_out))
        << db::JoinAlgoName(ran);
  }
}

TEST(CostModelTest, OrderingsTheDpDependsOn) {
  CostModel model = CostModel::Default();
  // In-cache build: radix's extra partition pass must not pay off.
  double small = 1000.0;
  EXPECT_LE(model.JoinCost(db::JoinAlgo::kHash, 1e5, small, 1e5),
            model.JoinCost(db::JoinAlgo::kRadix, 1e5, small, 1e5));
  // Out-of-cache build: partitioning must beat the cache-miss penalty.
  double big = 4.0 * model.l2_build_rows;
  EXPECT_LT(model.JoinCost(db::JoinAlgo::kRadix, 10.0 * big, big, 1e5),
            model.JoinCost(db::JoinAlgo::kHash, 10.0 * big, big, 1e5));
  // More output rows never cost less.
  EXPECT_LT(model.JoinCost(db::JoinAlgo::kHash, 1e5, 1e4, 1e3),
            model.JoinCost(db::JoinAlgo::kHash, 1e5, 1e4, 1e6));
}

}  // namespace
}  // namespace opt
}  // namespace perfeval
