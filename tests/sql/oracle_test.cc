// Differential oracle harness (DESIGN.md, checked execution + reference
// oracle): every query runs both on the engine — across execution modes,
// worker-thread counts {1, 4} and join algorithms — and on the naive
// row-at-a-time reference interpreter (db/reference.h), and the result
// relations must agree. The engine's fast paths (vectorized kernels,
// zone-map skipping, morsel parallelism, radix joins) share no code with
// the reference, so any agreement failure localizes a wrong-result bug.
//
// Comparison discipline: fuzzed queries carry a total-order ORDER BY
// (group keys are unique per group; (l_orderkey, l_linenumber) is the
// lineitem primary key), so rows are compared positionally. TPC-H plans
// keep their spec ordering, which can tie, so they are compared as
// multisets (DiffTables ignore_row_order). Doubles compare with a 1e-9
// relative tolerance: the reference accumulates flat while the engine
// reduces per-morsel partials, which legitimately differ in the last ulps.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "db/reference.h"
#include "sql/planner.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

using db::ExecMode;
using db::JoinAlgo;

constexpr double kDoubleTol = 1e-9;

const ExecMode kModes[] = {ExecMode::kDebug, ExecMode::kOptimized};
const int kThreads[] = {1, 4};
const JoinAlgo kJoinAlgos[] = {JoinAlgo::kHash, JoinAlgo::kRadix,
                               JoinAlgo::kMerge};

db::Database* Db() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.002);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// Runs `plan` under every mode x threads x join-algo combination and
/// diffs each result against `expected`. Returns the number of engine
/// runs performed. `with_algos` toggles the join-algorithm sweep (it is
/// irrelevant for plans without join nodes).
int DiffAgainstEngine(db::Database* database, const db::PlanPtr& plan,
                      const db::Table& expected, bool with_algos,
                      bool ignore_row_order) {
  int runs = 0;
  for (JoinAlgo algo : kJoinAlgos) {
    database->set_join_algo(algo);
    for (ExecMode mode : kModes) {
      for (int threads : kThreads) {
        database->set_threads(threads);
        db::QueryResult result = database->Run(plan, mode);
        std::string diff = DiffTables(*result.table, expected, kDoubleTol,
                                      ignore_row_order);
        EXPECT_EQ(diff, "") << "algo=" << JoinAlgoName(algo)
                            << " mode=" << ExecModeName(mode)
                            << " threads=" << threads;
        ++runs;
      }
    }
    if (!with_algos) {
      break;
    }
  }
  database->set_threads(1);
  database->set_join_algo(JoinAlgo::kRadix);
  return runs;
}

class TpchOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchOracleTest, EngineMatchesReference) {
  db::Database* database = Db();
  const workload::TpchQuery& query = workload::GetTpchQuery(GetParam());
  db::PlanPtr plan = query.Build(*database);
  ASSERT_NE(plan, nullptr);
  std::shared_ptr<const db::Table> expected =
      db::ReferenceExecute(plan, *database);
  DiffAgainstEngine(database, plan, *expected, /*with_algos=*/true,
                    /*ignore_row_order=*/true);
}

INSTANTIATE_TEST_SUITE_P(All22, TpchOracleTest, ::testing::Range(1, 23));

/// Random query generator for the oracle: same grammar family as
/// fuzz_test.cc, but every query ends in a total-order ORDER BY so the
/// engine and the reference must agree positionally, not just as sets.
class OracleQueryGen {
 public:
  explicit OracleQueryGen(uint64_t seed) : rng_(seed) {}

  struct Generated {
    std::string sql;
    bool has_join = false;
  };

  Generated Next() {
    Generated out;
    out.has_join = rng_.NextBernoulli(0.4);
    bool aggregate = rng_.NextBernoulli(0.6);
    std::string sql_text = "SELECT ";
    if (aggregate) {
      std::string group_col =
          out.has_join
              ? PickOne({"l_returnflag", "l_shipmode", "o_orderpriority",
                         "o_orderstatus", "l_suppkey"})
              : PickOne({"l_returnflag", "l_shipmode", "l_linestatus",
                         "l_suppkey", "l_linenumber"});
      sql_text += group_col + ", " + RandomAggregate() + " AS agg_val";
      sql_text += " FROM lineitem";
      if (out.has_join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      if (rng_.NextBernoulli(0.7)) {
        sql_text += " WHERE " + RandomPredicate(out.has_join);
      }
      sql_text += " GROUP BY " + group_col;
      if (rng_.NextBernoulli(0.3)) {
        sql_text +=
            " HAVING count(*) > " + std::to_string(rng_.NextInRange(0, 5));
      }
      // The group key is unique per output row: a total order.
      sql_text += " ORDER BY " + group_col;
    } else {
      sql_text += "l_orderkey, l_quantity, l_extendedprice FROM lineitem";
      if (out.has_join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      sql_text += " WHERE " + RandomPredicate(out.has_join);
      // (l_orderkey, l_linenumber) is the lineitem primary key, so the
      // trailing keys break every l_extendedprice tie deterministically.
      sql_text += " ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber";
    }
    if (rng_.NextBernoulli(0.6)) {
      sql_text += " LIMIT " + std::to_string(rng_.NextInRange(1, 50));
    }
    out.sql = sql_text;
    return out;
  }

 private:
  std::string PickOne(std::vector<std::string> options) {
    return options[rng_.NextBounded(static_cast<uint32_t>(options.size()))];
  }

  std::string RandomAggregate() {
    switch (rng_.NextBounded(6)) {
      case 0:
        return "sum(l_quantity)";
      case 1:
        return "avg(l_extendedprice)";
      case 2:
        return "min(l_discount)";
      case 3:
        return "max(l_extendedprice * (1 - l_discount))";
      case 4:
        return "count(*)";
      default:
        return "count(DISTINCT l_suppkey)";
    }
  }

  std::string RandomPredicate(bool join) {
    std::vector<std::string> conjuncts;
    int n = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < n; ++i) {
      switch (rng_.NextBounded(join ? 7 : 5)) {
        case 0:
          conjuncts.push_back(StrFormat(
              "l_quantity < %lld", (long long)rng_.NextInRange(2, 50)));
          break;
        case 1:
          conjuncts.push_back(
              StrFormat("l_discount BETWEEN 0.0%lld AND 0.0%lld",
                        (long long)rng_.NextInRange(0, 4),
                        (long long)rng_.NextInRange(5, 9)));
          break;
        case 2:
          conjuncts.push_back("l_shipmode IN ('MAIL', 'SHIP', 'AIR')");
          break;
        case 3:
          conjuncts.push_back("l_shipdate >= DATE '199" +
                              std::to_string(rng_.NextInRange(2, 8)) +
                              "-01-01'");
          break;
        case 4:
          conjuncts.push_back(rng_.NextBernoulli(0.5)
                                  ? "l_returnflag = 'R'"
                                  : "NOT l_returnflag = 'N'");
          break;
        case 5:
          conjuncts.push_back("o_orderpriority IN ('1-URGENT', '2-HIGH')");
          break;
        default:
          conjuncts.push_back(
              StrFormat("o_totalprice > %lld",
                        (long long)rng_.NextInRange(1000, 400000)));
          break;
      }
    }
    return Join(conjuncts, " AND ");
  }

  Pcg32 rng_;
};

TEST(SqlOracleTest, FuzzedQueriesMatchReference) {
  db::Database* database = Db();
  OracleQueryGen gen(20260806);
  int join_queries = 0;
  int engine_runs = 0;
  const int kQueries = 220;
  for (int i = 0; i < kQueries; ++i) {
    OracleQueryGen::Generated q = gen.Next();
    SCOPED_TRACE(q.sql);
    Result<PlannedQuery> planned = PlanQuery(q.sql, *database);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    std::shared_ptr<const db::Table> expected =
        db::ReferenceExecute(planned->plan, *database);
    engine_runs +=
        DiffAgainstEngine(database, planned->plan, *expected,
                          /*with_algos=*/q.has_join,
                          /*ignore_row_order=*/false);
    join_queries += q.has_join ? 1 : 0;
  }
  // The sweep really covered both query shapes and the full grid.
  EXPECT_GT(join_queries, 50);
  EXPECT_LT(join_queries, 170);
  EXPECT_GE(engine_runs, 4 * kQueries);
}

TEST(SqlOracleTest, GeneratorIsDeterministic) {
  OracleQueryGen a(9);
  OracleQueryGen b(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Next().sql, b.Next().sql);
  }
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
