// Property test: generate hundreds of random valid SQL queries over the
// TPC-H schema and check, for each, that the planner accepts them and that
// debug and optimized execution produce identical results — at one worker
// thread and at four (morsel-driven parallelism must never change a
// result). Guards the whole parse -> bind -> execute pipeline against
// combination bugs no hand-written test enumerates.

#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "sql/planner.h"
#include "workload/tpch_gen.h"
#include "../test_scans.h"

namespace perfeval {
namespace sql {
namespace {

db::Database* Db() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.002);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// Grammar-directed random query generator over the lineitem/orders join.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    bool join = rng_.NextBernoulli(0.4);
    bool aggregate = rng_.NextBernoulli(0.6);
    std::string sql_text = "SELECT ";
    std::vector<std::string> output_names;
    if (aggregate) {
      // Mixes string keys with int64 keys (l_suppkey, l_linenumber) so the
      // single-int-key aggregation fast path is fuzzed too.
      std::string group_col = join ? PickOne({"l_returnflag", "l_shipmode",
                                              "o_orderpriority",
                                              "o_orderstatus", "l_suppkey"})
                                   : PickOne({"l_returnflag", "l_shipmode",
                                              "l_linestatus", "l_suppkey",
                                              "l_linenumber"});
      sql_text += group_col + ", " + RandomAggregate() + " AS agg_val";
      output_names = {group_col, "agg_val"};
      sql_text += " FROM lineitem";
      if (join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      if (rng_.NextBernoulli(0.7)) {
        sql_text += " WHERE " + RandomPredicate(join);
      }
      sql_text += " GROUP BY " + group_col;
      if (rng_.NextBernoulli(0.3)) {
        sql_text += " HAVING count(*) > " +
                    std::to_string(rng_.NextInRange(0, 5));
      }
      sql_text += " ORDER BY " + output_names[rng_.NextBounded(2)];
    } else {
      sql_text += "l_orderkey, l_quantity, l_extendedprice";
      output_names = {"l_orderkey"};
      sql_text += " FROM lineitem";
      if (join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      sql_text += " WHERE " + RandomPredicate(join);
      sql_text += " ORDER BY l_extendedprice DESC, l_orderkey";
    }
    if (rng_.NextBernoulli(0.6)) {
      sql_text += " LIMIT " + std::to_string(rng_.NextInRange(1, 50));
    }
    return sql_text;
  }

 private:
  std::string PickOne(std::vector<std::string> options) {
    return options[rng_.NextBounded(
        static_cast<uint32_t>(options.size()))];
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
          conjuncts.push_back(StrFormat("l_quantity < %lld",
                                        (long long)rng_.NextInRange(2, 50)));
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
          conjuncts.push_back(
              rng_.NextBernoulli(0.5)
                  ? "l_returnflag = 'R'"
                  : "NOT l_returnflag = 'N'");
          break;
        case 5:
          conjuncts.push_back("o_orderpriority IN ('1-URGENT', '2-HIGH')");
          break;
        default:
          conjuncts.push_back(StrFormat(
              "o_totalprice > %lld",
              (long long)rng_.NextInRange(1000, 400000)));
          break;
      }
    }
    return Join(conjuncts, " AND ");
  }

  Pcg32 rng_;
};

std::string Render(const db::Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      out += table.ValueAt(r, c).ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

TEST(SqlFuzzTest, RandomQueriesPlanRunAndAgreeAcrossModesAndThreads) {
  QueryGen gen(2026);
  int aggregate_queries = 0;
  int int_key_groups = 0;
  for (int i = 0; i < 300; ++i) {
    std::string sql_text = gen.Next();
    SCOPED_TRACE(sql_text);
    Result<PlannedQuery> planned = PlanQuery(sql_text, *Db());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();

    // Every query runs in all four mode x threads combinations; the four
    // result relations must be bit-identical (A6: concurrency knobs never
    // change reported results).
    Db()->set_threads(1);
    Result<db::QueryResult> optimized =
        RunQuery(sql_text, *Db(), db::ExecMode::kOptimized);
    Result<db::QueryResult> debug =
        RunQuery(sql_text, *Db(), db::ExecMode::kDebug);
    Db()->set_threads(4);
    Result<db::QueryResult> optimized4 =
        RunQuery(sql_text, *Db(), db::ExecMode::kOptimized);
    Result<db::QueryResult> debug4 =
        RunQuery(sql_text, *Db(), db::ExecMode::kDebug);
    Db()->set_threads(1);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    ASSERT_TRUE(debug.ok()) << debug.status().ToString();
    ASSERT_TRUE(optimized4.ok()) << optimized4.status().ToString();
    ASSERT_TRUE(debug4.ok()) << debug4.status().ToString();
    ASSERT_EQ(optimized->table->num_rows(), debug->table->num_rows());
    std::string expected = Render(*optimized->table);
    EXPECT_EQ(expected, Render(*debug->table));
    EXPECT_EQ(expected, Render(*optimized4->table));
    EXPECT_EQ(expected, Render(*debug4->table));

    aggregate_queries +=
        sql_text.find("GROUP BY") != std::string::npos ? 1 : 0;
    int_key_groups +=
        (sql_text.find("GROUP BY l_suppkey") != std::string::npos ||
         sql_text.find("GROUP BY l_linenumber") != std::string::npos)
            ? 1
            : 0;
  }
  // The generator really exercises both shapes, including the
  // single-int-key aggregation fast path.
  EXPECT_GT(aggregate_queries, 100);
  EXPECT_LT(aggregate_queries, 280);
  EXPECT_GT(int_key_groups, 10);
}

TEST(SqlFuzzTest, GeneratorIsDeterministic) {
  QueryGen a(7);
  QueryGen b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

int64_t CountWhere(const std::string& from_where) {
  Result<db::QueryResult> result =
      RunQuery("SELECT count(*) AS n FROM " + from_where, *Db());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? (*result).table->ValueAt(0, 0).AsInt64() : -1;
}

/// Conjuncts the metamorphic test can negate with a leading NOT. Mirrors
/// QueryGen::RandomPredicate but keeps each conjunct NOT-prefixable.
class PredicateGen {
 public:
  explicit PredicateGen(uint64_t seed) : rng_(seed) {}

  std::vector<std::string> NextConjuncts(bool join) {
    std::vector<std::string> conjuncts;
    int n = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < n; ++i) {
      switch (rng_.NextBounded(join ? 6 : 4)) {
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
          conjuncts.push_back("l_returnflag = 'R'");
          break;
        case 4:
          conjuncts.push_back("o_orderpriority IN ('1-URGENT', '2-HIGH')");
          break;
        default:
          conjuncts.push_back(
              StrFormat("o_totalprice > %lld",
                        (long long)rng_.NextInRange(1000, 400000)));
          break;
      }
    }
    return conjuncts;
  }

 private:
  Pcg32 rng_;
};

TEST(SqlFuzzTest, MetamorphicPredicatePartition) {
  // For any predicate P over NULL-free data, P and NOT P partition the
  // rows: COUNT under P plus COUNT under NOT P must equal the
  // unpartitioned COUNT. NOT (A AND B) is spelled via De Morgan because
  // the grammar applies NOT to single predicates. The generated TPC-H
  // data is NULL-free, so the P-is-NULL leg is empty here; the NULL leg
  // of the partition is exercised by the plan-level test below.
  PredicateGen gen(404);
  for (int i = 0; i < 60; ++i) {
    bool join = i % 3 == 0;
    std::string from = join
                           ? "lineitem JOIN orders ON l_orderkey = "
                             "o_orderkey"
                           : "lineitem";
    std::vector<std::string> conjuncts = gen.NextConjuncts(join);
    std::string predicate = Join(conjuncts, " AND ");
    std::vector<std::string> negated;
    for (const std::string& conjunct : conjuncts) {
      negated.push_back("NOT " + conjunct);
    }
    std::string complement = Join(negated, " OR ");
    SCOPED_TRACE(predicate);
    int64_t total = CountWhere(from);
    int64_t matched = CountWhere(from + " WHERE " + predicate);
    int64_t rest = CountWhere(from + " WHERE " + complement);
    ASSERT_GE(total, 0);
    EXPECT_EQ(matched + rest, total);
  }
}

TEST(SqlFuzzTest, MetamorphicPartitionWithNulls) {
  // Three-way partition over nullable data: rows where P holds, rows
  // where NOT P holds, and rows where P is NULL (here: x IS NULL, since
  // P compares x against a constant) must sum to the table size. Both P
  // and NOT P evaluate to UNKNOWN on the NULL rows and drop them, so a
  // NULL-handling bug in either the filter or the aggregate breaks the
  // sum.
  // COUNT(x) counts non-NULL x, so the NULL leg is COUNT(*) - COUNT(x).
  Pcg32 rng(77);
  db::Database database;
  auto table = std::make_shared<db::Table>(
      db::Schema({{"id", db::DataType::kInt64},
                  {"x", db::DataType::kDouble}}));
  const int kRows = 500;
  for (int i = 0; i < kRows; ++i) {
    table->AppendRow({db::Value::Int64(i),
                      rng.NextBernoulli(0.2)
                          ? db::Value::Null(db::DataType::kDouble)
                          : db::Value::Double(rng.NextDouble() * 100.0)});
  }
  database.RegisterTable("t", table);
  const db::Schema& schema = table->schema();
  auto count_of = [&](db::PlanPtr input, db::ExprPtr counted) {
    db::AggSpec spec;
    spec.op = db::AggOp::kCount;
    spec.expr = std::move(counted);
    spec.output_name = "n";
    db::QueryResult result =
        database.Run(db::Aggregate(std::move(input), {}, {spec}));
    return result.table->column(0).GetInt64(0);
  };
  for (int trial = 0; trial < 20; ++trial) {
    double threshold = rng.NextDouble() * 100.0;
    db::ExprPtr p = db::Gt(db::Col(schema, "x"), db::LitDouble(threshold));
    db::ExprPtr not_p = db::Not(
        db::Gt(db::Col(schema, "x"), db::LitDouble(threshold)));
    int64_t total = count_of(ScanOf(database, "t"), nullptr);
    int64_t non_null = count_of(ScanOf(database, "t"), db::Col(schema, "x"));
    int64_t matched =
        count_of(db::Filter(ScanOf(database, "t"), std::move(p)), nullptr);
    int64_t rest =
        count_of(db::Filter(ScanOf(database, "t"), std::move(not_p)), nullptr);
    EXPECT_EQ(total, kRows);
    EXPECT_GT(total - non_null, 0);  // The data really has NULLs.
    EXPECT_EQ(matched + rest + (total - non_null), total)
        << "threshold=" << threshold;
  }
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
