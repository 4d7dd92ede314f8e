// The oracle's random SQL query generator, shared by the differential
// oracle (oracle_test.cc) and the declared-schema check
// (oracle_schema_test.cc).

#ifndef PERFEVAL_TESTS_SQL_ORACLE_QUERY_GEN_H_
#define PERFEVAL_TESTS_SQL_ORACLE_QUERY_GEN_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"

namespace perfeval {
namespace sql {

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

}  // namespace sql
}  // namespace perfeval

#endif  // PERFEVAL_TESTS_SQL_ORACLE_QUERY_GEN_H_
