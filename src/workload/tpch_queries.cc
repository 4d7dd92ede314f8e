#include "workload/tpch_queries.h"

#include "common/check.h"

namespace perfeval {
namespace workload {
namespace {

using db::AggOp;
using db::Col;
using db::Catalog;
using db::ExprPtr;
using db::PlanPtr;
using db::Schema;

/// Schema of a base table in the pinned catalog version `d`.
const Schema& SchemaOf(const Catalog& d, const std::string& table) {
  return d.Get(table).table->schema();
}

PlanPtr Scan(const Catalog& d, const std::string& table,
             std::vector<std::string> cols) {
  return db::Scan(table, SchemaOf(d, table), std::move(cols));
}

PlanPtr FilterScan(const Catalog& d, const std::string& table,
                   std::vector<std::string> cols, ExprPtr pred) {
  return db::FilterScan(table, SchemaOf(d, table), std::move(cols),
                        std::move(pred));
}

/// db::Project over (output name, expression) pairs, which keeps each
/// name next to its expression in the query text.
PlanPtr Project(const PlanPtr& child,
                std::vector<std::pair<std::string, ExprPtr>> projections) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (auto& [name, expr] : projections) {
    names.push_back(name);
    exprs.push_back(std::move(expr));
  }
  return db::Project(child, std::move(exprs), std::move(names));
}

/// l_extendedprice * (1 - l_discount) over schema `s`.
ExprPtr Revenue(const Schema& s) {
  return db::Mul(Col(s, "l_extendedprice"),
                 db::Sub(db::LitDouble(1.0), Col(s, "l_discount")));
}

// ---- The 22 queries ----
//
// Expressions bind against the base-table schemas or against the
// schema() of the plan they consume.

PlanPtr BuildQ1(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr b = FilterScan(
      d, "lineitem",
      {"l_quantity", "l_extendedprice", "l_discount", "l_tax",
       "l_returnflag", "l_linestatus", "l_shipdate"},
      db::Le(Col(li, "l_shipdate"), db::LitDate("1998-09-02")));
  ExprPtr disc_price = Revenue(li);
  ExprPtr charge = db::Mul(
      Revenue(li), db::Add(db::LitDouble(1.0), Col(li, "l_tax")));
  b = db::Aggregate(
      b, {"l_returnflag", "l_linestatus"},
      {{AggOp::kSum, Col(li, "l_quantity"), "sum_qty"},
       {AggOp::kSum, Col(li, "l_extendedprice"), "sum_base_price"},
       {AggOp::kSum, disc_price, "sum_disc_price"},
       {AggOp::kSum, charge, "sum_charge"},
       {AggOp::kAvg, Col(li, "l_quantity"), "avg_qty"},
       {AggOp::kAvg, Col(li, "l_extendedprice"), "avg_price"},
       {AggOp::kAvg, Col(li, "l_discount"), "avg_disc"},
       {AggOp::kCount, nullptr, "count_order"}});
  return db::Sort(b, {{"l_returnflag", true}, {"l_linestatus", true}});
}

PlanPtr BuildQ2(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& region = SchemaOf(d, "region");
  PlanPtr p = FilterScan(
      d, "part", {"p_partkey", "p_mfgr", "p_size", "p_type"},
      db::And(db::Eq(Col(part, "p_size"), db::LitInt(15)),
              db::Like(Col(part, "p_type"), "%BRASS")));
  PlanPtr ps = Scan(d, "partsupp", {"ps_partkey", "ps_suppkey"});
  PlanPtr b = db::HashJoin(ps, p, "ps_partkey", "p_partkey");
  PlanPtr s = Scan(d, "supplier",
                   {"s_suppkey", "s_name", "s_address", "s_nationkey",
                    "s_phone", "s_acctbal", "s_comment"});
  b = db::HashJoin(b, s, "ps_suppkey", "s_suppkey");
  PlanPtr n = Scan(d, "nation", {"n_nationkey", "n_name", "n_regionkey"});
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  PlanPtr r = FilterScan(d, "region", {"r_regionkey", "r_name"},
                         db::Eq(Col(region, "r_name"),
                                db::LitString("EUROPE")));
  b = db::HashJoin(b, r, "n_regionkey", "r_regionkey");
  b = db::Sort(b, {{"s_acctbal", false},
                   {"n_name", true},
                   {"s_name", true},
                   {"p_partkey", true}});
  b = Project(b, {{"s_acctbal", Col(b->schema(), "s_acctbal")},
                  {"s_name", Col(b->schema(), "s_name")},
                  {"n_name", Col(b->schema(), "n_name")},
                  {"p_partkey", Col(b->schema(), "p_partkey")},
                  {"p_mfgr", Col(b->schema(), "p_mfgr")},
                  {"s_address", Col(b->schema(), "s_address")},
                  {"s_phone", Col(b->schema(), "s_phone")},
                  {"s_comment", Col(b->schema(), "s_comment")}});
  return db::Limit(b, 100);
}

PlanPtr BuildQ3(const Catalog& d) {
  const Schema& cust = SchemaOf(d, "customer");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr c = FilterScan(d, "customer", {"c_custkey", "c_mktsegment"},
                         db::Eq(Col(cust, "c_mktsegment"),
                                db::LitString("BUILDING")));
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate",
                    "o_shippriority"},
      db::Lt(Col(ord, "o_orderdate"), db::LitDate("1995-03-15")));
  PlanPtr oc = db::HashJoin(o, c, "o_custkey", "c_custkey");
  PlanPtr l = FilterScan(
      d, "lineitem", {"l_orderkey", "l_extendedprice", "l_discount",
                      "l_shipdate"},
      db::Gt(Col(li, "l_shipdate"), db::LitDate("1995-03-15")));
  PlanPtr b = db::HashJoin(l, oc, "l_orderkey", "o_orderkey");
  b = db::Aggregate(b, {"l_orderkey", "o_orderdate", "o_shippriority"},
                    {{AggOp::kSum, Revenue(b->schema()), "revenue"}});
  b = db::Sort(b, {{"revenue", false}, {"o_orderdate", true}});
  return db::Limit(b, 10);
}

PlanPtr BuildQ4(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_orderdate", "o_orderpriority"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1993-07-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1993-10-01"))));
  PlanPtr l = FilterScan(
      d, "lineitem", {"l_orderkey", "l_commitdate", "l_receiptdate"},
      db::Lt(Col(li, "l_commitdate"), Col(li, "l_receiptdate")));
  PlanPtr b = db::HashJoin(l, o, "l_orderkey", "o_orderkey");
  b = db::Aggregate(b, {"o_orderpriority"},
                    {{AggOp::kCountDistinct, Col(b->schema(), "o_orderkey"),
                      "order_count"}});
  return db::Sort(b, {{"o_orderpriority", true}});
}

PlanPtr BuildQ5(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& region = SchemaOf(d, "region");
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1994-01-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1995-01-01"))));
  PlanPtr c = Scan(d, "customer", {"c_custkey", "c_nationkey"});
  PlanPtr oc = db::HashJoin(o, c, "o_custkey", "c_custkey");
  PlanPtr l = Scan(d, "lineitem",
                   {"l_orderkey", "l_suppkey", "l_extendedprice",
                    "l_discount"});
  PlanPtr b = db::HashJoin(l, oc, "l_orderkey", "o_orderkey");
  PlanPtr s = Scan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = db::HashJoin(b, s, "l_suppkey", "s_suppkey");
  b = db::Filter(b, db::Eq(Col(b->schema(), "c_nationkey"),
                           Col(b->schema(), "s_nationkey")));
  PlanPtr n = Scan(d, "nation", {"n_nationkey", "n_name", "n_regionkey"});
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  PlanPtr r = FilterScan(d, "region", {"r_regionkey", "r_name"},
                         db::Eq(Col(region, "r_name"),
                                db::LitString("ASIA")));
  b = db::HashJoin(b, r, "n_regionkey", "r_regionkey");
  b = db::Aggregate(b, {"n_name"},
                    {{AggOp::kSum, Revenue(b->schema()), "revenue"}});
  return db::Sort(b, {{"revenue", false}});
}

PlanPtr BuildQ6(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr b = FilterScan(
      d, "lineitem",
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"},
      db::And(
          db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1994-01-01")),
                  db::Lt(Col(li, "l_shipdate"), db::LitDate("1995-01-01"))),
          db::And(
              db::And(db::Ge(Col(li, "l_discount"), db::LitDouble(0.05)),
                      db::Le(Col(li, "l_discount"), db::LitDouble(0.07))),
              db::Lt(Col(li, "l_quantity"), db::LitDouble(24.0)))));
  ExprPtr revenue =
      db::Mul(Col(li, "l_extendedprice"), Col(li, "l_discount"));
  return db::Aggregate(b, {}, {{AggOp::kSum, revenue, "revenue"}});
}

PlanPtr BuildQ7(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  const Schema& nation = SchemaOf(d, "nation");
  PlanPtr supp_nation =
      Project(Scan(d, "nation", {"n_nationkey", "n_name"}),
              {{"n1_key", Col(nation, "n_nationkey")},
               {"supp_nation", Col(nation, "n_name")}});
  PlanPtr cust_nation =
      Project(Scan(d, "nation", {"n_nationkey", "n_name"}),
              {{"n2_key", Col(nation, "n_nationkey")},
               {"cust_nation", Col(nation, "n_name")}});
  PlanPtr s =
      db::HashJoin(Scan(d, "supplier", {"s_suppkey", "s_nationkey"}),
                   supp_nation, "s_nationkey", "n1_key");
  PlanPtr c =
      db::HashJoin(Scan(d, "customer", {"c_custkey", "c_nationkey"}),
                   cust_nation, "c_nationkey", "n2_key");
  PlanPtr l = FilterScan(
      d, "lineitem",
      {"l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
       "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1995-01-01")),
              db::Le(Col(li, "l_shipdate"), db::LitDate("1996-12-31"))));
  PlanPtr b = db::HashJoin(l, s, "l_suppkey", "s_suppkey");
  PlanPtr o = Scan(d, "orders", {"o_orderkey", "o_custkey"});
  b = db::HashJoin(b, o, "l_orderkey", "o_orderkey");
  b = db::HashJoin(b, c, "o_custkey", "c_custkey");
  const Schema& joined = b->schema();
  b = db::Filter(
      b, db::Or(db::And(db::Eq(Col(joined, "supp_nation"),
                               db::LitString("FRANCE")),
                        db::Eq(Col(joined, "cust_nation"),
                               db::LitString("GERMANY"))),
                db::And(db::Eq(Col(joined, "supp_nation"),
                               db::LitString("GERMANY")),
                        db::Eq(Col(joined, "cust_nation"),
                               db::LitString("FRANCE")))));
  b = Project(b, {{"supp_nation", Col(b->schema(), "supp_nation")},
                  {"cust_nation", Col(b->schema(), "cust_nation")},
                  {"l_year", db::Year(Col(b->schema(), "l_shipdate"))},
                  {"volume", Revenue(b->schema())}});
  b = db::Aggregate(b, {"supp_nation", "cust_nation", "l_year"},
                    {{AggOp::kSum, Col(b->schema(), "volume"), "revenue"}});
  return db::Sort(
      b, {{"supp_nation", true}, {"cust_nation", true}, {"l_year", true}});
}

PlanPtr BuildQ8(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& nation = SchemaOf(d, "nation");
  const Schema& region = SchemaOf(d, "region");
  PlanPtr p = FilterScan(d, "part", {"p_partkey", "p_type"},
                         db::Eq(Col(part, "p_type"),
                                db::LitString("ECONOMY ANODIZED STEEL")));
  PlanPtr l = Scan(d, "lineitem",
                   {"l_orderkey", "l_partkey", "l_suppkey",
                    "l_extendedprice", "l_discount"});
  PlanPtr b = db::HashJoin(l, p, "l_partkey", "p_partkey");
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1995-01-01")),
              db::Le(Col(ord, "o_orderdate"), db::LitDate("1996-12-31"))));
  b = db::HashJoin(b, o, "l_orderkey", "o_orderkey");
  PlanPtr c = Scan(d, "customer", {"c_custkey", "c_nationkey"});
  b = db::HashJoin(b, c, "o_custkey", "c_custkey");
  PlanPtr n1 = Project(Scan(d, "nation", {"n_nationkey", "n_regionkey"}),
                       {{"c_nkey", Col(nation, "n_nationkey")},
                        {"c_rkey", Col(nation, "n_regionkey")}});
  b = db::HashJoin(b, n1, "c_nationkey", "c_nkey");
  PlanPtr r = FilterScan(d, "region", {"r_regionkey", "r_name"},
                         db::Eq(Col(region, "r_name"),
                                db::LitString("AMERICA")));
  b = db::HashJoin(b, r, "c_rkey", "r_regionkey");
  PlanPtr s = Scan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = db::HashJoin(b, s, "l_suppkey", "s_suppkey");
  PlanPtr n2 = Project(Scan(d, "nation", {"n_nationkey", "n_name"}),
                       {{"s_nkey", Col(nation, "n_nationkey")},
                        {"s_nation", Col(nation, "n_name")}});
  b = db::HashJoin(b, n2, "s_nationkey", "s_nkey");
  b = Project(b, {{"o_year", db::Year(Col(b->schema(), "o_orderdate"))},
                  {"volume", Revenue(b->schema())},
                  {"s_nation", Col(b->schema(), "s_nation")}});
  ExprPtr brazil_volume = db::If(
      db::Eq(Col(b->schema(), "s_nation"), db::LitString("BRAZIL")),
      Col(b->schema(), "volume"), db::LitDouble(0.0));
  b = db::Aggregate(
      b, {"o_year"},
      {{AggOp::kSum, brazil_volume, "brazil_volume"},
       {AggOp::kSum, Col(b->schema(), "volume"), "total_volume"}});
  b = Project(b, {{"o_year", Col(b->schema(), "o_year")},
                  {"mkt_share", db::Div(Col(b->schema(), "brazil_volume"),
                                        Col(b->schema(), "total_volume"))}});
  return db::Sort(b, {{"o_year", true}});
}

PlanPtr BuildQ9(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  PlanPtr p = FilterScan(d, "part", {"p_partkey", "p_name"},
                         db::Contains(Col(part, "p_name"), "green"));
  PlanPtr l = Scan(d, "lineitem",
                   {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                    "l_extendedprice", "l_discount"});
  PlanPtr b = db::HashJoin(l, p, "l_partkey", "p_partkey");
  PlanPtr ps = Scan(d, "partsupp",
                    {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  b = db::HashJoinWith(b, ps, {"l_partkey", "l_suppkey"},
                       {"ps_partkey", "ps_suppkey"}, std::nullopt);
  PlanPtr s = Scan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = db::HashJoin(b, s, "l_suppkey", "s_suppkey");
  PlanPtr o = Scan(d, "orders", {"o_orderkey", "o_orderdate"});
  b = db::HashJoin(b, o, "l_orderkey", "o_orderkey");
  PlanPtr n = Scan(d, "nation", {"n_nationkey", "n_name"});
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  ExprPtr amount = db::Sub(Revenue(b->schema()),
                           db::Mul(Col(b->schema(), "ps_supplycost"),
                                   Col(b->schema(), "l_quantity")));
  b = Project(b, {{"nation", Col(b->schema(), "n_name")},
                  {"o_year", db::Year(Col(b->schema(), "o_orderdate"))},
                  {"amount", amount}});
  b = db::Aggregate(
      b, {"nation", "o_year"},
      {{AggOp::kSum, Col(b->schema(), "amount"), "sum_profit"}});
  return db::Sort(b, {{"nation", true}, {"o_year", false}});
}

PlanPtr BuildQ10(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1993-10-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1994-01-01"))));
  PlanPtr l = FilterScan(
      d, "lineitem",
      {"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"},
      db::Eq(Col(li, "l_returnflag"), db::LitString("R")));
  PlanPtr b = db::HashJoin(l, o, "l_orderkey", "o_orderkey");
  PlanPtr c = Scan(d, "customer",
                   {"c_custkey", "c_name", "c_acctbal", "c_phone",
                    "c_nationkey", "c_address", "c_comment"});
  b = db::HashJoin(b, c, "o_custkey", "c_custkey");
  PlanPtr n = Scan(d, "nation", {"n_nationkey", "n_name"});
  b = db::HashJoin(b, n, "c_nationkey", "n_nationkey");
  b = db::Aggregate(b,
                    {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
                     "c_address", "c_comment"},
                    {{AggOp::kSum, Revenue(b->schema()), "revenue"}});
  b = db::Sort(b, {{"revenue", false}});
  return db::Limit(b, 20);
}

PlanPtr BuildQ11(const Catalog& d) {
  const Schema& nation = SchemaOf(d, "nation");
  PlanPtr ps = Scan(d, "partsupp",
                    {"ps_partkey", "ps_suppkey", "ps_availqty",
                     "ps_supplycost"});
  PlanPtr s = Scan(d, "supplier", {"s_suppkey", "s_nationkey"});
  PlanPtr b = db::HashJoin(ps, s, "ps_suppkey", "s_suppkey");
  PlanPtr n = FilterScan(d, "nation", {"n_nationkey", "n_name"},
                         db::Eq(Col(nation, "n_name"),
                                db::LitString("GERMANY")));
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  ExprPtr value = db::Mul(Col(b->schema(), "ps_supplycost"),
                          Col(b->schema(), "ps_availqty"));
  b = db::Aggregate(b, {"ps_partkey"}, {{AggOp::kSum, value, "value"}});
  b = db::Sort(b, {{"value", false}});
  return db::Limit(b, 100);
}

PlanPtr BuildQ12(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr l = FilterScan(
      d, "lineitem",
      {"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate",
       "l_shipdate"},
      db::And(
          db::And(db::InStrings(Col(li, "l_shipmode"), {"MAIL", "SHIP"}),
                  db::And(db::Lt(Col(li, "l_commitdate"),
                                 Col(li, "l_receiptdate")),
                          db::Lt(Col(li, "l_shipdate"),
                                 Col(li, "l_commitdate")))),
          db::And(
              db::Ge(Col(li, "l_receiptdate"), db::LitDate("1994-01-01")),
              db::Lt(Col(li, "l_receiptdate"), db::LitDate("1995-01-01")))));
  PlanPtr o = Scan(d, "orders", {"o_orderkey", "o_orderpriority"});
  PlanPtr b = db::HashJoin(l, o, "l_orderkey", "o_orderkey");
  ExprPtr is_high = db::InStrings(Col(b->schema(), "o_orderpriority"),
                                  {"1-URGENT", "2-HIGH"});
  b = db::Aggregate(
      b, {"l_shipmode"},
      {{AggOp::kSum, db::If(is_high, db::LitDouble(1.0), db::LitDouble(0.0)),
        "high_line_count"},
       {AggOp::kSum, db::If(is_high, db::LitDouble(0.0), db::LitDouble(1.0)),
        "low_line_count"}});
  return db::Sort(b, {{"l_shipmode", true}});
}

PlanPtr BuildQ13(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  PlanPtr o = FilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_comment"},
      db::Not(db::Like(Col(ord, "o_comment"), "%special%requests%")));
  PlanPtr counts = db::Aggregate(o, {"o_custkey"},
                                 {{AggOp::kCount, nullptr, "c_count"}});
  PlanPtr b = db::Aggregate(counts, {"c_count"},
                            {{AggOp::kCount, nullptr, "custdist"}});
  return db::Sort(b, {{"custdist", false}, {"c_count", false}});
}

PlanPtr BuildQ14(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr l = FilterScan(
      d, "lineitem",
      {"l_partkey", "l_shipdate", "l_extendedprice", "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1995-09-01")),
              db::Lt(Col(li, "l_shipdate"), db::LitDate("1995-10-01"))));
  PlanPtr p = Scan(d, "part", {"p_partkey", "p_type"});
  PlanPtr b = db::HashJoin(l, p, "l_partkey", "p_partkey");
  ExprPtr revenue = Revenue(b->schema());
  ExprPtr promo = db::If(db::Like(Col(b->schema(), "p_type"), "PROMO%"),
                         revenue, db::LitDouble(0.0));
  b = db::Aggregate(b, {},
                    {{AggOp::kSum, promo, "promo_revenue_part"},
                     {AggOp::kSum, revenue, "total_revenue"}});
  return Project(
      b, {{"promo_revenue",
           db::Div(db::Mul(db::LitDouble(100.0),
                           Col(b->schema(), "promo_revenue_part")),
                   Col(b->schema(), "total_revenue"))}});
}

PlanPtr BuildQ15(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr l = FilterScan(
      d, "lineitem",
      {"l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1996-01-01")),
              db::Lt(Col(li, "l_shipdate"), db::LitDate("1996-04-01"))));
  PlanPtr rev = db::Aggregate(l, {"l_suppkey"},
                              {{AggOp::kSum, Revenue(li), "total_revenue"}});
  rev = db::Sort(rev, {{"total_revenue", false}});
  rev = db::Limit(rev, 1);
  PlanPtr s = Scan(d, "supplier",
                   {"s_suppkey", "s_name", "s_address", "s_phone"});
  PlanPtr b = db::HashJoin(rev, s, "l_suppkey", "s_suppkey");
  return Project(b, {{"s_suppkey", Col(b->schema(), "s_suppkey")},
                     {"s_name", Col(b->schema(), "s_name")},
                     {"s_address", Col(b->schema(), "s_address")},
                     {"s_phone", Col(b->schema(), "s_phone")},
                     {"total_revenue", Col(b->schema(), "total_revenue")}});
}

PlanPtr BuildQ16(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  PlanPtr p = FilterScan(
      d, "part", {"p_partkey", "p_brand", "p_type", "p_size"},
      db::And(db::And(db::Ne(Col(part, "p_brand"),
                             db::LitString("Brand#45")),
                      db::Not(db::Like(Col(part, "p_type"),
                                       "MEDIUM POLISHED%"))),
              db::InInts(Col(part, "p_size"),
                         {49, 14, 23, 45, 19, 3, 36, 9})));
  PlanPtr ps = Scan(d, "partsupp", {"ps_partkey", "ps_suppkey"});
  PlanPtr b = db::HashJoin(ps, p, "ps_partkey", "p_partkey");
  b = db::Aggregate(b, {"p_brand", "p_type", "p_size"},
                    {{AggOp::kCountDistinct, Col(b->schema(), "ps_suppkey"),
                      "supplier_cnt"}});
  return db::Sort(b, {{"supplier_cnt", false},
                      {"p_brand", true},
                      {"p_type", true},
                      {"p_size", true}});
}

PlanPtr BuildQ17(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& li = SchemaOf(d, "lineitem");
  PlanPtr p = FilterScan(
      d, "part", {"p_partkey", "p_brand", "p_container"},
      db::And(db::Eq(Col(part, "p_brand"), db::LitString("Brand#23")),
              db::Eq(Col(part, "p_container"),
                     db::LitString("MED BOX"))));
  PlanPtr l = FilterScan(d, "lineitem",
                         {"l_partkey", "l_quantity", "l_extendedprice"},
                         db::Lt(Col(li, "l_quantity"), db::LitDouble(5.0)));
  PlanPtr b = db::HashJoin(l, p, "l_partkey", "p_partkey");
  b = db::Aggregate(
      b, {},
      {{AggOp::kSum, Col(b->schema(), "l_extendedprice"), "sum_price"}});
  return Project(b, {{"avg_yearly", db::Div(Col(b->schema(), "sum_price"),
                                            db::LitDouble(7.0))}});
}

PlanPtr BuildQ18(const Catalog& d) {
  PlanPtr l = Scan(d, "lineitem", {"l_orderkey", "l_quantity"});
  PlanPtr big = db::Aggregate(
      l, {"l_orderkey"},
      {{AggOp::kSum, Col(l->schema(), "l_quantity"), "sum_qty"}});
  big = db::Filter(big, db::Gt(Col(big->schema(), "sum_qty"),
                               db::LitDouble(300.0)));
  PlanPtr o = Scan(d, "orders",
                   {"o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"});
  PlanPtr b = db::HashJoin(big, o, "l_orderkey", "o_orderkey");
  PlanPtr c = Scan(d, "customer", {"c_custkey", "c_name"});
  b = db::HashJoin(b, c, "o_custkey", "c_custkey");
  b = db::Sort(b, {{"o_totalprice", false}, {"o_orderdate", true}});
  b = Project(b, {{"c_name", Col(b->schema(), "c_name")},
                  {"c_custkey", Col(b->schema(), "c_custkey")},
                  {"o_orderkey", Col(b->schema(), "o_orderkey")},
                  {"o_orderdate", Col(b->schema(), "o_orderdate")},
                  {"o_totalprice", Col(b->schema(), "o_totalprice")},
                  {"sum_qty", Col(b->schema(), "sum_qty")}});
  return db::Limit(b, 100);
}

PlanPtr BuildQ19(const Catalog& d) {
  PlanPtr l = Scan(d, "lineitem",
                   {"l_partkey", "l_quantity", "l_extendedprice",
                    "l_discount", "l_shipmode", "l_shipinstruct"});
  PlanPtr p = Scan(d, "part",
                   {"p_partkey", "p_brand", "p_container", "p_size"});
  PlanPtr joined = db::HashJoin(l, p, "l_partkey", "p_partkey");
  const Schema& s = joined->schema();
  auto clause = [&s](const char* brand,
                     std::vector<std::string> containers, double qty_lo,
                     double qty_hi, int64_t size_hi) {
    return db::And(
        db::And(db::Eq(Col(s, "p_brand"), db::LitString(brand)),
                db::InStrings(Col(s, "p_container"), std::move(containers))),
        db::And(db::And(db::Ge(Col(s, "l_quantity"), db::LitDouble(qty_lo)),
                        db::Le(Col(s, "l_quantity"),
                               db::LitDouble(qty_hi))),
                db::And(db::Ge(Col(s, "p_size"), db::LitInt(1)),
                        db::Le(Col(s, "p_size"), db::LitInt(size_hi)))));
  };
  ExprPtr common =
      db::And(db::InStrings(Col(s, "l_shipmode"), {"AIR", "REG AIR"}),
              db::Eq(Col(s, "l_shipinstruct"),
                     db::LitString("DELIVER IN PERSON")));
  ExprPtr any_clause = db::Or(
      clause("Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1.0,
             11.0, 5),
      db::Or(clause("Brand#23", {"MED BAG", "MED BOX", "MED PKG",
                                 "MED PACK"},
                    10.0, 20.0, 10),
             clause("Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"},
                    20.0, 30.0, 15)));
  PlanPtr b = db::Filter(joined, db::And(common, any_clause));
  return db::Aggregate(b, {}, {{AggOp::kSum, Revenue(s), "revenue"}});
}

PlanPtr BuildQ20(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& ps_schema = SchemaOf(d, "partsupp");
  const Schema& nation = SchemaOf(d, "nation");
  PlanPtr p = FilterScan(d, "part", {"p_partkey", "p_name"},
                         db::Like(Col(part, "p_name"), "forest%"));
  PlanPtr ps = FilterScan(
      d, "partsupp", {"ps_partkey", "ps_suppkey", "ps_availqty"},
      db::Gt(Col(ps_schema, "ps_availqty"), db::LitInt(100)));
  PlanPtr b = db::HashJoin(ps, p, "ps_partkey", "p_partkey");
  PlanPtr s = Scan(d, "supplier",
                   {"s_suppkey", "s_name", "s_address", "s_nationkey"});
  b = db::HashJoin(b, s, "ps_suppkey", "s_suppkey");
  PlanPtr n = FilterScan(d, "nation", {"n_nationkey", "n_name"},
                         db::Eq(Col(nation, "n_name"),
                                db::LitString("CANADA")));
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  b = db::Aggregate(b, {"s_name", "s_address"},
                    {{AggOp::kCount, nullptr, "num_parts"}});
  return db::Sort(b, {{"s_name", true}});
}

PlanPtr BuildQ21(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& nation = SchemaOf(d, "nation");
  PlanPtr l = FilterScan(
      d, "lineitem", {"l_orderkey", "l_suppkey", "l_receiptdate",
                      "l_commitdate"},
      db::Gt(Col(li, "l_receiptdate"), Col(li, "l_commitdate")));
  PlanPtr s = Scan(d, "supplier", {"s_suppkey", "s_name", "s_nationkey"});
  PlanPtr b = db::HashJoin(l, s, "l_suppkey", "s_suppkey");
  PlanPtr n = FilterScan(d, "nation", {"n_nationkey", "n_name"},
                         db::Eq(Col(nation, "n_name"),
                                db::LitString("SAUDI ARABIA")));
  b = db::HashJoin(b, n, "s_nationkey", "n_nationkey");
  PlanPtr o = FilterScan(d, "orders", {"o_orderkey", "o_orderstatus"},
                         db::Eq(Col(ord, "o_orderstatus"),
                                db::LitString("F")));
  b = db::HashJoin(b, o, "l_orderkey", "o_orderkey");
  b = db::Aggregate(b, {"s_name"}, {{AggOp::kCount, nullptr, "numwait"}});
  b = db::Sort(b, {{"numwait", false}, {"s_name", true}});
  return db::Limit(b, 100);
}

PlanPtr BuildQ22(const Catalog& d) {
  const Schema& cust = SchemaOf(d, "customer");
  PlanPtr c = FilterScan(
      d, "customer", {"c_phone", "c_acctbal"},
      db::And(db::InStrings(db::Substr(Col(cust, "c_phone"), 1, 2),
                            {"13", "31", "23", "29", "30", "18", "17"}),
              db::Gt(Col(cust, "c_acctbal"), db::LitDouble(0.0))));
  c = Project(c, {{"cntrycode", db::Substr(Col(cust, "c_phone"), 1, 2)},
                  {"c_acctbal", Col(cust, "c_acctbal")}});
  PlanPtr b = db::Aggregate(
      c, {"cntrycode"},
      {{AggOp::kCount, nullptr, "numcust"},
       {AggOp::kSum, Col(c->schema(), "c_acctbal"), "totacctbal"}});
  return db::Sort(b, {{"cntrycode", true}});
}

struct QueryEntry {
  int number;
  const char* name;
  const char* simplification;
  PlanPtr (*build)(const Catalog&);
};

const QueryEntry kQueries[] = {
    {1, "Pricing Summary Report", "faithful", BuildQ1},
    {2, "Minimum Cost Supplier",
     "correlated min-supplycost subquery dropped; returns all qualifying "
     "part/supplier pairs ordered as in the spec",
     BuildQ2},
    {3, "Shipping Priority", "faithful", BuildQ3},
    {4, "Order Priority Checking",
     "EXISTS rewritten as join + count(distinct o_orderkey)", BuildQ4},
    {5, "Local Supplier Volume", "faithful", BuildQ5},
    {6, "Forecasting Revenue Change", "faithful", BuildQ6},
    {7, "Volume Shipping", "faithful", BuildQ7},
    {8, "National Market Share", "faithful", BuildQ8},
    {9, "Product Type Profit Measure", "faithful", BuildQ9},
    {10, "Returned Item Reporting", "faithful", BuildQ10},
    {11, "Important Stock Identification",
     "HAVING sum > fraction-of-total replaced by top-100 by value",
     BuildQ11},
    {12, "Shipping Modes and Order Priority", "faithful", BuildQ12},
    {13, "Customer Distribution",
     "left outer join dropped: customers with zero orders not counted",
     BuildQ13},
    {14, "Promotion Effect", "faithful", BuildQ14},
    {15, "Top Supplier", "revenue view inlined; ties broken arbitrarily",
     BuildQ15},
    {16, "Parts/Supplier Relationship",
     "complaint-supplier anti-join dropped", BuildQ16},
    {17, "Small-Quantity-Order Revenue",
     "correlated 0.2*avg(quantity) threshold replaced by constant 5",
     BuildQ17},
    {18, "Large Volume Customer", "faithful", BuildQ18},
    {19, "Discounted Revenue", "faithful", BuildQ19},
    {20, "Potential Part Promotion",
     "correlated 0.5*sum(l_quantity) availability threshold replaced by "
     "constant 100",
     BuildQ20},
    {21, "Suppliers Who Kept Orders Waiting",
     "multi-supplier EXISTS/NOT EXISTS pair dropped", BuildQ21},
    {22, "Global Sales Opportunity",
     "avg(acctbal) threshold replaced by 0; no-recent-orders anti-join "
     "dropped",
     BuildQ22},
};

}  // namespace

db::PlanPtr TpchQuery::Build(const db::Database& database) const {
  // Schemas are bound against one pinned catalog version, so they stay
  // valid while the write path installs new table versions.
  std::shared_ptr<const db::Catalog> catalog = database.catalog();
  return kQueries[number - 1].build(*catalog);
}

const std::vector<TpchQuery>& AllTpchQueries() {
  static const std::vector<TpchQuery>* queries = [] {
    auto* v = new std::vector<TpchQuery>();
    for (const QueryEntry& entry : kQueries) {
      TpchQuery q;
      q.number = entry.number;
      q.name = entry.name;
      q.simplification = entry.simplification;
      v->push_back(q);
    }
    return v;
  }();
  return *queries;
}

const TpchQuery& GetTpchQuery(int number) {
  PERFEVAL_CHECK_GE(number, 1);
  PERFEVAL_CHECK_LE(number, 22);
  return AllTpchQueries()[static_cast<size_t>(number - 1)];
}

}  // namespace workload
}  // namespace perfeval
