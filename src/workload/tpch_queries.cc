#include "workload/tpch_queries.h"

#include "common/check.h"

namespace perfeval {
namespace workload {
namespace {

using db::AggOp;
using db::AggSpec;
using db::Col;
using db::Catalog;
using db::ExprPtr;
using db::PlanPtr;
using db::Schema;
using db::SortKey;

/// A plan together with its output schema, so expressions for downstream
/// operators can be bound while the plan is being assembled.
struct Bound {
  PlanPtr plan;
  Schema schema;
};

/// Schema of a base table in the pinned catalog version `d`.
const Schema& SchemaOf(const Catalog& d, const std::string& table) {
  return d.Get(table).table->schema();
}

Bound BScan(const Catalog& d, const std::string& table,
            std::vector<std::string> cols) {
  return {db::Scan(table, std::move(cols)), SchemaOf(d, table)};
}

Bound BFilterScan(const Catalog& d, const std::string& table,
                  std::vector<std::string> cols, ExprPtr pred) {
  return {db::FilterScan(table, std::move(cols), std::move(pred)),
          SchemaOf(d, table)};
}

// The helpers take Bound by const reference (plans are shared_ptrs, schemas
// small vectors) so call sites may keep binding expressions against
// `b.schema` in the same statement that consumes `b`.

Bound BFilter(const Bound& b, ExprPtr pred) {
  return {db::Filter(b.plan, std::move(pred)), b.schema};
}

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  std::vector<db::ColumnSpec> specs = a.columns();
  for (const db::ColumnSpec& spec : b.columns()) {
    specs.push_back(spec);
  }
  return Schema(std::move(specs));
}

Bound BJoin(const Bound& l, const Bound& r, const std::string& lk,
            const std::string& rk) {
  return {db::HashJoin(l.plan, r.plan, lk, rk),
          ConcatSchemas(l.schema, r.schema)};
}

Bound BJoin2(const Bound& l, const Bound& r, const std::string& lk1,
             const std::string& rk1, const std::string& lk2,
             const std::string& rk2) {
  return {db::HashJoin2(l.plan, r.plan, lk1, rk1, lk2, rk2),
          ConcatSchemas(l.schema, r.schema)};
}

Bound BProject(const Bound& b,
               std::vector<std::pair<std::string, ExprPtr>> projections) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  std::vector<db::ColumnSpec> specs;
  for (auto& [name, expr] : projections) {
    specs.push_back({name, expr->ResultType(b.schema)});
    names.push_back(name);
    exprs.push_back(std::move(expr));
  }
  return {db::Project(b.plan, std::move(exprs), std::move(names)),
          Schema(std::move(specs))};
}

Bound BAgg(const Bound& b, std::vector<std::string> group_by,
           std::vector<AggSpec> aggs) {
  std::vector<db::ColumnSpec> specs;
  for (const std::string& g : group_by) {
    specs.push_back(b.schema.column(b.schema.MustIndexOf(g)));
  }
  for (const AggSpec& agg : aggs) {
    db::DataType type =
        (agg.op == AggOp::kCount || agg.op == AggOp::kCountDistinct)
            ? db::DataType::kInt64
            : db::DataType::kDouble;
    specs.push_back({agg.output_name, type});
  }
  return {db::Aggregate(b.plan, std::move(group_by), std::move(aggs)),
          Schema(std::move(specs))};
}

Bound BSort(const Bound& b, std::vector<SortKey> keys) {
  return {db::Sort(b.plan, std::move(keys)), b.schema};
}

Bound BLimit(const Bound& b, size_t n) {
  return {db::Limit(b.plan, n), b.schema};
}

/// l_extendedprice * (1 - l_discount) over schema `s`.
ExprPtr Revenue(const Schema& s) {
  return db::Mul(Col(s, "l_extendedprice"),
                 db::Sub(db::LitDouble(1.0), Col(s, "l_discount")));
}

// ---- The 22 queries ----

PlanPtr BuildQ1(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  Bound b = BFilterScan(
      d, "lineitem",
      {"l_quantity", "l_extendedprice", "l_discount", "l_tax",
       "l_returnflag", "l_linestatus", "l_shipdate"},
      db::Le(Col(li, "l_shipdate"), db::LitDate("1998-09-02")));
  ExprPtr disc_price = Revenue(li);
  ExprPtr charge = db::Mul(
      Revenue(li), db::Add(db::LitDouble(1.0), Col(li, "l_tax")));
  b = BAgg(b, {"l_returnflag", "l_linestatus"},
           {{AggOp::kSum, Col(li, "l_quantity"), "sum_qty"},
            {AggOp::kSum, Col(li, "l_extendedprice"), "sum_base_price"},
            {AggOp::kSum, disc_price, "sum_disc_price"},
            {AggOp::kSum, charge, "sum_charge"},
            {AggOp::kAvg, Col(li, "l_quantity"), "avg_qty"},
            {AggOp::kAvg, Col(li, "l_extendedprice"), "avg_price"},
            {AggOp::kAvg, Col(li, "l_discount"), "avg_disc"},
            {AggOp::kCount, nullptr, "count_order"}});
  b = BSort(b, {{"l_returnflag", true}, {"l_linestatus", true}});
  return b.plan;
}

PlanPtr BuildQ2(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& region = SchemaOf(d, "region");
  Bound p = BFilterScan(
      d, "part", {"p_partkey", "p_mfgr", "p_size", "p_type"},
      db::And(db::Eq(Col(part, "p_size"), db::LitInt(15)),
              db::Like(Col(part, "p_type"), "%BRASS")));
  Bound ps = BScan(d, "partsupp", {"ps_partkey", "ps_suppkey"});
  Bound b = BJoin(ps, p, "ps_partkey", "p_partkey");
  Bound s = BScan(d, "supplier",
                  {"s_suppkey", "s_name", "s_address", "s_nationkey",
                   "s_phone", "s_acctbal", "s_comment"});
  b = BJoin(b, s, "ps_suppkey", "s_suppkey");
  Bound n = BScan(d, "nation", {"n_nationkey", "n_name", "n_regionkey"});
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  Bound r = BFilterScan(d, "region", {"r_regionkey", "r_name"},
                        db::Eq(Col(region, "r_name"),
                               db::LitString("EUROPE")));
  b = BJoin(b, r, "n_regionkey", "r_regionkey");
  b = BSort(b, {{"s_acctbal", false},
                           {"n_name", true},
                           {"s_name", true},
                           {"p_partkey", true}});
  b = BProject(b,
               {{"s_acctbal", Col(b.schema, "s_acctbal")},
                {"s_name", Col(b.schema, "s_name")},
                {"n_name", Col(b.schema, "n_name")},
                {"p_partkey", Col(b.schema, "p_partkey")},
                {"p_mfgr", Col(b.schema, "p_mfgr")},
                {"s_address", Col(b.schema, "s_address")},
                {"s_phone", Col(b.schema, "s_phone")},
                {"s_comment", Col(b.schema, "s_comment")}});
  return BLimit(b, 100).plan;
}

PlanPtr BuildQ3(const Catalog& d) {
  const Schema& cust = SchemaOf(d, "customer");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  Bound c = BFilterScan(d, "customer", {"c_custkey", "c_mktsegment"},
                        db::Eq(Col(cust, "c_mktsegment"),
                               db::LitString("BUILDING")));
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate",
                    "o_shippriority"},
      db::Lt(Col(ord, "o_orderdate"), db::LitDate("1995-03-15")));
  Bound oc = BJoin(o, c, "o_custkey", "c_custkey");
  Bound l = BFilterScan(
      d, "lineitem", {"l_orderkey", "l_extendedprice", "l_discount",
                      "l_shipdate"},
      db::Gt(Col(li, "l_shipdate"), db::LitDate("1995-03-15")));
  Bound b = BJoin(l, oc, "l_orderkey", "o_orderkey");
  ExprPtr revenue = Revenue(b.schema);
  b = BAgg(b, {"l_orderkey", "o_orderdate", "o_shippriority"},
           {{AggOp::kSum, revenue, "revenue"}});
  b = BSort(b, {{"revenue", false}, {"o_orderdate", true}});
  return BLimit(b, 10).plan;
}

PlanPtr BuildQ4(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_orderdate", "o_orderpriority"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1993-07-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1993-10-01"))));
  Bound l = BFilterScan(
      d, "lineitem", {"l_orderkey", "l_commitdate", "l_receiptdate"},
      db::Lt(Col(li, "l_commitdate"), Col(li, "l_receiptdate")));
  Bound b = BJoin(l, o, "l_orderkey", "o_orderkey");
  b = BAgg(b, {"o_orderpriority"},
           {{AggOp::kCountDistinct, Col(b.schema, "o_orderkey"),
             "order_count"}});
  return BSort(b, {{"o_orderpriority", true}}).plan;
}

PlanPtr BuildQ5(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& region = SchemaOf(d, "region");
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1994-01-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1995-01-01"))));
  Bound c = BScan(d, "customer", {"c_custkey", "c_nationkey"});
  Bound oc = BJoin(o, c, "o_custkey", "c_custkey");
  Bound l = BScan(d, "lineitem",
                  {"l_orderkey", "l_suppkey", "l_extendedprice",
                   "l_discount"});
  Bound b = BJoin(l, oc, "l_orderkey", "o_orderkey");
  Bound s = BScan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = BJoin(b, s, "l_suppkey", "s_suppkey");
  b = BFilter(b, db::Eq(Col(b.schema, "c_nationkey"),
                                   Col(b.schema, "s_nationkey")));
  Bound n = BScan(d, "nation", {"n_nationkey", "n_name", "n_regionkey"});
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  Bound r = BFilterScan(d, "region", {"r_regionkey", "r_name"},
                        db::Eq(Col(region, "r_name"),
                               db::LitString("ASIA")));
  b = BJoin(b, r, "n_regionkey", "r_regionkey");
  ExprPtr revenue = Revenue(b.schema);
  b = BAgg(b, {"n_name"}, {{AggOp::kSum, revenue, "revenue"}});
  return BSort(b, {{"revenue", false}}).plan;
}

PlanPtr BuildQ6(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  Bound b = BFilterScan(
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
  return BAgg(b, {}, {{AggOp::kSum, revenue, "revenue"}}).plan;
}

PlanPtr BuildQ7(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  const Schema& nation = SchemaOf(d, "nation");
  Bound supp_nation =
      BProject(BScan(d, "nation", {"n_nationkey", "n_name"}),
               {{"n1_key", Col(nation, "n_nationkey")},
                {"supp_nation", Col(nation, "n_name")}});
  Bound cust_nation =
      BProject(BScan(d, "nation", {"n_nationkey", "n_name"}),
               {{"n2_key", Col(nation, "n_nationkey")},
                {"cust_nation", Col(nation, "n_name")}});
  Bound s = BJoin(BScan(d, "supplier", {"s_suppkey", "s_nationkey"}),
                  supp_nation, "s_nationkey", "n1_key");
  Bound c = BJoin(BScan(d, "customer", {"c_custkey", "c_nationkey"}),
                  cust_nation, "c_nationkey", "n2_key");
  Bound l = BFilterScan(
      d, "lineitem",
      {"l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
       "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1995-01-01")),
              db::Le(Col(li, "l_shipdate"), db::LitDate("1996-12-31"))));
  Bound b = BJoin(l, s, "l_suppkey", "s_suppkey");
  Bound o = BScan(d, "orders", {"o_orderkey", "o_custkey"});
  b = BJoin(b, o, "l_orderkey", "o_orderkey");
  b = BJoin(b, c, "o_custkey", "c_custkey");
  b = BFilter(
      b,
      db::Or(db::And(db::Eq(Col(b.schema, "supp_nation"),
                            db::LitString("FRANCE")),
                     db::Eq(Col(b.schema, "cust_nation"),
                            db::LitString("GERMANY"))),
             db::And(db::Eq(Col(b.schema, "supp_nation"),
                            db::LitString("GERMANY")),
                     db::Eq(Col(b.schema, "cust_nation"),
                            db::LitString("FRANCE")))));
  b = BProject(b,
               {{"supp_nation", Col(b.schema, "supp_nation")},
                {"cust_nation", Col(b.schema, "cust_nation")},
                {"l_year", db::Year(Col(b.schema, "l_shipdate"))},
                {"volume", Revenue(b.schema)}});
  b = BAgg(b, {"supp_nation", "cust_nation", "l_year"},
           {{AggOp::kSum, Col(b.schema, "volume"), "revenue"}});
  return BSort(b, {{"supp_nation", true},
                              {"cust_nation", true},
                              {"l_year", true}})
      .plan;
}

PlanPtr BuildQ8(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& nation = SchemaOf(d, "nation");
  const Schema& region = SchemaOf(d, "region");
  Bound p = BFilterScan(d, "part", {"p_partkey", "p_type"},
                        db::Eq(Col(part, "p_type"),
                               db::LitString("ECONOMY ANODIZED STEEL")));
  Bound l = BScan(d, "lineitem",
                  {"l_orderkey", "l_partkey", "l_suppkey",
                   "l_extendedprice", "l_discount"});
  Bound b = BJoin(l, p, "l_partkey", "p_partkey");
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1995-01-01")),
              db::Le(Col(ord, "o_orderdate"), db::LitDate("1996-12-31"))));
  b = BJoin(b, o, "l_orderkey", "o_orderkey");
  Bound c = BScan(d, "customer", {"c_custkey", "c_nationkey"});
  b = BJoin(b, c, "o_custkey", "c_custkey");
  Bound n1 = BProject(BScan(d, "nation", {"n_nationkey", "n_regionkey"}),
                      {{"c_nkey", Col(nation, "n_nationkey")},
                       {"c_rkey", Col(nation, "n_regionkey")}});
  b = BJoin(b, n1, "c_nationkey", "c_nkey");
  Bound r = BFilterScan(d, "region", {"r_regionkey", "r_name"},
                        db::Eq(Col(region, "r_name"),
                               db::LitString("AMERICA")));
  b = BJoin(b, r, "c_rkey", "r_regionkey");
  Bound s = BScan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = BJoin(b, s, "l_suppkey", "s_suppkey");
  Bound n2 = BProject(BScan(d, "nation", {"n_nationkey", "n_name"}),
                      {{"s_nkey", Col(nation, "n_nationkey")},
                       {"s_nation", Col(nation, "n_name")}});
  b = BJoin(b, n2, "s_nationkey", "s_nkey");
  b = BProject(b,
               {{"o_year", db::Year(Col(b.schema, "o_orderdate"))},
                {"volume", Revenue(b.schema)},
                {"s_nation", Col(b.schema, "s_nation")}});
  ExprPtr brazil_volume =
      db::If(db::Eq(Col(b.schema, "s_nation"), db::LitString("BRAZIL")),
             Col(b.schema, "volume"), db::LitDouble(0.0));
  b = BAgg(b, {"o_year"},
           {{AggOp::kSum, brazil_volume, "brazil_volume"},
            {AggOp::kSum, Col(b.schema, "volume"), "total_volume"}});
  b = BProject(b,
               {{"o_year", Col(b.schema, "o_year")},
                {"mkt_share", db::Div(Col(b.schema, "brazil_volume"),
                                      Col(b.schema, "total_volume"))}});
  return BSort(b, {{"o_year", true}}).plan;
}

PlanPtr BuildQ9(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  Bound p = BFilterScan(d, "part", {"p_partkey", "p_name"},
                        db::Contains(Col(part, "p_name"), "green"));
  Bound l = BScan(d, "lineitem",
                  {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                   "l_extendedprice", "l_discount"});
  Bound b = BJoin(l, p, "l_partkey", "p_partkey");
  Bound ps = BScan(d, "partsupp",
                   {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  b = BJoin2(b, ps, "l_partkey", "ps_partkey",
             "l_suppkey", "ps_suppkey");
  Bound s = BScan(d, "supplier", {"s_suppkey", "s_nationkey"});
  b = BJoin(b, s, "l_suppkey", "s_suppkey");
  Bound o = BScan(d, "orders", {"o_orderkey", "o_orderdate"});
  b = BJoin(b, o, "l_orderkey", "o_orderkey");
  Bound n = BScan(d, "nation", {"n_nationkey", "n_name"});
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  ExprPtr amount =
      db::Sub(Revenue(b.schema), db::Mul(Col(b.schema, "ps_supplycost"),
                                         Col(b.schema, "l_quantity")));
  b = BProject(b,
               {{"nation", Col(b.schema, "n_name")},
                {"o_year", db::Year(Col(b.schema, "o_orderdate"))},
                {"amount", amount}});
  b = BAgg(b, {"nation", "o_year"},
           {{AggOp::kSum, Col(b.schema, "amount"), "sum_profit"}});
  return BSort(b, {{"nation", true}, {"o_year", false}}).plan;
}

PlanPtr BuildQ10(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& li = SchemaOf(d, "lineitem");
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_orderdate"},
      db::And(db::Ge(Col(ord, "o_orderdate"), db::LitDate("1993-10-01")),
              db::Lt(Col(ord, "o_orderdate"), db::LitDate("1994-01-01"))));
  Bound l = BFilterScan(
      d, "lineitem",
      {"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"},
      db::Eq(Col(li, "l_returnflag"), db::LitString("R")));
  Bound b = BJoin(l, o, "l_orderkey", "o_orderkey");
  Bound c = BScan(d, "customer",
                  {"c_custkey", "c_name", "c_acctbal", "c_phone",
                   "c_nationkey", "c_address", "c_comment"});
  b = BJoin(b, c, "o_custkey", "c_custkey");
  Bound n = BScan(d, "nation", {"n_nationkey", "n_name"});
  b = BJoin(b, n, "c_nationkey", "n_nationkey");
  ExprPtr revenue = Revenue(b.schema);
  b = BAgg(b,
           {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
            "c_address", "c_comment"},
           {{AggOp::kSum, revenue, "revenue"}});
  b = BSort(b, {{"revenue", false}});
  return BLimit(b, 20).plan;
}

PlanPtr BuildQ11(const Catalog& d) {
  const Schema& nation = SchemaOf(d, "nation");
  Bound ps = BScan(d, "partsupp",
                   {"ps_partkey", "ps_suppkey", "ps_availqty",
                    "ps_supplycost"});
  Bound s = BScan(d, "supplier", {"s_suppkey", "s_nationkey"});
  Bound b = BJoin(ps, s, "ps_suppkey", "s_suppkey");
  Bound n = BFilterScan(d, "nation", {"n_nationkey", "n_name"},
                        db::Eq(Col(nation, "n_name"),
                               db::LitString("GERMANY")));
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  ExprPtr value = db::Mul(Col(b.schema, "ps_supplycost"),
                          Col(b.schema, "ps_availqty"));
  b = BAgg(b, {"ps_partkey"}, {{AggOp::kSum, value, "value"}});
  b = BSort(b, {{"value", false}});
  return BLimit(b, 100).plan;
}

PlanPtr BuildQ12(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  Bound l = BFilterScan(
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
  Bound o = BScan(d, "orders", {"o_orderkey", "o_orderpriority"});
  Bound b = BJoin(l, o, "l_orderkey", "o_orderkey");
  ExprPtr is_high = db::InStrings(Col(b.schema, "o_orderpriority"),
                                  {"1-URGENT", "2-HIGH"});
  b = BAgg(b, {"l_shipmode"},
           {{AggOp::kSum,
             db::If(is_high, db::LitDouble(1.0), db::LitDouble(0.0)),
             "high_line_count"},
            {AggOp::kSum,
             db::If(is_high, db::LitDouble(0.0), db::LitDouble(1.0)),
             "low_line_count"}});
  return BSort(b, {{"l_shipmode", true}}).plan;
}

PlanPtr BuildQ13(const Catalog& d) {
  const Schema& ord = SchemaOf(d, "orders");
  Bound o = BFilterScan(
      d, "orders", {"o_orderkey", "o_custkey", "o_comment"},
      db::Not(db::Like(Col(ord, "o_comment"), "%special%requests%")));
  Bound counts = BAgg(o, {"o_custkey"},
                      {{AggOp::kCount, nullptr, "c_count"}});
  Bound b = BAgg(counts, {"c_count"},
                 {{AggOp::kCount, nullptr, "custdist"}});
  return BSort(b, {{"custdist", false}, {"c_count", false}}).plan;
}

PlanPtr BuildQ14(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  Bound l = BFilterScan(
      d, "lineitem",
      {"l_partkey", "l_shipdate", "l_extendedprice", "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1995-09-01")),
              db::Lt(Col(li, "l_shipdate"), db::LitDate("1995-10-01"))));
  Bound p = BScan(d, "part", {"p_partkey", "p_type"});
  Bound b = BJoin(l, p, "l_partkey", "p_partkey");
  ExprPtr revenue = Revenue(b.schema);
  ExprPtr promo = db::If(db::Like(Col(b.schema, "p_type"), "PROMO%"),
                         revenue, db::LitDouble(0.0));
  b = BAgg(b, {},
           {{AggOp::kSum, promo, "promo_revenue_part"},
            {AggOp::kSum, revenue, "total_revenue"}});
  b = BProject(
      b,
      {{"promo_revenue",
        db::Div(db::Mul(db::LitDouble(100.0),
                        Col(b.schema, "promo_revenue_part")),
                Col(b.schema, "total_revenue"))}});
  return b.plan;
}

PlanPtr BuildQ15(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  Bound l = BFilterScan(
      d, "lineitem",
      {"l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"},
      db::And(db::Ge(Col(li, "l_shipdate"), db::LitDate("1996-01-01")),
              db::Lt(Col(li, "l_shipdate"), db::LitDate("1996-04-01"))));
  Bound rev = BAgg(l, {"l_suppkey"},
                   {{AggOp::kSum, Revenue(li), "total_revenue"}});
  rev = BSort(rev, {{"total_revenue", false}});
  rev = BLimit(rev, 1);
  Bound s = BScan(d, "supplier",
                  {"s_suppkey", "s_name", "s_address", "s_phone"});
  Bound b = BJoin(rev, s, "l_suppkey", "s_suppkey");
  b = BProject(b,
               {{"s_suppkey", Col(b.schema, "s_suppkey")},
                {"s_name", Col(b.schema, "s_name")},
                {"s_address", Col(b.schema, "s_address")},
                {"s_phone", Col(b.schema, "s_phone")},
                {"total_revenue", Col(b.schema, "total_revenue")}});
  return b.plan;
}

PlanPtr BuildQ16(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  Bound p = BFilterScan(
      d, "part", {"p_partkey", "p_brand", "p_type", "p_size"},
      db::And(db::And(db::Ne(Col(part, "p_brand"),
                             db::LitString("Brand#45")),
                      db::Not(db::Like(Col(part, "p_type"),
                                       "MEDIUM POLISHED%"))),
              db::InInts(Col(part, "p_size"),
                         {49, 14, 23, 45, 19, 3, 36, 9})));
  Bound ps = BScan(d, "partsupp", {"ps_partkey", "ps_suppkey"});
  Bound b = BJoin(ps, p, "ps_partkey", "p_partkey");
  b = BAgg(b, {"p_brand", "p_type", "p_size"},
           {{AggOp::kCountDistinct, Col(b.schema, "ps_suppkey"),
             "supplier_cnt"}});
  return BSort(b, {{"supplier_cnt", false},
                              {"p_brand", true},
                              {"p_type", true},
                              {"p_size", true}})
      .plan;
}

PlanPtr BuildQ17(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& li = SchemaOf(d, "lineitem");
  Bound p = BFilterScan(
      d, "part", {"p_partkey", "p_brand", "p_container"},
      db::And(db::Eq(Col(part, "p_brand"), db::LitString("Brand#23")),
              db::Eq(Col(part, "p_container"),
                     db::LitString("MED BOX"))));
  Bound l = BFilterScan(d, "lineitem",
                        {"l_partkey", "l_quantity", "l_extendedprice"},
                        db::Lt(Col(li, "l_quantity"), db::LitDouble(5.0)));
  Bound b = BJoin(l, p, "l_partkey", "p_partkey");
  b = BAgg(b, {},
           {{AggOp::kSum, Col(b.schema, "l_extendedprice"), "sum_price"}});
  b = BProject(b,
               {{"avg_yearly", db::Div(Col(b.schema, "sum_price"),
                                       db::LitDouble(7.0))}});
  return b.plan;
}

PlanPtr BuildQ18(const Catalog& d) {
  Bound l = BScan(d, "lineitem", {"l_orderkey", "l_quantity"});
  Bound big = BAgg(l, {"l_orderkey"},
                   {{AggOp::kSum, Col(l.schema, "l_quantity"), "sum_qty"}});
  big = BFilter(big, db::Gt(Col(big.schema, "sum_qty"),
                                       db::LitDouble(300.0)));
  Bound o = BScan(d, "orders",
                  {"o_orderkey", "o_custkey", "o_orderdate",
                   "o_totalprice"});
  Bound b = BJoin(big, o, "l_orderkey", "o_orderkey");
  Bound c = BScan(d, "customer", {"c_custkey", "c_name"});
  b = BJoin(b, c, "o_custkey", "c_custkey");
  b = BSort(b, {{"o_totalprice", false}, {"o_orderdate", true}});
  b = BProject(b,
               {{"c_name", Col(b.schema, "c_name")},
                {"c_custkey", Col(b.schema, "c_custkey")},
                {"o_orderkey", Col(b.schema, "o_orderkey")},
                {"o_orderdate", Col(b.schema, "o_orderdate")},
                {"o_totalprice", Col(b.schema, "o_totalprice")},
                {"sum_qty", Col(b.schema, "sum_qty")}});
  return BLimit(b, 100).plan;
}

PlanPtr BuildQ19(const Catalog& d) {
  Bound l = BScan(d, "lineitem",
                  {"l_partkey", "l_quantity", "l_extendedprice",
                   "l_discount", "l_shipmode", "l_shipinstruct"});
  Bound p = BScan(d, "part",
                  {"p_partkey", "p_brand", "p_container", "p_size"});
  Bound b = BJoin(l, p, "l_partkey", "p_partkey");
  const Schema& s = b.schema;
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
  b = BFilter(b, db::And(common, any_clause));
  return BAgg(b, {},
              {{AggOp::kSum, Revenue(b.schema), "revenue"}})
      .plan;
}

PlanPtr BuildQ20(const Catalog& d) {
  const Schema& part = SchemaOf(d, "part");
  const Schema& ps_schema = SchemaOf(d, "partsupp");
  const Schema& nation = SchemaOf(d, "nation");
  Bound p = BFilterScan(d, "part", {"p_partkey", "p_name"},
                        db::Like(Col(part, "p_name"), "forest%"));
  Bound ps = BFilterScan(
      d, "partsupp", {"ps_partkey", "ps_suppkey", "ps_availqty"},
      db::Gt(Col(ps_schema, "ps_availqty"), db::LitInt(100)));
  Bound b = BJoin(ps, p, "ps_partkey", "p_partkey");
  Bound s = BScan(d, "supplier",
                  {"s_suppkey", "s_name", "s_address", "s_nationkey"});
  b = BJoin(b, s, "ps_suppkey", "s_suppkey");
  Bound n = BFilterScan(d, "nation", {"n_nationkey", "n_name"},
                        db::Eq(Col(nation, "n_name"),
                               db::LitString("CANADA")));
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  b = BAgg(b, {"s_name", "s_address"},
           {{AggOp::kCount, nullptr, "num_parts"}});
  return BSort(b, {{"s_name", true}}).plan;
}

PlanPtr BuildQ21(const Catalog& d) {
  const Schema& li = SchemaOf(d, "lineitem");
  const Schema& ord = SchemaOf(d, "orders");
  const Schema& nation = SchemaOf(d, "nation");
  Bound l = BFilterScan(
      d, "lineitem", {"l_orderkey", "l_suppkey", "l_receiptdate",
                      "l_commitdate"},
      db::Gt(Col(li, "l_receiptdate"), Col(li, "l_commitdate")));
  Bound s = BScan(d, "supplier", {"s_suppkey", "s_name", "s_nationkey"});
  Bound b = BJoin(l, s, "l_suppkey", "s_suppkey");
  Bound n = BFilterScan(d, "nation", {"n_nationkey", "n_name"},
                        db::Eq(Col(nation, "n_name"),
                               db::LitString("SAUDI ARABIA")));
  b = BJoin(b, n, "s_nationkey", "n_nationkey");
  Bound o = BFilterScan(d, "orders", {"o_orderkey", "o_orderstatus"},
                        db::Eq(Col(ord, "o_orderstatus"),
                               db::LitString("F")));
  b = BJoin(b, o, "l_orderkey", "o_orderkey");
  b = BAgg(b, {"s_name"}, {{AggOp::kCount, nullptr, "numwait"}});
  b = BSort(b, {{"numwait", false}, {"s_name", true}});
  return BLimit(b, 100).plan;
}

PlanPtr BuildQ22(const Catalog& d) {
  const Schema& cust = SchemaOf(d, "customer");
  Bound c = BFilterScan(
      d, "customer", {"c_phone", "c_acctbal"},
      db::And(db::InStrings(db::Substr(Col(cust, "c_phone"), 1, 2),
                            {"13", "31", "23", "29", "30", "18", "17"}),
              db::Gt(Col(cust, "c_acctbal"), db::LitDouble(0.0))));
  c = BProject(c,
               {{"cntrycode", db::Substr(Col(cust, "c_phone"), 1, 2)},
                {"c_acctbal", Col(cust, "c_acctbal")}});
  Bound b = BAgg(c, {"cntrycode"},
                 {{AggOp::kCount, nullptr, "numcust"},
                  {AggOp::kSum, Col(c.schema, "c_acctbal"), "totacctbal"}});
  return BSort(b, {{"cntrycode", true}}).plan;
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
