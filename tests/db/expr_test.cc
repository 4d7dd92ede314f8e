#include "db/expr.h"

#include <gtest/gtest.h>

namespace perfeval {
namespace db {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : table_(Schema({{"qty", DataType::kDouble},
                       {"price", DataType::kDouble},
                       {"flag", DataType::kString},
                       {"ship", DataType::kDate},
                       {"id", DataType::kInt64}})) {
    int32_t base = DateFromYmd(1994, 1, 1);
    table_.AppendRow({Value::Double(10.0), Value::Double(100.0),
                      Value::String("R"), Value::Date(base),
                      Value::Int64(1)});
    table_.AppendRow({Value::Double(20.0), Value::Double(50.0),
                      Value::String("A"), Value::Date(base + 400),
                      Value::Int64(2)});
    table_.AppendRow({Value::Double(30.0), Value::Double(25.0),
                      Value::String("N"), Value::Date(base + 800),
                      Value::Int64(3)});
  }

  const Schema& schema() const { return table_.schema(); }
  Table table_;
};

TEST_F(ExprTest, ColumnRefEvaluates) {
  ExprPtr qty = Col(schema(), "qty");
  EXPECT_DOUBLE_EQ(qty->EvalRow(table_, 1).AsDouble(), 20.0);
  EXPECT_EQ(qty->ResultType(schema()), DataType::kDouble);
}

TEST_F(ExprTest, LiteralTypes) {
  EXPECT_EQ(LitInt(5)->EvalRow(table_, 0).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(LitDouble(2.5)->EvalRow(table_, 0).AsDouble(), 2.5);
  EXPECT_EQ(LitString("x")->EvalRow(table_, 0).AsString(), "x");
  EXPECT_EQ(LitDate("1994-01-01")->EvalRow(table_, 0).AsDate(),
            DateFromYmd(1994, 1, 1));
}

TEST_F(ExprTest, ComparisonOperators) {
  ExprPtr qty = Col(schema(), "qty");
  EXPECT_TRUE(Eq(qty, LitDouble(10.0))->EvalBool(table_, 0));
  EXPECT_TRUE(Ne(qty, LitDouble(10.0))->EvalBool(table_, 1));
  EXPECT_TRUE(Lt(qty, LitDouble(15.0))->EvalBool(table_, 0));
  EXPECT_TRUE(Le(qty, LitDouble(20.0))->EvalBool(table_, 1));
  EXPECT_TRUE(Gt(qty, LitDouble(25.0))->EvalBool(table_, 2));
  EXPECT_TRUE(Ge(qty, LitDouble(30.0))->EvalBool(table_, 2));
  EXPECT_FALSE(Gt(qty, LitDouble(30.0))->EvalBool(table_, 2));
}

TEST_F(ExprTest, DateComparison) {
  ExprPtr pred = Le(Col(schema(), "ship"), LitDate("1994-06-01"));
  EXPECT_TRUE(pred->EvalBool(table_, 0));
  EXPECT_FALSE(pred->EvalBool(table_, 1));
}

TEST_F(ExprTest, BooleanConnectives) {
  ExprPtr qty = Col(schema(), "qty");
  ExprPtr both = And(Gt(qty, LitDouble(15.0)), Lt(qty, LitDouble(25.0)));
  EXPECT_FALSE(both->EvalBool(table_, 0));
  EXPECT_TRUE(both->EvalBool(table_, 1));
  ExprPtr either = Or(Lt(qty, LitDouble(15.0)), Gt(qty, LitDouble(25.0)));
  EXPECT_TRUE(either->EvalBool(table_, 0));
  EXPECT_FALSE(either->EvalBool(table_, 1));
  EXPECT_TRUE(either->EvalBool(table_, 2));
  EXPECT_TRUE(Not(both)->EvalBool(table_, 0));
}

TEST_F(ExprTest, ArithmeticScalar) {
  ExprPtr revenue = Mul(Col(schema(), "qty"), Col(schema(), "price"));
  EXPECT_DOUBLE_EQ(revenue->EvalRow(table_, 0).AsDouble(), 1000.0);
  ExprPtr combo = Div(Sub(Add(LitDouble(10.0), LitDouble(6.0)),
                          LitDouble(4.0)),
                      LitDouble(3.0));
  EXPECT_DOUBLE_EQ(combo->EvalRow(table_, 0).AsDouble(), 4.0);
}

TEST_F(ExprTest, VectorizedMatchesScalar) {
  ExprPtr expr = Mul(Col(schema(), "qty"),
                     Sub(LitDouble(1.0), Div(Col(schema(), "price"),
                                             LitDouble(1000.0))));
  std::vector<uint32_t> rows = {0, 1, 2};
  std::vector<double> batch;
  expr->EvalNumericBatch(table_, rows, &batch);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], expr->EvalRow(table_, rows[i]).AsDouble());
  }
}

TEST_F(ExprTest, VectorizedRespectsSelection) {
  ExprPtr qty = Col(schema(), "qty");
  std::vector<uint32_t> rows = {2, 0};
  std::vector<double> batch;
  qty->EvalNumericBatch(table_, rows, &batch);
  EXPECT_DOUBLE_EQ(batch[0], 30.0);
  EXPECT_DOUBLE_EQ(batch[1], 10.0);
}

TEST_F(ExprTest, SimplePredicateExtraction) {
  SimplePredicate sp;
  EXPECT_TRUE(Le(Col(schema(), "qty"), LitDouble(24.0))
                  ->AsSimplePredicate(&sp));
  EXPECT_EQ(sp.column, 0u);
  EXPECT_EQ(sp.op, CmpOp::kLe);
  EXPECT_DOUBLE_EQ(sp.value, 24.0);
  // String comparisons and column-column comparisons are not simple.
  EXPECT_FALSE(Eq(Col(schema(), "flag"), LitString("R"))
                   ->AsSimplePredicate(&sp));
  EXPECT_FALSE(Lt(Col(schema(), "qty"), Col(schema(), "price"))
                   ->AsSimplePredicate(&sp));
}

TEST_F(ExprTest, ConjunctCollectionFlattensAnd) {
  ExprPtr a = Gt(Col(schema(), "qty"), LitDouble(1.0));
  ExprPtr b = Lt(Col(schema(), "qty"), LitDouble(100.0));
  ExprPtr c = Eq(Col(schema(), "flag"), LitString("R"));
  ExprPtr pred = And(And(a, b), c);
  std::vector<ExprPtr> conjuncts;
  pred->CollectConjuncts(&conjuncts, pred);
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST_F(ExprTest, OrIsNotFlattened) {
  ExprPtr pred = Or(Gt(Col(schema(), "qty"), LitDouble(1.0)),
                    Lt(Col(schema(), "qty"), LitDouble(0.0)));
  std::vector<ExprPtr> conjuncts;
  pred->CollectConjuncts(&conjuncts, pred);
  EXPECT_EQ(conjuncts.size(), 1u);
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

// Prints a case by its content. Without it gtest dumps the struct's raw
// bytes, i.e. the literals' load addresses, and the test names that ctest
// derives from the parameter change with every build and run.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "' is "
      << (c.expected ? "true" : "false");
}

class LikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeTest, Matches) {
  const LikeCase& c = GetParam();
  Table table(Schema({{"s", DataType::kString}}));
  table.AppendRow({Value::String(c.text)});
  ExprPtr pred = Like(Col(table.schema(), "s"), c.pattern);
  EXPECT_EQ(pred->EvalBool(table, 0), c.expected)
      << c.text << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LikeTest,
    ::testing::Values(
        LikeCase{"PROMO BRUSHED TIN", "PROMO%", true},
        LikeCase{"LARGE PROMO TIN", "PROMO%", false},
        LikeCase{"MEDIUM POLISHED COPPER", "MEDIUM POLISHED%", true},
        LikeCase{"anything", "%", true},
        LikeCase{"", "%", true},
        LikeCase{"", "", true},
        LikeCase{"abc", "abc", true},
        LikeCase{"abc", "a_c", true},
        LikeCase{"abc", "a_d", false},
        LikeCase{"special packages requests", "%special%requests%", true},
        LikeCase{"special offer", "%special%requests%", false},
        LikeCase{"xxBRASSxx", "%BRASS", false},
        LikeCase{"ECONOMY BRASS", "%BRASS", true},
        LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"ac", "a%b%c", false},
        LikeCase{"aaa", "%a", true},
        LikeCase{"ab", "_", false},
        LikeCase{"a", "_", true}));

TEST_F(ExprTest, InStringsAndInInts) {
  ExprPtr in_str =
      InStrings(Col(schema(), "flag"), {"R", "N"});
  EXPECT_TRUE(in_str->EvalBool(table_, 0));
  EXPECT_FALSE(in_str->EvalBool(table_, 1));
  ExprPtr in_int = InInts(Col(schema(), "id"), {1, 3});
  EXPECT_TRUE(in_int->EvalBool(table_, 0));
  EXPECT_FALSE(in_int->EvalBool(table_, 1));
}

TEST_F(ExprTest, ContainsSubstring) {
  Table table(Schema({{"s", DataType::kString}}));
  table.AppendRow({Value::String("dark green metallic")});
  table.AppendRow({Value::String("bright red")});
  ExprPtr pred = Contains(Col(table.schema(), "s"), "green");
  EXPECT_TRUE(pred->EvalBool(table, 0));
  EXPECT_FALSE(pred->EvalBool(table, 1));
}

TEST_F(ExprTest, YearExtraction) {
  ExprPtr year = Year(Col(schema(), "ship"));
  EXPECT_EQ(year->EvalRow(table_, 0).AsInt64(), 1994);
  EXPECT_EQ(year->EvalRow(table_, 1).AsInt64(), 1995);
  std::vector<double> batch;
  year->EvalNumericBatch(table_, {0, 1, 2}, &batch);
  EXPECT_DOUBLE_EQ(batch[2], 1996.0);
}

TEST_F(ExprTest, CaseWhen) {
  ExprPtr expr = If(Eq(Col(schema(), "flag"), LitString("R")),
                    LitDouble(1.0), LitDouble(0.0));
  EXPECT_DOUBLE_EQ(expr->EvalRow(table_, 0).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(expr->EvalRow(table_, 1).AsDouble(), 0.0);
  std::vector<double> batch;
  expr->EvalNumericBatch(table_, {0, 1, 2}, &batch);
  EXPECT_DOUBLE_EQ(batch[0], 1.0);
  EXPECT_DOUBLE_EQ(batch[1], 0.0);
}

TEST_F(ExprTest, SubstringOneBased) {
  Table table(Schema({{"phone", DataType::kString}}));
  table.AppendRow({Value::String("13-555-0101")});
  ExprPtr code = Substr(Col(table.schema(), "phone"), 1, 2);
  EXPECT_EQ(code->EvalRow(table, 0).AsString(), "13");
  ExprPtr mid = Substr(Col(table.schema(), "phone"), 4, 3);
  EXPECT_EQ(mid->EvalRow(table, 0).AsString(), "555");
  ExprPtr past_end = Substr(Col(table.schema(), "phone"), 50, 2);
  EXPECT_EQ(past_end->EvalRow(table, 0).AsString(), "");
}

TEST_F(ExprTest, ToStringIsSqlLike) {
  ExprPtr pred = And(Le(Col(schema(), "qty"), LitDouble(24.0)),
                     Eq(Col(schema(), "flag"), LitString("R")));
  std::string text = pred->ToString();
  EXPECT_NE(text.find("qty <= 24"), std::string::npos);
  EXPECT_NE(text.find("flag = 'R'"), std::string::npos);
  EXPECT_NE(text.find("AND"), std::string::npos);
}

}  // namespace
}  // namespace db
}  // namespace perfeval
