// BenchContext's database-knob parsing. The scheduler flags degrade
// gracefully (a typo must not abort an overnight run), but the treatment
// knobs --dbJoin/--dbOpt/--dbThreads are the experiment itself: an
// unrecognized value must surface as a usage error, never as a silent
// fallback that quietly measures the wrong engine.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "db/database.h"

namespace perfeval {
namespace bench {
namespace {

BenchContext MakeContext(std::vector<std::string> extra) {
  std::vector<std::string> args = {"bench_test"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchContext("T0", "knob parsing test",
                      static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtilTest, DefaultsAreRadixAndOptimizerOff) {
  BenchContext ctx = MakeContext({});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value(), db::JoinAlgo::kRadix);
  Result<bool> opt = ctx.DbOpt();
  ASSERT_TRUE(opt.ok());
  EXPECT_FALSE(opt.value());
}

TEST(BenchUtilTest, ValidKnobValuesParse) {
  BenchContext ctx = MakeContext({"--dbJoin=merge", "--dbOpt=on"});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value(), db::JoinAlgo::kMerge);
  Result<bool> opt = ctx.DbOpt();
  ASSERT_TRUE(opt.ok());
  EXPECT_TRUE(opt.value());
}

TEST(BenchUtilTest, InvalidDbJoinIsAUsageErrorNotAFallback) {
  BenchContext ctx = MakeContext({"--dbJoin=hashh"});
  Result<db::JoinAlgo> join = ctx.DbJoin();
  ASSERT_FALSE(join.ok());
  EXPECT_NE(join.status().message().find("usage: --dbJoin"),
            std::string::npos);
  EXPECT_NE(join.status().message().find("hashh"), std::string::npos);
}

TEST(BenchUtilTest, InvalidDbOptIsAUsageErrorNotAFallback) {
  BenchContext ctx = MakeContext({"--dbOpt=maybe"});
  Result<bool> opt = ctx.DbOpt();
  ASSERT_FALSE(opt.ok());
  EXPECT_NE(opt.status().message().find("usage: --dbOpt"),
            std::string::npos);
  EXPECT_NE(opt.status().message().find("maybe"), std::string::npos);
}

TEST(BenchUtilTest, InvalidDbThreadsIsAUsageErrorNotAClamp) {
  for (const char* text : {"0", "-2", "four"}) {
    BenchContext ctx = MakeContext({std::string("--dbThreads=") + text});
    Result<int> threads = ctx.DbThreads();
    ASSERT_FALSE(threads.ok()) << text;
    EXPECT_NE(threads.status().message().find("usage: --dbThreads"),
              std::string::npos)
        << text;
    db::Database database;
    database.set_threads(2);
    EXPECT_FALSE(ctx.ApplyDbKnobs(&database).ok()) << text;
    EXPECT_EQ(database.threads(), 2) << text;
  }
}

TEST(BenchUtilTest, ApplyDbKnobsConfiguresTheDatabase) {
  BenchContext ctx = MakeContext({"--dbJoin=hash", "--dbOpt=on",
                                  "--dbThreads=3", "--radixBits=6"});
  db::Database database;
  Status status = ctx.ApplyDbKnobs(&database);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(database.join_algo(), db::JoinAlgo::kHash);
  EXPECT_TRUE(database.optimize());
  EXPECT_EQ(database.threads(), 3);
  EXPECT_EQ(database.radix_bits(), 6);
}

TEST(BenchUtilTest, ApplyDbKnobsPropagatesTheFirstError) {
  BenchContext ctx = MakeContext({"--dbJoin=bogus"});
  db::Database database;
  Status status = ctx.ApplyDbKnobs(&database);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("usage: --dbJoin"), std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace perfeval
