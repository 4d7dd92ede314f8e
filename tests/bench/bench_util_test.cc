// BenchContext's argument and database-knob parsing. An argument that is
// neither a property nor a known flag stops the bench, and so does a
// database knob given to a bench that never applies one, or an order or
// isolation policy the scheduler cannot parse, and a scheduler flag given
// to a bench that schedules no trials. The treatment knobs
// --dbJoin/--dbOpt/--dbThreads are the experiment itself: an unrecognized
// value must surface as a usage error, never as a silent fallback that
// quietly measures the wrong engine. The
// one `db knobs:` line a bench prints is read back from the Database the
// knobs were applied to, never echoed from the command line.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "db/database.h"

namespace perfeval {
namespace bench {
namespace {

BenchContext MakeContext(std::vector<std::string> extra,
                         DbKnobs db_knobs = DbKnobs::kApplied,
                         ScheduleKnobs schedule = ScheduleKnobs::kApplied) {
  std::vector<std::string> args = {"bench_test"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchContext("T0", "knob parsing test",
                      static_cast<int>(argv.size()), argv.data(), db_knobs,
                      schedule);
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
  for (const char* text : {"hashh", "legacy"}) {
    BenchContext ctx = MakeContext({std::string("--dbJoin=") + text});
    Result<db::JoinAlgo> join = ctx.DbJoin();
    ASSERT_FALSE(join.ok()) << text;
    EXPECT_NE(join.status().message().find("usage: --dbJoin"),
              std::string::npos)
        << text;
    EXPECT_NE(join.status().message().find(text), std::string::npos)
        << text;
  }
}

TEST(BenchUtilTest, UnknownArgumentIsAUsageErrorNotIgnored) {
  // A misspelt property (`--scaleFactor=` for `-DscaleFactor=`) must stop
  // the bench, not let it run on at the default scale factor.
  EXPECT_EXIT(MakeContext({"--scaleFactor=0.01"}),
              ::testing::ExitedWithCode(2),
              "usage: unknown argument '--scaleFactor=0\\.01' \\(properties "
              "are -Dkey=value\\)");
}

TEST(BenchUtilTest, DbKnobGivenToABenchThatIgnoresItIsAUsageError) {
  // `bench_join_crossover --dbJoin=hash` would otherwise run on with its
  // own join sweep and record a knob it never read in its manifest.
  for (const char* knob : {"dbThreads", "dbJoin", "radixBits", "dbOpt"}) {
    const std::string expected =
        std::string("usage: --") + knob + " is not honored by T0";
    EXPECT_EXIT(MakeContext({std::string("--") + knob + "=1"},
                            DbKnobs::kIgnored),
                ::testing::ExitedWithCode(2), expected)
        << knob;
    // The property spelling names the same knob.
    EXPECT_EXIT(MakeContext({std::string("-D") + knob + "=1"},
                            DbKnobs::kIgnored),
                ::testing::ExitedWithCode(2), expected)
        << knob;
  }
  // Without a knob the same bench runs, scheduler flags included.
  BenchContext ctx = MakeContext({"--jobs=2", "--order=randomized"},
                                 DbKnobs::kIgnored);
  EXPECT_EQ(ctx.ScheduleOptions().jobs, 2);
}

TEST(BenchUtilTest, ScheduleFlagGivenToABenchThatIgnoresItIsAUsageError) {
  // `bench_join_crossover --jobs=4 --order=randomized` would otherwise run
  // its own serial loop and record jobs=4 and order=randomized in its
  // manifest.
  for (const char* flag : {"--jobs=4", "--order=randomized",
                           "--isolation=concurrent", "--schedSeed=7",
                           "--progress", "-Djobs=4"}) {
    std::string key = std::string(flag).substr(2);  // "--" or "-D".
    key = key.substr(0, key.find('='));
    EXPECT_EXIT(
        MakeContext({flag}, DbKnobs::kIgnored, ScheduleKnobs::kIgnored),
        ::testing::ExitedWithCode(2),
        "usage: --" + key + " is not honored by T0 \\(it schedules no "
        "trials\\)")
        << flag;
  }
  // Without a scheduler flag the same bench runs and records no schedule.
  std::string dir = ::testing::TempDir() + "bench_util_no_schedule";
  BenchContext ctx = MakeContext({"-DresultsDir=" + dir}, DbKnobs::kIgnored,
                                 ScheduleKnobs::kIgnored);
  EXPECT_FALSE(ctx.properties().Has("jobs"));
  EXPECT_DEATH(ctx.ScheduleOptions(), "declared ScheduleKnobs::kIgnored");
}

TEST(BenchUtilTest, UnparsableOrderOrIsolationIsAUsageError) {
  // Caught at construction, so a bench that never schedules trials stops
  // too.
  EXPECT_EXIT(MakeContext({"--order=random"}, DbKnobs::kIgnored),
              ::testing::ExitedWithCode(2),
              "usage: --order: unknown run order 'random'");
  EXPECT_EXIT(MakeContext({"-Disolation=shared"}, DbKnobs::kIgnored),
              ::testing::ExitedWithCode(2),
              "usage: --isolation: unknown isolation policy 'shared'");
  sched::Options options =
      MakeContext({"--order=interleaved", "--isolation=concurrent"})
          .ScheduleOptions();
  EXPECT_EQ(options.order, core::RunOrder::kInterleaved);
  EXPECT_EQ(options.isolation, core::IsolationPolicy::kConcurrent);
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

TEST(BenchUtilTest, HeaderEchoesNoKnobs) {
  // The header is printed before any Database exists, so it cannot know
  // what ran; a knob given on the command line must not appear there.
  BenchContext ctx = MakeContext({"--dbJoin=hash", "--dbThreads=3"});
  ::testing::internal::CaptureStdout();
  ctx.PrintHeader("header test");
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("== T0: header test =="), std::string::npos) << out;
  EXPECT_EQ(out.find("db knobs"), std::string::npos) << out;
}

TEST(BenchUtilTest, ApplyDbKnobsPrintsAndRecordsTheAppliedValues) {
  std::string dir = ::testing::TempDir() + "bench_util_knobs";
  BenchContext ctx =
      MakeContext({"--dbJoin=hash", "--dbOpt=on", "--dbThreads=3",
                   "--radixBits=6", "-DresultsDir=" + dir});
  db::Database database;
  ::testing::internal::CaptureStdout();
  Status status = ctx.ApplyDbKnobs(&database);
  std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string line =
      "db knobs: threads=3 join=hash radix_bits=6 opt=on";
  EXPECT_EQ(out, line + "\n");

  std::ifstream manifest(ctx.Finish());
  std::stringstream text;
  text << manifest.rdbuf();
  EXPECT_NE(text.str().find(line), std::string::npos) << text.str();
}

TEST(BenchUtilTest, ApplyDbKnobsWithoutFlagsReportsTheDefaults) {
  BenchContext ctx = MakeContext({});
  Result<int> threads = ctx.DbThreads();
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(threads.value(), 1);
  db::Database database;
  ::testing::internal::CaptureStdout();
  Status status = ctx.ApplyDbKnobs(&database);
  std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, "db knobs: threads=1 join=radix radix_bits=0 opt=off\n");
}

TEST(BenchUtilTest, ABenchRunningBothPlanKindsNamesThemNotTheOptKnob) {
  // A11 runs rule-order plans and opt::Optimize's plans itself; its
  // header and manifest must say so, not "opt=off".
  std::string dir = ::testing::TempDir() + "bench_util_plans";
  BenchContext ctx = MakeContext({"--dbJoin=hash", "-DresultsDir=" + dir});
  db::Database database;
  ::testing::internal::CaptureStdout();
  Status status =
      ctx.ApplyDbKnobs(&database, PlanSource::kRuleOrderAndOptimized);
  std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string line =
      "db knobs: threads=1 join=hash radix_bits=0 "
      "plans=rule-order+optimized";
  EXPECT_EQ(out, line + "\n");
  std::ifstream manifest(ctx.Finish());
  std::stringstream text;
  text << manifest.rdbuf();
  EXPECT_NE(text.str().find(line), std::string::npos) << text.str();
  EXPECT_EQ(text.str().find("opt="), std::string::npos) << text.str();
}

TEST(BenchUtilTest, DbOptGivenToABenchRunningBothPlanKindsIsAUsageError) {
  for (const char* flag : {"--dbOpt=on", "--dbOpt=off"}) {
    BenchContext ctx = MakeContext({flag});
    db::Database database;
    ::testing::internal::CaptureStdout();
    Status status =
        ctx.ApplyDbKnobs(&database, PlanSource::kRuleOrderAndOptimized);
    std::string out = ::testing::internal::GetCapturedStdout();
    ASSERT_FALSE(status.ok()) << flag;
    EXPECT_NE(status.message().find("usage: --dbOpt"), std::string::npos)
        << status.message();
    EXPECT_EQ(out, "") << flag;
    EXPECT_FALSE(database.optimize()) << flag;
  }
}

TEST(BenchUtilTest, FailedApplyPrintsNoKnobs) {
  BenchContext ctx = MakeContext({"--dbOpt=maybe"});
  db::Database database;
  ::testing::internal::CaptureStdout();
  Status status = ctx.ApplyDbKnobs(&database);
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out, "");
}

}  // namespace
}  // namespace bench
}  // namespace perfeval
