#include "repro/suite.h"

#include <gtest/gtest.h>

namespace perfeval {
namespace repro {
namespace {

TEST(SuiteTest, RegisterAndFind) {
  ExperimentSuite suite("demo", "a compiler");
  ASSERT_TRUE(suite
                  .Register({"E1", "first experiment", "bin/e1", "out/e1",
                             "1 min", ""})
                  .ok());
  ASSERT_NE(suite.Find("E1"), nullptr);
  EXPECT_EQ(suite.Find("E1")->title, "first experiment");
  EXPECT_EQ(suite.Find("E2"), nullptr);
}

TEST(SuiteTest, DuplicateIdsRejected) {
  ExperimentSuite suite("demo", "deps");
  ASSERT_TRUE(suite.Register({"E1", "t", "c", "o", "r", ""}).ok());
  Status status = suite.Register({"E1", "t2", "c2", "o2", "r2", ""});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(SuiteTest, InstructionsFollowSlide216Checklist) {
  // Slide 216: specify installation, per experiment the script to run,
  // where to look for the graph, how long it takes, extra setup.
  ExperimentSuite suite("demo", "needs cmake and ninja");
  ASSERT_TRUE(suite
                  .Register({"E1", "warm scan", "bin/scan --warm",
                             "results/scan.csv", "about 2 minutes",
                             "generate data first"})
                  .ok());
  std::string doc = suite.InstructionsMarkdown();
  EXPECT_NE(doc.find("## Installation"), std::string::npos);
  EXPECT_NE(doc.find("needs cmake and ninja"), std::string::npos);
  EXPECT_NE(doc.find("### E1: warm scan"), std::string::npos);
  EXPECT_NE(doc.find("`bin/scan --warm`"), std::string::npos);
  EXPECT_NE(doc.find("results/scan.csv"), std::string::npos);
  EXPECT_NE(doc.find("about 2 minutes"), std::string::npos);
  EXPECT_NE(doc.find("generate data first"), std::string::npos);
}

TEST(SuiteTest, NotesAppearAfterExperimentSections) {
  ExperimentSuite suite("demo", "deps");
  ASSERT_TRUE(suite.Register({"E1", "t", "c", "o", "r", ""}).ok());
  suite.AddNote("Sanitizers", "run the labelled tests under TSan");
  std::string doc = suite.InstructionsMarkdown();
  size_t experiment = doc.find("### E1");
  size_t note = doc.find("## Sanitizers");
  ASSERT_NE(experiment, std::string::npos);
  ASSERT_NE(note, std::string::npos);
  EXPECT_LT(experiment, note);
  EXPECT_NE(doc.find("run the labelled tests under TSan"), std::string::npos);
}

TEST(SuiteTest, PerfevalSuiteDocumentsSchedulingFlags) {
  // The generated REPRODUCING.md must cover the uniform --jobs/--order
  // flags and the ThreadSanitizer recipe for the sched-labelled tests.
  std::string doc = PerfevalSuite().InstructionsMarkdown();
  EXPECT_NE(doc.find("--jobs"), std::string::npos);
  EXPECT_NE(doc.find("design|randomized|interleaved"), std::string::npos);
  EXPECT_NE(doc.find("PERFEVAL_SANITIZE=thread"), std::string::npos);
  EXPECT_NE(doc.find("-L sched"), std::string::npos);
  // ... and the engine-level parallelism knob plus its db-labelled tests.
  EXPECT_NE(doc.find("--dbThreads"), std::string::npos);
  EXPECT_NE(doc.find("-L db"), std::string::npos);
  EXPECT_NE(doc.find("morsel"), std::string::npos);
  // ... and the write-path suite: its ctest label and crash fuzzer.
  EXPECT_NE(doc.find("-L txn"), std::string::npos);
  EXPECT_NE(doc.find("crash-point"), std::string::npos);
  // ... and the shard cluster: its ctest label and the scale-out story.
  EXPECT_NE(doc.find("-L shard"), std::string::npos);
  EXPECT_NE(doc.find("ShardCluster"), std::string::npos);
  // ... and the cost-based optimizer: its ctest label and the opt-in knob.
  EXPECT_NE(doc.find("-L opt"), std::string::npos);
  EXPECT_NE(doc.find("\\opt on"), std::string::npos);
}

TEST(SuiteTest, PerfevalSuiteCoversDesignDocIndex) {
  // Every experiment id from DESIGN.md's per-experiment index must be
  // registered.
  const ExperimentSuite& suite = PerfevalSuite();
  for (const char* id :
       {"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F1", "F2", "F3",
        "F4", "F5", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
        "A9", "A10", "A11", "A12"}) {
    EXPECT_NE(suite.Find(id), nullptr) << id;
  }
  EXPECT_EQ(suite.experiments().size(), 25u);
}

TEST(SuiteTest, PerfevalSuiteCommandsPointAtBenchBinaries) {
  for (const ExperimentInfo& info : PerfevalSuite().experiments()) {
    EXPECT_NE(info.command.find("build/bench/bench_"), std::string::npos)
        << info.id;
    EXPECT_FALSE(info.approx_runtime.empty()) << info.id;
  }
}

}  // namespace
}  // namespace repro
}  // namespace perfeval
