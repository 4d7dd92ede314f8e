#include "repro/suite.h"

namespace perfeval {
namespace repro {

ExperimentSuite::ExperimentSuite(std::string project_name,
                                 std::string requirements)
    : project_name_(std::move(project_name)),
      requirements_(std::move(requirements)) {}

Status ExperimentSuite::Register(ExperimentInfo info) {
  if (Find(info.id) != nullptr) {
    return Status::AlreadyExists("experiment " + info.id +
                                 " already registered");
  }
  experiments_.push_back(std::move(info));
  return Status::OK();
}

void ExperimentSuite::AddNote(std::string heading, std::string body) {
  notes_.emplace_back(std::move(heading), std::move(body));
}

const ExperimentInfo* ExperimentSuite::Find(const std::string& id) const {
  for (const ExperimentInfo& info : experiments_) {
    if (info.id == id) {
      return &info;
    }
  }
  return nullptr;
}

std::string ExperimentSuite::InstructionsMarkdown() const {
  std::string out = "# Repeating the " + project_name_ + " experiments\n\n";
  out += "## Installation\n\n" + requirements_ + "\n\n";
  out += "## Experiments\n\n";
  for (const ExperimentInfo& info : experiments_) {
    out += "### " + info.id + ": " + info.title + "\n\n";
    if (!info.extra_setup.empty()) {
      out += "- Extra setup: " + info.extra_setup + "\n";
    }
    out += "- Run: `" + info.command + "`\n";
    out += "- Results: " + info.outputs + "\n";
    out += "- Approximate runtime: " + info.approx_runtime + "\n\n";
  }
  for (const auto& [heading, body] : notes_) {
    out += "## " + heading + "\n\n" + body + "\n\n";
  }
  return out;
}

const ExperimentSuite& PerfevalSuite() {
  static const ExperimentSuite* suite = [] {
    auto* s = new ExperimentSuite(
        "perfeval",
        "cmake >= 3.16, ninja, a C++20 compiler, GoogleTest and Google "
        "Benchmark. Build with `cmake -B build -G Ninja && cmake --build "
        "build`.");
    auto add = [&](const char* id, const char* title, const char* command,
                   const char* outputs, const char* runtime) {
      Status status = s->Register({id, title, command, outputs, runtime, ""});
      (void)status;
    };
    add("T1", "Server vs client time and output channels (slides 23-26)",
        "build/bench/bench_output_channels",
        "stdout + bench_results/t1_output_channels.csv", "tens of seconds");
    add("T2", "Hot vs cold runs, user vs real time (slides 33-36)",
        "build/bench/bench_hot_cold",
        "stdout + bench_results/t2_hot_cold.csv", "tens of seconds");
    add("F1", "DBG/OPT relative execution time, 22 queries (slide 41)",
        "build/bench/bench_dbg_opt",
        "stdout + bench_results/f1_dbg_opt.{csv,gnu}", "about a minute");
    add("F2", "SELECT MAX scan across machine generations (slides 46/51)",
        "build/bench/bench_scan_generations",
        "stdout + bench_results/f2_scan_generations.{csv,gnu}", "seconds");
    add("T3", "2^2 design, memory x cache MIPS example (slides 70-78)",
        "build/bench/bench_sign_table_22", "stdout", "instant");
    add("T4", "Allocation of variation, interconnects (slides 86-93)",
        "build/bench/bench_allocation_variation",
        "stdout + bench_results/t4_allocation.csv", "seconds");
    add("T5", "3-level fractional factorial catalogue (slides 67-69)",
        "build/bench/bench_fractional_3level", "stdout", "instant");
    add("T6", "2^(7-4) and 2^(4-1) confounding algebra (slides 100-109)",
        "build/bench/bench_confounding", "stdout", "instant");
    add("T7", "Design sizes: simple vs full factorial vs 2^k (slides 56-66)",
        "build/bench/bench_design_sizes", "stdout", "instant");
    add("F3", "Chart-guideline linter on the paper's bad charts "
        "(slides 118-131)",
        "build/bench/bench_chart_lint", "stdout", "instant");
    add("F4", "Histogram cell-size manipulation (slide 144)",
        "build/bench/bench_histogram_cells", "stdout", "instant");
    add("F5", "SIGMOD 2008 repeatability outcomes (slides 218-220)",
        "build/bench/bench_repeatability_survey", "stdout", "instant");
    add("T8", "Confidence-interval overlap comparisons (slide 142)",
        "build/bench/bench_confidence_overlap", "stdout", "seconds");
    add("A1", "Engine factor screening, 2^(k-p) + allocation (ablation)",
        "build/bench/bench_engine_screening",
        "stdout + bench_results/a1_screening.csv", "about a minute");
    add("A2", "Operator crossovers: hash vs merge join, top-n vs sort; "
        "radix bits x threads sweep vs legacy hash join with bootstrap "
        "CIs + hwsim cost dissection (ablation)",
        "build/bench/bench_join_crossover",
        "stdout + bench_results/a2_*.csv + "
        "bench_results/BENCH_join_crossover.json", "about a minute");
    add("A3", "TPC-H-style power and throughput metrics (slide 22)",
        "build/bench/bench_throughput",
        "stdout + bench_results/a3_throughput.csv", "about a minute");
    add("A4", "Foreign-key skew sweep: data profile and operator cost",
        "build/bench/bench_skew",
        "stdout + bench_results/a4_skew.csv", "about a minute");
    add("A5", "Scale-up: query time vs TPC-H scale factor (slide 22)",
        "build/bench/bench_scaleup",
        "stdout + bench_results/a5_scaleup.{csv,gnu}", "about a minute");
    add("A6", "Scheduler determinism: jobs=1 vs jobs=4 bit-identical "
        "responses under design/randomized/interleaved orders",
        "build/bench/bench_sched_determinism",
        "stdout + bench_results/a6_sched_determinism.csv", "seconds");
    add("A7", "Adaptive morsel-driven parallel query speedup as a "
        "2-factor study: Q1/Q6 at sf {0.01, 1} x threads {1, 2, 4, 8}, "
        "modeled-compute speedups with bootstrap CIs, results and I/O "
        "stats bit-identical at every setting (`--smoke` for the fast "
        "sf=0.01 pass)",
        "build/bench/bench_parallel_scan",
        "stdout + bench_results/BENCH_parallel_scan.json",
        "several minutes (sf=1 data generation dominates)");
    add("A8", "Service latency under load: closed-loop capacity "
        "calibration, open-loop Poisson sweep with percentile+CI "
        "throughput-latency curves, and the closed-vs-open coordinated-"
        "omission comparison at equal offered load",
        "build/bench/bench_service_latency",
        "stdout + bench_results/BENCH_service_latency.json + "
        "bench_results/a8_service_latency.{csv,gnu,svg}",
        "about a minute");
    add("A9", "Write path: ingest rate vs commit batch size with fsync "
        "accounting, group-commit amortization, recovery time vs WAL "
        "length (with the checkpoint bound), and closed-loop read "
        "latency quiet vs under concurrent ingest",
        "build/bench/bench_write_path",
        "stdout + bench_results/BENCH_write_path.json + "
        "bench_results/a9_{ingest_rate,recovery}.{csv,gnu,svg}",
        "about a minute");
    add("A10", "Scale-out serving across a shard cluster: throughput-"
        "latency curves vs shard count {1,2,4,8} through the sharded "
        "front-end, capacity speedup ratios with bootstrap CIs, tail "
        "amplification (p99 of max-over-shards vs per-shard p99), and a "
        "straggler cell where one slow shard's disk pins the cluster tail",
        "build/bench/bench_shard_scaleout",
        "stdout + bench_results/BENCH_shard_scaleout.json + "
        "bench_results/a10_shard_scaleout.{gnu,svg}",
        "a few minutes");
    add("A11", "Cost-based optimizer study: cost-model calibration "
        "against measured TRACE join times (with a FitLinear re-fit of "
        "the per-probe-row constant), per-operator Q-error distributions "
        "of estimated vs actual cardinality and cost over all 22 TPC-H "
        "plans, and who-wins crossovers of optimizer-picked vs best "
        "hand-picked plans (selectivity sweep + per-query table with "
        "bootstrap ratio CIs)",
        "build/bench/bench_optimizer",
        "stdout + bench_results/BENCH_optimizer.json + "
        "bench_results/a11_selectivity.{csv,gnu,svg}",
        "a few minutes");
    add("A12", "Multi-backend faceoff: the columnar vectorized executor "
        "vs the packed-tuple row store racing the same plan trees "
        "through one harness — hot who-wins over all 22 TPC-H queries "
        "with interleaved samples and bootstrap row/col ratio CIs "
        "(non-overlap with 1.0 flagged), per-operator TRACE attribution "
        "per backend, and a cold layout-crossover sweep (selectivity x "
        "projected-column count) locating where one seek + full tuples "
        "beats per-column streams, reporting the pre-declared H1 (the "
        "row store wins at least one cold cell) as confirmed or refuted; "
        "results diffed row-vs-col on every sample pair",
        "build/bench/bench_backend_faceoff",
        "stdout + bench_results/BENCH_backend_faceoff.json + "
        "bench_results/a12_crossover.{csv,gnu,svg}",
        "a few minutes");
    s->AddNote(
        "Parallel execution & determinism",
        "Every bench binary takes uniform scheduling flags: `--jobs=N` "
        "(worker threads), `--order=design|randomized|interleaved` (trial "
        "execution order; `--schedSeed=S` seeds the shuffle), "
        "`--isolation=exclusive|concurrent` (exclusive, the default, "
        "serializes timing-sensitive trials on one slot; concurrent fans "
        "simulation-bound trials over all workers), and `--progress` "
        "(per-trial completion lines with an ETA).\n\n"
        "None of these flags can change a reported number: each trial draws "
        "from an RNG stream seeded with hash(experiment id, point index, "
        "replication index) and results are reassembled into design order "
        "before aggregation, so `--jobs=1` and `--jobs=4` are bit-identical "
        "under every ordering. A6 verifies this end to end.\n\n"
        "The database engine itself carries the same invariant one layer "
        "down: `--dbThreads=N` (equivalently the `dbThreads` property, the "
        "SQL shell's `\\threads N`, or `db::Database::set_threads`) turns "
        "on morsel-driven intra-query parallelism — scans, filters and "
        "aggregations split the input into policy-sized morsels claimed by "
        "workers from a shared counter, while the coordinator accounts "
        "simulated I/O per page in chunk order. The go-parallel decision "
        "is adaptive (db::MorselPolicy): inputs under the serial cutoff "
        "run inline no matter how many threads were requested, so small "
        "scans never pay fan-out overhead. Morsel boundaries never depend "
        "on the thread count and partial results merge in morsel order, so "
        "result relations and StorageStats are bit-identical at any thread "
        "count, in both execution modes. A7 measures the speedup and "
        "re-verifies the invariant on every run.");
    s->AddNote(
        "ThreadSanitizer",
        "The concurrency tests carry ctest labels — `sched` for the "
        "scheduler, `db` for morsel-parallel query execution, `serve` for "
        "the concurrent query service, `txn` for the write path "
        "(concurrent ingest + scan, group commit, crash-point fuzzing), "
        "`shard` for concurrent scatter-gather across the shard cluster, "
        "`engine` for concurrent multi-backend Execute — and should pass "
        "under ThreadSanitizer:\n\n"
        "```sh\n"
        "cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread\n"
        "cmake --build build-tsan --target sched_test db_parallel_test "
        "serve_test txn_test shard_test engine_test\n"
        "ctest --test-dir build-tsan -L sched\n"
        "ctest --test-dir build-tsan -L db\n"
        "ctest --test-dir build-tsan -L serve\n"
        "ctest --test-dir build-tsan -L txn\n"
        "ctest --test-dir build-tsan -L shard\n"
        "ctest --test-dir build-tsan -L engine -R ConcurrentExecute\n"
        "```");
    s->AddNote(
        "Serving & tail latency",
        "A8 measures the engine behind a `serve::QueryService` — bounded "
        "admission queue, worker-pool executor, per-request deadlines, and "
        "a selectable overload policy (block / shed / timeout). The load "
        "generator drives it both ways the literature distinguishes: "
        "closed-loop (fixed client population; arrival adapts to service "
        "speed) and open-loop (seeded Poisson arrivals on a virtual "
        "schedule; a late dispatch is charged from the *intended* arrival, "
        "so coordinated omission is measured rather than hidden). Latencies "
        "land in a log2-bucketed histogram (<= 6.25% relative error) and "
        "percentiles carry bootstrap confidence intervals. Schedules and "
        "result fingerprints are pure functions of the run seed — identical "
        "at any worker count, which serve_test verifies at 1/4/8 workers.");
    s->AddNote(
        "Write path & crash recovery",
        "A9 measures `txn::DeltaStore` (DESIGN.md S15): INSERT/DELETE "
        "transactions buffer writes, commit through a CRC-framed WAL on a "
        "seedable virtual disk with explicit durability (data survives a "
        "crash only up to the last fsync, plus a seeded torn prefix), and "
        "apply to in-memory deltas that merge deterministically over the "
        "immutable base columns at scan time. Checkpoints compact the "
        "deltas, install via fsync-then-rename, and truncate the log; "
        "`Open()` replays the tail. Correctness is held by two harnesses: "
        "a crash-point fuzzer that kills the process at *every* mutating "
        "disk operation of a seeded workload (200+ sites) and requires "
        "recovery to match a shadow copy of exactly the acknowledged "
        "commits, and the differential oracle, which re-runs all 22 TPC-H "
        "queries against the reference interpreter after every randomized "
        "interleaved INSERT/DELETE batch (`ctest -L oracle`). The fsync "
        "accounting flows through the same DiskModel as the read path, so "
        "A9's batch-size sweep prices the seek-per-commit the group-commit "
        "protocol exists to amortize.");
    s->AddNote(
        "Scale-out & sharding",
        "A10 measures a `shard::ShardCluster` (DESIGN.md S16): TPC-H "
        "hash-partitioned across N single-node databases (lineitem "
        "co-partitioned with orders on orderkey; dimensions replicated), a "
        "site-annotating planner that pushes scans, filters, co-partitioned "
        "joins and partial aggregates to the shards, and a coordinator that "
        "scatters fragments over per-shard `serve::QueryService` instances "
        "and merges partials in fixed shard-then-first-occurrence order. "
        "Results AND merged StorageStats are bit-identical to single-node "
        "at any shard count and any per-shard thread count — the oracle "
        "diffs all 22 queries sharded-vs-single-node across execution modes "
        "and join algorithms (`ctest -L shard`, `ctest -L oracle`). A "
        "front-end tier adds per-tenant admission quotas; A10 drives it "
        "with the same load-sweep harness as A8, so A8-vs-A10 differences "
        "are system, never harness. The tail-amplification cells quantify "
        "why scatter-gather tails grow with N (the coordinator waits for "
        "the max over shards, turning the per-shard latency CDF F into "
        "F^N) and the straggler cell shows one slow disk pinning the "
        "cluster's p99.");
    s->AddNote(
        "Cost-based optimization",
        "A11 measures `opt::Optimize` (DESIGN.md S17): per-column "
        "statistics (exact row/NULL counts, zone-map min/max, Chao1 "
        "distinct counts, equi-width histograms) feed a cardinality "
        "estimator and a calibrated per-row cost model, and a dynamic "
        "program over connected join subgraphs picks both the join order "
        "and a physical algorithm (legacy/hash/radix/merge) per join. "
        "The rewrite is opt-in (`\\opt on` in the SQL shell, --dbOpt=on "
        "in the benches) and semantics-preserving by construction: only "
        "inner equi-join regions are re-ordered, a schema-restoring "
        "Project caps every reordered region, and unconsumed join edges "
        "reappear as filters. Plan choice is a pure function of the "
        "statistics snapshot — the same database state yields the same "
        "plan at any thread or shard count — and the differential oracle "
        "re-runs all 22 TPC-H plans plus fuzzed queries with the "
        "optimizer enabled across execution modes, thread counts and a "
        "2-shard cluster against both the reference interpreter and the "
        "rule-only plan (`ctest -L opt`, `ctest -L oracle`). A11's "
        "Q-error tables quantify the estimator the DoE way; the who-wins "
        "tables report the end metric: how often the optimizer matches "
        "an oracle that hand-picks the best global algorithm per query.");
    s->AddNote(
        "Multi-backend comparison",
        "A12 races two production backends behind one `engine::Backend` "
        "interface (DESIGN.md S18): the columnar vectorized executor "
        "(adapting `db::Database`) and a packed-tuple row store that "
        "materializes every table as fixed-stride rows plus a string "
        "heap and executes the same plan trees tuple-at-a-time with "
        "batching. Held constant across backends: the generated data, "
        "the plan representation, the DiskModel, the buffer-pool budget "
        "and rows-per-page, the thread count, and the measurement "
        "protocol (observed server time = measured wall + simulated "
        "stall; the row store's packed-result -> Table conversion is "
        "reported separately as finish time, never hidden in server "
        "time). Legitimately different: page shape (per-column pages vs "
        "per-table tuple pages), bytes per scan, seeks per scan (one "
        "stream per column vs one per table), and per-operator CPU. "
        "A12 races both backends itself; interactively, "
        "`\\backend col|row` in the SQL shell switches between them "
        "(typos are usage errors), and in code "
        "`engine::CreateBackend` builds either over one `db::Database`. "
        "Both executors share one set of SQL rules (`db/semantics.h`: "
        "aggregate accumulation and emission, NULL/NaN sort order, NULL "
        "join keys) while keeping their own algorithms; the reference "
        "interpreter keeps its own copy as the oracle. The "
        "differential oracle extends to backend-vs-backend: all 22 "
        "TPC-H plans plus fuzzed queries run on both backends across "
        "execution modes, thread counts and checked execution, and must "
        "match the reference interpreter AND each other, including "
        "after randomized INSERT/DELETE batches folded in through "
        "`SyncFrom` (`ctest -L engine`, `ctest -L oracle`).");
    return s;
  }();
  return *suite;
}

}  // namespace repro
}  // namespace perfeval
