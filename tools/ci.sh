#!/usr/bin/env bash
# CI entry point — the same jobs .github/workflows/ci.yml runs, invocable
# locally: tools/ci.sh
#   [tier1|asan|oracle|serve|parallel|shard|opt|txn|engine|perf|all].
# Each job uses its own build directory so they can be cached independently.
set -euo pipefail

cd "$(dirname "$0")/.."

job="${1:-all}"
jobs_flag="-j$(nproc)"

tier1() {
  # The tier-1 gate: default Release build + the full test suite.
  cmake -B build -S .
  cmake --build build "$jobs_flag"
  ctest --test-dir build --output-on-failure "$jobs_flag"
}

asan() {
  # Memory job: ASan+UBSan over the whole suite. Catches the class of bug
  # checked mode asserts against (OOB selection vectors, wrapping
  # arithmetic) at the C++ level rather than the relational level.
  cmake -B build-asan -S . -DPERFEVAL_SANITIZE=address
  cmake --build build-asan "$jobs_flag"
  ctest --test-dir build-asan --output-on-failure "$jobs_flag"
}

oracle() {
  # Differential-oracle smoke: all 22 TPC-H plans + 200+ fuzzed queries on
  # the engine (exec modes x threads x join algos) vs. the row-at-a-time
  # reference interpreter, plus the fuzz/metamorphic suite in sql_test.
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target oracle_test sql_test
  ctest --test-dir build --output-on-failure -L oracle
  ctest --test-dir build --output-on-failure -R 'SqlFuzzTest'
}

serve() {
  # Serving smoke: the query-service/load-generator suite (replay
  # determinism, overload policies, deadlines) plus the A8 bench's fast
  # path, then the same `serve`-labelled tests under ThreadSanitizer —
  # the admission queue and response fulfillment are the newest
  # concurrency surface in the tree.
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target serve_test bench_service_latency
  ctest --test-dir build --output-on-failure -L serve
  cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread
  cmake --build build-tsan "$jobs_flag" --target serve_test
  # -R keeps the TSan pass to the serve_test cases (the bench smoke under
  # the same label is built only in the Release tree).
  ctest --test-dir build-tsan --output-on-failure -L serve -R 'QueryService|LoadGenerator|LatencyHistogram|BuildSchedule'
}

parallel() {
  # Parallel-execution job: the morsel-parallel determinism and adaptive-
  # dispatch suite (db_parallel_test), the ParallelFor accounting tests
  # (sched_test), the A7 bench's --smoke fast path (adaptive dispatch +
  # cross-thread determinism check + bootstrap CIs end to end), then the
  # same suites under ThreadSanitizer — morsel claiming and the padded
  # per-worker stats are the shared-memory hot spots.
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target db_parallel_test sched_test bench_parallel_scan
  ctest --test-dir build --output-on-failure -L db
  ctest --test-dir build --output-on-failure -L sched
  cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread
  cmake --build build-tsan "$jobs_flag" --target db_parallel_test sched_test
  # -R keeps the TSan pass to the test cases (the bench smoke under the
  # same label is built only in the Release tree).
  ctest --test-dir build-tsan --output-on-failure -L db -R 'Parallel|Morsel|Adaptive'
  ctest --test-dir build-tsan --output-on-failure -L sched -R 'ParallelFor'
}

shard() {
  # Scale-out job: the shard-cluster suite (planner site annotation, all
  # 22 queries sharded-vs-single-node with bit-identical stats at shard
  # counts {1,2,4,8}, straggler attribution, front-end quotas) plus the
  # A10 bench's fast path and the sharded differential oracle (exec modes
  # x join algorithms, coordinator included) in Release, then the
  # concurrent scatter-gather test under ThreadSanitizer — fragment
  # fan-out over the per-shard services is the newest concurrency surface
  # in the tree — and the cluster, sharded-oracle and query-service cases
  # under ASan+UBSan: a residual result may alias a gathered fragment
  # table owned only through the coordinator's query-local catalog, a
  # fragment request is shared between the shard's queued job and the
  # coordinator that may claim it (claim-on-wait), and residual plans hold
  # schema-bearing aliases into fragment subtrees (the declared-schema
  # oracle, DeclaredSchema*).
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target shard_test oracle_test bench_shard_scaleout
  ctest --test-dir build --output-on-failure -L shard
  ctest --test-dir build --output-on-failure -R 'ShardedTpchOracle'
  cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread
  cmake --build build-tsan "$jobs_flag" --target shard_test
  # -R keeps the TSan pass to the shard_test cases (the bench smoke under
  # the same label is built only in the Release tree).
  ctest --test-dir build-tsan --output-on-failure -L shard -R 'ShardPlanner|ShardCluster|ShardedTpch'
  cmake -B build-asan -S . -DPERFEVAL_SANITIZE=address
  cmake --build build-asan "$jobs_flag" --target shard_test oracle_test serve_test
  ctest --test-dir build-asan --output-on-failure -R 'QueryService|ShardCluster|ShardedTpch|DeclaredSchema'
}

opt() {
  # Cost-based-optimizer job: the statistics/estimator/DP-rewrite suite
  # and the strict bench-knob parsing in Release plus the A11 bench's
  # fast path (calibration + Q-error + who-wins end to end), then the
  # same `opt`-labelled tests under ASan+UBSan — the rewrite allocates
  # and re-wires plan trees, exactly where a lifetime bug would hide.
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target opt_test bench_util_test bench_optimizer
  ctest --test-dir build --output-on-failure -L opt
  cmake -B build-asan -S . -DPERFEVAL_SANITIZE=address
  cmake --build build-asan "$jobs_flag" --target opt_test
  # -R keeps the ASan pass to the opt_test cases (the bench smoke under
  # the same label is built only in the Release tree).
  ctest --test-dir build-asan --output-on-failure -L opt -R 'TableStats|Estimator|CostModel|Optimize'
}

txn() {
  # Write-path job: the WAL/checkpoint/recovery suite, the exhaustive
  # crash-point fuzz sweep and the A9 bench's fast path in Release, then
  # the crash fuzzer again under ASan+UBSan (recovery code paths shuffle
  # buffers around torn/corrupt frames — exactly where an OOB hides), and
  # the concurrent ingest+scan tests, the catalog-version tests
  # (pinned snapshots, version lifetime, installs racing queries) and the
  # per-query I/O attribution test (concurrent queries sharing one pool)
  # under ThreadSanitizer. The string-heap and join-gather tests (views that
  # outlive their source table, readers gathering while a writer appends
  # to a shared heap) run under both sanitizers.
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target txn_test bench_write_path
  ctest --test-dir build --output-on-failure -L txn
  cmake -B build-asan -S . -DPERFEVAL_SANITIZE=address
  cmake --build build-asan "$jobs_flag" --target txn_test db_test
  ctest --test-dir build-asan --output-on-failure -R 'CrashFuzz|Wal|VirtualDisk|TableDelta|StringHeapTest|JoinGatherTest'
  cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread
  cmake --build build-tsan "$jobs_flag" --target txn_test db_test
  # -R keeps the TSan pass to the named txn_test and db_test cases (the
  # bench smoke under the txn label is built only in the Release tree).
  ctest --test-dir build-tsan --output-on-failure -R 'DeltaStore|CatalogVersion|StringHeapTest|JoinGatherTest|ConcurrentQueriesAreCharged'
}

engine() {
  # Multi-backend job: the engine suite (row layout pack/unpack, row-page
  # I/O accounting, row-store determinism/overflow contracts) plus the
  # A12 faceoff bench's fast path in Release, then engine_test again
  # under ASan+UBSan (the packed-row kernels do raw stride arithmetic —
  # exactly where an OOB hides), and the concurrent-Execute and per-query
  # I/O attribution tests under ThreadSanitizer (shared catalog + buffer
  # pool behind concurrent queries).
  cmake -B build -S .
  cmake --build build "$jobs_flag" --target engine_test bench_backend_faceoff
  ctest --test-dir build --output-on-failure -L engine
  cmake -B build-asan -S . -DPERFEVAL_SANITIZE=address
  cmake --build build-asan "$jobs_flag" --target engine_test
  # -R keeps the ASan pass to the engine_test cases (the bench smoke
  # under the same label is built only in the Release tree).
  ctest --test-dir build-asan --output-on-failure -L engine -R 'RowLayout|RowStorage|RowBackend|BackendFactory|BackendKind|ColumnarBackend'
  cmake -B build-tsan -S . -DPERFEVAL_SANITIZE=thread
  cmake --build build-tsan "$jobs_flag" --target engine_test
  ctest --test-dir build-tsan --output-on-failure -L engine -R 'ConcurrentExecute|ConcurrentQueriesAreCharged'
}

perf() {
  # End-to-end benchmark job: bench/perf is a CMake package of its own
  # that compiles src/ itself, so no other job notices a src/ change that
  # breaks it (a renamed DatabaseOptions field, say). Build it in Release
  # and run its unit tests plus the smoke run of every workload.
  cmake -S bench/perf -B build-perf -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf "$jobs_flag"
  ctest --test-dir build-perf --output-on-failure -L perf
}

case "$job" in
  tier1)    tier1 ;;
  asan)     asan ;;
  oracle)   oracle ;;
  serve)    serve ;;
  parallel) parallel ;;
  shard)    shard ;;
  opt)      opt ;;
  txn)      txn ;;
  engine)   engine ;;
  perf)     perf ;;
  all)      tier1; oracle; serve; parallel; shard; opt; txn; engine; perf; asan ;;
  *)
    echo "usage: tools/ci.sh [tier1|asan|oracle|serve|parallel|shard|opt|txn|engine|perf|all]" >&2
    exit 2
    ;;
esac
