#ifndef PERFEVAL_DB_PLAN_H_
#define PERFEVAL_DB_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/join.h"
#include "db/morsel.h"
#include "db/profile.h"
#include "db/storage.h"
#include "db/table.h"

namespace perfeval {
namespace db {

class Catalog;

/// How operators execute (paper, slides 37–45, "Of apples and oranges").
/// kDebug interprets tuple-at-a-time with per-tuple virtual dispatch and
/// validation — the behaviour of an un-optimized build. kOptimized runs
/// vectorized tight loops. Having both modes in one binary makes the
/// DBG/OPT experiment repeatable without recompiling.
enum class ExecMode {
  kDebug,
  kOptimized,
};

const char* ExecModeName(ExecMode mode);

/// Accumulated over every parallel region of one query execution: the
/// measured wall time spent inside the regions and, per region, the
/// longest per-worker CPU busy time (the region's critical path). On a
/// host with enough idle cores wall ≈ critical path; on an oversubscribed
/// host (the workers time-slice one core) the pair is what lets a bench
/// report the modeled parallel time honestly instead of pretending the
/// measured wall clock shows scaling. See QueryResult::ModeledServerNs().
struct ParallelSim {
  int64_t region_wall_ns = 0;      ///< measured wall time inside regions.
  int64_t region_critical_ns = 0;  ///< sum over regions of max worker busy.
  int64_t regions = 0;             ///< parallel regions entered.
};

/// The execution knobs, declared once: DatabaseOptions holds a session's
/// values and ExecContext carries them down one query's plan tree (both
/// inherit this struct; Database::ExecSettings copies the base). None of
/// them changes a result relation or the reported StorageStats.
struct ExecKnobs {
  /// Intra-query parallelism: scan/filter/aggregate/join/sort fan work out
  /// over this many workers (<= 1 runs inline). A pure concurrency knob —
  /// per the repo's determinism invariant it may change wall-clock time
  /// but never a result relation or the reported StorageStats: morsel
  /// boundaries are thread-count-independent, partial states are reduced
  /// in morsel order, and I/O is accounted from the coordinator in chunk
  /// order.
  int threads = 1;
  /// Morsel sizing and the adaptive go-parallel decision. Defaults match
  /// MorselPolicy::Hardware(); tests override it to place the serial/
  /// parallel boundary wherever they need it. Fields never depend on
  /// `threads`, so changing `threads` can never move a morsel boundary.
  MorselPolicy morsel;
  /// Physical algorithm for unpinned equi-join nodes. For
  /// each algorithm the join output is deterministic at any `threads`
  /// setting; different algorithms may emit matches in different (but
  /// fixed) orders. See db/join.h.
  JoinAlgo join_algo = JoinAlgo::kRadix;
  /// Radix fan-out (log2 partitions) for JoinAlgo::kRadix; <= 0 sizes
  /// partitions to the hwsim L2 profile (ChooseRadixBits).
  int radix_bits = 0;
  /// Checked execution: operators assert their own invariants (selection
  /// vectors strictly increasing, zone maps consistent with page contents,
  /// join match-count conservation, sort output a permutation of its
  /// input, group output in first-occurrence order) and throw QueryError
  /// on violation. Orthogonal to `mode` so the fast vectorized paths are
  /// what gets checked; costs O(input) per operator. Checked (non-
  /// wrapping) int64 arithmetic is always on, independent of this flag.
  bool check = false;
};

/// Per-execution context handed down the plan tree.
struct ExecContext : ExecKnobs {
  ExecMode mode = ExecMode::kOptimized;
  /// The catalog version this query pinned (required): scans read their
  /// table, zone maps and page geometry from it.
  const Catalog* catalog = nullptr;
  StorageManager* storage = nullptr;   ///< optional: page I/O accounting.
  /// The query's I/O so far: the sum of the deltas its own page touches
  /// returned, accumulated on the coordinating thread in touch order.
  /// Database::Run reports it; TraceScope reads operator stalls from it.
  StorageStats io;
  Profiler* profiler = nullptr;        ///< optional: operator traces.
  bool use_zone_maps = true;           ///< page skipping in FilterScan.
  /// Optional: accumulates parallel-region wall/critical-path times for
  /// the whole execution (filled by the morsel dispatch in plan.cc).
  ParallelSim* parallel_sim = nullptr;
};

/// An intermediate result: a table plus an optional selection vector.
/// Filters refine the selection without copying data; materializing
/// operators (Project, Join, Aggregate, Sort) produce fresh tables.
struct Relation {
  std::shared_ptr<const Table> table;
  /// Row ids into `table`; nullptr means "all rows".
  std::shared_ptr<const std::vector<uint32_t>> selection;

  size_t num_rows() const {
    return selection ? selection->size() : table->num_rows();
  }
  uint32_t RowAt(size_t i) const {
    return selection ? (*selection)[i] : static_cast<uint32_t>(i);
  }
  /// The selection as an explicit vector (identity when selection is null).
  std::vector<uint32_t> RowIds() const;
  /// The relation as a table of its own, the way a server serializes a
  /// final result: `table` itself without a selection, else a fresh table
  /// of the selected rows.
  std::shared_ptr<const Table> Materialize() const;
};

/// Aggregate functions.
enum class AggOp { kSum, kAvg, kMin, kMax, kCount, kCountDistinct };
const char* AggOpName(AggOp op);

/// One output aggregate: `op` applied to `expr` (ignored for kCount),
/// emitted under `output_name`.
struct AggSpec {
  AggOp op = AggOp::kCount;
  ExprPtr expr;  ///< may be null for kCount.
  std::string output_name;
};

/// One sort key.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// The operator kind of a plan node, for plan introspection.
enum class PlanKind {
  kScan,
  kFilterScan,
  kFilter,
  kProject,
  kHashJoin,
  kAggregate,
  kSort,
  kLimit,
  kTopN,
};

/// A structural description of one plan node — everything an independent
/// interpreter needs to re-execute the node's logical operation. Returned
/// by PlanNode::Spec(); the concrete node classes stay private to plan.cc.
/// Only the fields relevant to `kind` are populated.
struct PlanSpec {
  PlanKind kind = PlanKind::kScan;
  std::string table_name;              ///< kScan / kFilterScan.
  std::vector<std::string> columns;    ///< kScan / kFilterScan (may be empty).
  ExprPtr predicate;                   ///< kFilterScan / kFilter.
  std::vector<ExprPtr> exprs;          ///< kProject.
  std::vector<std::string> names;      ///< kProject output names.
  std::vector<std::string> left_keys;  ///< joins (1 or 2 key columns).
  std::vector<std::string> right_keys;  ///< joins.
  /// kHashJoin: the algorithm pinned on the node; nullopt follows
  /// ExecContext::join_algo at run time.
  std::optional<JoinAlgo> join_algo;
  std::vector<std::string> group_by;   ///< kAggregate.
  std::vector<AggSpec> aggregates;     ///< kAggregate.
  std::vector<SortKey> sort_keys;      ///< kSort / kTopN.
  size_t limit = 0;                    ///< kLimit / kTopN.
};

/// A physical plan operator. Plans are immutable trees built by the factory
/// functions below; Execute() runs operator-at-a-time (full intermediate
/// results, MonetDB style).
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// The node's output schema, fixed when the factory builds the node:
  /// scans declare their table's schema, and every other node derives its
  /// own from its children's. Execute() produces tables of exactly this
  /// schema, so planners bind expressions against it while they build.
  const Schema& schema() const { return schema_; }

  /// Executes the subtree. Records an OpTrace per node when profiling.
  virtual Relation Execute(ExecContext& ctx) const = 0;

  /// One-line operator description for EXPLAIN.
  virtual std::string Describe() const = 0;

  /// The node's logical operation, for independent re-execution (the
  /// reference interpreter in db/reference.h).
  virtual PlanSpec Spec() const = 0;

  virtual std::vector<const PlanNode*> Children() const { return {}; }

  /// The children as shared plans, so a rewriter (the cost-based
  /// optimizer) can rebuild a tree around existing subtrees without
  /// cloning them. Same order as Children().
  virtual std::vector<std::shared_ptr<const PlanNode>> SharedChildren()
      const {
    return {};
  }

 protected:
  explicit PlanNode(Schema schema) : schema_(std::move(schema)) {}

 private:
  Schema schema_;
};

using PlanPtr = std::shared_ptr<const PlanNode>;

/// Output column type of one aggregate over `input_schema`: counts are
/// int64; SUM/MIN/MAX of an int64-typed expression stay int64 (computed
/// with checked accumulators); everything else — including AVG, which is
/// a ratio — is double.
DataType AggOutputType(const AggSpec& spec, const Schema& input_schema);

/// Whether the aggregate accumulates on the exact int64 accumulators
/// (AggState::AddInt): SUM/AVG/MIN/MAX of an int64-typed expression.
bool UsesIntAccumulator(const AggSpec& spec, const Schema& input_schema);

// ---- Plan factories ----

/// Scans base table `table_name`, touching the pages of `columns_used`
/// through the buffer pool (all columns when empty). `schema` is the
/// table's schema (`catalog.Get(table_name).table->schema()`); the scan
/// aborts at run time when the version it pins has a different one.
PlanPtr Scan(const std::string& table_name, Schema schema,
             std::vector<std::string> columns_used = {});

/// Fused scan + filter over a base table with zone-map page skipping for
/// simple predicates. `schema` as for Scan.
PlanPtr FilterScan(const std::string& table_name, Schema schema,
                   std::vector<std::string> columns_used, ExprPtr predicate);

/// Filters an arbitrary child relation.
PlanPtr Filter(PlanPtr child, ExprPtr predicate);

/// Projects expressions into a new materialized table. `names` labels the
/// output columns; sizes must match.
PlanPtr Project(PlanPtr child, std::vector<ExprPtr> exprs,
                std::vector<std::string> names);

/// Hash join on int64 equality keys. Output schema = left columns followed
/// by right columns (TPC-H names are globally unique so no renaming is
/// needed). The right (second) input is the build side.
PlanPtr HashJoin(PlanPtr left, PlanPtr right, std::string left_key,
                 std::string right_key);

/// Equi-join on 1 or 2 key columns with the physical algorithm pinned per
/// node (the cost-based optimizer's output form): this node always
/// executes `algo`; nullopt builds the unpinned node, which follows
/// ExecContext::join_algo at run time like HashJoin, so a rewriter can
/// pass PlanSpec::join_algo through unchanged. A composite key, e.g.
/// TPC-H Q9's lineitem-partsupp join on (partkey, suppkey), needs both
/// key columns to hold non-negative values below 2^31. JoinAlgo::kMerge
/// is the sort-merge join, which skips the sort of an input already
/// ordered on its key (clustered keys such as TPC-H's l_orderkey);
/// bench_join_crossover measures where it wins.
PlanPtr HashJoinWith(PlanPtr left, PlanPtr right,
                     std::vector<std::string> left_keys,
                     std::vector<std::string> right_keys,
                     std::optional<JoinAlgo> algo);

/// Hash aggregation with optional group-by columns.
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggSpec> aggregates);

/// Full sort by the given keys.
PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys);

/// First `n` rows.
PlanPtr Limit(PlanPtr child, size_t n);

/// Top-N: the first `n` rows of the input as ordered by `keys`, computed
/// with a bounded partial sort (O(rows log n)) instead of a full sort —
/// equivalent to Sort + Limit; bench_join_crossover quantifies the gap.
PlanPtr TopN(PlanPtr child, std::vector<SortKey> keys, size_t n);

/// EXPLAIN: multi-line indented plan rendering (paper, slide 52).
std::string Explain(const PlanPtr& plan);

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_PLAN_H_
