#include "db/plan.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/string_util.h"
#include "core/timer.h"
#include "db/catalog.h"
#include "db/error.h"
#include "db/invariants.h"
#include "db/join.h"
#include "db/scan_io.h"
#include "db/semantics.h"
#include "db/sort.h"
#include "sched/parallel_for.h"

namespace perfeval {
namespace db {

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kDebug:
      return "debug (tuple-at-a-time, checked)";
    case ExecMode::kOptimized:
      return "optimized (vectorized)";
  }
  return "unknown";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kAvg:
      return "avg";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
    case AggOp::kCount:
      return "count";
    case AggOp::kCountDistinct:
      return "count_distinct";
  }
  return "?";
}

std::vector<uint32_t> Relation::RowIds() const {
  if (selection) {
    return *selection;
  }
  std::vector<uint32_t> ids(table->num_rows());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(i);
  }
  return ids;
}

namespace {

/// Dispatches `count` morsels for an operator over `input_rows` input
/// rows. The worker count is the policy's adaptive decision — 1 below the
/// serial cutoff, where fan-out overhead would exceed the work itself (the
/// sf=0.01 regression A7 used to document) — and never influences morsel
/// boundaries, so every floating-point reduction order is identical at any
/// `threads` setting and in both execution modes.
///
/// QueryError containment: morsel work can throw (checked int64
/// aggregation, checked-mode assertions), but an exception escaping a
/// sched::ParallelFor worker lambda would std::terminate the process. Each
/// morsel's error is captured in its own slot and the lowest-index one is
/// rethrown on the coordinator — deterministic at any thread count.
///
/// Parallel regions additionally record their wall time and critical path
/// (max per-worker thread-CPU busy time) into ctx.parallel_sim. Returns
/// the worker count used, for OpTrace::threads_used.
int ParallelMorsels(ExecContext& ctx, size_t input_rows, size_t count,
                    const std::function<void(size_t)>& fn) {
  int threads = ctx.morsel.EffectiveThreads(input_rows, ctx.threads);
  if (threads <= 1 || count <= 1) {
    for (size_t m = 0; m < count; ++m) {
      fn(m);  // runs on the coordinator; exceptions propagate directly.
    }
    return 1;
  }
  std::vector<std::unique_ptr<QueryError>> errors(count);
  sched::ParallelForStats stats;
  core::WallTimer timer;
  sched::ParallelFor(
      threads, count,
      [&](size_t m) {
        try {
          fn(m);
        } catch (const QueryError& e) {
          errors[m] = std::make_unique<QueryError>(e);
        }
      },
      &stats);
  if (ctx.parallel_sim != nullptr) {
    int64_t wall = timer.ElapsedNs();
    // A worker's CPU time cannot exceed the region's wall time; clamping
    // guards against thread-CPU clock granularity making the modeled
    // critical path longer than what was measured.
    int64_t critical = std::min(stats.MaxBusyNs(), wall);
    ctx.parallel_sim->region_wall_ns += wall;
    ctx.parallel_sim->region_critical_ns += critical;
    ++ctx.parallel_sim->regions;
  }
  for (const std::unique_ptr<QueryError>& e : errors) {
    if (e != nullptr) {
      throw *e;
    }
  }
  return stats.workers_spawned;
}

/// RAII operator trace: measures wall time and attributes storage stalls.
class TraceScope {
 public:
  TraceScope(ExecContext& ctx, std::string op, size_t rows_in)
      : ctx_(ctx), op_(std::move(op)), rows_in_(rows_in) {
    stall_before_ = ctx_.storage ? ctx_.storage->total_stall_ns() : 0;
  }

  /// Workers the operator's parallel region used (the ParallelMorsels
  /// return value); left at 0 for operators without a parallel region.
  void set_threads_used(int threads) { threads_used_ = threads; }

  void Finish(size_t rows_out) {
    if (ctx_.profiler == nullptr) {
      return;
    }
    OpTrace trace;
    trace.op = std::move(op_);
    trace.rows_in = rows_in_;
    trace.rows_out = rows_out;
    trace.wall_ns = timer_.ElapsedNs();
    trace.stall_ns =
        (ctx_.storage ? ctx_.storage->total_stall_ns() : 0) - stall_before_;
    trace.threads_used = threads_used_;
    ctx_.profiler->Record(std::move(trace));
  }

 private:
  ExecContext& ctx_;
  std::string op_;
  size_t rows_in_;
  int64_t stall_before_;
  int threads_used_ = 0;
  core::WallTimer timer_;
};

/// Gather: new table containing `rows` of `source` in order. Optimized
/// mode runs typed tight loops, morsel-parallel when the adaptive policy
/// decides the input is big enough — each morsel fills a disjoint index
/// range of the pre-sized output vectors, a pure scatter-by-index, so the
/// result is byte-identical at any thread count. Debug mode goes
/// tuple-at-a-time through the generic Value path with per-row validation
/// (the interpreted, assertion-heavy code path of an un-optimized build).
std::shared_ptr<Table> GatherRows(ExecContext& ctx, const Table& source,
                                  const std::vector<uint32_t>& rows) {
  auto out = std::make_shared<Table>(source.schema());
  if (ctx.mode == ExecMode::kDebug) {
    out->ReserveRows(rows.size());
    for (uint32_t r : rows) {
      PERFEVAL_CHECK_LT(r, source.num_rows());
      std::vector<Value> row;
      row.reserve(source.num_columns());
      for (size_t c = 0; c < source.num_columns(); ++c) {
        row.push_back(source.column(c).GetValue(r));
      }
      out->AppendRow(row);
    }
    return out;
  }
  // The parallel typed path below copies raw payload vectors, which
  // would silently turn NULLs into their placeholder values; nullable
  // sources take the serial null-aware gather instead.
  if (source.has_nulls()) {
    out->AppendGather(source, rows);
    return out;
  }
  size_t n = rows.size();
  size_t morsel_rows = std::max<size_t>(1, ctx.morsel.morsel_rows);
  size_t num_morsels = ctx.morsel.NumMorsels(n);
  auto for_each_range = [&](auto&& fill) {
    ParallelMorsels(ctx, n, num_morsels, [&](size_t m) {
      size_t begin = m * morsel_rows;
      fill(begin, std::min(n, begin + morsel_rows));
    });
  };
  for (size_t c = 0; c < source.num_columns(); ++c) {
    const Column& in = source.column(c);
    Column& dst = out->column(c);
    switch (in.type()) {
      case DataType::kInt64:
      case DataType::kDate: {
        const std::vector<int64_t>& data = in.ints();
        std::vector<int64_t>& target = dst.mutable_ints();
        target.resize(n);
        for_each_range([&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            target[i] = data[rows[i]];
          }
        });
        break;
      }
      case DataType::kDouble: {
        const std::vector<double>& data = in.doubles();
        std::vector<double>& target = dst.mutable_doubles();
        target.resize(n);
        for_each_range([&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            target[i] = data[rows[i]];
          }
        });
        break;
      }
      case DataType::kString: {
        const std::vector<std::string>& data = in.strings();
        std::vector<std::string>& target = dst.mutable_strings();
        target.resize(n);
        for_each_range([&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            target[i] = data[rows[i]];
          }
        });
        break;
      }
    }
  }
  out->FinishBulkLoad();
  return out;
}

/// One predicate compiled once per operator: the flattened conjuncts plus
/// their `column <op> constant` forms where available. Compiling once —
/// instead of re-walking the expression tree in every morsel — keeps the
/// per-morsel work purely computational.
struct CompiledPredicate {
  ExprPtr predicate;                    ///< whole tree (row paths).
  std::vector<ExprPtr> conjuncts;
  std::vector<SimplePredicate> simple;  ///< parallel to `conjuncts`.
  std::vector<uint8_t> is_simple;       ///< parallel to `conjuncts`.
};

CompiledPredicate CompilePredicate(const ExprPtr& predicate) {
  CompiledPredicate out;
  out.predicate = predicate;
  predicate->CollectConjuncts(&out.conjuncts, predicate);
  out.simple.resize(out.conjuncts.size());
  out.is_simple.assign(out.conjuncts.size(), 0);
  for (size_t i = 0; i < out.conjuncts.size(); ++i) {
    out.is_simple[i] =
        out.conjuncts[i]->AsSimplePredicate(&out.simple[i]) ? 1 : 0;
  }
  return out;
}

/// Applies a compiled predicate to `rows` in place. Optimized mode runs
/// the branch-free selection kernels for simple conjuncts and a row loop
/// for the rest; debug mode interprets the whole predicate
/// tuple-at-a-time. Nullable tables also take the row path — the kernels
/// read raw payload vectors and would compare NULL placeholders as real
/// values, while EvalBool collapses UNKNOWN to false (NULL never matches).
void ApplyPredicate(const ExecContext& ctx, const Table& table,
                    const CompiledPredicate& pred,
                    std::vector<uint32_t>* rows) {
  if (ctx.mode == ExecMode::kDebug) {
    size_t kept = 0;
    for (uint32_t r : *rows) {
      PERFEVAL_CHECK_LT(r, table.num_rows());  // per-tuple validation.
      if (pred.predicate->EvalBool(table, r)) {
        (*rows)[kept++] = r;
      }
    }
    rows->resize(kept);
    return;
  }
  if (table.has_nulls()) {
    size_t kept = 0;
    for (uint32_t r : *rows) {
      if (pred.predicate->EvalBool(table, r)) {
        (*rows)[kept++] = r;
      }
    }
    rows->resize(kept);
    return;
  }
  for (size_t i = 0; i < pred.conjuncts.size(); ++i) {
    if (pred.is_simple[i] != 0) {
      const SimplePredicate& sp = pred.simple[i];
      RefineSelection(table.column(sp.column), sp.op, sp.value, rows);
    } else {
      size_t kept = 0;
      for (uint32_t r : *rows) {
        if (pred.conjuncts[i]->EvalBool(table, r)) {
          (*rows)[kept++] = r;
        }
      }
      rows->resize(kept);
    }
    if (rows->empty()) {
      break;
    }
  }
}

/// Evaluates a compiled predicate over the dense row range [begin, end),
/// appending survivors to `*out` in row order. Equivalent to materializing
/// the identity range and calling ApplyPredicate, but the optimized
/// null-free path feeds the range straight through the first simple
/// conjunct's branch-free kernel, so the identity vector never exists.
void FilterRowRange(const ExecContext& ctx, const Table& table,
                    const CompiledPredicate& pred, size_t begin, size_t end,
                    std::vector<uint32_t>* out) {
  if (ctx.mode == ExecMode::kOptimized && !table.has_nulls() &&
      !pred.conjuncts.empty() && pred.is_simple[0] != 0) {
    const SimplePredicate& first = pred.simple[0];
    FilterColumnRange(table.column(first.column), first.op, first.value,
                      begin, end, out);
    for (size_t i = 1; i < pred.conjuncts.size() && !out->empty(); ++i) {
      if (pred.is_simple[i] != 0) {
        const SimplePredicate& sp = pred.simple[i];
        RefineSelection(table.column(sp.column), sp.op, sp.value, out);
      } else {
        size_t kept = 0;
        for (uint32_t r : *out) {
          if (pred.conjuncts[i]->EvalBool(table, r)) {
            (*out)[kept++] = r;
          }
        }
        out->resize(kept);
      }
    }
    return;
  }
  out->reserve(out->size() + (end - begin));
  for (size_t r = begin; r < end; ++r) {
    out->push_back(static_cast<uint32_t>(r));
  }
  ApplyPredicate(ctx, table, pred, out);
}

/// Touches the buffer-pool pages of the named columns (all when empty).
/// Delegates to the shared scan-I/O walk (db/scan_io.h) so the shard
/// coordinator's logical replay issues identical touches by construction.
void TouchColumns(ExecContext& ctx, const TableVersion& version,
                  const std::vector<std::string>& columns) {
  if (ctx.storage == nullptr) {
    return;
  }
  TouchScanColumns(ctx.storage, ScanTableInfo{&version.table->schema(),
                                              &version.layout},
                   columns);
}

class ScanNode : public PlanNode {
 public:
  ScanNode(std::string table_name, std::vector<std::string> columns)
      : table_name_(std::move(table_name)), columns_(std::move(columns)) {}

  Relation Execute(ExecContext& ctx) const override {
    PERFEVAL_CHECK(ctx.catalog != nullptr);
    const TableVersion& version = ctx.catalog->Get(table_name_);
    TraceScope trace(ctx, "Scan(" + table_name_ + ")",
                     version.table->num_rows());
    TouchColumns(ctx, version, columns_);
    Relation out;
    out.table = version.table;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    return "Scan " + table_name_;
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kScan;
    spec.table_name = table_name_;
    spec.columns = columns_;
    return spec;
  }

 private:
  std::string table_name_;
  std::vector<std::string> columns_;
};

class FilterScanNode : public PlanNode {
 public:
  FilterScanNode(std::string table_name, std::vector<std::string> columns,
                 ExprPtr predicate)
      : table_name_(std::move(table_name)),
        columns_(std::move(columns)),
        predicate_(std::move(predicate)) {}

  Relation Execute(ExecContext& ctx) const override {
    PERFEVAL_CHECK(ctx.catalog != nullptr);
    const TableVersion& version = ctx.catalog->Get(table_name_);
    const std::shared_ptr<const Table>& table = version.table;
    TraceScope trace(ctx, "FilterScan(" + table_name_ + ")",
                     table->num_rows());

    // Zone-map page skipping: a chunk participates only when all simple
    // conjuncts might match its [min, max]. The compiled form also feeds
    // the per-morsel filter kernels below.
    CompiledPredicate pred = CompilePredicate(predicate_);
    std::vector<SimplePredicate> simple;
    for (size_t i = 0; i < pred.conjuncts.size(); ++i) {
      if (pred.is_simple[i] != 0) {
        simple.push_back(pred.simple[i]);
      }
    }

    size_t num_rows = table->num_rows();
    // Two granularities, decoupled on purpose: pruning and I/O accounting
    // stay page-granular (zone maps and the buffer pool live per page),
    // while compute morsels follow the cache-calibrated policy — adjacent
    // surviving pages are coalesced up to policy.morsel_rows so the old
    // one-page-per-morsel dispatch overhead is gone. Neither granularity
    // depends on ctx.threads.
    size_t page_rows = ctx.storage != nullptr ? ctx.storage->rows_per_page()
                                              : ctx.morsel.morsel_rows;
    page_rows = std::max<size_t>(page_rows, 1);
    size_t compute_rows = std::max<size_t>(ctx.morsel.morsel_rows, 1);
    bool zone_maps = ctx.use_zone_maps && ctx.storage != nullptr &&
                     !simple.empty() && num_rows > 0;

    struct Morsel {
      size_t begin = 0;
      size_t end = 0;
    };
    std::vector<Morsel> morsels;
    morsels.reserve(num_rows / compute_rows + 1);
    // Appends [begin, end) to the compute-morsel list, gluing it onto the
    // previous morsel when adjacent and still under the policy size.
    auto add_range = [&](size_t begin, size_t end) {
      if (!morsels.empty() && morsels.back().end == begin &&
          end - morsels.back().begin <= compute_rows) {
        morsels.back().end = end;
        return;
      }
      morsels.push_back({begin, end});
    };
    if (ctx.check && zone_maps) {
      // Checked mode: every zone map consulted for pruning must agree with
      // the actual page contents — a stale map silently drops live rows.
      size_t num_chunks = (num_rows + page_rows - 1) / page_rows;
      for (const SimplePredicate& sp : simple) {
        const Column& column = table->column(sp.column);
        for (uint32_t chunk = 0; chunk < num_chunks; ++chunk) {
          size_t begin = static_cast<size_t>(chunk) * page_rows;
          CheckZoneMapConsistent(
              column, begin, std::min(num_rows, begin + page_rows),
              version.layout.zone_map(static_cast<uint32_t>(sp.column),
                                      chunk),
              "FilterScan " + table_name_ + "." +
                  table->schema().column(sp.column).name);
        }
      }
    }
    if (zone_maps) {
      std::vector<uint32_t> column_ids;
      column_ids.reserve(columns_.size());
      for (const std::string& name : columns_) {
        column_ids.push_back(
            static_cast<uint32_t>(table->schema().MustIndexOf(name)));
      }
      // Prune, touch, and enumerate surviving chunks through the shared
      // walk (db/scan_io.h) — the same code the shard coordinator replays,
      // so sharded logical I/O matches this path by construction.
      ScanTableInfo info{&table->schema(), &version.layout};
      FilterScanChunkWalk(ctx.storage, info, column_ids, simple, add_range);
    } else {
      TouchColumns(ctx, version, columns_);
      for (size_t begin = 0; begin < num_rows; begin += compute_rows) {
        morsels.push_back({begin, std::min(num_rows, begin + compute_rows)});
      }
    }

    // Compute: each morsel evaluates the predicate into its own selection
    // vector; workers claim morsels from a shared counter, and the partial
    // selections are concatenated in chunk order afterwards.
    std::vector<std::vector<uint32_t>> partial(morsels.size());
    int used = ParallelMorsels(ctx, num_rows, morsels.size(), [&](size_t m) {
      FilterRowRange(ctx, *table, pred, morsels[m].begin, morsels[m].end,
                     &partial[m]);
    });
    trace.set_threads_used(used);

    auto candidates = std::make_shared<std::vector<uint32_t>>();
    size_t total = 0;
    for (const std::vector<uint32_t>& rows : partial) {
      total += rows.size();
    }
    candidates->reserve(total);
    for (const std::vector<uint32_t>& rows : partial) {
      candidates->insert(candidates->end(), rows.begin(), rows.end());
    }
    if (ctx.check) {
      CheckSelectionStrictlyIncreasing(*candidates, "FilterScan");
    }
    Relation out;
    out.table = table;
    out.selection = candidates;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    return "FilterScan " + table_name_ + " [" + predicate_->ToString() + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kFilterScan;
    spec.table_name = table_name_;
    spec.columns = columns_;
    spec.predicate = predicate_;
    return spec;
  }

 private:
  std::string table_name_;
  std::vector<std::string> columns_;
  ExprPtr predicate_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "Filter", input.num_rows());
    std::vector<uint32_t> ids = input.RowIds();
    auto rows = std::make_shared<std::vector<uint32_t>>();
    CompiledPredicate pred = CompilePredicate(predicate_);
    size_t morsel_rows = std::max<size_t>(ctx.morsel.morsel_rows, 1);
    size_t num_morsels = ctx.morsel.NumMorsels(ids.size());
    if (ctx.morsel.EffectiveThreads(ids.size(), ctx.threads) <= 1 ||
        num_morsels <= 1) {
      *rows = std::move(ids);
      ApplyPredicate(ctx, *input.table, pred, rows.get());
      trace.set_threads_used(1);
    } else {
      // Policy-sized morsels over the input selection; per-morsel survivor
      // vectors concatenated in morsel order reproduce the serial output
      // exactly (the predicate is per-row, so no cross-morsel state).
      std::vector<std::vector<uint32_t>> partial(num_morsels);
      int used = ParallelMorsels(ctx, ids.size(), num_morsels, [&](size_t m) {
        size_t begin = m * morsel_rows;
        size_t end = std::min(ids.size(), begin + morsel_rows);
        partial[m].assign(ids.begin() + static_cast<long>(begin),
                          ids.begin() + static_cast<long>(end));
        ApplyPredicate(ctx, *input.table, pred, &partial[m]);
      });
      trace.set_threads_used(used);
      size_t total = 0;
      for (const std::vector<uint32_t>& survivors : partial) {
        total += survivors.size();
      }
      rows->reserve(total);
      for (const std::vector<uint32_t>& survivors : partial) {
        rows->insert(rows->end(), survivors.begin(), survivors.end());
      }
    }
    if (ctx.check) {
      // A filter may only drop rows: its output must be a subsequence of
      // the input selection (identity when the child had no selection).
      CheckSelectionSubsequence(*rows, input.selection.get(),
                                input.table->num_rows(), "Filter");
    }
    Relation out;
    out.table = input.table;
    out.selection = rows;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    return "Filter [" + predicate_->ToString() + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kFilter;
    spec.predicate = predicate_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanPtr child, std::vector<ExprPtr> exprs,
              std::vector<std::string> names)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {
    PERFEVAL_CHECK_EQ(exprs_.size(), names_.size());
  }

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "Project", input.num_rows());
    std::vector<uint32_t> rows = input.RowIds();

    std::vector<ColumnSpec> specs;
    specs.reserve(exprs_.size());
    for (size_t i = 0; i < exprs_.size(); ++i) {
      specs.push_back(
          {names_[i], exprs_[i]->ResultType(input.table->schema())});
    }
    auto out_table = std::make_shared<Table>(Schema(std::move(specs)));
    out_table->ReserveRows(rows.size());

    for (size_t i = 0; i < exprs_.size(); ++i) {
      Column& dst = out_table->column(i);
      DataType type = out_table->schema().column(i).type;
      // Nullable input takes the row path: the numeric batch kernels read
      // raw payload vectors and would project NULL placeholders as zeros.
      if (ctx.mode == ExecMode::kOptimized && type == DataType::kDouble &&
          !input.table->has_nulls()) {
        std::vector<double> values;
        exprs_[i]->EvalNumericBatch(*input.table, rows, &values);
        for (double v : values) {
          dst.AppendDouble(v);
        }
      } else {
        for (uint32_t r : rows) {
          dst.AppendValue(exprs_[i]->EvalRow(*input.table, r));
        }
      }
    }
    out_table->FinishBulkLoad();
    Relation out;
    out.table = out_table;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    std::string out = "Project [";
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += names_[i] + "=" + exprs_[i]->ToString();
    }
    return out + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kProject;
    spec.exprs = exprs_;
    spec.names = names_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  PlanPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
};

/// Rejects a NULL in any visible row of join key column `name`. The base
/// column's null mask covers rows a selection vector may already have
/// filtered out; only a NULL in a visible row is an error (rejecting on
/// has_nulls() alone refused inputs like Filter(k >= 0) -> MergeJoin,
/// which the reference interpreter accepts).
void RejectNullJoinKeys(const Relation& rel, const std::string& name) {
  const Column& column = rel.table->ColumnByName(name);
  if (!column.has_nulls()) {
    return;
  }
  for (size_t i = 0; i < rel.num_rows(); ++i) {
    if (column.IsNull(rel.RowAt(i))) {
      RejectNullJoinKey(name, rel.RowAt(i));
    }
  }
}

/// Extracts the (possibly composite) int64 join key for every row in
/// `rows`. Composite keys pack two 31-bit non-negative columns as
/// (k1 << 32) | k2 — order-preserving, so the same packing serves hash,
/// radix and merge algorithms. Debug mode interprets tuple-at-a-time with
/// validation; optimized mode fills the output morsel-parallel (disjoint
/// index ranges, so the result is identical at any thread count).
std::vector<int64_t> ExtractKeys(ExecContext& ctx, const Relation& rel,
                                 const std::vector<std::string>& names,
                                 const std::vector<uint32_t>& rows) {
  PERFEVAL_CHECK(names.size() == 1 || names.size() == 2);
  for (const std::string& name : names) {
    RejectNullJoinKeys(rel, name);
  }
  std::vector<int64_t> keys(rows.size());
  if (ctx.mode == ExecMode::kDebug) {
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t r = rows[i];
      PERFEVAL_CHECK_LT(r, rel.table->num_rows());
      if (names.size() == 1) {
        keys[i] = rel.table->ColumnByName(names[0]).GetValue(r).AsInt64();
        continue;
      }
      int64_t k1 = rel.table->ColumnByName(names[0]).GetValue(r).AsInt64();
      int64_t k2 = rel.table->ColumnByName(names[1]).GetValue(r).AsInt64();
      PERFEVAL_CHECK(k1 >= 0 && k1 < (int64_t{1} << 31) && k2 >= 0 &&
                     k2 < (int64_t{1} << 31))
          << "composite join keys must fit in 31 bits";
      keys[i] = (k1 << 32) | k2;
    }
    return keys;
  }
  std::vector<const std::vector<int64_t>*> cols;
  for (const std::string& name : names) {
    const Column& column = rel.table->ColumnByName(name);
    PERFEVAL_CHECK(column.type() == DataType::kInt64)
        << "hash join requires int64 keys (" << name << ")";
    cols.push_back(&column.ints());
  }
  size_t n = rows.size();
  size_t morsel_rows = std::max<size_t>(ctx.morsel.morsel_rows, 1);
  size_t num_morsels = ctx.morsel.NumMorsels(n);
  auto fill = [&](size_t begin, size_t end) {
    if (names.size() == 1) {
      const std::vector<int64_t>& data = *cols[0];
      for (size_t i = begin; i < end; ++i) {
        keys[i] = data[rows[i]];
      }
      return;
    }
    const std::vector<int64_t>& data1 = *cols[0];
    const std::vector<int64_t>& data2 = *cols[1];
    for (size_t i = begin; i < end; ++i) {
      int64_t k1 = data1[rows[i]];
      int64_t k2 = data2[rows[i]];
      PERFEVAL_CHECK(k1 >= 0 && k1 < (int64_t{1} << 31) && k2 >= 0 &&
                     k2 < (int64_t{1} << 31))
          << "composite join keys must fit in 31 bits";
      keys[i] = (k1 << 32) | k2;
    }
  };
  ParallelMorsels(ctx, n, num_morsels, [&](size_t m) {
    size_t begin = m * morsel_rows;
    fill(begin, std::min(n, begin + morsel_rows));
  });
  return keys;
}

class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right,
               std::vector<std::string> left_keys,
               std::vector<std::string> right_keys,
               std::optional<JoinAlgo> algo = std::nullopt)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        algo_(algo) {
    PERFEVAL_CHECK_EQ(left_keys_.size(), right_keys_.size());
    PERFEVAL_CHECK_GE(left_keys_.size(), 1u);
    PERFEVAL_CHECK_LE(left_keys_.size(), 2u);
  }

  Relation Execute(ExecContext& ctx) const override {
    // A per-node algorithm pinned by the optimizer wins over the session
    // knob; with no override every join follows ctx.join_algo as before.
    JoinAlgo algo = algo_.value_or(ctx.join_algo);
    Relation left = left_->Execute(ctx);
    Relation right = right_->Execute(ctx);
    TraceScope trace(
        ctx,
        std::string("HashJoin(") + left_keys_[0] + "=" + right_keys_[0] +
            ", " + JoinAlgoName(algo) + ")",
        left.num_rows() + right.num_rows());

    // Key extraction: the (possibly composite) join key per qualifying
    // row, plus the row ids, as flat arrays — the match kernels in
    // db/join.cc are all driven from these. Debug mode derives keys
    // tuple-at-a-time through the generic Value accessor with per-row
    // validation (the interpreted path); optimized mode reads raw key
    // vectors morsel-parallel. Both produce identical keys.
    std::vector<uint32_t> probe_rows = left.RowIds();
    std::vector<uint32_t> build_rows = right.RowIds();
    std::vector<int64_t> probe_keys =
        ExtractKeys(ctx, left, left_keys_, probe_rows);
    std::vector<int64_t> build_keys =
        ExtractKeys(ctx, right, right_keys_, build_rows);

    // The join kernels have their own internal parallelism; the adaptive
    // policy gates it on the combined input size the same way the morsel
    // dispatch does, so small joins never pay the fan-out overhead.
    int join_threads = ctx.morsel.EffectiveThreads(
        probe_rows.size() + build_rows.size(), ctx.threads);
    trace.set_threads_used(join_threads);
    JoinMatches matches =
        JoinMatch(algo, build_keys, build_rows, probe_keys,
                  probe_rows, ctx.radix_bits, join_threads);
    const std::vector<uint32_t>& out_left = matches.probe_rows;
    const std::vector<uint32_t>& out_right = matches.build_rows;
    if (ctx.check) {
      // Match-count conservation: whatever order an algorithm emits in,
      // the number of matches is fixed by the key multiplicities.
      if (out_left.size() != out_right.size()) {
        throw QueryError::Invariant(
            "HashJoin: probe/build match vectors differ in length");
      }
      CheckJoinMatchConservation(probe_keys, build_keys, out_left.size(),
                                 "HashJoin");
    }

    // Materialize: left columns then right columns.
    std::vector<ColumnSpec> specs;
    for (const ColumnSpec& spec : left.table->schema().columns()) {
      specs.push_back(spec);
    }
    for (const ColumnSpec& spec : right.table->schema().columns()) {
      specs.push_back(spec);
    }
    auto out_table = std::make_shared<Table>(Schema(std::move(specs)));
    out_table->ReserveRows(out_left.size());
    std::shared_ptr<Table> left_part = GatherRows(ctx, *left.table, out_left);
    std::shared_ptr<Table> right_part =
        GatherRows(ctx, *right.table, out_right);
    for (size_t c = 0; c < left_part->num_columns(); ++c) {
      out_table->column(c) = left_part->column(c);
    }
    for (size_t c = 0; c < right_part->num_columns(); ++c) {
      out_table->column(left_part->num_columns() + c) =
          right_part->column(c);
    }
    out_table->FinishBulkLoad();

    Relation out;
    out.table = out_table;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    std::string out = "HashJoin [";
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      if (i > 0) {
        out += " AND ";
      }
      out += left_keys_[i] + " = " + right_keys_[i];
    }
    out += "]";
    if (algo_.has_value()) {
      out += std::string(" algo=") + JoinAlgoName(*algo_);
    }
    return out;
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kHashJoin;
    spec.left_keys = left_keys_;
    spec.right_keys = right_keys_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override {
    return {left_, right_};
  }

 private:
  PlanPtr left_;
  PlanPtr right_;
  std::vector<std::string> left_keys_;
  std::vector<std::string> right_keys_;
  std::optional<JoinAlgo> algo_;  ///< optimizer-pinned; nullopt = ctx knob.
};


/// Sort-merge equi-join on a single int64 key. Inputs that are already
/// sorted on the key (clustered storage) skip the sort entirely.
class MergeJoinNode : public PlanNode {
 public:
  MergeJoinNode(PlanPtr left, PlanPtr right, std::string left_key,
                std::string right_key)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation left = left_->Execute(ctx);
    Relation right = right_->Execute(ctx);
    TraceScope trace(ctx,
                     "MergeJoin(" + left_key_ + "=" + right_key_ + ")",
                     left.num_rows() + right.num_rows());

    using Keyed = std::vector<std::pair<int64_t, uint32_t>>;
    auto extract = [&ctx](const Relation& rel,
                          const std::string& name) -> Keyed {
      const Column& column = rel.table->ColumnByName(name);
      PERFEVAL_CHECK(column.type() == DataType::kInt64)
          << "merge join requires int64 keys (" << name << ")";
      RejectNullJoinKeys(rel, name);
      Keyed keyed;
      keyed.reserve(rel.num_rows());
      bool sorted = true;
      int64_t previous = INT64_MIN;
      if (ctx.mode == ExecMode::kDebug) {
        for (size_t i = 0; i < rel.num_rows(); ++i) {
          uint32_t r = rel.RowAt(i);
          PERFEVAL_CHECK_LT(r, rel.table->num_rows());
          int64_t key = column.GetValue(r).AsInt64();
          sorted &= key >= previous;
          previous = key;
          keyed.emplace_back(key, r);
        }
      } else {
        const std::vector<int64_t>& data = column.ints();
        for (size_t i = 0; i < rel.num_rows(); ++i) {
          uint32_t r = rel.RowAt(i);
          int64_t key = data[r];
          sorted &= key >= previous;
          previous = key;
          keyed.emplace_back(key, r);
        }
      }
      if (!sorted) {
        std::sort(keyed.begin(), keyed.end());
      }
      return keyed;
    };
    Keyed lk = extract(left, left_key_);
    Keyed rk = extract(right, right_key_);

    // Merge equal-key blocks (cross product within a block).
    std::vector<uint32_t> out_left;
    std::vector<uint32_t> out_right;
    size_t i = 0;
    size_t j = 0;
    while (i < lk.size() && j < rk.size()) {
      if (lk[i].first < rk[j].first) {
        ++i;
      } else if (lk[i].first > rk[j].first) {
        ++j;
      } else {
        int64_t key = lk[i].first;
        size_t i_end = i;
        while (i_end < lk.size() && lk[i_end].first == key) {
          ++i_end;
        }
        size_t j_end = j;
        while (j_end < rk.size() && rk[j_end].first == key) {
          ++j_end;
        }
        for (size_t a = i; a < i_end; ++a) {
          for (size_t b = j; b < j_end; ++b) {
            out_left.push_back(lk[a].second);
            out_right.push_back(rk[b].second);
          }
        }
        i = i_end;
        j = j_end;
      }
    }
    if (ctx.check) {
      std::vector<int64_t> probe_keys;
      probe_keys.reserve(lk.size());
      for (const auto& [key, row] : lk) {
        probe_keys.push_back(key);
      }
      std::vector<int64_t> build_keys;
      build_keys.reserve(rk.size());
      for (const auto& [key, row] : rk) {
        build_keys.push_back(key);
      }
      CheckJoinMatchConservation(probe_keys, build_keys, out_left.size(),
                                 "MergeJoin");
    }

    std::vector<ColumnSpec> specs = left.table->schema().columns();
    for (const ColumnSpec& spec : right.table->schema().columns()) {
      specs.push_back(spec);
    }
    auto out_table = std::make_shared<Table>(Schema(std::move(specs)));
    std::shared_ptr<Table> left_part = GatherRows(ctx, *left.table, out_left);
    std::shared_ptr<Table> right_part =
        GatherRows(ctx, *right.table, out_right);
    for (size_t c = 0; c < left_part->num_columns(); ++c) {
      out_table->column(c) = left_part->column(c);
    }
    for (size_t c = 0; c < right_part->num_columns(); ++c) {
      out_table->column(left_part->num_columns() + c) =
          right_part->column(c);
    }
    out_table->FinishBulkLoad();

    Relation out;
    out.table = out_table;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    return "MergeJoin [" + left_key_ + " = " + right_key_ + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kMergeJoin;
    spec.left_keys = {left_key_};
    spec.right_keys = {right_key_};
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override {
    return {left_, right_};
  }

 private:
  PlanPtr left_;
  PlanPtr right_;
  std::string left_key_;
  std::string right_key_;
};

/// One morsel's partial aggregation: local groups in first-occurrence
/// order (int keys on the single-int-key fast path, composite string keys
/// otherwise) plus one accumulator per (aggregate, local group). Built by
/// exactly one worker; merged on the coordinator in morsel order.
struct MorselAggState {
  std::vector<int64_t> int_keys;
  std::vector<std::string> str_keys;
  std::vector<uint32_t> first_rows;
  std::vector<std::vector<AggState>> states;  ///< [aggregate][local group].
};

class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanPtr child, std::vector<std::string> group_by,
                std::vector<AggSpec> aggregates)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "Aggregate", input.num_rows());
    const Table& table = *input.table;
    std::vector<uint32_t> rows = input.RowIds();

    std::vector<size_t> group_cols;
    for (const std::string& name : group_by_) {
      group_cols.push_back(table.schema().MustIndexOf(name));
    }
    // Optimized mode has a fast path for the common single-int-key
    // grouping; the general path builds a composite string key per tuple
    // (which also covers NULL group keys — they render as "NULL").
    bool int_fast_path =
        ctx.mode == ExecMode::kOptimized && group_cols.size() == 1 &&
        table.column(group_cols[0]).type() == DataType::kInt64 &&
        !table.column(group_cols[0]).has_nulls();
    // Which aggregates run on the exact int64 accumulators.
    std::vector<uint8_t> int_agg(aggregates_.size(), 0);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      int_agg[a] = UsesIntAccumulator(aggregates_[a], table.schema()) ? 1 : 0;
    }
    // Aggregates over a bare column reference can read the raw payload
    // vector in their tight loops; -1 means "go through the expression".
    std::vector<int> agg_col(aggregates_.size(), -1);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      size_t idx = 0;
      if (aggregates_[a].expr != nullptr &&
          aggregates_[a].expr->AsColumnIndex(&idx)) {
        agg_col[a] = static_cast<int>(idx);
      }
    }

    // Accumulate per-morsel partial states. Every mode and thread count
    // goes through the same morsel structure and the same in-order merge,
    // so floating-point sums (non-associative) come out bit-identical at
    // any `threads` setting and across kDebug/kOptimized.
    size_t morsel_rows = std::max<size_t>(ctx.morsel.morsel_rows, 1);
    size_t num_morsels = ctx.morsel.NumMorsels(rows.size());
    std::vector<MorselAggState> partials(num_morsels);
    int used = ParallelMorsels(ctx, rows.size(), num_morsels, [&](size_t m) {
      size_t begin = m * morsel_rows;
      size_t end = std::min(rows.size(), begin + morsel_rows);
      AccumulateMorsel(ctx, table, group_cols, int_fast_path, int_agg,
                       agg_col, &rows[begin], end - begin, &partials[m]);
    });
    trace.set_threads_used(used);

    // Merge partials in morsel order. Groups are created in global
    // first-occurrence order — the order the serial scan would discover
    // them — which fixes both the output row order and the accumulation
    // order of every group's state.
    std::vector<uint32_t> first_row_of_group;
    std::vector<std::vector<AggState>> states(aggregates_.size());
    std::unordered_map<int64_t, size_t> int_index;
    std::unordered_map<std::string, size_t> str_index;
    for (MorselAggState& part : partials) {
      for (size_t g = 0; g < part.first_rows.size(); ++g) {
        size_t global;
        bool created;
        if (int_fast_path) {
          auto [it, inserted] =
              int_index.try_emplace(part.int_keys[g], int_index.size());
          global = it->second;
          created = inserted;
        } else {
          auto [it, inserted] = str_index.try_emplace(
              std::move(part.str_keys[g]), str_index.size());
          global = it->second;
          created = inserted;
        }
        if (created) {
          first_row_of_group.push_back(part.first_rows[g]);
          for (size_t a = 0; a < aggregates_.size(); ++a) {
            states[a].emplace_back();
          }
        }
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          states[a][global].MergeFrom(part.states[a][g]);
        }
      }
    }
    if (group_cols.empty() && first_row_of_group.empty()) {
      // Global aggregate over zero rows still yields one group.
      first_row_of_group.push_back(0);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        states[a].emplace_back();
      }
    }

    if (ctx.check) {
      // Recompute first-occurrence order with a plain serial scan over the
      // same row ids and require the parallel merge to have produced it.
      std::vector<uint32_t> expected;
      if (int_fast_path) {
        std::unordered_map<int64_t, size_t> seen;
        const std::vector<int64_t>& keys =
            table.column(group_cols[0]).ints();
        for (uint32_t r : rows) {
          if (seen.try_emplace(keys[r], seen.size()).second) {
            expected.push_back(r);
          }
        }
      } else if (!group_cols.empty()) {
        std::unordered_map<std::string, size_t> seen;
        std::string key;
        for (uint32_t r : rows) {
          key.clear();
          AppendGroupKey(table, group_cols, r, &key);
          if (seen.try_emplace(key, seen.size()).second) {
            expected.push_back(r);
          }
        }
      }
      if (!group_cols.empty()) {
        CheckFirstOccurrenceOrder(expected, first_row_of_group, "Aggregate");
      }
    }

    // Output schema: group columns keep their types; aggregate output
    // types come from AggOutputType (counts and int SUM/MIN/MAX are
    // int64, everything else double).
    std::vector<ColumnSpec> specs;
    for (size_t c : group_cols) {
      specs.push_back(table.schema().column(c));
    }
    for (const AggSpec& spec : aggregates_) {
      specs.push_back({spec.output_name,
                       AggOutputType(spec, table.schema())});
    }
    auto out_table = std::make_shared<Table>(Schema(std::move(specs)));
    size_t emitted_groups =
        group_cols.empty() ? 1 : first_row_of_group.size();
    out_table->ReserveRows(emitted_groups);
    for (size_t g = 0; g < emitted_groups; ++g) {
      for (size_t gc = 0; gc < group_cols.size(); ++gc) {
        out_table->column(gc).AppendValue(
            table.column(group_cols[gc]).GetValue(first_row_of_group[g]));
      }
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        AggResult v =
            states[a][g].Result(aggregates_[a].op, int_agg[a] != 0);
        Column& dst = out_table->column(group_cols.size() + a);
        switch (v.kind) {
          case AggResult::Kind::kNull:
            dst.AppendNull();
            break;
          case AggResult::Kind::kInt64:
            dst.AppendInt64(v.i);
            break;
          case AggResult::Kind::kDouble:
            dst.AppendDouble(v.d);
            break;
        }
      }
    }
    out_table->FinishBulkLoad();

    Relation out;
    out.table = out_table;
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    std::string out = "Aggregate [group by: ";
    out += Join(group_by_, ", ");
    out += "; aggs: ";
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += std::string(AggOpName(aggregates_[i].op));
      if (aggregates_[i].expr) {
        out += "(" + aggregates_[i].expr->ToString() + ")";
      }
    }
    return out + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kAggregate;
    spec.group_by = group_by_;
    spec.aggregates = aggregates_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  /// Builds one morsel's partial state from `rows[0..n)`: local dense
  /// group ids in first-occurrence order, then one accumulator per
  /// (aggregate, local group). Runs on a worker thread; reads only shared
  /// immutable data and writes only `*out`.
  ///
  /// A global aggregate (no group columns) skips the hash maps entirely —
  /// one local group with the empty key — which unlocks the tight
  /// single-accumulator loops below. Every fast path is written to
  /// reproduce the generic path's accumulation order and floating-point
  /// semantics exactly (AddNumeric's running `sum += v`, its min/max
  /// comparison order) so kDebug and kOptimized still agree bit-for-bit.
  void AccumulateMorsel(const ExecContext& ctx, const Table& table,
                        const std::vector<size_t>& group_cols,
                        bool int_fast_path,
                        const std::vector<uint8_t>& int_agg,
                        const std::vector<int>& agg_col,
                        const uint32_t* rows, size_t n,
                        MorselAggState* out) const {
    bool single_group = group_cols.empty();
    std::vector<size_t> row_group;
    if (single_group) {
      out->str_keys.emplace_back();  // one global group, empty key.
      out->first_rows.push_back(rows[0]);
    } else if (int_fast_path) {
      row_group.resize(n);
      std::unordered_map<int64_t, size_t> group_index;
      group_index.reserve(n / 4 + 16);
      const std::vector<int64_t>& keys = table.column(group_cols[0]).ints();
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = rows[i];
        auto [it, inserted] =
            group_index.try_emplace(keys[r], group_index.size());
        if (inserted) {
          out->int_keys.push_back(keys[r]);
          out->first_rows.push_back(r);
        }
        row_group[i] = it->second;
      }
    } else {
      row_group.resize(n);
      std::unordered_map<std::string, size_t> group_index;
      std::string key;
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = rows[i];
        key.clear();
        AppendGroupKey(table, group_cols, r, &key);
        auto [it, inserted] =
            group_index.try_emplace(key, group_index.size());
        if (inserted) {
          out->str_keys.push_back(key);
          out->first_rows.push_back(r);
        }
        row_group[i] = it->second;
      }
    }
    size_t num_groups = out->first_rows.size();
    out->states.assign(aggregates_.size(),
                       std::vector<AggState>(num_groups));
    std::vector<uint32_t> batch_rows;
    bool nullable = table.has_nulls();
    bool vectorized = ctx.mode == ExecMode::kOptimized && !nullable;
    auto gid = [&](size_t i) { return single_group ? size_t{0} : row_group[i]; };
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      std::vector<AggState>& agg_states = out->states[a];
      // The aggregate's input as a raw payload vector, when it is a bare
      // column reference of the right type; nullptr takes the expression
      // path.
      const std::vector<int64_t>* int_data = nullptr;
      const std::vector<double>* dbl_data = nullptr;
      if (vectorized && agg_col[a] >= 0) {
        const Column& column = table.column(static_cast<size_t>(agg_col[a]));
        if (column.type() == DataType::kInt64) {
          int_data = &column.ints();
        } else if (column.type() == DataType::kDouble) {
          dbl_data = &column.doubles();
        }
      }
      if (spec.op == AggOp::kCount) {
        if (spec.expr != nullptr && nullable) {
          // COUNT(expr) counts rows where expr is non-NULL. The fast
          // unconditional count below is identical on null-free tables.
          for (size_t i = 0; i < n; ++i) {
            if (!spec.expr->EvalRow(table, rows[i]).is_null()) {
              ++agg_states[gid(i)].count;
            }
          }
        } else if (single_group) {
          agg_states[0].count += static_cast<int64_t>(n);
        } else {
          for (size_t i = 0; i < n; ++i) {
            ++agg_states[gid(i)].count;
          }
        }
      } else if (spec.op == AggOp::kCountDistinct) {
        for (size_t i = 0; i < n; ++i) {
          Value v = spec.expr->EvalRow(table, rows[i]);
          if (v.is_null()) {
            continue;  // NULL contributes no distinct value.
          }
          agg_states[gid(i)].distinct.insert(v.ToString());
        }
      } else if (int_agg[a] != 0) {
        if (single_group && int_data != nullptr && n > 0) {
          // Tight single-accumulator loop with the overflow check hoisted
          // out: a first pass finds the morsel's min/max, and when
          // n * max|v| provably fits in int64 the sum cannot overflow at
          // any prefix, so the hot loop needs no per-row check. Otherwise
          // fall back to per-row CheckedAdd — same error text, and same
          // first-overflowing-prefix behaviour as the generic path.
          const std::vector<int64_t>& data = *int_data;
          int64_t mn = data[rows[0]];
          int64_t mx = mn;
          for (size_t i = 1; i < n; ++i) {
            int64_t v = data[rows[i]];
            mn = v < mn ? v : mn;
            mx = v > mx ? v : mx;
          }
          auto abs_u64 = [](int64_t v) {
            return v < 0 ? uint64_t{0} - static_cast<uint64_t>(v)
                         : static_cast<uint64_t>(v);
          };
          uint64_t max_abs = std::max(abs_u64(mn), abs_u64(mx));
          AggState& st = agg_states[0];
          if (max_abs == 0 ||
              static_cast<uint64_t>(n) <=
                  static_cast<uint64_t>(INT64_MAX) / max_abs) {
            int64_t sum = 0;
            for (size_t i = 0; i < n; ++i) {
              sum += data[rows[i]];
            }
            st.isum = sum;
            st.imin = mn;
            st.imax = mx;
            st.count = static_cast<int64_t>(n);
          } else {
            for (size_t i = 0; i < n; ++i) {
              st.AddInt(data[rows[i]]);
            }
          }
        } else {
          // Exact int64 accumulation with overflow checking; EvalRow keeps
          // the arithmetic inside the expression checked in both modes.
          for (size_t i = 0; i < n; ++i) {
            Value v = spec.expr->EvalRow(table, rows[i]);
            if (v.is_null()) {
              continue;  // SQL aggregates skip NULL inputs.
            }
            agg_states[gid(i)].AddInt(v.AsInt64());
          }
        }
      } else if (vectorized) {
        if (single_group && n > 0) {
          // Single-accumulator double loop: read the raw column when the
          // input is a bare double column, otherwise evaluate the
          // expression batch once; then accumulate with AddNumeric's exact
          // order (running sum, then min/max compares) in scalar locals.
          std::vector<double> values;
          const double* v = nullptr;
          if (dbl_data != nullptr) {
            // Gather through the selection without materializing.
            double sum = 0.0;
            const std::vector<double>& data = *dbl_data;
            double mn = data[rows[0]];
            double mx = mn;
            for (size_t i = 0; i < n; ++i) {
              double x = data[rows[i]];
              mn = x < mn ? x : mn;
              mx = x > mx ? x : mx;
              sum += x;
            }
            AggState& st = agg_states[0];
            st.sum = sum;
            st.min = mn;
            st.max = mx;
            st.count = static_cast<int64_t>(n);
            continue;
          }
          if (batch_rows.empty()) {
            batch_rows.assign(rows, rows + n);
          }
          spec.expr->EvalNumericBatch(table, batch_rows, &values);
          v = values.data();
          double sum = 0.0;
          double mn = v[0];
          double mx = v[0];
          for (size_t i = 0; i < n; ++i) {
            double x = v[i];
            mn = x < mn ? x : mn;
            mx = x > mx ? x : mx;
            sum += x;
          }
          AggState& st = agg_states[0];
          st.sum = sum;
          st.min = mn;
          st.max = mx;
          st.count = static_cast<int64_t>(n);
        } else {
          if (batch_rows.empty() && n > 0) {
            batch_rows.assign(rows, rows + n);
          }
          std::vector<double> values;
          spec.expr->EvalNumericBatch(table, batch_rows, &values);
          for (size_t i = 0; i < n; ++i) {
            agg_states[gid(i)].AddNumeric(values[i]);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          Value v = spec.expr->EvalRow(table, rows[i]);
          if (v.is_null()) {
            continue;  // SQL aggregates skip NULL inputs.
          }
          agg_states[gid(i)].AddNumeric(v.AsDouble());
        }
      }
    }
  }

  PlanPtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggregates_;
};

class SortNode : public PlanNode {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "Sort", input.num_rows());
    const Table& table = *input.table;
    std::vector<uint32_t> rows = input.RowIds();

    RowComparator comparator(table, keys_);
    std::vector<uint32_t> original;
    if (ctx.check) {
      original = rows;
    }
    // The parallel merge sort in db/sort.cc produces the same permutation
    // at any thread count; the adaptive policy just decides whether the
    // fan-out is worth it for this input size.
    int sort_threads = ctx.morsel.EffectiveThreads(rows.size(), ctx.threads);
    trace.set_threads_used(sort_threads);
    StableSortRows(comparator, sort_threads, &rows);
    if (ctx.check) {
      CheckPermutation(original, rows, "Sort");
      for (size_t i = 1; i < rows.size(); ++i) {
        if (comparator(rows[i], rows[i - 1])) {
          throw QueryError::Invariant(StrFormat(
              "Sort: output not ordered at position %zu", i));
        }
      }
    }

    Relation out;
    out.table = GatherRows(ctx, table, rows);
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    std::string out = "Sort [";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += keys_[i].column + (keys_[i].ascending ? " asc" : " desc");
    }
    return out + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kSort;
    spec.sort_keys = keys_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr child, size_t n) : child_(std::move(child)), n_(n) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "Limit", input.num_rows());
    std::vector<uint32_t> rows = input.RowIds();
    if (rows.size() > n_) {
      rows.resize(n_);
    }
    Relation out;
    out.table = GatherRows(ctx, *input.table, rows);
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    return StrFormat("Limit %zu", n_);
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kLimit;
    spec.limit = n_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  PlanPtr child_;
  size_t n_;
};


/// Bounded top-n by sort keys: partial_sort keeps only the first n rows.
class TopNNode : public PlanNode {
 public:
  TopNNode(PlanPtr child, std::vector<SortKey> keys, size_t n)
      : child_(std::move(child)), keys_(std::move(keys)), n_(n) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation input = child_->Execute(ctx);
    TraceScope trace(ctx, "TopN", input.num_rows());
    const Table& table = *input.table;
    std::vector<uint32_t> rows = input.RowIds();

    // Reuses the columnar comparator kernel from the parallel sort; the
    // bounded partial_sort itself stays serial (O(rows log n) is already
    // cheap relative to a full sort). Ties break on the row id — input
    // row ids are strictly increasing, so this is exactly the order a
    // stable full sort + truncate would produce. Without the tie-break
    // the unstable partial_sort is free to emit EITHER of two key-equal
    // rows into the cut at position n, and TopN(k) could disagree with
    // Sort+Limit(k) on which rows survive.
    RowComparator less(table, keys_);
    auto stable_less = [&less](uint32_t a, uint32_t b) {
      if (less(a, b)) {
        return true;
      }
      return !less(b, a) && a < b;
    };
    if (rows.size() > n_) {
      std::partial_sort(rows.begin(),
                        rows.begin() + static_cast<long>(n_), rows.end(),
                        stable_less);
      rows.resize(n_);
    } else {
      std::sort(rows.begin(), rows.end(), stable_less);
    }
    if (ctx.check) {
      for (size_t i = 1; i < rows.size(); ++i) {
        if (less(rows[i], rows[i - 1])) {
          throw QueryError::Invariant(StrFormat(
              "TopN: output not ordered at position %zu", i));
        }
      }
    }

    Relation out;
    out.table = GatherRows(ctx, table, rows);
    trace.Finish(out.num_rows());
    return out;
  }

  std::string Describe() const override {
    std::string out = StrFormat("TopN %zu [", n_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += keys_[i].column + (keys_[i].ascending ? " asc" : " desc");
    }
    return out + "]";
  }

  PlanSpec Spec() const override {
    PlanSpec spec;
    spec.kind = PlanKind::kTopN;
    spec.sort_keys = keys_;
    spec.limit = n_;
    return spec;
  }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

  std::vector<PlanPtr> SharedChildren() const override { return {child_}; }

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
  size_t n_;
};

void ExplainInto(const PlanNode* node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node->Describe());
  out->append("\n");
  for (const PlanNode* child : node->Children()) {
    ExplainInto(child, depth + 1, out);
  }
}

}  // namespace

DataType AggOutputType(const AggSpec& spec, const Schema& input_schema) {
  switch (spec.op) {
    case AggOp::kCount:
    case AggOp::kCountDistinct:
      return DataType::kInt64;
    case AggOp::kSum:
    case AggOp::kMin:
    case AggOp::kMax:
      return UsesIntAccumulator(spec, input_schema) ? DataType::kInt64
                                                    : DataType::kDouble;
    case AggOp::kAvg:
      return DataType::kDouble;
  }
  return DataType::kDouble;
}

bool UsesIntAccumulator(const AggSpec& spec, const Schema& input_schema) {
  return spec.op != AggOp::kCount && spec.op != AggOp::kCountDistinct &&
         spec.expr != nullptr &&
         spec.expr->ResultType(input_schema) == DataType::kInt64;
}

PlanPtr Scan(const std::string& table_name,
             std::vector<std::string> columns_used) {
  return std::make_shared<ScanNode>(table_name, std::move(columns_used));
}

PlanPtr FilterScan(const std::string& table_name,
                   std::vector<std::string> columns_used,
                   ExprPtr predicate) {
  return std::make_shared<FilterScanNode>(
      table_name, std::move(columns_used), std::move(predicate));
}

PlanPtr Filter(PlanPtr child, ExprPtr predicate) {
  return std::make_shared<FilterNode>(std::move(child), std::move(predicate));
}

PlanPtr Project(PlanPtr child, std::vector<ExprPtr> exprs,
                std::vector<std::string> names) {
  return std::make_shared<ProjectNode>(std::move(child), std::move(exprs),
                                       std::move(names));
}

PlanPtr HashJoin(PlanPtr left, PlanPtr right, std::string left_key,
                 std::string right_key) {
  return std::make_shared<HashJoinNode>(
      std::move(left), std::move(right),
      std::vector<std::string>{std::move(left_key)},
      std::vector<std::string>{std::move(right_key)});
}

PlanPtr HashJoin2(PlanPtr left, PlanPtr right, std::string left_key1,
                  std::string right_key1, std::string left_key2,
                  std::string right_key2) {
  return std::make_shared<HashJoinNode>(
      std::move(left), std::move(right),
      std::vector<std::string>{std::move(left_key1), std::move(left_key2)},
      std::vector<std::string>{std::move(right_key1),
                               std::move(right_key2)});
}

PlanPtr HashJoinWith(PlanPtr left, PlanPtr right,
                     std::vector<std::string> left_keys,
                     std::vector<std::string> right_keys, JoinAlgo algo) {
  return std::make_shared<HashJoinNode>(std::move(left), std::move(right),
                                        std::move(left_keys),
                                        std::move(right_keys), algo);
}


PlanPtr MergeJoin(PlanPtr left, PlanPtr right, std::string left_key,
                  std::string right_key) {
  return std::make_shared<MergeJoinNode>(std::move(left), std::move(right),
                                         std::move(left_key),
                                         std::move(right_key));
}

PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggSpec> aggregates) {
  return std::make_shared<AggregateNode>(
      std::move(child), std::move(group_by), std::move(aggregates));
}

PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys) {
  return std::make_shared<SortNode>(std::move(child), std::move(keys));
}

PlanPtr Limit(PlanPtr child, size_t n) {
  return std::make_shared<LimitNode>(std::move(child), n);
}


PlanPtr TopN(PlanPtr child, std::vector<SortKey> keys, size_t n) {
  return std::make_shared<TopNNode>(std::move(child), std::move(keys), n);
}

std::string Explain(const PlanPtr& plan) {
  std::string out;
  ExplainInto(plan.get(), 0, &out);
  return out;
}

}  // namespace db
}  // namespace perfeval
