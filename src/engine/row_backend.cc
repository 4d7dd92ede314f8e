#include "engine/row_backend.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/error.h"
#include "db/expr.h"
#include "db/invariants.h"
#include "db/plan.h"
#include "db/semantics.h"
#include "sched/parallel_for.h"

namespace perfeval {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

struct CatalogView {
  RowBlockPtr block;
  uint32_t table_id = 0;
};

/// Everything one execution threads down the plan tree.
struct RowExecCtx {
  db::ExecMode mode = db::ExecMode::kOptimized;
  int threads = 1;
  bool check = false;
  size_t batch_rows = 1024;
  db::Profiler* profiler = nullptr;
  RowPager* pager = nullptr;
  const std::unordered_map<std::string, CatalogView>* catalog = nullptr;
  /// I/O charged to this execution so far (deltas returned by the pager,
  /// accumulated on the coordinating thread in row order).
  db::StorageStats io;
};

/// Times one operator's own work (children already executed) and records
/// an OpTrace on destruction — the row-store analogue of plan.cc's
/// TraceScope, with identical op naming so per-operator attribution lines
/// up across backends.
class RowTrace {
 public:
  RowTrace(RowExecCtx& ctx, std::string op, size_t rows_in)
      : ctx_(ctx),
        op_(std::move(op)),
        rows_in_(rows_in),
        stall_before_(ctx.io.stall_ns),
        start_(Clock::now()) {}

  ~RowTrace() {
    if (ctx_.profiler == nullptr) {
      return;
    }
    db::OpTrace trace;
    trace.op = std::move(op_);
    trace.rows_in = rows_in_;
    trace.rows_out = rows_out_;
    trace.wall_ns = NsSince(start_);
    trace.stall_ns = ctx_.io.stall_ns - stall_before_;
    trace.threads_used = threads_used_;
    ctx_.profiler->Record(std::move(trace));
  }

  void set_rows_out(size_t n) { rows_out_ = n; }
  void set_threads_used(int n) { threads_used_ = n; }

 private:
  RowExecCtx& ctx_;
  std::string op_;
  size_t rows_in_;
  size_t rows_out_ = 0;
  int threads_used_ = 0;
  int64_t stall_before_;
  Clock::time_point start_;
};

const CatalogView& LookupTable(const RowExecCtx& ctx,
                               const std::string& name) {
  auto it = ctx.catalog->find(name);
  if (it == ctx.catalog->end()) {
    throw db::QueryError(StatusCode::kNotFound,
                         "row backend: unknown table " + name);
  }
  return it->second;
}

/// A scratch columnar view of rows [begin, end) of a block — the batch
/// half of "row-at-a-time with batching": db::Expr evaluation (the
/// engine's full NULL/overflow semantics for free) runs tuple-at-a-time
/// over it.
db::Table UnpackBatch(const RowBlock& block, size_t begin, size_t end) {
  db::Table scratch(block.schema());
  scratch.ReserveRows(end - begin);
  UnpackRows(block, begin, end, &scratch);
  return scratch;
}

bool EvalSimpleAt(const RowBlock& block, size_t r,
                  const db::SimplePredicate& pred, bool is_double) {
  if (block.IsNull(r, pred.column)) {
    return false;  // UNKNOWN -> not selected at the filter boundary.
  }
  double v = is_double ? block.DoubleAt(r, pred.column)
                       : static_cast<double>(block.Int64At(r, pred.column));
  switch (pred.op) {
    case db::CmpOp::kEq:
      return v == pred.value;
    case db::CmpOp::kNe:
      return v != pred.value;
    case db::CmpOp::kLt:
      return v < pred.value;
    case db::CmpOp::kLe:
      return v <= pred.value;
    case db::CmpOp::kGt:
      return v > pred.value;
    case db::CmpOp::kGe:
      return v >= pred.value;
  }
  return false;
}

/// Shared body of Filter and FilterScan: evaluates `predicate` over
/// fixed-size row batches (in parallel when asked — batch boundaries
/// never depend on the thread count, and per-batch survivor lists are
/// concatenated in batch order, so output and stats are deterministic at
/// any `threads`), then copies surviving tuples into a fresh block
/// sharing the input's heap.
RowBlockPtr FilterBlock(const RowBlock& input, const db::Expr& predicate,
                        RowExecCtx& ctx, RowTrace* trace, const char* op) {
  size_t n = input.num_rows();
  size_t batch = ctx.batch_rows;
  size_t num_batches = n == 0 ? 0 : (n + batch - 1) / batch;
  std::vector<std::vector<uint32_t>> survivors(num_batches);

  db::SimplePredicate simple;
  bool fast = ctx.mode == db::ExecMode::kOptimized &&
              predicate.AsSimplePredicate(&simple) &&
              input.schema().column(simple.column).type !=
                  db::DataType::kString;
  bool is_double = fast && input.schema().column(simple.column).type ==
                               db::DataType::kDouble;

  auto eval_batch = [&](size_t b) {
    size_t begin = b * batch;
    size_t end = std::min(n, begin + batch);
    std::vector<uint32_t>& out = survivors[b];
    if (fast) {
      // Compiled fast path: the predicate reads the packed slot at a
      // fixed offset — no unpack, no virtual dispatch per tuple.
      for (size_t r = begin; r < end; ++r) {
        if (EvalSimpleAt(input, r, simple, is_double)) {
          out.push_back(static_cast<uint32_t>(r));
        }
      }
      return;
    }
    db::Table scratch = UnpackBatch(input, begin, end);
    for (size_t r = begin; r < end; ++r) {
      if (predicate.EvalBool(scratch, r - begin)) {
        out.push_back(static_cast<uint32_t>(r));
      }
    }
  };

  int threads_used = 1;
  if (ctx.threads > 1 && num_batches > 1) {
    sched::ParallelForStats stats;
    sched::ParallelFor(ctx.threads, num_batches, eval_batch, &stats);
    threads_used = stats.workers_spawned;
  } else {
    for (size_t b = 0; b < num_batches; ++b) {
      eval_batch(b);
    }
  }

  size_t total = 0;
  for (const auto& s : survivors) {
    total += s.size();
  }
  auto out = std::make_shared<RowBlock>(input.layout(), input.heap());
  out->ReserveRows(total);
  if (ctx.check) {
    std::vector<uint32_t> all;
    all.reserve(total);
    for (const auto& s : survivors) {
      all.insert(all.end(), s.begin(), s.end());
    }
    db::CheckSelectionStrictlyIncreasing(all, op);
    db::CheckSelectionSubsequence(all, nullptr, n, op);
  }
  for (const auto& s : survivors) {
    for (uint32_t r : s) {
      out->AppendRowCopy(input, r);
    }
  }
  trace->set_rows_out(out->num_rows());
  trace->set_threads_used(threads_used);
  return out;
}

int64_t JoinKeyAt(const RowBlock& block, size_t col, size_t row,
                  const std::string& name) {
  if (block.schema().column(col).type != db::DataType::kInt64) {
    throw db::QueryError(StatusCode::kInvalidArgument,
                         "join key column " + name + " is not int64");
  }
  if (block.IsNull(row, col)) {
    db::RejectNullJoinKey(name, row);
  }
  return block.Int64At(row, col);
}

RowBlockPtr ExecJoin(const db::PlanSpec& spec, const RowBlockPtr& left,
                     const RowBlockPtr& right, RowExecCtx& ctx,
                     const char* op) {
  size_t nkeys = spec.left_keys.size();
  std::vector<size_t> lk(nkeys);
  std::vector<size_t> rk(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    lk[k] = left->schema().MustIndexOf(spec.left_keys[k]);
    rk[k] = right->schema().MustIndexOf(spec.right_keys[k]);
  }

  // Build from the right (the engine's build side), probe left rows in
  // order: left-major match order, build rows ascending within a key —
  // the reference interpreter's emission order.
  using Key = std::pair<int64_t, int64_t>;
  std::map<Key, std::vector<uint32_t>> build;
  for (size_t r = 0; r < right->num_rows(); ++r) {
    Key key{JoinKeyAt(*right, rk[0], r, spec.right_keys[0]),
            nkeys > 1 ? JoinKeyAt(*right, rk[1], r, spec.right_keys[1]) : 0};
    build[key].push_back(static_cast<uint32_t>(r));
  }
  std::vector<uint32_t> out_left;
  std::vector<uint32_t> out_right;
  for (size_t r = 0; r < left->num_rows(); ++r) {
    Key key{JoinKeyAt(*left, lk[0], r, spec.left_keys[0]),
            nkeys > 1 ? JoinKeyAt(*left, lk[1], r, spec.left_keys[1]) : 0};
    auto it = build.find(key);
    if (it == build.end()) {
      continue;
    }
    for (uint32_t rr : it->second) {
      out_left.push_back(static_cast<uint32_t>(r));
      out_right.push_back(rr);
    }
  }

  if (ctx.check && nkeys == 1) {
    std::vector<int64_t> probe_keys(left->num_rows());
    for (size_t r = 0; r < left->num_rows(); ++r) {
      probe_keys[r] = left->Int64At(r, lk[0]);
    }
    std::vector<int64_t> build_keys(right->num_rows());
    for (size_t r = 0; r < right->num_rows(); ++r) {
      build_keys[r] = right->Int64At(r, rk[0]);
    }
    db::CheckJoinMatchConservation(probe_keys, build_keys, out_left.size(),
                                   op);
  }

  // Output layout: left columns then right columns. Heap: share when
  // possible (same heap, or the only string columns live on one side);
  // otherwise concatenate both heaps and shift the right side's string
  // slots by the concatenation offset.
  std::vector<db::ColumnSpec> specs = left->schema().columns();
  for (const db::ColumnSpec& s : right->schema().columns()) {
    specs.push_back(s);
  }
  auto has_strings = [](const RowBlock& b) {
    for (const db::ColumnSpec& s : b.schema().columns()) {
      if (s.type == db::DataType::kString) {
        return true;
      }
    }
    return false;
  };
  bool left_strings = has_strings(*left);
  bool right_strings = has_strings(*right);
  std::shared_ptr<StringHeap> heap;
  uint32_t right_delta = 0;
  if (left->heap() == right->heap() || !right_strings) {
    heap = left->heap();
  } else if (!left_strings) {
    heap = right->heap();
  } else {
    heap = std::make_shared<StringHeap>();
    heap->AppendHeap(*left->heap());  // left slots keep offset 0.
    right_delta = heap->AppendHeap(*right->heap());
  }

  auto out = std::make_shared<RowBlock>(
      RowLayout::For(db::Schema(std::move(specs))), heap);
  out->ReserveRows(out_left.size());
  size_t lcols = left->schema().num_columns();
  size_t rcols = right->schema().num_columns();
  std::vector<uint8_t> right_is_string(rcols, 0);
  for (size_t c = 0; c < rcols; ++c) {
    right_is_string[c] =
        right->schema().column(c).type == db::DataType::kString ? 1 : 0;
  }
  for (size_t i = 0; i < out_left.size(); ++i) {
    uint32_t lr = out_left[i];
    uint32_t rr = out_right[i];
    uint8_t* row = out->AppendRow();
    for (size_t c = 0; c < lcols; ++c) {
      if (left->IsNull(lr, c)) {
        out->SetNull(row, c);
      } else {
        out->SetRawSlot(row, c, left->RawSlotAt(lr, c));
      }
    }
    for (size_t c = 0; c < rcols; ++c) {
      size_t oc = lcols + c;
      if (right->IsNull(rr, c)) {
        out->SetNull(row, oc);
      } else {
        uint64_t slot = right->RawSlotAt(rr, c);
        if (right_delta != 0 && right_is_string[c] != 0) {
          slot = StringHeap::ShiftSlot(slot, right_delta);
        }
        out->SetRawSlot(row, oc, slot);
      }
    }
  }
  return out;
}

RowBlockPtr ExecProject(const db::PlanSpec& spec, const RowBlockPtr& input,
                        RowExecCtx& ctx, RowTrace* trace) {
  size_t n = input->num_rows();
  size_t ncols = spec.exprs.size();
  std::vector<db::ColumnSpec> specs(ncols);
  for (size_t j = 0; j < ncols; ++j) {
    specs[j] = {spec.names[j], spec.exprs[j]->ResultType(input->schema())};
  }

  // Fast path: every output is a plain column reference — tuple
  // re-shaping by raw slot copy, string heap shared, parallel over
  // fixed-size row ranges into a presized block.
  std::vector<size_t> src_cols(ncols);
  bool all_refs = ctx.mode == db::ExecMode::kOptimized;
  for (size_t j = 0; all_refs && j < ncols; ++j) {
    all_refs = spec.exprs[j]->AsColumnIndex(&src_cols[j]);
  }
  if (all_refs) {
    auto out = std::make_shared<RowBlock>(
        RowLayout::For(db::Schema(std::move(specs))), input->heap());
    out->ResizeRows(n);
    size_t batch = ctx.batch_rows;
    size_t num_batches = n == 0 ? 0 : (n + batch - 1) / batch;
    auto copy_range = [&](size_t b) {
      size_t begin = b * batch;
      size_t end = std::min(n, begin + batch);
      for (size_t r = begin; r < end; ++r) {
        uint8_t* row = out->MutableRowPtr(r);
        for (size_t j = 0; j < ncols; ++j) {
          if (input->IsNull(r, src_cols[j])) {
            out->SetNull(row, j);
          } else {
            out->SetRawSlot(row, j, input->RawSlotAt(r, src_cols[j]));
          }
        }
      }
    };
    int threads_used = 1;
    if (ctx.threads > 1 && num_batches > 1) {
      sched::ParallelForStats stats;
      sched::ParallelFor(ctx.threads, num_batches, copy_range, &stats);
      threads_used = stats.workers_spawned;
    } else {
      for (size_t b = 0; b < num_batches; ++b) {
        copy_range(b);
      }
    }
    trace->set_rows_out(n);
    trace->set_threads_used(threads_used);
    return out;
  }

  // General path: batch-unpack, evaluate each expression tuple-at-a-time
  // (full engine semantics via db::Expr), re-intern computed strings into
  // a fresh heap.
  auto out = std::make_shared<RowBlock>(
      RowLayout::For(db::Schema(std::move(specs))));
  out->ReserveRows(n);
  size_t batch = ctx.batch_rows;
  for (size_t begin = 0; begin < n; begin += batch) {
    size_t end = std::min(n, begin + batch);
    db::Table scratch = UnpackBatch(*input, begin, end);
    for (size_t r = begin; r < end; ++r) {
      uint8_t* row = out->AppendRow();
      for (size_t j = 0; j < ncols; ++j) {
        out->SetValue(row, j, spec.exprs[j]->EvalRow(scratch, r - begin));
      }
    }
  }
  trace->set_rows_out(n);
  trace->set_threads_used(1);
  return out;
}

RowBlockPtr ExecAggregate(const db::PlanSpec& spec, const RowBlockPtr& input,
                          RowExecCtx& ctx, const char* op) {
  const db::Schema& schema = input->schema();
  std::vector<size_t> group_cols;
  for (const std::string& name : spec.group_by) {
    group_cols.push_back(schema.MustIndexOf(name));
  }
  const std::vector<db::AggSpec>& aggregates = spec.aggregates;
  std::vector<uint8_t> int_agg(aggregates.size(), 0);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    int_agg[a] = db::UsesIntAccumulator(aggregates[a], schema) ? 1 : 0;
  }

  // One serial pass in row order (batched unpack for expression input):
  // groups appear in first-occurrence order, doubles accumulate in flat
  // input order — matching the reference interpreter exactly; the 1e-9
  // diff tolerance absorbs the columnar engine's morsel-order float
  // reassociation.
  std::unordered_map<std::string, size_t> group_index;
  std::vector<uint32_t> first_rows;
  std::vector<std::vector<db::AggState>> states(aggregates.size());
  size_t n = input->num_rows();
  size_t batch = ctx.batch_rows;
  std::string key;
  for (size_t begin = 0; begin < n; begin += batch) {
    size_t end = std::min(n, begin + batch);
    db::Table scratch = UnpackBatch(*input, begin, end);
    for (size_t r = begin; r < end; ++r) {
      size_t sr = r - begin;
      key.clear();
      db::AppendGroupKey(scratch, group_cols, static_cast<uint32_t>(sr),
                         &key);
      auto [it, inserted] = group_index.try_emplace(key, group_index.size());
      if (inserted) {
        first_rows.push_back(static_cast<uint32_t>(r));
        for (size_t a = 0; a < aggregates.size(); ++a) {
          states[a].emplace_back();
        }
      }
      size_t g = it->second;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const db::AggSpec& as = aggregates[a];
        db::AggState& state = states[a][g];
        if (as.op == db::AggOp::kCount && as.expr == nullptr) {
          ++state.count;
          continue;
        }
        db::Value v = as.expr->EvalRow(scratch, sr);
        if (v.is_null()) {
          continue;  // SQL aggregates skip NULL inputs.
        }
        if (as.op == db::AggOp::kCount) {
          ++state.count;
        } else if (as.op == db::AggOp::kCountDistinct) {
          state.distinct.insert(v.ToString());
        } else if (int_agg[a] != 0) {
          state.AddInt(v.AsInt64());
        } else {
          state.AddNumeric(v.AsDouble());
        }
      }
    }
  }
  if (group_cols.empty() && first_rows.empty()) {
    first_rows.push_back(0);  // Global aggregate over zero rows.
    for (size_t a = 0; a < aggregates.size(); ++a) {
      states[a].emplace_back();
    }
  }
  if (ctx.check) {
    // First-occurrence order implies strictly increasing representative
    // rows; a violation means the grouping pass reordered input.
    db::CheckSelectionStrictlyIncreasing(first_rows, op);
  }

  std::vector<db::ColumnSpec> specs;
  for (size_t c : group_cols) {
    specs.push_back(schema.column(c));
  }
  for (const db::AggSpec& as : aggregates) {
    specs.push_back({as.output_name, db::AggOutputType(as, schema)});
  }
  // Group-key strings are raw slot copies out of the input block, so the
  // output shares its heap; aggregate outputs are always numeric.
  auto out = std::make_shared<RowBlock>(
      RowLayout::For(db::Schema(std::move(specs))), input->heap());
  size_t emitted = group_cols.empty() ? 1 : first_rows.size();
  out->ReserveRows(emitted);
  for (size_t g = 0; g < emitted; ++g) {
    uint8_t* row = out->AppendRow();
    for (size_t gc = 0; gc < group_cols.size(); ++gc) {
      if (input->IsNull(first_rows[g], group_cols[gc])) {
        out->SetNull(row, gc);
      } else {
        out->SetRawSlot(row, gc,
                        input->RawSlotAt(first_rows[g], group_cols[gc]));
      }
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      db::AggResult v =
          states[a][g].Result(aggregates[a].op, int_agg[a] != 0);
      size_t oc = group_cols.size() + a;
      switch (v.kind) {
        case db::AggResult::Kind::kNull:
          out->SetNull(row, oc);
          break;
        case db::AggResult::Kind::kInt64:
          out->SetInt64(row, oc, v.i);
          break;
        case db::AggResult::Kind::kDouble:
          out->SetDouble(row, oc, v.d);
          break;
      }
    }
  }
  return out;
}

/// Typed comparator over packed rows, ordering by db/semantics.h's
/// CompareNulls / CompareKeys — the rules db::RowComparator uses.
class BlockComparator {
 public:
  BlockComparator(const RowBlock& block, const std::vector<db::SortKey>& keys)
      : block_(block) {
    for (const db::SortKey& spec : keys) {
      Key key;
      key.col = block.schema().MustIndexOf(spec.column);
      key.type = block.schema().column(key.col).type;
      key.ascending = spec.ascending;
      keys_.push_back(key);
    }
  }

  bool operator()(uint32_t a, uint32_t b) const {
    for (const Key& key : keys_) {
      int c = CompareOne(key, a, b);
      if (c != 0) {
        return key.ascending ? c < 0 : c > 0;
      }
    }
    return false;
  }

 private:
  struct Key {
    size_t col = 0;
    db::DataType type = db::DataType::kInt64;
    bool ascending = true;
  };

  int CompareOne(const Key& key, uint32_t a, uint32_t b) const {
    bool a_null = block_.IsNull(a, key.col);
    bool b_null = block_.IsNull(b, key.col);
    if (a_null || b_null) {
      return db::CompareNulls(a_null, b_null);
    }
    switch (key.type) {
      case db::DataType::kInt64:
      case db::DataType::kDate:
        return db::CompareKeys(block_.Int64At(a, key.col),
                               block_.Int64At(b, key.col));
      case db::DataType::kDouble:
        return db::CompareKeys(block_.DoubleAt(a, key.col),
                               block_.DoubleAt(b, key.col));
      case db::DataType::kString:
        return db::CompareKeys(block_.StringAt(a, key.col),
                               block_.StringAt(b, key.col));
    }
    return 0;
  }

  const RowBlock& block_;
  std::vector<Key> keys_;
};

RowBlockPtr GatherRows(const RowBlock& input,
                       const std::vector<uint32_t>& rows) {
  auto out = std::make_shared<RowBlock>(input.layout(), input.heap());
  out->ReserveRows(rows.size());
  for (uint32_t r : rows) {
    out->AppendRowCopy(input, r);
  }
  return out;
}

RowBlockPtr ExecSort(const db::PlanSpec& spec, const RowBlockPtr& input,
                     RowExecCtx& ctx, bool top_n, const char* op) {
  std::vector<uint32_t> rows(input->num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(i);
  }
  BlockComparator less(*input, spec.sort_keys);
  std::stable_sort(rows.begin(), rows.end(), less);
  if (ctx.check) {
    std::vector<uint32_t> identity(input->num_rows());
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<uint32_t>(i);
    }
    db::CheckPermutation(identity, rows, op);
  }
  if (top_n && rows.size() > spec.limit) {
    rows.resize(spec.limit);
  }
  return GatherRows(*input, rows);
}

RowBlockPtr ExecNode(const db::PlanNode& node, RowExecCtx& ctx) {
  db::PlanSpec spec = node.Spec();
  std::vector<const db::PlanNode*> children = node.Children();
  switch (spec.kind) {
    case db::PlanKind::kScan: {
      const CatalogView& entry = LookupTable(ctx, spec.table_name);
      RowTrace trace(ctx, "Scan(" + spec.table_name + ")",
                     entry.block->num_rows());
      // A row scan reads whole tuples: every page of the table is
      // touched no matter which columns the query wants — the layout's
      // defining I/O cost, charged in row order from the coordinator.
      ctx.io += ctx.pager->TouchRows(entry.table_id, 0,
                                     entry.block->num_rows());
      trace.set_rows_out(entry.block->num_rows());
      return entry.block;
    }
    case db::PlanKind::kFilterScan: {
      const CatalogView& entry = LookupTable(ctx, spec.table_name);
      RowTrace trace(ctx, "FilterScan(" + spec.table_name + ")",
                     entry.block->num_rows());
      ctx.io += ctx.pager->TouchRows(entry.table_id, 0,
                                     entry.block->num_rows());
      return FilterBlock(*entry.block, *spec.predicate, ctx, &trace,
                         "FilterScan");
    }
    case db::PlanKind::kFilter: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "Filter", input->num_rows());
      return FilterBlock(*input, *spec.predicate, ctx, &trace, "Filter");
    }
    case db::PlanKind::kProject: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "Project", input->num_rows());
      return ExecProject(spec, input, ctx, &trace);
    }
    case db::PlanKind::kHashJoin:
    case db::PlanKind::kMergeJoin: {
      RowBlockPtr left = ExecNode(*children[0], ctx);
      RowBlockPtr right = ExecNode(*children[1], ctx);
      bool hash = spec.kind == db::PlanKind::kHashJoin;
      std::string name =
          std::string(hash ? "HashJoin(" : "MergeJoin(") +
          spec.left_keys[0] + "=" + spec.right_keys[0] + ")";
      RowTrace trace(ctx, std::move(name),
                     left->num_rows() + right->num_rows());
      RowBlockPtr out = ExecJoin(spec, left, right, ctx,
                                 hash ? "HashJoin" : "MergeJoin");
      trace.set_rows_out(out->num_rows());
      return out;
    }
    case db::PlanKind::kAggregate: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "Aggregate", input->num_rows());
      RowBlockPtr out = ExecAggregate(spec, input, ctx, "Aggregate");
      trace.set_rows_out(out->num_rows());
      return out;
    }
    case db::PlanKind::kSort: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "Sort", input->num_rows());
      RowBlockPtr out = ExecSort(spec, input, ctx, /*top_n=*/false, "Sort");
      trace.set_rows_out(out->num_rows());
      return out;
    }
    case db::PlanKind::kTopN: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "TopN", input->num_rows());
      RowBlockPtr out = ExecSort(spec, input, ctx, /*top_n=*/true, "TopN");
      trace.set_rows_out(out->num_rows());
      return out;
    }
    case db::PlanKind::kLimit: {
      RowBlockPtr input = ExecNode(*children[0], ctx);
      RowTrace trace(ctx, "Limit", input->num_rows());
      std::vector<uint32_t> rows;
      size_t keep = std::min(input->num_rows(), spec.limit);
      rows.reserve(keep);
      for (size_t r = 0; r < keep; ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      RowBlockPtr out = GatherRows(*input, rows);
      trace.set_rows_out(out->num_rows());
      return out;
    }
  }
  throw db::QueryError(StatusCode::kInternal, "unknown plan kind");
}

}  // namespace

RowStoreBackend::RowStoreBackend(Options options)
    : options_(options),
      pager_(std::make_unique<RowPager>(options.disk,
                                        options.buffer_pool_pages,
                                        options.rows_per_page)) {
  PERFEVAL_CHECK_GT(options_.batch_rows, 0u);
}

std::unique_ptr<RowStoreBackend> RowStoreBackend::Over(
    db::Database* database) {
  Options options;
  options.disk = database->options().disk;
  options.buffer_pool_pages = database->options().buffer_pool_pages;
  options.rows_per_page = database->options().rows_per_page;
  auto backend = std::make_unique<RowStoreBackend>(options);
  backend->SyncFrom(database);
  return backend;
}

void RowStoreBackend::RegisterTable(const std::string& name,
                                    std::shared_ptr<db::Table> table) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  PERFEVAL_CHECK(tables_.find(name) == tables_.end())
      << "duplicate table " << name;
  CatalogEntry entry;
  entry.block = std::make_shared<RowBlock>(PackTable(*table));
  entry.source = std::move(table);
  entry.table_id = next_table_id_++;
  pager_->RegisterTable(entry.table_id, *entry.block);
  tables_[name] = std::move(entry);
}

void RowStoreBackend::SyncFrom(db::Database* database) {
  database->Refresh();
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  for (const std::string& name : database->TableNames()) {
    std::shared_ptr<const db::Table> source = database->GetTableShared(name);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      CatalogEntry entry;
      entry.block = std::make_shared<RowBlock>(PackTable(*source));
      entry.source = std::move(source);
      entry.table_id = next_table_id_++;
      pager_->RegisterTable(entry.table_id, *entry.block);
      tables_[name] = std::move(entry);
    } else if (it->second.source != source) {
      // The write path installed a new snapshot: re-pack; the new block's
      // pages are cold, as after Database::ReplaceTables.
      it->second.block = std::make_shared<RowBlock>(PackTable(*source));
      it->second.source = std::move(source);
      pager_->ReplaceTable(it->second.table_id, *it->second.block);
    }
  }
}

BackendResult RowStoreBackend::Execute(const db::PlanPtr& plan,
                                       const ExecOptions& options) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::unordered_map<std::string, CatalogView> catalog;
  catalog.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    catalog[name] = CatalogView{entry.block, entry.table_id};
  }

  BackendResult result;
  RowExecCtx ctx;
  ctx.mode = options.mode;
  ctx.threads = options.threads < 1 ? 1 : options.threads;
  ctx.check = options.check;
  ctx.batch_rows = options_.batch_rows;
  ctx.profiler = &result.profile;
  ctx.pager = pager_.get();
  ctx.catalog = &catalog;

  Clock::time_point start = Clock::now();
  RowBlockPtr out = ExecNode(*plan, ctx);
  result.server_wall_ns = NsSince(start);
  result.storage = ctx.io;
  result.stall_ns = ctx.io.stall_ns;

  Clock::time_point finish_start = Clock::now();
  result.table = UnpackToTable(*out);
  result.finish_ns = NsSince(finish_start);
  return result;
}

RowBlockPtr RowStoreBackend::GetBlock(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  PERFEVAL_CHECK(it != tables_.end()) << "unknown table " << name;
  return it->second.block;
}

uint32_t RowStoreBackend::TableId(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  PERFEVAL_CHECK(it != tables_.end()) << "unknown table " << name;
  return it->second.table_id;
}

}  // namespace engine
}  // namespace perfeval
