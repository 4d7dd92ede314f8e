#include "db/partial_agg.h"

#include <utility>

#include "common/check.h"
#include "db/expr.h"
#include "db/semantics.h"

namespace perfeval {
namespace db {
namespace {

std::string PartialName(size_t i, const char* suffix) {
  return "__p" + std::to_string(i) + "_" + suffix;
}

}  // namespace

bool SplitAggregates(const std::vector<std::string>& group_by,
                     const std::vector<AggSpec>& aggregates,
                     const Schema& input_schema, AggSplit* out) {
  PERFEVAL_CHECK(out != nullptr);
  for (const AggSpec& spec : aggregates) {
    if (spec.op == AggOp::kCountDistinct) {
      return false;  // needs the raw value sets; caller gathers rows.
    }
  }

  AggSplit split;
  std::vector<ColumnSpec> partial_cols;
  for (const std::string& name : group_by) {
    partial_cols.push_back(
        input_schema.column(input_schema.MustIndexOf(name)));
  }

  // Step 1: the shard-side partial aggregates and their output schema.
  struct MergePlan {
    AggFinalizeStep::Kind kind = AggFinalizeStep::Kind::kPassThrough;
    size_t first = 0;   ///< index into split.partial.
    size_t second = 0;  ///< kAvgDivide: the COUNT partial's index.
  };
  std::vector<MergePlan> plans;
  plans.reserve(aggregates.size());
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggSpec& spec = aggregates[i];
    MergePlan plan;
    switch (spec.op) {
      case AggOp::kSum:
        plan.first = split.partial.size();
        split.partial.push_back(
            {AggOp::kSum, spec.expr, PartialName(i, "sum")});
        break;
      case AggOp::kCount:
        plan.first = split.partial.size();
        split.partial.push_back(
            {AggOp::kCount, spec.expr, PartialName(i, "cnt")});
        break;
      case AggOp::kMin:
        plan.first = split.partial.size();
        split.partial.push_back(
            {AggOp::kMin, spec.expr, PartialName(i, "min")});
        break;
      case AggOp::kMax:
        plan.first = split.partial.size();
        split.partial.push_back(
            {AggOp::kMax, spec.expr, PartialName(i, "max")});
        break;
      case AggOp::kAvg:
        plan.kind = AggFinalizeStep::Kind::kAvgDivide;
        plan.first = split.partial.size();
        split.partial.push_back(
            {AggOp::kSum, spec.expr, PartialName(i, "sum")});
        plan.second = split.partial.size();
        split.partial.push_back(
            {AggOp::kCount, spec.expr, PartialName(i, "cnt")});
        break;
      case AggOp::kCountDistinct:
        PERFEVAL_CHECK(false);  // rejected above.
    }
    plans.push_back(plan);
  }
  for (const AggSpec& p : split.partial) {
    partial_cols.push_back({p.output_name, AggOutputType(p, input_schema)});
  }
  split.partial_schema = Schema(std::move(partial_cols));

  // Step 2: the merge aggregates — one per partial column, same names, in
  // partial order, so merged column i+|group_by| re-aggregates partial
  // column i+|group_by|. SUMs and COUNTs re-add (COUNT partials are int64
  // and never NULL, so they take the exact checked-int SUM path); MIN/MAX
  // fold with themselves.
  for (const AggSpec& p : split.partial) {
    AggOp merge_op = p.op == AggOp::kMin   ? AggOp::kMin
                     : p.op == AggOp::kMax ? AggOp::kMax
                                           : AggOp::kSum;
    split.merge.push_back(
        {merge_op, Col(split.partial_schema, p.output_name), p.output_name});
  }

  // Step 3: finalize — the projection back to the original output columns.
  for (size_t i = 0; i < aggregates.size(); ++i) {
    AggFinalizeStep step;
    step.kind = plans[i].kind;
    step.input_index = group_by.size() + plans[i].first;
    step.count_index = group_by.size() + plans[i].second;
    step.output_name = aggregates[i].output_name;
    step.output_type = AggOutputType(aggregates[i], input_schema);
    split.finalize.push_back(std::move(step));
  }

  *out = std::move(split);
  return true;
}

std::shared_ptr<Table> FinalizeMergedAggregates(
    const Table& merged, size_t num_group_cols,
    const std::vector<AggFinalizeStep>& finalize) {
  std::vector<ColumnSpec> specs;
  for (size_t c = 0; c < num_group_cols; ++c) {
    specs.push_back(merged.schema().column(c));
  }
  for (const AggFinalizeStep& step : finalize) {
    specs.push_back({step.output_name, step.output_type});
  }
  auto out = std::make_shared<Table>(Schema(std::move(specs)));
  out->ReserveRows(merged.num_rows());
  for (size_t r = 0; r < merged.num_rows(); ++r) {
    for (size_t c = 0; c < num_group_cols; ++c) {
      out->column(c).AppendValue(merged.column(c).GetValue(r));
    }
    for (size_t s = 0; s < finalize.size(); ++s) {
      const AggFinalizeStep& step = finalize[s];
      Column& dst = out->column(num_group_cols + s);
      const Column& src = merged.column(step.input_index);
      if (step.kind == AggFinalizeStep::Kind::kPassThrough) {
        dst.AppendValue(src.GetValue(r));
        continue;
      }
      // AVG = merged SUM / merged COUNT through AggState::Result, the
      // rule AggregateNode emits with: the int64 path divides the exact
      // integer sum, so it is bit-identical to single-node; the double
      // path re-adds per-shard sums, which the comparison discipline
      // covers with its relative tolerance.
      AggState state;
      state.count = merged.column(step.count_index).GetInt64(r);
      bool is_int = src.type() == DataType::kInt64;
      if (state.count > 0) {
        PERFEVAL_CHECK(!src.IsNull(r));
        if (is_int) {
          state.isum = src.GetInt64(r);
        } else {
          state.sum = src.GetDouble(r);
        }
      }
      AggResult avg = state.Result(AggOp::kAvg, is_int);
      if (avg.kind == AggResult::Kind::kNull) {
        dst.AppendNull();
      } else {
        dst.AppendDouble(avg.d);
      }
    }
  }
  out->FinishBulkLoad();
  return out;
}

}  // namespace db
}  // namespace perfeval
