#ifndef PERFEVAL_OPT_OPTIMIZER_H_
#define PERFEVAL_OPT_OPTIMIZER_H_

#include "db/database.h"
#include "db/plan.h"
#include "opt/cost_model.h"
#include "opt/estimator.h"

namespace perfeval {
namespace opt {

/// Outcome of one plan optimization pass.
struct OptimizeResult {
  db::PlanPtr plan;    ///< the optimized plan (== input when untouched).
  int regions = 0;     ///< join regions examined.
  int reordered = 0;   ///< regions whose join order changed.
  bool changed = false;
};

/// Cost-based plan rewrite: finds every maximal region of equi-join nodes
/// (absorbing column-equality filters between them as join edges), derives
/// the join graph, and replaces the region with the cheapest join tree
/// found by dynamic programming over connected subgraphs — picking both
/// the join order and a physical algorithm (hash/radix/merge) per
/// join from the CostModel and the TableStats-based cardinality estimates.
///
/// Semantics are preserved exactly:
///  - only inner equi-joins and conjunctive column-equality filters are
///    rearranged; any other operator bounds the region and becomes a leaf
///    (recursively optimized on its own);
///  - a reordered region is capped with a Project restoring the original
///    column order, so every downstream index-bound expression sees the
///    schema it was compiled against;
///  - join-graph edges that the chosen tree does not consume as join keys
///    are re-applied as equality filters on top of the region;
///  - regions with cross products (disconnected join graphs), ambiguous
///    column names, or more than kMaxDpLeaves leaves are left untouched
///    (the rule-only shape is the fallback plan).
///
/// Determinism: enumeration visits subsets, splits, and algorithms in a
/// fixed order with strict-improvement tie-breaking, and every estimate is
/// a pure function of the statistics snapshot — the same database state
/// always yields the same plan, at any thread or shard count.
OptimizeResult Optimize(const db::PlanPtr& plan,
                        const db::Database& database);

/// As Optimize, with an explicit cost model (A11 uses this to study
/// calibrated vs default constants).
OptimizeResult OptimizeWith(const db::PlanPtr& plan,
                            const db::Database& database,
                            const CostModel& model);

/// DP size cap: regions with more leaves than this are left untouched
/// (TPC-H tops out at 8).
inline constexpr size_t kMaxDpLeaves = 12;

}  // namespace opt
}  // namespace perfeval

#endif  // PERFEVAL_OPT_OPTIMIZER_H_
