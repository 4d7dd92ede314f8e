#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace perfeval {
namespace opt {

namespace {

using db::PlanKind;
using db::PlanPtr;

bool IsJoin(PlanKind kind) { return kind == PlanKind::kHashJoin; }

/// One equality between two columns: a candidate join edge.
struct KeyPair {
  std::string left;
  std::string right;
};

/// A join-graph edge between two region leaves. 1 key pair normally; 2
/// when it came from a composite-key join, whose 31-bit key
/// packing the original plan already proved safe.
struct Edge {
  size_t a = 0;
  size_t b = 0;  ///< pairs[*].left lives in leaf a, .right in leaf b.
  std::vector<KeyPair> pairs;
};

/// A maximal region of equi-join operators: its leaf subtrees (anything
/// that is not a join or an absorbable column-equality filter) and the
/// raw key-name equalities connecting them.
struct Region {
  std::vector<PlanPtr> leaves;
  std::vector<std::vector<KeyPair>> raw_edges;  ///< unresolved, by name.
  bool ok = true;
};

class Rewriter {
 public:
  Rewriter(const db::Database& database, const CostModel& model)
      : stats_(database),
        estimator_(stats_, model, database.options().join_algo),
        model_(model) {}

  PlanPtr Rewrite(const PlanPtr& node);

  int regions = 0;
  int reordered = 0;

 private:
  void Gather(const PlanPtr& node, Region* region);
  PlanPtr OptimizeRegion(const PlanPtr& root);

  StatsCatalog stats_;
  CardinalityEstimator estimator_;
  CostModel model_;
};

/// Rebuilds a non-join node around new children via the public factories.
/// Safe because every rewritten child keeps its original output schema,
/// so the node's index-bound expressions still resolve.
PlanPtr RebuildNode(const PlanPtr& node, std::vector<PlanPtr> kids) {
  db::PlanSpec spec = node->Spec();
  switch (spec.kind) {
    case PlanKind::kScan:
    case PlanKind::kFilterScan:
      return node;
    case PlanKind::kFilter:
      return db::Filter(std::move(kids[0]), spec.predicate);
    case PlanKind::kProject:
      return db::Project(std::move(kids[0]), spec.exprs, spec.names);
    case PlanKind::kAggregate:
      return db::Aggregate(std::move(kids[0]), spec.group_by,
                           spec.aggregates);
    case PlanKind::kSort:
      return db::Sort(std::move(kids[0]), spec.sort_keys);
    case PlanKind::kLimit:
      return db::Limit(std::move(kids[0]), spec.limit);
    case PlanKind::kTopN:
      return db::TopN(std::move(kids[0]), spec.sort_keys, spec.limit);
    case PlanKind::kHashJoin:
      PERFEVAL_CHECK(false) << "joins are handled by OptimizeRegion";
  }
  return node;
}

int PopCount(size_t mask) {
  int count = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++count;
  }
  return count;
}

}  // namespace

PlanPtr Rewriter::Rewrite(const PlanPtr& node) {
  if (IsJoin(node->Spec().kind)) {
    return OptimizeRegion(node);
  }
  std::vector<PlanPtr> kids = node->SharedChildren();
  bool kid_changed = false;
  for (PlanPtr& kid : kids) {
    PlanPtr rewritten = Rewrite(kid);
    kid_changed |= rewritten != kid;
    kid = std::move(rewritten);
  }
  if (!kid_changed) {
    return node;
  }
  return RebuildNode(node, std::move(kids));
}

void Rewriter::Gather(const PlanPtr& node, Region* region) {
  db::PlanSpec spec = node->Spec();
  if (IsJoin(spec.kind)) {
    std::vector<PlanPtr> kids = node->SharedChildren();
    Gather(kids[0], region);
    Gather(kids[1], region);
    std::vector<KeyPair> pairs;
    for (size_t k = 0; k < spec.left_keys.size(); ++k) {
      pairs.push_back({spec.left_keys[k], spec.right_keys[k]});
    }
    region->raw_edges.push_back(std::move(pairs));
    return;
  }
  if (spec.kind == PlanKind::kFilter && spec.predicate != nullptr) {
    // Absorb the filter when every conjunct is a column=column equality —
    // those are join edges written as filters (Q5's c_nationkey =
    // s_nationkey). Anything else bounds the region here: rebinding an
    // arbitrary predicate across a reorder is not safely possible, since
    // its expressions hold column indices of this exact subtree schema.
    std::vector<db::ExprPtr> conjuncts;
    spec.predicate->CollectConjuncts(&conjuncts, spec.predicate);
    std::vector<std::pair<size_t, size_t>> equalities;
    bool all_equalities = !conjuncts.empty();
    for (const db::ExprPtr& conjunct : conjuncts) {
      size_t left = 0;
      size_t right = 0;
      if (conjunct->AsColumnEquality(&left, &right)) {
        equalities.emplace_back(left, right);
      } else {
        all_equalities = false;
        break;
      }
    }
    if (all_equalities) {
      std::vector<PlanPtr> kids = node->SharedChildren();
      const db::Schema& child_schema = kids[0]->schema();
      bool indices_ok = true;
      for (const auto& [left, right] : equalities) {
        indices_ok &= left < child_schema.num_columns() &&
                      right < child_schema.num_columns();
      }
      if (indices_ok) {
        Gather(kids[0], region);
        for (const auto& [left, right] : equalities) {
          region->raw_edges.push_back(
              {{child_schema.column(left).name,
                child_schema.column(right).name}});
        }
        return;
      }
    }
  }
  region->leaves.push_back(node);
}

PlanPtr Rewriter::OptimizeRegion(const PlanPtr& root) {
  ++regions;
  Region region;
  Gather(root, &region);
  size_t n = region.leaves.size();
  if (n < 2 || n > kMaxDpLeaves) {
    return root;
  }

  // Leaf estimates and the column-name -> leaf map. Bail (keep the
  // rule-only shape) on any duplicate name across leaves: rebinding by
  // name would be ambiguous.
  std::vector<double> leaf_rows(n);
  std::unordered_map<std::string, size_t> leaf_of;
  for (size_t i = 0; i < n; ++i) {
    leaf_rows[i] =
        std::max(estimator_.EstimateRows(*region.leaves[i]), 1.0);
    for (const db::ColumnSpec& spec : region.leaves[i]->schema().columns()) {
      auto [it, inserted] = leaf_of.try_emplace(spec.name, i);
      if (!inserted) {
        return root;
      }
    }
  }

  // Resolve raw edges to leaf pairs. A multi-pair (composite) edge stays
  // composite only when both pairs connect the same two leaves in the
  // same orientation; otherwise each pair becomes its own edge. A pair
  // whose two columns live in one leaf is a local predicate, re-applied
  // as a residual filter at the top of the region.
  std::vector<Edge> edges;
  std::vector<KeyPair> residual_pairs;
  for (const std::vector<KeyPair>& pairs : region.raw_edges) {
    std::vector<Edge> resolved;
    bool ok = true;
    for (const KeyPair& pair : pairs) {
      auto left_it = leaf_of.find(pair.left);
      auto right_it = leaf_of.find(pair.right);
      if (left_it == leaf_of.end() || right_it == leaf_of.end()) {
        ok = false;
        break;
      }
      if (left_it->second == right_it->second) {
        residual_pairs.push_back(pair);
        continue;
      }
      Edge edge;
      edge.a = left_it->second;
      edge.b = right_it->second;
      edge.pairs = {pair};
      resolved.push_back(std::move(edge));
    }
    if (!ok) {
      return root;
    }
    if (resolved.size() == 2 && resolved[0].a == resolved[1].a &&
        resolved[0].b == resolved[1].b) {
      resolved[0].pairs.push_back(resolved[1].pairs[0]);
      resolved.pop_back();
    }
    for (Edge& edge : resolved) {
      edges.push_back(std::move(edge));
    }
  }
  if (edges.empty()) {
    return root;
  }

  size_t full = (size_t{1} << n) - 1;

  // Connectivity of every leaf subset under the join graph.
  std::vector<char> connected(full + 1, 0);
  for (size_t mask = 1; mask <= full; ++mask) {
    size_t seed = mask & (~mask + 1);  // lowest set bit.
    size_t reach = seed;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Edge& edge : edges) {
        size_t abit = size_t{1} << edge.a;
        size_t bbit = size_t{1} << edge.b;
        if ((mask & abit) == 0 || (mask & bbit) == 0) {
          continue;
        }
        if ((reach & abit) != 0 && (reach & bbit) == 0) {
          reach |= bbit;
          grew = true;
        } else if ((reach & bbit) != 0 && (reach & abit) == 0) {
          reach |= abit;
          grew = true;
        }
      }
    }
    connected[mask] = reach == mask ? 1 : 0;
  }
  if (!connected[full]) {
    // Cross product required: fall back to the written plan shape.
    return root;
  }

  // Estimated cardinality of every subset: the product of its leaf
  // cardinalities discounted by 1/max(ndv) once per internal edge pair.
  std::vector<double> card(full + 1, 1.0);
  for (size_t mask = 1; mask <= full; ++mask) {
    double rows = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        rows *= leaf_rows[i];
      }
    }
    for (const Edge& edge : edges) {
      if (((mask >> edge.a) & 1) && ((mask >> edge.b) & 1)) {
        for (const KeyPair& pair : edge.pairs) {
          rows *= estimator_.JoinSelectivity(pair.left, leaf_rows[edge.a],
                                             pair.right,
                                             leaf_rows[edge.b]);
        }
      }
    }
    card[mask] = std::max(rows, 1.0);
  }

  // DP over connected subgraphs. For each subset: the cheapest split
  // into two connected halves bridged by at least one edge, trying every
  // join algorithm; the probe (outer) side is the left half. Fixed
  // enumeration order + strict improvement = deterministic plans.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const db::JoinAlgo kAlgos[] = {db::JoinAlgo::kHash, db::JoinAlgo::kRadix,
                                 db::JoinAlgo::kMerge};
  std::vector<double> best_cost(full + 1, kInf);
  std::vector<size_t> best_split(full + 1, 0);
  std::vector<int> best_edge(full + 1, -1);
  std::vector<db::JoinAlgo> best_algo(full + 1, db::JoinAlgo::kHash);
  for (size_t i = 0; i < n; ++i) {
    best_cost[size_t{1} << i] = 0.0;
  }
  for (size_t mask = 1; mask <= full; ++mask) {
    if (PopCount(mask) < 2 || !connected[mask]) {
      continue;
    }
    for (size_t left = (mask - 1) & mask; left != 0;
         left = (left - 1) & mask) {
      size_t right = mask ^ left;
      if (!connected[left] || !connected[right] ||
          best_cost[left] == kInf || best_cost[right] == kInf) {
        continue;
      }
      // First edge bridging the halves becomes the join key; the rest
      // are residual equality filters over the join output.
      int join_edge = -1;
      int extra_edges = 0;
      for (size_t e = 0; e < edges.size(); ++e) {
        size_t abit = size_t{1} << edges[e].a;
        size_t bbit = size_t{1} << edges[e].b;
        bool crosses = ((left & abit) != 0 && (right & bbit) != 0) ||
                       ((left & bbit) != 0 && (right & abit) != 0);
        if (!crosses) {
          continue;
        }
        if (join_edge < 0) {
          join_edge = static_cast<int>(e);
        } else {
          ++extra_edges;
        }
      }
      if (join_edge < 0) {
        continue;
      }
      double base = best_cost[left] + best_cost[right] +
                    static_cast<double>(extra_edges) * card[mask] *
                        model_.cpu_term_ns;
      for (db::JoinAlgo algo : kAlgos) {
        double cost = base + model_.JoinCost(algo, card[left], card[right],
                                             card[mask]);
        if (cost < best_cost[mask]) {
          best_cost[mask] = cost;
          best_split[mask] = left;
          best_edge[mask] = join_edge;
          best_algo[mask] = algo;
        }
      }
    }
  }
  if (best_cost[full] == kInf) {
    return root;
  }

  // Emit the chosen tree. Leaves are recursively rewritten (regions
  // below an aggregate or project boundary optimize independently).
  std::function<PlanPtr(size_t)> emit = [&](size_t mask) -> PlanPtr {
    if (PopCount(mask) == 1) {
      size_t i = 0;
      while (((mask >> i) & 1) == 0) {
        ++i;
      }
      return Rewrite(region.leaves[i]);
    }
    size_t left_mask = best_split[mask];
    size_t right_mask = mask ^ left_mask;
    PlanPtr left = emit(left_mask);
    PlanPtr right = emit(right_mask);
    const Edge& edge = edges[static_cast<size_t>(best_edge[mask])];
    bool a_is_left = ((left_mask >> edge.a) & 1) != 0;
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    for (const KeyPair& pair : edge.pairs) {
      left_keys.push_back(a_is_left ? pair.left : pair.right);
      right_keys.push_back(a_is_left ? pair.right : pair.left);
    }
    PlanPtr plan =
        db::HashJoinWith(std::move(left), std::move(right),
                         std::move(left_keys), std::move(right_keys),
                         best_algo[mask]);
    // Any other edge bridging the halves is applied as an equality
    // filter right here, so subset cardinalities stay consistent.
    for (size_t e = 0; e < edges.size(); ++e) {
      if (static_cast<int>(e) == best_edge[mask]) {
        continue;
      }
      size_t abit = size_t{1} << edges[e].a;
      size_t bbit = size_t{1} << edges[e].b;
      bool crosses =
          ((left_mask & abit) != 0 && (right_mask & bbit) != 0) ||
          ((left_mask & bbit) != 0 && (right_mask & abit) != 0);
      if (!crosses) {
        continue;
      }
      for (const KeyPair& pair : edges[e].pairs) {
        const db::Schema& joined = plan->schema();
        plan = db::Filter(plan, db::Eq(db::Col(joined, pair.left),
                                       db::Col(joined, pair.right)));
      }
    }
    return plan;
  };
  PlanPtr plan = emit(full);

  // Local (single-leaf) equalities absorbed from filters re-apply on top.
  for (const KeyPair& pair : residual_pairs) {
    const db::Schema& emitted = plan->schema();
    plan = db::Filter(plan, db::Eq(db::Col(emitted, pair.left),
                                   db::Col(emitted, pair.right)));
  }

  // Restore the original column order when the reorder changed it, so
  // every downstream index-bound expression still resolves correctly.
  const db::Schema& original = root->schema();
  if (original != plan->schema()) {
    ++reordered;
    std::vector<db::ExprPtr> exprs;
    std::vector<std::string> names;
    for (const db::ColumnSpec& spec : original.columns()) {
      exprs.push_back(db::Col(plan->schema(), spec.name));
      names.push_back(spec.name);
    }
    plan = db::Project(plan, std::move(exprs), std::move(names));
  }
  return plan;
}

OptimizeResult OptimizeWith(const PlanPtr& plan,
                            const db::Database& database,
                            const CostModel& model) {
  Rewriter rewriter(database, model);
  OptimizeResult result;
  result.plan = rewriter.Rewrite(plan);
  result.regions = rewriter.regions;
  result.reordered = rewriter.reordered;
  result.changed = result.plan != plan;
  return result;
}

OptimizeResult Optimize(const db::PlanPtr& plan,
                        const db::Database& database) {
  return OptimizeWith(plan, database, CostModel::Default());
}

}  // namespace opt
}  // namespace perfeval
