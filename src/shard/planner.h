#ifndef PERFEVAL_SHARD_PLANNER_H_
#define PERFEVAL_SHARD_PLANNER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "db/partial_agg.h"
#include "db/plan.h"
#include "db/table.h"
#include "shard/partition.h"

namespace perfeval {
namespace shard {

/// Where a plan node's output lives in a sharded deployment.
enum class Site {
  kReplicated,   ///< identical on every shard — computable on any one.
  kPartitioned,  ///< a disjoint slice per shard; union == single-node.
  kCoordinator,  ///< only the coordinator can produce it.
};

const char* SiteName(Site site);

/// One node's placement annotation: its site and which output columns
/// (indexes into the node's schema()) carry a partition key (column index
/// -> domain name). Key domains are what prove co-location: a P⨝P
/// equi-join stays shard-local iff some join-key pair shares a domain on
/// both sides.
struct SiteAnnotation {
  Site site = Site::kReplicated;
  std::map<size_t, std::string> key_domains;
};

/// Annotates `plan` bottom-up against the partition scheme. Returns one
/// annotation per node, keyed by node pointer; the root's annotation
/// decides whether the plan needs the coordinator at all.
std::map<const db::PlanNode*, SiteAnnotation> AnnotateSites(
    const db::PlanPtr& plan, const PartitionScheme& scheme);

/// One shard-executable fragment of a distributed plan.
struct FragmentPlan {
  /// The subtree each shard executes (aliases into the original tree, or a
  /// partial-aggregate wrapper around it).
  db::PlanPtr plan;
  /// True when the subtree is fully replicated: executing it on shard 0
  /// alone yields the complete result (running it everywhere would
  /// duplicate rows).
  bool replicated_only = false;
  /// Engaged when the fragment is a decomposed aggregate: each shard runs
  /// the partial aggregate; the coordinator concatenates partials in shard
  /// order, runs the merge aggregate, and applies the finalize projection.
  std::optional<db::AggSplit> agg_split;
  /// The aggregate's group-by columns (agg_split fragments only).
  std::vector<std::string> group_by;
};

/// A plan decomposed for scatter-gather execution.
struct DistributedPlan {
  std::vector<FragmentPlan> fragments;
  /// The coordinator-side remainder, reading fragment k through a
  /// Scan("__frag<k>") leaf that declares the schema of the subtree it
  /// replaces: `plan->schema()`, or for a split aggregate the original
  /// aggregate's (post-merge, post-finalize). Always set — a fully
  /// shard-executable plan reduces to residual = Scan("__frag0").
  db::PlanPtr residual;
  /// The undistributed input plan (the coordinator replays its scan I/O
  /// against the global layout for logical StorageStats).
  db::PlanPtr original;
};

/// The coordinator-catalog name of fragment `k`.
std::string FragmentTableName(size_t k);

/// Decomposes `plan` into shard fragments plus a coordinator residual.
///
/// Placement rules (bottom-up): scans of partitioned tables are
/// kPartitioned keyed by their partition column; replicated scans are
/// kReplicated; filters/projections preserve their child's site (projections
/// keep key domains through identity column references); a join of two
/// partitioned inputs stays kPartitioned only when co-located (shared key
/// domain), a partitioned⨝replicated join stays kPartitioned, an aggregate
/// whose group keys include a partition-key column of its partitioned
/// child stays kPartitioned keyed by that column's domain (each group
/// lives on one shard, so no partial/merge split is needed), and anything
/// else — other aggregates over partitioned data, sorts, limits,
/// non-co-located joins — moves to the coordinator. At each site boundary
/// the maximal shard-executable subtree becomes one fragment; aggregates
/// over partitioned children that must move are split into
/// partial/merge/finalize when their functions decompose (everything but
/// COUNT DISTINCT, which gathers its child's rows instead).
///
/// Under TpchPartitionScheme (orders and lineitem co-partitioned on
/// orderkey, everything else replicated) every TPC-H join but Q15's runs
/// on the shards: Q15 joins supplier against an aggregate of lineitem
/// grouped by l_suppkey, which is not a partition key.
DistributedPlan PlanDistributed(const db::PlanPtr& plan,
                                const PartitionScheme& scheme);

}  // namespace shard
}  // namespace perfeval

#endif  // PERFEVAL_SHARD_PLANNER_H_
