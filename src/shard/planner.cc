#include "shard/planner.h"

#include <utility>

#include "common/check.h"

namespace perfeval {
namespace shard {
namespace {

/// Aliasing handle to a node inside `owner`'s tree: shares ownership of
/// the whole tree while pointing at the subtree. Fragments and rebuilt
/// residual nodes hold these, so the original plan outlives both.
db::PlanPtr Alias(const db::PlanPtr& owner, const db::PlanNode* node) {
  return db::PlanPtr(owner, node);
}

/// Output schema of one node given its children's schemas — mirrors what
/// each operator's Execute produces (scans return the FULL table schema;
/// selections don't reshape; joins concatenate left then right).
db::Schema OutputSchema(const db::PlanSpec& spec,
                        const std::vector<const SiteAnnotation*>& children,
                        const db::Catalog& catalog) {
  switch (spec.kind) {
    case db::PlanKind::kScan:
    case db::PlanKind::kFilterScan:
      return catalog.Get(spec.table_name).table->schema();
    case db::PlanKind::kFilter:
    case db::PlanKind::kSort:
    case db::PlanKind::kLimit:
    case db::PlanKind::kTopN:
      PERFEVAL_CHECK_EQ(children.size(), 1u);
      return children[0]->schema;
    case db::PlanKind::kProject: {
      PERFEVAL_CHECK_EQ(children.size(), 1u);
      std::vector<db::ColumnSpec> cols;
      for (size_t i = 0; i < spec.exprs.size(); ++i) {
        cols.push_back(
            {spec.names[i], spec.exprs[i]->ResultType(children[0]->schema)});
      }
      return db::Schema(std::move(cols));
    }
    case db::PlanKind::kHashJoin: {
      PERFEVAL_CHECK_EQ(children.size(), 2u);
      std::vector<db::ColumnSpec> cols = children[0]->schema.columns();
      for (const db::ColumnSpec& c : children[1]->schema.columns()) {
        cols.push_back(c);
      }
      return db::Schema(std::move(cols));
    }
    case db::PlanKind::kAggregate: {
      PERFEVAL_CHECK_EQ(children.size(), 1u);
      std::vector<db::ColumnSpec> cols;
      for (const std::string& g : spec.group_by) {
        cols.push_back(children[0]->schema.column(
            children[0]->schema.MustIndexOf(g)));
      }
      for (const db::AggSpec& agg : spec.aggregates) {
        cols.push_back(
            {agg.output_name, db::AggOutputType(agg, children[0]->schema)});
      }
      return db::Schema(std::move(cols));
    }
  }
  PERFEVAL_CHECK(false) << "unhandled plan kind";
  return db::Schema();
}

/// The co-location test for a P⨝P equi-join: some join-key pair must carry
/// the same partition domain on both sides — equal key values then hash to
/// the same shard, so every match is shard-local.
bool JoinColocated(const db::PlanSpec& spec, const SiteAnnotation& left,
                   const SiteAnnotation& right) {
  for (size_t i = 0; i < spec.left_keys.size(); ++i) {
    int li = left.schema.IndexOf(spec.left_keys[i]);
    int ri = right.schema.IndexOf(spec.right_keys[i]);
    if (li < 0 || ri < 0) {
      continue;
    }
    auto ld = left.key_domains.find(static_cast<size_t>(li));
    auto rd = right.key_domains.find(static_cast<size_t>(ri));
    if (ld != left.key_domains.end() && rd != right.key_domains.end() &&
        ld->second == rd->second) {
      return true;
    }
  }
  return false;
}

void AnnotateRecursive(const db::PlanPtr& owner, const db::PlanNode* node,
                       const PartitionScheme& scheme,
                       const db::Catalog& catalog,
                       std::map<const db::PlanNode*, SiteAnnotation>* out) {
  std::vector<const db::PlanNode*> children = node->Children();
  std::vector<const SiteAnnotation*> child_annots;
  for (const db::PlanNode* child : children) {
    AnnotateRecursive(owner, child, scheme, catalog, out);
    child_annots.push_back(&out->at(child));
  }
  db::PlanSpec spec = node->Spec();

  SiteAnnotation a;
  a.schema = OutputSchema(spec, child_annots, catalog);
  switch (spec.kind) {
    case db::PlanKind::kScan:
    case db::PlanKind::kFilterScan: {
      TablePartitionSpec placement = scheme.SpecFor(spec.table_name);
      if (placement.partitioned()) {
        a.site = Site::kPartitioned;
        a.key_domains[a.schema.MustIndexOf(placement.key_column)] =
            placement.domain;
      } else {
        a.site = Site::kReplicated;
      }
      break;
    }
    case db::PlanKind::kFilter:
      a.site = child_annots[0]->site;
      a.key_domains = child_annots[0]->key_domains;
      break;
    case db::PlanKind::kProject: {
      a.site = child_annots[0]->site;
      // Key domains survive projection only through identity column
      // references; computed expressions lose the key property.
      for (size_t i = 0; i < spec.exprs.size(); ++i) {
        size_t src = 0;
        if (spec.exprs[i]->AsColumnIndex(&src)) {
          auto it = child_annots[0]->key_domains.find(src);
          if (it != child_annots[0]->key_domains.end()) {
            a.key_domains[i] = it->second;
          }
        }
      }
      break;
    }
    case db::PlanKind::kHashJoin: {
      const SiteAnnotation& left = *child_annots[0];
      const SiteAnnotation& right = *child_annots[1];
      size_t left_width = left.schema.num_columns();
      auto merge_keys = [&]() {
        a.key_domains = left.key_domains;
        for (const auto& [idx, domain] : right.key_domains) {
          a.key_domains[left_width + idx] = domain;
        }
      };
      if (left.site == Site::kCoordinator ||
          right.site == Site::kCoordinator) {
        a.site = Site::kCoordinator;
      } else if (left.site == Site::kReplicated &&
                 right.site == Site::kReplicated) {
        a.site = Site::kReplicated;
      } else if (left.site == Site::kPartitioned &&
                 right.site == Site::kPartitioned) {
        if (JoinColocated(spec, left, right)) {
          a.site = Site::kPartitioned;
          merge_keys();
        } else {
          a.site = Site::kCoordinator;  // keys land on different shards.
        }
      } else {
        // Partitioned ⨝ replicated: every shard holds the whole replicated
        // side, so the join runs shard-local and stays partitioned by the
        // partitioned side's keys.
        a.site = Site::kPartitioned;
        merge_keys();
      }
      break;
    }
    case db::PlanKind::kAggregate: {
      // An aggregate over a replicated child is computable on any one
      // shard. Over a partitioned child it stays shard-local when a group
      // key is a partition key: every group's rows then live on one shard,
      // so the per-shard groups are disjoint and complete. Otherwise the
      // groups span shards and only the coordinator can finish them (via
      // the partial/merge split, decided at fragment-extraction time).
      const SiteAnnotation& child = *child_annots[0];
      if (child.site != Site::kPartitioned) {
        a.site = child.site;
        break;
      }
      a.site = Site::kCoordinator;
      for (size_t i = 0; i < spec.group_by.size(); ++i) {
        auto it = child.key_domains.find(
            child.schema.MustIndexOf(spec.group_by[i]));
        if (it != child.key_domains.end()) {
          a.site = Site::kPartitioned;
          a.key_domains[i] = it->second;
        }
      }
      break;
    }
    case db::PlanKind::kSort:
    case db::PlanKind::kLimit:
    case db::PlanKind::kTopN:
      // Order- and prefix-sensitive: correct on one shard's complete view,
      // impossible on a partitioned slice.
      a.site = child_annots[0]->site == Site::kReplicated
                   ? Site::kReplicated
                   : Site::kCoordinator;
      break;
  }
  (*out)[node] = std::move(a);
}

/// Rebuilds one operator from its spec over new children — the residual's
/// nodes reuse the original ExprPtrs, which stay valid because fragment
/// tables are registered with exactly the schemas the original subtrees
/// produced.
db::PlanPtr Rebuild(const db::PlanSpec& spec,
                    std::vector<db::PlanPtr> children) {
  switch (spec.kind) {
    case db::PlanKind::kScan:
      return db::Scan(spec.table_name, spec.columns);
    case db::PlanKind::kFilterScan:
      return db::FilterScan(spec.table_name, spec.columns, spec.predicate);
    case db::PlanKind::kFilter:
      return db::Filter(std::move(children[0]), spec.predicate);
    case db::PlanKind::kProject:
      return db::Project(std::move(children[0]), spec.exprs, spec.names);
    case db::PlanKind::kHashJoin:
      return db::HashJoinWith(std::move(children[0]), std::move(children[1]),
                              spec.left_keys, spec.right_keys,
                              spec.join_algo);
    case db::PlanKind::kAggregate:
      return db::Aggregate(std::move(children[0]), spec.group_by,
                           spec.aggregates);
    case db::PlanKind::kSort:
      return db::Sort(std::move(children[0]), spec.sort_keys);
    case db::PlanKind::kLimit:
      return db::Limit(std::move(children[0]), spec.limit);
    case db::PlanKind::kTopN:
      return db::TopN(std::move(children[0]), spec.sort_keys, spec.limit);
  }
  PERFEVAL_CHECK(false) << "unhandled plan kind";
  return nullptr;
}

class FragmentExtractor {
 public:
  FragmentExtractor(const db::PlanPtr& root,
                    const std::map<const db::PlanNode*, SiteAnnotation>& annot)
      : root_(root), annot_(annot) {}

  DistributedPlan Run() {
    DistributedPlan out;
    out.original = root_;
    out.residual = Rewrite(root_.get(), &out);
    return out;
  }

 private:
  /// Cuts the maximal shard-executable subtree at `node` into a fragment
  /// and returns the residual's Scan leaf over its gathered table.
  db::PlanPtr MakeFragment(const db::PlanNode* node, DistributedPlan* out) {
    const SiteAnnotation& a = annot_.at(node);
    FragmentPlan frag;
    frag.plan = Alias(root_, node);
    frag.replicated_only = a.site == Site::kReplicated;
    frag.output_schema = a.schema;
    out->fragments.push_back(std::move(frag));
    return db::Scan(FragmentTableName(out->fragments.size() - 1));
  }

  db::PlanPtr Rewrite(const db::PlanNode* node, DistributedPlan* out) {
    const SiteAnnotation& a = annot_.at(node);
    if (a.site != Site::kCoordinator) {
      return MakeFragment(node, out);
    }
    db::PlanSpec spec = node->Spec();
    std::vector<const db::PlanNode*> children = node->Children();

    // The one non-structural rewrite: an aggregate over partitioned data
    // ships partial aggregates instead of raw rows whenever its functions
    // decompose. COUNT DISTINCT falls through to the generic path, which
    // gathers the child's rows and aggregates at the coordinator.
    if (spec.kind == db::PlanKind::kAggregate &&
        annot_.at(children[0]).site == Site::kPartitioned) {
      const SiteAnnotation& child = annot_.at(children[0]);
      db::AggSplit split;
      if (db::SplitAggregates(spec.group_by, spec.aggregates, child.schema,
                              &split)) {
        FragmentPlan frag;
        frag.plan = db::Aggregate(Alias(root_, children[0]), spec.group_by,
                                  split.partial);
        frag.replicated_only = false;
        frag.output_schema = a.schema;  // post-merge, post-finalize.
        frag.group_by = spec.group_by;
        frag.agg_split = std::move(split);
        out->fragments.push_back(std::move(frag));
        return db::Scan(FragmentTableName(out->fragments.size() - 1));
      }
    }

    std::vector<db::PlanPtr> rewritten;
    rewritten.reserve(children.size());
    for (const db::PlanNode* child : children) {
      rewritten.push_back(Rewrite(child, out));
    }
    return Rebuild(spec, std::move(rewritten));
  }

  const db::PlanPtr& root_;
  const std::map<const db::PlanNode*, SiteAnnotation>& annot_;
};

}  // namespace

const char* SiteName(Site site) {
  switch (site) {
    case Site::kReplicated:
      return "replicated";
    case Site::kPartitioned:
      return "partitioned";
    case Site::kCoordinator:
      return "coordinator";
  }
  return "?";
}

std::string FragmentTableName(size_t k) {
  return "__frag" + std::to_string(k);
}

std::map<const db::PlanNode*, SiteAnnotation> AnnotateSites(
    const db::PlanPtr& plan, const PartitionScheme& scheme,
    const db::Database& catalog) {
  PERFEVAL_CHECK(plan != nullptr);
  std::map<const db::PlanNode*, SiteAnnotation> out;
  // One pinned catalog version for the whole walk.
  std::shared_ptr<const db::Catalog> pinned = catalog.catalog();
  AnnotateRecursive(plan, plan.get(), scheme, *pinned, &out);
  return out;
}

DistributedPlan PlanDistributed(const db::PlanPtr& plan,
                                const PartitionScheme& scheme,
                                const db::Database& catalog) {
  std::map<const db::PlanNode*, SiteAnnotation> annot =
      AnnotateSites(plan, scheme, catalog);
  return FragmentExtractor(plan, annot).Run();
}

}  // namespace shard
}  // namespace perfeval
