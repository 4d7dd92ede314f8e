#include "shard/cluster.h"

#include <utility>

#include "common/check.h"
#include "core/measurement.h"
#include "db/partial_agg.h"

namespace perfeval {
namespace shard {

ShardCluster::ShardCluster(ShardClusterOptions options)
    : options_(std::move(options)) {
  PERFEVAL_CHECK_GE(options_.num_shards, 1);
  for (int s = 0; s < options_.num_shards; ++s) {
    db::DatabaseOptions db_options = options_.shard_db;
    auto it = options_.shard_disk_override.find(s);
    if (it != options_.shard_disk_override.end()) {
      db_options.disk = it->second;
    }
    dbs_.push_back(std::make_unique<db::Database>(db_options));
    services_.push_back(std::make_unique<serve::QueryService>(
        dbs_.back().get(), options_.shard_service));
  }
  replay_storage_ = std::make_unique<db::StorageManager>(
      options_.reference.disk, options_.reference.buffer_pool_pages,
      options_.reference.rows_per_page);
}

ShardCluster::~ShardCluster() {
  // Drain the shard services while their databases are still alive
  // (members destroy in reverse order anyway; this makes it explicit).
  for (auto& service : services_) {
    service->Shutdown();
  }
}

void ShardCluster::AddTable(const std::string& name,
                            std::shared_ptr<db::Table> table) {
  PERFEVAL_CHECK(catalog_.find(name) == catalog_.end())
      << "duplicate table " << name;
  TablePartitionSpec spec = options_.scheme.SpecFor(name);
  if (spec.partitioned()) {
    std::vector<std::shared_ptr<db::Table>> slices =
        PartitionTable(*table, spec, options_.num_shards);
    for (int s = 0; s < options_.num_shards; ++s) {
      dbs_[static_cast<size_t>(s)]->RegisterTable(
          name, slices[static_cast<size_t>(s)]);
    }
  } else {
    // Replicated: every shard shares one immutable table object.
    for (auto& db : dbs_) {
      db->RegisterTable(name, table);
    }
  }
  CatalogEntry entry;
  entry.schema = table->schema();
  // The entry copies page/zone-map metadata; it does not retain the
  // table, so the generator's full table can be dropped after this call.
  entry.layout =
      db::BuildTableLayout(*table, replay_storage_->rows_per_page());
  entry.layout.table_id = next_table_id_++;
  PERFEVAL_CHECK_LT(entry.layout.table_id, db::kMaxTableIds);
  catalog_[name] = std::move(entry);
}

void ShardCluster::LoadTpch(workload::TpchGenerator* gen) {
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    AddTable(name, gen->Generate(name));
  }
}

void ShardCluster::FlushCaches() {
  for (auto& db : dbs_) {
    db->FlushCaches();
  }
  replay_storage_->FlushCaches();
}

db::ScanTableInfo ShardCluster::Lookup(const std::string& table_name) const {
  auto it = catalog_.find(table_name);
  PERFEVAL_CHECK(it != catalog_.end())
      << "unknown table in replay: " << table_name;
  return db::ScanTableInfo{&it->second.schema, &it->second.layout};
}

ShardedResult ShardCluster::Execute(const db::PlanPtr& plan, db::ExecMode mode,
                                    bool use_zone_maps) {
  DistributedPlan dp = PlanDistributed(plan, options_.scheme);

  ShardedResult out;
  out.shards.resize(static_cast<size_t>(options_.num_shards));
  out.num_fragments = dp.fragments.size();

  // Query-local catalog of the gathered fragment and partial-aggregate
  // tables, never published. The intermediates are bound bare (no
  // statistics, no layout: nothing optimizes them) and read without a
  // StorageManager, so they charge no I/O; the reported StorageStats come
  // from the replay below. Operators run with shard 0's live execution
  // settings.
  db::Catalog local;
  db::ExecContext ctx = dbs_[0]->ExecSettings();
  ctx.mode = mode;
  ctx.catalog = &local;

  out.result.server = core::MeasureOnce([&] {
    // Scatter: every fragment to every shard (replicated fragments to
    // shard 0 only — running them everywhere would duplicate rows).
    std::vector<std::vector<serve::ResponseHandle>> handles(
        dp.fragments.size());
    for (size_t k = 0; k < dp.fragments.size(); ++k) {
      const FragmentPlan& frag = dp.fragments[k];
      int targets = frag.replicated_only ? 1 : options_.num_shards;
      for (int s = 0; s < targets; ++s) {
        serve::Request request;
        request.plan = frag.plan;
        request.mode = mode;
        request.seed = (static_cast<uint64_t>(k) << 8) |
                       static_cast<uint64_t>(s);
        handles[k].push_back(
            services_[static_cast<size_t>(s)]->Submit(request));
      }
    }
    // Occupancy right after the scatter: what each shard's service looks
    // like while this query is outstanding (straggler attribution).
    for (int s = 0; s < options_.num_shards; ++s) {
      out.shards[static_cast<size_t>(s)].queue =
          services_[static_cast<size_t>(s)]->queue_snapshot();
    }

    // Gather in fragment order, shard order within a fragment — the fixed
    // merge discipline every determinism claim rests on. A request no
    // shard worker has started yet is claimed and run on this thread
    // rather than waited for (claim-on-wait).
    for (size_t k = 0; k < dp.fragments.size(); ++k) {
      const FragmentPlan& frag = dp.fragments[k];
      std::vector<const serve::Response*> responses;
      responses.reserve(handles[k].size());
      for (size_t s = 0; s < handles[k].size(); ++s) {
        const serve::Response& r = handles[k][s]->ClaimOrWait();
        PERFEVAL_CHECK(r.status.ok())
            << "fragment " << k << " failed on shard " << s << ": "
            << r.status.ToString();
        ShardExecution& exec = out.shards[s];
        exec.timing.queue_wait_ns += r.server.queue_wait_ns;
        exec.timing.exec_ns += r.server.exec_ns;
        ++exec.requests;
        responses.push_back(&r);
      }

      if (frag.agg_split.has_value()) {
        // Decomposed aggregate: concatenate the shards' partial states in
        // shard order, merge with the merge aggregate (groups emit in
        // first-occurrence order over that fixed concatenation), then
        // apply the finalize projection (AVG = SUM/COUNT).
        auto partials =
            std::make_shared<db::Table>(frag.agg_split->partial_schema);
        for (const serve::Response* r : responses) {
          partials->AppendTable(*r->table);
        }
        std::string partial_name = FragmentTableName(k) + "_partial";
        local.BindUnlaid(partial_name, std::move(partials));
        std::shared_ptr<const db::Table> merged =
            db::Aggregate(
                db::Scan(partial_name, frag.agg_split->partial_schema),
                frag.group_by, frag.agg_split->merge)
                ->Execute(ctx)
                .Materialize();
        local.BindUnlaid(
            FragmentTableName(k),
            db::FinalizeMergedAggregates(*merged, frag.group_by.size(),
                                         frag.agg_split->finalize));
      } else {
        auto gathered = std::make_shared<db::Table>(frag.plan->schema());
        for (const serve::Response* r : responses) {
          gathered->AppendTable(*r->table);
        }
        local.BindUnlaid(FragmentTableName(k), std::move(gathered));
      }
    }

    // Residual: the coordinator-side remainder over the gathered
    // fragment tables ("__frag<k>" scans), traced into the result.
    ctx.profiler = &out.result.profile;
    out.result.table = dp.residual->Execute(ctx).Materialize();
  });

  // Logical-I/O replay against the reference (single-node) layout — the
  // exact page-touch sequence the undistributed plan would have issued,
  // via the same scan_io code path the engine itself uses. Per-query
  // atomic, so concurrent queries' touch sequences never interleave.
  {
    std::lock_guard<std::mutex> lock(replay_mu_);
    out.result.storage = db::ReplayScanIo(dp.original, *this,
                                          replay_storage_.get(), use_zone_maps);
  }
  // The coordinator's observed time = measured wall + the logical stall,
  // mirroring how the single-node engine reports simulated I/O.
  out.result.server.simulated_stall_ns = out.result.storage.stall_ns;
  out.result.client = out.result.server;

  int64_t slowest_ns = -1;
  for (int s = 0; s < options_.num_shards; ++s) {
    int64_t total = out.shards[static_cast<size_t>(s)].timing.TotalNs();
    if (total > slowest_ns) {
      slowest_ns = total;
      out.slowest_shard = s;
    }
  }
  return out;
}

}  // namespace shard
}  // namespace perfeval
