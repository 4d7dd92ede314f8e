#include "shard/partition.h"

#include "common/check.h"

namespace perfeval {
namespace shard {
namespace {

/// Domain salts: arbitrary fixed constants. Equal domain <=> equal salt is
/// what keeps co-partitioned joins shard-local; the constants themselves
/// only need to be stable (the partitioner's reference-vector test pins
/// the underlying hash).
constexpr uint64_t kOrderkeySalt = 0x06d6e4b10c0ffee1ULL;

}  // namespace

TablePartitionSpec PartitionScheme::SpecFor(
    const std::string& table_name) const {
  auto it = tables.find(table_name);
  if (it == tables.end()) {
    return TablePartitionSpec{};  // replicated by default.
  }
  return it->second;
}

PartitionScheme TpchPartitionScheme() {
  PartitionScheme scheme;
  scheme.tables["orders"] = {"o_orderkey", "orderkey", kOrderkeySalt};
  scheme.tables["lineitem"] = {"l_orderkey", "orderkey", kOrderkeySalt};
  for (const char* replicated : {"region", "nation", "supplier", "customer",
                                 "part", "partsupp"}) {
    scheme.tables[replicated] = TablePartitionSpec{};
  }
  return scheme;
}

std::vector<std::shared_ptr<db::Table>> PartitionTable(
    const db::Table& table, const TablePartitionSpec& spec, int num_shards) {
  PERFEVAL_CHECK_GE(num_shards, 1);
  PERFEVAL_CHECK(spec.partitioned());
  size_t key_col = table.schema().MustIndexOf(spec.key_column);
  const db::Column& keys = table.column(key_col);
  PERFEVAL_CHECK(keys.type() == db::DataType::kInt64)
      << "partition key " << spec.key_column << " must be int64";
  PERFEVAL_CHECK(!keys.has_nulls())
      << "partition key " << spec.key_column << " must be NULL-free";
  PERFEVAL_CHECK_LE(table.num_rows(), size_t{UINT32_MAX});

  // Per-shard row ids in original order, then one typed column-wise
  // gather per shard.
  HashPartitioner partitioner(num_shards, spec.domain_salt);
  std::vector<std::vector<uint32_t>> rows_of(static_cast<size_t>(num_shards));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    rows_of[static_cast<size_t>(partitioner.ShardOf(keys.GetInt64(r)))]
        .push_back(static_cast<uint32_t>(r));
  }
  std::vector<std::shared_ptr<db::Table>> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (const std::vector<uint32_t>& rows : rows_of) {
    auto t = std::make_shared<db::Table>(table.schema());
    t->AppendGather(table, rows);
    shards.push_back(std::move(t));
  }
  return shards;
}

}  // namespace shard
}  // namespace perfeval
