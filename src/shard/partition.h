#ifndef PERFEVAL_SHARD_PARTITION_H_
#define PERFEVAL_SHARD_PARTITION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/partition.h"
#include "db/table.h"

namespace perfeval {
namespace shard {

/// How one table is placed across a shard cluster: hash-partitioned on an
/// int64 key column, or replicated in full to every shard.
///
/// Co-partitioning is expressed through `domain`: two tables whose keys
/// share a domain (and therefore a salt) place equal key values on the
/// same shard, so an equi-join on those keys never crosses shards. The
/// TPC-H scheme co-partitions lineitem with orders on the orderkey domain
/// — the join backbone of Q3/Q4/Q5/Q7/Q8/Q9/Q10/Q12/Q18 stays shard-local
/// — and replicates everything else, customer included, so the
/// orders ⨝ customer joins of Q3/Q5/Q7/Q8/Q10/Q18 stay shard-local too.
struct TablePartitionSpec {
  /// Partition key column; empty means the table is replicated.
  std::string key_column;
  /// Co-partitioning domain name ("orderkey", "custkey", ...). Tables with
  /// equal domains agree on placement; empty for replicated tables.
  std::string domain;
  /// The HashPartitioner salt of the domain. Equal domain <=> equal salt.
  uint64_t domain_salt = 0;

  bool partitioned() const { return !key_column.empty(); }
};

/// The placement of every table in a schema.
struct PartitionScheme {
  std::map<std::string, TablePartitionSpec> tables;

  /// The spec for `table_name`; a default (replicated) spec when the table
  /// is not listed — unknown tables are safest replicated.
  TablePartitionSpec SpecFor(const std::string& table_name) const;
};

/// The TPC-H placement: lineitem and orders hash-partitioned on
/// l_orderkey/o_orderkey in the shared "orderkey" domain, and the other
/// tables (region, nation, supplier, customer, part, partsupp) replicated.
/// Customer is replicated rather than partitioned on c_custkey: TPC-H
/// fixes customer:orders at 1:10 at every scale factor, so each shard's
/// full copy holds a tenth as many rows as all of orders, and no
/// orders ⨝ customer join has to go through the coordinator.
PartitionScheme TpchPartitionScheme();

/// Splits `table` into `num_shards` disjoint tables by hashing the int64
/// `key_column` with `spec`'s domain salt. Rows keep their relative order
/// within each shard (shard-local scans see the same row order a
/// single-node scan would, restricted to the shard's rows) — assignment is
/// a pure function of the key, independent of load order (the seam
/// common/partition_test locks down). Each shard is filled by one typed
/// column-wise gather (Table::AppendGather) over its row ids.
std::vector<std::shared_ptr<db::Table>> PartitionTable(
    const db::Table& table, const TablePartitionSpec& spec, int num_shards);

}  // namespace shard
}  // namespace perfeval

#endif  // PERFEVAL_SHARD_PARTITION_H_
