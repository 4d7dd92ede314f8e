#include "txn/store.h"

#include <utility>

#include "common/check.h"
#include "db/error.h"
#include "txn/codec.h"

namespace perfeval {
namespace txn {
namespace {

constexpr uint32_t kCheckpointMagic = 0x504B4354;  // "TCKP"

/// Arity/type validation shared by BufferInsert (user input) and replay
/// (untrusted log bytes): every row must match the schema exactly, with
/// NULLs carrying the declared column type.
Status ValidateRows(const db::Schema& schema,
                    const std::vector<std::vector<db::Value>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(row.size()) + " values, table has " +
          std::to_string(schema.num_columns()) + " columns");
    }
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].type() != schema.column(c).type) {
        return Status::InvalidArgument(
            "value for column " + schema.column(c).name + " has type " +
            db::DataTypeName(row[c].type()) + ", expected " +
            db::DataTypeName(schema.column(c).type));
      }
    }
  }
  return Status::OK();
}

}  // namespace

DeltaStore::DeltaStore(db::Database* database, VirtualDisk* disk,
                       Options options)
    : db_(database),
      disk_(disk),
      options_(std::move(options)),
      wal_(disk, options_.wal_file) {
  PERFEVAL_CHECK(db_ != nullptr);
  PERFEVAL_CHECK(disk_ != nullptr);
}

DeltaStore::DeltaStore(db::Database* database, VirtualDisk* disk)
    : DeltaStore(database, disk, Options()) {}

Status DeltaStore::Open() {
  PERFEVAL_CHECK(!opened_) << "DeltaStore::Open called twice";
  std::string tmp = options_.ckpt_file + ".tmp";
  // A leftover .tmp is a checkpoint that crashed before its atomic
  // rename: never installed, safe to discard.
  if (disk_->Exists(tmp)) {
    disk_->Remove(tmp);
  }
  uint64_t start_lsn = 1;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (disk_->Exists(options_.ckpt_file)) {
      // The checkpoint file only ever appears via fsync-then-rename, so
      // its bytes are fully durable: any damage here is corruption of
      // installed state, not a torn write — kDataLoss, never truncation.
      std::string image = disk_->ReadAll(options_.ckpt_file);
      if (image.size() < 8) {
        return Status::DataLoss("checkpoint image truncated");
      }
      ByteCursor header(std::string_view(image).substr(0, 8));
      uint32_t len = header.GetU32();
      uint32_t crc = header.GetU32();
      if (image.size() - 8 != len) {
        return Status::DataLoss("checkpoint image length mismatch");
      }
      std::string_view payload = std::string_view(image).substr(8);
      if (Crc32(payload) != crc) {
        return Status::DataLoss("checkpoint image CRC mismatch");
      }
      ByteCursor c(payload);
      if (c.GetU32() != kCheckpointMagic) {
        return Status::DataLoss("checkpoint image bad magic");
      }
      start_lsn = c.GetU64();
      uint32_t num_tables = c.GetU32();
      for (uint32_t i = 0; i < num_tables && c.ok(); ++i) {
        std::string name = c.GetString();
        if (!c.ok()) {
          break;
        }
        if (!db_->HasTable(name)) {
          return Status::DataLoss("checkpoint references unknown table " +
                                  name);
        }
        PERFEVAL_ASSIGN_OR_RETURN(
            TableDelta delta,
            TableDelta::Decode(&c, db_->GetTableShared(name)));
        if (!delta.empty()) {
          catalog_stale_[name] = true;
        }
        deltas_.emplace(std::move(name), std::move(delta));
      }
      if (!c.AtEnd()) {
        return Status::DataLoss("checkpoint image trailing or missing bytes");
      }
    }

    PERFEVAL_ASSIGN_OR_RETURN(WalContents wal,
                              ReadWal(*disk_, options_.wal_file));
    if (wal.torn_tail_bytes > 0) {
      // Drop the torn tail from the physical log so future appends start
      // on a record boundary. Only ever removes non-durable bytes, so a
      // crash inside this repair just means doing it again next open.
      size_t size = disk_->Size(options_.wal_file);
      disk_->Truncate(options_.wal_file, size - wal.torn_tail_bytes);
      disk_->Sync(options_.wal_file);
      stats_.torn_tail_bytes = wal.torn_tail_bytes;
    }
    uint64_t last_lsn = start_lsn - 1;
    for (const WalRecord& record : wal.records) {
      if (record.lsn < start_lsn) {
        continue;  // pre-checkpoint record in a not-yet-truncated log.
      }
      if (record.lsn != last_lsn + 1) {
        return Status::DataLoss("WAL LSN gap: expected " +
                                std::to_string(last_lsn + 1) + ", found " +
                                std::to_string(record.lsn));
      }
      Status applied = ApplyRecord(record);
      if (!applied.ok() && applied.code() != StatusCode::kAborted) {
        return applied;  // kDataLoss: log inconsistent with checkpoint.
      }
      // kAborted replays the runtime outcome: the commit was reported
      // aborted and its record is skipped identically here.
      last_lsn = record.lsn;
      ++stats_.wal_records_replayed;
    }
    wal_.set_next_lsn(last_lsn + 1);
    next_apply_lsn_ = last_lsn + 1;
  }
  opened_ = true;
  db_->SetRefreshHook([this] { RefreshCatalog(); });
  RefreshCatalog();
  return Status::OK();
}

uint64_t DeltaStore::Begin() {
  std::lock_guard<std::mutex> lock(txn_mu_);
  uint64_t id = next_txn_id_++;
  pending_[id];
  return id;
}

Status DeltaStore::BufferInsert(uint64_t txn_id, const std::string& table,
                                std::vector<std::vector<db::Value>> rows) {
  if (!db_->HasTable(table)) {
    return Status::NotFound("no table named " + table);
  }
  PERFEVAL_RETURN_IF_ERROR(
      ValidateRows(db_->GetTableShared(table)->schema(), rows));
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) {
    return Status::InvalidArgument("unknown transaction " +
                                   std::to_string(txn_id));
  }
  it->second.inserts.push_back({table, std::move(rows)});
  return Status::OK();
}

Status DeltaStore::BufferDelete(uint64_t txn_id, const std::string& table,
                                RowPredicate pred) {
  if (!db_->HasTable(table)) {
    return Status::NotFound("no table named " + table);
  }
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) {
    return Status::InvalidArgument("unknown transaction " +
                                   std::to_string(txn_id));
  }
  it->second.deletes.push_back({table, std::move(pred)});
  return Status::OK();
}

Status DeltaStore::Commit(uint64_t txn_id, CommitInfo* info) {
  PERFEVAL_CHECK(opened_) << "Commit before Open";
  if (info != nullptr) {
    *info = CommitInfo();
  }
  PendingTxn txn;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = pending_.find(txn_id);
    if (it == pending_.end()) {
      return Status::InvalidArgument("unknown transaction " +
                                     std::to_string(txn_id));
    }
    txn = std::move(it->second);
    pending_.erase(it);
  }

  // Phase 1 — resolve + append, one critical section: DELETE predicates
  // run over the merged snapshot of committed state and the record lands
  // in the WAL before any later commit resolves, so WAL (= LSN = apply)
  // order equals resolution order.
  WalRecord record;
  record.txn_id = txn_id;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (auto& ins : txn.inserts) {
      if (ins.rows.empty()) {
        continue;
      }
      WalOp op;
      op.kind = WalOp::Kind::kInsert;
      op.table = ins.table;
      op.rows = std::move(ins.rows);
      record.ops.push_back(std::move(op));
    }
    for (const auto& del : txn.deletes) {
      const MergedSnapshot& merged = MergedFor(del.table);
      WalOp op;
      op.kind = WalOp::Kind::kDelete;
      op.table = del.table;
      uint32_t n = static_cast<uint32_t>(merged.table->num_rows());
      for (uint32_t r = 0; r < n; ++r) {
        if (del.pred && !del.pred(*merged.table, r)) {
          continue;
        }
        const RowOrigin& origin = merged.origins[r];
        (origin.from_insert ? op.insert_rows : op.base_rows)
            .push_back(origin.pos);
      }
      if (!op.base_rows.empty() || !op.insert_rows.empty()) {
        record.ops.push_back(std::move(op));
      }
    }
    if (record.ops.empty()) {
      // Nothing to make durable; the commit is trivially done.
      ++stats_.commits;
      return Status::OK();
    }
    lsn = wal_.Append(record);
    record.lsn = lsn;
  }

  // Phase 2 — harden: group-commit fsync (shared with concurrent
  // committers). Throws CrashException under an armed crash point; the
  // store is dead afterwards, like the process it models.
  wal_.SyncUpTo(lsn);

  // Phase 3 — apply in LSN order. Each committer waits its turn, so the
  // in-memory deltas advance exactly in WAL order and a conflict aborts
  // the same transaction at runtime and on replay.
  std::unique_lock<std::mutex> lock(state_mu_);
  apply_cv_.wait(lock, [&] { return next_apply_lsn_ == lsn; });
  Status applied = ApplyRecord(record);
  next_apply_lsn_ = lsn + 1;
  apply_cv_.notify_all();
  if (applied.ok()) {
    ++stats_.commits;
    if (info != nullptr) {
      info->lsn = lsn;
      for (const WalOp& op : record.ops) {
        if (op.kind == WalOp::Kind::kInsert) {
          info->rows_inserted += op.rows.size();
        } else {
          info->rows_deleted += op.base_rows.size() + op.insert_rows.size();
        }
      }
    }
  } else if (applied.code() == StatusCode::kAborted) {
    ++stats_.aborts;
  }
  return applied;
}

void DeltaStore::Abort(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  pending_.erase(txn_id);
}

Status DeltaStore::ApplyRecord(const WalRecord& record) {
  // Validate every op of the record before applying any (per-record
  // atomicity across tables): inserts against the schema, deletes against
  // the current bitmaps, merged per table so a record whose delete ops
  // overlap is itself a double delete.
  std::map<std::string, std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      dels;
  for (const WalOp& op : record.ops) {
    if (!db_->HasTable(op.table)) {
      return Status::DataLoss("record references unknown table " + op.table);
    }
    if (op.kind == WalOp::Kind::kInsert) {
      Status rows_ok = ValidateRows(DeltaFor(op.table).schema(), op.rows);
      if (!rows_ok.ok()) {
        return Status::DataLoss("record row does not match schema of " +
                                op.table + ": " + rows_ok.message());
      }
    } else {
      auto& lists = dels[op.table];
      lists.first.insert(lists.first.end(), op.base_rows.begin(),
                         op.base_rows.end());
      lists.second.insert(lists.second.end(), op.insert_rows.begin(),
                          op.insert_rows.end());
    }
  }
  for (const auto& [table, lists] : dels) {
    PERFEVAL_RETURN_IF_ERROR(
        DeltaFor(table).ValidateDelete(lists.first, lists.second));
  }

  for (const WalOp& op : record.ops) {
    if (op.kind == WalOp::Kind::kInsert) {
      DeltaFor(op.table).ApplyInsert(op.rows);
      stats_.rows_inserted += op.rows.size();
      merged_cache_.erase(op.table);
      catalog_stale_[op.table] = true;
    }
  }
  for (const auto& [table, lists] : dels) {
    Status s = DeltaFor(table).ApplyDelete(lists.first, lists.second);
    PERFEVAL_CHECK(s.ok()) << "validated delete failed to apply: "
                           << s.ToString();
    stats_.rows_deleted += lists.first.size() + lists.second.size();
    merged_cache_.erase(table);
    catalog_stale_[table] = true;
  }
  return Status::OK();
}

TableDelta& DeltaStore::DeltaFor(const std::string& table) {
  auto it = deltas_.find(table);
  if (it == deltas_.end()) {
    // First touch: capture the pristine base from the catalog. Safe
    // because the catalog entry is only replaced by RefreshCatalog once a
    // delta exists, so an absent delta means the entry is still pristine.
    it = deltas_.emplace(table, TableDelta(db_->GetTableShared(table))).first;
  }
  return it->second;
}

const MergedSnapshot& DeltaStore::MergedFor(const std::string& table) {
  auto it = merged_cache_.find(table);
  if (it == merged_cache_.end()) {
    it = merged_cache_.emplace(table, DeltaFor(table).BuildMerged()).first;
  }
  return it->second;
}

Status DeltaStore::Checkpoint() {
  PERFEVAL_CHECK(opened_) << "Checkpoint before Open";
  std::unique_lock<std::mutex> lock(state_mu_);
  // Quiesce: appended-but-unapplied commits finish their apply (they only
  // need this mutex, which the wait releases); new commits block on the
  // resolve critical section until the checkpoint is installed.
  apply_cv_.wait(lock, [&] { return next_apply_lsn_ == wal_.next_lsn(); });

  uint64_t horizon = wal_.next_lsn();
  std::string payload;
  PutU32(&payload, kCheckpointMagic);
  PutU64(&payload, horizon);
  PutU32(&payload, static_cast<uint32_t>(deltas_.size()));
  for (auto& [name, delta] : deltas_) {
    delta.Compact();
    // Compaction renumbers insert positions; cached origin maps are stale.
    merged_cache_.erase(name);
    PutString(&payload, name);
    delta.Encode(&payload);
  }
  std::string image;
  PutU32(&image, static_cast<uint32_t>(payload.size()));
  PutU32(&image, Crc32(payload));
  image.append(payload);

  // Install: tmp write + fsync, atomic rename, then WAL truncation. A
  // crash at any site leaves either the old checkpoint + full WAL or the
  // new checkpoint + (possibly still-to-be-truncated) WAL whose records
  // all fall below the new horizon — both recover to the same state.
  std::string tmp = options_.ckpt_file + ".tmp";
  disk_->Remove(tmp);
  disk_->Append(tmp, image);
  disk_->Sync(tmp);
  disk_->Rename(tmp, options_.ckpt_file);
  wal_.TruncateLog(horizon);
  ++stats_.checkpoints;
  return Status::OK();
}

void DeltaStore::RefreshCatalog() {
  // Declared before the lock, so the catalog version this refresh
  // supersedes is released after state_mu_ — freeing a table version
  // never stalls commits.
  std::shared_ptr<const db::Catalog> superseded;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (db_->check()) {
    // Checked execution extends to the write path: refuse to serve from a
    // delta whose structural invariants do not hold.
    for (const auto& [name, delta] : deltas_) {
      Status s = delta.CheckIntegrity();
      if (!s.ok()) {
        throw db::QueryError::Invariant("delta store integrity (" + name +
                                        "): " + s.message());
      }
    }
  }
  // Install under state_mu_ so concurrent refreshes cannot regress the
  // catalog to an older snapshot, and install every stale table in one
  // catalog version so a query sees all tables of a commit or none.
  std::vector<db::Database::TableInstall> installs;
  for (auto& [name, stale] : catalog_stale_) {
    if (stale) {
      installs.emplace_back(name, MergedFor(name).table);
      stale = false;
    }
  }
  if (!installs.empty()) {
    superseded = db_->ReplaceTables(std::move(installs));
  }
}

Status DeltaStore::CheckIntegrity() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& [name, delta] : deltas_) {
    Status s = delta.CheckIntegrity();
    if (!s.ok()) {
      return Status::DataLoss("table " + name + ": " + s.message());
    }
  }
  return Status::OK();
}

std::shared_ptr<db::Table> DeltaStore::MergedTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(state_mu_);
  return MergedFor(table).table;
}

DeltaStoreStats DeltaStore::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

void DeltaStore::CorruptForTest(const std::string& table,
                                TableDelta::Corruption kind) {
  std::lock_guard<std::mutex> lock(state_mu_);
  DeltaFor(table).CorruptForTest(kind);
  merged_cache_.erase(table);
}

}  // namespace txn
}  // namespace perfeval
