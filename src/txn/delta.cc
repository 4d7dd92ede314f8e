#include "txn/delta.h"

#include <utility>

#include "common/check.h"

namespace perfeval {
namespace txn {

TableDelta::TableDelta(std::shared_ptr<const db::Table> base)
    : base_(std::move(base)),
      base_deleted_(base_->num_rows(), 0),
      insert_table_(base_->schema()) {
  PERFEVAL_CHECK(base_ != nullptr);
}

void TableDelta::ApplyInsert(const std::vector<std::vector<db::Value>>& rows) {
  for (const auto& row : rows) {
    insert_table_.AppendRow(row);
    insert_deleted_.push_back(0);
    insert_rowids_.push_back(next_rowid_++);
  }
}

Status TableDelta::ValidateDelete(
    const std::vector<uint32_t>& base_rows,
    const std::vector<uint32_t>& insert_rows) const {
  for (uint32_t r : base_rows) {
    if (r >= base_deleted_.size()) {
      return Status::DataLoss("delete targets base row " + std::to_string(r) +
                              " beyond " + std::to_string(base_deleted_.size()));
    }
    if (base_deleted_[r]) {
      return Status::Aborted("base row " + std::to_string(r) +
                             " already deleted");
    }
  }
  for (uint32_t r : insert_rows) {
    if (r >= insert_deleted_.size()) {
      return Status::DataLoss("delete targets insert row " +
                              std::to_string(r) + " beyond " +
                              std::to_string(insert_deleted_.size()));
    }
    if (insert_deleted_[r]) {
      return Status::Aborted("insert row " + std::to_string(r) +
                             " already deleted");
    }
  }
  // A single record naming the same row twice is also a double delete.
  for (size_t i = 0; i < base_rows.size(); ++i) {
    for (size_t j = i + 1; j < base_rows.size(); ++j) {
      if (base_rows[i] == base_rows[j]) {
        return Status::Aborted("base row " + std::to_string(base_rows[i]) +
                               " deleted twice in one record");
      }
    }
  }
  for (size_t i = 0; i < insert_rows.size(); ++i) {
    for (size_t j = i + 1; j < insert_rows.size(); ++j) {
      if (insert_rows[i] == insert_rows[j]) {
        return Status::Aborted("insert row " + std::to_string(insert_rows[i]) +
                               " deleted twice in one record");
      }
    }
  }
  return Status::OK();
}

Status TableDelta::ApplyDelete(const std::vector<uint32_t>& base_rows,
                               const std::vector<uint32_t>& insert_rows) {
  // Validate everything before touching anything: a rejected record must
  // leave the delta exactly as it was (per-record atomicity, identical at
  // runtime and on replay).
  PERFEVAL_RETURN_IF_ERROR(ValidateDelete(base_rows, insert_rows));
  for (uint32_t r : base_rows) {
    base_deleted_[r] = 1;
  }
  base_deleted_count_ += base_rows.size();
  for (uint32_t r : insert_rows) {
    insert_deleted_[r] = 1;
  }
  insert_deleted_count_ += insert_rows.size();
  return Status::OK();
}

namespace {

/// Positions of the rows whose delete flag is clear.
std::vector<uint32_t> LiveRows(const std::vector<uint8_t>& deleted) {
  std::vector<uint32_t> rows;
  rows.reserve(deleted.size());
  for (size_t r = 0; r < deleted.size(); ++r) {
    if (!deleted[r]) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

}  // namespace

MergedSnapshot TableDelta::BuildMerged() const {
  // Column-wise: with no deletes, two bulk appends; otherwise a typed
  // gather of the live rows of each side. Either way no row is boxed into
  // Values, and the row order (live base rows, then live inserts) is the
  // same.
  MergedSnapshot out;
  out.table = std::make_shared<db::Table>(base_->schema());
  out.table->ReserveRows(num_live_rows());
  out.origins.reserve(num_live_rows());
  auto append_side = [&](const db::Table& side,
                         const std::vector<uint8_t>& deleted,
                         size_t deleted_count, bool from_insert) {
    if (deleted_count == 0) {
      out.table->AppendTable(side);
      for (size_t r = 0; r < side.num_rows(); ++r) {
        out.origins.push_back({from_insert, static_cast<uint32_t>(r)});
      }
      return;
    }
    std::vector<uint32_t> live = LiveRows(deleted);
    out.table->AppendGather(side, live);
    for (uint32_t r : live) {
      out.origins.push_back({from_insert, r});
    }
  };
  append_side(*base_, base_deleted_, base_deleted_count_, false);
  append_side(insert_table_, insert_deleted_, insert_deleted_count_, true);
  return out;
}

Status TableDelta::CheckIntegrity() const {
  if (base_deleted_.size() != base_->num_rows()) {
    return Status::DataLoss("base delete bitmap covers " +
                            std::to_string(base_deleted_.size()) +
                            " rows, base has " +
                            std::to_string(base_->num_rows()));
  }
  if (insert_deleted_.size() != insert_table_.num_rows() ||
      insert_rowids_.size() != insert_table_.num_rows()) {
    return Status::DataLoss("insert-side bitmap/rowid length mismatch");
  }
  size_t base_pop = 0;
  for (uint8_t b : base_deleted_) {
    if (b > 1) {
      return Status::DataLoss("base delete bitmap holds a non-boolean flag");
    }
    base_pop += b;
  }
  if (base_pop != base_deleted_count_) {
    return Status::DataLoss(
        "base delete bitmap popcount " + std::to_string(base_pop) +
        " != counter " + std::to_string(base_deleted_count_) +
        " (a row was marked deleted twice)");
  }
  size_t insert_pop = 0;
  for (uint8_t b : insert_deleted_) {
    if (b > 1) {
      return Status::DataLoss("insert delete bitmap holds a non-boolean flag");
    }
    insert_pop += b;
  }
  if (insert_pop != insert_deleted_count_) {
    return Status::DataLoss(
        "insert delete bitmap popcount " + std::to_string(insert_pop) +
        " != counter " + std::to_string(insert_deleted_count_) +
        " (a row was marked deleted twice)");
  }
  for (size_t i = 1; i < insert_rowids_.size(); ++i) {
    if (insert_rowids_[i] <= insert_rowids_[i - 1]) {
      return Status::DataLoss("insert row ids not strictly increasing at " +
                              std::to_string(i));
    }
  }
  if (!insert_rowids_.empty() && insert_rowids_.back() >= next_rowid_) {
    return Status::DataLoss("insert row id counter behind assigned ids");
  }
  return Status::OK();
}

void TableDelta::Compact() {
  if (insert_deleted_count_ == 0) {
    return;
  }
  std::vector<uint32_t> live = LiveRows(insert_deleted_);
  db::Table compacted(base_->schema());
  for (size_t c = 0; c < compacted.num_columns(); ++c) {
    const db::Column& src = insert_table_.column(c);
    db::Column& dst = compacted.column(c);
    if (src.type() != db::DataType::kString) {
      dst.AppendGather(src, live);
      continue;
    }
    // A gather would share the old heap, deleted rows' bytes included;
    // copying the live strings into a fresh heap lets compaction free them.
    for (uint32_t r : live) {
      if (src.IsNull(r)) {
        dst.AppendNull();
      } else {
        dst.AppendString(src.GetString(r));
      }
    }
  }
  compacted.FinishBulkLoad();
  std::vector<uint64_t> rowids;
  rowids.reserve(live.size());
  for (uint32_t r : live) {
    rowids.push_back(insert_rowids_[r]);
  }
  insert_table_ = std::move(compacted);
  insert_rowids_ = std::move(rowids);
  insert_deleted_.assign(insert_table_.num_rows(), 0);
  insert_deleted_count_ = 0;
}

void TableDelta::Encode(std::string* out) const {
  // Deleted base rows as a sparse position list: checkpoints stay
  // proportional to the delta, not the base.
  PutU64(out, static_cast<uint64_t>(base_->num_rows()));
  PutU32(out, static_cast<uint32_t>(base_deleted_count_));
  for (size_t r = 0; r < base_deleted_.size(); ++r) {
    if (base_deleted_[r]) {
      PutU32(out, static_cast<uint32_t>(r));
    }
  }
  PutU64(out, next_rowid_);
  PutU32(out, static_cast<uint32_t>(insert_table_.num_rows()));
  size_t cols = insert_table_.num_columns();
  PutU32(out, static_cast<uint32_t>(cols));
  for (size_t r = 0; r < insert_table_.num_rows(); ++r) {
    PutU8(out, insert_deleted_[r]);
    PutU64(out, insert_rowids_[r]);
    for (size_t c = 0; c < cols; ++c) {
      PutValue(out, insert_table_.ValueAt(r, c));
    }
  }
}

Result<TableDelta> TableDelta::Decode(ByteCursor* c,
                                      std::shared_ptr<const db::Table> base) {
  TableDelta delta(std::move(base));
  uint64_t base_rows = c->GetU64();
  if (base_rows != delta.base_->num_rows()) {
    return Status::DataLoss("checkpoint base row count " +
                            std::to_string(base_rows) +
                            " != pristine base " +
                            std::to_string(delta.base_->num_rows()));
  }
  uint32_t num_deleted = c->GetU32();
  for (uint32_t i = 0; i < num_deleted && c->ok(); ++i) {
    uint32_t r = c->GetU32();
    if (r >= delta.base_deleted_.size() || delta.base_deleted_[r]) {
      return Status::DataLoss("checkpoint base delete list invalid");
    }
    delta.base_deleted_[r] = 1;
    ++delta.base_deleted_count_;
  }
  uint64_t next_rowid = c->GetU64();
  uint32_t num_inserts = c->GetU32();
  uint32_t cols = c->GetU32();
  if (c->ok() && cols != delta.base_->num_columns()) {
    return Status::DataLoss("checkpoint column count mismatch");
  }
  std::vector<db::Value> row(cols);
  for (uint32_t r = 0; r < num_inserts && c->ok(); ++r) {
    uint8_t deleted = c->GetU8();
    uint64_t rowid = c->GetU64();
    for (uint32_t j = 0; j < cols && c->ok(); ++j) {
      row[j] = GetValue(c);
    }
    if (!c->ok()) {
      break;
    }
    if (deleted > 1) {
      return Status::DataLoss("checkpoint insert deleted flag invalid");
    }
    for (uint32_t j = 0; j < cols; ++j) {
      if (row[j].type() != delta.base_->schema().column(j).type) {
        return Status::DataLoss("checkpoint insert row type mismatch");
      }
    }
    delta.insert_table_.AppendRow(row);
    delta.insert_deleted_.push_back(deleted);
    delta.insert_deleted_count_ += deleted;
    delta.insert_rowids_.push_back(rowid);
  }
  delta.next_rowid_ = next_rowid;
  if (!c->ok()) {
    return Status::DataLoss("checkpoint delta truncated or corrupt");
  }
  Status integrity = delta.CheckIntegrity();
  if (!integrity.ok()) {
    return integrity;
  }
  return delta;
}

void TableDelta::CorruptForTest(Corruption kind) {
  switch (kind) {
    case Corruption::kDeleteCountMismatch:
      // Mark a row deleted behind the counter's back — the state a
      // double-marking bug would leave.
      PERFEVAL_CHECK(!base_deleted_.empty());
      base_deleted_[0] = 1;
      break;
    case Corruption::kRowIdOrder:
      PERFEVAL_CHECK(insert_rowids_.size() >= 2);
      std::swap(insert_rowids_[0], insert_rowids_[1]);
      break;
  }
}

}  // namespace txn
}  // namespace perfeval
