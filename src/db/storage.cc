#include "db/storage.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace perfeval {
namespace db {
namespace {

/// Exact bytes of rows [begin, end) of a column, consistent with
/// Column::ByteSize(): fixed-width payloads plus, for strings, the actual
/// per-row footprint.
size_t ChunkByteSize(const Column& column, size_t begin, size_t end) {
  switch (column.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      return (end - begin) * sizeof(int64_t);
    case DataType::kDouble:
      return (end - begin) * sizeof(double);
    case DataType::kString: {
      size_t bytes = 0;
      for (size_t r = begin; r < end; ++r) {
        bytes += column.GetString(r).size() + sizeof(std::string);
      }
      return bytes;
    }
  }
  return 0;
}

// Page key layout: table id | version | column | chunk. Versions wrap;
// two versions of a table whose install counts differ by a multiple of
// 2^12 could alias, but an install evicts every other version's pages,
// so only a query spanning 4096 installs could observe it.
constexpr int kChunkBits = 28;
constexpr int kColumnBits = 12;
constexpr int kVersionBits = 12;
constexpr int kTableBits = 12;
constexpr uint64_t kVersionMask = (uint64_t{1} << kVersionBits) - 1;
static_assert(kMaxTableIds == uint32_t{1} << kTableBits);

uint64_t PageKey(const TableLayout& table, uint32_t column_id,
                 uint32_t chunk) {
  return (static_cast<uint64_t>(table.table_id)
          << (kVersionBits + kColumnBits + kChunkBits)) |
         ((table.version & kVersionMask) << (kColumnBits + kChunkBits)) |
         (static_cast<uint64_t>(column_id) << kChunkBits) | chunk;
}

uint32_t KeyTable(uint64_t key) {
  return static_cast<uint32_t>(key >> (kVersionBits + kColumnBits +
                                       kChunkBits));
}

uint32_t KeyVersion(uint64_t key) {
  return static_cast<uint32_t>((key >> (kColumnBits + kChunkBits)) &
                               kVersionMask);
}

}  // namespace

std::string StorageStats::ToString() const {
  std::string out = StrFormat(
      "pages: %lld hits, %lld misses; %lld bytes read; %.3f ms stall",
      static_cast<long long>(page_hits), static_cast<long long>(page_misses),
      static_cast<long long>(bytes_read), stall_ns / 1e6);
  if (bytes_written != 0 || fsyncs != 0 || write_stall_ns != 0) {
    out += StrFormat("; %lld bytes written, %lld fsyncs, %.3f ms write stall",
                     static_cast<long long>(bytes_written),
                     static_cast<long long>(fsyncs), write_stall_ns / 1e6);
  }
  return out;
}

TableLayout BuildTableLayout(const Table& table, size_t rows_per_page) {
  PERFEVAL_CHECK_GE(rows_per_page, 1u);
  TableLayout layout;
  size_t rows = table.num_rows();
  layout.num_rows = rows;
  layout.num_chunks = (rows + rows_per_page - 1) / rows_per_page;
  PERFEVAL_CHECK_LT(layout.num_chunks, size_t{1} << kChunkBits)
      << "too many pages per column for the page key";
  PERFEVAL_CHECK_LT(table.num_columns(), size_t{1} << kColumnBits)
      << "too many columns for the page key";
  layout.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    ColumnLayout meta;
    meta.chunk_bytes.resize(layout.num_chunks, 0);
    meta.zone_maps.resize(layout.num_chunks);
    for (size_t chunk = 0; chunk < layout.num_chunks; ++chunk) {
      size_t begin = chunk * rows_per_page;
      size_t end = std::min(rows, begin + rows_per_page);
      meta.chunk_bytes[chunk] = ChunkByteSize(column, begin, end);
      if (!IsNumeric(column.type())) {
        continue;
      }
      ZoneMap& zm = meta.zone_maps[chunk];
      // NaN-safe min/max fold: NaN poisons std::min/std::max (the result
      // depends on operand order), so NaN values are excluded from the
      // bounds and flagged instead; a zone holding a NaN is never pruned.
      // NULL rows get the same treatment: their payload slot is a
      // placeholder that must not enter the bounds, and predicates over
      // the zone cannot prune rows the row-path may still need to see.
      bool seen = false;
      for (size_t r = begin; r < end; ++r) {
        if (column.IsNull(r)) {
          zm.has_nan = true;
          continue;
        }
        double v = column.GetNumeric(r);
        if (std::isnan(v)) {
          zm.has_nan = true;
          continue;
        }
        if (!seen) {
          zm.min = v;
          zm.max = v;
          seen = true;
        } else {
          if (v < zm.min) zm.min = v;
          if (v > zm.max) zm.max = v;
        }
      }
      zm.valid = seen;
    }
    layout.columns.push_back(std::move(meta));
  }
  return layout;
}

StorageManager::StorageManager(DiskModel disk, size_t buffer_pool_pages,
                               size_t rows_per_page)
    : disk_(disk),
      buffer_pool_pages_(buffer_pool_pages),
      rows_per_page_(rows_per_page) {
  PERFEVAL_CHECK_GE(buffer_pool_pages_, 1u);
  PERFEVAL_CHECK_GE(rows_per_page_, 1u);
}

void StorageManager::EvictTable(uint32_t table_id, uint32_t keep_version) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (KeyTable(*it) == table_id &&
        KeyVersion(*it) != (keep_version & kVersionMask)) {
      resident_.erase(*it);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = stream_heads_.begin(); it != stream_heads_.end();) {
    if (static_cast<uint32_t>(it->first >> 32) == table_id) {
      it = stream_heads_.erase(it);
    } else {
      ++it;
    }
  }
}

void StorageManager::TouchPageLocked(const TableLayout& table,
                                     uint32_t column_id, uint32_t chunk,
                                     StorageStats* charged) {
  PERFEVAL_CHECK_LT(column_id, table.columns.size())
      << "page outside the table layout";
  PERFEVAL_CHECK_LT(chunk, table.num_chunks)
      << "page outside the table layout";
  uint64_t key = PageKey(table, column_id, chunk);
  uint64_t stream = (static_cast<uint64_t>(table.table_id) << 32) |
                    column_id;
  auto it = resident_.find(key);
  if (it != resident_.end()) {
    // Hit: move to MRU position. The stream head advances on hits too —
    // a warm page in the middle of a sequential scan must not make the
    // next miss look like a random access and pay a spurious seek.
    lru_.splice(lru_.begin(), lru_, it->second);
    stream_heads_[stream] = chunk;
    ++charged->page_hits;
    return;
  }
  // Miss: charge the disk model. Sequential pages of the same column skip
  // the seek (per-column stream heads model OS readahead per file).
  size_t bytes = table.columns[column_id].chunk_bytes[chunk];
  auto head = stream_heads_.find(stream);
  bool sequential = head != stream_heads_.end() &&
                    chunk == head->second + 1;
  int64_t stall = static_cast<int64_t>(bytes * disk_.ns_per_byte);
  if (!sequential) {
    stall += disk_.seek_ns;
  }
  stream_heads_[stream] = chunk;
  ++charged->page_misses;
  charged->bytes_read += static_cast<int64_t>(bytes);
  charged->stall_ns += stall;

  // Insert at MRU; evict from LRU tail as needed.
  lru_.push_front(key);
  resident_[key] = lru_.begin();
  while (resident_.size() > buffer_pool_pages_) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
  }
}

StorageStats StorageManager::TouchMorsel(
    const TableLayout& table, const std::vector<uint32_t>& column_ids,
    size_t row_begin, size_t row_end) {
  StorageStats charged;
  if (row_end <= row_begin || column_ids.empty()) {
    return charged;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t first_chunk = static_cast<uint32_t>(row_begin / rows_per_page_);
  uint32_t last_chunk =
      static_cast<uint32_t>((row_end - 1) / rows_per_page_);
  for (uint32_t column_id : column_ids) {
    for (uint32_t chunk = first_chunk; chunk <= last_chunk; ++chunk) {
      TouchPageLocked(table, column_id, chunk, &charged);
    }
  }
  stats_ += charged;
  return charged;
}

StorageStats StorageManager::TouchColumn(const TableLayout& table,
                                         uint32_t column_id) {
  StorageStats charged;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t chunk = 0; chunk < table.num_chunks; ++chunk) {
    TouchPageLocked(table, column_id, chunk, &charged);
  }
  stats_ += charged;
  return charged;
}

void StorageManager::FlushCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  resident_.clear();
  stream_heads_.clear();
}

StorageStats StorageManager::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void StorageManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = StorageStats();
}

}  // namespace db
}  // namespace perfeval
