#ifndef PERFEVAL_DB_COLUMN_H_
#define PERFEVAL_DB_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "db/value.h"

namespace perfeval {
namespace db {

/// An append-only byte arena for string payloads. Bytes once added are
/// never moved or changed (blocks are never reallocated), so a view into
/// the heap stays valid for as long as the heap lives, and any number of
/// threads may read those bytes while the one owner adds more.
class StringHeap {
 public:
  StringHeap() = default;
  StringHeap(const StringHeap&) = delete;
  StringHeap& operator=(const StringHeap&) = delete;

  /// Copies `s` into the heap and returns a view of the copy.
  std::string_view Add(std::string_view s);

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;  ///< next free byte of the newest block.
  size_t left_ = 0;         ///< free bytes after cursor_.
  size_t next_block_ = 256;  ///< doubles per block, up to 1 MiB.
};

/// A typed column vector — the storage unit of the engine (operator-at-a-
/// time columnar execution, MonetDB style, matching the DBMS the paper's
/// examples are measured on).
///
/// Numeric data (int64, double, date) lives in contiguous vectors so hot
/// loops scan raw arrays. String data is a vector of views into shared,
/// immutable StringHeaps, the way the row store keeps a per-table heap:
/// gathers, appends and copies copy 16-byte views and share the source's
/// heaps instead of copying bytes. A column holds every heap its views
/// point into, so a view never outlives its bytes.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}
  /// A copy shares the source's heaps for reading but gets no heap to
  /// write into: its first AppendString starts a fresh one, so appending
  /// to either column never touches bytes the other can see.
  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  size_t size() const {
    switch (type_) {
      case DataType::kInt64:
      case DataType::kDate:
        return ints_.size();
      case DataType::kDouble:
        return doubles_.size();
      case DataType::kString:
        return strings_.size();
    }
    return 0;
  }

  void Reserve(size_t n);

  void AppendInt64(int64_t v) {
    PERFEVAL_CHECK(type_ == DataType::kInt64 || type_ == DataType::kDate);
    ints_.push_back(v);
    NoteAppend(false);
  }
  void AppendDouble(double v) {
    PERFEVAL_CHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
    NoteAppend(false);
  }
  /// Copies the bytes of `v` into this column's own heap.
  void AppendString(std::string_view v);
  void AppendDate(int32_t days) {
    PERFEVAL_CHECK(type_ == DataType::kDate);
    ints_.push_back(days);
    NoteAppend(false);
  }
  /// Appends SQL NULL: a zero/empty placeholder in the payload vector plus
  /// a set bit in the (lazily materialized) null mask. Raw vector kernels
  /// would read the placeholder, so execution falls back to Value-based
  /// row paths whenever has_nulls() is true.
  void AppendNull();
  void AppendValue(const Value& v);

  /// Appends all of `other`'s rows (same type required) — bulk vector
  /// concatenation, null-mask aware, sharing `other`'s string heaps. The
  /// chunked data generator builds per-chunk sub-columns in parallel and
  /// glues them in chunk order.
  void AppendColumn(const Column& other);

  /// Appends `other`'s rows at positions `rows`, in order (same type
  /// required) — a typed gather, null-mask aware, sharing `other`'s
  /// string heaps.
  void AppendGather(const Column& other, const std::vector<uint32_t>& rows);

  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  /// A view into a heap this column holds: valid while the column (or any
  /// column sharing the heap) lives.
  std::string_view GetString(size_t row) const { return strings_[row]; }
  int32_t GetDate(size_t row) const {
    return static_cast<int32_t>(ints_[row]);
  }

  /// Numeric view regardless of concrete numeric type (aborts on strings).
  double GetNumeric(size_t row) const {
    switch (type_) {
      case DataType::kInt64:
      case DataType::kDate:
        return static_cast<double>(ints_[row]);
      case DataType::kDouble:
        return doubles_[row];
      case DataType::kString:
        PERFEVAL_CHECK(false) << "GetNumeric on string column";
    }
    return 0.0;
  }

  Value GetValue(size_t row) const;

  /// True if row holds SQL NULL (the payload slot is a placeholder).
  bool IsNull(size_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  /// True if any NULL was ever appended. The mask is only materialized on
  /// the first NULL, so null-free columns pay one empty() branch.
  bool has_nulls() const { return !nulls_.empty(); }
  /// Raw mask (empty when the column never saw a NULL; else 1 = NULL).
  const std::vector<uint8_t>& null_mask() const { return nulls_; }

  /// Raw vector access for vectorized kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string_view>& strings() const { return strings_; }

  /// Mutable raw access for bulk-build kernels (parallel gather): resize
  /// first, then fill disjoint index ranges from worker threads. Callers
  /// must leave all columns of a table equally sized and then call
  /// Table::FinishBulkLoad(). Strings have no such access: a view may
  /// enter a column only together with its heap (AppendGather,
  /// AppendColumn).
  std::vector<int64_t>& mutable_ints() {
    PERFEVAL_CHECK(type_ == DataType::kInt64 || type_ == DataType::kDate);
    return ints_;
  }
  std::vector<double>& mutable_doubles() {
    PERFEVAL_CHECK(type_ == DataType::kDouble);
    return doubles_;
  }

  /// Approximate in-memory footprint, used to derive page I/O volume. A
  /// string is charged its length plus sizeof(std::string), whatever its
  /// in-memory representation, so page counts do not depend on it.
  size_t ByteSize() const;

 private:
  /// Keeps the lazily materialized null mask in sync after one payload
  /// slot has been pushed.
  void NoteAppend(bool is_null) {
    if (is_null && nulls_.empty()) {
      // Backfill zeros for the rows appended before the first NULL. When
      // the NULL *is* the first row this leaves the mask empty, so the
      // new bit must be pushed unconditionally — guarding it on
      // !nulls_.empty() silently dropped the flag of a leading NULL.
      nulls_.assign(size() - 1, 0);
      nulls_.push_back(1);
      return;
    }
    if (!nulls_.empty()) {
      nulls_.push_back(is_null ? 1 : 0);
    }
  }

  /// Adds `other`'s heaps to the ones this column holds (no duplicates).
  void ShareHeaps(const Column& other);

  DataType type_;
  std::vector<int64_t> ints_;      // kInt64 and kDate payloads.
  std::vector<double> doubles_;    // kDouble payload.
  std::vector<std::string_view> strings_;  // kString payload: heap views.
  std::vector<uint8_t> nulls_;     // empty unless a NULL was appended.
  /// Every heap a view in strings_ may point into, own_heap_ included.
  std::vector<std::shared_ptr<const StringHeap>> heaps_;
  /// The heap AppendString writes into; created on first use and never
  /// handed to another column for writing.
  std::shared_ptr<StringHeap> own_heap_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_COLUMN_H_
