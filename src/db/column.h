#ifndef PERFEVAL_DB_COLUMN_H_
#define PERFEVAL_DB_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "db/value.h"

namespace perfeval {
namespace db {

/// A typed column vector — the storage unit of the engine (operator-at-a-
/// time columnar execution, MonetDB style, matching the DBMS the paper's
/// examples are measured on).
///
/// Numeric data (int64, double, date) lives in contiguous vectors so hot
/// loops scan raw arrays; string data lives in a std::string vector.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

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
  void AppendString(std::string v) {
    PERFEVAL_CHECK(type_ == DataType::kString);
    strings_.push_back(std::move(v));
    NoteAppend(false);
  }
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
  /// concatenation, null-mask aware. The chunked data generator builds
  /// per-chunk sub-columns in parallel and glues them in chunk order.
  void AppendColumn(const Column& other);

  /// Appends `other`'s rows at positions `rows`, in order (same type
  /// required) — a typed gather, null-mask aware.
  void AppendGather(const Column& other, const std::vector<uint32_t>& rows);

  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  const std::string& GetString(size_t row) const { return strings_[row]; }
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
  const std::vector<std::string>& strings() const { return strings_; }

  /// Mutable raw access for bulk-build kernels (parallel gather): resize
  /// first, then fill disjoint index ranges from worker threads. Callers
  /// must leave all columns of a table equally sized and then call
  /// Table::FinishBulkLoad().
  std::vector<int64_t>& mutable_ints() {
    PERFEVAL_CHECK(type_ == DataType::kInt64 || type_ == DataType::kDate);
    return ints_;
  }
  std::vector<double>& mutable_doubles() {
    PERFEVAL_CHECK(type_ == DataType::kDouble);
    return doubles_;
  }
  std::vector<std::string>& mutable_strings() {
    PERFEVAL_CHECK(type_ == DataType::kString);
    return strings_;
  }

  /// Approximate in-memory footprint, used to derive page I/O volume.
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

  DataType type_;
  std::vector<int64_t> ints_;      // kInt64 and kDate payloads.
  std::vector<double> doubles_;    // kDouble payload.
  std::vector<std::string> strings_;
  std::vector<uint8_t> nulls_;     // empty unless a NULL was appended.
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_COLUMN_H_
