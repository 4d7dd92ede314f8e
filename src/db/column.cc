#include "db/column.h"

#include <algorithm>
#include <cstring>

namespace perfeval {
namespace db {

std::string_view StringHeap::Add(std::string_view s) {
  if (s.empty()) {
    return {};
  }
  if (s.size() > left_) {
    // A new block; the old one's tail is abandoned, never reused, so the
    // bytes before it stay exactly as readers saw them.
    size_t size = std::max(next_block_, s.size());
    blocks_.push_back(std::make_unique<char[]>(size));
    cursor_ = blocks_.back().get();
    left_ = size;
    next_block_ = std::min<size_t>(next_block_ * 2, size_t{1} << 20);
  }
  std::memcpy(cursor_, s.data(), s.size());
  std::string_view view(cursor_, s.size());
  cursor_ += s.size();
  left_ -= s.size();
  return view;
}

Column::Column(const Column& other)
    : type_(other.type_),
      ints_(other.ints_),
      doubles_(other.doubles_),
      strings_(other.strings_),
      nulls_(other.nulls_),
      heaps_(other.heaps_) {}

Column& Column::operator=(const Column& other) {
  if (this != &other) {
    type_ = other.type_;
    ints_ = other.ints_;
    doubles_ = other.doubles_;
    strings_ = other.strings_;
    nulls_ = other.nulls_;
    heaps_ = other.heaps_;
    own_heap_.reset();
  }
  return *this;
}

void Column::AppendString(std::string_view v) {
  PERFEVAL_CHECK(type_ == DataType::kString);
  if (own_heap_ == nullptr && !v.empty()) {
    own_heap_ = std::make_shared<StringHeap>();
    heaps_.push_back(own_heap_);
  }
  strings_.push_back(v.empty() ? std::string_view() : own_heap_->Add(v));
  NoteAppend(false);
}

void Column::ShareHeaps(const Column& other) {
  for (const std::shared_ptr<const StringHeap>& heap : other.heaps_) {
    if (std::find(heaps_.begin(), heaps_.end(), heap) == heaps_.end()) {
      heaps_.push_back(heap);
    }
  }
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
  }
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
  NoteAppend(true);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case DataType::kDate:
      AppendDate(v.AsDate());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString());
      break;
  }
}

void Column::AppendColumn(const Column& other) {
  PERFEVAL_CHECK(type_ == other.type_) << "AppendColumn type mismatch";
  size_t old_size = size();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin(),
                      other.doubles_.end());
      break;
    case DataType::kString:
      ShareHeaps(other);
      strings_.insert(strings_.end(), other.strings_.begin(),
                      other.strings_.end());
      break;
  }
  if (!other.nulls_.empty()) {
    if (nulls_.empty()) {
      nulls_.assign(old_size, 0);  // backfill: prior rows were non-null.
    }
    nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
  } else if (!nulls_.empty()) {
    nulls_.resize(nulls_.size() + other.size(), 0);
  }
}

void Column::AppendGather(const Column& other,
                          const std::vector<uint32_t>& rows) {
  PERFEVAL_CHECK(type_ == other.type_) << "AppendGather type mismatch";
  size_t old_size = size();
  auto gather = [&rows](auto& dst, const auto& src) {
    dst.reserve(dst.size() + rows.size());
    for (uint32_t r : rows) {
      dst.push_back(src[r]);
    }
  };
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      gather(ints_, other.ints_);
      break;
    case DataType::kDouble:
      gather(doubles_, other.doubles_);
      break;
    case DataType::kString:
      ShareHeaps(other);
      gather(strings_, other.strings_);
      break;
  }
  // The mask stays lazy, as the one-value appends keep it: it exists
  // only once a NULL has been appended, so gathering only non-NULL rows
  // of a nullable column adds none.
  bool gathers_null =
      !other.nulls_.empty() &&
      std::any_of(rows.begin(), rows.end(),
                  [&other](uint32_t r) { return other.nulls_[r] != 0; });
  // Keyed on had_mask, not on nulls_ after the backfill: backfilling an
  // empty column leaves the mask empty (NoteAppend's leading-NULL case).
  bool had_mask = !nulls_.empty();
  if (!gathers_null && !had_mask) {
    return;
  }
  if (!had_mask) {
    nulls_.assign(old_size, 0);  // backfill: prior rows were non-null.
  }
  if (other.nulls_.empty()) {
    nulls_.resize(nulls_.size() + rows.size(), 0);
  } else {
    gather(nulls_, other.nulls_);
  }
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) {
    return Value::Null(type_);
  }
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(ints_[row]);
    case DataType::kDate:
      return Value::Date(static_cast<int32_t>(ints_[row]));
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(std::string(strings_[row]));
  }
  return Value();
}

size_t Column::ByteSize() const {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      return ints_.size() * sizeof(int64_t);
    case DataType::kDouble:
      return doubles_.size() * sizeof(double);
    case DataType::kString: {
      size_t bytes = 0;
      for (std::string_view s : strings_) {
        bytes += s.size() + sizeof(std::string);
      }
      return bytes;
    }
  }
  return 0;
}

}  // namespace db
}  // namespace perfeval
