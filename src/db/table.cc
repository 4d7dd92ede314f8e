#include "db/table.h"

#include "common/string_util.h"

namespace perfeval {
namespace db {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t Schema::MustIndexOf(const std::string& name) const {
  int index = IndexOf(name);
  PERFEVAL_CHECK_GE(index, 0) << "no column named " << name;
  return static_cast<size_t>(index);
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += columns_[i].name;
    out += " ";
    out += DataTypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_.emplace_back(schema_.column(i).type);
  }
}

void Table::AppendRow(const std::vector<Value>& values) {
  PERFEVAL_CHECK_EQ(values.size(), columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendValue(values[i]);
  }
  ++num_rows_;
}

void Table::AppendTable(const Table& other) {
  PERFEVAL_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendColumn(other.columns_[i]);
  }
  num_rows_ += other.num_rows_;
}

void Table::AppendGather(const Table& other,
                         const std::vector<uint32_t>& rows) {
  PERFEVAL_CHECK_EQ(columns_.size(), other.columns_.size());
  for (uint32_t r : rows) {
    PERFEVAL_CHECK_LT(r, other.num_rows_);
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendGather(other.columns_[i], rows);
  }
  num_rows_ += rows.size();
}

void Table::FinishBulkLoad() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return;
  }
  num_rows_ = columns_[0].size();
  for (const Column& column : columns_) {
    PERFEVAL_CHECK_EQ(column.size(), num_rows_)
        << "bulk load produced ragged columns";
  }
}

void Table::ReserveRows(size_t n) {
  for (Column& column : columns_) {
    column.Reserve(n);
  }
}

size_t Table::ByteSize() const {
  size_t bytes = 0;
  for (const Column& column : columns_) {
    bytes += column.ByteSize();
  }
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<size_t> widths(num_columns());
  size_t rows_to_show = std::min(num_rows_, max_rows);
  for (size_t c = 0; c < num_columns(); ++c) {
    widths[c] = schema_.column(c).name.size();
    for (size_t r = 0; r < rows_to_show; ++r) {
      widths[c] = std::max(widths[c], ValueAt(r, c).ToString().size());
    }
  }
  std::string out;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c > 0) {
      out += " | ";
    }
    out += PadRight(schema_.column(c).name, widths[c]);
  }
  out += "\n";
  for (size_t r = 0; r < rows_to_show; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) {
        out += " | ";
      }
      out += PadRight(ValueAt(r, c).ToString(), widths[c]);
    }
    out += "\n";
  }
  if (rows_to_show < num_rows_) {
    out += StrFormat("... (%zu rows total)\n", num_rows_);
  }
  return out;
}

}  // namespace db
}  // namespace perfeval
