#include "engine/row_layout.h"

#include <algorithm>
#include <string>
#include <utility>

namespace perfeval {
namespace engine {

db::Value RowBlock::ValueAt(size_t r, size_t c) const {
  db::DataType type = schema().column(c).type;
  if (IsNull(r, c)) {
    return db::Value::Null(type);
  }
  switch (type) {
    case db::DataType::kInt64:
      return db::Value::Int64(Int64At(r, c));
    case db::DataType::kDouble:
      return db::Value::Double(DoubleAt(r, c));
    case db::DataType::kDate:
      return db::Value::Date(static_cast<int32_t>(Int64At(r, c)));
    case db::DataType::kString:
      return db::Value::String(std::string(StringAt(r, c)));
  }
  return db::Value::Null(type);
}

void RowBlock::SetValue(uint8_t* row, size_t c, const db::Value& v) {
  if (v.is_null()) {
    SetNull(row, c);
    return;
  }
  switch (v.type()) {
    case db::DataType::kInt64:
      SetInt64(row, c, v.AsInt64());
      return;
    case db::DataType::kDouble:
      SetDouble(row, c, v.AsDouble());
      return;
    case db::DataType::kDate:
      SetInt64(row, c, static_cast<int64_t>(v.AsDate()));
      return;
    case db::DataType::kString:
      SetString(row, c, v.AsString());
      return;
  }
}

RowBlock PackTable(const db::Table& table) {
  RowBlock block(RowLayout::For(table.schema()));
  block.ReserveRows(table.num_rows());
  size_t ncols = table.num_columns();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    uint8_t* row = block.AppendRow();
    for (size_t c = 0; c < ncols; ++c) {
      const db::Column& src = table.column(c);
      if (src.IsNull(r)) {
        block.SetNull(row, c);
        continue;
      }
      switch (src.type()) {
        case db::DataType::kInt64:
        case db::DataType::kDate:
          block.SetInt64(row, c, src.GetInt64(r));
          break;
        case db::DataType::kDouble:
          block.SetDouble(row, c, src.GetDouble(r));
          break;
        case db::DataType::kString: {
          // SetString may reallocate the heap; re-derive `row` afterwards
          // is unnecessary because the heap and row bytes are distinct
          // vectors — only heap bytes move.
          block.SetString(row, c, src.GetString(r));
          break;
        }
      }
    }
  }
  return block;
}

void UnpackRows(const RowBlock& block, size_t begin, size_t end,
                db::Table* out) {
  size_t ncols = block.schema().num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    db::Column& dst = out->column(c);
    db::DataType type = block.schema().column(c).type;
    for (size_t r = begin; r < end; ++r) {
      if (block.IsNull(r, c)) {
        dst.AppendNull();
        continue;
      }
      switch (type) {
        case db::DataType::kInt64:
          dst.AppendInt64(block.Int64At(r, c));
          break;
        case db::DataType::kDate:
          dst.AppendDate(static_cast<int32_t>(block.Int64At(r, c)));
          break;
        case db::DataType::kDouble:
          dst.AppendDouble(block.DoubleAt(r, c));
          break;
        case db::DataType::kString:
          dst.AppendString(block.StringAt(r, c));
          break;
      }
    }
  }
  out->FinishBulkLoad();
}

std::shared_ptr<db::Table> UnpackToTable(const RowBlock& block) {
  auto out = std::make_shared<db::Table>(block.schema());
  out->ReserveRows(block.num_rows());
  UnpackRows(block, 0, block.num_rows(), out.get());
  return out;
}

db::TableLayout BuildRowLayout(const RowBlock& block, size_t rows_per_page) {
  PERFEVAL_CHECK_GT(rows_per_page, 0u);
  std::vector<size_t> string_cols;
  for (size_t c = 0; c < block.schema().num_columns(); ++c) {
    if (block.schema().column(c).type == db::DataType::kString) {
      string_cols.push_back(c);
    }
  }
  db::TableLayout layout;
  layout.num_rows = block.num_rows();
  layout.num_chunks = (layout.num_rows + rows_per_page - 1) / rows_per_page;
  db::ColumnLayout& pages = layout.columns.emplace_back();
  pages.chunk_bytes.resize(layout.num_chunks, 0);
  pages.zone_maps.resize(layout.num_chunks);
  for (size_t p = 0; p < layout.num_chunks; ++p) {
    size_t begin = p * rows_per_page;
    size_t end = std::min(layout.num_rows, begin + rows_per_page);
    size_t bytes = (end - begin) * block.layout().stride();
    for (size_t r = begin; r < end; ++r) {
      for (size_t c : string_cols) {
        if (!block.IsNull(r, c)) {
          bytes += StringHeap::SlotLength(block.RawSlotAt(r, c));
        }
      }
    }
    pages.chunk_bytes[p] = bytes;
  }
  return layout;
}

}  // namespace engine
}  // namespace perfeval
