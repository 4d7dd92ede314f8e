#include "db/csv_loader.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace perfeval {
namespace db {
namespace {

/// Splits one CSV record honoring quotes. Records may span lines when a
/// quoted field contains '\n'; the caller passes the full text, an
/// advancing cursor, and a running physical line counter (1-based, kept
/// in step with the cursor so error messages can point at the file).
/// `*saw_quote` reports whether the record used any quoting — a line
/// holding only `""` yields the same single empty field as a truly blank
/// line, and the caller must not skip it as blank.
Result<std::vector<std::string>> ReadRecord(const std::string& text,
                                            size_t* cursor, size_t* line,
                                            bool* saw_quote) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t quote_line = 0;   ///< line where the open quote started.
  size_t quote_field = 0;  ///< 1-based field index of that quote.
  *saw_quote = false;
  size_t i = *cursor;
  const size_t n = text.size();
  for (; i < n; ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') {
          ++*line;
        }
        field += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      *saw_quote = true;
      quote_line = *line;
      quote_field = fields.size() + 1;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++*line;
      ++i;
      break;
    } else if (c == '\r') {
      // swallow (handles \r\n).
    } else {
      field += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        StrFormat("unterminated quoted field in CSV: quote opened at "
                  "line %zu, field %zu",
                  quote_line, quote_field));
  }
  fields.push_back(std::move(field));
  *cursor = i;
  return fields;
}

bool IsInt(const std::string& s) { return ParseInt64(s).has_value(); }
bool IsDouble(const std::string& s) { return ParseDouble(s).has_value(); }
bool IsDate(const std::string& s) {
  int32_t days = 0;
  return ParseDate(s, &days);
}

DataType InferColumnType(const std::vector<std::vector<std::string>>& rows,
                         size_t column) {
  bool all_int = true;
  bool all_date = true;
  bool all_double = true;
  size_t non_empty = 0;
  for (const std::vector<std::string>& row : rows) {
    const std::string& value = row[column];
    if (value.empty()) {
      continue;  // empty fields load as NULL; they don't vote on the type.
    }
    ++non_empty;
    all_int &= IsInt(value);
    all_date &= IsDate(value);
    all_double &= IsDouble(value);
  }
  if (non_empty == 0) {
    return DataType::kString;
  }
  if (all_int) {
    return DataType::kInt64;
  }
  if (all_date) {
    return DataType::kDate;
  }
  if (all_double) {
    return DataType::kDouble;
  }
  return DataType::kString;
}

Result<Value> ParseTyped(const std::string& text, DataType type,
                         size_t row_number, size_t line_number,
                         const std::string& column) {
  auto fail = [&](const char* what) {
    return Status::InvalidArgument(
        StrFormat("row %zu (line %zu), column '%s': '%s' is not a valid %s",
                  row_number, line_number, column.c_str(), text.c_str(),
                  what));
  };
  if (text.empty() && type != DataType::kString) {
    // An empty numeric/date field is NULL (a string field stays "").
    return Value::Null(type);
  }
  switch (type) {
    case DataType::kInt64: {
      std::optional<int64_t> v = ParseInt64(text);
      if (!v) {
        return fail("int64");
      }
      return Value::Int64(*v);
    }
    case DataType::kDouble: {
      std::optional<double> v = ParseDouble(text);
      if (!v) {
        return fail("double");
      }
      return Value::Double(*v);
    }
    case DataType::kDate: {
      int32_t days = 0;
      if (!ParseDate(text, &days)) {
        return fail("date (YYYY-MM-DD)");
      }
      return Value::Date(days);
    }
    case DataType::kString:
      return Value::String(text);
  }
  return fail("value");
}

}  // namespace

Result<std::shared_ptr<Table>> ParseCsvText(const std::string& text,
                                            const Schema* schema) {
  size_t cursor = 0;
  size_t line = 1;
  bool saw_quote = false;
  PERFEVAL_ASSIGN_OR_RETURN(std::vector<std::string> header,
                            ReadRecord(text, &cursor, &line, &saw_quote));
  if (header.size() == 1 && header[0].empty() && !saw_quote) {
    return Status::InvalidArgument("CSV has no header line");
  }
  if (schema != nullptr) {
    if (schema->num_columns() != header.size()) {
      return Status::InvalidArgument(StrFormat(
          "schema has %zu columns but the CSV header has %zu",
          schema->num_columns(), header.size()));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (Trim(header[c]) != schema->column(c).name) {
        return Status::InvalidArgument(
            "CSV header column '" + header[c] +
            "' does not match schema column '" + schema->column(c).name +
            "'");
      }
    }
  }

  std::vector<std::vector<std::string>> records;
  // Physical line each record starts on — quoted fields may span lines,
  // so the row number alone does not locate a record in the file.
  std::vector<size_t> record_lines;
  while (cursor < text.size()) {
    size_t record_line = line;
    PERFEVAL_ASSIGN_OR_RETURN(std::vector<std::string> record,
                              ReadRecord(text, &cursor, &line, &saw_quote));
    if (record.size() == 1 && record[0].empty() && !saw_quote) {
      continue;  // blank line — but `""` is a real one-field record.
    }
    if (record.size() != header.size()) {
      return Status::InvalidArgument(StrFormat(
          "row %zu (line %zu) has %zu fields, expected %zu",
          records.size() + 2, record_line, record.size(), header.size()));
    }
    records.push_back(std::move(record));
    record_lines.push_back(record_line);
  }

  Schema resolved;
  if (schema != nullptr) {
    resolved = *schema;
  } else {
    std::vector<ColumnSpec> specs;
    for (size_t c = 0; c < header.size(); ++c) {
      specs.push_back({Trim(header[c]), InferColumnType(records, c)});
    }
    resolved = Schema(std::move(specs));
  }

  auto table = std::make_shared<Table>(resolved);
  table->ReserveRows(records.size());
  for (size_t r = 0; r < records.size(); ++r) {
    std::vector<Value> row;
    row.reserve(resolved.num_columns());
    for (size_t c = 0; c < resolved.num_columns(); ++c) {
      PERFEVAL_ASSIGN_OR_RETURN(
          Value value,
          ParseTyped(records[r][c], resolved.column(c).type, r + 2,
                     record_lines[r], resolved.column(c).name));
      row.push_back(std::move(value));
    }
    table->AppendRow(row);
  }
  return table;
}

namespace {

/// RFC-4180 quoting: fields holding the delimiter, a quote, or a line
/// break are wrapped in quotes with `"` doubled. Everything else is
/// written bare (so an empty field round-trips back to NULL for
/// numeric/date columns).
void AppendCsvField(const std::string& field, std::string* out) {
  bool needs_quotes = field.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quotes) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') {
      *out += '"';
    }
    *out += c;
  }
  *out += '"';
}

std::string RenderCsvCell(const Column& column, size_t row) {
  if (column.IsNull(row)) {
    return "";
  }
  switch (column.type()) {
    case DataType::kInt64:
      return StrFormat("%lld",
                       static_cast<long long>(column.GetInt64(row)));
    case DataType::kDouble:
      // Shortest round-trippable rendering: %.17g survives the
      // text → double → text cycle bit-exactly.
      return StrFormat("%.17g", column.GetDouble(row));
    case DataType::kDate:
      return FormatDate(column.GetDate(row));
    case DataType::kString:
      return std::string(column.GetString(row));
  }
  return "";
}

}  // namespace

std::string WriteCsvText(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) {
      out += ',';
    }
    AppendCsvField(schema.column(c).name, &out);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) {
        out += ',';
      }
      AppendCsvField(RenderCsvCell(table.column(c), r), &out);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError("cannot open CSV file for writing: " + path);
  }
  file << WriteCsvText(table);
  file.close();
  if (!file) {
    return Status::IoError("failed writing CSV file: " + path);
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> LoadCsv(const std::string& path,
                                       const Schema& schema) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvText(buffer.str(), &schema);
}

Result<std::shared_ptr<Table>> LoadCsv(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvText(buffer.str(), nullptr);
}

}  // namespace db
}  // namespace perfeval
