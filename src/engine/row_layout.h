#ifndef PERFEVAL_ENGINE_ROW_LAYOUT_H_
#define PERFEVAL_ENGINE_ROW_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "db/storage.h"
#include "db/table.h"
#include "db/value.h"

namespace perfeval {
namespace engine {

/// Append-only byte arena holding the string payloads of a RowBlock.
/// String-typed row slots store a (offset, length) pair into one heap, so
/// copying a tuple is a fixed-stride memcpy with no per-string allocation
/// — the row store's core bet against the columnar engine's std::string
/// gathers. Heaps are shared down operator chains (filter/sort/limit
/// outputs point into their input's heap); only the operator that created
/// a heap may append to it, which keeps parallel tuple copies write-free.
class StringHeap {
 public:
  /// Appends `s` and returns its packed slot (offset low 32, length high
  /// 32). Aborts past 4 GiB — far beyond any test-scale heap.
  uint64_t Append(std::string_view s) {
    PERFEVAL_CHECK_LE(bytes_.size() + s.size(),
                      static_cast<size_t>(UINT32_MAX));
    uint64_t slot = PackSlot(static_cast<uint32_t>(bytes_.size()),
                             static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    return slot;
  }

  /// Appends every byte of `other`, returning the offset delta to add to
  /// slots that referenced it (the join heap-concatenation step).
  uint32_t AppendHeap(const StringHeap& other) {
    PERFEVAL_CHECK_LE(bytes_.size() + other.bytes_.size(),
                      static_cast<size_t>(UINT32_MAX));
    uint32_t delta = static_cast<uint32_t>(bytes_.size());
    bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
    return delta;
  }

  std::string_view At(uint64_t slot) const {
    uint32_t offset = static_cast<uint32_t>(slot & 0xffffffffu);
    uint32_t length = static_cast<uint32_t>(slot >> 32);
    PERFEVAL_CHECK_LE(static_cast<size_t>(offset) + length, bytes_.size());
    return std::string_view(bytes_.data() + offset, length);
  }

  static uint64_t PackSlot(uint32_t offset, uint32_t length) {
    return static_cast<uint64_t>(length) << 32 | offset;
  }
  /// Rewrites a slot to point `delta` bytes later (after AppendHeap).
  static uint64_t ShiftSlot(uint64_t slot, uint32_t delta) {
    return PackSlot(static_cast<uint32_t>(slot & 0xffffffffu) + delta,
                    static_cast<uint32_t>(slot >> 32));
  }
  /// Byte length encoded in a slot — what a serialized row-major page
  /// would carry inline for this cell (BuildRowLayout charges it per
  /// occurrence).
  static uint32_t SlotLength(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }

  size_t size_bytes() const { return bytes_.size(); }

 private:
  std::vector<char> bytes_;
};

/// The physical shape of one packed row: a null bitmap (one bit per
/// column, padded to 8 bytes) followed by one 8-byte slot per column.
/// int64/date/double slots hold the value natively; string slots hold a
/// StringHeap (offset, length) pair; NULL slots hold zero with the null
/// bit set. Every row of a table has the same stride, so row r lives at
/// byte r * stride — the row store's O(1) tuple addressing.
class RowLayout {
 public:
  RowLayout() = default;

  static RowLayout For(const db::Schema& schema) {
    RowLayout layout;
    layout.schema_ = schema;
    size_t null_bytes = (schema.num_columns() + 7) / 8;
    layout.slot_base_ = (null_bytes + 7) & ~size_t{7};
    layout.stride_ = layout.slot_base_ + 8 * schema.num_columns();
    return layout;
  }

  const db::Schema& schema() const { return schema_; }
  size_t num_columns() const { return schema_.num_columns(); }
  /// Bytes per packed row (excluding string payload, which lives in the
  /// heap but is charged per row by BuildRowLayout).
  size_t stride() const { return stride_; }
  size_t SlotOffset(size_t col) const { return slot_base_ + 8 * col; }

  static size_t NullByte(size_t col) { return col >> 3; }
  static uint8_t NullBit(size_t col) {
    return static_cast<uint8_t>(1u << (col & 7));
  }

 private:
  db::Schema schema_;
  size_t slot_base_ = 8;
  size_t stride_ = 8;
};

/// A run of packed rows sharing one layout and one string heap — the unit
/// of exchange between the row-store backend's operators (the role
/// db::Table plays for the columnar engine). Immutable once built;
/// operators build a fresh block and hand out shared_ptr<const RowBlock>.
class RowBlock {
 public:
  explicit RowBlock(RowLayout layout,
                    std::shared_ptr<StringHeap> heap =
                        std::make_shared<StringHeap>())
      : layout_(std::move(layout)), heap_(std::move(heap)) {}

  const RowLayout& layout() const { return layout_; }
  const db::Schema& schema() const { return layout_.schema(); }
  size_t num_rows() const { return num_rows_; }

  void ReserveRows(size_t n) { bytes_.reserve(n * layout_.stride()); }
  /// Presizes to `n` zeroed rows for disjoint-range parallel fills
  /// (workers write non-overlapping rows via MutableRowPtr).
  void ResizeRows(size_t n) {
    bytes_.assign(n * layout_.stride(), 0);
    num_rows_ = n;
  }

  const uint8_t* RowPtr(size_t r) const {
    return bytes_.data() + r * layout_.stride();
  }
  uint8_t* MutableRowPtr(size_t r) {
    return bytes_.data() + r * layout_.stride();
  }

  /// Appends one zeroed row and returns its mutable bytes.
  uint8_t* AppendRow() {
    bytes_.resize(bytes_.size() + layout_.stride(), 0);
    ++num_rows_;
    return bytes_.data() + (num_rows_ - 1) * layout_.stride();
  }

  /// Appends row `r` of `src` verbatim — valid only when layouts match
  /// and the heap is shared (string slots stay meaningful).
  void AppendRowCopy(const RowBlock& src, size_t r) {
    const uint8_t* from = src.RowPtr(r);
    bytes_.insert(bytes_.end(), from, from + layout_.stride());
    ++num_rows_;
  }

  // ---- Cell readers (row-major access paths of the executor) ----

  bool IsNull(size_t r, size_t c) const {
    return (RowPtr(r)[RowLayout::NullByte(c)] & RowLayout::NullBit(c)) != 0;
  }
  int64_t Int64At(size_t r, size_t c) const {
    int64_t v;
    std::memcpy(&v, RowPtr(r) + layout_.SlotOffset(c), 8);
    return v;
  }
  double DoubleAt(size_t r, size_t c) const {
    double v;
    std::memcpy(&v, RowPtr(r) + layout_.SlotOffset(c), 8);
    return v;
  }
  uint64_t RawSlotAt(size_t r, size_t c) const {
    uint64_t v;
    std::memcpy(&v, RowPtr(r) + layout_.SlotOffset(c), 8);
    return v;
  }
  std::string_view StringAt(size_t r, size_t c) const {
    return heap_->At(RawSlotAt(r, c));
  }
  /// NULL-aware typed read (API-boundary path; hot loops read slots).
  db::Value ValueAt(size_t r, size_t c) const;

  // ---- Cell writers (builders only; `row` from AppendRow/MutableRowPtr) ----

  void SetNull(uint8_t* row, size_t c) const {
    row[RowLayout::NullByte(c)] |= RowLayout::NullBit(c);
  }
  void SetInt64(uint8_t* row, size_t c, int64_t v) const {
    std::memcpy(row + layout_.SlotOffset(c), &v, 8);
  }
  void SetDouble(uint8_t* row, size_t c, double v) const {
    std::memcpy(row + layout_.SlotOffset(c), &v, 8);
  }
  void SetRawSlot(uint8_t* row, size_t c, uint64_t v) const {
    std::memcpy(row + layout_.SlotOffset(c), &v, 8);
  }
  /// Interns `s` into this block's heap — only for blocks that own their
  /// heap (see StringHeap).
  void SetString(uint8_t* row, size_t c, std::string_view s) {
    SetRawSlot(row, c, heap_->Append(s));
  }
  void SetValue(uint8_t* row, size_t c, const db::Value& v);

  const std::shared_ptr<StringHeap>& heap() const { return heap_; }
  StringHeap& mutable_heap() { return *heap_; }

  /// Packed-row bytes plus the heap footprint (approximate block size).
  size_t ByteSize() const { return bytes_.size() + heap_->size_bytes(); }

 private:
  RowLayout layout_;
  std::vector<uint8_t> bytes_;
  size_t num_rows_ = 0;
  std::shared_ptr<StringHeap> heap_;
};

using RowBlockPtr = std::shared_ptr<const RowBlock>;

/// Packs a columnar table into a fresh RowBlock (fresh heap). The packed
/// form round-trips exactly: UnpackToTable(PackTable(t)) equals t cell for
/// cell, including NULL masks.
RowBlock PackTable(const db::Table& table);

/// Appends rows [begin, end) of `block` to `out` (schema must match) —
/// the executor's batch-unpack step feeding db::Expr evaluation.
void UnpackRows(const RowBlock& block, size_t begin, size_t end,
                db::Table* out);

/// Materializes the whole block as a columnar table (the backend-neutral
/// result format every backend's output is diffed in).
std::shared_ptr<db::Table> UnpackToTable(const RowBlock& block);

/// The buffer-pool layout of a packed table, so the row store pages
/// through the same db::StorageManager as the columnar engine: a single
/// "column" whose page p holds rows [p * rows_per_page, (p + 1) *
/// rows_per_page) as complete tuples. A page's bytes are the packed
/// stride of its rows plus the string payload those rows reference,
/// counted per occurrence as an inline row-major serialization would
/// store it; over all pages of a PackTable block they sum to its
/// ByteSize(). That shape is the design point under test:
/// a row scan pays full-tuple bytes no matter how few columns the query
/// touches (DESIGN.md, "Comparing backends defensibly"). Zone maps are
/// left invalid. The caller assigns the table id and version.
db::TableLayout BuildRowLayout(const RowBlock& block, size_t rows_per_page);

}  // namespace engine
}  // namespace perfeval

#endif  // PERFEVAL_ENGINE_ROW_LAYOUT_H_
