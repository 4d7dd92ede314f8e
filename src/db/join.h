#ifndef PERFEVAL_DB_JOIN_H_
#define PERFEVAL_DB_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfeval {
namespace db {

/// Physical algorithm executed by equi-join plan nodes (HashJoin /
/// HashJoinWith). The knob is `ExecKnobs::join_algo` (db/plan.h), which both
/// ExecContext and DatabaseOptions inherit, and the SQL shell sets it with
/// `\join <algo>` — so the same plan can be re-run under every algorithm,
/// the paper's "compare alternatives under one protocol" discipline
/// applied to the engine's own join.
///
///  - kHash: one flat open-addressing table (FlatKeyIndex) over the whole
///    build side, serial build + morsel-parallel probe. Output in
///    probe-row order, each key's build rows in insertion order.
///  - kRadix: cache-conscious radix-partitioned join (Manegold's MonetDB
///    line of work): both sides are fanned out into 2^bits partitions by
///    key hash, each partition gets its own L2-resident FlatKeyIndex, and
///    partitions build+probe in parallel. Output order is
///    partition-then-probe-row order — different from kHash but
///    deterministic at any thread count.
///  - kMerge: sort-merge on the (possibly composite) key.
enum class JoinAlgo {
  kHash,
  kRadix,
  kMerge,
};

const char* JoinAlgoName(JoinAlgo algo);

/// Parses "hash" / "radix" / "merge".
Result<JoinAlgo> ParseJoinAlgo(const std::string& text);

/// Matching (probe row, build row) pairs of an equi-join, in the emission
/// order of the algorithm that produced them. Row ids refer to the
/// original tables (they pass through the key-extraction row lists).
struct JoinMatches {
  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;

  size_t size() const { return probe_rows.size(); }
};

/// A flat open-addressing hash index from int64 keys to the build rows
/// holding them: power-of-two capacity, linear probing, and duplicate rows
/// chained through one contiguous `next` array — no per-key heap-allocated
/// vectors, so a build is two cache-friendly arrays instead of a node
/// store. Capacity grows by doubling at 7/8 load, so sizing from a
/// distinct-key *estimate* (duplicates collapse into one slot each) never
/// overshoots the way reserving one slot per build row does.
class FlatKeyIndex {
 public:
  /// `expected_distinct` pre-sizes the slot array (0 picks the minimum);
  /// `expected_rows` pre-sizes the duplicate chain storage.
  explicit FlatKeyIndex(size_t expected_distinct = 0,
                        size_t expected_rows = 0);

  /// Inserts one (key, row) pair. Duplicate keys append to the key's
  /// chain, preserving insertion order.
  void Insert(int64_t key, uint32_t row);

  /// Appends every build row stored under `key` to `out`, in insertion
  /// order. Returns the number of rows appended.
  size_t Lookup(int64_t key, std::vector<uint32_t>* out) const;

  /// Calls `fn(row)` for every build row under `key`, in insertion order.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    if (num_keys_ == 0) {
      return;
    }
    size_t slot = HashKey(key) & mask_;
    while (true) {
      const Slot& s = slots_[slot];
      if (s.head == kEmpty) {
        return;
      }
      if (s.key == key) {
        for (uint32_t i = s.head; i != kEnd; i = next_[i]) {
          fn(rows_[i]);
        }
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  size_t num_rows() const { return rows_.size(); }
  size_t num_keys() const { return num_keys_; }
  /// Slot-array capacity — exposed so tests can pin that duplicate-heavy
  /// builds stay sized by distinct keys, not by row count.
  size_t capacity() const { return slots_.size(); }

  static uint64_t HashKey(int64_t key);

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t head = kEmpty;  ///< first index into rows_/next_.
    uint32_t tail = 0;       ///< last index, for O(1) chain append.
  };

  static constexpr uint32_t kEmpty = ~uint32_t{0};
  static constexpr uint32_t kEnd = ~uint32_t{0} - 1;

  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint32_t> rows_;  ///< build rows in insertion order.
  std::vector<uint32_t> next_;  ///< chain links parallel to rows_.
  size_t mask_ = 0;
  size_t num_keys_ = 0;
};

/// Sampled distinct-key estimate: hashes up to 1024 evenly spaced keys and
/// scales the sample's distinct ratio to the full input. Used to size hash
/// structures so duplicate-heavy inputs do not reserve one slot per row.
size_t EstimateDistinctKeys(const std::vector<int64_t>& keys);

/// Radix fan-out (log2 partitions) sized so one partition's build-side
/// hash index fits the L2 cache of the hwsim reference machine profile
/// (see kRadixTargetBytes in join.cc). Returns 0 for builds that fit as a
/// single partition.
int ChooseRadixBits(size_t build_rows);

/// Maximum supported fan-out; ChooseRadixBits never exceeds it and
/// explicit `radix_bits` settings are clamped to it.
constexpr int kMaxRadixBits = 14;

// ---- Match kernels ----
//
// All kernels take the two sides as parallel (keys, rows) arrays — the
// caller extracts keys from its columns (checked tuple-at-a-time in debug
// mode, raw vectors in optimized mode), so every kernel is mode-agnostic.
// All kernels are deterministic: the same inputs give byte-identical
// match lists at any `threads` setting.

/// Flat-table join: serial FlatKeyIndex build, probe fanned over fixed
/// 4096-row morsels with per-morsel match lists concatenated in morsel
/// order. Matches emit in probe-row order, each key's build rows in
/// insertion order — the same list at any thread count.
JoinMatches FlatHashJoinMatch(const std::vector<int64_t>& build_keys,
                              const std::vector<uint32_t>& build_rows,
                              const std::vector<int64_t>& probe_keys,
                              const std::vector<uint32_t>& probe_rows,
                              int threads);

/// Radix-partitioned join: both sides partition by the low `radix_bits`
/// bits of the key hash (morsel-order scatter, so partition contents are
/// in original row order), then each partition builds its own FlatKeyIndex
/// and probes, all partitions in parallel. Matches concatenate in
/// partition-then-probe-row order. `radix_bits` <= 0 picks
/// ChooseRadixBits(build size).
JoinMatches RadixJoinMatch(const std::vector<int64_t>& build_keys,
                           const std::vector<uint32_t>& build_rows,
                           const std::vector<int64_t>& probe_keys,
                           const std::vector<uint32_t>& probe_rows,
                           int radix_bits, int threads);

/// Sort-merge join on the key arrays: sorts both sides by (key, row id),
/// skipping the sort of a side whose pairs are already in that order
/// (clustered keys), then merges equal-key blocks (cross product per
/// block). Matches emit in key order, probe before build within a block.
JoinMatches MergeJoinMatch(const std::vector<int64_t>& build_keys,
                           const std::vector<uint32_t>& build_rows,
                           const std::vector<int64_t>& probe_keys,
                           const std::vector<uint32_t>& probe_rows,
                           int threads);

/// Dispatch on `algo`. `radix_bits` only affects kRadix.
JoinMatches JoinMatch(JoinAlgo algo,
                      const std::vector<int64_t>& build_keys,
                      const std::vector<uint32_t>& build_rows,
                      const std::vector<int64_t>& probe_keys,
                      const std::vector<uint32_t>& probe_rows,
                      int radix_bits, int threads);

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_JOIN_H_
