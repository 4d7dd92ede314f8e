#include "db/join.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "sched/parallel_for.h"

namespace perfeval {
namespace db {
namespace {

/// Probe-side morsel size (rows). Fixed — never derived from the thread
/// count — so match-list boundaries, and with them the concatenated output,
/// are identical at any `threads` setting (the repo's determinism
/// invariant, same constant as the scan/aggregate morsels in plan.cc).
constexpr size_t kMorselRows = 4096;

/// Per-build-row footprint of a FlatKeyIndex in bytes: one 16-byte slot at
/// 7/8 load plus the 8 bytes of rows_/next_ chain storage per row,
/// assuming mostly-distinct keys (the conservative, largest-table case).
constexpr size_t kIndexBytesPerRow = 16 * 8 / 7 + 8;

/// Radix partitions are sized so one partition's build-side index fits a
/// 512 KB L2 — the hwsim "Sun Ultra" profile's external L2
/// (hwsim/machine.cc), which doubles as a typical per-core L2 today. The
/// hwsim join model (hwsim/join_model.h) dissects exactly this choice.
constexpr size_t kRadixTargetBytes = 512 * 1024;

}  // namespace

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kHash:
      return "hash";
    case JoinAlgo::kRadix:
      return "radix";
    case JoinAlgo::kMerge:
      return "merge";
  }
  return "?";
}

Result<JoinAlgo> ParseJoinAlgo(const std::string& text) {
  if (text == "hash") {
    return JoinAlgo::kHash;
  }
  if (text == "radix") {
    return JoinAlgo::kRadix;
  }
  if (text == "merge") {
    return JoinAlgo::kMerge;
  }
  return Status::InvalidArgument("unknown join algorithm '" + text +
                                 "' (want hash|radix|merge)");
}

// ---- FlatKeyIndex ----

FlatKeyIndex::FlatKeyIndex(size_t expected_distinct, size_t expected_rows) {
  size_t capacity = 16;
  // Slots for the distinct estimate at 7/8 load, not one per row.
  while (capacity * 7 / 8 < expected_distinct) {
    capacity *= 2;
  }
  slots_.assign(capacity, Slot());
  mask_ = capacity - 1;
  rows_.reserve(expected_rows);
  next_.reserve(expected_rows);
}

uint64_t FlatKeyIndex::HashKey(int64_t key) {
  return SplitMix64(static_cast<uint64_t>(key));
}

void FlatKeyIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot());
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.head == kEmpty) {
      continue;
    }
    size_t slot = HashKey(s.key) & mask_;
    while (slots_[slot].head != kEmpty) {
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = s;
  }
}

void FlatKeyIndex::Insert(int64_t key, uint32_t row) {
  uint32_t index = static_cast<uint32_t>(rows_.size());
  rows_.push_back(row);
  next_.push_back(kEnd);
  size_t slot = HashKey(key) & mask_;
  while (true) {
    Slot& s = slots_[slot];
    if (s.head == kEmpty) {
      if ((num_keys_ + 1) * 8 > slots_.size() * 7) {
        Grow();
        // Re-find the key's slot in the grown table.
        slot = HashKey(key) & mask_;
        continue;
      }
      s.key = key;
      s.head = index;
      s.tail = index;
      ++num_keys_;
      return;
    }
    if (s.key == key) {
      next_[s.tail] = index;
      s.tail = index;
      return;
    }
    slot = (slot + 1) & mask_;
  }
}

size_t FlatKeyIndex::Lookup(int64_t key, std::vector<uint32_t>* out) const {
  size_t appended = 0;
  ForEachMatch(key, [&](uint32_t row) {
    out->push_back(row);
    ++appended;
  });
  return appended;
}

// ---- Sizing helpers ----

size_t EstimateDistinctKeys(const std::vector<int64_t>& keys) {
  size_t n = keys.size();
  if (n == 0) {
    return 0;
  }
  constexpr size_t kSample = 1024;
  if (n <= kSample) {
    std::unordered_set<int64_t> distinct(keys.begin(), keys.end());
    return distinct.size();
  }
  // Chao1 estimate over a uniform random sample: d + f1^2 / (2 (f2 + 1)),
  // where f1/f2 count sample keys seen once/twice. Keys repeating across
  // the whole input repeat inside the sample too (f1 -> 0, estimate -> d),
  // so duplicate-heavy inputs estimate near their true distinct count —
  // which is the point: reserving one slot per *row* (the old
  // `reserve(right.num_rows())`) overshoots by the duplication factor.
  // All-distinct inputs are all singletons (f2 = 0), blowing the estimate
  // past n, where it clamps.
  //
  // The positions must be (pseudo-)random, not evenly strided: duplicates
  // are often clustered in row order (TPC-H lineitem repeats each
  // orderkey in 1-7 *consecutive* rows), and a stride wider than the
  // clusters never samples a key twice — mistaking a duplicate-heavy
  // input for an all-distinct one and estimating NDV at the row count.
  // Chao1's extrapolation is only valid when the sample's duplicate rate
  // reflects the input's, which position-independent draws guarantee.
  // The seed is fixed, so the estimate stays a pure function of `keys`.
  std::unordered_map<int64_t, uint32_t> sample_counts;
  Pcg32 rng(0x5eed0d15);
  std::unordered_set<size_t> positions;
  positions.reserve(kSample);
  while (positions.size() < kSample) {
    size_t pos = static_cast<size_t>(
        rng.NextBounded(static_cast<uint32_t>(std::min(
            n, static_cast<size_t>(0xffffffffu)))));
    if (positions.insert(pos).second) {
      ++sample_counts[keys[pos]];
    }
  }
  double d = static_cast<double>(sample_counts.size());
  double f1 = 0.0;
  double f2 = 0.0;
  for (const auto& entry : sample_counts) {
    f1 += entry.second == 1 ? 1.0 : 0.0;
    f2 += entry.second == 2 ? 1.0 : 0.0;
  }
  double estimate = d + f1 * f1 / (2.0 * (f2 + 1.0));
  estimate = std::min(estimate, static_cast<double>(n));
  return std::max(static_cast<size_t>(estimate), sample_counts.size());
}

int ChooseRadixBits(size_t build_rows) {
  size_t bytes = build_rows * kIndexBytesPerRow;
  int bits = 0;
  while (bits < kMaxRadixBits && (bytes >> bits) > kRadixTargetBytes) {
    ++bits;
  }
  return bits;
}

// ---- Match kernels ----

namespace {

/// Probes `index` with probe positions [begin, end), appending matches in
/// probe order. Shared by the flat and radix kernels.
void ProbeRange(const FlatKeyIndex& index,
                const std::vector<int64_t>& probe_keys,
                const std::vector<uint32_t>& probe_rows, size_t begin,
                size_t end, JoinMatches* out) {
  for (size_t i = begin; i < end; ++i) {
    uint32_t probe_row = probe_rows[i];
    index.ForEachMatch(probe_keys[i], [&](uint32_t build_row) {
      out->probe_rows.push_back(probe_row);
      out->build_rows.push_back(build_row);
    });
  }
}

void AppendMatches(const JoinMatches& part, JoinMatches* out) {
  out->probe_rows.insert(out->probe_rows.end(), part.probe_rows.begin(),
                         part.probe_rows.end());
  out->build_rows.insert(out->build_rows.end(), part.build_rows.begin(),
                         part.build_rows.end());
}

}  // namespace

JoinMatches FlatHashJoinMatch(const std::vector<int64_t>& build_keys,
                              const std::vector<uint32_t>& build_rows,
                              const std::vector<int64_t>& probe_keys,
                              const std::vector<uint32_t>& probe_rows,
                              int threads) {
  PERFEVAL_CHECK_EQ(build_keys.size(), build_rows.size());
  PERFEVAL_CHECK_EQ(probe_keys.size(), probe_rows.size());
  FlatKeyIndex index(EstimateDistinctKeys(build_keys), build_keys.size());
  for (size_t i = 0; i < build_keys.size(); ++i) {
    index.Insert(build_keys[i], build_rows[i]);
  }
  size_t n = probe_keys.size();
  size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  if (threads <= 1 || num_morsels <= 1) {
    JoinMatches out;
    ProbeRange(index, probe_keys, probe_rows, 0, n, &out);
    return out;
  }
  // Morsel-parallel probe: per-morsel match lists concatenated in morsel
  // order reproduce the serial probe's output exactly.
  std::vector<JoinMatches> partial(num_morsels);
  sched::ParallelFor(threads, num_morsels, [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(n, begin + kMorselRows);
    ProbeRange(index, probe_keys, probe_rows, begin, end, &partial[m]);
  });
  size_t total = 0;
  for (const JoinMatches& part : partial) {
    total += part.size();
  }
  JoinMatches out;
  out.probe_rows.reserve(total);
  out.build_rows.reserve(total);
  for (const JoinMatches& part : partial) {
    AppendMatches(part, &out);
  }
  return out;
}

namespace {

/// One side radix-partitioned: keys/rows regrouped so partition `p`
/// occupies [starts[p], starts[p+1]), with rows inside a partition in
/// original input order (the scatter walks morsels in order and each
/// morsel's slice of each partition is pre-assigned by prefix sums, so the
/// layout is thread-count-independent).
struct Partitioned {
  std::vector<int64_t> keys;
  std::vector<uint32_t> rows;
  std::vector<size_t> starts;  ///< size 2^bits + 1.
};

Partitioned RadixPartition(const std::vector<int64_t>& keys,
                           const std::vector<uint32_t>& rows, int bits,
                           int threads) {
  size_t n = keys.size();
  size_t num_parts = size_t{1} << bits;
  uint64_t mask = num_parts - 1;
  size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;

  // Pass 1: per-morsel partition histograms.
  std::vector<std::vector<uint32_t>> counts(
      num_morsels, std::vector<uint32_t>(num_parts, 0));
  sched::ParallelFor(threads, num_morsels, [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(n, begin + kMorselRows);
    std::vector<uint32_t>& local = counts[m];
    for (size_t i = begin; i < end; ++i) {
      ++local[FlatKeyIndex::HashKey(keys[i]) & mask];
    }
  });

  // Prefix sums: partition base offsets, then per-(morsel, partition)
  // write cursors in (partition, morsel) order.
  Partitioned out;
  out.starts.assign(num_parts + 1, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    size_t total = 0;
    for (size_t m = 0; m < num_morsels; ++m) {
      total += counts[m][p];
    }
    out.starts[p + 1] = out.starts[p] + total;
  }
  std::vector<std::vector<size_t>> cursors(
      num_morsels, std::vector<size_t>(num_parts, 0));
  for (size_t p = 0; p < num_parts; ++p) {
    size_t offset = out.starts[p];
    for (size_t m = 0; m < num_morsels; ++m) {
      cursors[m][p] = offset;
      offset += counts[m][p];
    }
  }

  // Pass 2: scatter. Each morsel writes disjoint slices, so morsels run in
  // parallel and the result layout never depends on the thread count.
  out.keys.resize(n);
  out.rows.resize(n);
  sched::ParallelFor(threads, num_morsels, [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(n, begin + kMorselRows);
    std::vector<size_t>& cursor = cursors[m];
    for (size_t i = begin; i < end; ++i) {
      size_t p = FlatKeyIndex::HashKey(keys[i]) & mask;
      size_t at = cursor[p]++;
      out.keys[at] = keys[i];
      out.rows[at] = rows[i];
    }
  });
  return out;
}

}  // namespace

JoinMatches RadixJoinMatch(const std::vector<int64_t>& build_keys,
                           const std::vector<uint32_t>& build_rows,
                           const std::vector<int64_t>& probe_keys,
                           const std::vector<uint32_t>& probe_rows,
                           int radix_bits, int threads) {
  PERFEVAL_CHECK_EQ(build_keys.size(), build_rows.size());
  PERFEVAL_CHECK_EQ(probe_keys.size(), probe_rows.size());
  int bits = radix_bits > 0 ? std::min(radix_bits, kMaxRadixBits)
                            : ChooseRadixBits(build_keys.size());
  if (bits == 0) {
    // One partition: the flat join already is the cache-resident case.
    return FlatHashJoinMatch(build_keys, build_rows, probe_keys, probe_rows,
                             threads);
  }
  Partitioned build = RadixPartition(build_keys, build_rows, bits, threads);
  Partitioned probe = RadixPartition(probe_keys, probe_rows, bits, threads);

  // Per-partition build + probe, partitions in parallel. Each partition's
  // index stays L2-sized by construction (ChooseRadixBits), so probes hit
  // cache instead of stalling on memory — the Manegold cache-conscious
  // join this PR reproduces.
  size_t num_parts = size_t{1} << bits;
  std::vector<JoinMatches> partial(num_parts);
  sched::ParallelFor(threads, num_parts, [&](size_t p) {
    size_t b_begin = build.starts[p];
    size_t b_end = build.starts[p + 1];
    size_t q_begin = probe.starts[p];
    size_t q_end = probe.starts[p + 1];
    if (b_begin == b_end || q_begin == q_end) {
      return;
    }
    FlatKeyIndex index(b_end - b_begin, b_end - b_begin);
    for (size_t i = b_begin; i < b_end; ++i) {
      index.Insert(build.keys[i], build.rows[i]);
    }
    ProbeRange(index, probe.keys, probe.rows, q_begin, q_end, &partial[p]);
  });

  // Concatenate in partition-then-probe-row order — fixed at any thread
  // count (partition layout and per-partition probe order are both
  // thread-count-independent).
  size_t total = 0;
  for (const JoinMatches& part : partial) {
    total += part.size();
  }
  JoinMatches out;
  out.probe_rows.reserve(total);
  out.build_rows.reserve(total);
  for (const JoinMatches& part : partial) {
    AppendMatches(part, &out);
  }
  return out;
}

JoinMatches MergeJoinMatch(const std::vector<int64_t>& build_keys,
                           const std::vector<uint32_t>& build_rows,
                           const std::vector<int64_t>& probe_keys,
                           const std::vector<uint32_t>& probe_rows,
                           int threads) {
  PERFEVAL_CHECK_EQ(build_keys.size(), build_rows.size());
  PERFEVAL_CHECK_EQ(probe_keys.size(), probe_rows.size());
  using Keyed = std::vector<std::pair<int64_t, uint32_t>>;
  Keyed sides[2];
  const std::vector<int64_t>* keys[2] = {&probe_keys, &build_keys};
  const std::vector<uint32_t>* rows[2] = {&probe_rows, &build_rows};
  // The two sides sort independently; (key, original position) is a total
  // order, so the sorted sequences are unique regardless of scheduling. A
  // side whose pairs already arrive in that order (clustered keys read in
  // row order) skips its sort: the check is exact, so the output is the
  // same either way.
  sched::ParallelFor(threads, 2, [&](size_t s) {
    Keyed& keyed = sides[s];
    keyed.reserve(keys[s]->size());
    for (size_t i = 0; i < keys[s]->size(); ++i) {
      keyed.emplace_back((*keys[s])[i], (*rows[s])[i]);
    }
    if (!std::is_sorted(keyed.begin(), keyed.end())) {
      std::sort(keyed.begin(), keyed.end());
    }
  });
  const Keyed& lk = sides[0];
  const Keyed& rk = sides[1];

  JoinMatches out;
  size_t i = 0;
  size_t j = 0;
  while (i < lk.size() && j < rk.size()) {
    if (lk[i].first < rk[j].first) {
      ++i;
    } else if (lk[i].first > rk[j].first) {
      ++j;
    } else {
      int64_t key = lk[i].first;
      size_t i_end = i;
      while (i_end < lk.size() && lk[i_end].first == key) {
        ++i_end;
      }
      size_t j_end = j;
      while (j_end < rk.size() && rk[j_end].first == key) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.probe_rows.push_back(lk[a].second);
          out.build_rows.push_back(rk[b].second);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

JoinMatches JoinMatch(JoinAlgo algo, const std::vector<int64_t>& build_keys,
                      const std::vector<uint32_t>& build_rows,
                      const std::vector<int64_t>& probe_keys,
                      const std::vector<uint32_t>& probe_rows,
                      int radix_bits, int threads) {
  switch (algo) {
    case JoinAlgo::kHash:
      return FlatHashJoinMatch(build_keys, build_rows, probe_keys,
                               probe_rows, threads);
    case JoinAlgo::kRadix:
      return RadixJoinMatch(build_keys, build_rows, probe_keys, probe_rows,
                            radix_bits, threads);
    case JoinAlgo::kMerge:
      return MergeJoinMatch(build_keys, build_rows, probe_keys, probe_rows,
                            threads);
  }
  PERFEVAL_CHECK(false) << "unhandled join algorithm";
  return JoinMatches();
}

}  // namespace db
}  // namespace perfeval
