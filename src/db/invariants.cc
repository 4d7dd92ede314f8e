#include "db/invariants.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/string_util.h"

namespace perfeval {
namespace db {

void CheckSelectionStrictlyIncreasing(const std::vector<uint32_t>& selection,
                                      const char* op) {
  for (size_t i = 1; i < selection.size(); ++i) {
    if (selection[i] <= selection[i - 1]) {
      throw QueryError::Invariant(StrFormat(
          "%s: selection vector not strictly increasing at position %zu "
          "(%u after %u)",
          op, i, selection[i], selection[i - 1]));
    }
  }
}

void CheckSelectionSubsequence(const std::vector<uint32_t>& output,
                               const std::vector<uint32_t>* input,
                               size_t num_input_rows, const char* op) {
  size_t in_pos = 0;
  size_t in_size = input != nullptr ? input->size() : num_input_rows;
  for (size_t i = 0; i < output.size(); ++i) {
    uint32_t id = output[i];
    while (in_pos < in_size &&
           (input != nullptr ? (*input)[in_pos] : static_cast<uint32_t>(
                                                      in_pos)) != id) {
      ++in_pos;
    }
    if (in_pos == in_size) {
      throw QueryError::Invariant(StrFormat(
          "%s: output row id %u at position %zu is not a subsequence of "
          "the input selection",
          op, id, i));
    }
    ++in_pos;
  }
}

void CheckZoneMapConsistent(const Column& column, size_t begin, size_t end,
                            const ZoneMap& zone_map,
                            const std::string& context) {
  // Mirrors the fold in BuildTableLayout: NaN and NULL rows
  // are excluded from the bounds and flagged, everything else tightens
  // min/max exactly.
  ZoneMap expected;
  bool seen = false;
  for (size_t r = begin; r < end; ++r) {
    if (column.IsNull(r)) {
      expected.has_nan = true;
      continue;
    }
    double v = column.GetNumeric(r);
    if (std::isnan(v)) {
      expected.has_nan = true;
      continue;
    }
    if (!seen) {
      expected.min = v;
      expected.max = v;
      seen = true;
    } else {
      if (v < expected.min) expected.min = v;
      if (v > expected.max) expected.max = v;
    }
  }
  expected.valid = seen;
  if (expected.valid != zone_map.valid ||
      expected.has_nan != zone_map.has_nan ||
      (expected.valid &&
       (expected.min != zone_map.min || expected.max != zone_map.max))) {
    throw QueryError::Invariant(StrFormat(
        "%s: zone map inconsistent with page contents over rows "
        "[%zu, %zu): registered [%g, %g] valid=%d has_nan=%d, actual "
        "[%g, %g] valid=%d has_nan=%d",
        context.c_str(), begin, end, zone_map.min, zone_map.max,
        zone_map.valid ? 1 : 0, zone_map.has_nan ? 1 : 0, expected.min,
        expected.max, expected.valid ? 1 : 0, expected.has_nan ? 1 : 0));
  }
}

void CheckJoinMatchConservation(const std::vector<int64_t>& probe_keys,
                                const std::vector<int64_t>& build_keys,
                                size_t match_count, const char* op) {
  std::unordered_map<int64_t, size_t> multiplicity;
  multiplicity.reserve(build_keys.size());
  for (int64_t k : build_keys) {
    ++multiplicity[k];
  }
  size_t expected = 0;
  for (int64_t k : probe_keys) {
    auto it = multiplicity.find(k);
    if (it != multiplicity.end()) {
      expected += it->second;
    }
  }
  if (expected != match_count) {
    throw QueryError::Invariant(StrFormat(
        "%s: join match-count conservation violated: emitted %zu matches, "
        "key multiplicities require %zu",
        op, match_count, expected));
  }
}

void CheckPermutation(std::vector<uint32_t> input,
                      std::vector<uint32_t> output, const char* op) {
  if (input.size() != output.size()) {
    throw QueryError::Invariant(
        StrFormat("%s: output has %zu rows, input %zu", op, output.size(),
                  input.size()));
  }
  std::sort(input.begin(), input.end());
  std::sort(output.begin(), output.end());
  if (input != output) {
    throw QueryError::Invariant(StrFormat(
        "%s: output row ids are not a permutation of the input", op));
  }
}

void CheckFirstOccurrenceOrder(const std::vector<uint32_t>& expected,
                               const std::vector<uint32_t>& actual,
                               const char* op) {
  if (expected.size() != actual.size()) {
    throw QueryError::Invariant(
        StrFormat("%s: %zu groups emitted, serial recomputation found %zu",
                  op, actual.size(), expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != actual[i]) {
      throw QueryError::Invariant(StrFormat(
          "%s: group %zu is represented by row %u, but global "
          "first-occurrence order requires row %u",
          op, i, actual[i], expected[i]));
    }
  }
}

}  // namespace db
}  // namespace perfeval
