#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

namespace perfeval {
namespace opt {

namespace {

double Log2Ceil(double n) { return n <= 2.0 ? 1.0 : std::log2(n); }

}  // namespace

double CostModel::JoinCost(db::JoinAlgo algo, double probe_rows,
                           double build_rows, double out_rows) const {
  probe_rows = std::max(probe_rows, 0.0);
  build_rows = std::max(build_rows, 0.0);
  out_rows = std::max(out_rows, 0.0);
  double output = out_rows * join_output_ns;
  bool spills_l2 = build_rows > l2_build_rows;
  double penalty = spills_l2 ? cache_miss_factor : 1.0;
  switch (algo) {
    case db::JoinAlgo::kHash:
      // Flat open-addressing index: cheap build, cheap probe, but every
      // probe is a random access into the whole build side.
      return build_rows * hash_build_ns +
             probe_rows * hash_probe_ns * penalty + output;
    case db::JoinAlgo::kRadix: {
      // Partition both sides once when the build side would spill L2,
      // then build+probe L2-resident partitions without the penalty.
      double pass = spills_l2 ? (probe_rows + build_rows) * radix_pass_ns
                              : 0.0;
      return pass + build_rows * hash_build_ns +
             probe_rows * hash_probe_ns + output;
    }
    case db::JoinAlgo::kMerge:
      // Sort both sides (the detector skips the sort for clustered keys,
      // but the model cannot know that statically), then one linear merge.
      return SortCost(probe_rows) + SortCost(build_rows) +
             (probe_rows + build_rows) * cpu_tuple_ns + output;
  }
  return output;
}

double CostModel::SortCost(double rows) const {
  rows = std::max(rows, 0.0);
  return rows * Log2Ceil(rows) * sort_ns;
}

double CostModel::ScanIoCost(double rows, size_t columns) const {
  if (rows <= 0.0 || columns == 0 || rows_per_page == 0) {
    return 0.0;
  }
  double pages = std::ceil(rows / static_cast<double>(rows_per_page)) *
                 static_cast<double>(columns);
  double bytes_per_page = static_cast<double>(rows_per_page) * 8.0;
  return pages * (static_cast<double>(disk.seek_ns) +
                  bytes_per_page * disk.ns_per_byte);
}

}  // namespace opt
}  // namespace perfeval
