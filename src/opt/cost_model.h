#ifndef PERFEVAL_OPT_COST_MODEL_H_
#define PERFEVAL_OPT_COST_MODEL_H_

#include <cstddef>

#include "db/join.h"
#include "db/storage.h"

namespace perfeval {
namespace opt {

/// The optimizer's cost model: per-row CPU constants (nanoseconds) plus a
/// two-regime cache penalty, in the style of the hwsim join model (one
/// cost per data item touched, a multiplier once the working set leaves
/// L2). The defaults are calibrated against measured TRACE operator times
/// on the development host — A11 (`bench_optimizer --calibrate`) re-fits
/// them with stats::FitLinear and reports measured-vs-default constants —
/// but the model itself is a pure function of its inputs: the same plan
/// and statistics cost the same on every host, so plan choice (and with
/// it every result) is reproducible. Absolute accuracy matters less than
/// *ordering* accuracy; A11's crossover study measures exactly that.
struct CostModel {
  // Per-row CPU constants, in nanoseconds.
  double cpu_tuple_ns = 1.0;     ///< touch one row (scan / gather).
  double cpu_term_ns = 1.5;      ///< evaluate one predicate term on a row.
  double project_ns = 4.0;       ///< evaluate one projection expr on a row.
  double agg_group_ns = 9.0;     ///< one hash-aggregate update.
  double sort_ns = 4.0;          ///< one row, per log2(n) level.
  double hash_build_ns = 14.0;   ///< insert one row into a flat index.
  double hash_probe_ns = 7.0;    ///< probe one row against a flat index.
  double radix_pass_ns = 5.0;    ///< move one row through one partition pass.
  double join_output_ns = 10.0;  ///< materialize one join output row.

  /// Build sides larger than this no longer fit L2 (rows; matches the
  /// 512 KiB partition target of db::ChooseRadixBits at ~16 bytes/row).
  double l2_build_rows = 32768.0;
  /// Probe-cost multiplier once the build side has left L2. The radix
  /// join partitions specifically to avoid paying this.
  double cache_miss_factor = 2.6;

  /// Simulated disk for cold-scan page costs (DiskModel is the same model
  /// the storage layer charges misses with).
  db::DiskModel disk;
  size_t rows_per_page = 4096;

  static CostModel Default() { return CostModel(); }

  /// Cost of one equi-join: `probe_rows` outer rows joined against
  /// `build_rows` inner rows yielding `out_rows`.
  double JoinCost(db::JoinAlgo algo, double probe_rows, double build_rows,
                  double out_rows) const;

  /// Cost of sorting `rows` rows.
  double SortCost(double rows) const;

  /// Cold page-I/O cost of scanning `rows` rows of `columns` columns
  /// (DiskModel seek + transfer per page).
  double ScanIoCost(double rows, size_t columns) const;
};

}  // namespace opt
}  // namespace perfeval

#endif  // PERFEVAL_OPT_COST_MODEL_H_
