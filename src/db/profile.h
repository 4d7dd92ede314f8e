#ifndef PERFEVAL_DB_PROFILE_H_
#define PERFEVAL_DB_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/timer.h"
#include "db/storage.h"

namespace perfeval {
namespace db {

/// One operator's execution record.
struct OpTrace {
  std::string op;        ///< e.g. "FilterScan(lineitem)".
  size_t rows_in = 0;
  size_t rows_out = 0;
  int64_t wall_ns = 0;   ///< measured CPU-side time in the operator.
  int64_t stall_ns = 0;  ///< simulated I/O stall charged inside it.
  /// Workers the operator's parallel region actually used after the
  /// adaptive go-parallel decision (1 = it ran serially; 0 = the operator
  /// has no parallel region). Observable proof that small inputs stay
  /// serial even when many threads were requested.
  int threads_used = 0;
};

/// Per-operator trace of a query execution — the engine's answer to the
/// paper's "use timings provided by the tested software" (slides 28–29,
/// MonetDB's TRACE) and "find out where the time goes and why" (slide 18).
class Profiler {
 public:
  void Record(OpTrace trace) { traces_.push_back(std::move(trace)); }

  const std::vector<OpTrace>& traces() const { return traces_; }
  void Clear() { traces_.clear(); }

  int64_t TotalWallNs() const;
  int64_t TotalStallNs() const;

  /// MonetDB-TRACE-like rendering: one line per operator with times and
  /// cardinalities.
  std::string ToString() const;

 private:
  std::vector<OpTrace> traces_;
};

/// RAII operator trace, shared by the columnar executor and the row
/// store: times an operator's own work from construction to Finish() and
/// charges it the simulated stall its query accumulated meanwhile.
/// `query_io` is the query's running sum of the deltas its own page
/// touches returned, so an operator is charged only pages its query
/// touched, whatever other queries do to the shared pool. Finish()
/// records the OpTrace (nothing when `profiler` is null); a scope left
/// without Finish(), as when the operator throws, records nothing.
class TraceScope {
 public:
  TraceScope(Profiler* profiler, const StorageStats& query_io,
             std::string op, size_t rows_in)
      : profiler_(profiler),
        query_io_(query_io),
        op_(std::move(op)),
        rows_in_(rows_in),
        stall_before_(query_io.stall_ns) {}

  /// Workers the operator's parallel region used; left at 0 for
  /// operators without a parallel region.
  void set_threads_used(int threads) { threads_used_ = threads; }

  void Finish(size_t rows_out);

 private:
  Profiler* profiler_;
  const StorageStats& query_io_;
  std::string op_;
  size_t rows_in_;
  int64_t stall_before_;
  int threads_used_ = 0;
  core::WallTimer timer_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_PROFILE_H_
