#include "db/profile.h"

#include "common/string_util.h"

namespace perfeval {
namespace db {

int64_t Profiler::TotalWallNs() const {
  int64_t total = 0;
  for (const OpTrace& trace : traces_) {
    total += trace.wall_ns;
  }
  return total;
}

int64_t Profiler::TotalStallNs() const {
  int64_t total = 0;
  for (const OpTrace& trace : traces_) {
    total += trace.stall_ns;
  }
  return total;
}

void TraceScope::Finish(size_t rows_out) {
  if (profiler_ == nullptr) {
    return;
  }
  OpTrace trace;
  trace.op = std::move(op_);
  trace.rows_in = rows_in_;
  trace.rows_out = rows_out;
  trace.wall_ns = timer_.ElapsedNs();
  trace.stall_ns = query_io_.stall_ns - stall_before_;
  trace.threads_used = threads_used_;
  profiler_->Record(std::move(trace));
}

std::string Profiler::ToString() const {
  std::string out =
      StrFormat("%-40s %10s %10s %12s %12s %4s\n", "operator", "rows in",
                "rows out", "cpu (ms)", "stall (ms)", "thr");
  for (const OpTrace& trace : traces_) {
    out += StrFormat("%-40s %10zu %10zu %12.3f %12.3f %4d\n",
                     trace.op.c_str(), trace.rows_in, trace.rows_out,
                     trace.wall_ns / 1e6, trace.stall_ns / 1e6,
                     trace.threads_used);
  }
  out += StrFormat("%-40s %10s %10s %12.3f %12.3f\n", "total", "", "",
                   TotalWallNs() / 1e6, TotalStallNs() / 1e6);
  return out;
}

}  // namespace db
}  // namespace perfeval
