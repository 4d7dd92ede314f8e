#ifndef PERFEVAL_BENCH_PERF_TRACE_H_
#define PERFEVAL_BENCH_PERF_TRACE_H_

// Span tracing of the end-to-end benchmark. Spans are recorded only in
// bench/perf code, around calls into the engine's public functions, and
// kept in per-thread memory until the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfeval {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` names the enclosing span of the same request ("" for a root).
/// `attrs` carries the counts the call returned (operator times, shard
/// timings, ...), so ratios are taken where the work happened.
struct Span {
  uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<const char*, int64_t>> attrs;

  int64_t DurationNs() const { return end_ns - start_ns; }
  /// Value of attribute `key`, 0 when absent.
  int64_t Attr(const char* key) const;
};

/// Process-wide switch and per-thread span buffers.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool Enabled();
  /// Appends to the calling thread's buffer (no lock after the thread's
  /// first span).
  static void Record(Span span);
  /// Every thread's spans, then clears the buffers. Only call while no
  /// other thread records (after the recording threads were joined).
  static std::vector<Span> Drain();
};

/// Records a span from construction to destruction when tracing is on.
/// Attributes may be added before the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(uint64_t request, const char* name, const char* parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  void Attr(const char* key, int64_t value);

 private:
  bool active_;
  Span span_;
};

/// Self time: the span's duration minus the part of its interval covered
/// by the union of its children (each clipped to the parent), so
/// overlapping children are not counted twice. Never negative.
int64_t SelfTimeNs(const Span& span, const std::vector<const Span*>& children);

/// Spans as JSON, each with its self time.
std::string SpansJson(const std::string& workload,
                      const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_PERF_TRACE_H_
