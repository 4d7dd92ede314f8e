#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>

namespace perfeval {
namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};

std::mutex g_buffers_mu;
// Buffers outlive their threads (service workers exit before Drain), so
// the registry owns them; a thread only keeps a pointer to its own.
std::vector<std::unique_ptr<std::vector<Span>>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<std::vector<Span>>>;
  return *buffers;
}
thread_local std::vector<Span>* t_buffer = nullptr;

}  // namespace

int64_t Span::Attr(const char* key) const {
  for (const auto& [k, v] : attrs) {
    if (std::strcmp(k, key) == 0) {
      return v;
    }
  }
  return 0;
}

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Record(Span span) {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::make_unique<std::vector<Span>>());
    t_buffer = Buffers().back().get();
  }
  t_buffer->push_back(std::move(span));
}

std::vector<Span> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (auto& buffer : Buffers()) {
    std::move(buffer->begin(), buffer->end(), std::back_inserter(all));
    buffer->clear();
  }
  return all;
}

ScopedSpan::ScopedSpan(uint64_t request, const char* name, const char* parent)
    : active_(Tracer::Enabled()) {
  if (active_) {
    span_.request = request;
    span_.name = name;
    span_.parent = parent;
    span_.start_ns = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (active_) {
    span_.end_ns = NowNs();
    Tracer::Record(std::move(span_));
  }
}

void ScopedSpan::Attr(const char* key, int64_t value) {
  if (active_) {
    span_.attrs.emplace_back(key, value);
  }
}

int64_t SelfTimeNs(const Span& span,
                   const std::vector<const Span*>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span* child : children) {
    int64_t lo = std::max(child->start_ns, span.start_ns);
    int64_t hi = std::min(child->end_ns, span.end_ns);
    if (lo < hi) {
      covered.emplace_back(lo, hi);
    }
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    int64_t from = std::max(lo, reach);
    if (hi > from) {
      union_ns += hi - from;
      reach = hi;
    }
  }
  return std::max<int64_t>(0, span.DurationNs() - union_ns);
}

std::string SpansJson(const std::string& workload,
                      const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> by_request;
  for (const Span& s : spans) {
    by_request[s.request].push_back(&s);
  }
  std::string out = "{\"workload\": \"" + workload + "\", \"spans\": [";
  bool first = true;
  for (const auto& [request, members] : by_request) {
    for (const Span* s : members) {
      std::vector<const Span*> children;
      for (const Span* c : members) {
        if (std::strcmp(c->parent, s->name) == 0) {
          children.push_back(c);
        }
      }
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"request\": " + std::to_string(request) + ", \"name\": \"" +
             s->name + "\", \"parent\": \"" + s->parent +
             "\", \"start_ns\": " + std::to_string(s->start_ns) +
             ", \"end_ns\": " + std::to_string(s->end_ns) +
             ", \"self_ns\": " + std::to_string(SelfTimeNs(*s, children)) +
             ", \"attrs\": {";
      for (size_t i = 0; i < s->attrs.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + std::string(s->attrs[i].first) +
               "\": " + std::to_string(s->attrs[i].second);
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
}  // namespace perfeval
