#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perf {

namespace {

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index in the same thread's buffer, -1 = root
  uint64_t request;
};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  int32_t current = -1;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(g_mu);
    owned->thread = static_cast<uint32_t>(g_buffers.size());
    buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) {
  if (!TracingEnabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  parent_ = buffer->current;
  index_ = static_cast<int32_t>(buffer->spans.size());
  if (request == 0 && parent_ >= 0) {
    request = buffer->spans[parent_].request;  // inherit the request id
  }
  buffer->spans.push_back(SpanRecord{name, NowNs(), 0, parent_, request});
  buffer->current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer* buffer = LocalBuffer();
  buffer->spans[index_].end_ns = NowNs();
  buffer->current = parent_;
}

std::map<std::string, SpanTotals> SummarizeSpans() {
  std::map<std::string, SpanTotals> totals;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    const auto& spans = buffer->spans;
    // Children of one parent run sequentially on the parent's thread,
    // so the time they cover is the sum of their durations.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++t.count;
      t.total_ms += dur / 1e6;
      t.self_ms += (dur - static_cast<double>(child_ns[i])) / 1e6;
    }
  }
  return totals;
}

size_t WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t n = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& s = buffer->spans[i];
      std::fprintf(f,
                   "{\"id\":\"%u.%zu\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":\"%s\",\"request\":%llu}\n",
                   buffer->thread, i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent < 0 ? ""
                                : (std::to_string(buffer->thread) + "." +
                                   std::to_string(s.parent))
                                      .c_str(),
                   static_cast<unsigned long long>(s.request));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

}  // namespace perf
