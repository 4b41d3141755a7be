// Benchmark-side spans around every layer call the benchmark makes.
//
// A span has a name, start, end, parent span and request id. Spans are
// kept in per-thread memory and written out when the run ends; nothing
// is recorded unless tracing was enabled for the run. A layer's self
// time is its span's duration minus the time its child spans cover.
#ifndef X3_PERFBENCH_TRACE_H_
#define X3_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace perf {

void EnableTracing(bool on);
bool TracingEnabled();

class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
  int32_t parent_ = -1;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Per-name totals over every span recorded so far. Call only while no
/// thread is recording.
std::map<std::string, SpanTotals> SummarizeSpans();

/// Writes every span as one JSON object per line; returns the count.
size_t WriteSpans(const std::string& path);

}  // namespace perf

#endif  // X3_PERFBENCH_TRACE_H_
