#include "server/query_log.h"

#include <utility>

#include "util/env.h"
#include "util/string_util.h"

namespace x3 {

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {}

void QueryLog::Commit(QueryLogRecord record) {
  MutexLock lock(&mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % capacity_;
}

uint64_t QueryLog::total() const {
  MutexLock lock(&mu_);
  return total_;
}

size_t QueryLog::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

std::vector<QueryLogRecord> QueryLog::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<QueryLogRecord> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out = ring_;
  } else {
    // Ring has wrapped: the oldest surviving record sits at next_.
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  return out;
}

std::string QueryLogRecordToJson(const QueryLogRecord& r) {
  std::string out = "{";
  out += StringPrintf("\"qid\":%llu",
                      static_cast<unsigned long long>(r.qid));
  out += ",\"tenant\":" + JsonQuote(r.tenant);
  out += ",\"shape_key\":" + JsonQuote(r.shape_key);
  out += StringPrintf(",\"queue_ms\":%.3f", r.queue_seconds * 1e3);
  out += StringPrintf(",\"latency_ms\":%.3f", r.latency_seconds * 1e3);
  out += StringPrintf(",\"exact_hits\":%llu",
                      static_cast<unsigned long long>(r.exact_hits));
  out += StringPrintf(",\"rollup_answers\":%llu",
                      static_cast<unsigned long long>(r.rollup_answers));
  out += StringPrintf(",\"computed\":%s", r.computed ? "true" : "false");
  out += StringPrintf(",\"cache_bypassed\":%s",
                      r.cache_bypassed ? "true" : "false");
  out += StringPrintf(",\"budget_peak_bytes\":%llu",
                      static_cast<unsigned long long>(r.budget_peak_bytes));
  out += StringPrintf(",\"spill_bytes\":%llu",
                      static_cast<unsigned long long>(r.spill_bytes));
  out += ",\"stages\":[";
  for (size_t i = 0; i < r.stages.size(); ++i) {
    const QueryStageMs& stage = r.stages[i];
    if (i > 0) out += ",";
    out += "{\"label\":" + JsonQuote(stage.label);
    out += StringPrintf(",\"ms\":%.3f,\"rows\":%llu,\"bytes\":%llu}",
                        stage.ms,
                        static_cast<unsigned long long>(stage.rows),
                        static_cast<unsigned long long>(stage.bytes));
  }
  out += "]";
  out += ",\"status\":";
  out += JsonQuote(StatusCodeToString(r.status));
  out += ",\"error\":" + JsonQuote(r.error);
  out += StringPrintf(",\"slow\":%s", r.slow ? "true" : "false");
  out += ",\"slow_explain\":" + JsonQuote(r.slow_explain);
  out += "}";
  return out;
}

std::string QueryLog::ToJsonLines() const {
  std::vector<QueryLogRecord> records = Snapshot();
  std::string out;
  for (const QueryLogRecord& record : records) {
    out += QueryLogRecordToJson(record);
    out += "\n";
  }
  return out;
}

Status QueryLog::WriteJsonl(Env* env, const std::string& path) const {
  return WriteStringToFile(env, path, ToJsonLines());
}

}  // namespace x3
