#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <ctime>

#include "gen/workload.h"
#include "util/metrics.h"
#include "xdb/database.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace perf {

size_t Parallelism() {
  size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n, 1, 4);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double ProcessCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- Corpora ------------------------------------------------------------

namespace {

constexpr size_t kTreebankAxes = 5;
constexpr size_t kBaseDocs = 2000;

x3::TreebankConfig TreebankConfigFor(bool holding, uint64_t seed) {
  x3::ExperimentSetting setting;
  setting.coverage_holds = holding;
  setting.disjointness_holds = holding;
  setting.dense = true;
  setting.num_axes = kTreebankAxes;
  setting.seed = seed;
  return x3::MakeTreebankConfig(setting);
}

}  // namespace

DocSource::DocSource(CorpusKind kind, uint64_t seed) {
  if (kind == CorpusKind::kDblp) {
    x3::DblpConfig config;
    config.seed = seed;
    dblp_ = std::make_unique<x3::DblpGenerator>(config);
    axis_tags_ = {"author", "month", "year", "journal"};
  } else {
    treebank_ = std::make_unique<x3::TreebankGenerator>(
        TreebankConfigFor(kind == CorpusKind::kTreebankHolding, seed));
    for (size_t a = 0; a < kTreebankAxes; ++a) {
      axis_tags_.push_back(x3::TreebankAxisTag(a));
    }
  }
}

std::string DocSource::Next(OracleFact* fact) {
  x3::XmlDocument doc =
      dblp_ != nullptr ? dblp_->NextArticle() : treebank_->NextTree();
  *fact = ExtractFact(*doc.root(), axis_tags_);
  return x3::WriteXml(doc);
}

Corpus MakeCorpus(CorpusKind kind, uint64_t run_seed) {
  Corpus corpus;
  uint64_t seed = run_seed * 4;
  switch (kind) {
    case CorpusKind::kTreebankViolated:
      corpus.name = "treebank-violated";
      seed += 1;
      break;
    case CorpusKind::kTreebankHolding:
      corpus.name = "treebank-holding";
      corpus.assumptions_hold = true;
      seed += 3;
      break;
    case CorpusKind::kDblp:
      corpus.name = "dblp";
      seed += 2;
      break;
  }
  corpus.source = std::make_unique<DocSource>(kind, seed);
  if (kind == CorpusKind::kDblp) {
    corpus.dtd = x3::DblpDtd();
    corpus.fact_tag = "article";
  } else {
    corpus.dtd = x3::TreebankGenerator(
                     TreebankConfigFor(corpus.assumptions_hold, seed))
                     .MatchingDtd();
    corpus.fact_tag = x3::TreebankRootTag();
  }
  std::vector<size_t> all_axes(corpus.source->axis_tags().size());
  for (size_t a = 0; a < all_axes.size(); ++a) all_axes[a] = a;
  corpus.query_text = QueryText(corpus, all_axes);
  corpus.oracle = std::make_unique<OracleCube>(all_axes.size());
  corpus.docs.reserve(kBaseDocs);
  OracleFact fact;
  for (size_t i = 0; i < kBaseDocs; ++i) {
    corpus.docs.push_back(corpus.source->Next(&fact));
    corpus.oracle->Add(fact);
    corpus.text_bytes += corpus.docs.back().size();
  }
  return corpus;
}

std::string QueryText(const Corpus& corpus, const std::vector<size_t>& axes) {
  const std::vector<std::string>& tags = corpus.source->axis_tags();
  std::string text = "for $f in doc(\"" + corpus.name + ".xml\")//" +
                     corpus.fact_tag;
  for (size_t a : axes) {
    text += ", $a" + std::to_string(a) + " in $f/" + tags[a];
  }
  text += " X^3 $f by ";
  for (size_t i = 0; i < axes.size(); ++i) {
    if (i > 0) text += ", ";
    text += "$a" + std::to_string(axes[i]) + " (LND)";
  }
  return text + " return COUNT($f)";
}

bool LoadCorpus(const Corpus& corpus, x3::Database* db) {
  for (const std::string& text : corpus.docs) {
    auto doc = x3::ParseXml(text);
    if (!doc.ok()) return false;
    if (!db->LoadDocument(*doc).ok()) return false;
  }
  return true;
}

// --- Metric registry ----------------------------------------------------

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const auto& [name, value] :
       x3::MetricRegistry::Global().SnapshotValues()) {
    snap.values[name] = static_cast<double>(value);
  }
  // Histogram sums are doubles; SnapshotValues rounds them.
  x3::Histogram* wait = x3::MetricRegistry::Global().GetHistogram(
      "x3_threadpool_queue_wait_seconds", "");
  snap.values["x3_threadpool_queue_wait_seconds_sum"] = wait->sum();
  snap.values["x3_threadpool_queue_wait_seconds_count"] =
      static_cast<double>(wait->count());
  return snap;
}

double RegistrySnapshot::Delta(const RegistrySnapshot& before,
                               const std::string& name) const {
  auto now = values.find(name);
  auto then = before.values.find(name);
  double a = now == values.end() ? 0 : now->second;
  double b = then == before.values.end() ? 0 : then->second;
  return a - b;
}

double RegistrySnapshot::PoolQueueWaitMs(const RegistrySnapshot& before) const {
  double tasks = Delta(before, "x3_threadpool_queue_wait_seconds_count");
  return tasks > 0
             ? Delta(before, "x3_threadpool_queue_wait_seconds_sum") * 1e3 / tasks
             : 0;
}

// --- Results --------------------------------------------------------------

void EmitEndToEnd(const Args& args, const Measured& m, Report* report) {
  double queries = static_cast<double>(m.query_ms.size());
  double cpu_per_query_ms =
      (m.timed_cpu_s - m.overhead_cpu_s) * 1e3 / std::max(queries, 1.0);
  std::string prefix = args.trace ? "traced_" : "";
  report->Info(prefix + "setup_wall_s", Median(m.setup_wall_s));
  report->Info(prefix + "qps", queries / m.timed_s);
  report->Info(prefix + "query_p50_ms", Quantile(m.query_ms, 0.50));
  report->Info(prefix + "query_p99_ms", Quantile(m.query_ms, 0.99));
  report->Info(prefix + "query_samples", queries);
  report->Info(prefix + "timed_s", m.timed_s);
  report->Info(prefix + "overhead_cpu_s", m.overhead_cpu_s);
  if (args.trace) {
    report->Info("traced_setup_s", Median(m.setup_cpu_s));
    report->Info("traced_cpu_per_query_ms", cpu_per_query_ms);
    return;
  }
  report->Metric("setup_s", Median(m.setup_cpu_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("cpu_per_query_ms", cpu_per_query_ms, "ms");
}

// --- Report -------------------------------------------------------------

void Report::Ops(const std::string& type, uint64_t attempted,
                 uint64_t failed) {
  ops_[type].attempted += attempted;
  ops_[type].failed += failed;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    if (checks_failed_ <= 20) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
}

void Report::Checks(uint64_t n, uint64_t failed, const std::string& what) {
  checks_ += n;
  checks_failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "%llu checks failed, first: %s\n",
                 static_cast<unsigned long long>(failed), what.c_str());
  }
}

void Report::Count(const std::string& name, double value) {
  counts_[name] = value;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& name, double value) {
  info_[name] = value;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + Num(v);
  }
  return out + "}";
}

}  // namespace

int Report::Print() const {
  uint64_t attempted = checks_;
  uint64_t failed = 0;
  std::string ops = "{";
  for (const auto& [type, c] : ops_) {
    attempted += c.attempted;
    failed += c.failed;
    if (ops.size() > 1) ops += ", ";
    ops += "\"" + type + "\": {\"attempted\": " + Num(c.attempted) +
           ", \"failed\": " + Num(c.failed) + "}";
  }
  if (ops.size() > 1) ops += ", ";
  ops += "\"checks\": {\"attempted\": " + Num(checks_) +
         ", \"failed\": " + Num(checks_failed_) + "}}";
  std::printf("{\"ops\": %s, \"counts\": %s, \"info\": %s}\n", ops.c_str(),
              JsonMap(counts_).c_str(), JsonMap(info_).c_str());
  std::string metrics = "{";
  for (const auto& [name, vu] : metrics_) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(vu.first) +
               ", \"unit\": \"" + vu.second + "\"}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct() && failed == 0 ? 0 : 1;
}

}  // namespace perf
