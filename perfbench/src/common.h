// Shared pieces of the benchmark program: command-line arguments, the
// generated corpora, timing and percentile helpers, metric-registry
// deltas and the result report every workload prints.
#ifndef X3_PERFBENCH_COMMON_H_
#define X3_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/dblp_gen.h"
#include "gen/treebank_gen.h"
#include "oracle.h"

namespace perf {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for database, WAL and spill files (inside the
  /// checkout; removed when the run ends).
  std::string workdir;
};

/// Worker count used for compute parallelism, server threads and
/// clients: the hardware concurrency, at most 4.
size_t Parallelism();

/// Working-memory budget of a full-cube computation, as a multiple of
/// its fact table (which is charged to the budget too). cube-batch's
/// factor leaves the top-down sorts less than their footprint, so the
/// largest ones spill a little; the layer probe's spill run uses the
/// tight factor, under which every top-down sort spills.
constexpr double kCubeBudgetFactor = 3.0;
constexpr double kSpillBudgetFactor = 1.25;

// --- Time ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process (getrusage), in MB.
double PeakRssMb();

/// CPU time of every thread of this process so far, in seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread so far, in seconds.
double ThreadCpuSeconds();

/// Wall and process CPU clocks started together.
struct Stopwatch {
  Clock::time_point wall = Clock::now();
  double cpu = ProcessCpuSeconds();
  double WallSeconds() const { return SecondsSince(wall); }
  double CpuSeconds() const { return ProcessCpuSeconds() - cpu; }
};

// --- Corpora ------------------------------------------------------------

/// The three generated inputs. Treebank-shaped corpora are dense
/// (4 values per axis) with 5 LND axes; "violated" breaks both
/// coverage and disjointness (missing/repeat probability 0.25),
/// "holding" keeps both. DBLP follows the §4.5 cardinalities (author
/// repeated and missing, month missing).
enum class CorpusKind { kTreebankViolated, kTreebankHolding, kDblp };

/// Deterministic source of fresh documents of one corpus kind: each
/// call yields the XML text of the next generated tree together with
/// the distinct values its axes carry (read straight off the
/// generator's tree, for the oracle).
class DocSource {
 public:
  DocSource(CorpusKind kind, uint64_t seed);
  std::string Next(OracleFact* fact);

  const std::vector<std::string>& axis_tags() const { return axis_tags_; }

 private:
  std::unique_ptr<x3::TreebankGenerator> treebank_;
  std::unique_ptr<x3::DblpGenerator> dblp_;
  std::vector<std::string> axis_tags_;
};

struct Corpus {
  std::string name;
  bool assumptions_hold = false;  // coverage and disjointness both hold
  std::string query_text;  // over every axis
  std::string dtd;
  std::string fact_tag;
  std::vector<std::string> docs;  // base documents as XML text
  std::unique_ptr<DocSource> source;  // continues after the base docs
  std::unique_ptr<OracleCube> oracle;  // over `docs`
  size_t text_bytes = 0;
};

/// Generates the 2000 base documents of `kind` for the run's seed; each
/// kind draws from its own stream (run_seed x 4 + 1, 2 or 3), so every
/// workload of one seed sees the same corpus of a kind.
Corpus MakeCorpus(CorpusKind kind, uint64_t run_seed);

/// The X^3 query cubing `corpus`'s facts by the listed axes (indices
/// into the corpus's axis tags, ascending), LND on every axis, COUNT.
std::string QueryText(const Corpus& corpus, const std::vector<size_t>& axes);

/// Parses and shreds every base document of `corpus` into `db`.
bool LoadCorpus(const Corpus& corpus, x3::Database* db);

// --- Metric registry ----------------------------------------------------

/// Counter values of the program's metric registry at one instant;
/// differences of two snapshots attribute counts to one phase.
struct RegistrySnapshot {
  std::map<std::string, double> values;
  static RegistrySnapshot Take();
  double Delta(const RegistrySnapshot& before, const std::string& name) const;
  /// Mean thread-pool queue wait per task since `before`, in ms.
  double PoolQueueWaitMs(const RegistrySnapshot& before) const;
};

// --- Report -------------------------------------------------------------

/// What one run prints: per-operation attempted/failed counts, the
/// check verdict, counts that repeat exactly (for citing as counts) and
/// the metrics. The last line of stdout is the result object.
class Report {
 public:
  void Ops(const std::string& type, uint64_t attempted, uint64_t failed);
  /// Records one correctness check; a false `ok` prints `what`.
  void Check(bool ok, const std::string& what);
  /// Records `n` checks of which `failed` failed, the first as `what`.
  void Checks(uint64_t n, uint64_t failed, const std::string& what);
  void Count(const std::string& name, double value);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Informational figures (not part of the result's metrics).
  void Info(const std::string& name, double value);
  bool correct() const { return checks_failed_ == 0; }
  /// Prints the detail line and the result line; returns the exit code.
  int Print() const;

 private:
  struct OpCount {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, OpCount> ops_;
  uint64_t checks_ = 0;
  uint64_t checks_failed_ = 0;
  std::map<std::string, double> counts_;
  std::map<std::string, double> info_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// --- Results --------------------------------------------------------------

/// What a workload measured, for its result line.
struct Measured {
  std::vector<double> setup_wall_s;  // one per set-up repetition
  std::vector<double> setup_cpu_s;
  std::vector<double> query_ms;      // client-side latency per query
  double timed_s = 0;                // wall length of the timed phase
  double timed_cpu_s = 0;            // process CPU time over it
  /// Part of timed_cpu_s the benchmark's own threads spent outside
  /// program calls (checks, request and document generation).
  double overhead_cpu_s = 0;
};

/// Untraced runs: emits the end-to-end metrics. Every run: prints the
/// wall-clock figures (set-up, qps, latency percentiles) as information,
/// prefixed "traced_" in traced runs.
void EmitEndToEnd(const Args& args, const Measured& measured, Report* report);

}  // namespace perf

#endif  // X3_PERFBENCH_COMMON_H_
