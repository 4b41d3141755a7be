// The benchmark's workloads and the per-layer probe of traced runs.
#ifndef X3_PERFBENCH_WORKLOADS_H_
#define X3_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/query_log.h"

namespace perf {

/// cube-batch: full cubes through X3Engine::ExecuteQuery, one per
/// (corpus, algorithm) pair, in whole rounds.
void RunCubeBatch(const Args& args, Report* report);

/// serve-mixed (ingest = false) and serve-ingest (ingest = true): one
/// X3Server under closed-loop readers, plus one writer for ingest.
void RunServe(const Args& args, bool ingest, Report* report);

/// One read's client-side latency, joined to the query log by qid.
struct ReadSample {
  uint64_t qid = 0;
  double ms = 0;
  bool computed = false;
};

/// What one server session measured, for the server.* layer metrics.
struct ServerPhase {
  std::vector<double> hit_ms;     // client-side latency of cache answers
  std::vector<double> miss_ms;    // client-side latency of computed answers
  std::vector<double> commit_ms;  // CommitDocuments latency per batch
  double queue_ms_sum = 0;        // query-log queue wait, joined reads
  double compute_ms_sum = 0;      // "compute" stage, joined computed reads
  double unattributed_ms_sum = 0; // latency - queue - stages, computed reads
  uint64_t joined_reads = 0;
  uint64_t joined_computed = 0;
  double evictions = 0;
  double downgrades = 0;
};

/// Adds the query-log figures of `samples` (queue wait; compute stage
/// and unattributed time of computed reads) to `phase`.
void JoinQueryLog(const x3::QueryLog& log,
                  const std::vector<ReadSample>& samples, ServerPhase* phase);

/// Emits every server.* per-layer metric: from `timed` where it holds
/// samples for the metric, else from `probe`.
void EmitServerMetrics(const ServerPhase& timed, const ServerPhase& probe,
                       Report* report);

/// Traced runs only: times each layer's public functions (parse, open,
/// shred, lattice, schema, compile, fact table, plan, the executors,
/// views, WAL batch, delta maintenance) under spans on the seed's three
/// base corpora, the ones cube-batch uses, and emits the per-layer
/// metrics from the spans' self times and the counters. An algorithm
/// runs only on corpora where its assumptions hold, and every probe
/// cube is checked against the oracle. Also runs a short server
/// session over the first corpus into `server_phase`.
void RunLayerProbe(const Args& args, Report* report,
                   ServerPhase* server_phase);

}  // namespace perf

#endif  // X3_PERFBENCH_WORKLOADS_H_
