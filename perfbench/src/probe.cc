// The layer probe of traced runs, and the server.* layer metrics.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "cube/algorithm.h"
#include "cube/cube_spec.h"
#include "cube/delta.h"
#include "cube/plan.h"
#include "cube/view_store.h"
#include "schema/dtd_parser.h"
#include "server/x3_server.h"
#include "storage/temp_file.h"
#include "trace.h"
#include "util/memory_budget.h"
#include "workloads.h"
#include "x3/engine.h"
#include "xdb/database.h"
#include "xml/xml_parser.h"

namespace perf {

namespace {

using x3::CubeAlgorithm;

constexpr int kOpenRepetitions = 5;
constexpr int kCompileRepetitions = 50;
constexpr int kPlanRepetitions = 20;
constexpr size_t kWalBatches = 8;
constexpr size_t kWalBatchDocs = 8;
constexpr size_t kServerCommits = 4;

struct AlgoSpan {
  CubeAlgorithm algo;
  const char* span;    // span name (a literal: spans keep the pointer)
  const char* metric;  // metric stem
  bool unsafe;         // exact only where coverage and disjointness hold
};

const AlgoSpan kAlgos[] = {
    {CubeAlgorithm::kReference, "cube.ComputeCube/REFERENCE", "reference",
     false},
    {CubeAlgorithm::kCounter, "cube.ComputeCube/COUNTER", "counter", false},
    {CubeAlgorithm::kBUC, "cube.ComputeCube/BUC", "buc", false},
    {CubeAlgorithm::kBUCOpt, "cube.ComputeCube/BUCOPT", "bucopt", true},
    {CubeAlgorithm::kBUCCust, "cube.ComputeCube/BUCCUST", "buccust", false},
    {CubeAlgorithm::kTD, "cube.ComputeCube/TD", "td", false},
    {CubeAlgorithm::kTDOpt, "cube.ComputeCube/TDOPT", "tdopt", true},
    {CubeAlgorithm::kTDOptAll, "cube.ComputeCube/TDOPTALL", "tdoptall", true},
    {CubeAlgorithm::kTDCust, "cube.ComputeCube/TDCUST", "tdcust", false},
};

struct ProbeCounts {
  double text_bytes = 0;
  double nodes = 0;
  double facts = 0;
  double cuboids = 0;
  double algo_cells[9] = {};
  x3::CubeComputeStats stats;
  x3::CubeComputeStats spill;  // the tight-budget top-down run
  double wal_docs = 0;
  double wal_bytes = 0;
  double syncs = 0;
  double unions = 0;
  x3::DeltaStats delta;
  double delta_batches = 0;
};

/// A short session over `db`: a full cube (computed), every cuboid
/// (cache answers), cache-bypassing reads (computed), a few committed
/// batches and every cuboid again.
void ServerSession(const Args& args, Corpus* corpus, x3::Database* db,
                   const x3::LatticeProperties& properties,
                   uint64_t num_cuboids, Report* report, ServerPhase* phase) {
  x3::X3ServerOptions options;
  options.num_threads = Parallelism();
  options.temp_dir = args.workdir;
  x3::X3Server server(db, options);
  std::vector<ReadSample> samples;
  uint64_t reads = 0, failed = 0, commits = 0, commits_failed = 0;
  RegistrySnapshot before = RegistrySnapshot::Take();
  auto read = [&](std::optional<x3::CuboidId> target, bool use_cache,
                  CubeAlgorithm algo) {
    x3::ServerRequest request;
    request.query_text = corpus->query_text;
    request.properties = &properties;
    request.target = target;
    request.use_cache = use_cache;
    request.algorithm = algo;
    ++reads;
    Span span("read");
    auto t0 = Clock::now();
    std::shared_ptr<x3::X3Server::Ticket> ticket;
    x3::Result<x3::ServerAnswer> answer = x3::Status::Internal("unset");
    {
      Span call("X3Server::Execute");
      ticket = server.Submit(std::move(request));
      answer = ticket->Wait();
    }
    double ms = MsSince(t0);
    if (!answer.ok()) {
      ++failed;
      return;
    }
    samples.push_back(ReadSample{ticket->query_id(), ms, answer->computed});
  };
  read(std::nullopt, true, CubeAlgorithm::kTDOptAll);  // downgraded miss
  for (int pass = 0; pass < 2; ++pass) {
    for (x3::CuboidId c = 0; c < num_cuboids; ++c) {
      read(c, true, CubeAlgorithm::kTDCust);
    }
    for (CubeAlgorithm algo :
         {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD}) {
      read(x3::CuboidId{0}, false, algo);
    }
    if (pass > 0) break;
    OracleFact fact;
    for (size_t b = 0; b < kServerCommits; ++b) {
      std::vector<std::string> docs;
      for (size_t i = 0; i < kWalBatchDocs; ++i) {
        docs.push_back(corpus->source->Next(&fact));
      }
      ++commits;
      Span span("commit");
      auto t0 = Clock::now();
      x3::Result<x3::ServerWriteResult> result = x3::Status::Internal("");
      {
        Span call("X3Server::CommitDocuments");
        result = server.CommitDocuments(docs);
      }
      double ms = MsSince(t0);
      if (!result.ok()) {
        ++commits_failed;
        continue;
      }
      phase->commit_ms.push_back(ms);
    }
  }
  RegistrySnapshot after = RegistrySnapshot::Take();
  report->Ops("probe-read", reads, failed);
  report->Ops("probe-commit", commits, commits_failed);
  for (const ReadSample& s : samples) {
    (s.computed ? phase->miss_ms : phase->hit_ms).push_back(s.ms);
  }
  phase->evictions = after.Delta(before, "x3_server_cache_evictions_total");
  phase->downgrades = after.Delta(before, "x3_server_plan_downgrades_total");
  JoinQueryLog(server.query_log(), samples, phase);
}

}  // namespace

void JoinQueryLog(const x3::QueryLog& log,
                  const std::vector<ReadSample>& samples,
                  ServerPhase* phase) {
  std::unordered_map<uint64_t, const ReadSample*> by_qid;
  for (const ReadSample& sample : samples) by_qid[sample.qid] = &sample;
  for (const x3::QueryLogRecord& record : log.Snapshot()) {
    auto it = by_qid.find(record.qid);
    if (it == by_qid.end()) continue;
    double queue_ms = record.queue_seconds * 1e3;
    ++phase->joined_reads;
    phase->queue_ms_sum += queue_ms;
    if (!it->second->computed) continue;
    // Top-level stages only: "compute" contains the per-cuboid and
    // per-pipe stages.
    double staged = 0;
    for (const x3::QueryStageMs& stage : record.stages) {
      if (stage.label == "materialize" || stage.label == "plan" ||
          stage.label == "compute") {
        staged += stage.ms;
      }
      if (stage.label == "compute") phase->compute_ms_sum += stage.ms;
    }
    ++phase->joined_computed;
    phase->unattributed_ms_sum += it->second->ms - queue_ms - staged;
  }
}

void EmitServerMetrics(const ServerPhase& timed, const ServerPhase& probe,
                       Report* report) {
  auto pick = [&](auto member) -> const ServerPhase& {
    return (timed.*member).empty() ? probe : timed;
  };
  const ServerPhase& reads = timed.joined_reads > 0 ? timed : probe;
  const ServerPhase& computed = timed.joined_computed > 0 ? timed : probe;
  report->Metric("server.queue_ms",
                 reads.queue_ms_sum / std::max<double>(reads.joined_reads, 1),
                 "ms");
  double n = std::max<double>(computed.joined_computed, 1);
  report->Metric("server.compute_ms", computed.compute_ms_sum / n, "ms");
  report->Metric("server.unattributed_ms", computed.unattributed_ms_sum / n,
                 "ms");
  const ServerPhase& hits = pick(&ServerPhase::hit_ms);
  double answered = static_cast<double>(hits.hit_ms.size() +
                                        hits.miss_ms.size());
  report->Metric("server.hit_ratio",
                 static_cast<double>(hits.hit_ms.size()) /
                     std::max(answered, 1.0),
                 "ratio");
  report->Metric("server.hit_p50_ms", Median(hits.hit_ms), "ms");
  report->Metric("server.miss_p50_ms",
                 Median(pick(&ServerPhase::miss_ms).miss_ms), "ms");
  report->Metric("server.commit_p50_ms",
                 Median(pick(&ServerPhase::commit_ms).commit_ms), "ms");
  report->Metric("server.evictions", reads.evictions, "count");
  report->Metric("server.downgrades", reads.downgrades, "count");
}

void RunLayerProbe(const Args& args, Report* report,
                   ServerPhase* server_phase) {
  const CorpusKind kKinds[] = {CorpusKind::kTreebankViolated,
                               CorpusKind::kTreebankHolding, CorpusKind::kDblp};
  ProbeCounts counts;
  x3::TempFileManager temp_files(args.workdir);
  RegistrySnapshot probe_before = RegistrySnapshot::Take();
  for (size_t ci = 0; ci < std::size(kKinds); ++ci) {
    Corpus made = MakeCorpus(kKinds[ci], args.seed);
    Corpus* corpus = &made;
    // xml: parse the corpus text.
    std::vector<x3::XmlDocument> docs;
    docs.reserve(corpus->docs.size());
    for (const std::string& text : corpus->docs) {
      Span span("xml.ParseXml");
      auto doc = x3::ParseXml(text);
      if (!doc.ok()) {
        report->Check(false, "probe parse");
        return;
      }
      docs.push_back(std::move(*doc));
    }
    counts.text_bytes += static_cast<double>(corpus->text_bytes);

    // xdb: open (repeated) and shred.
    std::unique_ptr<x3::Database> db;
    x3::DatabaseOptions db_options;
    db_options.data_file = args.workdir + "/probe.db";
    for (int i = 0; i < kOpenRepetitions; ++i) {
      db.reset();
      Span span("xdb.Database::Open");
      auto opened = x3::Database::Open(db_options);
      if (!opened.ok()) {
        report->Check(false, "probe open");
        return;
      }
      db = std::move(*opened);
    }
    for (const x3::XmlDocument& doc : docs) {
      Span span("xdb.Database::LoadDocument");
      if (!db->LoadDocument(doc).ok()) {
        report->Check(false, "probe shred");
        return;
      }
    }
    counts.nodes += static_cast<double>(db->node_count());
    docs.clear();

    // x3, relax, schema.
    x3::X3Engine engine(db.get());
    x3::Result<x3::CubeQuery> query = x3::Status::Internal("");
    for (int i = 0; i < kCompileRepetitions; ++i) {
      Span span("x3.X3Engine::Compile");
      query = engine.Compile(corpus->query_text);
    }
    if (!query.ok()) {
      report->Check(false, "probe compile");
      return;
    }
    x3::Result<x3::CubeLattice> lattice = x3::Status::Internal("");
    for (int i = 0; i < kCompileRepetitions; ++i) {
      Span span("relax.BuildCubeLattice");
      lattice = x3::BuildCubeLattice(*query);
    }
    x3::Result<x3::LatticeProperties> props = x3::Status::Internal("");
    for (int i = 0; i < kCompileRepetitions && lattice.ok(); ++i) {
      Span span("schema.ParseDtd+InferLatticeProperties");
      auto schema = x3::ParseDtd(corpus->dtd);
      if (!schema.ok()) break;
      props = x3::InferLatticeProperties(*schema, *lattice, corpus->fact_tag);
    }
    if (!lattice.ok() || !props.ok()) {
      report->Check(false, "probe lattice/schema");
      return;
    }
    counts.cuboids += static_cast<double>(lattice->num_cuboids());

    // pattern: the fact table.
    x3::Result<x3::FactTable> facts = x3::Status::Internal("");
    {
      Span span("pattern.BuildFactTable");
      facts = x3::BuildFactTable(*db, *query, *lattice);
    }
    if (!facts.ok()) {
      report->Check(false, "probe fact table");
      return;
    }
    counts.facts += static_cast<double>(facts->size());

    // cube: plans and the executors on the prepared table, under the
    // cube-batch budget with the table charged to it, as
    // X3Engine::ExecuteQuery does. As in cube-batch, BUCOPT, TDOPT and
    // TDOPTALL run only where coverage and disjointness hold, and every
    // cube must match the oracle.
    size_t fact_bytes = facts->ApproxBytes();
    size_t budget_bytes =
        static_cast<size_t>(static_cast<double>(fact_bytes) * kCubeBudgetFactor);
    uint64_t cube_ops = 0, cube_failed = 0;
    for (size_t a = 0; a < 9; ++a) {
      if (kAlgos[a].unsafe && !corpus->assumptions_hold) continue;
      for (int i = 0; i < kPlanRepetitions; ++i) {
        Span span("cube.BuildCubePlan");
        x3::CubePlan plan = x3::BuildCubePlan(kAlgos[a].algo, *lattice, *props);
        (void)plan;
      }
      x3::MemoryBudget budget(budget_bytes);
      budget.ForceReserve(fact_bytes);
      x3::CubeComputeOptions options;
      options.budget = &budget;
      options.temp_files = &temp_files;
      options.properties = &*props;
      options.parallelism = Parallelism();
      x3::CubeComputeStats stats;
      ++cube_ops;
      x3::Result<x3::CubeResult> cube = x3::Status::Internal("");
      {
        Span span(kAlgos[a].span);
        cube = x3::ComputeCube(kAlgos[a].algo, *facts, *lattice, options,
                               &stats);
      }
      if (!cube.ok()) {
        ++cube_failed;
        continue;
      }
      std::string diff = CompareCube(*cube, *facts, *lattice, *corpus->oracle);
      report->Check(diff.empty(), std::string("probe ") + kAlgos[a].metric +
                                      " on " + corpus->name + ": " + diff);
      if (!diff.empty()) continue;
      counts.algo_cells[a] += static_cast<double>(cube->TotalCells());
      counts.stats.Absorb(stats);
    }
    // storage: the external sorter under the tight budget, where every
    // top-down sort spills.
    {
      x3::MemoryBudget budget(static_cast<size_t>(
          static_cast<double>(fact_bytes) * kSpillBudgetFactor));
      budget.ForceReserve(fact_bytes);
      x3::CubeComputeOptions options;
      options.budget = &budget;
      options.temp_files = &temp_files;
      options.properties = &*props;
      options.parallelism = Parallelism();
      ++cube_ops;
      x3::Result<x3::CubeResult> cube = x3::Status::Internal("");
      {
        Span span("storage.spill/ComputeCube(TD)");
        cube = x3::ComputeCube(CubeAlgorithm::kTD, *facts, *lattice, options,
                               &counts.spill);
      }
      if (!cube.ok()) {
        ++cube_failed;
      } else {
        std::string diff =
            CompareCube(*cube, *facts, *lattice, *corpus->oracle);
        report->Check(diff.empty(),
                      "probe spilling td on " + corpus->name + ": " + diff);
      }
    }
    report->Ops("probe-cube", cube_ops, cube_failed);

    // views: the finest view with fact ids, every cuboid rolled up from
    // it; the apex and single-axis cuboids also held without ids so the
    // delta step below both patches and recomputes.
    auto store = std::make_unique<x3::CubeViewStore>(&*facts, &*lattice);
    x3::CuboidId finest = lattice->FinestCuboid();
    {
      Span span("views.CubeViewStore::Materialize");
      if (!store->Materialize(finest, true).ok()) {
        report->Check(false, "probe materialize");
        return;
      }
    }
    RegistrySnapshot views_before = RegistrySnapshot::Take();
    uint64_t rollups = 0, rollups_failed = 0;
    for (x3::CuboidId c = 0; c < lattice->num_cuboids(); ++c) {
      Span span("views.CubeViewStore::AnswerFromViews");
      ++rollups;
      if (!store->AnswerFromViews(c, x3::AggregateFunction::kCount, &*props)
               .ok()) {
        ++rollups_failed;
      }
    }
    report->Ops("probe-rollup", rollups, rollups_failed);
    counts.unions += RegistrySnapshot::Take().Delta(
        views_before, "x3_factset_unions_total");
    for (x3::CuboidId c = 0; c < lattice->num_cuboids(); ++c) {
      if (__builtin_popcount(KeptMask(*lattice, c)) <= 1 &&
          !store->Materialize(c, false).ok()) {
        report->Check(false, "probe materialize id-less");
        return;
      }
    }

    // storage + delta: fresh batches through the WAL, each folded into
    // a clone of the fact table and the views as the server does.
    // `current` is the table the views of `store` point into.
    const x3::FactTable* current = &*facts;
    std::unique_ptr<x3::FactTable> owned;
    uint64_t batch_ops = 0, batch_failed = 0;
    for (size_t b = 0; b < kWalBatches; ++b) {
      RegistrySnapshot wal_before = RegistrySnapshot::Take();
      x3::NodeId first_new_node = db->node_count();
      std::vector<x3::XmlDocument> batch;
      OracleFact fact;
      for (size_t i = 0; i < kWalBatchDocs; ++i) {
        auto doc = x3::ParseXml(corpus->source->Next(&fact));
        if (doc.ok()) batch.push_back(std::move(*doc));
      }
      ++batch_ops;
      bool ok;
      {
        Span span("storage.Database::BeginBatch");
        ok = db->BeginBatch().ok();
      }
      for (const x3::XmlDocument& doc : batch) {
        Span span("storage.Database::LoadDocument(batch)");
        ok = ok && db->LoadDocument(doc).ok();
      }
      {
        Span span("storage.Database::CommitBatch");
        ok = ok && db->CommitBatch().ok();
      }
      if (!ok) {
        ++batch_failed;
        break;
      }
      RegistrySnapshot wal_after = RegistrySnapshot::Take();
      counts.wal_docs += static_cast<double>(batch.size());
      counts.wal_bytes += wal_after.Delta(wal_before, "x3_wal_bytes_total");
      counts.syncs += wal_after.Delta(wal_before, "x3_env_syncs_total");

      Span maintain("delta.maintain");
      size_t first_new_fact = current->size();
      std::unique_ptr<x3::FactTable> next;
      {
        Span span("delta.FactTable::Clone");
        next = std::make_unique<x3::FactTable>(current->Clone());
      }
      {
        Span span("delta.AppendNewFacts");
        ok = x3::AppendNewFacts(*db, *query, *lattice, first_new_node,
                                next.get())
                 .ok();
      }
      auto next_store = std::make_unique<x3::CubeViewStore>(next.get(),
                                                            &*lattice);
      x3::DeltaPlan plan;
      {
        Span span("delta.PlanViewDeltas");
        plan = x3::PlanViewDeltas(*store, *next, *lattice, *props,
                                  first_new_fact);
      }
      {
        Span span("delta.ApplyViewDeltas");
        ok = ok && x3::ApplyViewDeltas(*store, next_store.get(), plan,
                                       &counts.delta)
                       .ok();
      }
      if (!ok) {
        ++batch_failed;
        break;
      }
      counts.delta_batches += 1;
      store = std::move(next_store);  // views point into `next`
      owned = std::move(next);
      current = owned.get();
    }
    report->Ops("probe-batch", batch_ops, batch_failed);

    if (ci == 0) {
      store.reset();
      ServerSession(args, corpus, db.get(), *props, lattice->num_cuboids(),
                    report, server_phase);
    }
  }
  RegistrySnapshot probe_after = RegistrySnapshot::Take();

  // --- Metrics from span self times and the counts ---
  std::map<std::string, SpanTotals> spans = SummarizeSpans();
  auto self_ms = [&](const char* name) { return spans[name].self_ms; };
  auto mean_ms = [&](const char* name) {
    const SpanTotals& t = spans[name];
    return t.count > 0 ? t.self_ms / static_cast<double>(t.count) : 0;
  };
  auto per = [](double a, double b) { return b > 0 ? a / b : 0; };

  double parse_ms = self_ms("xml.ParseXml");
  report->Metric("xml.parse_ms", parse_ms, "ms");
  report->Metric("xml.parse_mb_per_s",
                 per(counts.text_bytes / 1e6, parse_ms / 1e3), "MB/s");
  report->Metric("xdb.open_ms", mean_ms("xdb.Database::Open"), "ms");
  double shred_ms = self_ms("xdb.Database::LoadDocument");
  report->Metric("xdb.shred_ms", shred_ms, "ms");
  report->Metric("xdb.shred_ns_per_node", per(shred_ms * 1e6, counts.nodes),
                 "ns");
  report->Metric("xdb.nodes", counts.nodes, "count");

  report->Metric("storage.spill_td_ms",
                 self_ms("storage.spill/ComputeCube(TD)"), "ms");
  report->Metric("storage.spill_mb",
                 static_cast<double>(counts.spill.spill_bytes) / 1e6, "MB");
  report->Metric("storage.spilled_runs",
                 static_cast<double>(counts.spill.spilled_runs), "count");
  report->Metric("storage.pool_hits",
                 probe_after.Delta(probe_before, "x3_storage_pool_hits_total"),
                 "count");
  report->Metric(
      "storage.pool_misses",
      probe_after.Delta(probe_before, "x3_storage_pool_misses_total"),
      "count");
  report->Metric("storage.wal_commit_ms",
                 mean_ms("storage.Database::CommitBatch"), "ms");
  report->Metric("storage.wal_bytes_per_doc",
                 per(counts.wal_bytes, counts.wal_docs), "B");
  report->Metric("storage.syncs", counts.syncs, "count");

  double fact_ms = self_ms("pattern.BuildFactTable");
  report->Metric("pattern.fact_table_ms", fact_ms, "ms");
  report->Metric("pattern.ns_per_fact", per(fact_ms * 1e6, counts.facts),
                 "ns");
  report->Metric("pattern.facts", counts.facts, "count");

  report->Metric("relax.lattice_us",
                 mean_ms("relax.BuildCubeLattice") * 1e3, "us");
  report->Metric("relax.cuboids", counts.cuboids, "count");
  report->Metric("schema.infer_us",
                 mean_ms("schema.ParseDtd+InferLatticeProperties") * 1e3,
                 "us");
  report->Metric("x3.compile_us", mean_ms("x3.X3Engine::Compile") * 1e3,
                 "us");

  report->Metric("cube.plan_us", mean_ms("cube.BuildCubePlan") * 1e3, "us");
  double cells = 0;
  for (size_t a = 0; a < 9; ++a) {
    double ms = self_ms(kAlgos[a].span);
    std::string stem = std::string("cube.") + kAlgos[a].metric;
    report->Metric(stem + "_ms", ms, "ms");
    report->Metric(stem + "_ns_per_cell", per(ms * 1e6, counts.algo_cells[a]),
                   "ns");
    cells += counts.algo_cells[a];
  }
  report->Metric("cube.cells", cells, "count");
  report->Metric("cube.sorts", static_cast<double>(counts.stats.sorts),
                 "count");
  report->Metric("cube.records_sorted",
                 static_cast<double>(counts.stats.records_sorted), "count");
  report->Metric("cube.partition_rows",
                 static_cast<double>(counts.stats.partition_rows), "count");
  report->Metric("cube.passes", static_cast<double>(counts.stats.passes),
                 "count");
  report->Metric("cube.rollups", static_cast<double>(counts.stats.rollups),
                 "count");

  report->Metric("views.materialize_ms",
                 self_ms("views.CubeViewStore::Materialize"), "ms");
  report->Metric("views.rollup_ms",
                 self_ms("views.CubeViewStore::AnswerFromViews"), "ms");
  report->Metric("factset.unions", counts.unions, "count");

  report->Metric("delta.maintain_ms",
                 per(spans["delta.maintain"].total_ms, counts.delta_batches),
                 "ms");
  report->Metric("delta.views_patched",
                 static_cast<double>(counts.delta.views_patched), "count");
  report->Metric("delta.views_recomputed",
                 static_cast<double>(counts.delta.views_recomputed), "count");
  report->Metric("delta.cells_touched",
                 static_cast<double>(counts.delta.cells_touched), "count");
}

}  // namespace perf
