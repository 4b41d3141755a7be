// cube-batch: X3Engine::ExecuteQuery from query text to cells, one full
// cube per (corpus, algorithm) pair, in whole rounds. An algorithm runs
// only on corpora where its assumptions hold. Nothing goes through the
// server, the cuboid cache or the WAL.
#include <cstdio>
#include <memory>

#include "cube/algorithm.h"
#include "schema/dtd_parser.h"
#include "storage/temp_file.h"
#include "trace.h"
#include "util/memory_budget.h"
#include "workloads.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace perf {

namespace {

constexpr size_t kSetupRepetitions = 9;

using x3::CubeAlgorithm;

/// Safe everywhere: exact whatever the data.
const CubeAlgorithm kSafe[] = {
    CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
    CubeAlgorithm::kBUC,       CubeAlgorithm::kBUCCust,
    CubeAlgorithm::kTD,        CubeAlgorithm::kTDCust,
};
/// Exact only when disjointness (and, for TDOPTALL, coverage) holds.
const CubeAlgorithm kUnsafe[] = {
    CubeAlgorithm::kBUCOpt,
    CubeAlgorithm::kTDOpt,
    CubeAlgorithm::kTDOptAll,
};

enum class Family { kReference, kCounter, kBottomUp, kTopDown };

Family FamilyOf(CubeAlgorithm algo) {
  switch (algo) {
    case CubeAlgorithm::kReference:
      return Family::kReference;
    case CubeAlgorithm::kCounter:
      return Family::kCounter;
    case CubeAlgorithm::kBUC:
    case CubeAlgorithm::kBUCOpt:
    case CubeAlgorithm::kBUCCust:
      return Family::kBottomUp;
    default:
      return Family::kTopDown;
  }
}

struct Prepared {
  Corpus* corpus = nullptr;
  std::unique_ptr<x3::Database> db;
  x3::CubeQuery query;
  x3::LatticeProperties properties;
  size_t budget_bytes = 0;
};

struct Pair {
  size_t corpus = 0;
  CubeAlgorithm algo{};
  uint64_t cells = 0;  // from the checked first round
};

}  // namespace

void RunCubeBatch(const Args& args, Report* report) {
  const size_t parallelism = Parallelism();
  std::vector<std::unique_ptr<Corpus>> corpora;
  for (CorpusKind kind : {CorpusKind::kTreebankViolated,
                          CorpusKind::kTreebankHolding, CorpusKind::kDblp}) {
    corpora.push_back(std::make_unique<Corpus>(MakeCorpus(kind, args.seed)));
  }

  // Set-up, repeated: open one database per corpus, parse and shred the
  // corpus, compile the query and infer its properties from the DTD.
  Measured measured;
  std::vector<Prepared> prepared;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    prepared.clear();
    Stopwatch setup;
    for (size_t c = 0; c < corpora.size(); ++c) {
      Prepared p;
      p.corpus = corpora[c].get();
      x3::DatabaseOptions db_options;
      db_options.data_file = args.workdir + "/cube-" + p.corpus->name + ".db";
      auto db = x3::Database::Open(db_options);
      if (!db.ok() || !LoadCorpus(*p.corpus, db->get())) {
        report->Check(false, "set-up of " + p.corpus->name);
        return;
      }
      p.db = std::move(*db);
      auto query = x3::X3Engine(p.db.get()).Compile(p.corpus->query_text);
      auto lattice = query.ok() ? x3::BuildCubeLattice(*query)
                                : x3::Result<x3::CubeLattice>(query.status());
      auto schema = x3::ParseDtd(p.corpus->dtd);
      if (!lattice.ok() || !schema.ok()) {
        report->Check(false, "compile " + p.corpus->name);
        return;
      }
      auto props =
          x3::InferLatticeProperties(*schema, *lattice, p.corpus->fact_tag);
      if (!props.ok()) {
        report->Check(false, "infer " + p.corpus->name);
        return;
      }
      p.query = std::move(*query);
      p.properties = std::move(*props);
      prepared.push_back(std::move(p));
    }
    measured.setup_wall_s.push_back(setup.WallSeconds());
    measured.setup_cpu_s.push_back(setup.CpuSeconds());
  }

  // Budgets follow each fact table (measured once, outside set-up).
  for (Prepared& p : prepared) {
    auto table = x3::X3Engine(p.db.get()).Prepare(p.query);
    if (!table.ok()) {
      report->Check(false, "prepare " + p.corpus->name);
      return;
    }
    p.budget_bytes = static_cast<size_t>(
        static_cast<double>(table->facts.ApproxBytes()) * kCubeBudgetFactor);
    report->Count("facts." + p.corpus->name,
                  static_cast<double>(table->facts.size()));
  }

  std::vector<Pair> pairs;
  for (size_t c = 0; c < prepared.size(); ++c) {
    for (CubeAlgorithm algo : kSafe) pairs.push_back(Pair{c, algo, 0});
    if (!prepared[c].corpus->assumptions_hold) continue;
    for (CubeAlgorithm algo : kUnsafe) pairs.push_back(Pair{c, algo, 0});
  }

  x3::TempFileManager temp_files(args.workdir);
  uint64_t cube_ops = 0, cube_failed = 0;
  // One full cube under a fresh budget; failures are counted.
  auto execute = [&](const Pair& pair) {
    const Prepared& p = prepared[pair.corpus];
    x3::MemoryBudget budget(p.budget_bytes);
    x3::CubeComputeOptions options;
    options.budget = &budget;
    options.temp_files = &temp_files;
    options.properties = &p.properties;
    options.parallelism = parallelism;
    ++cube_ops;
    Span span("X3Engine::ExecuteQuery");
    auto result =
        x3::X3Engine(p.db.get()).ExecuteQuery(p.query, pair.algo, options);
    if (!result.ok()) {
      ++cube_failed;
      std::fprintf(stderr, "%s on %s failed: %s\n",
                   x3::CubeAlgorithmToString(pair.algo),
                   p.corpus->name.c_str(),
                   result.status().ToString().c_str());
    }
    return result;
  };

  // Checked round (untimed): every algorithm's cube against the oracle.
  uint64_t spill_bytes = 0;
  for (Pair& pair : pairs) {
    auto result = execute(pair);
    if (!result.ok()) continue;
    const Corpus& corpus = *prepared[pair.corpus].corpus;
    std::string diff = CompareCube(result->cube, result->facts,
                                   result->lattice, *corpus.oracle);
    report->Check(diff.empty(), std::string(x3::CubeAlgorithmToString(
                                    pair.algo)) +
                                    " on " + corpus.name + ": " + diff);
    pair.cells = result->cube.TotalCells();
    spill_bytes += result->stats.spill_bytes;
    report->Count("cells." + corpus.name, static_cast<double>(pair.cells));
  }
  // Not a repeatable count: parallel sorts share one budget.
  report->Info("spill_bytes_first_round", static_cast<double>(spill_bytes));

  // Timed rounds: every pair once per round, whole rounds only. Per
  // round, each algorithm family's wall and CPU time summed over the
  // corpora.
  std::vector<double> family_ms[4], family_cpu_ms[4];
  RegistrySnapshot before = RegistrySnapshot::Take();
  const Stopwatch timed;
  uint64_t rounds = 0;
  uint64_t cell_checks = 0, cell_check_failures = 0;
  std::string first_failure;
  while (timed.WallSeconds() < args.seconds) {
    double round_ms[4] = {0, 0, 0, 0}, round_cpu_ms[4] = {0, 0, 0, 0};
    Span round("round", rounds + 1);
    for (const Pair& pair : pairs) {
      const Stopwatch query;
      auto result = execute(pair);
      double ms = query.WallSeconds() * 1e3;
      if (!result.ok()) continue;
      measured.query_ms.push_back(ms);
      int family = static_cast<int>(FamilyOf(pair.algo));
      round_ms[family] += ms;
      round_cpu_ms[family] += query.CpuSeconds() * 1e3;
      // The cell count repeats exactly round after round.
      ++cell_checks;
      if (result->cube.TotalCells() != pair.cells &&
          cell_check_failures++ == 0) {
        first_failure = x3::CubeAlgorithmToString(pair.algo);
      }
    }
    for (int f = 0; f < 4; ++f) {
      family_ms[f].push_back(round_ms[f]);
      family_cpu_ms[f].push_back(round_cpu_ms[f]);
    }
    ++rounds;
  }
  measured.timed_s = timed.WallSeconds();
  measured.timed_cpu_s = timed.CpuSeconds();
  RegistrySnapshot after = RegistrySnapshot::Take();
  report->Ops("cube", cube_ops, cube_failed);
  report->Checks(cell_checks, cell_check_failures,
                 "cell count changed: " + first_failure);
  report->Count("pairs", static_cast<double>(pairs.size()));
  report->Info("rounds", static_cast<double>(rounds));
  const char* const kFamilies[] = {"reference", "counter", "bottomup",
                                   "topdown"};
  for (int f = 0; f < 4; ++f) {
    report->Info(std::string(kFamilies[f]) + "_ms", Median(family_ms[f]));
    report->Info(std::string(kFamilies[f]) + "_cpu_ms",
                 Median(family_cpu_ms[f]));
  }
  EmitEndToEnd(args, measured, report);
  if (!args.trace) return;

  report->Metric("pool.queue_wait_ms", after.PoolQueueWaitMs(before), "ms");
  prepared.clear();
  corpora.clear();
  ServerPhase none, probe;
  RunLayerProbe(args, report, &probe);
  EmitServerMetrics(none, probe, report);
}

}  // namespace perf
