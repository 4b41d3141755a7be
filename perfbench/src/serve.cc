// serve-mixed and serve-ingest: one X3Server over a database holding a
// Treebank-shaped corpus (coverage and disjointness violated) and a
// DBLP corpus. serve-mixed drives it with closed-loop reader clients
// with no think time. serve-ingest's readers run open loop, beside one
// writer committing fixed-size batches of fresh documents through
// CommitDocuments for the whole timed phase. Reads name one of several
// query shapes per corpus (every axis, and every axis but one), so the
// working set is many finest views.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "cube/algorithm.h"
#include "schema/dtd_parser.h"
#include "server/x3_server.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace perf {

namespace {

// Input make-up (see README.md). No trace of real X3 query traffic
// exists to measure a read mix from; the shares follow the repository's
// serving harness (bench/bench_server.cc) wherever it has one.
constexpr size_t kSetupRepetitions = 9;
/// serve-mixed cache (assumed): about two thirds of the 4.4 MB that
/// every cuboid of every shape takes, so it evicts continuously.
constexpr size_t kMixedCacheBytes = 3u << 20;
/// serve-ingest cache: holds the working set.
constexpr size_t kIngestCacheBytes = 512u << 20;
/// Documents of each corpus per committed batch (4 + 4: the delta
/// benchmark's middle batch size of 8), and the writer's schedule: one
/// batch due every interval (open loop, assumed: 10 commits/s keeps well
/// inside what the write lane sustains), so the database grows by the
/// same amount in every run whatever the commit speed.
constexpr size_t kBatchDocs = 4;
constexpr double kCommitIntervalSeconds = 0.1;
/// Each serve-ingest reader's schedule (open loop): one read due every
/// interval, so every run serves the same number of reads. 50 reads/s
/// per reader is the serving harness's default (200 queries/s over 4
/// clients), well below what the server sustains.
constexpr double kIngestReadIntervalSeconds = 0.02;
/// Shares of the serving harness: full-cube reads, iceberg threshold 2.
constexpr double kFullCubeShare = 1.0 / 8;
constexpr double kIcebergShare = 0.2;
/// Assumed, not measured: the harness picks target cuboids uniformly,
/// the benchmark skews them (Zipf) so that hot cuboids stay cached while
/// the cold tail misses.
constexpr double kTargetZipfTheta = 0.8;
constexpr size_t kQueryLogCapacity = 1u << 14;
/// Fixed seed of the cuboid popularity order: the same cuboids are hot
/// in every run, whatever --seed generated the data.
constexpr uint64_t kPopularitySeed = 20070415;

/// The serving harness's requested algorithms, safe and unsafe.
const x3::CubeAlgorithm kReadAlgorithms[] = {
    x3::CubeAlgorithm::kCounter,  x3::CubeAlgorithm::kBUC,
    x3::CubeAlgorithm::kBUCCust,  x3::CubeAlgorithm::kTD,
    x3::CubeAlgorithm::kTDOptAll, x3::CubeAlgorithm::kTDCust,
};

/// One query shape: a corpus cubed by a subset of its axes.
struct Shape {
  Corpus* corpus = nullptr;
  std::vector<size_t> axes;  // corpus axes the query keeps
  std::string query_text;
  x3::LatticeProperties properties;
  uint64_t num_cuboids = 0;
  x3::CuboidId apex = 0;
  std::vector<uint32_t> kept_mask;     // per cuboid, in corpus axes
  std::vector<x3::CuboidId> by_rank;   // popularity rank -> cuboid
  /// Engine cube of the base data (already checked against the
  /// oracle), per cuboid, and its cell count at iceberg threshold 2.
  std::vector<x3::CellMap> reference;
  std::vector<size_t> reference_iceberg_cells;
};

/// Expected per-cuboid count totals after k committed batches, for the
/// in-run checks of serve-ingest. Row k is appended before batch k is
/// committed, so any snapshot a reader can observe has its row.
class ExpectedTotals {
 public:
  void Append(std::vector<std::vector<int64_t>> row) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(row));
  }
  bool Matches(size_t shape, x3::CuboidId cuboid, int64_t total,
               int64_t k) const {
    std::lock_guard<std::mutex> lock(mu_);
    return k >= 0 && static_cast<size_t>(k) < rows_.size() &&
           rows_[k][shape][cuboid] == total;
  }
  /// Smallest k >= from whose total for (shape, cuboid) is `total`;
  /// -1 when none.
  int64_t Find(size_t shape, x3::CuboidId cuboid, int64_t total,
               int64_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = static_cast<size_t>(from); k < rows_.size(); ++k) {
      if (rows_[k][shape][cuboid] == total) return static_cast<int64_t>(k);
    }
    return -1;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::vector<int64_t>>> rows_;  // [k][shape][cuboid]
};

std::vector<std::vector<int64_t>> TotalsRow(const std::vector<Shape>& shapes) {
  std::vector<std::vector<int64_t>> row(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    const OracleCube& oracle = *shapes[s].corpus->oracle;
    for (uint32_t mask : shapes[s].kept_mask) {
      row[s].push_back(oracle.Total(mask));
    }
  }
  return row;
}

int64_t CellTotal(const x3::CellMap& cells) {
  int64_t total = 0;
  for (const auto& [key, state] : cells) total += state.count;
  return total;
}

/// Builds the shapes: per corpus, every axis, then every axis but one.
/// `by_corpus` lists each corpus's shapes (indices into `shapes`).
bool BuildShapes(const std::vector<std::unique_ptr<Corpus>>& corpora,
                 std::vector<Shape>* shapes,
                 std::vector<std::vector<size_t>>* by_corpus, Report* report) {
  by_corpus->resize(corpora.size());
  for (size_t ci = 0; ci < corpora.size(); ++ci) {
    Corpus* corpus = corpora[ci].get();
    size_t n = corpus->source->axis_tags().size();
    for (size_t drop = n + 1; drop-- > 0;) {  // drop == n: keep every axis
      Shape shape;
      shape.corpus = corpus;
      for (size_t a = 0; a < n; ++a) {
        if (a != drop) shape.axes.push_back(a);
      }
      shape.query_text = QueryText(*corpus, shape.axes);
      auto query = x3::X3Engine(nullptr).Compile(shape.query_text);
      auto lattice = query.ok() ? x3::BuildCubeLattice(*query)
                                : x3::Result<x3::CubeLattice>(query.status());
      auto schema = x3::ParseDtd(corpus->dtd);
      if (!lattice.ok() || !schema.ok()) {
        report->Check(false, "compile " + shape.query_text);
        return false;
      }
      auto props =
          x3::InferLatticeProperties(*schema, *lattice, corpus->fact_tag);
      if (!props.ok()) {
        report->Check(false, "infer " + shape.query_text);
        return false;
      }
      shape.properties = std::move(*props);
      shape.num_cuboids = lattice->num_cuboids();
      x3::Random order(kPopularitySeed + shape.num_cuboids);
      for (x3::CuboidId c = 0; c < shape.num_cuboids; ++c) {
        shape.kept_mask.push_back(KeptMask(*lattice, c, shape.axes));
        if (shape.kept_mask.back() == 0) shape.apex = c;
        shape.by_rank.push_back(c);
      }
      for (size_t i = shape.by_rank.size(); i > 1; --i) {
        std::swap(shape.by_rank[i - 1], shape.by_rank[order.Uniform(i)]);
      }
      (*by_corpus)[ci].push_back(shapes->size());
      shapes->push_back(std::move(shape));
    }
  }
  return true;
}

/// One read: a corpus (tenant) uniformly, as the serving harness does,
/// then one of its shapes uniformly.
x3::ServerRequest MakeRead(const std::vector<Shape>& shapes,
                           const std::vector<std::vector<size_t>>& by_corpus,
                           x3::Random* rng, size_t* shape_index) {
  const auto& tenant = by_corpus[rng->Uniform(by_corpus.size())];
  *shape_index = tenant[rng->Uniform(tenant.size())];
  const Shape& shape = shapes[*shape_index];
  x3::ServerRequest request;
  request.query_text = shape.query_text;
  request.properties = &shape.properties;
  request.tenant = shape.corpus->name;
  request.algorithm =
      kReadAlgorithms[rng->Uniform(std::size(kReadAlgorithms))];
  request.min_count = rng->Bernoulli(kIcebergShare) ? 2 : 0;
  if (!rng->Bernoulli(kFullCubeShare)) {
    request.target =
        shape.by_rank[rng->Zipf(shape.num_cuboids, kTargetZipfTheta)];
  }
  return request;
}

/// Every read's first check: the answer holds exactly the requested
/// cuboid, or every cuboid of the lattice once for a full-cube read.
std::string CheckCuboidSet(const Shape& shape,
                           std::optional<x3::CuboidId> target,
                           const x3::ServerAnswer& answer) {
  if (target.has_value()) {
    return answer.cuboids.size() == 1 && answer.cuboids[0].first == *target
               ? ""
               : "answer is not exactly the requested cuboid";
  }
  std::vector<bool> seen(shape.num_cuboids, false);
  for (const auto& [cuboid, cells] : answer.cuboids) {
    if (cuboid >= shape.num_cuboids || seen[cuboid]) {
      return "full-cube answer names a cuboid twice or out of range";
    }
    seen[cuboid] = true;
  }
  return answer.cuboids.size() == shape.num_cuboids
             ? ""
             : "full-cube answer misses cuboids";
}

/// serve-mixed check: every answered cuboid equals the reference cube
/// (iceberg-filtered like the request).
std::string CheckAgainstReference(const Shape& shape,
                                  const x3::ServerAnswer& answer,
                                  int64_t min_count) {
  for (const auto& [cuboid, cells] : answer.cuboids) {
    const x3::CellMap& ref = shape.reference[cuboid];
    size_t expected =
        min_count > 1 ? shape.reference_iceberg_cells[cuboid] : ref.size();
    if (cells.size() != expected) return "cell count differs from reference";
    for (const auto& [key, state] : cells) {
      auto it = ref.find(key);
      if (it == ref.end() || !(it->second == state)) {
        return "cell differs from reference";
      }
    }
  }
  return "";
}

/// serve-ingest check of one COUNT answer without iceberg filter: it
/// reflects base + k whole batches for one k no smaller than the
/// reader's previous k for this shape. A full-cube answer fixes k by its
/// apex count (base + k x batch) and every cuboid must match that k.
std::string CheckIngestRead(const Shape& shape, size_t s,
                            const x3::ServerAnswer& answer,
                            const ExpectedTotals& expected, int64_t* last_k) {
  int64_t k = -1;
  for (const auto& [cuboid, cells] : answer.cuboids) {
    if (cuboid != shape.apex) continue;
    int64_t grown =
        CellTotal(cells) - static_cast<int64_t>(shape.corpus->docs.size());
    if (grown < 0 || grown % static_cast<int64_t>(kBatchDocs) != 0) {
      return "apex count is not base + k x batch";
    }
    k = grown / static_cast<int64_t>(kBatchDocs);
    if (k < *last_k) return "apex count decreased";
  }
  for (const auto& [cuboid, cells] : answer.cuboids) {
    int64_t total = CellTotal(cells);
    if (k < 0) {
      k = expected.Find(s, cuboid, total, *last_k);
      if (k < 0) return "cuboid total matches no committed prefix";
    } else if (!expected.Matches(s, cuboid, total, k)) {
      return "cuboid total differs from the apex's committed prefix";
    }
  }
  *last_k = k;
  return "";
}

/// The shape's full cube through the engine (COUNTER) over `db`.
x3::Result<x3::X3ExecutionResult> EngineCube(x3::Database* db,
                                             const Shape& shape) {
  x3::X3Engine engine(db);
  X3_ASSIGN_OR_RETURN(x3::CubeQuery query, engine.Compile(shape.query_text));
  x3::CubeComputeOptions compute;
  compute.properties = &shape.properties;
  return engine.ExecuteQuery(query, x3::CubeAlgorithm::kCounter, compute);
}

/// One serving session. Close() destroys the server before the
/// database it reads.
struct Session {
  std::unique_ptr<x3::Database> db;
  std::unique_ptr<x3::X3Server> server;

  void Close() {
    server.reset();
    db.reset();
  }
};

}  // namespace

void RunServe(const Args& args, bool ingest, Report* report) {
  const size_t parallelism = Parallelism();
  const size_t readers =
      ingest ? std::max<size_t>(parallelism - 1, 1) : parallelism;

  std::vector<std::unique_ptr<Corpus>> corpora;
  for (CorpusKind kind : {CorpusKind::kTreebankViolated, CorpusKind::kDblp}) {
    corpora.push_back(std::make_unique<Corpus>(MakeCorpus(kind, args.seed)));
  }
  std::vector<Shape> shapes;
  std::vector<std::vector<size_t>> shapes_by_corpus;
  if (!BuildShapes(corpora, &shapes, &shapes_by_corpus, report)) return;
  report->Count("shapes", static_cast<double>(shapes.size()));

  // Set-up, repeated; the last session is kept for the timed phase.
  x3::X3ServerOptions options;
  options.num_threads = parallelism;
  options.cache_capacity_bytes = ingest ? kIngestCacheBytes : kMixedCacheBytes;
  options.temp_dir = args.workdir;
  options.query_log_capacity = kQueryLogCapacity;
  Measured measured;
  Session session;
  uint64_t warm_ops = 0, warm_failed = 0;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    session.Close();
    Stopwatch setup;
    x3::DatabaseOptions db_options;
    db_options.data_file = args.workdir + "/serve.db";
    auto db = x3::Database::Open(db_options);
    if (!db.ok()) {
      report->Check(false, "open: " + db.status().ToString());
      return;
    }
    session.db = std::move(*db);
    for (const auto& corpus : corpora) {
      if (!LoadCorpus(*corpus, session.db.get())) {
        report->Check(false, "load " + corpus->name);
        return;
      }
    }
    session.server = std::make_unique<x3::X3Server>(session.db.get(), options);
    // Warm-up: build every shape with a full cube (which also fills its
    // finest view); serve-ingest also reads every cuboid once.
    for (const Shape& shape : shapes) {
      x3::ServerRequest request;
      request.query_text = shape.query_text;
      request.properties = &shape.properties;
      ++warm_ops;
      if (!session.server->Execute(request).ok()) ++warm_failed;
      for (x3::CuboidId c = 0; ingest && c < shape.num_cuboids; ++c) {
        request.target = c;
        ++warm_ops;
        if (!session.server->Execute(request).ok()) ++warm_failed;
      }
    }
    measured.setup_wall_s.push_back(setup.WallSeconds());
    measured.setup_cpu_s.push_back(setup.CpuSeconds());
  }
  report->Ops("warmup", warm_ops, warm_failed);

  // Reference cubes of the base data, checked against the oracle.
  for (Shape& shape : shapes) {
    auto result = EngineCube(session.db.get(), shape);
    report->Ops("cube", 1, result.ok() ? 0 : 1);
    if (!result.ok()) return;
    std::string diff = CompareCube(result->cube, result->facts,
                                   result->lattice, *shape.corpus->oracle,
                                   shape.axes);
    report->Check(diff.empty(), "reference " + shape.query_text + ": " + diff);
    if (shape.axes.size() == shape.corpus->source->axis_tags().size()) {
      report->Count("cells." + shape.corpus->name,
                    static_cast<double>(result->cube.TotalCells()));
    }
    for (x3::CuboidId c = 0; c < shape.num_cuboids; ++c) {
      x3::CellMap cells = std::move(*result->cube.mutable_cuboid(c));
      size_t iceberg = 0;
      for (const auto& [key, state] : cells) iceberg += state.count >= 2;
      shape.reference.push_back(std::move(cells));
      shape.reference_iceberg_cells.push_back(iceberg);
    }
  }

  // --- Timed phase ---
  x3::X3Server& server = *session.server;
  ExpectedTotals expected;
  if (ingest) expected.Append(TotalsRow(shapes));
  std::vector<std::vector<ReadSample>> samples(readers);
  std::vector<uint64_t> read_failed(readers, 0);
  std::vector<uint64_t> checks(readers, 0);
  std::vector<uint64_t> check_failed(readers, 0);
  std::vector<std::string> check_failures(readers);
  std::vector<double> commit_ms;
  uint64_t commits_failed = 0;
  // CPU the benchmark's threads spend outside program calls (request
  // generation, checks, documents for the writer), per thread.
  std::vector<double> overhead_cpu(readers + 1, 0);
  const auto read_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kIngestReadIntervalSeconds));
  double writer_late_ms = 0;

  RegistrySnapshot before = RegistrySnapshot::Take();
  const Stopwatch timed_phase;
  const auto start = timed_phase.wall;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      x3::Random rng(args.seed * 1000003 + r * 7 + (ingest ? 1 : 0));
      std::vector<int64_t> last_k(shapes.size(), 0);
      std::map<std::pair<size_t, x3::CuboidId>, int64_t> last_iceberg;
      uint64_t seq = 0;
      // serve-ingest readers run open loop: read i of reader r is due at
      // start + (i + r / readers) x interval, whatever the server's
      // speed, and its latency counts from then.
      Clock::time_point due =
          start + read_interval * static_cast<int64_t>(r) /
                      static_cast<int64_t>(readers);
      const double loop_cpu = ThreadCpuSeconds();
      double call_cpu = 0;
      for (;; due += read_interval) {
        if (ingest) {
          if (due >= deadline) break;
          std::this_thread::sleep_until(due);
        } else if (Clock::now() >= deadline) {
          break;
        }
        size_t s = 0;
        x3::ServerRequest request =
            MakeRead(shapes, shapes_by_corpus, &rng, &s);
        const Shape& shape = shapes[s];
        const int64_t min_count = request.min_count;
        const std::optional<x3::CuboidId> target = request.target;
        Span span("read", (static_cast<uint64_t>(r + 1) << 40) | ++seq);
        auto t0 = ingest ? due : Clock::now();
        std::shared_ptr<x3::X3Server::Ticket> ticket;
        x3::Result<x3::ServerAnswer> answer = x3::Status::Internal("unset");
        {
          Span call("X3Server::Execute");
          const double c0 = ThreadCpuSeconds();
          ticket = server.Submit(std::move(request));
          answer = ticket->Wait();
          call_cpu += ThreadCpuSeconds() - c0;
        }
        double ms = MsSince(t0);
        if (!answer.ok()) {
          ++read_failed[r];
          std::fprintf(stderr, "read failed: %s\n",
                       answer.status().ToString().c_str());
          continue;
        }
        samples[r].push_back(
            ReadSample{ticket->query_id(), ms, answer->computed});
        Span check("check");
        ++checks[r];
        // The cell checks run only on answers holding the right cuboids.
        std::string diff = CheckCuboidSet(shape, target, *answer);
        if (diff.empty() && !ingest) {
          diff = CheckAgainstReference(shape, *answer, min_count);
        } else if (diff.empty() && min_count > 1) {
          // Iceberg answers only grow as batches commit.
          for (const auto& [cuboid, cells] : answer->cuboids) {
            int64_t total = CellTotal(cells);
            int64_t& last = last_iceberg[{s, cuboid}];
            if (total < last) diff = "iceberg total decreased";
            last = total;
          }
        } else if (diff.empty()) {
          diff = CheckIngestRead(shape, s, *answer, expected, &last_k[s]);
        }
        if (!diff.empty() && check_failed[r]++ == 0) {
          check_failures[r] = shape.query_text + ": " + diff;
        }
      }
      overhead_cpu[r] = ThreadCpuSeconds() - loop_cpu - call_cpu;
    });
  }
  if (ingest) {
    threads.emplace_back([&] {
      std::vector<std::string> docs;
      OracleFact fact;
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kCommitIntervalSeconds));
      uint64_t batch = 0;
      const double loop_cpu = ThreadCpuSeconds();
      double call_cpu = 0;
      for (auto due = start; due < deadline; due += interval) {
        // Fresh documents of both corpora; the expected totals row for
        // this batch is published before the commit starts.
        docs.clear();
        for (auto& corpus : corpora) {
          for (size_t i = 0; i < kBatchDocs; ++i) {
            docs.push_back(corpus->source->Next(&fact));
            corpus->oracle->Add(fact);
          }
        }
        expected.Append(TotalsRow(shapes));
        std::this_thread::sleep_until(due);
        Span span("commit", ++batch);
        writer_late_ms = std::max(writer_late_ms, MsSince(due));
        x3::Result<x3::ServerWriteResult> result =
            x3::Status::Internal("unset");
        {
          Span call("X3Server::CommitDocuments");
          const double c0 = ThreadCpuSeconds();
          result = server.CommitDocuments(docs);
          call_cpu += ThreadCpuSeconds() - c0;
        }
        // Timed from when the batch was due, so a commit that runs
        // late charges its wait to the latency.
        double ms = MsSince(due);
        if (!result.ok()) {
          ++commits_failed;
          std::fprintf(stderr, "commit failed: %s\n",
                       result.status().ToString().c_str());
          break;  // the expected totals no longer match the database
        }
        commit_ms.push_back(ms);
      }
      overhead_cpu[readers] = ThreadCpuSeconds() - loop_cpu - call_cpu;
    });
  }
  for (auto& t : threads) t.join();
  measured.timed_s = timed_phase.WallSeconds();
  measured.timed_cpu_s = timed_phase.CpuSeconds();
  for (double cpu : overhead_cpu) measured.overhead_cpu_s += cpu;
  RegistrySnapshot after = RegistrySnapshot::Take();

  // --- Results ---
  std::vector<double> hit_ms, miss_ms;
  std::vector<ReadSample> joined;
  uint64_t reads = 0, failed = 0;
  for (size_t r = 0; r < readers; ++r) {
    for (const ReadSample& sample : samples[r]) {
      measured.query_ms.push_back(sample.ms);
      (sample.computed ? miss_ms : hit_ms).push_back(sample.ms);
    }
    joined.insert(joined.end(), samples[r].begin(), samples[r].end());
    reads += samples[r].size() + read_failed[r];
    failed += read_failed[r];
    report->Checks(checks[r], check_failed[r], check_failures[r]);
  }
  report->Ops("read", reads, failed);
  if (ingest) {
    report->Ops("commit", commit_ms.size() + commits_failed, commits_failed);
  }

  // serve-ingest: after the run every cuboid matches the oracle over
  // base + all committed batches, in the engine's cube and in the
  // server's full-cube answer.
  for (size_t s = 0; ingest && s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    auto result = EngineCube(session.db.get(), shape);
    report->Ops("cube", 1, result.ok() ? 0 : 1);
    if (!result.ok()) continue;
    std::string diff = CompareCube(result->cube, result->facts,
                                   result->lattice, *shape.corpus->oracle,
                                   shape.axes);
    report->Check(diff.empty(),
                  "final engine cube " + shape.query_text + ": " + diff);
    x3::ServerRequest request;
    request.query_text = shape.query_text;
    request.properties = &shape.properties;
    auto answer = server.Execute(request);
    report->Ops("read", 1, answer.ok() ? 0 : 1);
    if (!answer.ok()) continue;
    bool same = answer->cuboids.size() == shape.num_cuboids;
    for (const auto& [cuboid, cells] : answer->cuboids) {
      const auto& ref = result->cube.cuboid(cuboid);
      same = same && cells.size() == ref.size();
      for (const auto& [key, state] : cells) {
        auto it = ref.find(key);
        same = same && it != ref.end() && it->second == state;
      }
    }
    report->Check(same, "final server answer " + shape.query_text);
  }

  report->Info("reads", static_cast<double>(reads));
  report->Info("hit_samples", static_cast<double>(hit_ms.size()));
  report->Info("miss_samples", static_cast<double>(miss_ms.size()));
  report->Info("hit_p50_ms", Median(hit_ms));
  report->Info("miss_p50_ms", Median(miss_ms));
  if (ingest) {
    report->Info("commits", static_cast<double>(commit_ms.size()));
    report->Info("commit_p50_ms", Median(commit_ms));
    report->Info("writer_late_max_ms", writer_late_ms);
    report->Count("batch_docs", static_cast<double>(kBatchDocs * 2));
  }
  report->Info("cache_evictions",
               after.Delta(before, "x3_server_cache_evictions_total"));
  report->Info("cache_misses",
               after.Delta(before, "x3_server_cache_misses_total"));
  report->Info("cache_bytes", static_cast<double>(server.cache_bytes()));

  EmitEndToEnd(args, measured, report);
  if (!args.trace) return;

  // Traced run: server figures from the query log joined to the
  // client-side timings, then the layer probe.
  ServerPhase timed;
  timed.hit_ms = hit_ms;
  timed.miss_ms = miss_ms;
  timed.commit_ms = commit_ms;
  timed.evictions = after.Delta(before, "x3_server_cache_evictions_total");
  timed.downgrades = after.Delta(before, "x3_server_plan_downgrades_total");
  JoinQueryLog(server.query_log(), joined, &timed);
  report->Metric("pool.queue_wait_ms", after.PoolQueueWaitMs(before), "ms");
  session.Close();
  ServerPhase probe;
  RunLayerProbe(args, report, &probe);
  EmitServerMetrics(timed, probe, report);
}

}  // namespace perf
