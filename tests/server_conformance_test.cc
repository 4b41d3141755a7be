#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "gen/dblp_gen.h"
#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "schema/dtd_parser.h"
#include "server/x3_server.h"
#include "util/metrics.h"
#include "util/random.h"
#include "x3/engine.h"

namespace x3 {
namespace {

/// One query shape of the multi-tenant corpus: the compiled query, its
/// inferred properties, and a full reference cube to check server
/// answers against.
struct ShapeRef {
  CubeQuery query;
  LatticeProperties properties;
  CubeLattice lattice;
  FactTable facts;
  CubeResult reference;

  ShapeRef(CubeQuery query_in, LatticeProperties properties_in,
           CubeLattice lattice_in, FactTable facts_in,
           CubeResult reference_in)
      : query(std::move(query_in)),
        properties(std::move(properties_in)),
        lattice(std::move(lattice_in)),
        facts(std::move(facts_in)),
        reference(std::move(reference_in)) {}
};

/// Compiles `query` over `db`, infers its properties from `dtd` and
/// computes its full reference cube.
std::unique_ptr<ShapeRef> MakeShapeRef(Database* db, CubeQuery query,
                                       const std::string& dtd,
                                       const std::string& fact_tag) {
  auto schema = ParseDtd(dtd);
  EXPECT_TRUE(schema.ok());
  X3Engine engine(db);
  auto prepared = engine.Prepare(query);
  EXPECT_TRUE(prepared.ok());
  auto properties =
      InferLatticeProperties(*schema, prepared->lattice, fact_tag);
  EXPECT_TRUE(properties.ok());
  CubeComputeOptions options;
  options.aggregate = query.aggregate;
  auto reference = ComputeCube(CubeAlgorithm::kReference, prepared->facts,
                               prepared->lattice, options);
  EXPECT_TRUE(reference.ok());
  return std::make_unique<ShapeRef>(
      std::move(query), std::move(*properties),
      std::move(prepared->lattice), std::move(prepared->facts),
      std::move(*reference));
}

/// The shared multi-tenant corpus: Treebank trees and DBLP articles in
/// ONE database, with per-shape references. Built once for the suite
/// (the reference cubes are the expensive part).
class Corpus {
 public:
  static Corpus& Get() {
    static Corpus* corpus = new Corpus();
    return *corpus;
  }

  Database* db() { return db_.get(); }
  ShapeRef& treebank() { return *treebank_; }
  ShapeRef& dblp() { return *dblp_; }

 private:
  Corpus() {
    auto db = Database::Open({});
    EXPECT_TRUE(db.ok());
    db_ = std::move(*db);

    // Both summarizability properties fail on both corpora (missing and
    // repeated axis elements), so the server must rely on fact-id
    // roll-ups — the hard case.
    ExperimentSetting setting;
    setting.num_axes = 3;
    setting.num_trees = 160;
    setting.coverage_holds = false;
    setting.disjointness_holds = false;
    setting.dense = true;
    setting.seed = 4242;
    TreebankConfig config = MakeTreebankConfig(setting);
    TreebankGenerator treebank_gen(config);
    EXPECT_TRUE(treebank_gen.LoadInto(db_.get(), setting.num_trees).ok());
    treebank_ = MakeShapeRef(db_.get(), MakeTreebankQuery(config),
                             treebank_gen.MatchingDtd(), TreebankRootTag());

    DblpConfig dblp_config;
    dblp_config.seed = 77;
    DblpGenerator dblp_gen(dblp_config);
    EXPECT_TRUE(dblp_gen.LoadInto(db_.get(), 250).ok());
    dblp_ = MakeShapeRef(db_.get(), MakeDblpQuery(), DblpDtd(), "article");
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ShapeRef> treebank_;
  std::unique_ptr<ShapeRef> dblp_;
};

bool CellsEqual(const CellMap& got, const CellMap& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [key, state] : got) {
    auto it = want.find(key);
    if (it == want.end() || !(state == it->second)) return false;
  }
  return true;
}

/// The reference cells of one cuboid with the request's iceberg
/// threshold applied (the same rule as CubeResult::ApplyIcebergFilter).
CellMap ReferenceCells(const ShapeRef& shape, CuboidId cuboid,
                       int64_t min_count) {
  CellMap cells = shape.reference.cuboid(cuboid);
  if (min_count > 1) {
    for (auto it = cells.begin(); it != cells.end();) {
      it = it->second.count < min_count ? cells.erase(it) : std::next(it);
    }
  }
  return cells;
}

/// Every cuboid of `answer` must be cell-exact against the reference.
void ExpectAnswerExact(const ShapeRef& shape, const ServerAnswer& answer,
                       int64_t min_count, const std::string& context) {
  for (const auto& [cuboid, cells] : answer.cuboids) {
    EXPECT_TRUE(
        CellsEqual(cells, ReferenceCells(shape, cuboid, min_count)))
        << context << ": cuboid " << cuboid
        << (answer.computed ? " (computed)" : " (from cache)");
  }
}

ServerRequest MakeRequest(const ShapeRef& shape,
                          std::optional<CuboidId> target = std::nullopt) {
  ServerRequest request;
  request.query = shape.query;
  request.properties = &shape.properties;
  request.target = target;
  return request;
}

/// The seeded random mix: shapes x targets (including the full cube) x
/// requested algorithms (which the server ignores) x iceberg
/// thresholds, submitted concurrently against a small cache (eviction
/// pressure) with a few mid-flight cancellations, then checked
/// cell-by-cell.
TEST(ServerConformanceTest, SeededRandomMixIsCellExact) {
  Corpus& corpus = Corpus::Get();
  const CubeAlgorithm kAlgorithms[] = {
      CubeAlgorithm::kCounter, CubeAlgorithm::kBUC,
      CubeAlgorithm::kBUCOpt,  CubeAlgorithm::kBUCCust,
      CubeAlgorithm::kTD,      CubeAlgorithm::kTDOpt,
      CubeAlgorithm::kTDOptAll, CubeAlgorithm::kTDCust,
  };
  for (uint64_t seed : {11u, 23u}) {
    Random rng(seed);
    X3ServerOptions options;
    options.num_threads = 0;  // hardware concurrency
    options.cache_capacity_bytes = 32 << 10;  // small: forces evictions
    X3Server server(corpus.db(), options);

    struct Pending {
      std::shared_ptr<X3Server::Ticket> ticket;
      ShapeRef* shape;
      int64_t min_count;
      bool cancelled;
      std::string context;
    };
    std::vector<Pending> pending;
    for (int i = 0; i < 48; ++i) {
      ShapeRef& shape =
          rng.Bernoulli(0.5) ? corpus.treebank() : corpus.dblp();
      ServerRequest request = MakeRequest(shape);
      request.algorithm = kAlgorithms[rng.Uniform(8)];
      request.min_count = rng.Bernoulli(0.25) ? 2 : 0;
      if (!rng.Bernoulli(1.0 / 6)) {  // 1-in-6 asks for the full cube
        request.target =
            rng.Uniform(static_cast<uint32_t>(shape.lattice.num_cuboids()));
      }
      std::string context = "seed " + std::to_string(seed) + " request " +
                            std::to_string(i) + " algo " +
                            CubeAlgorithmToString(request.algorithm);
      bool cancel = rng.Bernoulli(0.12);
      int64_t min_count = request.min_count;
      auto ticket = server.Submit(std::move(request));
      if (cancel) {
        // Trips the token after a random number of further polls: some
        // land mid-computation, some after completion — both must be
        // handled cleanly.
        ticket->CancelAfterChecks(
            static_cast<int64_t>(rng.Uniform(4000)));
      }
      pending.push_back(
          {std::move(ticket), &shape, min_count, cancel, context});
    }

    size_t ok_answers = 0;
    for (Pending& p : pending) {
      Result<ServerAnswer> answer = p.ticket->Wait();
      if (answer.ok()) {
        ++ok_answers;
        ExpectAnswerExact(*p.shape, *answer, p.min_count, p.context);
      } else {
        EXPECT_TRUE(p.cancelled) << p.context << ": unexpected failure "
                                 << answer.status().ToString();
        EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
            << p.context;
      }
    }
    // Cancellation probability is low; the bulk of the mix must have
    // been answered (and checked) for the sweep to mean anything.
    EXPECT_GE(ok_answers, 36u) << "seed " << seed;
    EXPECT_EQ(server.budget()->used(), 0u)
        << "admission reservations leaked";
  }
}

TEST(ServerConformanceTest, ExactHitThenRollupServeFromCache) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.dblp();
  CuboidId finest = shape.lattice.FinestCuboid();

  ServerRequest cold = MakeRequest(shape);
  cold.target = finest;
  auto first = server.Execute(cold);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->computed);
  ExpectAnswerExact(shape, *first, 0, "cold");

  // Same cuboid again: an exact view hit, no recompute.
  auto second = server.Execute(MakeRequest(shape, finest));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->computed);
  EXPECT_EQ(second->exact_hits, 1u);
  ExpectAnswerExact(shape, *second, 0, "exact hit");

  // A coarser cuboid: answered by roll-up from the cached finest view
  // (with fact ids, since DBLP's author axis is not disjoint).
  ServerRequest coarse = MakeRequest(shape);
  coarse.target = shape.lattice.TopoOrder().back();
  auto third = server.Execute(coarse);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->computed);
  EXPECT_EQ(third->rollup_answers, 1u);
  ExpectAnswerExact(shape, *third, 0, "rollup");
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, EvictionPressureKeepsAnswersExact) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.cache_capacity_bytes = 1;  // every insert evicts its peers
  X3Server server(corpus.db(), options);
  // Ping-pong between the two tenants: each miss fills that shape's
  // finest view, which displaces the other shape's under the 1-byte
  // capacity, so the next query of the displaced tenant misses again.
  for (int round = 0; round < 3; ++round) {
    for (ShapeRef* shape : {&corpus.treebank(), &corpus.dblp()}) {
      for (CuboidId target :
           {shape->lattice.FinestCuboid(), shape->lattice.TopoOrder().back()}) {
        auto answer = server.Execute(MakeRequest(*shape, target));
        ASSERT_TRUE(answer.ok());
        ExpectAnswerExact(*shape, *answer, 0, "eviction round");
      }
    }
  }
  EXPECT_GT(server.cache_evictions(), 0u);
  EXPECT_LE(server.cache_views(), 2u);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, CacheFlushForcesRecompute) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.treebank();
  CuboidId finest = shape.lattice.FinestCuboid();
  ASSERT_TRUE(server.Execute(MakeRequest(shape, finest)).ok());
  EXPECT_GT(server.cache_views(), 0u);
  server.FlushCacheForTest();
  EXPECT_EQ(server.cache_views(), 0u);
  auto answer = server.Execute(MakeRequest(shape, finest));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->computed) << "flushed cache cannot serve hits";
  ExpectAnswerExact(shape, *answer, 0, "after flush");
}

TEST(ServerConformanceTest, UnsafeAlgorithmRequestIsExact) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.treebank();  // neither property holds
  ServerRequest request = MakeRequest(shape);
  request.algorithm = CubeAlgorithm::kTDOptAll;
  request.use_cache = false;
  auto answer = server.Execute(std::move(request));
  ASSERT_TRUE(answer.ok());
  ExpectAnswerExact(shape, *answer, 0, "unsafe algorithm requested");
}

TEST(ServerConformanceTest, AdmissionDenialUnderTinyBudget) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.admission_budget_bytes = 1;  // no shape's fact table fits
  X3Server server(corpus.db(), options);
  auto answer = server.Execute(MakeRequest(corpus.dblp()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, DeadlineExceededSurfaces) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request = MakeRequest(corpus.treebank());
  request.deadline_seconds = 1e-12;  // expired before the first check
  auto answer = server.Execute(std::move(request));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, ImmediateCancellationFailsCleanly) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request = MakeRequest(corpus.treebank());
  auto ticket = server.Submit(std::move(request));
  ticket->CancelAfterChecks(0);  // first poll trips
  auto answer = ticket->Wait();
  // Deterministically cancelled unless the worker already finished
  // every poll before the arm landed — then the answer must be exact.
  if (answer.ok()) {
    ExpectAnswerExact(corpus.treebank(), *answer, 0, "raced cancel");
  } else {
    EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, InvalidTargetRejected) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.dblp();
  auto answer =
      server.Execute(MakeRequest(shape, shape.lattice.num_cuboids()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerConformanceTest, CompileErrorSurfaces) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request;
  request.query_text = "for $x in nonsense CUBE please";
  auto answer = server.Execute(std::move(request));
  EXPECT_FALSE(answer.ok());
}

TEST(ServerConformanceTest, ConcurrentSameShapeBuildsOnce) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.num_threads = 0;
  X3Server server(corpus.db(), options);
  ShapeRef& shape = corpus.dblp();
  std::vector<std::shared_ptr<X3Server::Ticket>> tickets;
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(
        server.Submit(MakeRequest(shape, shape.lattice.FinestCuboid())));
  }
  for (auto& ticket : tickets) {
    auto answer = ticket->Wait();
    ASSERT_TRUE(answer.ok());
    ExpectAnswerExact(shape, *answer, 0, "concurrent build");
  }
  EXPECT_EQ(server.num_shapes(), 1u)
      << "concurrent first queries must share one shape build";
  EXPECT_EQ(server.budget()->used(), 0u);
}

uint64_t ViewBuilds() {
  return MetricRegistry::Global()
      .GetCounter("x3_server_view_builds_total", "")
      ->value();
}

TEST(ServerConformanceTest, ConcurrentMissesBuildTheDonorOnce) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.num_threads = 8;
  X3Server server(corpus.db(), options);
  ShapeRef& shape = corpus.dblp();
  CuboidId coarsest = shape.lattice.TopoOrder().back();
  ASSERT_EQ(DonorCuboid(shape.lattice, coarsest),
            shape.lattice.FinestCuboid());
  const uint64_t builds_before = ViewBuilds();
  std::vector<std::shared_ptr<X3Server::Ticket>> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(server.Submit(MakeRequest(shape, coarsest)));
  }
  size_t computed = 0;
  for (auto& ticket : tickets) {
    auto answer = ticket->Wait();
    ASSERT_TRUE(answer.ok()) << answer.status();
    if (answer->computed) ++computed;
    ExpectAnswerExact(shape, *answer, 0, "concurrent miss");
  }
  EXPECT_GE(computed, 1u);
  // One donor (the finest cuboid) and the requested cuboid's own view,
  // each built once however many misses raced on them.
  EXPECT_EQ(ViewBuilds() - builds_before, 2u);
  EXPECT_EQ(server.cache_views(), 2u);
  EXPECT_EQ(server.budget()->used(), 0u);
}

/// An LND + PC-AD shape over nested Treebank trees (the structural
/// sweep of cube_test.cc): a target that keeps an axis at its relaxed
/// (//) state has a donor other than the finest cuboid, so donor
/// selection is checked cell-exact for every single target on a cold
/// cache and for the full cube.
TEST(ServerConformanceTest, StructuralRelaxationDonorsAreCellExact) {
  TreebankConfig config;
  config.seed = 71;
  config.num_axes = 3;
  config.value_cardinality = 8;
  config.nesting_probability = 0.4;  // nested instances need PC-AD
  config.repeat_probability = 0.2;
  config.missing_probability = 0.1;
  TreebankGenerator generator(config);
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(generator.LoadInto(db->get(), 200).ok());
  std::unique_ptr<ShapeRef> shape = MakeShapeRef(
      db->get(),
      MakeTreebankQuery(config, RelaxationSet::Of({RelaxationType::kLND,
                                                   RelaxationType::kPCAD})),
      generator.MatchingDtd(), TreebankRootTag());
  const CubeLattice& lattice = shape->lattice;
  ASSERT_EQ(lattice.num_cuboids(), 27u);  // rigid, //axis, absent per axis

  // A donor has every axis present and keeps its target's states.
  std::set<CuboidId> donors;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    CuboidId donor = DonorCuboid(lattice, c);
    donors.insert(donor);
    EXPECT_EQ(lattice.PresentAxes(donor).size(), lattice.num_axes());
    for (size_t axis : lattice.PresentAxes(c)) {
      EXPECT_EQ(lattice.StateOf(donor, axis), lattice.StateOf(c, axis))
          << "cuboid " << c << " axis " << axis;
    }
  }
  EXPECT_EQ(donors.size(), 8u);  // rigid or // on each of three axes

  X3Server server(db->get(), {});
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    server.FlushCacheForTest();
    auto answer = server.Execute(MakeRequest(*shape, c));
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->computed) << "cuboid " << c;
    ExpectAnswerExact(*shape, *answer, 0, "cold single target");
  }

  // The full cube builds each distinct donor once; every cuboid is
  // then served from the cached donors.
  server.FlushCacheForTest();
  const uint64_t builds_before = ViewBuilds();
  auto full = server.Execute(MakeRequest(*shape));
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(full->computed);
  EXPECT_EQ(full->cuboids.size(), lattice.num_cuboids());
  ExpectAnswerExact(*shape, *full, 0, "cold full cube");
  EXPECT_EQ(ViewBuilds() - builds_before, donors.size());
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    auto answer = server.Execute(MakeRequest(*shape, c));
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_FALSE(answer->computed) << "cuboid " << c;
    ExpectAnswerExact(*shape, *answer, 0, "from cached donors");
  }
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, TicketWaitConsumesOnce) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  auto ticket = server.Submit(
      MakeRequest(corpus.dblp(), corpus.dblp().lattice.FinestCuboid()));
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_TRUE(ticket->done());
  auto again = ticket->Wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
}

// --- Write/read interleaving: the transactional write lane ---
//
// These tests own a private database (the shared Corpus above is
// immutable — its reference cubes would be invalidated by writes).

constexpr const char* kWriteQuery = R"(
for $b in doc("pubs.xml")//publication,
    $n in $b/author/name,
    $y in $b/year
X^3 $b by $n (LND), $y (LND)
return COUNT($b))";

constexpr size_t kWriteBasePubs = 30;
constexpr size_t kPubsPerBatch = 2;

std::string WritePubDoc(size_t i) {
  return "<database><publication><author><name>author" +
         std::to_string(i % 7) + "</name></author><year>" +
         std::to_string(2000 + i % 5) + "</year></publication></database>";
}

std::string WriteBaseCorpus() {
  std::string xml = "<database>";
  for (size_t i = 0; i < kWriteBasePubs; ++i) {
    xml += "<publication><author><name>author";
    xml += std::to_string(i % 7);
    xml += "</name></author><year>";
    xml += std::to_string(2000 + i % 5);
    xml += "</year></publication>";
  }
  xml += "</database>";
  return xml;
}

ServerRequest WriteShapeRequest(std::optional<CuboidId> target = std::nullopt,
                                bool use_cache = true) {
  ServerRequest request;
  request.query_text = kWriteQuery;
  request.target = target;
  request.use_cache = use_cache;
  return request;
}

/// Sum of counts in one cuboid's cells. Every publication binds exactly
/// one author and one year, so in a consistent snapshot this equals the
/// fact count for EVERY cuboid — which makes a torn batch (some cuboids
/// pre-batch, some post-batch) detectable inside a single answer.
int64_t CuboidTotal(const CellMap& cells) {
  int64_t total = 0;
  for (const auto& [key, state] : cells) total += state.count;
  return total;
}

/// Checks intra-answer consistency and returns the answer's fact count
/// (-1 and an error string when the cuboid totals disagree).
int64_t ConsistentTotal(const ServerAnswer& answer, std::string* error) {
  int64_t total = -1;
  for (const auto& [cuboid, cells] : answer.cuboids) {
    int64_t t = CuboidTotal(cells);
    if (total == -1) total = t;
    if (t != total) {
      *error = "cuboid " + std::to_string(cuboid) + " totals " +
               std::to_string(t) + " but a sibling totals " +
               std::to_string(total) + " — reader saw a torn batch";
      return -1;
    }
  }
  return total;
}

/// Full-cube answer must be cell-exact against a reference computed
/// directly from the database (only valid while no write is in flight).
void ExpectAnswerMatchesDatabase(Database* db, const ServerAnswer& answer,
                                 const std::string& context) {
  X3Engine engine(db);
  auto exec = engine.Execute(kWriteQuery, CubeAlgorithm::kReference);
  ASSERT_TRUE(exec.ok()) << context << ": " << exec.status();
  for (const auto& [cuboid, cells] : answer.cuboids) {
    EXPECT_TRUE(CellsEqual(cells, exec->cube.cuboid(cuboid)))
        << context << ": cuboid " << cuboid << " diverges from the database";
  }
}

class ServerWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->LoadXmlString(WriteBaseCorpus()).ok());
  }

  std::vector<std::string> MakeBatch(size_t round) {
    std::vector<std::string> docs;
    for (size_t d = 0; d < kPubsPerBatch; ++d) {
      docs.push_back(WritePubDoc(kWriteBasePubs + round * kPubsPerBatch + d));
    }
    return docs;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ServerWriteTest, CommitsAreAtomicallyVisibleToConcurrentReaders) {
  X3ServerOptions options;
  options.num_threads = 4;
  X3Server server(db_.get(), options);

  // Warm the shape so readers race the write lane, not the first build.
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();

  constexpr size_t kReaders = 3;
  constexpr size_t kBatches = 5;
  std::atomic<bool> done{false};
  struct ReaderLog {
    std::vector<std::string> errors;
    size_t answers = 0;
  };
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& log = logs[r];
      int64_t last_total = -1;
      bool use_cache = r % 2 == 0;
      while (!done.load(std::memory_order_acquire)) {
        auto answer = server.Execute(WriteShapeRequest(std::nullopt,
                                                       use_cache));
        if (!answer.ok()) {
          log.errors.push_back("query failed: " + answer.status().ToString());
          return;
        }
        ++log.answers;
        std::string error;
        int64_t total = ConsistentTotal(*answer, &error);
        if (total < 0) {
          log.errors.push_back(error);
          return;
        }
        // All-or-nothing: the visible fact count is always base plus a
        // whole number of batches.
        int64_t over_base = total - static_cast<int64_t>(kWriteBasePubs);
        if (over_base < 0 ||
            over_base > static_cast<int64_t>(kBatches * kPubsPerBatch) ||
            over_base % static_cast<int64_t>(kPubsPerBatch) != 0) {
          log.errors.push_back("partial batch visible: total " +
                               std::to_string(total));
          return;
        }
        // Snapshots are swapped, never rolled back: totals per reader
        // are monotone.
        if (total < last_total) {
          log.errors.push_back("total went backwards: " +
                               std::to_string(last_total) + " then " +
                               std::to_string(total));
          return;
        }
        last_total = total;
      }
    });
  }

  uint64_t last_lsn = 0;
  for (size_t round = 0; round < kBatches; ++round) {
    auto result = server.CommitDocuments(MakeBatch(round));
    ASSERT_TRUE(result.ok()) << "batch " << round << ": " << result.status();
    EXPECT_EQ(result->documents, kPubsPerBatch) << "batch " << round;
    EXPECT_GT(result->commit_lsn, last_lsn) << "batch " << round;
    last_lsn = result->commit_lsn;
    EXPECT_EQ(result->shapes_updated, 1u) << "batch " << round;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  size_t total_answers = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    for (const std::string& error : logs[r].errors) {
      ADD_FAILURE() << "reader " << r << ": " << error;
    }
    total_answers += logs[r].answers;
  }
  EXPECT_GT(total_answers, 0u) << "no reader completed a single answer";

  // Quiescent: the final state is every batch, exactly.
  auto final_answer = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(final_answer.ok());
  std::string error;
  EXPECT_EQ(ConsistentTotal(*final_answer, &error),
            static_cast<int64_t>(kWriteBasePubs + kBatches * kPubsPerBatch))
      << error;
  ExpectAnswerMatchesDatabase(db_.get(), *final_answer, "final");
  EXPECT_EQ(server.budget()->used(), 0u);
  EXPECT_TRUE(server.Checkpoint().ok());
}

TEST_F(ServerWriteTest, PostCommitQueriesSeeTheBatchExactly) {
  X3Server server(db_.get(), {});
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();

  for (size_t round = 0; round < 3; ++round) {
    auto result = server.CommitDocuments(MakeBatch(round));
    ASSERT_TRUE(result.ok()) << result.status();
    // The warm shape's views were maintained, not dropped: the write
    // either patched them or recomputed them, but did something.
    EXPECT_GE(result->delta.views_patched + result->delta.views_recomputed,
              1u)
        << "round " << round;

    auto answer = server.Execute(WriteShapeRequest());
    ASSERT_TRUE(answer.ok()) << answer.status();
    std::string error;
    EXPECT_EQ(ConsistentTotal(*answer, &error),
              static_cast<int64_t>(kWriteBasePubs +
                                   (round + 1) * kPubsPerBatch))
        << "round " << round << " " << error;
    ExpectAnswerMatchesDatabase(db_.get(), *answer,
                                "round " + std::to_string(round));
  }
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST_F(ServerWriteTest, CacheStaysCoherentAcrossSnapshotSwaps) {
  X3Server server(db_.get(), {});

  // Fill the cache and prove it serves hits.
  auto probe = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(probe.ok());
  CuboidId finest = 0;
  {
    auto cold = server.Execute(WriteShapeRequest(finest));
    ASSERT_TRUE(cold.ok());
    auto hit = server.Execute(WriteShapeRequest(finest));
    ASSERT_TRUE(hit.ok());
    EXPECT_FALSE(hit->computed) << "second identical query must hit";
  }

  // The swap must retire every cached view of the old snapshot: a
  // post-commit query answered from cache with pre-batch cells is the
  // staleness bug this test exists for.
  auto result = server.CommitDocuments(MakeBatch(0));
  ASSERT_TRUE(result.ok()) << result.status();
  auto after = server.Execute(WriteShapeRequest(finest));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(CuboidTotal(after->cuboids.at(0).second),
            static_cast<int64_t>(kWriteBasePubs + kPubsPerBatch))
      << (after->computed ? "(computed)" : "(served from cache)");

  // And the maintained views keep serving hits — exactly.
  auto again = server.Execute(WriteShapeRequest(finest));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->computed)
      << "maintained views must be cached after the swap";
  auto full = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(full.ok());
  ExpectAnswerMatchesDatabase(db_.get(), *full, "after swap");
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST_F(ServerWriteTest, FailedDocumentRollsBackWholeBatch) {
  X3Server server(db_.get(), {});
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok());

  auto bad = server.CommitDocuments(
      {WritePubDoc(kWriteBasePubs), "<publication><unclosed>"});
  ASSERT_FALSE(bad.ok()) << "malformed document must fail the batch";

  // Nothing of the batch is visible — not even the valid document.
  auto answer = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(answer.ok());
  std::string error;
  EXPECT_EQ(ConsistentTotal(*answer, &error),
            static_cast<int64_t>(kWriteBasePubs))
      << error;

  // The lane is not wedged: a clean batch right after commits fine.
  auto good = server.CommitDocuments(MakeBatch(0));
  ASSERT_TRUE(good.ok()) << good.status();
  auto after = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ConsistentTotal(*after, &error),
            static_cast<int64_t>(kWriteBasePubs + kPubsPerBatch))
      << error;
  ExpectAnswerMatchesDatabase(db_.get(), *after, "after rollback");
  EXPECT_EQ(server.budget()->used(), 0u);
}

}  // namespace
}  // namespace x3
