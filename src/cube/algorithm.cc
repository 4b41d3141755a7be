#include "cube/algorithm.h"

#include <algorithm>
#include <optional>

#include "cube/executor.h"
#include "cube/plan.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace x3 {

namespace {

Counter& ComputationsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_cube_computations_total", "Completed cube computations");
  return *c;
}

Counter& ResultCellsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_cube_result_cells_total",
      "Cells produced by completed cube computations");
  return *c;
}

}  // namespace

const char* CubeAlgorithmToString(CubeAlgorithm algo) {
  switch (algo) {
    case CubeAlgorithm::kReference:
      return "REFERENCE";
    case CubeAlgorithm::kCounter:
      return "COUNTER";
    case CubeAlgorithm::kBUC:
      return "BUC";
    case CubeAlgorithm::kBUCOpt:
      return "BUCOPT";
    case CubeAlgorithm::kBUCCust:
      return "BUCCUST";
    case CubeAlgorithm::kTD:
      return "TD";
    case CubeAlgorithm::kTDOpt:
      return "TDOPT";
    case CubeAlgorithm::kTDOptAll:
      return "TDOPTALL";
    case CubeAlgorithm::kTDCust:
      return "TDCUST";
  }
  return "?";
}

Result<CubeAlgorithm> ParseCubeAlgorithm(std::string_view name) {
  std::string upper;
  for (char c : name) {
    upper += (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  if (upper == "REFERENCE") return CubeAlgorithm::kReference;
  if (upper == "COUNTER") return CubeAlgorithm::kCounter;
  if (upper == "BUC") return CubeAlgorithm::kBUC;
  if (upper == "BUCOPT") return CubeAlgorithm::kBUCOpt;
  if (upper == "BUCCUST") return CubeAlgorithm::kBUCCust;
  if (upper == "TD") return CubeAlgorithm::kTD;
  if (upper == "TDOPT") return CubeAlgorithm::kTDOpt;
  if (upper == "TDOPTALL") return CubeAlgorithm::kTDOptAll;
  if (upper == "TDCUST") return CubeAlgorithm::kTDCust;
  return Status::InvalidArgument("unknown cube algorithm: " +
                                 std::string(name));
}

void CubeComputeStats::Absorb(const CubeComputeStats& other) {
  base_scans += other.base_scans;
  passes += other.passes;
  sorts += other.sorts;
  records_sorted += other.records_sorted;
  spilled_runs += other.spilled_runs;
  spill_bytes += other.spill_bytes;
  partitions += other.partitions;
  partition_rows += other.partition_rows;
  rollups += other.rollups;
  peak_memory = std::max(peak_memory, other.peak_memory);
}

namespace {

/// ComputeCube's body. `*plan` receives the plan the execution follows,
/// so EXPLAIN ANALYZE renders exactly that plan.
Result<CubeResult> PlanAndCompute(CubeAlgorithm algo, const FactTable& facts,
                                  const CubeLattice& lattice,
                                  const CubeComputeOptions& options,
                                  CubeComputeStats* stats, CubePlan* plan) {
  if (!facts.finished()) {
    return Status::InvalidArgument("fact table not finished");
  }
  if (facts.num_axes() != lattice.num_axes()) {
    return Status::InvalidArgument(StringPrintf(
        "fact table has %zu axes but lattice has %zu", facts.num_axes(),
        lattice.num_axes()));
  }
  CubeComputeStats local;
  CubeComputeStats* st = stats != nullptr ? stats : &local;
  *st = CubeComputeStats{};

  // Reconcile the execution context with the per-call options: a
  // caller-supplied context wins for budget/temp_files; otherwise an
  // uncancellable local context wraps the option fields.
  ExecutionContext local_ctx(ExecutionContext::Options{
      options.budget, options.temp_files, nullptr, std::nullopt});
  ExecutionContext* ctx =
      options.exec != nullptr ? options.exec : &local_ctx;
  CubeComputeOptions effective = options;
  effective.exec = ctx;
  if (effective.parallelism == 0) {
    effective.parallelism = ThreadPool::DefaultConcurrency();
  }
  if (options.exec != nullptr) {
    if (ctx->budget() != nullptr) effective.budget = ctx->budget();
    if (ctx->temp_files() != nullptr) {
      effective.temp_files = ctx->temp_files();
    }
  }

  // Plan. CUST variants with no property map plan conservatively.
  std::optional<LatticeProperties> assume_nothing;
  const LatticeProperties* props = effective.properties;
  if (props == nullptr) {
    assume_nothing = LatticeProperties::AssumeNothing(lattice);
    props = &*assume_nothing;
  }
  {
    ScopedStageTimer timer(ctx->stats(), "plan", ctx->tracer());
    *plan = BuildCubePlan(algo, lattice, *props);
  }

  // Execute through the registry — no per-algorithm switch here.
  const CuboidExecutor* executor = GlobalCuboidExecutorRegistry().Find(algo);
  if (executor == nullptr) {
    return Status::Internal(std::string("no executor registered for ") +
                            CubeAlgorithmToString(algo));
  }
  Result<CubeResult> result = [&]() -> Result<CubeResult> {
    ScopedStageTimer timer(ctx->stats(), "compute", ctx->tracer());
    X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
    return executor->Execute(*plan, facts, lattice, effective, ctx, st);
  }();
  if (result.ok() && options.min_count > 1) {
    // The bottom-up family prunes natively; this central filter makes
    // the iceberg semantics uniform (and is idempotent for BUC).
    result->ApplyIcebergFilter(options.min_count);
  }
  if (result.ok()) {
    ComputationsCounter().Increment();
    ResultCellsCounter().Increment(result->TotalCells());
  }
  return result;
}

}  // namespace

Result<CubeResult> ComputeCube(CubeAlgorithm algo, const FactTable& facts,
                               const CubeLattice& lattice,
                               const CubeComputeOptions& options,
                               CubeComputeStats* stats) {
  CubePlan plan;
  return PlanAndCompute(algo, facts, lattice, options, stats, &plan);
}

Result<std::string> ExplainAnalyzeCube(CubeAlgorithm algo,
                                       const FactTable& facts,
                                       const CubeLattice& lattice,
                                       const CubeComputeOptions& options,
                                       CubeComputeStats* stats) {
  // A private context gives the run its own stats sink, so the rendered
  // actuals cover exactly this execution; the caller's budget, temp
  // files, cancellation, deadline and tracer still apply.
  ExecutionContext::Options ctx_options;
  if (options.exec != nullptr) {
    ctx_options.budget = options.exec->budget();
    ctx_options.temp_files = options.exec->temp_files();
    ctx_options.cancel = options.exec->cancellation();
    ctx_options.deadline = options.exec->deadline();
    ctx_options.tracer = options.exec->tracer();
  }
  ExecutionContext ctx(ctx_options);
  CubeComputeOptions effective = options;
  effective.exec = &ctx;
  CubePlan plan;
  X3_ASSIGN_OR_RETURN(
      CubeResult result,
      PlanAndCompute(algo, facts, lattice, effective, stats, &plan));
  return ExplainCubePlanWithActuals(plan, lattice, *ctx.stats(), result);
}

namespace internal {

bool ForEachGroupOfFact(
    const FactTable& facts, const CubeLattice& lattice, CuboidId cuboid,
    size_t fact, std::vector<std::vector<ValueId>>* scratch,
    const std::function<void(const GroupKey&)>& fn) {
  // Collect the distinct admitted value set per present axis.
  size_t num_present = 0;
  static thread_local std::vector<size_t> present_axes;
  present_axes.clear();
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    AxisStateId s = lattice.StateOf(cuboid, a);
    if (!lattice.axis(a).state(s).grouping_present()) continue;
    facts.AdmittedValues(a, fact, s, &(*scratch)[num_present]);
    if ((*scratch)[num_present].empty()) return false;  // coverage drop-out
    present_axes.push_back(a);
    ++num_present;
  }
  // Odometer over the cross product.
  static thread_local std::vector<size_t> idx;
  static thread_local std::vector<ValueId> tuple;
  idx.assign(num_present, 0);
  tuple.resize(num_present);
  for (;;) {
    for (size_t i = 0; i < num_present; ++i) {
      tuple[i] = (*scratch)[i][idx[i]];
    }
    fn(PackGroupKey(tuple));
    // Advance the odometer.
    size_t i = 0;
    for (; i < num_present; ++i) {
      if (++idx[i] < (*scratch)[i].size()) break;
      idx[i] = 0;
    }
    if (i == num_present) break;
  }
  return true;
}

}  // namespace internal
}  // namespace x3
