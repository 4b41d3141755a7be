#include "x3/engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "x3/binder.h"
#include "x3/parser.h"

namespace x3 {

namespace {

/// The query's return clause fixes the aggregate; its HAVING bound only
/// tightens the caller's iceberg threshold.
void ApplyQueryOptions(const CubeQuery& query, CubeComputeOptions* options) {
  options->aggregate = query.aggregate;
  options->min_count = std::max(options->min_count, query.min_count);
}

}  // namespace

Result<CubeQuery> X3Engine::Compile(std::string_view query_text) const {
  X3_ASSIGN_OR_RETURN(AstQuery ast, ParseX3Query(query_text));
  return BindX3Query(ast);
}

Result<PreparedQuery> X3Engine::Prepare(const CubeQuery& query,
                                        ExecutionContext* ctx) const {
  ExecutionContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
  ScopedStageTimer stage(ctx->stats(), "materialize", ctx->tracer());
  X3_ASSIGN_OR_RETURN(CubeLattice lattice, BuildCubeLattice(query));
  X3_ASSIGN_OR_RETURN(FactTable facts, BuildFactTable(*db_, query, lattice));
  stage.AddRows(facts.size());
  return PreparedQuery(query, std::move(lattice), std::move(facts));
}

Result<X3ExecutionResult> X3Engine::Execute(std::string_view query_text,
                                            CubeAlgorithm algorithm,
                                            CubeComputeOptions options) const {
  X3_ASSIGN_OR_RETURN(CubeQuery query, Compile(query_text));
  return ExecuteQuery(query, algorithm, options);
}

Result<X3ExecutionResult> X3Engine::ExecuteQuery(
    const CubeQuery& query, CubeAlgorithm algorithm,
    CubeComputeOptions options) const {
  ApplyQueryOptions(query, &options);

  // One context for the whole pipeline: either the caller's (its
  // budget/temp_files win, see ComputeCube) or a local uncancellable
  // one wrapping the option fields.
  ExecutionContext local_ctx(ExecutionContext::Options{
      options.budget, options.temp_files, nullptr, std::nullopt});
  ExecutionContext* ctx =
      options.exec != nullptr ? options.exec : &local_ctx;
  options.exec = ctx;
  MemoryBudget* budget =
      ctx->budget() != nullptr ? ctx->budget() : options.budget;

  // Prepare records the "materialize" stage (with the fact count as its
  // row detail) and opens the pipeline's first trace span.
  Result<PreparedQuery> prepared = Prepare(query, ctx);
  X3_RETURN_IF_ERROR(prepared.status());
  CubeLattice lattice = std::move(prepared->lattice);
  FactTable facts = std::move(prepared->facts);

  // The materialized fact table is working memory of the query: charge
  // it for the duration of the cube computation so peak_memory reflects
  // the real footprint and budgeted algorithms see what is left.
  std::optional<ScopedReservation> facts_reservation;
  if (budget != nullptr) {
    facts_reservation.emplace(budget, facts.ApproxBytes());
  }
  X3_RETURN_IF_ERROR(ctx->CheckInterrupted());

  CubeComputeStats stats;
  X3_ASSIGN_OR_RETURN(CubeResult cube, ComputeCube(algorithm, facts, lattice,
                                                   options, &stats));
  if (budget != nullptr) {
    stats.peak_memory =
        std::max<uint64_t>(stats.peak_memory, budget->peak());
  }

  X3ExecutionResult result(std::move(lattice), std::move(facts),
                           std::move(cube));
  result.stats = stats;
  result.stage_timings = ctx->stats()->timings();
  return result;
}

Result<std::string> X3Engine::ExplainAnalyze(std::string_view query_text,
                                             CubeAlgorithm algorithm,
                                             CubeComputeOptions options) const {
  X3_ASSIGN_OR_RETURN(CubeQuery query, Compile(query_text));
  ApplyQueryOptions(query, &options);
  X3_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query, options.exec));
  return ExplainAnalyzeCube(algorithm, prepared.facts, prepared.lattice,
                            options);
}

}  // namespace x3
