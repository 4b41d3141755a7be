#ifndef X3_CUBE_VIEW_STORE_H_
#define X3_CUBE_VIEW_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cube/aggregate.h"
#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "relax/cube_lattice.h"
#include "schema/summarizability.h"
#include "util/exec.h"
#include "util/fact_id_set.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace x3 {

/// How a cuboid request was answered by the view store.
enum class ViewStrategy : uint8_t {
  /// The cuboid itself was materialized: cells copied.
  kExact,
  /// Rolled up from a materialized LND-ancestor without fact ids
  /// (requires the dropped axes to be disjoint at the view's states).
  kRollup,
  /// Rolled up from a materialized LND-ancestor by unioning the
  /// tracked fact-id sets — correct even without summarizability
  /// (§3.6's "accompany intermediate results ... with the attributes to
  /// be aggregated, keeping track of fact items").
  kRollupWithIds,
  /// No usable view: computed from the base fact table.
  kBase,
};

const char* ViewStrategyToString(ViewStrategy s);

/// Statistics for one Answer() call.
struct ViewComputeStats {
  ViewStrategy strategy = ViewStrategy::kBase;
  CuboidId source_view = 0;
  uint64_t view_cells_scanned = 0;
  uint64_t facts_scanned = 0;
};

/// Materialized intermediate cube results (§3.6).
///
/// A view is one cuboid's cells *with null-value groups*: every fact
/// appears, facts missing an axis binding carried under a null key
/// field (the §3.5 "null value group" patch that repairs coverage), and
/// optionally with the contributing fact ids per cell (which repairs
/// disjointness for later roll-ups at the cost of keeping fact items
/// around — exactly the trade-off the paper describes).
///
/// Answer(target) picks the cheapest correct strategy: the exact view;
/// an LND-ancestor view rolled up without ids when the dropped axes are
/// provably disjoint; an id-carrying ancestor with fact-set union; or
/// the base table.
///
/// Views are immutable once published and held by shared pointer, so a
/// reader pins the view it rolls up from (Pin, or AnswerFromViews'
/// selection) and reads it with no lock held: a concurrent Evict or a
/// re-Materialize of the same cuboid only drops the store's reference.
/// The view map itself is guarded by `mu_` (rank lock_rank::kViewStore)
/// and is held only to select, publish or drop a pointer. ApplyDelta
/// patches a private copy and publishes it (copy-on-write), so a view
/// shared with another store by CloneViewFrom is never mutated.
class CubeViewStore {
 public:
  struct ViewCell {
    AggregateState agg;
    /// Contributing fact indices as a compressed set (empty when the
    /// view was materialized without ids).
    FactIdSet facts;
  };
  /// One materialized cuboid. Immutable once built.
  struct View {
    CuboidId cuboid = 0;
    bool with_fact_ids = false;
    /// Present axes of the view's cuboid, ascending.
    std::vector<size_t> present;
    /// Per-axis state of the view's cuboid.
    std::vector<AxisStateId> states;
    /// Keyed over `present` (null fields = kInvalidValueId).
    std::unordered_map<GroupKey, ViewCell> cells;
  };
  using ViewPtr = std::shared_ptr<const View>;

  /// Both referents must outlive the store.
  CubeViewStore(const FactTable* facts, const CubeLattice* lattice)
      : facts_(facts), lattice_(lattice) {}

  CubeViewStore(const CubeViewStore&) = delete;
  CubeViewStore& operator=(const CubeViewStore&) = delete;

  /// Builds the view of `cuboid` from the base table (with null-value
  /// groups; fact ids retained when `with_fact_ids`) without publishing
  /// it. Polls `exec` (optional) once per fact, so a cancelled or
  /// expired execution stops the scan.
  Result<ViewPtr> BuildView(CuboidId cuboid, bool with_fact_ids,
                            ExecutionContext* exec = nullptr) const;

  /// Publishes `view` as the materialized view of its cuboid, replacing
  /// any existing one.
  void Publish(ViewPtr view) X3_EXCLUDES(mu_);

  /// BuildView + Publish.
  Status Materialize(CuboidId cuboid, bool with_fact_ids) X3_EXCLUDES(mu_);

  /// The published view of `cuboid`, pinned; nullptr when absent.
  ViewPtr Pin(CuboidId cuboid) const X3_EXCLUDES(mu_);

  /// Drops the materialized view of `cuboid`; false when it was not
  /// materialized. The serving layer's cuboid cache uses this as its
  /// eviction hook. Readers that pinned the view keep it alive.
  bool Evict(CuboidId cuboid) X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.erase(cuboid) > 0;
  }

  bool Contains(CuboidId cuboid) const X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.count(cuboid) > 0;
  }
  size_t num_views() const X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.size();
  }

  /// Ids of the currently materialized views, unordered.
  std::vector<CuboidId> MaterializedIds() const X3_EXCLUDES(mu_);

  /// True iff `cuboid` is materialized with fact ids (false when it is
  /// not materialized at all). Delta planning distinguishes the two:
  /// id-carrying views can always absorb new facts, id-less views only
  /// where summarizability still proves the merge safe.
  bool ViewHasFactIds(CuboidId cuboid) const X3_EXCLUDES(mu_);

  /// Shares `cuboid`'s materialized view of `source` with this store
  /// (replacing any existing view of the same cuboid). NotFound when
  /// `source` has no such view. The two stores' locks are taken
  /// sequentially, never nested, so same-rank stores are fine.
  Status CloneViewFrom(const CubeViewStore& source, CuboidId cuboid)
      X3_EXCLUDES(mu_);

  /// Folds facts [first_new_fact, facts()->size()) of the (re-finished)
  /// fact table into `cuboid`'s materialized view — the same
  /// null-value-group odometer walk Materialize runs, restricted to the
  /// delta range, so the patched view is byte-identical to a fresh
  /// materialization. The patch is made on a copy that replaces the
  /// published view. Caller is responsible for only patching views the
  /// delta plan proved safe. `cells_touched` (optional) accumulates the
  /// number of cell updates. NotFound when the view is not
  /// materialized.
  Status ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                    uint64_t* cells_touched = nullptr) X3_EXCLUDES(mu_);

  /// Approximate memory held by materialized views.
  size_t ApproxBytes() const X3_EXCLUDES(mu_);

  /// Approximate memory of one materialized view (0 when absent) — the
  /// unit the serving layer's LRU accounting is denominated in.
  size_t ViewApproxBytes(CuboidId cuboid) const X3_EXCLUDES(mu_);
  static size_t ViewBytes(const View& view);

  /// Computes the cells of `target` (no null groups — the real cuboid)
  /// using the best available strategy. `properties` may be null
  /// ("assume nothing": id-less roll-ups are never chosen).
  Result<std::unordered_map<GroupKey, AggregateState>> Answer(
      CuboidId target, AggregateFunction fn,
      const LatticeProperties* properties = nullptr,
      ViewComputeStats* stats = nullptr) const X3_EXCLUDES(mu_);

  /// Answer() restricted to the materialized views: exact or roll-up
  /// strategies only, NotFound when no usable view exists. The base
  /// table is never scanned, so a NotFound caller can decide for itself
  /// how a miss is computed (the serving layer builds a donor view and
  /// rolls up from it). The view is selected under the lock and rolled
  /// up from with the lock released.
  Result<std::unordered_map<GroupKey, AggregateState>> AnswerFromViews(
      CuboidId target, AggregateFunction fn,
      const LatticeProperties* properties = nullptr,
      ViewComputeStats* stats = nullptr) const X3_EXCLUDES(mu_);

  /// Rolls `target` up from `view` (which need not be published).
  /// NotFound when `view` cannot answer `target`: not an LND-ancestor,
  /// or an id-less view whose dropped axes are not provably disjoint.
  Result<std::unordered_map<GroupKey, AggregateState>> RollUp(
      const View& view, CuboidId target,
      const LatticeProperties* properties = nullptr,
      ViewComputeStats* stats = nullptr) const;

 private:
  /// How `view` answers `target`, when it can.
  struct RollUpPlan {
    /// View-key field index of each target-present axis.
    std::vector<size_t> kept_positions;
    bool exact = false;
    bool needs_ids = false;
  };

  /// True iff `view` can answer `target`: `target` is `view` with zero
  /// or more of its axes LND-dropped (same states on the shared axes),
  /// and either nothing is dropped, every dropped axis is provably
  /// disjoint at the view's state, or the view carries fact ids.
  bool PlanRollUp(const View& view, CuboidId target,
                  const LatticeProperties* properties,
                  RollUpPlan* plan) const;

  /// Projects `view` onto `target` as `plan` says.
  std::unordered_map<GroupKey, AggregateState> RunRollUp(
      const View& view, const RollUpPlan& plan, ViewComputeStats* st) const;

  const FactTable* facts_;
  const CubeLattice* lattice_;
  mutable Mutex mu_{lock_rank::kViewStore};
  std::unordered_map<CuboidId, ViewPtr> views_ X3_GUARDED_BY(mu_);
};

}  // namespace x3

#endif  // X3_CUBE_VIEW_STORE_H_
