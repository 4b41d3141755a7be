#include "cube/view_store.h"

#include <algorithm>

#include "util/logging.h"

namespace x3 {

const char* ViewStrategyToString(ViewStrategy s) {
  switch (s) {
    case ViewStrategy::kExact:
      return "exact";
    case ViewStrategy::kRollup:
      return "rollup";
    case ViewStrategy::kRollupWithIds:
      return "rollup+ids";
    case ViewStrategy::kBase:
      return "base";
  }
  return "?";
}

namespace {

/// The null-value-group odometer walk shared by BuildView and
/// ApplyDelta: folds facts [first, facts.size()) into `view`, each fact
/// into every cell its value-or-null lists span. Polls `exec`
/// (optional) once per fact.
Status FoldFacts(const FactTable& facts, size_t first,
                 CubeViewStore::View* view, ExecutionContext* exec,
                 uint64_t* cells_touched) {
  std::vector<std::vector<ValueId>> lists(view->present.size());
  std::vector<size_t> idx;
  std::vector<ValueId> tuple(view->present.size());
  static const std::vector<ValueId> kNullList{kInvalidValueId};

  for (size_t f = first; f < facts.size(); ++f) {
    if (exec != nullptr) X3_RETURN_IF_ERROR(exec->Poll());
    // Value-or-null list per present axis (null-value groups keep
    // coverage-dropping facts visible to later roll-ups).
    for (size_t i = 0; i < view->present.size(); ++i) {
      size_t axis = view->present[i];
      facts.AdmittedValues(axis, f, view->states[axis], &lists[i]);
      if (lists[i].empty()) lists[i] = kNullList;
    }
    idx.assign(view->present.size(), 0);
    for (;;) {
      for (size_t i = 0; i < view->present.size(); ++i) {
        tuple[i] = lists[i][idx[i]];
      }
      CubeViewStore::ViewCell& cell = view->cells[PackGroupKey(tuple)];
      cell.agg.Update(facts.measure(f));
      if (view->with_fact_ids) {
        // Ascending f: hits FactIdSet's append fast path, and a fact
        // enters a given cell at most once per odometer walk.
        cell.facts.Add(static_cast<uint32_t>(f));
      }
      if (cells_touched != nullptr) ++*cells_touched;
      size_t i = 0;
      for (; i < view->present.size(); ++i) {
        if (++idx[i] < lists[i].size()) break;
        idx[i] = 0;
      }
      if (i == view->present.size()) break;
    }
  }
  return Status::OK();
}

}  // namespace

Result<CubeViewStore::ViewPtr> CubeViewStore::BuildView(
    CuboidId cuboid, bool with_fact_ids, ExecutionContext* exec) const {
  auto view = std::make_shared<View>();
  view->cuboid = cuboid;
  view->with_fact_ids = with_fact_ids;
  view->present = lattice_->PresentAxes(cuboid);
  view->states = lattice_->Decode(cuboid);
  X3_RETURN_IF_ERROR(FoldFacts(*facts_, 0, view.get(), exec, nullptr));
  return ViewPtr(std::move(view));
}

void CubeViewStore::Publish(ViewPtr view) {
  CuboidId cuboid = view->cuboid;
  MutexLock lock(&mu_);
  views_[cuboid] = std::move(view);
}

Status CubeViewStore::Materialize(CuboidId cuboid, bool with_fact_ids) {
  X3_ASSIGN_OR_RETURN(ViewPtr view, BuildView(cuboid, with_fact_ids));
  Publish(std::move(view));
  return Status::OK();
}

CubeViewStore::ViewPtr CubeViewStore::Pin(CuboidId cuboid) const {
  MutexLock lock(&mu_);
  auto it = views_.find(cuboid);
  return it == views_.end() ? nullptr : it->second;
}

size_t CubeViewStore::ViewBytes(const View& view) {
  size_t bytes = 0;
  for (const auto& [key, cell] : view.cells) {
    bytes += key.size() + sizeof(ViewCell) + 32;
    bytes += cell.facts.ApproxBytes();
  }
  return bytes;
}

size_t CubeViewStore::ApproxBytes() const {
  size_t bytes = 0;
  for (CuboidId id : MaterializedIds()) bytes += ViewApproxBytes(id);
  return bytes;
}

size_t CubeViewStore::ViewApproxBytes(CuboidId cuboid) const {
  ViewPtr view = Pin(cuboid);
  return view == nullptr ? 0 : ViewBytes(*view);
}

std::vector<CuboidId> CubeViewStore::MaterializedIds() const {
  MutexLock lock(&mu_);
  std::vector<CuboidId> ids;
  ids.reserve(views_.size());
  for (const auto& [id, view] : views_) ids.push_back(id);
  return ids;
}

bool CubeViewStore::ViewHasFactIds(CuboidId cuboid) const {
  ViewPtr view = Pin(cuboid);
  return view != nullptr && view->with_fact_ids;
}

Status CubeViewStore::CloneViewFrom(const CubeViewStore& source,
                                    CuboidId cuboid) {
  ViewPtr view = source.Pin(cuboid);
  if (view == nullptr) {
    return Status::NotFound("source has no view for cuboid " +
                            std::to_string(cuboid));
  }
  Publish(std::move(view));
  return Status::OK();
}

Status CubeViewStore::ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                                 uint64_t* cells_touched) {
  ViewPtr published = Pin(cuboid);
  if (published == nullptr) {
    return Status::NotFound("no materialized view for cuboid " +
                            std::to_string(cuboid));
  }
  // Same walk as Materialize, restricted to the delta facts: every new
  // fact lands in exactly the cells a full rebuild would put it in, so
  // the patched view equals a fresh materialization cell for cell.
  auto patched = std::make_shared<View>(*published);
  X3_RETURN_IF_ERROR(FoldFacts(*facts_, first_new_fact, patched.get(),
                               nullptr, cells_touched));
  Publish(std::move(patched));
  return Status::OK();
}

bool CubeViewStore::PlanRollUp(const View& view, CuboidId target,
                               const LatticeProperties* properties,
                               RollUpPlan* plan) const {
  plan->kept_positions.clear();
  std::vector<size_t> target_present = lattice_->PresentAxes(target);
  bool safe_without_ids = true;
  size_t ti = 0;
  for (size_t i = 0; i < view.present.size(); ++i) {
    size_t axis = view.present[i];
    AxisStateId target_state = lattice_->StateOf(target, axis);
    if (ti < target_present.size() && target_present[ti] == axis) {
      // Kept axis: state must be identical (structural relaxation
      // changes bindings; views only help across LND edges).
      if (target_state != view.states[axis]) return false;
      plan->kept_positions.push_back(i);
      ++ti;
      continue;
    }
    // Dropped axis: target must have it absent.
    if (lattice_->axis(axis).state(target_state).grouping_present()) {
      return false;
    }
    // Coverage is repaired by the null-value groups; only disjointness
    // of the dropped axis matters for id-less merging.
    if (properties == nullptr ||
        !properties->At(axis, view.states[axis]).disjoint) {
      safe_without_ids = false;
    }
  }
  // Any target-present axis not present in the view disqualifies it.
  // (Axes absent in both agree: absent is unique per axis.)
  if (ti != target_present.size()) return false;
  plan->exact = plan->kept_positions.size() == view.present.size();
  plan->needs_ids = !plan->exact && !safe_without_ids;
  return !plan->needs_ids || view.with_fact_ids;
}

std::unordered_map<GroupKey, AggregateState> CubeViewStore::RunRollUp(
    const View& view, const RollUpPlan& plan, ViewComputeStats* st) const {
  st->source_view = view.cuboid;
  if (plan.exact) {
    st->strategy = ViewStrategy::kExact;
  } else {
    st->strategy = plan.needs_ids ? ViewStrategy::kRollupWithIds
                                  : ViewStrategy::kRollup;
  }

  // Roll up: project each non-null view cell onto the kept fields.
  std::unordered_map<GroupKey, AggregateState> out;
  std::unordered_map<GroupKey, FactIdSet> fact_sets;
  for (const auto& [key, cell] : view.cells) {
    ++st->view_cells_scanned;
    GroupKey target_key;
    target_key.reserve(plan.kept_positions.size() * 4);
    bool has_null = false;
    for (size_t pos : plan.kept_positions) {
      std::string_view field(key.data() + pos * 4, 4);
      if (field == std::string_view("\xFF\xFF\xFF\xFF", 4)) {
        has_null = true;
        break;
      }
      target_key.append(field);
    }
    if (has_null) continue;
    // Dropped-axis null cells DO contribute (the fact belongs to the
    // target group even though the dropped axis was missing).
    if (plan.needs_ids) {
      // Set union deduplicates facts reaching the target group from
      // several source cells (the disjointness repair, §3.6).
      fact_sets[target_key].UnionWith(cell.facts);
    } else {
      out[target_key].Merge(cell.agg);
    }
  }
  for (auto& [key, set] : fact_sets) {
    AggregateState& agg = out[key];
    set.ForEach([&](uint32_t f) {
      agg.Update(facts_->measure(f));
      ++st->facts_scanned;
    });
  }
  return out;
}

Result<std::unordered_map<GroupKey, AggregateState>> CubeViewStore::RollUp(
    const View& view, CuboidId target, const LatticeProperties* properties,
    ViewComputeStats* stats) const {
  ViewComputeStats local;
  ViewComputeStats* st = stats != nullptr ? stats : &local;
  *st = ViewComputeStats{};
  RollUpPlan plan;
  if (!PlanRollUp(view, target, properties, &plan)) {
    return Status::NotFound("view of cuboid " + std::to_string(view.cuboid) +
                            " cannot answer cuboid " +
                            std::to_string(target));
  }
  return RunRollUp(view, plan, st);
}

Result<std::unordered_map<GroupKey, AggregateState>>
CubeViewStore::AnswerFromViews(CuboidId target, AggregateFunction fn,
                               const LatticeProperties* properties,
                               ViewComputeStats* stats) const {
  (void)fn;  // all components are maintained in AggregateState
  ViewComputeStats local;
  ViewComputeStats* st = stats != nullptr ? stats : &local;
  *st = ViewComputeStats{};

  // Candidate views: prefer exact, then the smallest usable ancestor.
  // Selection holds mu_; the roll-up reads the pinned view unlocked.
  ViewPtr best;
  RollUpPlan best_plan;
  {
    MutexLock lock(&mu_);
    RollUpPlan plan;
    for (const auto& [id, view] : views_) {
      if (!PlanRollUp(*view, target, properties, &plan)) continue;
      bool better = best == nullptr || (plan.exact && !best_plan.exact) ||
                    (plan.exact == best_plan.exact &&
                     view->cells.size() < best->cells.size());
      if (better) {
        best = view;
        best_plan = plan;
      }
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no usable view for cuboid " +
                            std::to_string(target));
  }
  return RunRollUp(*best, best_plan, st);
}

Result<std::unordered_map<GroupKey, AggregateState>> CubeViewStore::Answer(
    CuboidId target, AggregateFunction fn,
    const LatticeProperties* properties, ViewComputeStats* stats) const {
  ViewComputeStats local;
  ViewComputeStats* st = stats != nullptr ? stats : &local;
  Result<std::unordered_map<GroupKey, AggregateState>> from_views =
      AnswerFromViews(target, fn, properties, st);
  if (from_views.ok() ||
      from_views.status().code() != StatusCode::kNotFound) {
    return from_views;
  }

  std::unordered_map<GroupKey, AggregateState> out;
  {
    // Fall back to the base table (unlocked: only the immutable fact
    // table and lattice are touched).
    st->strategy = ViewStrategy::kBase;
    std::vector<size_t> present = lattice_->PresentAxes(target);
    std::vector<AxisStateId> states = lattice_->Decode(target);
    std::vector<std::vector<ValueId>> lists(present.size());
    std::vector<size_t> idx;
    std::vector<ValueId> tuple(present.size());
    for (size_t f = 0; f < facts_->size(); ++f) {
      ++st->facts_scanned;
      bool drop = false;
      for (size_t i = 0; i < present.size(); ++i) {
        facts_->AdmittedValues(present[i], f, states[present[i]], &lists[i]);
        if (lists[i].empty()) {
          drop = true;
          break;
        }
      }
      if (drop) continue;
      idx.assign(present.size(), 0);
      for (;;) {
        for (size_t i = 0; i < present.size(); ++i) {
          tuple[i] = lists[i][idx[i]];
        }
        out[PackGroupKey(tuple)].Update(facts_->measure(f));
        size_t i = 0;
        for (; i < present.size(); ++i) {
          if (++idx[i] < lists[i].size()) break;
          idx[i] = 0;
        }
        if (i == present.size()) break;
      }
    }
    return out;
  }
}

}  // namespace x3
