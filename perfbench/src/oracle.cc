#include "oracle.h"

#include <algorithm>

namespace perf {

OracleFact ExtractFact(const x3::XmlNode& root,
                       const std::vector<std::string>& axis_tags) {
  OracleFact fact;
  fact.values.resize(axis_tags.size());
  for (const auto& child : root.children()) {
    if (!child->is_element()) continue;
    for (size_t a = 0; a < axis_tags.size(); ++a) {
      if (child->tag() == axis_tags[a]) {
        fact.values[a].push_back(child->CollectText());
      }
    }
  }
  for (auto& v : fact.values) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return fact;
}

OracleCube::OracleCube(size_t num_axes)
    : num_axes_(num_axes),
      cuboids_(size_t{1} << num_axes),
      totals_(size_t{1} << num_axes, 0) {}

int64_t OracleCube::Combinations(const OracleFact& fact, uint32_t kept_mask) {
  int64_t n = 1;
  for (size_t a = 0; a < fact.values.size(); ++a) {
    if (kept_mask & (1u << a)) n *= static_cast<int64_t>(fact.values[a].size());
  }
  return n;
}

void OracleCube::Add(const OracleFact& fact) {
  ++facts_;
  std::vector<size_t> kept;
  std::vector<size_t> pos;
  std::string key;
  for (uint32_t mask = 0; mask < cuboids_.size(); ++mask) {
    int64_t combos = Combinations(fact, mask);
    if (combos == 0) continue;  // lacks a kept axis: drops out
    totals_[mask] += combos;
    kept.clear();
    for (size_t a = 0; a < num_axes_; ++a) {
      if (mask & (1u << a)) kept.push_back(a);
    }
    // Odometer over the kept axes' value lists.
    pos.assign(kept.size(), 0);
    while (true) {
      key.clear();
      for (size_t i = 0; i < kept.size(); ++i) {
        if (i > 0) key.push_back('\x1f');
        key += fact.values[kept[i]][pos[i]];
      }
      ++cuboids_[mask][key];
      size_t i = 0;
      for (; i < kept.size(); ++i) {
        if (++pos[i] < fact.values[kept[i]].size()) break;
        pos[i] = 0;
      }
      if (i == kept.size()) break;
    }
  }
}

uint32_t KeptMask(const x3::CubeLattice& lattice, x3::CuboidId cuboid,
                  const std::vector<size_t>& axis_map) {
  uint32_t mask = 0;
  for (size_t a : lattice.PresentAxes(cuboid)) {
    mask |= 1u << (axis_map.empty() ? a : axis_map[a]);
  }
  return mask;
}

std::string CompareCuboid(
    const std::unordered_map<x3::GroupKey, x3::AggregateState>& cells,
    const x3::FactTable& facts, const x3::CubeLattice& lattice,
    x3::CuboidId cuboid, const OracleCube& oracle,
    const std::vector<size_t>& axis_map) {
  const OracleCells& expected =
      oracle.Cuboid(KeptMask(lattice, cuboid, axis_map));
  std::vector<size_t> present = lattice.PresentAxes(cuboid);
  std::string key;
  for (const auto& [packed, state] : cells) {
    std::vector<x3::ValueId> ids = x3::UnpackGroupKey(packed);
    if (ids.size() != present.size()) return "key width differs from axes";
    key.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) key.push_back('\x1f');
      key += facts.AxisValueName(present[i], ids[i]);
    }
    auto it = expected.find(key);
    if (it == expected.end()) return "unexpected cell " + key;
    if (it->second != state.count) {
      return "cell " + key + " count " + std::to_string(state.count) +
             " != " + std::to_string(it->second);
    }
  }
  if (cells.size() != expected.size()) {
    return std::to_string(cells.size()) + " cells != " +
           std::to_string(expected.size());
  }
  return "";
}

std::string CompareCube(const x3::CubeResult& cube, const x3::FactTable& facts,
                        const x3::CubeLattice& lattice,
                        const OracleCube& oracle,
                        const std::vector<size_t>& axis_map) {
  size_t axes = axis_map.empty() ? oracle.num_axes() : axis_map.size();
  if (lattice.num_axes() != axes ||
      lattice.num_cuboids() != (uint64_t{1} << axes)) {
    return "lattice is not the LND lattice of the query's axes";
  }
  for (x3::CuboidId id = 0; id < lattice.num_cuboids(); ++id) {
    std::string diff = CompareCuboid(cube.cuboid(id), facts, lattice, id,
                                     oracle, axis_map);
    if (!diff.empty()) {
      return "cuboid " + lattice.DescribeCuboid(id) + ": " + diff;
    }
  }
  return "";
}

}  // namespace perf
