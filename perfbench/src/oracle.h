// Independent COUNT oracle for LND cubes.
//
// Built only from the generators' document trees: no xdb, pattern or
// cube code is involved. A fact joins every combination of the distinct
// values its kept axes carry, and drops out of any cuboid that keeps an
// axis it lacks.
#ifndef X3_PERFBENCH_ORACLE_H_
#define X3_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "relax/cube_lattice.h"
#include "xml/xml_node.h"

namespace perf {

/// The distinct values each axis of one fact carries (sorted).
struct OracleFact {
  std::vector<std::vector<std::string>> values;
};

/// Reads `root`'s direct children named by `axis_tags`.
OracleFact ExtractFact(const x3::XmlNode& root,
                       const std::vector<std::string>& axis_tags);

/// Cells of one cuboid: the kept axes' values joined by '\x1f', in axis
/// order, mapped to the fact count.
using OracleCells = std::unordered_map<std::string, int64_t>;

class OracleCube {
 public:
  explicit OracleCube(size_t num_axes);

  void Add(const OracleFact& fact);
  size_t num_axes() const { return num_axes_; }
  uint64_t facts() const { return facts_; }
  /// Cuboid keeping exactly the axes set in `kept_mask`.
  const OracleCells& Cuboid(uint32_t kept_mask) const {
    return cuboids_[kept_mask];
  }
  /// Sum of counts over one cuboid's cells.
  int64_t Total(uint32_t kept_mask) const { return totals_[kept_mask]; }

  /// How many cells of cuboid `kept_mask` `fact` contributes to.
  static int64_t Combinations(const OracleFact& fact, uint32_t kept_mask);

 private:
  size_t num_axes_;
  uint64_t facts_ = 0;
  std::vector<OracleCells> cuboids_;
  std::vector<int64_t> totals_;
};

/// Bitmask of the corpus axes `cuboid` keeps, where query axis i is
/// corpus axis axis_map[i] (identity when `axis_map` is empty). Every
/// axis of the benchmark's queries permits LND only, so a cuboid is
/// exactly its kept-axis set.
uint32_t KeptMask(const x3::CubeLattice& lattice, x3::CuboidId cuboid,
                  const std::vector<size_t>& axis_map = {});

/// Compares one cuboid's cells, decoded through `facts`, with the
/// oracle. Returns "" when equal, else a description of the first
/// difference.
std::string CompareCuboid(
    const std::unordered_map<x3::GroupKey, x3::AggregateState>& cells,
    const x3::FactTable& facts, const x3::CubeLattice& lattice,
    x3::CuboidId cuboid, const OracleCube& oracle,
    const std::vector<size_t>& axis_map = {});

/// CompareCuboid over every cuboid of `cube`.
std::string CompareCube(const x3::CubeResult& cube, const x3::FactTable& facts,
                        const x3::CubeLattice& lattice,
                        const OracleCube& oracle,
                        const std::vector<size_t>& axis_map = {});

}  // namespace perf

#endif  // X3_PERFBENCH_ORACLE_H_
