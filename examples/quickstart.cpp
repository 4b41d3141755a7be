// Quickstart: the paper's running example end to end.
//
// Loads the Figure 1 publication warehouse, runs Query 1 (the X^3 cube
// over author name / publisher id / year with per-axis relaxations),
// and prints a few cuboids of the resulting cube.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <map>
#include <string_view>

#include "cube/algorithm.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace {

constexpr const char* kWarehouse = R"(
  <database>
    <publication id="1">
      <author id="a1"><name>John</name></author>
      <author id="a2"><name>Jane</name></author>
      <publisher id="p1"/>
      <year>2003</year>
    </publication>
    <publication id="2">
      <author id="a1"><name>John</name></author>
      <publisher id="p2"/>
      <year>2004</year>
      <year>2005</year>
    </publication>
    <publication id="3">
      <authors><author id="a3"><name>Smith</name></author></authors>
      <year>2003</year>
    </publication>
    <publication id="4">
      <author id="a2"><name>Jane</name></author>
      <pubData><publisher id="p1"/><year>2004</year></pubData>
    </publication>
  </database>)";

// Query 1 of the paper, verbatim.
constexpr const char* kQuery1 = R"(
  for $b in doc("book.xml")//publication,
      $n in $b/author/name,
      $p in $b//publisher/@id,
      $y in $b/year
  X^3 $b/@id by $n (LND, SP, PC-AD),
               $p (LND, PC-AD),
               $y (LND)
  return COUNT($b)
)";

}  // namespace

int main() {
  auto db = x3::Database::Open({});
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  if (auto s = (*db)->LoadXmlString(kWarehouse); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.status().ToString().c_str());
    return 1;
  }

  x3::X3Engine engine(db->get());
  auto result = engine.Execute(kQuery1, x3::CubeAlgorithm::kBUC);
  if (!result.ok()) {
    std::fprintf(stderr, "execute: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("Loaded %u nodes; %zu publications become facts.\n",
              (*db)->node_count(), result->facts.size());
  std::printf("Cube lattice: %llu cuboids over %zu axes; %llu result cells.\n",
              static_cast<unsigned long long>(result->lattice.num_cuboids()),
              result->lattice.num_axes(),
              static_cast<unsigned long long>(result->cube.TotalCells()));
  auto stage_ms = [&](std::string_view label) {
    for (const x3::StageTiming& stage : result->stage_timings) {
      if (stage.label == label) return stage.seconds * 1e3;
    }
    return 0.0;
  };
  std::printf("Materialize: %.3f ms, plan: %.3f ms, compute: %.3f ms (%s)\n\n",
              stage_ms("materialize"), stage_ms("plan"), stage_ms("compute"),
              x3::CubeAlgorithmToString(x3::CubeAlgorithm::kBUC));

  // Print every cuboid that groups by at most one axis (the classical
  // rollups), with values decoded through the per-axis dictionaries.
  const x3::CubeLattice& lattice = result->lattice;
  for (x3::CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    std::vector<size_t> present = lattice.PresentAxes(c);
    if (present.size() > 1) continue;
    std::printf("cuboid %llu  %s\n", static_cast<unsigned long long>(c),
                lattice.DescribeCuboid(c).c_str());
    // Sort cells by value name for stable output.
    std::map<std::string, double> rows;
    for (const auto& [key, state] : result->cube.cuboid(c)) {
      std::vector<x3::ValueId> values = x3::UnpackGroupKey(key);
      std::string label = present.empty()
                              ? "(all)"
                              : result->facts.AxisValueName(present[0],
                                                            values[0]);
      rows[label] = state.Value(x3::AggregateFunction::kCount);
    }
    for (const auto& [label, count] : rows) {
      std::printf("    %-10s COUNT=%.0f\n", label.c_str(), count);
    }
  }
  return 0;
}
