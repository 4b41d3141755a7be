#ifndef X3_TESTS_TEST_HELPERS_H_
#define X3_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "pattern/tree_pattern.h"
#include "pattern/twig_matcher.h"
#include "util/random.h"
#include "util/result.h"
#include "xdb/database.h"
#include "xml/xml_node.h"

namespace x3 {
namespace testutil {

/// Explicitly consumes a `Status`/`Result` whose value is irrelevant to
/// the test (robustness sweeps only assert "returned, didn't crash").
/// Status/Result are [[nodiscard]] so a bare call no longer compiles.
inline void Consume(const Status&) {}
template <typename T>
void Consume(const Result<T>&) {}

/// The publication warehouse of the paper's Figure 1 (plus text values
/// on the publishers so value grouping has something to chew on).
inline const char* kFigure1Xml = R"(
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

/// Opens an empty scratch database (data file auto-deleted).
inline std::unique_ptr<Database> OpenDb(size_t pool_pages = 256) {
  DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  auto db = Database::Open(options);
  if (!db.ok()) return nullptr;
  return std::move(*db);
}

/// Opens a database pre-loaded with the Figure 1 document.
inline std::unique_ptr<Database> OpenFigure1Db() {
  auto db = OpenDb();
  if (db == nullptr) return nullptr;
  if (!db->LoadXmlString(kFigure1Xml).ok()) return nullptr;
  return db;
}

/// Brute-force reference for TwigMatcher::FindMatches, for completeness
/// checks. It copies every NodeRecord into a plain vector (no tag
/// indexes, no interval narrowing) and tries every data node for every
/// pattern node in preorder, testing tag, value and edge against the
/// records alone. A pattern node is left unbound only as TwigMatcher
/// documents for optional subtrees: when its parent is unbound, or when
/// it is optional and no embedding of its subtree exists under the
/// parent's binding. Returns the witnesses sorted by bindings.
class BruteForceMatcher {
 public:
  BruteForceMatcher(const Database& db, const TreePattern& pattern)
      : db_(db), pattern_(pattern), order_(pattern.LiveNodes()) {}

  Result<std::vector<WitnessTree>> FindMatches() {
    records_.resize(db_.node_count());
    for (NodeId id = 0; id < records_.size(); ++id) {
      X3_RETURN_IF_ERROR(db_.GetNode(id, &records_[id]));
    }
    binding_.assign(pattern_.capacity(), kInvalidNodeId);
    out_.clear();
    Assign(0);
    std::sort(out_.begin(), out_.end(),
              [](const WitnessTree& a, const WitnessTree& b) {
                return a.bindings < b.bindings;
              });
    return out_;
  }

 private:
  /// `id` satisfies `p`'s tag, value filter and edge from `parent`
  /// (kInvalidNodeId for the pattern root, which has no edge).
  bool Admits(PatternNodeId p, NodeId id, NodeId parent) const {
    const PatternNode& pnode = pattern_.node(p);
    const NodeRecord& rec = records_[id];
    if (pnode.tag != "*" && db_.tags().Name(rec.tag_id) != pnode.tag) {
      return false;
    }
    if (pnode.has_value_filter &&
        (rec.value_id == kInvalidValueId ||
         db_.values().Value(rec.value_id) != pnode.value_filter)) {
      return false;
    }
    if (parent == kInvalidNodeId) return true;
    if (pnode.edge == StructuralAxis::kChild) return rec.parent == parent;
    return parent < id && id <= records_[parent].end;
  }

  /// Some node under `parent` binds `p` with every required child
  /// subtree embedded beneath it.
  bool Embeds(PatternNodeId p, NodeId parent) const {
    for (NodeId id = 0; id < records_.size(); ++id) {
      if (!Admits(p, id, parent)) continue;
      bool all = true;
      for (PatternNodeId c : pattern_.node(p).children) {
        all = all && (pattern_.node(c).optional || Embeds(c, id));
      }
      if (all) return true;
    }
    return false;
  }

  void Assign(size_t k) {
    if (k == order_.size()) {
      out_.push_back(WitnessTree{binding_});
      return;
    }
    PatternNodeId p = order_[k];
    const PatternNode& pnode = pattern_.node(p);
    bool is_root = p == pattern_.root();
    NodeId parent = is_root ? kInvalidNodeId
                            : binding_[static_cast<size_t>(pnode.parent)];
    if (!is_root && parent == kInvalidNodeId) {
      Assign(k + 1);  // inside an unbound optional subtree
      return;
    }
    for (NodeId id = 0; id < records_.size(); ++id) {
      if (!Admits(p, id, parent)) continue;
      binding_[static_cast<size_t>(p)] = id;
      Assign(k + 1);
    }
    binding_[static_cast<size_t>(p)] = kInvalidNodeId;
    if (!is_root && pnode.optional && !Embeds(p, parent)) Assign(k + 1);
  }

  const Database& db_;
  const TreePattern& pattern_;
  std::vector<PatternNodeId> order_;
  std::vector<NodeRecord> records_;
  std::vector<NodeId> binding_;
  std::vector<WitnessTree> out_;
};

/// Generates a random tree with tags drawn from {t0..t{tags-1}} for
/// matcher property tests.
inline std::unique_ptr<XmlNode> RandomTree(Random* rng, size_t max_nodes,
                                           size_t tags, size_t max_children) {
  auto make_tag = [&](uint64_t t) {
    return "t" + std::to_string(t);
  };
  auto root = XmlNode::Element(make_tag(rng->Uniform(tags)));
  std::vector<XmlNode*> frontier{root.get()};
  size_t nodes = 1;
  while (nodes < max_nodes && !frontier.empty()) {
    size_t pick = rng->Uniform(frontier.size());
    XmlNode* parent = frontier[pick];
    size_t children = 1 + rng->Uniform(max_children);
    for (size_t c = 0; c < children && nodes < max_nodes; ++c) {
      XmlNode* child = parent->AddElement(make_tag(rng->Uniform(tags)));
      if (rng->Bernoulli(0.3)) {
        child->AddText("v" + std::to_string(rng->Uniform(5)));
      }
      frontier.push_back(child);
      ++nodes;
    }
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));
  }
  return root;
}

}  // namespace testutil
}  // namespace x3

#endif  // X3_TESTS_TEST_HELPERS_H_
