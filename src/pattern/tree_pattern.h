#ifndef X3_PATTERN_TREE_PATTERN_H_
#define X3_PATTERN_TREE_PATTERN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace x3 {

/// Structural relationship between a pattern node and its parent.
enum class StructuralAxis : uint8_t {
  kChild,       // parent-child (PC)
  kDescendant,  // ancestor-descendant (AD)
};

/// Index of a node within a TreePattern.
using PatternNodeId = int;
inline constexpr PatternNodeId kNoPatternNode = -1;

/// One node of a tree pattern query.
struct PatternNode {
  /// Element tag or "@attr" for attribute nodes. "*" matches any tag.
  std::string tag;
  /// Relationship to the parent (ignored for the root).
  StructuralAxis edge = StructuralAxis::kChild;
  /// Outer-join node: a witness tree exists even if this node (and its
  /// pattern subtree) has no match; the binding is then kInvalidNodeId.
  bool optional = false;
  /// Value predicate ("[.=\"2003\"]"): when set, only nodes whose value
  /// (element direct text / attribute value) equals this match.
  bool has_value_filter = false;
  std::string value_filter;
  PatternNodeId parent = kNoPatternNode;
  std::vector<PatternNodeId> children;
};

/// A tree (twig) pattern query: a rooted tree of tag-labelled nodes
/// connected by child ("/") or descendant ("//") edges, evaluated
/// against the database to produce witness trees.
///
/// Patterns are small value types; relaxation operators (LND, SP,
/// PC-AD in relax/) produce transformed copies.
class TreePattern {
 public:
  TreePattern() = default;

  /// Creates the root node. Must be called exactly once, first.
  PatternNodeId SetRoot(std::string tag);

  /// Adds a node under `parent`. Returns its id.
  PatternNodeId AddNode(PatternNodeId parent, std::string tag,
                        StructuralAxis edge, bool optional = false);

  /// Deletes a leaf node (it must have no children and not be the
  /// root). Ids of other nodes are preserved; the deleted id becomes
  /// invalid (tombstoned).
  Status DeleteLeaf(PatternNodeId id);

  /// Re-parents the subtree at `id` under its grandparent with a
  /// descendant edge (the SP relaxation primitive).
  Status PromoteToGrandparent(PatternNodeId id);

  /// Changes `id`'s incoming edge to ancestor-descendant.
  Status GeneralizeEdge(PatternNodeId id);

  /// Attaches a value-equality predicate to `id`.
  Status SetValueFilter(PatternNodeId id, std::string value);

  bool IsLive(PatternNodeId id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes_.size() &&
           !tombstone_[static_cast<size_t>(id)];
  }
  bool IsLeaf(PatternNodeId id) const {
    return IsLive(id) && nodes_[static_cast<size_t>(id)].children.empty();
  }

  const PatternNode& node(PatternNodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  PatternNodeId root() const { return root_; }

  /// Number of live nodes.
  size_t size() const { return live_count_; }
  /// Upper bound on node ids (including tombstones).
  size_t capacity() const { return nodes_.size(); }

  /// Live node ids in preorder.
  std::vector<PatternNodeId> LiveNodes() const;

  /// A canonical serialization: structurally identical patterns (up to
  /// sibling order) produce identical strings. Used to deduplicate
  /// relaxation states. `mark`, when live, is annotated in the output so
  /// states differing only in which node is the grouping node stay
  /// distinct.
  std::string CanonicalForm(PatternNodeId mark = kNoPatternNode) const;

  /// XPath-flavoured rendering for diagnostics, e.g.
  /// "publication[./author/name][.//publisher/@id]".
  std::string ToString() const;

 private:
  std::string CanonicalSubtree(PatternNodeId id, PatternNodeId mark) const;
  void RenderNode(PatternNodeId id, std::string* out) const;

  std::vector<PatternNode> nodes_;
  std::vector<bool> tombstone_;
  PatternNodeId root_ = kNoPatternNode;
  size_t live_count_ = 0;
};

}  // namespace x3

#endif  // X3_PATTERN_TREE_PATTERN_H_
