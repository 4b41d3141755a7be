#ifndef X3_PATTERN_TWIG_MATCHER_H_
#define X3_PATTERN_TWIG_MATCHER_H_

#include <cstdint>
#include <vector>

#include "pattern/tree_pattern.h"
#include "util/result.h"
#include "xdb/database.h"

namespace x3 {

/// One match of a tree pattern: bindings indexed by PatternNodeId
/// (pattern.capacity() entries; tombstoned ids and unmatched optional
/// nodes hold kInvalidNodeId).
struct WitnessTree {
  std::vector<NodeId> bindings;

  bool operator==(const WitnessTree& other) const {
    return bindings == other.bindings;
  }
};

/// Matcher statistics (for cost reporting and tests).
struct MatchStats {
  uint64_t candidates_examined = 0;
  uint64_t witnesses_emitted = 0;
};

/// True iff data node `id` satisfies `pnode`'s tag and value filter.
Result<bool> NodeSatisfies(const Database& db, const PatternNode& pnode,
                           NodeId id);

/// Evaluates tree patterns against a Database, enumerating witness
/// trees (TAX-style grouping input). Candidate nodes come from the
/// per-tag indexes with interval-range narrowing; structural predicates
/// are verified via the (start,end,level,parent) labels.
///
/// Optional pattern nodes have outer-join semantics: when a required
/// embedding of the optional subtree does not exist under the chosen
/// ancestors, a single witness with kInvalidNodeId bindings for that
/// subtree is produced instead of dropping the match.
class TwigMatcher {
 public:
  /// `db` must outlive the matcher.
  explicit TwigMatcher(const Database* db) : db_(db) {}

  /// All witness trees of `pattern` in the database, in document order
  /// of the root binding. `limit` caps the number of witnesses.
  Result<std::vector<WitnessTree>> FindMatches(const TreePattern& pattern,
                                               size_t limit = SIZE_MAX);

  /// Witness trees with the pattern root bound to `root_binding` (its
  /// tag must match).
  Result<std::vector<WitnessTree>> FindMatchesUnder(const TreePattern& pattern,
                                                    NodeId root_binding,
                                                    size_t limit = SIZE_MAX);

  /// Existential check: does an embedding exist with the given fixed
  /// bindings (pairs of pattern node -> data node)? Non-fixed nodes are
  /// existential; optional nodes never fail the check.
  Result<bool> Embeds(const TreePattern& pattern,
                      const std::vector<std::pair<PatternNodeId, NodeId>>&
                          fixed_bindings);

  const MatchStats& stats() const { return stats_; }

 private:
  /// Enumerates bindings for `pattern_id`'s subtree given the parent's
  /// data binding. Appends per-subtree partial witnesses to `out`
  /// (each sized pattern.capacity()).
  Status MatchSubtree(const TreePattern& pattern, PatternNodeId pattern_id,
                      NodeId binding, std::vector<WitnessTree>* out,
                      size_t limit);

  /// Candidate data nodes for pattern node `pattern_id` under parent
  /// binding `parent_binding`.
  Result<std::vector<NodeId>> Candidates(const TreePattern& pattern,
                                         PatternNodeId pattern_id,
                                         NodeId parent_binding);

  /// Existential subtree check with fixed bindings.
  Result<bool> EmbedsSubtree(const TreePattern& pattern,
                             PatternNodeId pattern_id, NodeId binding,
                             const std::vector<NodeId>& fixed);

  /// Matches the whole pattern with the root bound to `root`, appending
  /// witnesses to `out` and updating stats.
  Status FindUnderInto(const TreePattern& pattern, NodeId root,
                       std::vector<WitnessTree>* out, size_t limit);

  const Database* db_;
  MatchStats stats_;
};

}  // namespace x3

#endif  // X3_PATTERN_TWIG_MATCHER_H_
