#ifndef APEX_MINING_ISOMORPHISM_H_
#define APEX_MINING_ISOMORPHISM_H_

#include <cstddef>
#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Subgraph isomorphism for dataflow patterns.
 *
 * A *pattern* is a small Graph whose kInput/kInputBit nodes are free
 * placeholders; all other nodes are labeled ops that must match target
 * nodes exactly (same op; kLut additionally matches its truth table;
 * kConst matches any constant).  Edges must match including the
 * destination port, so operand order of non-commutative ops is
 * preserved (Sec. 3.3 of the paper).
 *
 * An *embedding* maps every non-placeholder pattern node to a distinct
 * target node such that for every pattern edge u ->(p) v between
 * non-placeholder nodes, the target has map(u) ->(p) map(v).
 * Placeholder operands are unconstrained.
 */

namespace apex::mining {

/** One embedding: pattern node id -> target node id (placeholders map
 * to the target node that feeds the corresponding port). */
struct Embedding {
    std::vector<ir::NodeId> map; ///< Indexed by pattern node id.
};

/**
 * Find embeddings of @p pattern in @p target (VF2-style backtracking).
 *
 * @param pattern  Pattern graph with placeholder inputs.
 * @param target   Target graph.
 * @param limit    Stop after this many embeddings (0 = unlimited).
 * @return all embeddings found (up to @p limit).
 */
std::vector<Embedding> findEmbeddings(const ir::Graph &pattern,
                                      const ir::Graph &target,
                                      std::size_t limit = 0);

/**
 * @return true when pattern node @p id is a free placeholder
 * (kInput / kInputBit).
 */
bool isPlaceholder(const ir::Graph &pattern, ir::NodeId id);

/**
 * @return true when a pattern node labeled @p pattern_node can match
 * target node @p target_node (op equality with the const/LUT rules).
 */
bool labelsMatch(const ir::Node &pattern_node,
                 const ir::Node &target_node);

} // namespace apex::mining

#endif // APEX_MINING_ISOMORPHISM_H_
