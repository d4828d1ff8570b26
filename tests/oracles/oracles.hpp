#ifndef APEX_TESTS_ORACLES_H_
#define APEX_TESTS_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deadline.hpp"
#include "ir/graph.hpp"
#include "merging/clique.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"

/**
 * @file
 * Reference oracles: the historic miner, isomorphism matcher, MIS
 * solver and clique solver, kept verbatim.  Each must return
 * byte-identical results to its production counterpart in src/ —
 * order and budget/deadline/limit truncation included.  Only the
 * differential tests and bench_micro_algorithms link them.
 */

namespace apex::mining {

/** The historic growth miner: dedup by full ir::canonicalCode,
 * occurrences re-matched per candidate.  Matches
 * FrequentSubgraphMiner(options).mine(app). */
std::vector<MinedPattern>
minePatternsReference(const ir::Graph &app,
                      const MinerOptions &options,
                      MineStats *stats = nullptr);

/** Backtracking matcher scanning the whole target for unconstrained
 * pattern nodes.  Matches findEmbeddings(). */
std::vector<Embedding>
findEmbeddingsReference(const ir::Graph &pattern,
                        const ir::Graph &target,
                        std::size_t limit = 0);

/** All-pairs overlap construction.  Matches overlapGraph(). */
std::vector<std::vector<int>>
overlapGraphReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences);

/** O(n)-scan greedy and degree-recomputing exact search.  Matches
 * maximalIndependentSet(). */
MisResult
maximalIndependentSetReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences);

} // namespace apex::mining

namespace apex::merging {

/** Upper bound used by the reference clique solver. */
enum class CliqueBound {
    kWeightSum, ///< Sum of remaining candidate weights (historic).
    kColoring,  ///< Greedy-colouring bound (matches maxWeightClique).
};

/** Vector-of-vector branch and bound.  With kColoring it matches
 * maxWeightClique() on every path; kWeightSum reproduces the historic
 * weak bound (same answers at ample budget, many more nodes). */
CliqueResult
maxWeightCliqueReference(const CliqueProblem &problem,
                         std::int64_t node_budget = 2'000'000,
                         const Deadline &deadline = {},
                         CliqueBound bound = CliqueBound::kColoring);

} // namespace apex::merging

#endif // APEX_TESTS_ORACLES_H_
