#ifndef APEX_TESTS_ORACLES_H_
#define APEX_TESTS_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cgra/place.hpp"
#include "core/deadline.hpp"
#include "ir/graph.hpp"
#include "mapper/rewrite.hpp"
#include "merging/clique.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"
#include "pe/functional.hpp"

/**
 * @file
 * Reference oracles: the historic miner, isomorphism matcher, MIS
 * solver, clique solver, PE evaluator, rewrite-rule validator and
 * annealing placer, kept verbatim.  Each must return
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

namespace apex::pe {

/** Demand-driven recursive walk from each selected output, fresh per
 * call.  Matches PeFunctionalModel(spec, width).evaluate(). */
bool evaluateReference(const PeSpec &spec, int width,
                       const PeConfig &config, const PeInputs &inputs,
                       PeOutputs *out);

} // namespace apex::pe

namespace apex::mapper {

/** Per-assignment pattern copy, std::map binding, ir::Interpreter and
 * evaluateReference.  Matches validateRule(). */
bool validateRuleReference(const pe::PeSpec &spec,
                           const RewriteRule &rule);

} // namespace apex::mapper

namespace apex::cgra {

/** Double before/after cost sums with write-and-revert moves, drawn
 * from std::mt19937.  Matches placeHetero() (telemetry and the fault
 * hook aside). */
PlacementResult
placeHeteroReference(const Fabric &fabric,
                     const mapper::MappedGraph &mapped,
                     const std::vector<int> &pe_type_of_node,
                     int num_pe_types,
                     const PlacerOptions &options = {});

} // namespace apex::cgra

#endif // APEX_TESTS_ORACLES_H_
