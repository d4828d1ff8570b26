#ifndef APEX_MERGING_CLIQUE_H_
#define APEX_MERGING_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "core/deadline.hpp"

/**
 * @file
 * Maximum-weight clique solver used by datapath merging (Sec. 3.3):
 * the compatible-merge selection is exactly a maximum-weight clique of
 * the compatibility graph.
 *
 * The solver is an exact BBMC-style branch and bound: vertices are
 * ordered (weight desc, index asc), candidate sets live in dense
 * bitsets intersected word-at-a-time, and the upper bound is a greedy
 * colouring of the candidate set — independent-set colour classes can
 * contribute at most their heaviest member each, which prunes orders
 * of magnitude more nodes than a plain remaining-weight sum.  It runs
 * under a node budget and an optional wall-clock deadline; if either
 * runs out on a pathological instance it returns the best clique
 * found so far, which is always at least as good as greedy.
 *
 * Determinism contract: branching follows the fixed (weight desc,
 * index asc) vertex order, the incumbent is replaced only on a strict
 * weight improvement, and the bound is admissible — so the returned
 * clique is a pure function of the input, byte-identical across
 * bound strengths, runs and lanes.  The historic vector-of-vector
 * search is retained in tests/oracles as the differential-testing
 * reference; see tests/kernels_test.cpp.
 */

namespace apex::merging {

/** Weighted undirected graph for the clique search. */
struct CliqueProblem {
    int n = 0;                           ///< Vertex count.
    std::vector<double> weight;          ///< Vertex weights (>= 0).
    std::vector<std::vector<bool>> adj;  ///< Symmetric adjacency.
};

/** Result of the clique search. */
struct CliqueResult {
    std::vector<int> vertices; ///< Chosen clique, ascending order.
    double weight = 0.0;       ///< Sum of vertex weights.
    bool optimal = true;       ///< False if a budget/deadline ran out.
    bool timed_out = false;    ///< The deadline (not the node budget)
                               ///< cut the search short.
    std::int64_t nodes = 0;    ///< Branch-and-bound nodes expanded.
};

/**
 * Find a maximum-weight clique.
 *
 * @param problem      The weighted graph.
 * @param node_budget  Branch-and-bound node limit (default 2e6).
 * @param deadline     Wall-clock bound, polled every few thousand
 *                     nodes; expiry stops the search at best-so-far.
 */
CliqueResult maxWeightClique(const CliqueProblem &problem,
                             std::int64_t node_budget = 2'000'000,
                             const Deadline &deadline = {});

} // namespace apex::merging

#endif // APEX_MERGING_CLIQUE_H_
