#ifndef APEX_MINING_MIS_H_
#define APEX_MINING_MIS_H_

#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Maximal independent set analysis of pattern occurrences (Sec. 3.2).
 *
 * Each occurrence of a pattern becomes a node of an *overlap graph*;
 * two occurrences are connected when their node sets intersect.  An
 * independent set of that graph is a family of occurrences that can
 * all be accelerated by fully-utilized PEs simultaneously; its size is
 * the paper's ranking signal for pattern interestingness.
 *
 * The solver is exact (branch and bound with a greedy bound) for
 * overlap graphs of at most kExactMisLimit occurrences and falls back
 * to the min-degree greedy heuristic above it — both return a
 * *maximal* independent set, matching the paper's terminology.
 *
 * Implementation: the overlap graph is a bitset matrix (row i = the
 * occurrences overlapping occurrence i) built straight from the
 * target-node -> occurrence buckets.  All occurrences that hold one
 * target node pairwise intersect in it, so each bucket is a clique of
 * the overlap graph, and row i is the OR of the bucket bitsets of i's
 * nodes with bit i cleared: Σ|bucket| x n/64 words of work and n²/8
 * bytes of memory, bounded by MinerOptions::max_embeddings (under
 * 50 MB at the default 20000).  An edge list would instead pay one
 * pair per (occurrence pair, shared node) — quadratic in every
 * bucket, so a node shared by thousands of occurrences (an app-wide
 * constant) alone emits tens of millions of pairs.  When one node
 * lies in every occurrence, the overlap graph is complete and both
 * solvers pick occurrence 0, so that case returns {0} before any
 * incidence list or matrix is built.  Greedy picks use
 * row popcounts as degrees and a bucket-by-degree structure, and the
 * exact branch and bound runs on the same rows with cached live
 * degrees.  All of it is deterministic with ascending-index
 * tie-breaking; the historic implementations are retained in
 * tests/oracles for differential testing (tests/kernels_test.cpp),
 * and this solver must stay byte-identical to them.
 */

namespace apex::mining {

/** Largest occurrence count solved exactly; above it, greedy. */
inline constexpr int kExactMisLimit = 28;

/** Result of the independent-set computation. */
struct MisResult {
    /** Indices (into the occurrence list) of the chosen occurrences. */
    std::vector<int> chosen;
    /** Size of the set (== chosen.size()). */
    int size = 0;
};

/**
 * Compute a maximal independent set over occurrence overlap.
 *
 * @param occurrences    Sorted node-id sets, one per occurrence.
 */
MisResult
maximalIndependentSet(const std::vector<std::vector<ir::NodeId>>
                          &occurrences);

/**
 * List view of the overlap rows maximalIndependentSet() solves on.
 * adjacency[i] lists the occurrence indices whose node sets intersect
 * occurrence i's, ascending.
 */
std::vector<std::vector<int>>
overlapGraph(const std::vector<std::vector<ir::NodeId>> &occurrences);

} // namespace apex::mining

#endif // APEX_MINING_MIS_H_
