#ifndef APEX_MERGING_MERGE_H_
#define APEX_MERGING_MERGE_H_

#include <cstdint>
#include <vector>

#include "core/deadline.hpp"
#include "core/status.hpp"
#include "merging/datapath.hpp"
#include "model/tech.hpp"

/**
 * @file
 * Datapath graph merging (Sec. 3.3, after Moreano et al.).
 *
 * Given two datapaths, enumerate every *merge opportunity*:
 *  - node/node: same resource kind and hardware block class (or two
 *    inputs of the same value type, or two constant registers);
 *  - edge/edge: endpoints mergeable and same destination port (the
 *    port condition keeps non-commutative operand order intact).
 *
 * Opportunities become vertices of a *compatibility graph* weighted by
 * the area each merge saves (block area for node merges, one
 * multiplexer input for edge merges).  Two vertices are compatible
 * when their implied node pairings are mutually injective.  The
 * maximum-weight clique of that graph is the cheapest merge; the
 * merged datapath is reconstructed from it, with multiplexers
 * appearing wherever a port ends up with several sources.
 */

namespace apex::merging {

/** Knobs for the merge. */
struct MergeOptions {
    /** Branch-and-bound node budget for the clique search. */
    std::int64_t clique_budget = 2'000'000;
    /** Wall-clock bound for the whole merge.  Each clique search runs
     * under it, and a multi-pattern fold stops early (keeping the
     * datapath merged so far) once it expires. */
    Deadline deadline;
};

/** Outcome of merging datapaths A and B. */
struct MergeResult {
    Datapath merged;
    std::vector<int> a_to_merged; ///< A node id -> merged node id.
    std::vector<int> b_to_merged; ///< B node id -> merged node id.
    double saved_area = 0.0;      ///< Clique weight (um^2 saved).
    bool clique_optimal = true;   ///< Clique search ran to optimality.
    bool clique_timed_out = false; ///< Deadline cut the clique search.
};

/** Merge two datapaths with minimal area overhead. */
MergeResult mergeDatapaths(const Datapath &a, const Datapath &b,
                           const model::TechModel &tech,
                           const MergeOptions &options = {});

/** Outcome of folding several patterns into one datapath. */
struct MultiMergeResult {
    Datapath merged;
    /** pattern_maps[i][pattern node id] == merged datapath node id.
     * Skipped (invalid) patterns keep an empty entry so indices stay
     * aligned with the input pattern list. */
    std::vector<std::vector<int>> pattern_maps;
    double saved_area = 0.0;
    /** Indices of patterns rejected by ir::validate and left out of
     * the merged datapath.  A partial merge is still usable; the
     * skips are surfaced so callers can report them. */
    std::vector<int> skipped_patterns;
    /** Clique searches that stopped before optimality (node budget or
     * deadline): the merge is valid but may waste area.  Surfaced so
     * sweeps can flag silently-suboptimal PEs. */
    int non_optimal_cliques = 0;
    /** Of those, searches cut short by the deadline specifically. */
    int clique_timeouts = 0;
    /** The merge deadline expired mid-fold: remaining patterns were
     * recorded in skipped_patterns and the datapath merged so far was
     * kept (graceful degradation, not failure). */
    bool deadline_expired = false;
    /** kMergeInfeasible when nothing could be merged (every pattern
     * invalid, or an injected fault); ok on success, including
     * partial success with some patterns skipped. */
    Status status;
};

/**
 * Fold @p patterns (mined subgraphs, placeholder-input form) into a
 * single merged datapath, left to right.
 */
MultiMergeResult mergePatterns(const std::vector<ir::Graph> &patterns,
                               const model::TechModel &tech,
                               const MergeOptions &options = {});

/**
 * Fold @p patterns into an existing @p seed datapath (e.g. an
 * ALU-style PE), returning the grown datapath; seed_map receives the
 * relocation of the seed's node ids.
 */
MultiMergeResult mergeIntoDatapath(const Datapath &seed,
                                   const std::vector<ir::Graph>
                                       &patterns,
                                   const model::TechModel &tech,
                                   std::vector<int> *seed_map = nullptr,
                                   const MergeOptions &options = {});

} // namespace apex::merging

#endif // APEX_MERGING_MERGE_H_
