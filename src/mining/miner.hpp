#ifndef APEX_MINING_MINER_H_
#define APEX_MINING_MINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/deadline.hpp"
#include "ir/graph.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * Frequent subgraph mining over a single large dataflow graph — the
 * GRAMI substitute (Sec. 3.1 of the paper).
 *
 * Mining works on the application's *minable* nodes (compute ops and
 * constants).  Patterns grow one edge at a time, guided by the
 * occurrences of their parent pattern (only extensions that actually
 * exist in the application are generated, as in pattern-growth
 * miners).
 *
 * Grown candidates are deduplicated by the minimum DFS code of their
 * core (mining/dfs_code.hpp, Pangolin-style) and their embeddings are
 * *extended* from the parent's materialized embedding list one edge
 * at a time, so support needs no isomorphism re-matching.  The
 * full-graph matcher only runs when an embedding list overflows
 * max_embeddings (and for descendants of overflowed patterns), which
 * keeps memory bounded.  Reported frequencies are exact.  The
 * historic growth miner (tests/oracles) is the differential oracle:
 * the pattern lists must stay byte-identical to it, overflowed
 * regime included.
 *
 * Frequency of a pattern = number of *distinct node sets* over which
 * an embedding exists.  Overlap between those sets is the subject of
 * the MIS analysis (mis.hpp), not of mining itself.
 */

namespace apex::mining {

/** How pattern frequency is counted. */
enum class SupportMetric {
    /** Number of distinct occurrence node sets (intuitive count;
     * the default used throughout the evaluation). */
    kDistinctNodeSets,
    /** GRAMI's minimum-node-image support: the minimum, over pattern
     * nodes, of how many distinct target nodes that pattern node maps
     * to.  Anti-monotone, hence a sound pruning bound. */
    kMni,
};

/** Mining parameters. */
struct MinerOptions {
    int min_support = 2;       ///< Minimum frequency to keep growing.
    int max_pattern_nodes = 5; ///< Maximum core (non-placeholder) size.
    bool mine_constants = true; ///< Include kConst nodes in patterns.
    /** Safety valve: cap on unique patterns explored per level.
     * Hitting it truncates the frontier — counted per level in
     * MineStats::capped_levels (and `apex.mine.frontier_truncated`)
     * so sweeps can surface a warning instead of silently changing
     * which PE variants exist downstream. */
    int max_patterns_per_level = 512;
    SupportMetric metric = SupportMetric::kDistinctNodeSets;
    /**
     * Memory bound: embeddings materialized per pattern.  A pattern
     * whose embedding list overflows degrades to the full
     * isomorphism matcher truncated at this cap (counted in
     * MineStats::matcher_calls) instead of growing the list without
     * bound — exactly the reference miner's behavior, so the two
     * stay byte-identical even in the overflowed regime.
     */
    std::size_t max_embeddings = 20000;
    /**
     * Wall-clock bound for the whole mining run, checked at level
     * boundaries (each level multiplies the candidate count, so the
     * boundary is where runaway growth is caught).  Expiry raises
     * ApexError(kTimeout); partial pattern lists are never returned —
     * a silently truncated frontier would change which PE variants
     * exist downstream.  (The `{}` lets designated initializers omit
     * it without a -Wmissing-field-initializers warning.)
     */
    Deadline deadline{};
    /**
     * Optional worker pool.  Each level's candidate expansion
     * (growth, canonicalization, embedding search) is fanned out over
     * it and merged in a sequential replay of the frontier x
     * extension order, so the mined pattern list is byte-identical
     * for any parallelism.  Null (or parallelism <= 1) runs the same
     * code path inline.
     */
    runtime::ThreadPool *pool = nullptr;
};

/**
 * Counters of one mine() run.  Every field is deterministic for a
 * given (app, options) pair at any job count: the miner evaluates the
 * same candidate set regardless of scheduling.  The reference miner
 * fills the same struct, except that its sequential path stops
 * counting candidates/duplicates at the per-level cap where its
 * parallel path counts the whole speculative batch.  capped_levels is
 * identical across both miners, paths and job counts; the sweep's
 * truncation warning is built from it alone.
 */
struct MineStats {
    int levels = 0;             ///< Growth levels entered (level >= 2).
    long long candidates = 0;   ///< Grown candidate extensions.
    long long duplicates = 0;   ///< Killed as already-seen duplicates.
    long long patterns = 0;     ///< Frequent patterns returned.
    /** Embeddings materialized by incremental extension. */
    long long embeddings = 0;
    /** Full findEmbeddings() invocations: overflow fallbacks only
     * (the reference miner makes one per evaluated candidate). */
    long long matcher_calls = 0;
    /** Levels (1-based, matching "mining level N" deadline contexts)
     * whose frontier hit max_patterns_per_level. */
    std::vector<int> capped_levels;
};

/** One frequent pattern with its occurrences in the application. */
struct MinedPattern {
    ir::Graph pattern; ///< Materialized pattern (placeholder inputs).
    std::string code;  ///< Canonical code (unique pattern identity).
    int core_size = 0; ///< Non-placeholder node count.
    /** Distinct occurrence node sets (sorted target node ids). */
    std::vector<std::vector<ir::NodeId>> occurrences;
    int frequency = 0; ///< Under the configured SupportMetric.
    int mni_support = 0; ///< GRAMI minimum-node-image support.
    int mis_size = 0;  ///< Non-overlapping occurrences (Sec. 3.2).
};

/** Frequent-subgraph miner for one application graph. */
class FrequentSubgraphMiner {
  public:
    explicit FrequentSubgraphMiner(MinerOptions options = {})
        : options_(options) {}

    /**
     * Mine all frequent patterns of @p app up to the configured size.
     *
     * @param stats Optional run counters (see MineStats).
     * @return patterns with exact frequencies; mis_size is left 0
     * (use MisAnalysis / rankPatterns to fill and order it).
     */
    std::vector<MinedPattern> mine(const ir::Graph &app,
                                   MineStats *stats = nullptr) const;

    const MinerOptions &options() const { return options_; }

  private:
    MinerOptions options_;
};

/**
 * Compute mis_size for every pattern (Sec. 3.2) and order the list the
 * way the APEX flow consumes it: decreasing MIS size, then decreasing
 * core size, then canonical code (deterministic tie-break).
 * Single-constant patterns are dropped — they are not PEs.
 */
void rankPatterns(std::vector<MinedPattern> &patterns);

} // namespace apex::mining

#endif // APEX_MINING_MINER_H_
