#ifndef APEX_CORE_EXPLORER_H_
#define APEX_CORE_EXPLORER_H_

#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/status.hpp"
#include "merging/merge.hpp"
#include "mining/miner.hpp"
#include "model/tech.hpp"
#include "pe/spec.hpp"

/**
 * @file
 * The APEX design-space-exploration driver (Fig. 6): application
 * frequent-subgraph analysis, PE-variant generation by subgraph
 * merging, and the paper's Sec. 5 variant recipe:
 *
 *  - PE Base : the Fig. 1 general-purpose PE;
 *  - PE 1    : PE Base restricted to the ops the application uses;
 *  - PE k    : PE 1 merged with the top k-1 mined subgraphs in MIS
 *              order;
 *  - PE IP / PE ML : PE 1 over the op-union of a domain's apps,
 *              merged with top subgraphs from every app;
 *  - PE Spec : the most specialized per-application variant.
 *
 * Each application is analyzed once (analyze()); every merged
 * variant is a pure function of analyses, built from prefixes of
 * their ranked pattern lists, so no variant builder mines.
 */

namespace apex::core {

/** A candidate PE design produced by the explorer. */
struct PeVariant {
    std::string name;
    pe::PeSpec spec;
    /** The merged subgraphs — fed to rewrite-rule synthesis so the
     * compiler can exploit the specialized datapath. */
    std::vector<ir::Graph> patterns;
    /** Clique searches during construction that stopped before
     * optimality (node budget or deadline): the variant is correct
     * but may waste area, so sweeps surface it as a warning instead
     * of letting it pass silently. */
    int non_optimal_merges = 0;
    /** Of those, searches cut short by the merge deadline. */
    int merge_timeouts = 0;
    /** Mining levels whose pattern frontier hit the miner's
     * max_patterns_per_level safety valve in the analyses this
     * variant was built from (summed over apps for domain variants).
     * Non-zero means candidate patterns were silently dropped — the
     * variant is valid but may have missed a better subgraph, so
     * sweeps surface it as a warning (same policy as
     * non_optimal_merges). */
    int mine_capped_levels = 0;
};

/** Exploration knobs. */
struct ExplorerOptions {
    /** Mining knobs.  miner.pool is the explorer's one worker pool:
     * mining's per-level candidate expansion and the per-app fan-out
     * of analyze(apps) both run on it. */
    mining::MinerOptions miner{.min_support = 3,
                               .max_pattern_nodes = 4,
                               .mine_constants = true,
                               .max_patterns_per_level = 256};
    /** Patterns must re-occur at least this often without overlap. */
    int min_mis = 2;
    /** Knobs (clique budget, deadline) for every datapath merge the
     * explorer performs while building variants. */
    merging::MergeOptions merge;
    /** Maximum subgraphs merged into the most specialized PE. */
    int max_merged_subgraphs = 3;
};

/** One application's frequent-subgraph analysis (Sec. 3): everything
 * its merged PE variants are built from. */
struct AppAnalysis {
    std::string app;
    /** The compute ops the application uses: PE 1's op set. */
    std::set<ir::Op> ops;
    /** Mergeable patterns with MIS >= min_mis, in MIS order; PE (1+k)
     * merges the first k. */
    std::vector<mining::MinedPattern> patterns;
    /** Mining levels whose frontier hit max_patterns_per_level. */
    int mine_capped_levels = 0;
};

/** APEX explorer: analysis + PE-variant generation. */
class Explorer {
  public:
    explicit Explorer(const model::TechModel &tech =
                          model::defaultTech(),
                      ExplorerOptions options = {})
        : tech_(tech), options_(options) {}

    /**
     * Frequent-subgraph analysis of one application (Sec. 3): mining,
     * MIS analysis, ranking.  Only single-sink patterns with >= 2
     * compute nodes and MIS >= min_mis survive — those are the PE
     * candidates.  Mining failures (including injected faults and
     * unexpected exceptions) come back as kMiningFailed.
     */
    Result<AppAnalysis> analyze(const apps::AppInfo &app) const;

    /**
     * The analyses of @p apps, in order, fanned out over miner.pool
     * (a plain in-order loop without one).  The first failure in app
     * order is returned, naming its application.
     */
    Result<std::vector<AppAnalysis>>
    analyze(const std::vector<apps::AppInfo> &apps) const;

    /** PE Base. */
    PeVariant baselineVariant() const;

    /** PE 1 for @p app. */
    PeVariant subsetVariant(const apps::AppInfo &app) const;

    /**
     * PE (1+k) of the analyzed app: PE 1 merged with its top @p k
     * subgraphs.  k = 0 degenerates to PE 1.  A merge failure comes
     * back typed (kMergeInfeasible).
     */
    Result<PeVariant> specializedVariant(const AppAnalysis &analysis,
                                         int k) const;

    /**
     * Domain PE: the subset PE over the op-union of @p analyses,
     * merged with the top @p per_app subgraphs of every application.
     */
    Result<PeVariant>
    domainVariant(const std::vector<AppAnalysis> &analyses,
                  int per_app, const std::string &name) const;

    const model::TechModel &tech() const { return tech_; }
    const ExplorerOptions &options() const { return options_; }

  private:
    /** The subset PE over @p ops merged with @p patterns. */
    Result<PeVariant> mergedVariant(std::string name,
                                    const std::set<ir::Op> &ops,
                                    std::vector<ir::Graph> patterns,
                                    int mine_capped_levels) const;

    const model::TechModel &tech_;
    ExplorerOptions options_;
};

} // namespace apex::core

#endif // APEX_CORE_EXPLORER_H_
