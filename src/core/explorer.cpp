#include "core/explorer.hpp"

#include <optional>
#include <set>

#include "core/fault.hpp"
#include "ir/signature.hpp"
#include "merging/merge.hpp"
#include "pe/baseline.hpp"
#include "runtime/thread_pool.hpp"

namespace apex::core {

using ir::Graph;
using ir::NodeId;
using ir::Op;

namespace {

/** Is this mined pattern a viable PE building block?  It must have a
 * unique sink (one PE output), at least two compute nodes (otherwise
 * the base ALU already covers it), and no structural ops. */
bool
mergeable(const mining::MinedPattern &p)
{
    int sinks = 0;
    int compute = 0;
    std::vector<bool> has_consumer(p.pattern.size(), false);
    for (const ir::Edge &e : p.pattern.edges())
        has_consumer[e.src] = true;
    for (NodeId id = 0; id < p.pattern.size(); ++id) {
        const Op op = p.pattern.op(id);
        if (ir::opIsCompute(op)) {
            ++compute;
            if (!has_consumer[id])
                ++sinks;
        }
    }
    return sinks == 1 && compute >= 2;
}

} // namespace

Result<AppAnalysis>
Explorer::analyze(const apps::AppInfo &app) const
{
    if (Status fault = checkFault(FaultStage::kMine); !fault.ok())
        return std::move(fault).withContext("mining subgraphs");
    try {
        AppAnalysis a;
        a.app = app.name;
        a.ops = pe::opsUsedBy(app.graph);
        mining::MineStats stats;
        mining::FrequentSubgraphMiner miner(options_.miner);
        a.patterns = miner.mine(app.graph, &stats);
        a.mine_capped_levels =
            static_cast<int>(stats.capped_levels.size());
        mining::rankPatterns(a.patterns);
        std::erase_if(a.patterns, [&](const mining::MinedPattern &p) {
            return !mergeable(p) || p.mis_size < options_.min_mis;
        });
        return a;
    } catch (const ApexError &e) {
        return e.status().withContext("mining subgraphs");
    } catch (const std::exception &e) {
        return Status(ErrorCode::kMiningFailed,
                      std::string("mining threw: ") + e.what());
    }
}

Result<std::vector<AppAnalysis>>
Explorer::analyze(const std::vector<apps::AppInfo> &apps) const
{
    // Each iteration writes only its own slot.
    std::vector<std::optional<Result<AppAnalysis>>> slots(apps.size());
    runtime::parallelFor(options_.miner.pool,
                         static_cast<int>(apps.size()),
                         [&](int i) { slots[i] = analyze(apps[i]); });
    std::vector<AppAnalysis> analyses;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        if (!slots[i]->ok())
            return slots[i]->status().withContext(
                "analyzing application '" + apps[i].name + "'");
        analyses.push_back(std::move(*slots[i]).value());
    }
    return analyses;
}

PeVariant
Explorer::baselineVariant() const
{
    PeVariant v;
    v.name = "pe_base";
    v.spec = pe::baselinePe();
    return v;
}

PeVariant
Explorer::subsetVariant(const apps::AppInfo &app) const
{
    PeVariant v;
    v.name = "pe1_" + app.name;
    v.spec = pe::baselineSubsetPe(pe::opsUsedBy(app.graph), v.name);
    return v;
}

Result<PeVariant>
Explorer::specializedVariant(const AppAnalysis &analysis, int k) const
{
    std::vector<Graph> patterns;
    for (const mining::MinedPattern &p : analysis.patterns) {
        if (static_cast<int>(patterns.size()) >= k)
            break;
        patterns.push_back(p.pattern);
    }
    return mergedVariant("pe" + std::to_string(k + 1) + "_" +
                             analysis.app,
                         analysis.ops, std::move(patterns),
                         analysis.mine_capped_levels);
}

Result<PeVariant>
Explorer::domainVariant(const std::vector<AppAnalysis> &analyses,
                        int per_app, const std::string &name) const
{
    // Seed: the subset PE over the op-union of the domain's apps.
    std::set<Op> ops;
    int capped_levels = 0;
    for (const AppAnalysis &a : analyses) {
        ops.insert(a.ops.begin(), a.ops.end());
        capped_levels += a.mine_capped_levels;
    }
    // Interleave the domain's top subgraphs app by app, deduplicated
    // by canonical identity, so every application contributes its
    // most valuable pattern before any contributes a second one.
    std::vector<Graph> patterns;
    std::set<std::string> seen;
    for (int round = 0; round < per_app; ++round) {
        for (const AppAnalysis &a : analyses) {
            if (round >= static_cast<int>(a.patterns.size()))
                continue;
            const Graph &pattern = a.patterns[round].pattern;
            if (seen.insert(ir::canonicalCode(pattern)).second)
                patterns.push_back(pattern);
        }
    }
    return mergedVariant(name, ops, std::move(patterns),
                         capped_levels);
}

Result<PeVariant>
Explorer::mergedVariant(std::string name, const std::set<Op> &ops,
                        std::vector<Graph> patterns,
                        int mine_capped_levels) const
{
    PeVariant v;
    v.name = std::move(name);
    v.patterns = std::move(patterns);
    v.mine_capped_levels = mine_capped_levels;
    const pe::PeSpec seed = pe::baselineSubsetPe(ops, v.name);
    const auto mm = merging::mergeIntoDatapath(
        seed.dp, v.patterns, tech_, nullptr, options_.merge);
    if (!mm.status.ok())
        return mm.status.withContext("building variant '" + v.name +
                                     "'");
    v.non_optimal_merges = mm.non_optimal_cliques;
    v.merge_timeouts = mm.clique_timeouts;
    v.spec = pe::makePeSpec(mm.merged, v.name,
                            seed.has_register_file);
    return v;
}

} // namespace apex::core
