#include "core/explorer.hpp"

#include <set>

#include "core/fault.hpp"
#include "ir/signature.hpp"
#include "merging/merge.hpp"
#include "pe/baseline.hpp"

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

Explorer::Explorer(const model::TechModel &tech,
                   ExplorerOptions options)
    : tech_(tech), options_(options)
{
    // The miner inherits the explorer's pool unless the caller wired
    // a dedicated one.
    if (options_.miner.pool == nullptr)
        options_.miner.pool = options_.pool;
}

Result<std::vector<mining::MinedPattern>>
Explorer::analyze(const Graph &app, mining::MineStats *stats) const
{
    if (stats != nullptr)
        *stats = mining::MineStats{};
    if (Status fault = checkFault(FaultStage::kMine); !fault.ok())
        return std::move(fault).withContext("mining subgraphs");
    try {
        mining::FrequentSubgraphMiner miner(options_.miner);
        auto patterns = miner.mine(app, stats);
        mining::rankPatterns(patterns);
        std::erase_if(patterns, [&](const mining::MinedPattern &p) {
            return !mergeable(p) || p.mis_size < options_.min_mis;
        });
        return patterns;
    } catch (const ApexError &e) {
        return e.status().withContext("mining subgraphs");
    } catch (const std::exception &e) {
        return Status(ErrorCode::kMiningFailed,
                      std::string("mining threw: ") + e.what());
    }
}

Result<std::vector<Graph>>
Explorer::topPatterns(const Graph &app, int k,
                      mining::MineStats *stats) const
{
    auto mined = analyze(app, stats);
    if (!mined.ok())
        return mined.status();
    std::vector<Graph> result;
    for (const auto &p : mined.value()) {
        if (static_cast<int>(result.size()) >= k)
            break;
        result.push_back(p.pattern);
    }
    return result;
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
Explorer::specializedVariant(const apps::AppInfo &app, int k) const
{
    PeVariant v;
    v.name = "pe" + std::to_string(k + 1) + "_" + app.name;
    const pe::PeSpec seed =
        pe::baselineSubsetPe(pe::opsUsedBy(app.graph), v.name);
    mining::MineStats mine_stats;
    auto patterns = topPatterns(app.graph, k, &mine_stats);
    if (!patterns.ok())
        return patterns.status().withContext("building variant '" +
                                             v.name + "'");
    v.patterns = std::move(patterns).value();
    v.mine_capped_levels =
        static_cast<int>(mine_stats.capped_levels.size());
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

Result<PeVariant>
Explorer::domainVariant(const std::vector<apps::AppInfo> &domain_apps,
                        int per_app, const std::string &name) const
{
    PeVariant v;
    v.name = name;
    // Seed: the subset PE over the op-union of the domain's apps.
    std::set<Op> ops;
    for (const apps::AppInfo &app : domain_apps) {
        const auto app_ops = pe::opsUsedBy(app.graph);
        ops.insert(app_ops.begin(), app_ops.end());
    }
    const pe::PeSpec seed = pe::baselineSubsetPe(ops, name);

    // Interleave the domain's top subgraphs app by app, deduplicated
    // by canonical identity, so every application contributes its
    // most valuable pattern before any contributes a second one.
    std::vector<std::vector<Graph>> per_app_patterns(
        domain_apps.size());
    std::vector<mining::MineStats> per_app_stats(domain_apps.size());
    // Fan the per-app mining out (a plain in-order loop without a
    // pool); each iteration writes only its own slot.  The first
    // failure *in app order* is reported.
    std::vector<Status> statuses(domain_apps.size());
    runtime::parallelFor(
        options_.pool, static_cast<int>(domain_apps.size()),
        [&](int i) {
            auto patterns = topPatterns(domain_apps[i].graph, per_app,
                                        &per_app_stats[i]);
            if (patterns.ok())
                per_app_patterns[i] = std::move(patterns).value();
            else
                statuses[i] = patterns.status();
        });
    for (std::size_t i = 0; i < domain_apps.size(); ++i) {
        if (!statuses[i].ok())
            return std::move(statuses[i])
                .withContext("building domain variant '" + name +
                             "' (app '" + domain_apps[i].name + "')");
    }
    for (const mining::MineStats &s : per_app_stats)
        v.mine_capped_levels +=
            static_cast<int>(s.capped_levels.size());

    std::set<std::string> seen;
    for (int round = 0; round < per_app; ++round) {
        for (const auto &list : per_app_patterns) {
            if (round >= static_cast<int>(list.size()))
                continue;
            const std::string code =
                ir::canonicalCode(list[round]);
            if (seen.insert(code).second)
                v.patterns.push_back(list[round]);
        }
    }

    const auto mm = merging::mergeIntoDatapath(
        seed.dp, v.patterns, tech_, nullptr, options_.merge);
    if (!mm.status.ok())
        return mm.status.withContext("building domain variant '" +
                                     name + "'");
    v.non_optimal_merges = mm.non_optimal_cliques;
    v.merge_timeouts = mm.clique_timeouts;
    v.spec = pe::makePeSpec(mm.merged, name);
    return v;
}

} // namespace apex::core
