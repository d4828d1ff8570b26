/**
 * Ablation: is maximal-independent-set ranking actually the right
 * signal for picking subgraphs (Sec. 3.2's claim)?  Compare PEs built
 * from the top-2 patterns under three rankings:
 *   - MIS size (the paper's choice),
 *   - raw frequency (ignores overlap),
 *   - pattern size (biggest subgraph first).
 * Metric: post-mapping PE count / area / energy of the application.
 */
#include <algorithm>
#include <functional>

#include "bench/common.hpp"
#include "merging/merge.hpp"
#include "mining/miner.hpp"
#include "pe/baseline.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Ablation: subgraph ranking signal (Sec. 3.2)");
    std::printf("  %-10s %-10s %6s %14s %14s\n", "app", "ranking",
                "#PE", "area(um2)", "energy(pJ/it)");

    for (const auto &app :
         {apps::cameraPipeline(), apps::harrisCorner(),
          apps::mobilenetLayer()}) {
        auto patterns = ex.analyze(app.graph).value();
        if (patterns.size() < 2)
            continue;

        struct Ranking {
            const char *name;
            std::function<bool(const mining::MinedPattern &,
                               const mining::MinedPattern &)> less;
        };
        const Ranking rankings[] = {
            {"mis", [](const auto &a, const auto &b) {
                 return a.mis_size > b.mis_size;
             }},
            {"frequency", [](const auto &a, const auto &b) {
                 return a.frequency > b.frequency;
             }},
            {"size", [](const auto &a, const auto &b) {
                 return a.core_size > b.core_size;
             }},
        };

        for (const Ranking &ranking : rankings) {
            auto ordered = patterns;
            std::stable_sort(ordered.begin(), ordered.end(),
                             ranking.less);
            core::PeVariant v;
            v.name = std::string("pe_") + ranking.name;
            for (int i = 0; i < 2; ++i)
                v.patterns.push_back(ordered[i].pattern);
            const pe::PeSpec seed = pe::baselineSubsetPe(
                pe::opsUsedBy(app.graph), v.name);
            const auto mm = merging::mergeIntoDatapath(
                seed.dp, v.patterns, tech, nullptr);
            v.spec = pe::makePeSpec(mm.merged, v.name);

            const auto r = bench::evalOrWarn(
                app, v, core::EvalLevel::kPostMapping, tech);
            if (!r.success)
                continue;
            std::printf("  %-10s %-10s %6d %14.0f %14.2f\n",
                        app.name.c_str(), ranking.name, r.pe_count,
                        r.pe_area, r.pe_energy);
        }
    }
    bench::note("expected: MIS-ranked subgraphs give the fewest PEs "
                "for the area spent — overlapping occurrences "
                "(counted by raw frequency) cannot all be "
                "accelerated");
    return 0;
}
