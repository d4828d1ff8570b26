/**
 * Fig. 15: post-place-and-route comparison including interconnect —
 * switch-box and connection-box area/energy, memory tiles, and the
 * total CGRA footprint, for baseline / PE IP / PE ML / PE Spec.
 * Paper shape: fewer tiles => less SB area/energy everywhere; CB
 * area can *increase* for specialized PEs with more inputs (Harris);
 * ML apps -22%..-39% area, -16%..-59% energy overall.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 15: post-place-and-route comparison");
    const core::PeVariant base = ex.baselineVariant();
    const bench::AnalyzedSet set = bench::analyzeAll(ex);

    std::printf("  %-10s %-8s %10s %10s %10s %12s %12s %10s\n",
                "app", "variant", "sbA(um2)", "cbA(um2)",
                "memA(um2)", "cgraA(um2)", "cgraE(pJ/it)",
                "dE%");

    for (std::size_t i = 0; i < set.apps.size(); ++i) {
        const apps::AppInfo &app = set.apps[i];
        const bool is_ip =
            app.domain == apps::Domain::kImageProcessing;
        const core::PeVariant &domain = is_ip ? set.pe_ip : set.pe_ml;
        const core::PeVariant spec =
            core::bestSpecializedVariant(app, set.analyses[i], ex, tech)
                .value();

        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostPnr, tech);
        if (!rb.success)
            continue;
        std::printf("  %-10s %-8s %10.0f %10.0f %10.0f %12.0f "
                    "%12.2f %10s\n",
                    app.name.c_str(), "base", rb.sb_area,
                    rb.cb_area, rb.mem_area, rb.cgra_area,
                    rb.cgra_energy, "-");
        for (const auto *v : {&domain, &spec}) {
            const auto r = bench::evalOrWarn(
                app, *v, core::EvalLevel::kPostPnr, tech);
            if (!r.success)
                continue;
            std::printf("  %-10s %-8s %10.0f %10.0f %10.0f %12.0f "
                        "%12.2f %+9.1f%%\n",
                        app.name.c_str(),
                        v == &spec ? "spec"
                                   : (is_ip ? "pe_ip" : "pe_ml"),
                        r.sb_area, r.cb_area, r.mem_area,
                        r.cgra_area, r.cgra_energy,
                        bench::pct(r.cgra_energy, rb.cgra_energy));
        }
    }
    bench::note("paper: SB area/energy shrink with tile count; CB "
                "area can grow for many-input specialized PEs "
                "(Harris +44% CB area); ML: -22..-39% area, "
                "-16..-59% energy");
    return 0;
}
