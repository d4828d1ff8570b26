/**
 * Fig. 16: pre- vs post-pipelining area, energy and performance/mm^2
 * for baseline / PE IP / PE ML / PE Spec across all six analyzed
 * applications.
 * Paper shape: pipelining slashes the clock period (large perf/mm^2
 * gains, 6.9x-12.5x for PE IP) at a modest register/RF area cost;
 * performance itself is mostly unaffected by specialization.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 16: pre- vs post-pipelining");
    const core::PeVariant base = ex.baselineVariant();
    const bench::AnalyzedSet set = bench::analyzeAll(ex);

    std::printf("  %-10s %-8s %7s %12s %12s %12s %14s %8s\n", "app",
                "variant", "stage", "period(ns)", "cgraA(um2)",
                "E(pJ/item)", "perf(f/ms/mm2)", "gain");

    for (std::size_t i = 0; i < set.apps.size(); ++i) {
        const apps::AppInfo &app = set.apps[i];
        const bool is_ip =
            app.domain == apps::Domain::kImageProcessing;
        const core::PeVariant &domain = is_ip ? set.pe_ip : set.pe_ml;
        const core::PeVariant spec =
            core::bestSpecializedVariant(app, set.analyses[i], ex, tech)
                .value();

        struct Entry {
            const core::PeVariant *v;
            const char *label;
        };
        const Entry entries[] = {
            {&base, "base"},
            {&domain, is_ip ? "pe_ip" : "pe_ml"},
            {&spec, "spec"},
        };
        for (const Entry &e : entries) {
            const auto pre = bench::evalOrWarn(
                app, *e.v, core::EvalLevel::kPostPnr, tech);
            const auto post = bench::evalOrWarn(
                app, *e.v, core::EvalLevel::kPostPipelining, tech);
            if (!pre.success || !post.success)
                continue;
            // Pre-pipelining performance: same fabric, combinational
            // period.
            const double pre_runtime =
                (app.work_items_per_frame / app.items_per_cycle) *
                pre.period_ns * 1e-6;
            const double pre_perf =
                1.0 / (pre_runtime * pre.cgra_area * 1e-6);
            std::printf("  %-10s %-8s %3d->%-2d %5.2f->%-5.2f "
                        "%5.0fk->%-5.0fk %5.1f->%-5.1f %6.3f->%-6.3f "
                        "%6.2fx\n",
                        app.name.c_str(), e.label, 1,
                        std::max(post.pipeline_stages, 1),
                        pre.period_ns, post.period_ns,
                        pre.cgra_area / 1000.0,
                        post.cgra_area / 1000.0, pre.cgra_energy,
                        post.cgra_energy, pre_perf,
                        post.frames_per_ms_mm2,
                        post.frames_per_ms_mm2 / pre_perf);
        }
    }
    bench::note("paper: 6.9x-12.5x perf/mm2 gain for PE IP apps "
                "from PE+application pipelining");
    return 0;
}
