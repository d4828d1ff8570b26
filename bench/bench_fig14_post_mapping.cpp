/**
 * Fig. 14: post-mapping PE-only area and energy of the baseline PE,
 * PE IP (image processing), PE ML (machine learning), and PE Spec
 * (per-application), across all six analyzed applications.
 * Paper shape: PE IP -22%..-33% area on IP apps; PE Spec up to -58%;
 * PE ML -74%..-80% area on ML apps.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 14: post-mapping comparison");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();
    const core::PeVariant pe_ml =
        ex.domainVariant(apps::mlApps(), 1, "pe_ml").value();

    std::printf("  %-10s %-8s %6s %14s %14s %10s %10s\n", "app",
                "variant", "#PE", "area(um2)", "energy(pJ/it)",
                "dArea%", "dEnergy%");

    for (const apps::AppInfo &app : apps::analyzedApps()) {
        const bool is_ip =
            app.domain == apps::Domain::kImageProcessing;
        const core::PeVariant &domain = is_ip ? pe_ip : pe_ml;
        const core::PeVariant spec =
            core::bestSpecializedVariant(app, ex, tech).value();

        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostMapping, tech);
        if (!rb.success)
            continue;
        std::printf("  %-10s %-8s %6d %14.0f %14.2f %10s %10s\n",
                    app.name.c_str(), "base", rb.pe_count,
                    rb.pe_area, rb.pe_energy, "-", "-");
        for (const auto *v : {&domain, &spec}) {
            const auto r = bench::evalOrWarn(
                app, *v, core::EvalLevel::kPostMapping, tech);
            if (!r.success)
                continue;
            std::printf(
                "  %-10s %-8s %6d %14.0f %14.2f %+9.1f%% %+9.1f%%\n",
                app.name.c_str(),
                v == &spec ? "spec" : (is_ip ? "pe_ip" : "pe_ml"),
                r.pe_count, r.pe_area, r.pe_energy,
                bench::pct(r.pe_area, rb.pe_area),
                bench::pct(r.pe_energy, rb.pe_energy));
        }
    }
    bench::note("paper: PE IP -22..-33% area (IP apps), PE Spec to "
                "-58%, PE ML -74..-80% area (ML apps)");
    return 0;
}
