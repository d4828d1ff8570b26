/**
 * Fig. 13: domain generalization — the baseline PE vs PE IP on three
 * applications *not* analyzed when PE IP was generated (Laplacian
 * pyramid, stereo, FAST corner).
 * Paper shape: PE IP still wins clearly (-12%..-25% area,
 * -66%..-78% energy), showing domain rather than per-app
 * specialization.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 13: unseen applications on PE IP");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ip =
        bench::domainPe(ex, apps::ipApps(), "pe_ip");

    std::printf("  %-10s %-8s %6s %14s %14s\n", "app", "variant",
                "#PE", "area(um2)", "energy(pJ/px)");
    for (const apps::AppInfo &app : apps::unseenApps()) {
        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostMapping, tech);
        const auto ri = bench::evalOrWarn(
            app, pe_ip, core::EvalLevel::kPostMapping, tech);
        if (!rb.success || !ri.success)
            continue;
        std::printf("  %-10s %-8s %6d %14.0f %14.2f\n",
                    app.name.c_str(), "base", rb.pe_count,
                    rb.pe_area, rb.pe_energy);
        std::printf("  %-10s %-8s %6d %14.0f %14.2f   "
                    "(area %+.1f%%, energy %+.1f%%)\n",
                    app.name.c_str(), "pe_ip", ri.pe_count,
                    ri.pe_area, ri.pe_energy,
                    bench::pct(ri.pe_area, rb.pe_area),
                    bench::pct(ri.pe_energy, rb.pe_energy));
    }
    bench::note("paper: -12%..-25% area, -66%..-78% energy on "
                "unseen apps");
    return 0;
}
