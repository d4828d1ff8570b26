/**
 * Extension: heterogeneous CGRAs (the paper evaluates homogeneous
 * fabrics only; REVAMP-style heterogeneity is the natural follow-up).
 * Compare, per application: the homogeneous baseline CGRA, the
 * homogeneous domain CGRA, and a big.LITTLE fabric that pairs the
 * domain PE with a minimal scalar PE absorbing the single-op work.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Extension: heterogeneous (big.LITTLE) CGRA");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();
    const core::PeVariant pe_ml =
        ex.domainVariant(apps::mlApps(), 1, "pe_ml").value();

    std::printf("  %-10s %-12s %10s %14s %14s\n", "app", "fabric",
                "#PE(b+l)", "PE area(um2)", "PE pJ/item");

    for (const apps::AppInfo &app : apps::analyzedApps()) {
        const bool is_ip =
            app.domain == apps::Domain::kImageProcessing;
        const core::PeVariant &domain = is_ip ? pe_ip : pe_ml;

        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostMapping, tech);
        const auto rd = bench::evalOrWarn(
            app, domain, core::EvalLevel::kPostMapping, tech);
        std::vector<int> by_type;
        const auto rh = core::evaluate(
            app, core::makeBigLittleCgra(domain, "biglittle"),
            core::EvalLevel::kPostMapping, tech, {}, &by_type);
        if (!rb.success || !rd.success)
            continue;
        if (!rh.success) {
            std::printf("  %-10s hetero FAILED: %s\n",
                        app.name.c_str(),
                        rh.status.toString().c_str());
            continue;
        }
        std::printf("  %-10s %-12s %10d %14.0f %14.2f\n",
                    app.name.c_str(), "homog-base", rb.pe_count,
                    rb.pe_area, rb.pe_energy);
        std::printf("  %-10s %-12s %10d %14.0f %14.2f\n",
                    app.name.c_str(), "homog-dom", rd.pe_count,
                    rd.pe_area, rd.pe_energy);
        std::printf("  %-10s %-12s %6d+%-3d %14.0f %14.2f   "
                    "(area %+.1f%% vs homog-dom)\n",
                    app.name.c_str(), "big.LITTLE", by_type[0],
                    by_type[1], rh.pe_area, rh.pe_energy,
                    bench::pct(rh.pe_area, rd.pe_area));
    }
    bench::note("the little PE absorbs single-op rewrite rules at a "
                "fraction of the domain PE's area; the domain PE "
                "keeps the merged multi-op patterns");
    return 0;
}
