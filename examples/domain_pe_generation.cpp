/**
 * Domain PE generation (Sec. 5.2): build PE IP from the four image-
 * processing applications, then show that it generalizes — it also
 * accelerates three applications that were never analyzed (Laplacian
 * pyramid, stereo, FAST corner).
 *
 * Run:  ./build/examples/domain_pe_generation
 */
#include <cstdio>

#include "core/evaluate.hpp"
#include "pe/spec.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    const auto ip_apps = apps::ipApps();
    std::printf("Generating PE IP from:");
    for (const auto &a : ip_apps)
        std::printf(" %s", a.name.c_str());
    std::printf("\n\n");

    const core::PeVariant pe_ip =
        ex.domainVariant(ip_apps, 1, "pe_ip").value();
    std::printf("%s\n", pe::describe(pe_ip.spec, tech).c_str());

    const core::PeVariant base = ex.baselineVariant();

    auto show = [&](const apps::AppInfo &app, bool unseen) {
        const auto rb = core::evaluate(
            app, base, core::EvalLevel::kPostMapping, tech);
        const auto ri = core::evaluate(
            app, pe_ip, core::EvalLevel::kPostMapping, tech);
        if (!rb.success || !ri.success) {
            std::printf("  %-10s FAILED (%s)\n", app.name.c_str(),
                        (rb.success ? ri.status : rb.status)
                            .toString()
                            .c_str());
            return;
        }
        std::printf("  %-10s%s base: %3d PEs %8.0f um^2 %7.2f pJ | "
                    "pe_ip: %3d PEs %8.0f um^2 %7.2f pJ "
                    "(area %+.0f%%, energy %+.0f%%)\n",
                    app.name.c_str(), unseen ? "*" : " ",
                    rb.pe_count, rb.pe_area, rb.pe_energy,
                    ri.pe_count, ri.pe_area, ri.pe_energy,
                    100.0 * (ri.pe_area - rb.pe_area) / rb.pe_area,
                    100.0 * (ri.pe_energy - rb.pe_energy) /
                        rb.pe_energy);
    };

    std::printf("Analyzed applications:\n");
    for (const auto &app : ip_apps)
        show(app, false);
    std::printf("\nUnseen applications (*never analyzed — Fig. 13):\n");
    for (const auto &app : apps::unseenApps())
        show(app, true);

    std::printf("\nPE IP is *domain*-specialized, not application-"
                "specialized: the unseen applications still map with "
                "fewer, cheaper PEs than the general-purpose "
                "baseline.\n");
    return 0;
}
