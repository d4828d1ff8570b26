/**
 * Fig. 12: three PE-IP variants with different degrees of domain
 * merging, evaluated on the four image-processing applications.
 *  - PE IP  : one top subgraph per application;
 *  - PE IP2 : two top subgraphs per application (over-merged);
 *  - PE IP3 : unbalanced — camera contributes three subgraphs, the
 *             others one.
 * Paper shape: PE IP2 can be *worse* than PE IP (over-merging);
 * PE IP3 helps camera but hurts the other applications.
 */
#include <set>

#include "bench/common.hpp"
#include "merging/merge.hpp"
#include "pe/baseline.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;
    const auto ip_apps = apps::ipApps();

    bench::header("Fig. 12: degree of domain merging (PE IP/IP2/IP3)");

    const core::PeVariant pe_ip =
        ex.domainVariant(ip_apps, 1, "pe_ip").value();
    const core::PeVariant pe_ip2 =
        ex.domainVariant(ip_apps, 2, "pe_ip2").value();

    // Unbalanced variant: camera's top-3 plus one from each other.
    core::PeVariant pe_ip3;
    {
        std::vector<apps::AppInfo> weighted;
        weighted.push_back(apps::cameraPipeline());
        core::PeVariant camera_heavy = ex.domainVariant(
            ip_apps, 1, "pe_ip3").value();
        // Rebuild with camera's extra patterns folded in.
        const auto extra = ex.specializedVariant(
            apps::cameraPipeline(), 3).value();
        std::vector<ir::Graph> patterns = camera_heavy.patterns;
        for (const auto &p : extra.patterns)
            patterns.push_back(p);
        pe_ip3 = camera_heavy;
        pe_ip3.patterns = patterns;
        std::set<ir::Op> ops;
        for (const auto &a : ip_apps) {
            const auto o = pe::opsUsedBy(a.graph);
            ops.insert(o.begin(), o.end());
        }
        const pe::PeSpec seed = pe::baselineSubsetPe(ops, "pe_ip3");
        const auto mm = merging::mergeIntoDatapath(
            seed.dp, patterns, tech, nullptr);
        pe_ip3.spec = pe::makePeSpec(mm.merged, "pe_ip3");
    }

    std::printf("  PE area: ip=%.0f ip2=%.0f ip3=%.0f um^2\n",
                pe_ip.spec.area(tech), pe_ip2.spec.area(tech),
                pe_ip3.spec.area(tech));
    std::printf("\n  %-10s %-8s %6s %14s %14s\n", "app", "variant",
                "#PE", "area(um2)", "energy(pJ/px)");

    for (const apps::AppInfo &app : ip_apps) {
        for (const core::PeVariant *v :
             {&pe_ip, &pe_ip2,
              const_cast<const core::PeVariant *>(&pe_ip3)}) {
            const auto r = bench::evalOrWarn(
                app, *v, core::EvalLevel::kPostMapping, tech);
            if (!r.success)
                continue;
            std::printf("  %-10s %-8s %6d %14.0f %14.2f\n",
                        app.name.c_str(), v->name.c_str(),
                        r.pe_count, r.pe_area, r.pe_energy);
        }
    }
    bench::note("paper: merging too many subgraphs (IP2) can raise "
                "area/energy; unbalanced IP3 rewards camera only");
    return 0;
}
