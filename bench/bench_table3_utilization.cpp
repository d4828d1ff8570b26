/**
 * Table 3: post-pipelining CGRA resource utilization per application
 * and PE variant: #PE, #MEM, #RF (register-file FIFO slots), #IO,
 * #Reg (interconnect pipeline registers), and routing-only tiles.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Table 3: post-pipelining resource utilization");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();
    const core::PeVariant pe_ml =
        ex.domainVariant(apps::mlApps(), 1, "pe_ml").value();

    std::printf("  %-10s %-8s %6s %6s %6s %6s %6s %14s\n", "app",
                "variant", "#PE", "#MEM", "#RF", "#IO", "#Reg",
                "#RoutingTiles");

    auto report = [&](const apps::AppInfo &app,
                      const core::PeVariant &v, const char *label) {
        const auto r = bench::evalOrWarn(
            app, v, core::EvalLevel::kPostPipelining, tech);
        if (!r.success)
            return;
        std::printf("  %-10s %-8s %6d %6d %6d %6d %6d %14d\n",
                    app.name.c_str(), label, r.util.pes,
                    r.util.mems, r.util.rf_entries, r.util.ios,
                    r.util.regs, r.util.routing_tiles);
    };

    for (const apps::AppInfo &app : apps::analyzedApps()) {
        const bool is_ip =
            app.domain == apps::Domain::kImageProcessing;
        report(app, base, "base");
        report(app, is_ip ? pe_ip : pe_ml,
               is_ip ? "pe_ip" : "pe_ml");
        report(app,
               core::bestSpecializedVariant(app, ex, tech).value(),
               "spec");
    }
    bench::note("paper (Table 3): e.g. camera 232 PEs baseline -> "
                "196 (PE IP) -> 152 (PE Spec); unsharp uses 180 RF "
                "entries");
    return 0;
}
