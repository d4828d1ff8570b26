/**
 * Fig. 17: energy and runtime of the four IP applications on an
 * FPGA, the baseline CGRA, the CGRA with PE IP, and an ASIC.
 * The FPGA/ASIC comparators are analytical models anchored to the
 * paper's ratios (see model/comparators.hpp and DESIGN.md).
 * Paper shape: CGRA-IP is 38x-159x more energy-efficient than the
 * FPGA, 18%-47% better than the baseline CGRA, and approaches the
 * ASIC; runtimes are ASIC-comparable.
 */
#include "bench/common.hpp"
#include "model/comparators.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 17: FPGA vs CGRA vs CGRA-IP vs ASIC");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();

    std::printf("  %-10s %-10s %14s %14s\n", "app", "platform",
                "energy(uJ)", "runtime(ms)");

    for (const apps::AppInfo &app : apps::ipApps()) {
        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostPipelining, tech);
        const auto ri = bench::evalOrWarn(
            app, pe_ip, core::EvalLevel::kPostPipelining, tech);
        if (!rb.success || !ri.success)
            continue;

        const auto fpga =
            model::fpgaEstimate(rb.op_events, rb.runtime_ms);
        const auto asic = model::asicEstimate(
            rb.raw_compute_energy_uj, ri.runtime_ms);

        std::printf("  %-10s %-10s %14.1f %14.3f\n",
                    app.name.c_str(), "fpga", fpga.energy_uj,
                    fpga.runtime_ms);
        std::printf("  %-10s %-10s %14.1f %14.3f\n",
                    app.name.c_str(), "cgra-base",
                    rb.total_energy_uj, rb.runtime_ms);
        std::printf("  %-10s %-10s %14.1f %14.3f\n",
                    app.name.c_str(), "cgra-ip",
                    ri.total_energy_uj, ri.runtime_ms);
        std::printf("  %-10s %-10s %14.1f %14.3f\n",
                    app.name.c_str(), "asic", asic.energy_uj,
                    asic.runtime_ms);
        std::printf("  %-10s ratios: fpga/cgra-ip=%.0fx, "
                    "cgra-ip/asic=%.1fx, base/ip=%.2fx\n",
                    app.name.c_str(),
                    fpga.energy_uj / ri.total_energy_uj,
                    ri.total_energy_uj / asic.energy_uj,
                    rb.total_energy_uj / ri.total_energy_uj);
    }
    bench::note("paper: CGRA-IP 38x-159x less energy than FPGA, "
                "18-47% less than baseline CGRA, runtime "
                "ASIC-comparable");
    return 0;
}
