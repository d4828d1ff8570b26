/**
 * Fig. 18: ML applications (ResNet / MobileNet layer) on an FPGA,
 * the baseline CGRA, CGRA-ML, and the Simba accelerator (analytical
 * comparator anchored at ~16x below CGRA-ML on ResNet; Sec. 5.4.2).
 * Paper shape: CGRA-ML ~14x less energy than the FPGA on ResNet and
 * approaches (within ~16x of) Simba while staying configurable.
 */
#include "bench/common.hpp"
#include "model/comparators.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    bench::header("Fig. 18: ML apps — FPGA / CGRA / CGRA-ML / Simba");
    const core::PeVariant base = ex.baselineVariant();
    const core::PeVariant pe_ml =
        bench::domainPe(ex, apps::mlApps(), "pe_ml");

    std::printf("  %-10s %-10s %14s %14s\n", "app", "platform",
                "energy(uJ)", "runtime(ms)");

    for (const apps::AppInfo &app : apps::mlApps()) {
        const auto rb = bench::evalOrWarn(
            app, base, core::EvalLevel::kPostPipelining, tech);
        const auto rm = bench::evalOrWarn(
            app, pe_ml, core::EvalLevel::kPostPipelining, tech);
        if (!rb.success || !rm.success)
            continue;

        const auto fpga =
            model::fpgaEstimate(rb.op_events, rb.runtime_ms);
        const auto simba = model::simbaEstimate(
            rm.total_energy_uj, rm.runtime_ms);

        std::printf("  %-10s %-10s %14.2f %14.3f\n",
                    app.name.c_str(), "fpga", fpga.energy_uj,
                    fpga.runtime_ms);
        std::printf("  %-10s %-10s %14.2f %14.3f\n",
                    app.name.c_str(), "cgra-base",
                    rb.total_energy_uj, rb.runtime_ms);
        std::printf("  %-10s %-10s %14.2f %14.3f\n",
                    app.name.c_str(), "cgra-ml",
                    rm.total_energy_uj, rm.runtime_ms);
        std::printf("  %-10s %-10s %14.2f %14.3f\n",
                    app.name.c_str(), "simba", simba.energy_uj,
                    simba.runtime_ms);
        std::printf("  %-10s ratios: fpga/cgra-ml=%.1fx, "
                    "cgra-ml/simba=%.1fx\n",
                    app.name.c_str(),
                    fpga.energy_uj / rm.total_energy_uj,
                    rm.total_energy_uj / simba.energy_uj);
    }
    bench::note("paper: CGRA-ML 14x below FPGA on ResNet; Simba 16x "
                "below CGRA-ML");
    return 0;
}
