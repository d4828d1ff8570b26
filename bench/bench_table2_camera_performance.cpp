/**
 * Table 2: performance of camera pipeline on a CGRA per PE variant —
 * #PEs, area/PE, total PE area, and frames/ms/mm^2 for a 1920x1080
 * frame (post-pipelining flow; the paper clocks at 1.1 ns).
 * Paper shape: 4x performance-per-area from PE Base to PE 4, driven
 * by the drop in total PE area.
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;
    const auto app = apps::cameraPipeline();

    bench::header("Table 2: camera pipeline performance per mm^2");
    std::printf("  %-10s %6s %14s %16s %12s %18s\n", "variant",
                "#PE", "area/PE(um2)", "total area(um2)",
                "period(ns)", "perf(frames/ms/mm2)");

    struct Row {
        std::string label;
        core::PeVariant variant;
    };
    std::vector<Row> rows;
    rows.push_back({"PE Base", ex.baselineVariant()});
    rows.push_back({"PE 1", ex.subsetVariant(app)});
    for (int k = 1; k <= 3; ++k) {
        rows.push_back({"PE " + std::to_string(k + 1),
                        ex.specializedVariant(app, k).value()});
    }

    double base_perf = 0.0, last_perf = 0.0;
    for (const Row &row : rows) {
        const auto r =
            bench::evalOrWarn(app, row.variant,
                              core::EvalLevel::kPostPipelining,
                              tech);
        if (!r.success)
            continue;
        // Table 2 normalizes by the *total PE area* column (the
        // interconnect is shared across variants).
        const double perf =
            1.0 / (r.runtime_ms * r.pe_area * 1e-6);
        std::printf("  %-10s %6d %14.2f %16.0f %12.2f %18.3f\n",
                    row.label.c_str(), r.pe_count,
                    r.pe_area / r.pe_count, r.pe_area, r.period_ns,
                    perf);
        if (row.label == "PE Base")
            base_perf = perf;
        last_perf = perf;
    }

    if (base_perf > 0.0) {
        std::printf("\n  perf/mm^2 gain baseline -> most "
                    "specialized: %.2fx\n",
                    last_perf / base_perf);
    }
    bench::note("paper (Table 2): 988.81 um2/PE baseline, 4.0x "
                "perf/mm2 gain from PE Base to PE 4");
    return 0;
}
