/**
 * Fig. 11: total PE-core area and energy as the PE is increasingly
 * specialized for the camera pipeline (PE Base, PE 1 .. PE 4).
 * Paper shape: monotone-ish decrease, up to 78% area and 68% energy
 * below the baseline at PE 4 (= PE Spec).
 */
#include "bench/common.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;
    const auto app = apps::cameraPipeline();

    bench::header(
        "Fig. 11: specializing the PE for camera pipeline");
    std::printf("  %-10s %6s %14s %16s %14s\n", "variant", "#PE",
                "area/PE(um2)", "total area(um2)",
                "energy(pJ/px)");

    struct Row {
        std::string label;
        core::PeVariant variant;
    };
    std::vector<Row> rows;
    rows.push_back({"PE Base", ex.baselineVariant()});
    rows.push_back({"PE 1", ex.subsetVariant(app)});
    const core::AppAnalysis analysis = ex.analyze(app).value();
    for (int k = 1; k <= 3; ++k) {
        rows.push_back({"PE " + std::to_string(k + 1),
                        ex.specializedVariant(analysis, k).value()});
    }

    double base_area = 0.0, base_energy = 0.0;
    double last_area = 0.0, last_energy = 0.0;
    for (const Row &row : rows) {
        const auto r = bench::evalOrWarn(
            app, row.variant, core::EvalLevel::kPostMapping, tech);
        if (!r.success)
            continue;
        std::printf("  %-10s %6d %14.2f %16.0f %14.2f\n",
                    row.label.c_str(), r.pe_count,
                    r.pe_area / r.pe_count, r.pe_area, r.pe_energy);
        if (row.label == "PE Base") {
            base_area = r.pe_area;
            base_energy = r.pe_energy;
        }
        last_area = r.pe_area;
        last_energy = r.pe_energy;
    }

    std::printf("\n  most specialized vs baseline: area %+.1f%%, "
                "energy %+.1f%%\n",
                bench::pct(last_area, base_area),
                bench::pct(last_energy, base_energy));
    bench::note("paper: up to -78% area, -68% energy (Sec. 5.1)");
    return 0;
}
