/**
 * Camera-pipeline design-space exploration (the Sec. 5.1 study as a
 * library user would run it): generate PE Base, PE 1, PE 2..4 and
 * PE Spec for the camera pipeline, evaluate each at all three levels,
 * and print the exploration table.
 *
 * Run:  ./build/examples/camera_pipeline_dse
 */
#include <cstdio>

#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "cgra/visualize.hpp"
#include "core/evaluate.hpp"
#include "mapper/report.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;
    const auto app = apps::cameraPipeline();

    std::printf("Analyzing %s (%zu compute ops, %d px/cycle)...\n",
                app.name.c_str(), app.graph.computeNodes().size(),
                app.items_per_cycle);
    const auto patterns = ex.analyze(app.graph).value();
    std::printf("  %zu mergeable frequent subgraphs", patterns.size());
    if (!patterns.empty()) {
        std::printf("; best: %d nodes with MIS %d",
                    patterns[0].core_size, patterns[0].mis_size);
    }
    std::printf("\n\n");

    std::vector<core::PeVariant> variants;
    variants.push_back(ex.baselineVariant());
    variants.push_back(ex.subsetVariant(app));
    for (int k = 1; k <= ex.options().max_merged_subgraphs; ++k)
        variants.push_back(ex.specializedVariant(app, k).value());
    variants.push_back(
        core::bestSpecializedVariant(app, ex, tech).value());

    std::printf("%-18s %6s %10s %12s %12s %12s %10s\n", "variant",
                "#PE", "PEum2/PE", "PE area", "CGRA area",
                "CGRA pJ/px", "f/ms/mm2");
    for (const auto &v : variants) {
        const auto r = core::evaluate(
            app, v, core::EvalLevel::kPostPipelining, tech);
        if (!r.success) {
            std::printf("%-18s  FAILED: %s\n", v.name.c_str(),
                        r.status.toString().c_str());
            continue;
        }
        std::printf("%-18s %6d %10.1f %12.0f %12.0f %12.2f %10.3f\n",
                    v.name.c_str(), r.pe_count,
                    r.pe_area / r.pe_count, r.pe_area, r.cgra_area,
                    r.cgra_energy, r.frames_per_ms_mm2);
    }

    std::printf("\nEach row is a full flow: mining -> merging -> PE "
                "generation -> rewrite-rule synthesis -> mapping -> "
                "PE/app pipelining -> place & route -> evaluation.\n");

    // Deep dive on the chosen PE Spec: compiler report + floorplan.
    const core::PeVariant spec_variant = variants.back();
    mapper::RewriteRuleSynthesizer synth(spec_variant.spec);
    mapper::InstructionSelector selector(
        synth.synthesizeLibrary(spec_variant.patterns));
    const auto sel = selector.map(app.graph);
    if (sel.success) {
        std::printf("\n%s",
                    mapper::mappingReport(sel, selector.rules())
                        .c_str());
        const cgra::Fabric fabric(32, 16);
        const auto placement = cgra::place(fabric, sel.mapped);
        if (placement.success) {
            const auto routing = cgra::route(fabric, placement);
            if (routing.success) {
                std::printf("\n%s",
                            cgra::visualize(fabric, sel.mapped,
                                            placement, routing)
                                .c_str());
            }
        }
    }
    return 0;
}
