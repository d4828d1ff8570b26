#include "pipeline/pe_pipeline.hpp"

#include "pipeline/timing.hpp"
#include "runtime/telemetry.hpp"

namespace apex::pipeline {

namespace {

/** Deepest PE pipeline considered. */
constexpr int kMaxStages = 6;

} // namespace

PePipelineResult
pipelinePe(pe::PeSpec &spec, const model::TechModel &tech,
           const PePipelineOptions &options)
{
    APEX_SPAN("pipeline.pe");
    telemetry::StageTimer timer(
        telemetry::histogram("apex.pipeline.pe.ms"));
    PePipelineResult result;
    result.unpipelined = analyzeTiming(spec, tech).critical_path;

    int stages = 1;
    double period = result.unpipelined;
    std::vector<int> stage_of;
    assignStages(spec, tech, 1, &stage_of);

    // Iteratively add stages while (a) the target period is not met
    // and (b) one more stage still buys a significant reduction —
    // the paper's critical-path model loop.
    while (stages < kMaxStages &&
           period > tech.target_period) {
        std::vector<int> next_stage_of;
        const double next_period =
            assignStages(spec, tech, stages + 1, &next_stage_of);
        const double gain = (period - next_period) / period;
        if (gain < options.min_gain)
            break;
        ++stages;
        period = next_period;
        stage_of = std::move(next_stage_of);
    }

    result.stages = stages;
    result.period = period;
    result.stage_of = std::move(stage_of);
    spec.pipeline_stages = stages > 1 ? stages : 0;
    return result;
}

} // namespace apex::pipeline
