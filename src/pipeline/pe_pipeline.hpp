#ifndef APEX_PIPELINE_PE_PIPELINE_H_
#define APEX_PIPELINE_PE_PIPELINE_H_

#include <vector>

#include "pe/spec.hpp"

/**
 * @file
 * Automated PE pipelining (Sec. 4.2): choose the number of pipeline
 * stages for a PE by iteratively adding stages while each one still
 * yields a significant critical-path reduction, then retime the
 * registers into balanced positions (timing.hpp's stage assignment).
 */

namespace apex::pipeline {

/** Result of pipelining one PE. */
struct PePipelineResult {
    int stages = 1;              ///< Chosen stage count (1 = none).
    double period = 0.0;         ///< Achieved critical path, ns.
    double unpipelined = 0.0;    ///< Combinational critical path, ns.
    std::vector<int> stage_of;   ///< Stage per datapath node.
};

/** Pipelining knobs. */
struct PePipelineOptions {
    /** Stop adding stages when the relative critical-path reduction
     * of one more stage falls below this fraction. */
    double min_gain = 0.10;
};

/**
 * Pipeline @p spec for the technology's target period; updates
 * spec.pipeline_stages (1 stage means the PE stays combinational,
 * pipeline_stages = 0).
 */
PePipelineResult pipelinePe(pe::PeSpec &spec,
                            const model::TechModel &tech,
                            const PePipelineOptions &options = {});

} // namespace apex::pipeline

#endif // APEX_PIPELINE_PE_PIPELINE_H_
