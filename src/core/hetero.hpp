#ifndef APEX_CORE_HETERO_H_
#define APEX_CORE_HETERO_H_

#include <string>
#include <vector>

#include "core/evaluate.hpp"

/**
 * @file
 * Heterogeneous-CGRA extension.
 *
 * The paper's CGRAs are homogeneous ("within one CGRA all PE tiles
 * are identical") and its related-work section contrasts with REVAMP,
 * which realizes heterogeneous fabrics.  This module implements that
 * natural extension on top of the APEX flow: several PE variants
 * coexist in one fabric (PE tile pools interleaved by type), a
 * combined rewrite-rule library lets instruction selection choose the
 * cheapest PE that executes each pattern, and evaluation accounts
 * area/energy per tile type.
 *
 * Evaluation levels: post-mapping and post-PnR (pipelining a
 * heterogeneous fabric would need per-type latency balancing and is
 * out of scope — documented in DESIGN.md).
 */

namespace apex::core {

/** A heterogeneous CGRA: one PE variant per tile type. */
struct HeteroCgra {
    std::string name;
    std::vector<PeVariant> types; ///< PE variant per tile type.
};

/** Evaluation record for a heterogeneous fabric. */
struct HeteroEvalResult {
    bool success = false;
    Status status; ///< Typed outcome (non-ok exactly when failed).

    std::vector<int> pe_count_by_type; ///< PE instances per type.
    int pe_count = 0;                  ///< Total PE instances.
    double pe_area = 0.0;              ///< Sum over typed instances.
    double pe_energy = 0.0;            ///< pJ per output item.

    // Post-PnR (zero when level == kPostMapping).
    int fabric_width = 0;
    int fabric_height = 0;
    double cgra_area = 0.0;
    double cgra_energy = 0.0;
    cgra::Utilization util;
};

/**
 * Map and evaluate @p app on the heterogeneous fabric.
 *
 * @param level  kPostMapping or kPostPnr.
 */
HeteroEvalResult evaluateHetero(const apps::AppInfo &app,
                                const HeteroCgra &cgra,
                                EvalLevel level,
                                const model::TechModel &tech,
                                const EvalOptions &options = {});

/**
 * Convenience constructor for the canonical two-type fabric: a
 * domain-specialized PE plus a minimal scalar PE (adder/logic only)
 * that absorbs the cheap single-op work.
 */
HeteroCgra makeBigLittleCgra(const PeVariant &big,
                             const std::string &name);

} // namespace apex::core

#endif // APEX_CORE_HETERO_H_
