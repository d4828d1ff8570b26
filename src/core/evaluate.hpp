#ifndef APEX_CORE_EVALUATE_H_
#define APEX_CORE_EVALUATE_H_

#include <optional>
#include <string>
#include <vector>

#include "cgra/metrics.hpp"
#include "core/deadline.hpp"
#include "core/explorer.hpp"
#include "core/status.hpp"
#include "runtime/cache.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * Three-level evaluation of a (application, PE variant) pair,
 * mirroring Sec. 5.3:
 *
 *  - post-mapping    : rewrite rules + instruction selection only —
 *                      PE counts, PE-core area and energy (minutes-
 *                      scale results in the paper; Fig. 11/14);
 *  - post-PnR        : placement + routing on the fabric — adds the
 *                      interconnect (SB/CB), memory tiles and
 *                      routing-tile accounting (Fig. 15);
 *  - post-pipelining : PE and application pipelining before PnR —
 *                      adds timing, runtime and performance/mm^2
 *                      (Fig. 16, Tables 2/3).
 *
 * One evaluator serves fabrics of one or more PE types.  The paper's
 * CGRAs are homogeneous ("within one CGRA all PE tiles are
 * identical"); a HeteroCgra is the REVAMP-style extension in which
 * several PE variants share one fabric (tile pools interleaved by
 * type), a combined rewrite-rule library lets instruction selection
 * pick the cheapest PE that executes each pattern, and area and
 * energy are accounted per tile type.
 */

namespace apex::core {

/** Evaluation depth. */
enum class EvalLevel {
    kPostMapping,
    kPostPnr,
    kPostPipelining,
};

/** Everything the benchmarks report. */
struct EvalResult {
    bool success = false;
    /** Typed outcome with context chain (which app/variant, after how
     * many attempts); non-ok exactly when !success. */
    Status status;
    /** Full trail of the run: every placement retry, routing-track
     * escalation and fabric growth, as info/error records. */
    Diagnostics diagnostics;
    /** Placement attempts consumed (seed retries x fabric growths). */
    int pnr_attempts = 0;
    /** The cell deadline expired and this result came from the cheap
     * fallback knobs (see runSweep): valid, but possibly on a larger
     * fabric / with fewer retries than the configured evaluation. */
    bool degraded = false;

    // --- Post-mapping --------------------------------------------
    int pe_count = 0;          ///< PE instances used.
    double pe_area = 0.0;      ///< PE core area x count (um^2).
    double pe_energy = 0.0;    ///< PE-core energy per output item, pJ.

    // --- Post-place-and-route -------------------------------------
    int fabric_width = 0;
    int fabric_height = 0;
    double sb_area = 0.0;      ///< Switch boxes (um^2).
    double cb_area = 0.0;      ///< Connection boxes (um^2).
    double mem_area = 0.0;     ///< Memory tiles (um^2).
    double cgra_area = 0.0;    ///< Total application footprint.
    double sb_energy = 0.0;    ///< pJ per output item.
    double cb_energy = 0.0;
    double mem_energy = 0.0;
    double cgra_energy = 0.0;  ///< Total pJ per output item.
    cgra::Utilization util;

    // --- Post-pipelining -------------------------------------------
    int pipeline_stages = 0;   ///< PE pipeline depth chosen.
    double period_ns = 0.0;    ///< Achieved clock period.
    double latency_cycles = 0; ///< Input->output fill latency.
    double runtime_ms = 0.0;   ///< One frame / layer.
    double perf_per_mm2 = 0.0; ///< Items per ms per mm^2 (x1e-6 for
                               ///< frames: see frames_per_ms_mm2).
    double frames_per_ms_mm2 = 0.0; ///< Frames/ms/mm^2 (Table 2).
    double total_energy_uj = 0.0;   ///< Energy for one frame, uJ.

    /** Raw functional-unit energy of the app (ASIC floor), uJ. */
    double raw_compute_energy_uj = 0.0;
    /** Word-level op events per frame (FPGA comparator input). */
    double op_events = 0.0;
};

/** Evaluation knobs. */
struct EvalOptions {
    int fabric_width = 32;
    int fabric_height = 16;
    /** Grow the fabric when the app does not fit (keeps the flow
     * usable for large unrolls). */
    bool auto_grow_fabric = true;
    /** Fabric doublings tried when auto_grow_fabric is set (1 means
     * the initial size only).  The degraded retry path lowers this. */
    int max_fabric_growths = 5;
    unsigned placer_seed = 0xCA11;
    /** Placement attempts per fabric size, each with a derived seed;
     * capacity failures skip straight to fabric growth. */
    int place_retries = 3;
    /** Routing-track escalations (+2 tracks each) tried on congestion
     * before giving up on a placement. */
    int route_track_escalations = 2;
    /**
     * Optional content-addressed memoization cache.  Successful
     * evaluations are stored under a key fingerprinting the app
     * graph, the variant (datapath, patterns, pipelining), the
     * evaluation level, the tech model and every knob above, so a
     * hit is guaranteed to reproduce the sequential result bit for
     * bit.  Failures are never cached (they are retried).  A
     * process-isolated sweep's supervisor reads and writes the same
     * entries (cachedEvaluation(), evalCacheKey()) on its workers'
     * behalf; the workers themselves run without a cache.
     */
    runtime::ArtifactCache *cache = nullptr;
    /**
     * Wall-clock bound for this evaluation, enforced through the P&R
     * ladder (growth/retry boundaries and the router's rip-up loop).
     * Expiry yields a kTimeout result.  Deliberately NOT part of the
     * cache key: a deadline only decides whether a result is computed,
     * never its value, so cached artifacts stay reusable across runs
     * with different budgets.
     */
    Deadline deadline;
};

/** A CGRA whose PE tiles come in one or more types, one variant
 * each. */
struct HeteroCgra {
    std::string name;
    std::vector<PeVariant> types; ///< PE variant per tile type.
};

/**
 * The canonical two-type fabric: @p big (a domain-specialized PE)
 * plus a minimal scalar PE (adder/shifter only) that absorbs the
 * cheap single-op work.
 */
HeteroCgra makeBigLittleCgra(const PeVariant &big,
                             const std::string &name);

/** Run the flow for @p app on @p variant up to @p level. */
EvalResult evaluate(const apps::AppInfo &app, const PeVariant &variant,
                    EvalLevel level, const model::TechModel &tech,
                    const EvalOptions &options = {});

/**
 * Run the flow for @p app on a fabric of one or more PE types: the
 * same checks, P&R ladder and cost roll-up as the one-type call, with
 * each type's area and energy charged to its own instances and the
 * clock period set by the slowest type.  Several types cannot be
 * pipelined (per-type latency balancing is not modelled:
 * kInvalidArgument) and are never memoized (the cached record holds
 * no per-type counts).
 *
 * @param pe_count_by_type Optional: PE instances per type, filled
 *                         once the application has mapped.
 */
EvalResult evaluate(const apps::AppInfo &app, const HeteroCgra &cgra,
                    EvalLevel level, const model::TechModel &tech,
                    const EvalOptions &options = {},
                    std::vector<int> *pe_count_by_type = nullptr);

/**
 * The paper's "PE Spec" stopping rule (Sec. 5): starting from PE 1,
 * keep merging the next-ranked subgraph while the post-mapping
 * area-energy product of the application improves; return the last
 * improving variant ("the most specialized PE possible without
 * increasing the area or energy of the application").
 *
 * Candidates are walked in k order; the first one whose build fails
 * before the stopping rule halts is returned as the error.  With
 * @p pool (parallelism > 1), every candidate k is built and scored
 * concurrently first — speculative work past the stopping point is
 * wasted, but the walk sees the same candidates, so both schedules
 * pick the same variant and report the same failure.
 */
Result<PeVariant> bestSpecializedVariant(
    const apps::AppInfo &app, const Explorer &explorer,
    const model::TechModel &tech, runtime::ThreadPool *pool = nullptr,
    const EvalOptions &options = {});

/**
 * Serialize a *successful* EvalResult for the artifact cache
 * (diagnostics and failure state are deliberately excluded: failures
 * are never cached).  Doubles round-trip exactly via hex floats, so
 * a cache hit is bit-identical to the evaluation that produced it.
 */
std::string serializeEvalResult(const EvalResult &r);

/** Inverse of serializeEvalResult(): every field exactly once, in
 * record order, each value a whole token; kParseError otherwise. */
Result<EvalResult> parseEvalResult(const std::string &text);

/**
 * Cache key for evaluate(): a content fingerprint of every input
 * that can influence the result (see EvalOptions::cache).
 */
std::string evalCacheKey(const apps::AppInfo &app,
                         const PeVariant &variant, EvalLevel level,
                         const model::TechModel &tech,
                         const EvalOptions &options);

/**
 * The evaluation memoized under @p key, exactly as evaluate() serves
 * a hit: the parsed record plus a "cache" info diagnostic.  Empty on
 * a miss and on a record that does not parse (format skew that
 * slipped past the disk checksum), which the caller recomputes and
 * overwrites.
 */
std::optional<EvalResult> cachedEvaluation(runtime::ArtifactCache &cache,
                                           const std::string &key);

/**
 * Energy one PE instance spends per cycle executing @p rule on
 * @p spec: decode/clock overhead + active blocks + idle toggling of
 * the unused blocks + input muxing.
 */
double peInstanceEnergy(const mapper::RewriteRule &rule,
                        const pe::PeSpec &spec,
                        const model::TechModel &tech);

/**
 * Fingerprint of every TechModel field evaluate() can read.  Shared
 * by the eval cache key and the sweep journal header, so a resumed
 * sweep can prove it is replaying cells of the same configuration.
 */
std::uint64_t techFingerprint(const model::TechModel &tech);

} // namespace apex::core

#endif // APEX_CORE_EVALUATE_H_
