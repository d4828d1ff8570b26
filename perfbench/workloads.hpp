#ifndef APEX_PERFBENCH_WORKLOADS_H_
#define APEX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/sweep.hpp"

/**
 * @file
 * The benchmark's workloads.  Each one runs in its own process and
 * fills a Report; the driver prints it.  End-to-end metrics come from
 * untraced runs only; the traced run (--trace 1) replays the same work
 * through the layers' public entry points inside driver-owned spans
 * and yields the per-layer metrics.
 */

namespace perfbench {

namespace core = apex::core;
using apex::ExplorationReport;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference_dir = "perfbench/reference";
    std::string tmp_dir = ".bench_build/tmp";
};

/** The checked-in jobs=1 output of one (app set, level). */
struct Reference {
    std::string text;  ///< service::renderSweepText of the sweep.
    std::string cells; ///< cellsText of the sweep (full results).
};

/** Load "<dir>/<set>-<level>.txt" and ".cells"; false when missing. */
bool loadReference(const std::string &dir, const std::string &set,
                   const std::string &level, Reference *out);

/** Every cell's full serialized EvalResult, in entry order. */
std::string cellsText(const std::vector<core::SweepEntry> &entries);

/** Split a cellsText blob into "app variant" -> serialized result. */
std::map<std::string, std::string> splitCells(const std::string &cells);

/** Empty when the sweep is complete and byte-identical to @p ref,
 * else why it is not. */
std::string checkAgainst(const std::vector<core::SweepEntry> &entries,
                         const ExplorationReport &report,
                         const Reference &ref);

/** What one workload run measured. */
struct Report {
    bool setup_ok = true;   ///< Set-up ran and matched the reference.
    long attempted = 0;     ///< Operations (sweeps or requests).
    long failed = 0;        ///< ... failed, rejected or mismatched.
    std::map<std::string, double> metrics;
    /** Figures printed for readers but kept out of the result line
     * (value, unit): latencies whose run-to-run spread is too wide to
     * bound, and daemon-mixed's traffic split. */
    std::map<std::string, std::pair<double, std::string>> info;
    /** Why an info timing is missing (the p90 rule), by name. */
    std::map<std::string, std::string> info_missing;
    /** Metrics of the printed list this workload does not measure,
     * with the reason; printed as 0 and marked.  Any other metric of
     * the list that is missing fails the run. */
    std::map<std::string, std::string> unmeasured;
    /** Sample counts behind the timing metrics, printed beside them. */
    std::map<std::string, std::size_t> samples;
    std::vector<std::string> notes; ///< First failures, for stderr.
};

/** analyzed-cold. */
Report runBatch(const Args &args);

/** daemon-mixed. */
Report runDaemon(const Args &args);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Values of a fixed list of registry counters. */
std::map<std::string, long long> counterSnapshot();

/** after - before, per counter. */
std::map<std::string, long long>
counterDelta(const std::map<std::string, long long> &before,
             const std::map<std::string, long long> &after);

} // namespace perfbench

#endif // APEX_PERFBENCH_WORKLOADS_H_
