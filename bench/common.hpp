#ifndef APEX_BENCH_COMMON_H_
#define APEX_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/explorer.hpp"
#include "runtime/telemetry.hpp"

/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.  Every
 * bench prints the series the corresponding paper artifact reports,
 * plus (where the paper publishes absolute numbers) a paper-vs-
 * measured line, so EXPERIMENTS.md can be regenerated by
 * running every binary in build/bench/.
 */

namespace apex::bench {

inline void
header(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

/** Percent change helper: negative = reduction. */
inline double
pct(double value, double baseline)
{
    return baseline == 0.0 ? 0.0
                           : 100.0 * (value - baseline) / baseline;
}

/** Pipeline stages whose latency histograms every bench row can
 * report (`apex.<stage>.ms` in the metrics registry). */
inline const std::vector<std::string> &
stageHistograms()
{
    static const std::vector<std::string> kStages = {
        "build", "eval",    "mine",  "mis",   "mis.solve",
        "iso",   "clique",  "merge", "rewrite", "map",
        "place", "route"};
    return kStages;
}

/**
 * Registry snapshot for per-stage bench timing.  The registry's
 * histograms accumulate across a whole process, so a bench that runs
 * several configurations takes one snapshot per row and reports the
 * delta.  Usage:
 *
 *     bench::StageSnapshot stages;
 *     ... run the configuration ...
 *     printf("{...,%s}\n", stages.jsonFragment().c_str());
 */
class StageSnapshot {
  public:
    StageSnapshot()
    {
        for (const std::string &s : stageHistograms())
            sums_.push_back(
                telemetry::histogram("apex." + s + ".ms").sum());
    }

    /** JSON fragment `"stage_ms":{"build":12.34,...}` — time accrued
     * in each stage since this snapshot was taken. */
    std::string jsonFragment() const
    {
        std::string out = "\"stage_ms\":{";
        const auto &stages = stageHistograms();
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const double ms =
                telemetry::histogram("apex." + stages[i] + ".ms")
                    .sum() -
                sums_[i];
            char buf[96];
            std::snprintf(buf, sizeof buf, "%s\"%s\":%.2f",
                          i ? "," : "", stages[i].c_str(), ms);
            out += buf;
        }
        out += '}';
        return out;
    }

  private:
    std::vector<double> sums_;
};

/** Evaluate and abort the row (not the bench) on failure. */
inline core::EvalResult
evalOrWarn(const apps::AppInfo &app, const core::PeVariant &variant,
           core::EvalLevel level, const model::TechModel &tech)
{
    auto r = core::evaluate(app, variant, level, tech);
    if (!r.success) {
        std::printf("  [%s on %s FAILED: %s]\n", variant.name.c_str(),
                    app.name.c_str(), r.status.toString().c_str());
    }
    return r;
}

} // namespace apex::bench

#endif // APEX_BENCH_COMMON_H_
