/**
 * The repository benchmark's driver.
 *
 *   apex_perfbench --workload analyzed-cold|daemon-mixed
 *                  --seed N --seconds S --trace 0|1
 *                  [--reference DIR] [--tmpdir DIR]
 *   apex_perfbench --write-reference DIR
 *
 * Prints one human-readable line per metric (value, unit, sample
 * count) and, as its last stdout line, the JSON result object.  With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set.  Exit status is 0 only when every operation ran and
 * matched the checked-in reference.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/evaluate.hpp"
#include "harness.hpp"
#include "model/tech.hpp"
#include "runtime/telemetry.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace apex;

/** End-to-end metrics, printed by every untraced run. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"cells_per_s", "1/s"},
    {"cpu_ms_per_cell", "ms"},
    {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics, printed by every traced run.  A workload lists
 * the ones it does not measure in Report::unmeasured; they print as 0,
 * marked with the reason. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"mining.mine_ms", "ms"},
    {"mining.rank_ms", "ms"},
    {"mining.rank_max_ms", "ms"},
    {"mining.patterns", "count"},
    {"mining.embeddings", "count"},
    {"mining.matcher_fallbacks", "count"},
    {"merging.merge_ms", "ms"},
    {"merging.clique_nodes", "count"},
    {"merging.clique_non_optimal", "count"},
    {"core.build_ms", "ms"},
    {"core.build_max_ms", "ms"},
    {"core.cache_key_ms", "ms"},
    {"core.journal_append_ms", "ms"},
    {"core.journal_replay_ms", "ms"},
    {"mapper.rewrite_ms", "ms"},
    {"mapper.rules", "count"},
    {"mapper.rewrite_unique_ratio", "ratio"},
    {"mapper.select_ms", "ms"},
    {"mapper.pe_count", "count"},
    {"pipeline.pe_ms", "ms"},
    {"pipeline.app_ms", "ms"},
    {"cgra.place_ms", "ms"},
    {"cgra.route_ms", "ms"},
    {"cgra.place_attempts", "count"},
    {"cgra.place_success_ratio", "ratio"},
    {"cgra.route_ripups", "count"},
    {"runtime.lane_occupancy", "ratio"},
    {"runtime.task_inflation", "ratio"},
    {"runtime.tasks_stolen", "count"},
    {"runtime.cache_get_ms", "ms"},
    {"runtime.cache_put_ms", "ms"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.worker_run_ms", "ms"},
    {"runtime.worker_restarts", "count"},
    {"service.ack_ms", "ms"},
    {"service.execute_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.render_ms", "ms"},
    {"service.coalesced_ratio", "ratio"},
    {"service.rejected", "count"},
    {"service.replay_ms_p50", "ms"},
    {"service.replay_ms_p90", "ms"},
    {"service.fresh_ms_p50", "ms"},
    {"mining.self_ms", "ms"},
    {"merging.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"mapper.self_ms", "ms"},
    {"pipeline.self_ms", "ms"},
    {"cgra.self_ms", "ms"},
    {"runtime.self_ms", "ms"},
    {"service.self_ms", "ms"},
    {"trace.wall_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

const char *const kCounters[] = {
    "apex.mine.patterns",         "apex.mine.embeddings",
    "apex.mine.matcher_fallbacks", "apex.clique.nodes",
    "apex.clique.non_optimal",    "apex.place.attempts",
    "apex.place.failures",        "apex.route.ripup_iterations",
    "apex.cache.hits",            "apex.cache.misses",
    "apex.sweep.build_us",        "apex.sweep.eval_us",
    "apex.service.accepted",      "apex.service.coalesced",
    "apex.service.rejected",      "apex.worker.restarts",
    "apex.pool.tasks_stolen",
};

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    return static_cast<bool>(out);
}

/** Regenerate the checked-in references: the jobs=1 sweep of every
 * (app set, level) a workload compares against. */
int
writeReferences(const std::string &dir)
{
    struct Item {
        const char *set;
        const char *level;
        core::EvalLevel eval_level;
    };
    const Item items[] = {
        {"analyzed", "pipe", core::EvalLevel::kPostPipelining},
        {"all", "map", core::EvalLevel::kPostMapping},
        {"all", "pnr", core::EvalLevel::kPostPnr},
        {"all", "pipe", core::EvalLevel::kPostPipelining},
    };
    const core::Explorer explorer(model::defaultTech());
    for (const Item &item : items) {
        const auto apps = std::string(item.set) == "analyzed"
                              ? apps::analyzedApps()
                              : apps::allApps();
        core::SweepOptions o;
        o.level = item.eval_level;
        o.jobs = 1;
        const auto out =
            core::runSweep(apps, explorer, model::defaultTech(), o);
        if (!out.report.failures.empty()) {
            std::fprintf(stderr, "reference %s-%s has failures\n",
                         item.set, item.level);
            return 1;
        }
        const std::string base =
            dir + "/" + item.set + "-" + item.level;
        if (!writeFile(base + ".txt",
                       service::renderSweepText(out.entries, out.report)) ||
            !writeFile(base + ".cells", cellsText(out.entries))) {
            std::fprintf(stderr, "cannot write %s\n", base.c_str());
            return 1;
        }
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: apex_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--reference DIR] "
                 "[--tmpdir DIR]\n"
                 "       apex_perfbench --write-reference DIR\n");
    return 2;
}

} // namespace

bool
loadReference(const std::string &dir, const std::string &set,
              const std::string &level, Reference *out)
{
    const std::string base = dir + "/" + set + "-" + level;
    return readFile(base + ".txt", &out->text) &&
           readFile(base + ".cells", &out->cells) && !out->text.empty();
}

std::string
cellsText(const std::vector<core::SweepEntry> &entries)
{
    std::string out;
    for (const core::SweepEntry &e : entries)
        out += "cell " + e.app + " " + e.variant + "\n" +
               core::serializeEvalResult(e.result);
    return out;
}

std::map<std::string, std::string>
splitCells(const std::string &cells)
{
    std::map<std::string, std::string> out;
    std::string id;
    std::istringstream in(cells);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cell ", 0) == 0) {
            id = line.substr(5);
            out[id];
        } else if (!id.empty()) {
            out[id] += line + "\n";
        }
    }
    return out;
}

std::string
checkAgainst(const std::vector<core::SweepEntry> &entries,
             const ExplorationReport &report, const Reference &ref)
{
    if (!report.failures.empty())
        return std::to_string(report.failures.size()) +
               " failed cell(s), first: " +
               report.failures.front().status.toString();
    if (service::renderSweepText(entries, report) != ref.text)
        return "rendered report differs from the reference";
    if (cellsText(entries) != ref.cells)
        return "cell results differ from the reference";
    return {};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

std::map<std::string, long long>
counterSnapshot()
{
    std::map<std::string, long long> snap;
    for (const char *name : kCounters)
        snap[name] = telemetry::counter(name).value();
    return snap;
}

std::map<std::string, long long>
counterDelta(const std::map<std::string, long long> &before,
             const std::map<std::string, long long> &after)
{
    std::map<std::string, long long> d;
    for (const auto &[name, v] : after)
        d[name] = v - before.at(name);
    return d;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (flag == "--write-reference")
            return writeReferences(value);
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--reference") {
            args.reference_dir = value;
        } else if (flag == "--tmpdir") {
            args.tmp_dir = value;
        } else {
            return usage();
        }
    }
    if (!have_workload || args.seconds <= 0)
        return usage();

    Report report;
    if (args.workload == "analyzed-cold")
        report = runBatch(args);
    else if (args.workload == "daemon-mixed")
        report = runDaemon(args);
    else
        return usage();

    for (const std::string &note : report.notes)
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    if (!report.setup_ok) {
        std::fprintf(stderr, "perfbench: %s did not run cleanly\n",
                     args.workload.c_str());
        return 1;
    }

    const auto &names = args.trace ? kPerLayer : kEndToEnd;
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : names) {
        const auto it = report.metrics.find(name);
        const auto why = report.unmeasured.find(name);
        if (it == report.metrics.end() && why == report.unmeasured.end()) {
            std::fprintf(stderr, "perfbench: %s was not measured\n",
                         name.c_str());
            return 1;
        }
        const double value = it == report.metrics.end() ? 0.0 : it->second;
        metrics.push_back({name, value, unit});
        const auto n = report.samples.find(name);
        std::string tail;
        if (why != report.unmeasured.end())
            tail = " not measured here: " + why->second;
        else if (n != report.samples.end())
            tail = " n=" + std::to_string(n->second);
        std::printf("%-30s %16.4f %-6s%s\n", name.c_str(), value,
                    unit.c_str(), tail.c_str());
    }
    for (const auto &[name, v] : report.info)
        std::printf("%-30s %16.4f %-6s n=%zu (not in the result line)\n",
                    name.c_str(), v.first, v.second.c_str(),
                    report.samples[name]);
    for (const auto &[name, why] : report.info_missing)
        std::printf("%-30s missing: %s\n", name.c_str(), why.c_str());
    for (const auto &[name, value] : report.metrics) {
        bool known = false;
        for (const auto &[n, u] : names)
            known = known || n == name;
        if (!known) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            return 1;
        }
    }
    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("%s\n", resultJson(correct, report.attempted,
                                   report.failed, metrics)
                            .c_str());
    return correct ? 0 : 1;
}
