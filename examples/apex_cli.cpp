/**
 * apexc — command-line driver for the APEX flow.
 *
 * Usage:
 *   apexc apps
 *       List the built-in applications.
 *   apexc analyze <app|file.apexir> [--support N] [--max-nodes N]
 *       Mine + MIS-rank frequent subgraphs of an application.
 *   apexc explore <app> [--variant base|pe1|spec|ip|ml]
 *                       [--level map|pnr|pipe]
 *       Run the full flow and print the evaluation record.
 *   apexc rtl <app> [--variant ...] [-o DIR]
 *       Emit the PE's Verilog and a self-checking testbench.
 *   apexc dump <app> [-o FILE]
 *       Serialize an application graph to the apexir text format.
 *   apexc sweep [--level map|pnr|pipe] [--diagnostics]
 *               [--jobs N] [--cache-dir DIR] [--resume]
 *               [--deadline MS] [--cell-deadline MS]
 *               [--isolate thread|process] [--cell-retries N]
 *       Fault-tolerant evaluation of every built-in application
 *       across the variant recipe; failing pairs are reported and
 *       skipped rather than aborting the sweep.
 *   apexc client <sweep|info|metrics|top> --socket PATH [--port N]
 *       Run the request against a running apexd instead of in
 *       process.  `client sweep` accepts the sweep pressure and
 *       isolation flags (--level, --isolate, --cell-retries,
 *       --deadline, --cell-deadline, plus --priority N, --progress
 *       and --retries N [--retry-base-ms MS]) and prints
 *       byte-identical stdout, with the same exit code, as the batch
 *       `apexc sweep` with the same flags — both map the flags to
 *       sweep options through one function, and the daemon's
 *       resources are invisible in the bytes.  Progress frames and
 *       the coalescing verdict go to stderr.  With --trace FILE the
 *       request is traced end to end: the client mints a trace id,
 *       the daemon stamps it on every span the sweep records, and
 *       the written file merges the client's spans with the daemon's
 *       slice for *this* request (fetched via the `trace`
 *       conversation) into one Chrome-trace file with client /
 *       apexd / worker process lanes.  `client top` renders the
 *       daemon's statusz vitals ring (sampled snapshots of sessions,
 *       queue depth, latency quantiles); --interval MS refreshes it
 *       live, --json prints the raw ring once for scripts.
 *   apexc --version
 *       Print the build commit, build type and protocol version.
 *
 * Telemetry (every command): --trace FILE records structured spans
 * for each pipeline stage and writes a Chrome trace-event JSON file
 * (load it in chrome://tracing or Perfetto); --metrics-out FILE dumps
 * the unified metrics registry (apex.* counters, gauges, latency
 * histograms) as JSON.  Both files are written once, after the
 * command finishes, whatever its exit code; --metrics-interval MS
 * additionally republishes the metrics file while the command runs.
 * Like `rtl` and `dump -o`, they are published by write-then-rename
 * (a watcher never reads a torn file; a symlinked output keeps its
 * link), and a file that cannot be written is named on stderr and
 * turns a successful command's exit code into 2.  Tracing off costs
 * one branch per span site; metrics counters are always live.
 *
 * Parallelism: --jobs N (or the APEX_JOBS environment variable) runs
 * analyze/explore/sweep on a work-stealing pool with N lanes; N = 0
 * asks for one lane per hardware thread.  The default (1) is the
 * sequential schedule, and results are byte-identical for any N.
 * --cache-dir DIR adds a content-addressed on-disk evaluation cache,
 * so repeated sweeps become incremental.  Runtime counters (tasks
 * run/stolen, cache hits/misses, per-stage time) are printed to
 * stderr under --diagnostics.
 *
 * Durability: with --cache-dir, every completed sweep cell is also
 * checkpointed to a crash-safe journal (DIR/sweep.journal), and
 * --resume replays it so a crashed or killed sweep continues from
 * where it stopped — the resumed report is byte-identical to an
 * uninterrupted run.  SIGINT/SIGTERM cancel the sweep cooperatively:
 * completed cells are reported (and journaled), unstarted cells are
 * recorded as cancelled, and the process exits with the kCancelled
 * exit code.
 *
 * Pressure: --deadline MS bounds the whole sweep (cells that cannot
 * start in time are recorded as timeouts; 0 is already expired, a
 * negative budget is none) and --cell-deadline MS
 * bounds each evaluation; a cell whose budget expires is retried
 * once with cheap fallback knobs and marked "degraded" in the report
 * instead of failing the sweep.
 *
 * Isolation: --isolate process (default: thread) runs each
 * evaluation in a supervised pool of forked worker processes, so a
 * crashing, hanging or OOM-killed cell costs one worker instead of
 * the sweep.  A dead worker is restarted under exponential backoff
 * and its cell retried up to --cell-retries times (default 2); a
 * cell that keeps killing workers is quarantined — reported (and
 * journaled) as a WorkerCrashed failure with the death cause
 * (crash / oom / hang) — and the sweep continues.  With no faults
 * the report is byte-identical to --isolate thread at any --jobs.
 *
 * Exit codes: 0 on success, otherwise the stage-specific code from
 * exitCodeFor() (2 usage, 3 parse, 4 invalid IR, 5 mining, 6 merge,
 * 7 mapping, 8 placement, 9 routing, 10 capacity, 12 timeout,
 * 14 cancelled, 15 worker crashed, 16 service unavailable, 17
 * resource exhausted — disk full while journaling, see DESIGN.md
 * Sec. 7h).  A PE variant that cannot be built (analyze, explore,
 * rtl) exits with its stage's code and prints or writes nothing.
 * Pass --diagnostics to explore/sweep to dump the structured
 * per-stage diagnostic trail.
 *
 * Built-in application names: camera harris gaussian unsharp resnet
 * mobilenet laplacian stereo fast.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/evaluate.hpp"
#include "core/status.hpp"
#include "core/sweep.hpp"
#include "ir/serialize.hpp"
#include "pe/verilog.hpp"
#include "pe/verilog_tb.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "runtime/cache.hpp"
#include "runtime/record.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/version.hpp"

namespace {

using namespace apex;

/** Set by the SIGINT/SIGTERM handler; polled by the sweep's tasks.
 * A lock-free atomic store is async-signal-safe, and the sweep
 * flushes its journal on every append, so an interrupted run loses
 * nothing that had completed. */
std::atomic<bool> g_interrupted{false};

extern "C" void
onInterrupt(int /*signum*/)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

std::optional<apps::AppInfo>
findApp(const std::string &name)
{
    for (apps::AppInfo &app : apps::allApps())
        if (app.name == name)
            return std::move(app);
    return std::nullopt;
}

/** Load either a built-in app or an .apexir file; on failure returns
 * the typed reason (kInvalidArgument or the parse/validate status). */
Result<apps::AppInfo>
loadApp(const std::string &source)
{
    if (auto app = findApp(source))
        return std::move(*app);
    std::ifstream is(source);
    if (!is)
        return Status(ErrorCode::kInvalidArgument,
                      "unknown app or file '" + source + "'");
    std::stringstream buffer;
    buffer << is.rdbuf();
    auto graph = ir::parseGraph(buffer.str());
    if (!graph)
        return graph.status().withContext("loading '" + source +
                                          "'");
    apps::AppInfo app;
    app.name = source;
    app.description = "user graph";
    app.domain = apps::Domain::kImageProcessing;
    app.graph = std::move(graph).value();
    app.work_items_per_frame = 1 << 20;
    app.items_per_cycle = 1;
    return app;
}

/** Report a load failure and return its process exit code. */
int
loadFailure(const Status &status)
{
    std::fprintf(stderr, "apexc: %s\n", status.toString().c_str());
    return exitCodeFor(status.code());
}

/** Publish one output file (RTL, an apexir dump, a telemetry
 * artifact); a failure is reported on stderr, naming the path. */
bool
writeArtifact(const std::string &path, const std::string &bytes)
{
    const Status s =
        runtime::publishFile(path, bytes, /*durable=*/false);
    if (!s.ok())
        std::fprintf(stderr, "apexc: %s\n", s.message().c_str());
    return s.ok();
}

const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** --isolate MODE, accepting both "--isolate process" and the
 * "--isolate=process" spelling; null when absent. */
const char *
isolateFlag(int argc, char **argv)
{
    if (const char *s = flagValue(argc, argv, "--isolate"))
        return s;
    for (int i = 0; i < argc; ++i)
        if (std::strncmp(argv[i], "--isolate=", 10) == 0)
            return argv[i] + 10;
    return nullptr;
}

/** --jobs N, else $APEX_JOBS, else 1 (sequential).  0 = one lane per
 * hardware thread. */
int
requestedJobs(int argc, char **argv)
{
    if (const char *s = flagValue(argc, argv, "--jobs"))
        return std::atoi(s);
    if (const char *env = std::getenv("APEX_JOBS"))
        return std::atoi(env);
    return 1;
}

/** Pool for the requested job count; null = run sequentially. */
std::unique_ptr<runtime::ThreadPool>
makePool(int jobs)
{
    if (jobs == 1)
        return nullptr;
    const int n = jobs <= 0 ? runtime::ThreadPool::defaultParallelism()
                            : jobs;
    if (n <= 1)
        return nullptr;
    return std::make_unique<runtime::ThreadPool>(n);
}

/** The sweep flags `apexc sweep` and `apexc client sweep` share, as
 * the request service::sweepOptionsFor() maps to sweep options on
 * both paths (and in apexd), so the paths cannot disagree on a
 * flag. */
service::SweepRequest
sweepRequest(int argc, char **argv)
{
    service::SweepRequest request;
    if (const char *s = flagValue(argc, argv, "--level"))
        request.level = s;
    if (const char *s = isolateFlag(argc, argv))
        request.isolate = s;
    if (const char *s = flagValue(argc, argv, "--cell-retries"))
        request.cell_retries = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--deadline"))
        request.deadline_ms = std::atof(s);
    if (const char *s = flagValue(argc, argv, "--cell-deadline"))
        request.cell_deadline_ms = std::atof(s);
    return request;
}

/** --cache-dir DIR => a disk-backed artifact cache; else null. */
std::unique_ptr<runtime::ArtifactCache>
makeCache(int argc, char **argv)
{
    const char *dir = flagValue(argc, argv, "--cache-dir");
    if (dir == nullptr)
        return nullptr;
    runtime::CacheOptions copt;
    copt.disk_dir = dir;
    return std::make_unique<runtime::ArtifactCache>(copt);
}

/** The PE variant named by --variant; a failed build (mining, merge,
 * timeout) is returned, never replaced by a less specialized PE. */
Result<core::PeVariant>
buildVariant(const std::string &kind, const apps::AppInfo &app,
             const core::Explorer &ex,
             runtime::ThreadPool *pool = nullptr,
             const core::EvalOptions &eval = {})
{
    if (kind == "pe1")
        return ex.subsetVariant(app);
    if (kind == "spec")
        return core::bestSpecializedVariant(
            app, ex, model::defaultTech(), pool, eval);
    if (kind == "ip")
        return ex.domainVariant(apps::ipApps(), 1, "pe_ip");
    if (kind == "ml")
        return ex.domainVariant(apps::mlApps(), 1, "pe_ml");
    return ex.baselineVariant();
}

int
cmdApps()
{
    for (const apps::AppInfo &app : apps::allApps()) {
        std::printf("%-10s %-3s %4zu compute ops  %s%s\n",
                    app.name.c_str(),
                    app.domain == apps::Domain::kImageProcessing
                        ? "IP"
                        : "ML",
                    app.graph.computeNodes().size(),
                    app.description.c_str(),
                    app.unseen ? " (held out)" : "");
    }
    return 0;
}

int
cmdAnalyze(int argc, char **argv, const std::string &source)
{
    auto app = loadApp(source);
    if (!app)
        return loadFailure(app.status());
    core::ExplorerOptions options;
    if (const char *s = flagValue(argc, argv, "--support"))
        options.miner.min_support = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--max-nodes"))
        options.miner.max_pattern_nodes = std::atoi(s);
    const auto pool = makePool(requestedJobs(argc, argv));
    options.pool = pool.get();
    core::Explorer ex(model::defaultTech(), options);

    const auto patterns = ex.analyze(app->graph);
    if (!patterns)
        return loadFailure(patterns.status());
    std::printf("%zu mergeable frequent subgraphs in %s "
                "(support >= %d, <= %d nodes):\n",
                patterns->size(), app->name.c_str(),
                options.miner.min_support,
                options.miner.max_pattern_nodes);
    int rank = 0;
    for (const auto &p : *patterns) {
        std::printf("#%-3d nodes=%d freq=%d mni=%d mis=%d  ops:",
                    rank++, p.core_size, p.frequency, p.mni_support,
                    p.mis_size);
        for (const auto &[op, count] : p.pattern.opHistogram()) {
            if (ir::opIsCompute(op))
                std::printf(" %dx%s", count,
                            std::string(ir::opName(op)).c_str());
        }
        std::printf("\n");
        if (rank >= 12) {
            std::printf("... (%zu more)\n", patterns->size() - rank);
            break;
        }
    }
    return 0;
}

int
cmdExplore(int argc, char **argv, const std::string &source)
{
    auto app = loadApp(source);
    if (!app)
        return loadFailure(app.status());
    const char *variant_flag = flagValue(argc, argv, "--variant");
    const char *level_flag = flagValue(argc, argv, "--level");
    const std::string kind = variant_flag ? variant_flag : "base";
    const std::string level_name = level_flag ? level_flag : "pipe";
    const auto parsed_level = core::parseEvalLevel(level_name);
    if (!parsed_level)
        return loadFailure(parsed_level.status());
    const core::EvalLevel level = *parsed_level;

    const auto pool = makePool(requestedJobs(argc, argv));
    const auto cache = makeCache(argc, argv);
    core::ExplorerOptions ex_options;
    ex_options.pool = pool.get();
    core::Explorer ex(model::defaultTech(), ex_options);
    core::EvalOptions eval_options;
    eval_options.cache = cache.get();

    // Heterogeneous fabric: the big.LITTLE extension pairs the
    // domain PE for the app's domain with a minimal scalar PE.
    if (kind == "biglittle") {
        const bool is_ip =
            app->domain == apps::Domain::kImageProcessing;
        const auto domain = buildVariant(is_ip ? "ip" : "ml", *app, ex);
        if (!domain)
            return loadFailure(domain.status());
        // Several PE types are evaluated up to P&R at most.
        std::vector<int> by_type;
        const auto r = core::evaluate(
            *app, core::makeBigLittleCgra(*domain, "biglittle"),
            level == core::EvalLevel::kPostMapping
                ? core::EvalLevel::kPostMapping
                : core::EvalLevel::kPostPnr,
            model::defaultTech(), {}, &by_type);
        if (!r.success)
            return loadFailure(r.status);
        std::printf("app            %s\n", app->name.c_str());
        std::printf("variant        biglittle (%s + little)\n",
                    domain->name.c_str());
        std::printf("pe_count       %d (big %d + little %d)\n",
                    r.pe_count, by_type[0], by_type[1]);
        std::printf("pe_area_um2    %.1f\n", r.pe_area);
        std::printf("pe_energy_pj   %.3f\n", r.pe_energy);
        if (r.fabric_width > 0) {
            std::printf("fabric         %dx%d\n", r.fabric_width,
                        r.fabric_height);
            std::printf("cgra_area_um2  %.1f\n", r.cgra_area);
            std::printf("cgra_energy_pj %.3f\n", r.cgra_energy);
        }
        return 0;
    }

    const auto variant =
        buildVariant(kind, *app, ex, pool.get(), eval_options);
    if (!variant)
        return loadFailure(variant.status());
    const auto r = core::evaluate(*app, *variant, level,
                                  model::defaultTech(),
                                  eval_options);
    if (hasFlag(argc, argv, "--diagnostics")) {
        if (!r.diagnostics.empty())
            std::fputs(r.diagnostics.toString().c_str(), stderr);
        if (cache != nullptr)
            std::fprintf(
                stderr, "cache: hits=%lld misses=%lld\n",
                telemetry::counter("apex.cache.hits").value(),
                telemetry::counter("apex.cache.misses").value());
    }
    if (!r.success)
        return loadFailure(r.status);
    std::printf("app            %s\n", app->name.c_str());
    std::printf("variant        %s\n", variant->name.c_str());
    std::printf("level          %s\n", level_name.c_str());
    std::printf("pe_count       %d\n", r.pe_count);
    std::printf("pe_area_um2    %.1f\n", r.pe_area);
    std::printf("pe_energy_pj   %.3f\n", r.pe_energy);
    if (level != core::EvalLevel::kPostMapping) {
        std::printf("fabric         %dx%d\n", r.fabric_width,
                    r.fabric_height);
        std::printf("cgra_area_um2  %.1f\n", r.cgra_area);
        std::printf("cgra_energy_pj %.3f\n", r.cgra_energy);
        std::printf("period_ns      %.3f\n", r.period_ns);
        std::printf("util           pe=%d mem=%d rf=%d io=%d reg=%d "
                    "routing=%d\n",
                    r.util.pes, r.util.mems, r.util.rf_entries,
                    r.util.ios, r.util.regs, r.util.routing_tiles);
    }
    if (level == core::EvalLevel::kPostPipelining) {
        std::printf("pipe_stages    %d\n", r.pipeline_stages);
        std::printf("runtime_ms     %.4f\n", r.runtime_ms);
        std::printf("frames_ms_mm2  %.4f\n", r.frames_per_ms_mm2);
        std::printf("frame_uj       %.3f\n", r.total_energy_uj);
    }
    return 0;
}

int
cmdRtl(int argc, char **argv, const std::string &source)
{
    auto app = loadApp(source);
    if (!app)
        return loadFailure(app.status());
    const char *variant_flag = flagValue(argc, argv, "--variant");
    const char *out_flag = flagValue(argc, argv, "-o");
    const std::string out = out_flag ? out_flag : ".";

    core::Explorer ex;
    auto built = buildVariant(variant_flag ? variant_flag : "spec",
                              *app, ex);
    if (!built)
        return loadFailure(built.status());
    core::PeVariant variant = std::move(built).value();
    pipeline::pipelinePe(variant.spec, model::defaultTech());

    const std::string v_path = out + "/" + variant.name + ".v";
    const std::string tb_path = out + "/" + variant.name + "_tb.v";
    const std::string tb =
        pe::emitTestbench(variant.spec, pe::defaultConfig(variant.spec));
    if (!writeArtifact(v_path, pe::emitVerilog(variant.spec)) ||
        !writeArtifact(tb_path, tb))
        return exitCodeFor(ErrorCode::kInvalidArgument);
    std::printf("wrote %s and %s (%d pipeline stages)\n",
                v_path.c_str(), tb_path.c_str(),
                variant.spec.pipeline_stages);
    return 0;
}

int
cmdDump(int argc, char **argv, const std::string &source)
{
    auto app = loadApp(source);
    if (!app)
        return loadFailure(app.status());
    const char *out_flag = flagValue(argc, argv, "-o");
    const std::string text = ir::serialize(app->graph);
    if (out_flag) {
        if (!writeArtifact(out_flag, text))
            return exitCodeFor(ErrorCode::kInvalidArgument);
        std::printf("wrote %s (%zu bytes)\n", out_flag, text.size());
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    auto parsed = service::sweepOptionsFor(sweepRequest(argc, argv));
    if (!parsed)
        return loadFailure(parsed.status());
    core::SweepOptions options = std::move(parsed).value();

    // One pool serves both the sweep's build/evaluation tasks and the
    // miner's candidate expansion, so nested parallelism shares the
    // lanes.
    const auto pool = makePool(requestedJobs(argc, argv));
    const auto cache = makeCache(argc, argv);
    options.pool = pool.get();
    options.cache = cache.get();

    // Durability: the journal lives next to the artifact cache.
    const char *cache_dir = flagValue(argc, argv, "--cache-dir");
    if (cache_dir != nullptr)
        options.journal_dir = cache_dir;
    options.resume = hasFlag(argc, argv, "--resume");
    if (options.resume && cache_dir == nullptr)
        return loadFailure(
            Status(ErrorCode::kInvalidArgument,
                   "--resume requires --cache-dir (the journal "
                   "lives in the cache directory)"));

    // Cooperative shutdown: completed cells stay in the report (and
    // journal); unstarted ones are recorded as cancelled.
    options.cancel = &g_interrupted;
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);

    core::ExplorerOptions ex_options;
    ex_options.pool = pool.get();
    // Variant construction (mining, merging) runs under the sweep
    // deadline too — a sweep bound means the whole command.
    ex_options.miner.deadline = options.deadline;
    ex_options.merge.deadline = options.deadline;
    core::Explorer ex(model::defaultTech(), ex_options);
    const auto apps_list = apps::allApps();
    core::SweepOutcome outcome = core::runSweep(
        apps_list, ex, model::defaultTech(), options);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    const service::SweepReply reply =
        service::sweepReplyFor(outcome, options);

    // Batch and service-client sweeps print through the same
    // renderer, so their stdout is byte-identical by construction.
    std::fputs(service::renderSweepText(reply.entries, reply.report)
                   .c_str(),
               stdout);
    if (hasFlag(argc, argv, "--diagnostics")) {
        if (!reply.report.diagnostics.empty())
            std::fputs(reply.report.diagnostics.toString().c_str(),
                       stderr);
        std::fprintf(stderr, "runtime: %s\n",
                     outcome.stats.toString().c_str());
        // Per-cell stage-time breakdown (filled while --trace is on).
        const std::string stage_table = reply.report.stageTimeTable();
        if (!stage_table.empty()) {
            std::fputs("stage times (ms, from spans):\n", stderr);
            std::fputs(stage_table.c_str(), stderr);
        }
    }

    // A journal that could not keep its durability promise (disk
    // full mid-run) makes the printed report valid but the on-disk
    // checkpoint a lie; fail loudly so nobody --resumes against it.
    // Only an interrupt outranks it.
    if (!reply.cancelled && !outcome.durability.ok()) {
        std::fprintf(stderr, "apexc: %s\n",
                     outcome.durability.toString().c_str());
        return exitCodeFor(outcome.durability.code());
    }
    return service::sweepExitCode(reply);
}

/** Report a service-side failure and map it to an exit code. */
int
serviceFailure(const Status &status)
{
    std::fprintf(stderr, "apexc: %s\n", status.toString().c_str());
    return exitCodeFor(status.code());
}

/** Whether `client sweep` published its *merged* trace file, set
 * once it tried: the end-of-main artifact writer must not overwrite
 * it with the client-local-only view, only report its outcome. */
std::optional<bool> g_merged_trace;

/**
 * Write the end-to-end trace of one client request: the client's own
 * spans plus the daemon's slice for @p trace_id (a null @p client
 * degrades to the client lane alone).  Daemon spans split
 * into an "apexd" lane (io + executor threads) and an "apexd workers"
 * lane (pool worker lanes), so the merged file shows the request
 * crossing all three processes under one trace id.
 */
void
writeMergedTrace(const char *path, service::Client *client,
                 std::uint64_t trace_id)
{
    std::vector<telemetry::TraceProcessSlice> slices;
    telemetry::TraceProcessSlice local;
    local.pid = 1;
    local.process_name = "client";
    local.events = telemetry::eventsForTrace(trace_id);
    local.dropped = telemetry::droppedEvents();
    slices.push_back(std::move(local));

    if (client != nullptr) {
        service::TraceReply remote;
        if (const Status s = client->trace(trace_id, &remote);
            s.ok()) {
            telemetry::TraceProcessSlice daemon;
            daemon.pid = 2;
            daemon.process_name = "apexd";
            daemon.dropped = remote.dropped;
            telemetry::TraceProcessSlice workers;
            workers.pid = 3;
            workers.process_name = "apexd workers";
            for (telemetry::SpanEvent &ev : remote.events)
                (ev.lane >= 0 ? workers : daemon)
                    .events.push_back(std::move(ev));
            slices.push_back(std::move(daemon));
            slices.push_back(std::move(workers));
        } else {
            std::fprintf(stderr,
                         "apexc: %s; writing a client-only trace\n",
                         s.toString().c_str());
        }
    }
    g_merged_trace =
        writeArtifact(path, telemetry::chromeTraceJsonMerged(slices));
}

/** `apexc client top`: render the daemon's statusz ring, once or as
 * a live refreshing view (--interval MS); --json emits the raw ring
 * for scripts. */
int
cmdClientTop(int argc, char **argv, service::Client &client)
{
    int max_samples = 0;
    if (const char *s = flagValue(argc, argv, "--samples"))
        max_samples = std::atoi(s);
    const char *interval = flagValue(argc, argv, "--interval");
    const double interval_ms =
        interval != nullptr ? std::atof(interval) : 0.0;
    const bool json = hasFlag(argc, argv, "--json");

    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    for (;;) {
        service::StatuszReply reply;
        if (Status s = client.statusz(max_samples, &reply); !s.ok())
            return serviceFailure(s);
        if (json) {
            std::fputs(service::statuszJson(reply).c_str(), stdout);
        } else {
            if (interval_ms > 0) // Clear + home between refreshes.
                std::fputs("\033[2J\033[H", stdout);
            std::fputs(service::renderStatuszText(reply).c_str(),
                       stdout);
        }
        std::fflush(stdout);
        if (interval_ms <= 0 || g_interrupted.load())
            break;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(interval_ms));
        if (g_interrupted.load())
            break;
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    client.goodbye();
    return 0;
}

/** Dial the daemon named by --socket PATH (or --port N, loopback
 * TCP).  A connection or handshake failure exits kUnavailable. */
Status
connectDaemon(int argc, char **argv, service::Client *client)
{
    if (const char *path = flagValue(argc, argv, "--socket"))
        return client->connect(path);
    if (const char *port = flagValue(argc, argv, "--port"))
        return client->connectTcp(std::atoi(port));
    return Status(ErrorCode::kInvalidArgument,
                  "client requires --socket PATH or --port N");
}

/**
 * `apexc client sweep` — the batch sweep flags (parsed by the same
 * sweepRequest()/sweepOptionsFor() pair), run by a running apexd
 * through the self-healing client (service::runSweepResilient).  The
 * daemon owns the execution resources (--jobs here would be
 * meaningless); stdout and the exit code are exactly what batch mode
 * would produce.
 *
 * --retries N (default 0) allows up to N reconnect + resubmit rounds
 * after connect failures, load-shedding rejects or a daemon dying
 * mid-sweep, with exponential backoff (--retry-base-ms, doubled per
 * round, jittered, stretched to the daemon's retry_after hint).
 * Resubmission is idempotent — the daemon coalesces on the sweep
 * fingerprint and journals per fingerprint — so the report is
 * byte-identical however many attempts it took.
 */
int
cmdClientSweep(int argc, char **argv)
{
    service::SweepRequest request = sweepRequest(argc, argv);
    // A bad flag is a usage error before any daemon is dialed,
    // exactly as in batch mode.
    if (const auto checked = service::sweepOptionsFor(request); !checked)
        return loadFailure(checked.status());
    request.id = 1;
    // Every client request gets a trace id, whether or not --trace
    // was given: the daemon stamps it on the request's spans either
    // way, so a trace can still be fetched after the fact.
    request.trace_id = service::mintTraceId();
    if (const char *s = flagValue(argc, argv, "--priority"))
        request.priority = std::atoi(s);
    request.want_progress = hasFlag(argc, argv, "--progress");

    const char *path = flagValue(argc, argv, "--socket");
    const char *port = flagValue(argc, argv, "--port");
    if (path == nullptr && port == nullptr)
        return serviceFailure(
            Status(ErrorCode::kInvalidArgument,
                   "client requires --socket PATH or --port N"));
    service::RetryPolicy policy;
    policy.max_attempts = 1;
    if (const char *s = flagValue(argc, argv, "--retries"))
        policy.max_attempts = std::atoi(s) + 1;
    if (const char *s = flagValue(argc, argv, "--retry-base-ms"))
        policy.base_ms = std::atof(s);

    // Progress and the coalescing verdict go to stderr: stdout is
    // reserved for the byte-identity contract with batch mode.
    const auto on_progress = [](const service::SweepProgressFrame &p) {
        std::fprintf(stderr, "progress %d/%d %s/%s\n", p.done,
                     p.total, p.app.c_str(), p.variant.c_str());
    };
    // Client-local spans carry the same trace id as the daemon's, so
    // the merged trace file reads as one request across processes.
    telemetry::ScopedTraceId trace_scope;
    trace_scope.set(request.trace_id);
    service::SweepReply reply;
    service::RetryStats stats;
    Status s;
    {
        APEX_SPAN("client.sweep");
        s = service::runSweepResilient(
            path != nullptr ? path : "",
            port != nullptr ? std::atoi(port) : 0, request, policy,
            &reply, on_progress, &stats);
    }
    if (!s.ok())
        return serviceFailure(s);
    if (stats.coalesced)
        std::fprintf(stderr,
                     "apexc: coalesced with an identical in-flight "
                     "sweep\n");
    if (stats.attempts > 1)
        std::fprintf(stderr,
                     "apexc: sweep landed after %d attempts "
                     "(%d rejects, %d disconnects)\n",
                     stats.attempts, stats.rejects, stats.disconnects);
    std::fputs(
        service::renderSweepText(reply.entries, reply.report).c_str(),
        stdout);
    if (const char *trace_path = flagValue(argc, argv, "--trace")) {
        // The sweep's connection is closed (and may have cycled);
        // dial a fresh one for the trace slice and degrade to
        // client-only if the daemon is gone again.
        service::Client trace_client;
        const bool connected =
            connectDaemon(argc, argv, &trace_client).ok();
        writeMergedTrace(trace_path,
                         connected ? &trace_client : nullptr,
                         request.trace_id);
        if (connected)
            trace_client.goodbye();
    }
    return service::sweepExitCode(reply);
}

/** `apexc client <sweep|info|metrics|top>` — run the request against
 * a running apexd. */
int
cmdClient(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: apexc client <sweep|info|metrics|top> "
                     "--socket PATH [--port N] "
                     "[--retries N [--retry-base-ms MS]] "
                     "[--trace FILE] [--interval MS] [--json]\n");
        return 2;
    }
    const std::string what = argv[2];
    // The sweep path dials (and redials) for itself — a daemon that
    // is still restarting must not fail the command at the first
    // connect.
    if (what == "sweep")
        return cmdClientSweep(argc, argv);
    service::Client client;
    if (Status s = connectDaemon(argc, argv, &client); !s.ok())
        return serviceFailure(s);

    if (what == "info") {
        service::InfoReply info;
        if (Status s = client.info(&info); !s.ok())
            return serviceFailure(s);
        std::printf("server    %s\n", info.version.c_str());
        std::printf("commit    %s\n", info.commit.c_str());
        std::printf("flags     %s\n", info.flags.c_str());
        std::printf("protocol  v%d\n", info.protocol);
        client.goodbye();
        return 0;
    }
    if (what == "metrics") {
        std::string json;
        if (Status s = client.metrics(&json); !s.ok())
            return serviceFailure(s);
        std::fputs(json.c_str(), stdout);
        client.goodbye();
        return 0;
    }
    if (what == "top")
        return cmdClientTop(argc, argv, client);
    std::fprintf(stderr,
                 "apexc client: unknown request '%s' (expected "
                 "sweep, info, metrics or top)\n",
                 what.c_str());
    return 2;
}

/** Dispatch to the requested subcommand (the body of main, split out
 * so telemetry artifacts can be written after any exit path). */
int
runCommand(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(
            stderr,
            "usage: apexc <apps|analyze|explore|rtl|dump|sweep|"
            "client|--version> [args]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("%s\n", service::versionString().c_str());
        return 0;
    }
    if (cmd == "apps")
        return cmdApps();
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "client")
        return cmdClient(argc, argv);
    if (argc < 3) {
        std::fprintf(stderr, "apexc %s: missing application\n",
                     cmd.c_str());
        return 2;
    }
    const std::string source = argv[2];
    if (cmd == "analyze")
        return cmdAnalyze(argc, argv, source);
    if (cmd == "explore")
        return cmdExplore(argc, argv, source);
    if (cmd == "rtl")
        return cmdRtl(argc, argv, source);
    if (cmd == "dump")
        return cmdDump(argc, argv, source);
    std::fprintf(stderr, "apexc: unknown command '%s'\n",
                 cmd.c_str());
    return 2;
}

/** Emit --trace / --metrics-out files (no-ops when not requested).
 * @return false when a requested artifact could not be written. */
bool
writeTelemetryArtifacts(const char *trace_path,
                        const char *metrics_path)
{
    bool ok = true;
    // `client sweep --trace` writes a *merged* multi-process trace
    // itself; overwriting it here would lose the daemon lanes.
    if (g_merged_trace.has_value())
        ok &= *g_merged_trace;
    else if (trace_path != nullptr)
        ok &= writeArtifact(trace_path, telemetry::chromeTraceJson());
    if (metrics_path != nullptr)
        ok &= writeArtifact(metrics_path,
                            telemetry::Registry::instance().jsonDump());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        // Telemetry flags apply to every subcommand: tracing must be
        // on before any work runs, artifacts are written after it.
        const char *trace_path = flagValue(argc, argv, "--trace");
        const char *metrics_path =
            flagValue(argc, argv, "--metrics-out");
        if (trace_path != nullptr)
            telemetry::setTracingEnabled(true);
        // --metrics-interval MS: rewrite the metrics file while the
        // command runs (long sweeps become observable in flight).
        std::unique_ptr<runtime::PeriodicMetricsWriter> periodic;
        if (const char *s =
                flagValue(argc, argv, "--metrics-interval")) {
            if (metrics_path == nullptr) {
                std::fprintf(stderr,
                             "apexc: --metrics-interval requires "
                             "--metrics-out FILE\n");
                return exitCodeFor(ErrorCode::kInvalidArgument);
            }
            periodic =
                std::make_unique<runtime::PeriodicMetricsWriter>(
                    metrics_path, std::atof(s));
        }
        const int rc = runCommand(argc, argv);
        periodic.reset(); // Stop the flusher; the final dump is below.
        if (!writeTelemetryArtifacts(trace_path, metrics_path) &&
            rc == 0)
            return exitCodeFor(ErrorCode::kInvalidArgument);
        return rc;
    } catch (const ApexError &e) {
        std::fprintf(stderr, "apexc: %s\n",
                     e.status().toString().c_str());
        return exitCodeFor(e.code());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "apexc: unexpected error: %s\n",
                     e.what());
        return exitCodeFor(ErrorCode::kInternal);
    }
}
