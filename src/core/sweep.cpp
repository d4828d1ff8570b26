#include "core/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <sstream>

#include "core/journal.hpp"
#include "ir/signature.hpp"
#include "ir/validate.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/worker_pool.hpp"

namespace apex::core {

namespace {

/** Record a failed (app, variant) pair — or a whole app when
 * @p variant is empty — and keep sweeping. */
void
recordFailure(ExplorationReport &report, const std::string &app,
              const std::string &variant, Status status, int attempts)
{
    StageFailure f;
    f.app = app;
    f.variant = variant;
    f.stage = std::string(stageForCode(status.code()));
    f.status = std::move(status);
    f.attempts = std::max(1, attempts);

    DiagnosticRecord record;
    record.severity = Severity::kError;
    record.stage = f.stage;
    record.code = f.status.code();
    record.message = f.status.toString();
    record.attempt = f.attempts;
    record.scope = variant.empty() ? app : app + "/" + variant;
    report.diagnostics.report(std::move(record));

    report.failures.push_back(std::move(f));
    ++report.skipped;
}

/** Fixed identity of the (up to) three recipe cells per app, so cell
 * slots exist before variant construction runs. */
enum RecipeCell { kBaseline = 0, kSubset = 1, kSpecialized = 2 };

static_assert(kJournalCellsPerApp == 3,
              "journal cell layout mirrors the recipe cells");

/**
 * One application's state; written only by this app's tasks (or by
 * the sequential journal replay before the fan-out).  The build
 * outcome is the journal's own record, so what the report says and
 * what the journal says come from one value.
 */
struct AppSlot {
    /** The build outcome the report uses: the journaled record of a
     * fully journaled app, else this run's build.  Empty: the build
     * was cancelled.  A build the sweep deadline kept from starting
     * is a never-journaled record whose validate_status is the
     * kTimeout (the whole app is skipped). */
    std::optional<SweepJournal::AppRecord> build;
    /** The variants this run built (none for a replayed app). */
    std::array<std::optional<PeVariant>, kJournalCellsPerApp> variants;
    /** Per cell: the evaluation outcome, replayed or fresh.  Empty:
     * cancelled before evaluation. */
    std::array<std::optional<EvalResult>, kJournalCellsPerApp> results;
};

/** The result of a cell the sweep deadline kept from starting: it is
 * reported like any failure and never journaled. */
EvalResult
deadlineSkippedCell()
{
    EvalResult r;
    r.status = Status(ErrorCode::kTimeout,
                      "sweep deadline expired before evaluation");
    return r;
}

using Clock = std::chrono::steady_clock;

long
elapsedUs(Clock::time_point from)
{
    return static_cast<long>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - from)
            .count());
}

} // namespace

// Declared in sweep.hpp; see the header comment.  Defined outside the
// anonymous namespace because the service layer keys request
// coalescing on it.
std::uint64_t
sweepFingerprint(const std::vector<apps::AppInfo> &apps,
                 const Explorer &explorer,
                 const model::TechModel &tech,
                 const SweepOptions &options)
{
    ir::Fnv64 f;
    f.mix(static_cast<std::uint64_t>(options.level));
    const EvalOptions &e = options.eval;
    f.mix(static_cast<std::uint64_t>(e.fabric_width));
    f.mix(static_cast<std::uint64_t>(e.fabric_height));
    f.mix(static_cast<std::uint64_t>(e.auto_grow_fabric));
    f.mix(static_cast<std::uint64_t>(e.max_fabric_growths));
    f.mix(static_cast<std::uint64_t>(e.placer_seed));
    f.mix(static_cast<std::uint64_t>(e.place_retries));
    f.mix(static_cast<std::uint64_t>(e.route_track_escalations));
    f.mix(techFingerprint(tech));
    const ExplorerOptions &x = explorer.options();
    f.mix(static_cast<std::uint64_t>(x.miner.min_support));
    f.mix(static_cast<std::uint64_t>(x.miner.max_pattern_nodes));
    f.mix(static_cast<std::uint64_t>(x.miner.mine_constants));
    f.mix(static_cast<std::uint64_t>(x.miner.max_patterns_per_level));
    f.mix(static_cast<std::uint64_t>(x.miner.metric));
    // max_embeddings shapes results (truncated support lists), so it
    // is part of the identity.
    f.mix(static_cast<std::uint64_t>(x.miner.max_embeddings));
    f.mix(static_cast<std::uint64_t>(x.min_mis));
    f.mix(static_cast<std::uint64_t>(x.max_merged_subgraphs));
    f.mix(static_cast<std::uint64_t>(x.merge.clique_budget));
    f.mix(static_cast<std::uint64_t>(apps.size()));
    for (const apps::AppInfo &app : apps) {
        f.mix(app.name);
        f.mix(ir::fingerprint(app.graph));
        f.mixDouble(app.work_items_per_frame);
        f.mix(static_cast<std::uint64_t>(app.items_per_cycle));
    }
    return f.digest();
}

namespace {

/** Cheap fallback knobs for the degraded retry of a timed-out cell:
 * one placement attempt, no track escalation, at most two fabric
 * growths, bounded only by the sweep deadline. */
EvalOptions
degradedOptions(const EvalOptions &base, const Deadline &sweep)
{
    EvalOptions cheap = base;
    cheap.deadline = sweep;
    cheap.place_retries = 1;
    cheap.route_track_escalations = 0;
    cheap.max_fabric_growths = 2;
    return cheap;
}

/**
 * One guarded cell evaluation: exceptions become failure results, and
 * a cell whose *cell* budget ran out while the sweep still has time
 * is retried once with the cheap fallback knobs (degraded path).
 * Shared verbatim by the in-process eval tasks and the process-mode
 * worker children, which is what keeps the two modes byte-identical.
 */
EvalResult
evaluateCellGuarded(const apps::AppInfo &app, const PeVariant &variant,
                    const model::TechModel &tech,
                    const EvalOptions &eval_opts,
                    const SweepOptions &options)
{
    const auto guarded = [&](const EvalOptions &opts) {
        EvalResult r;
        try {
            r = evaluate(app, variant, options.level, tech, opts);
        } catch (const ApexError &e) {
            r.status = e.status().withContext(
                "evaluating '" + app.name + "' on '" + variant.name +
                "'");
        } catch (const std::exception &e) {
            r.status =
                Status(ErrorCode::kInternal,
                       std::string("unexpected exception: ") + e.what());
        }
        return r;
    };
    const bool cell_bounded = options.cell_deadline_ms > 0;
    EvalOptions local = eval_opts;
    local.deadline =
        cell_bounded
            ? Deadline::earliest(
                  options.deadline,
                  Deadline::after(options.cell_deadline_ms))
            : options.deadline;
    EvalResult r = guarded(local);
    // Graceful degradation: the *cell* budget ran out but the sweep
    // still has time — salvage the cell with the cheap knobs instead
    // of failing.
    if (!r.success && r.status.code() == ErrorCode::kTimeout &&
        cell_bounded && !options.deadline.expired()) {
        EvalResult first = std::move(r);
        r = guarded(degradedOptions(eval_opts, options.deadline));
        if (r.success)
            r.degraded = true;
        r.pnr_attempts += first.pnr_attempts;
        Diagnostics trail;
        trail.merge(first.diagnostics);
        trail.warning("deadline",
                      "cell deadline expired; retrying with "
                      "degraded knobs (1 placement attempt, "
                      "no track escalation, <= 2 fabric "
                      "growths)");
        trail.merge(r.diagnostics);
        r.diagnostics = std::move(trail);
    }
    return r;
}

/**
 * The sweep's two-level fan-out on the work-stealing pool.  Without
 * a pool (or with parallelism <= 1) spawn() runs the task inline, so
 * a build that spawns its cells reproduces the sequential schedule.
 * With one, tasks go to the pool and drain() helps until every task,
 * including those spawned by other tasks, has finished.  The pool's
 * workers do not catch exceptions, so spawn() does: the count still
 * drops, and drain() rethrows the lowest-ordinal exception afterwards
 * (parallelFor's contract).
 */
class FanOut {
  public:
    explicit FanOut(runtime::ThreadPool *pool)
        : pool_(pool != nullptr && pool->parallelism() > 1 ? pool
                                                           : nullptr)
    {
    }

    // Pool tasks hold `this`.
    FanOut(const FanOut &) = delete;
    FanOut &operator=(const FanOut &) = delete;

    template <typename Task>
    void spawn(int ordinal, Task task)
    {
        if (pool_ == nullptr) {
            guarded(ordinal, task);
            return;
        }
        ++outstanding_;
        pool_->submit([this, ordinal, task = std::move(task)] {
            guarded(ordinal, task);
            // Last touch of `this`: once the count reads zero the
            // caller's drain() returns and destroys the fan-out.
            --outstanding_;
        });
    }

    void drain()
    {
        // Help instead of blocking; when nothing is runnable the
        // remaining tasks are running on other lanes, so nap.
        while (outstanding_ > 0)
            if (!pool_->tryRunOne())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    template <typename Task>
    void guarded(int ordinal, const Task &task)
    {
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (ordinal < error_ordinal_) {
                error_ordinal_ = ordinal;
                error_ = std::current_exception();
            }
        }
    }

    runtime::ThreadPool *const pool_;
    std::atomic<int> outstanding_{0};
    std::mutex error_mutex_;
    std::exception_ptr error_;
    int error_ordinal_ = INT_MAX;
};

/** The process-wide `apex.sweep.*` counters SweepRuntimeStats reads.
 * runSweep snapshots them on entry and reports the delta, so the old
 * per-sweep semantics survive the registry migration. */
struct SweepCounters {
    telemetry::Counter &tasks =
        telemetry::counter("apex.sweep.tasks");
    telemetry::Counter &build_us =
        telemetry::counter("apex.sweep.build_us");
    telemetry::Counter &eval_us =
        telemetry::counter("apex.sweep.eval_us");
    telemetry::Counter &cells_replayed =
        telemetry::counter("apex.sweep.cells_replayed");
    telemetry::Counter &cells_degraded =
        telemetry::counter("apex.sweep.cells_degraded");
    telemetry::Counter &non_optimal_cliques =
        telemetry::counter("apex.sweep.non_optimal_cliques");
    telemetry::Counter &mine_capped_levels =
        telemetry::counter("apex.sweep.mine_capped_levels");
    telemetry::Counter &tasks_stolen =
        telemetry::counter("apex.pool.tasks_stolen");
    telemetry::Counter &cache_hits =
        telemetry::counter("apex.cache.hits");
    telemetry::Counter &cache_misses =
        telemetry::counter("apex.cache.misses");
};

SweepCounters &
sweepCounters()
{
    static SweepCounters *counters = new SweepCounters();
    return *counters;
}

/** Aggregate the spans this sweep emitted into per-(cell, stage)
 * wall-time rows.  @p first_event is the size of the collected event
 * store when the sweep started (events before it belong to earlier
 * work in the process). */
void
aggregateStageTimes(std::size_t first_event,
                    ExplorationReport *report)
{
    telemetry::collect();
    const std::vector<telemetry::SpanEvent> &evs =
        telemetry::events();
    std::map<std::pair<std::string, std::string>,
             std::pair<double, long>>
        rows;
    for (std::size_t i = first_event; i < evs.size(); ++i) {
        auto &row = rows[{evs[i].scope, evs[i].name}];
        row.first += evs[i].dur_us / 1e3;
        row.second += 1;
    }
    report->stage_times.reserve(rows.size());
    for (const auto &[key, val] : rows) {
        StageTime t;
        t.scope = key.first;
        t.stage = key.second;
        t.ms = val.first;
        t.count = val.second;
        report->stage_times.push_back(std::move(t));
    }
}

} // namespace

std::string
SweepRuntimeStats::toString() const
{
    char buf[400];
    std::snprintf(buf, sizeof buf,
                  "jobs=%d tasks=%ld stolen=%ld cache=%ld/%ld "
                  "replayed=%ld degraded=%ld nonopt_cliques=%ld "
                  "mine_capped=%ld "
                  "restarts=%ld retries=%ld quarantined=%ld "
                  "build=%.2fms eval=%.2fms wall=%.2fms",
                  jobs, tasks_run, tasks_stolen, cache_hits,
                  cache_hits + cache_misses, cells_replayed,
                  cells_degraded, non_optimal_cliques,
                  mine_capped_levels,
                  worker_restarts, worker_retries,
                  worker_quarantined, build_ms, eval_ms, wall_ms);
    return buf;
}

Result<EvalLevel>
parseEvalLevel(const std::string &name)
{
    if (name == "map")
        return EvalLevel::kPostMapping;
    if (name == "pnr")
        return EvalLevel::kPostPnr;
    if (name == "pipe")
        return EvalLevel::kPostPipelining;
    return Status(ErrorCode::kInvalidArgument,
                  "unknown --level '" + name +
                      "' (expected map, pnr or pipe)");
}

Result<IsolateMode>
parseIsolateMode(const std::string &name)
{
    if (name == "thread")
        return IsolateMode::kInProcess;
    if (name == "process")
        return IsolateMode::kProcess;
    return Status(ErrorCode::kInvalidArgument,
                  "unknown --isolate mode '" + name +
                      "' (expected thread or process)");
}

SweepOutcome
runSweep(const std::vector<apps::AppInfo> &apps,
         const Explorer &explorer, const model::TechModel &tech,
         const SweepOptions &options)
{
    const Clock::time_point wall_start = Clock::now();
    SweepOutcome out;
    // Declared before the span so the span closes (and records the
    // id) before the previous scope is restored.
    telemetry::ScopedTraceId sweep_trace;
    if (options.trace_id != 0)
        sweep_trace.set(options.trace_id);
    APEX_SPAN("sweep", {{"apps", static_cast<long long>(apps.size())}});

    // Event-store position when this sweep starts: only spans emitted
    // from here on feed the report's stage-time breakdown.
    std::size_t first_event = 0;
    if (telemetry::tracingEnabled()) {
        telemetry::collect();
        first_event = telemetry::events().size();
    }

    // Resolve the execution resources.  jobs == 1 (the default) means
    // no pool at all: every task runs inline as it is spawned, which
    // is exactly the sequential driver's schedule (including
    // fault-injection call ordinals).
    runtime::ThreadPool *pool = options.pool;
    std::unique_ptr<runtime::ThreadPool> owned_pool;
    if (pool == nullptr) {
        owned_pool = runtime::makePool(options.jobs);
        pool = owned_pool.get();
    }
    out.stats.jobs = pool != nullptr ? pool->parallelism() : 1;

    EvalOptions eval_opts = options.eval;
    if (options.cache != nullptr)
        eval_opts.cache = options.cache;
    runtime::ArtifactCache *cache = eval_opts.cache;

    const std::atomic<bool> *cancel = options.cancel;
    std::vector<AppSlot> slots(apps.size());

    // Progress reporting: cells completed so far, against the recipe
    // upper bound.  Shared by the in-process eval tasks and the
    // worker-pool integration loop below.
    std::atomic<int> progress_done{0};
    const int progress_total = static_cast<int>(apps.size()) * 3;
    const auto reportProgress = [&options, &progress_done,
                                 progress_total](
                                    const std::string &app,
                                    const std::string &variant) {
        if (!options.progress)
            return;
        SweepProgress p;
        p.done = progress_done.fetch_add(1) + 1;
        p.total = progress_total;
        p.app = app;
        p.variant = variant;
        options.progress(p);
    };
    SweepCounters &counters = sweepCounters();
    const long long tasks_before = counters.tasks.value();
    const long long build_us_before = counters.build_us.value();
    const long long eval_us_before = counters.eval_us.value();
    const long long stolen_before = counters.tasks_stolen.value();
    const long long hits_before = counters.cache_hits.value();
    const long long misses_before = counters.cache_misses.value();

    // --- Durability: open (and maybe replay) the sweep journal ------
    // An open failure leaves the journal inactive; the sweep still
    // runs (completed work is worth reporting), but the broken
    // durability promise is surfaced in out.durability so the CLI
    // can fail loudly instead of letting the user believe the run
    // was checkpointed.
    SweepJournal journal;
    Status durability;
    if (!options.journal_dir.empty()) {
        durability =
            journal
                .open(options.journal_dir,
                      sweepFingerprint(apps, explorer, tech, options),
                      apps.size(), options.resume)
                .withContext("opening sweep journal in '" +
                             options.journal_dir + "'");
    }

    // Restore journaled outcomes sequentially, before any task runs.
    // An app's outcome is its latest build.  A fully journaled app
    // (every cell its record lists has a result) keeps its journaled
    // record and is not rebuilt.  Any other journaled app is rebuilt:
    // the rebuild's record replaces the journaled one, and a replayed
    // result stands only for a cell the rebuild produced (the build
    // task drops the others).
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const SweepJournal::AppRecord *rec = journal.appRecord(i);
        if (rec == nullptr)
            continue;
        AppSlot &slot = slots[i];
        bool complete = true;
        for (int j = 0; j < kJournalCellsPerApp; ++j) {
            if (!rec->cells[j].has_variant)
                continue;
            if (const SweepJournal::CellRecord *done =
                    journal.cellRecord(i, j))
                slot.results[j] = done->result;
            else
                complete = false;
        }
        if (complete)
            slot.build = *rec;
    }
    out.stats.cells_replayed = journal.replayedCells();
    counters.cells_replayed.add(journal.replayedCells());

    // Both isolation modes finish a fresh cell here: slot, journal
    // append (a crash point), progress and counters.  Only fresh
    // cells count as degraded: a replayed cell did not degrade again.
    std::atomic<long> cells_degraded{0};
    const auto finishCell = [&](std::size_t i, int j, EvalResult result,
                                long eval_us) {
        counters.tasks.add(1);
        counters.eval_us.add(eval_us);
        if (result.success && result.degraded) {
            cells_degraded.fetch_add(1);
            counters.cells_degraded.add(1);
        }
        AppSlot &slot = slots[i];
        SweepJournal::CellRecord rec;
        rec.app = static_cast<int>(i);
        rec.cell = j;
        rec.variant = slot.build->cells[j].variant;
        rec.result = std::move(result);
        journal.appendCell(rec);
        slot.results[j] = std::move(rec.result);
        reportProgress(apps[i].name, rec.variant);
    };

    // --- Fan out: each build hands its app's cells to the pool ------
    // Every task writes only its own slot; all ordering-sensitive
    // work (report assembly) happens sequentially afterwards.
    const auto buildApp = [&](std::size_t i) {
        const apps::AppInfo &app = apps[i];
        AppSlot &slot = slots[i];
        if (slot.build.has_value()) // fully journaled
            return;
        if (cancel != nullptr && cancel->load())
            return;
        SweepJournal::AppRecord rec;
        rec.app = static_cast<int>(i);
        if (options.deadline.expired()) {
            rec.validate_status =
                Status(ErrorCode::kTimeout,
                       "sweep deadline expired before variant "
                       "construction");
            slot.build = std::move(rec);
            return;
        }
        telemetry::ScopedCell cell_scope;
        if (telemetry::tracingEnabled())
            cell_scope.set(app.name);
        // Pool lanes do not inherit the caller's trace id; each task
        // installs it for its own spans.
        telemetry::ScopedTraceId trace_scope;
        if (options.trace_id != 0)
            trace_scope.set(options.trace_id);
        APEX_SPAN("build", {{"app", app.name}});
        telemetry::StageTimer timer(
            telemetry::histogram("apex.build.ms"));
        const Clock::time_point t0 = Clock::now();
        counters.tasks.add(1);

        // Boundary validation: a corrupt application skips only
        // itself, never the sweep.
        if (Status s = ir::validate(app.graph); !s.ok()) {
            rec.validate_status = std::move(s).withContext(
                "validating application '" + app.name + "'");
        } else {
            slot.variants[kBaseline] = explorer.baselineVariant();
            slot.variants[kSubset] = explorer.subsetVariant(app);
            const int k = explorer.options().max_merged_subgraphs;
            const std::string spec_name =
                "pe" + std::to_string(k + 1) + "_" + app.name;
            const auto analysis = explorer.analyze(app);
            auto v = analysis.ok()
                         ? explorer.specializedVariant(*analysis, k)
                         : analysis.status().withContext(
                               "building variant '" + spec_name + "'");
            if (v.ok()) {
                slot.variants[kSpecialized] = std::move(v).value();
            } else {
                rec.spec_failed = true;
                rec.spec_name = spec_name;
                rec.spec_status = v.status();
            }
            for (int j = 0; j < kJournalCellsPerApp; ++j) {
                if (!slot.variants[j].has_value())
                    continue;
                const PeVariant &built = *slot.variants[j];
                rec.cells[j] = {true, built.name,
                                built.non_optimal_merges,
                                built.merge_timeouts,
                                built.mine_capped_levels};
            }
        }
        for (int j = 0; j < kJournalCellsPerApp; ++j)
            if (!rec.cells[j].has_variant)
                slot.results[j].reset();
        // A no-op when it matches the replayed record.
        journal.appendApp(rec);
        slot.build = std::move(rec);
        counters.build_us.add(elapsedUs(t0));
    };
    const auto evalCell = [&](std::size_t i, int j) {
        AppSlot &slot = slots[i];
        if (slot.results[j].has_value()) // replayed from the journal
            return;
        if (cancel != nullptr && cancel->load())
            return;
        if (!slot.variants[j].has_value())
            return;
        if (options.deadline.expired()) {
            slot.results[j] = deadlineSkippedCell();
            return;
        }
        telemetry::ScopedTraceId trace_scope;
        if (options.trace_id != 0)
            trace_scope.set(options.trace_id);
        const Clock::time_point t0 = Clock::now();
        EvalResult r = evaluateCellGuarded(apps[i], *slot.variants[j],
                                           tech, eval_opts, options);
        finishCell(i, j, std::move(r), elapsedUs(t0));
    };
    // Ordinals follow the sequential schedule (build i, then cells
    // i#0..i#2), which is also the order inline spawns run in.
    FanOut fan_out(pool);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const int ordinal = 4 * static_cast<int>(i);
        fan_out.spawn(ordinal, [&, i, ordinal] {
            buildApp(i);
            // Process isolation evaluates behind the worker pool
            // after the builds; only the in-process mode spawns cells.
            if (options.isolate != IsolateMode::kInProcess)
                return;
            for (int j = 0; j < 3; ++j)
                fan_out.spawn(ordinal + 1 + j,
                              [&evalCell, i, j] { evalCell(i, j); });
        });
    }
    fan_out.drain();

    // --- Process isolation: dispatch evaluations to forked workers --
    // The supervisor owns every cache read and write: a cell the
    // artifact cache holds finishes here through evaluate()'s own
    // lookup and never reaches a worker (a fully cached sweep forks
    // nothing), and each result a worker computes is stored under the
    // key evaluate() would have used.  Workers are forked *after* the
    // builds, so fork-COW hands every child the built variants for
    // free; each child evaluates cells it is sent and answers with the
    // exact journal payload bytes, checksummed end to end.  A worker
    // death is survived: retry up to cell_retries re-dispatches, then
    // quarantine the cell as a kWorkerCrashed failure with its death
    // cause and keep sweeping.
    if (options.isolate == IsolateMode::kProcess) {
        struct WorkItem {
            std::size_t app;
            int cell;
            std::string cache_key; ///< Empty without a cache.
        };
        std::vector<WorkItem> work;
        std::vector<std::string> payloads;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            for (int j = 0; j < 3; ++j) {
                AppSlot &slot = slots[i];
                if (slot.results[j].has_value() ||
                    !slot.variants[j].has_value())
                    continue;
                if (cancel != nullptr && cancel->load())
                    continue; // Assembly records the cancellation.
                if (options.deadline.expired()) {
                    // An expired sweep deadline forks no workers.
                    slot.results[j] = deadlineSkippedCell();
                    continue;
                }
                std::string key;
                if (cache != nullptr) {
                    const Clock::time_point t0 = Clock::now();
                    key = evalCacheKey(apps[i], *slot.variants[j],
                                       options.level, tech, eval_opts);
                    if (std::optional<EvalResult> hit =
                            cachedEvaluation(*cache, key)) {
                        finishCell(i, j, std::move(*hit),
                                   elapsedUs(t0));
                        continue;
                    }
                }
                work.push_back({i, j, std::move(key)});
                payloads.push_back(std::to_string(i) + " " +
                                   std::to_string(j));
            }
        }
        if (!work.empty()) {
            // Children never touch the artifact cache: concurrent
            // processes writing through one inherited fd, or racing
            // the supervisor's disk tier, would corrupt it.  The
            // supervisor stores their results below.
            EvalOptions child_eval = eval_opts;
            child_eval.cache = nullptr;
            const auto handler =
                [&apps, &slots, &tech, &child_eval,
                 &options](const std::string &task) -> std::string {
                std::istringstream is(task);
                std::size_t i = 0;
                int j = 0;
                if (!(is >> i >> j) || i >= apps.size() || j < 0 ||
                    j >= 3)
                    throw ApexError(
                        Status(ErrorCode::kInternal,
                               "malformed worker task '" + task +
                                   "'"));
                const AppSlot &slot = slots[i];
                SweepJournal::CellRecord rec;
                rec.app = static_cast<int>(i);
                rec.cell = j;
                rec.variant = slot.build->cells[j].variant;
                rec.result = evaluateCellGuarded(
                    apps[i], *slot.variants[j], tech, child_eval,
                    options);
                return SweepJournal::encodeCellRecordPayload(rec);
            };
            runtime::WorkerPoolOptions wopts;
            wopts.workers = out.stats.jobs;
            wopts.task_retries = options.cell_retries;
            wopts.heartbeat_ms = options.worker_heartbeat_ms;
            wopts.liveness_timeout_ms =
                options.worker_liveness_timeout_ms;
            wopts.cancel = cancel;
            wopts.trace_id = options.trace_id;
            runtime::WorkerPool workers(handler, wopts);
            const std::vector<runtime::WorkerTaskOutcome> outcomes =
                workers.run(payloads);

            for (std::size_t k = 0; k < work.size(); ++k) {
                const runtime::WorkerTaskOutcome &o = outcomes[k];
                if (o.fate == runtime::TaskFate::kCancelled)
                    continue; // Assembly records the cancellation.
                // Trust a payload's result, not its indices: the
                // journal key is the supervisor's.
                SweepJournal::CellRecord decoded;
                EvalResult r;
                if (o.fate == runtime::TaskFate::kDone &&
                    SweepJournal::decodeCellRecordPayload(o.response,
                                                          &decoded)) {
                    r = std::move(decoded.result);
                    // The record evaluate() memoizes in thread mode.
                    // Not a degraded result: thread mode files the
                    // retry's own record under the cheap knobs' key,
                    // and that record never leaves the child.
                    if (r.success && !r.degraded &&
                        !work[k].cache_key.empty())
                        cache->put(work[k].cache_key,
                                   serializeEvalResult(r));
                } else {
                    // Quarantined (or an undecodable response, which
                    // is a protocol-level crash): record a durable
                    // kWorkerCrashed failure so --resume replays the
                    // verdict instead of re-poisoning a worker.
                    r.pnr_attempts = std::max(1, o.attempts);
                    std::ostringstream msg;
                    msg << "worker died evaluating this cell ("
                        << runtime::workerDeathCauseName(
                               o.cause ==
                                       runtime::WorkerDeathCause::
                                           kNone
                                   ? runtime::WorkerDeathCause::
                                         kCrash
                                   : o.cause)
                        << "); quarantined after " << o.attempts
                        << (o.attempts == 1 ? " attempt"
                                            : " attempts");
                    r.status = Status(ErrorCode::kWorkerCrashed,
                                      msg.str());
                }
                finishCell(work[k].app, work[k].cell, std::move(r),
                           static_cast<long>(o.wall_ms * 1e3));
            }
            out.stats.worker_restarts = workers.stats().restarts;
            out.stats.worker_retries = workers.stats().retries;
            out.stats.worker_quarantined =
                workers.stats().quarantined;
        }
    }

    // --- Deterministic assembly ------------------------------------
    // One sequential pass in (app, recipe-cell) order reproduces the
    // sequential driver's report byte for byte: same entry order,
    // same failure order, same diagnostics scoping.  The report reads
    // each app's build record and its cells' results, replayed or
    // fresh alike, which is what makes a resumed report
    // byte-identical.
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const apps::AppInfo &app = apps[i];
        AppSlot &slot = slots[i];
        if (!slot.build.has_value()) {
            recordFailure(out.report, app.name, "",
                          Status(ErrorCode::kCancelled,
                                 "sweep cancelled before variant "
                                 "construction"),
                          1);
            continue;
        }
        const SweepJournal::AppRecord &build = *slot.build;
        if (!build.validate_status.ok()) {
            recordFailure(out.report, app.name, "",
                          build.validate_status, 1);
            continue;
        }
        if (build.spec_failed)
            recordFailure(out.report, app.name, build.spec_name,
                          build.spec_status, 1);

        for (int j = 0; j < 3; ++j) {
            const SweepJournal::CellInfo &info = build.cells[j];
            if (!info.has_variant)
                continue;
            const std::string &vname = info.variant;
            if (info.non_optimal_merges > 0) {
                // Surface clique searches that stopped before
                // optimality — previously a silent flag on the
                // merge result.
                DiagnosticRecord w;
                w.severity = Severity::kWarning;
                w.stage = "merge";
                w.code = info.merge_timeouts > 0
                             ? ErrorCode::kTimeout
                             : ErrorCode::kBudgetExhausted;
                w.message =
                    std::to_string(info.non_optimal_merges) +
                    " datapath merge(s) used a non-optimal clique "
                    "(budget exhausted" +
                    (info.merge_timeouts > 0
                         ? ", " +
                               std::to_string(info.merge_timeouts) +
                               " by deadline"
                         : std::string()) +
                    "); the PE may spend more area than necessary";
                w.scope = app.name + "/" + vname;
                out.report.diagnostics.report(std::move(w));
                // The diagnostic above is part of the byte-identical
                // report contract, but the runtime stat counts clique
                // searches cut short *this run* — a replayed app never
                // re-ran its merges, so recounting its journaled flags
                // would double-count under --resume.
                if (slot.variants[j].has_value()) {
                    out.stats.non_optimal_cliques +=
                        info.non_optimal_merges;
                    counters.non_optimal_cliques.add(
                        info.non_optimal_merges);
                }
            }
            if (info.mine_capped_levels > 0) {
                // Surface mining frontiers truncated at the
                // max_patterns_per_level safety valve — previously a
                // silent drop that could change which PE variants
                // exist downstream without any trace.
                DiagnosticRecord w;
                w.severity = Severity::kWarning;
                w.stage = "mine";
                w.code = ErrorCode::kBudgetExhausted;
                w.message =
                    "mining truncated " +
                    std::to_string(info.mine_capped_levels) +
                    " level(s) at max_patterns_per_level (" +
                    std::to_string(explorer.options()
                                       .miner.max_patterns_per_level) +
                    "); candidate patterns were dropped and a better "
                    "subgraph may have been missed — raise the cap "
                    "or min_support to mine exhaustively";
                w.scope = app.name + "/" + vname;
                out.report.diagnostics.report(std::move(w));
                // Same replay policy as non_optimal_cliques: the
                // diagnostic is part of the byte-identical report,
                // the runtime stat counts truncations *this run*.
                if (slot.variants[j].has_value()) {
                    out.stats.mine_capped_levels +=
                        info.mine_capped_levels;
                    counters.mine_capped_levels.add(
                        info.mine_capped_levels);
                }
            }
            if (!slot.results[j].has_value()) {
                recordFailure(out.report, app.name, vname,
                              Status(ErrorCode::kCancelled,
                                     "sweep cancelled before "
                                     "evaluation"),
                              1);
                continue;
            }
            EvalResult &r = *slot.results[j];
            out.report.diagnostics.merge(r.diagnostics,
                                         app.name + "/" + vname);
            if (r.success) {
                ++out.report.evaluated;
                if (r.degraded)
                    ++out.report.degraded;
                out.entries.push_back(
                    {app.name, vname, std::move(r)});
            } else {
                recordFailure(out.report, app.name, vname, r.status,
                              r.pnr_attempts);
            }
        }
    }

    // --- Runtime counters ------------------------------------------
    out.stats.cells_degraded = cells_degraded.load();
    // All counters live in the telemetry registry; this sweep's
    // contribution is the delta against the entry snapshots.
    out.stats.tasks_run =
        static_cast<long>(counters.tasks.value() - tasks_before);
    if (pool != nullptr)
        out.stats.tasks_stolen = static_cast<long>(
            counters.tasks_stolen.value() - stolen_before);
    if (cache != nullptr) {
        out.stats.cache_hits =
            static_cast<long>(counters.cache_hits.value() - hits_before);
        out.stats.cache_misses = static_cast<long>(
            counters.cache_misses.value() - misses_before);
    }
    out.stats.build_ms =
        static_cast<double>(counters.build_us.value() -
                            build_us_before) /
        1e3;
    out.stats.eval_ms = static_cast<double>(counters.eval_us.value() -
                                            eval_us_before) /
                        1e3;
    out.stats.wall_ms =
        static_cast<double>(elapsedUs(wall_start)) / 1e3;
    if (telemetry::tracingEnabled())
        aggregateStageTimes(first_event, &out.report);

    // --- Durability verdict ----------------------------------------
    // A journal that died mid-run (disk full during an append) left
    // an on-disk log missing outcomes; surface it after assembly so
    // the report above still carries everything that ran.
    if (durability.ok())
        durability = journal.lastError().withContext(
            "journaling sweep outcomes in '" + options.journal_dir +
            "'");
    if (!durability.ok()) {
        telemetry::counter("apex.resource.sweep_durability_failures")
            .add(1);
        out.report.diagnostics.error("durability", durability);
        out.durability = std::move(durability);
    }
    return out;
}

} // namespace apex::core
