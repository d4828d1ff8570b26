#ifndef APEX_CORE_SWEEP_H_
#define APEX_CORE_SWEEP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/deadline.hpp"
#include "core/evaluate.hpp"
#include "core/status.hpp"
#include "runtime/cache.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * Fault-tolerant, parallel DSE sweep driver.
 *
 * runSweep() evaluates every (application, PE variant) pair of the
 * paper's Sec. 5 recipe and never lets one failure abort the sweep:
 * a failing stage — validation, mining, merging, mapping, placement,
 * routing or evaluation — is recorded as a StageFailure in the
 * ExplorationReport (stage name, error code, attempts consumed) and
 * only the affected pair (or app, when its graph is invalid) is
 * skipped.  The per-pair diagnostics trails are merged into the
 * report under an "app/variant" scope so recovered retries stay
 * observable after the sweep.
 *
 * Parallel execution (jobs > 1) fans the sweep out on the thread
 * pool: one variant-construction task per application, which submits
 * one evaluation task per (app, variant) cell once it has built the
 * variants.  Every task writes only its own preallocated slot and
 * the report is assembled in a single sequential pass afterwards in
 * the same (app, variant) order the sequential driver uses, so the
 * outcome — entries, failures, diagnostics, ordering — is
 * byte-identical for any job count.
 *
 * Durability (see core/journal.hpp): with a journal_dir set, every
 * completed build and evaluation is checkpointed to a crash-safe
 * write-ahead journal before the sweep moves on, and resume = true
 * replays a prior journal so only the missing cells are recomputed —
 * the resumed report is byte-identical to an uninterrupted run.  The
 * sweep keeps each build outcome only as the journal's AppRecord, and
 * an app's outcome is its latest build: a partially journaled app is
 * rebuilt, its rebuild's record is what the report (and, when it
 * differs, the journal) says, and a replayed result stands only for
 * a cell that rebuild produced.
 *
 * Pressure (see core/deadline.hpp): `deadline` bounds the whole
 * sweep (cells that cannot start in time fail as kTimeout, not as a
 * hang) and `cell_deadline_ms` bounds each cell; a cell whose budget
 * expires is retried once with cheap fallback knobs and, when that
 * succeeds, marked degraded in the report instead of failing.
 */

namespace apex::core {

/** Where evaluations execute. */
enum class IsolateMode {
    /** Cells run on the in-process ThreadPool (the default and the
     * determinism oracle). */
    kInProcess,
    /**
     * Cells run in forked worker processes behind the supervised
     * WorkerPool (runtime/worker_pool.hpp): a crashing, hanging or
     * OOM-killed cell costs one worker, not the sweep.  A cell that
     * kills its worker on every allowed attempt (1 + cell_retries)
     * is quarantined — recorded as a kWorkerCrashed failure with the
     * death cause, journaled durably, and the sweep continues.  With
     * no faults the report is byte-identical to kInProcess at any
     * job count.
     */
    kProcess,
};

/** One completed cell evaluation, reported through
 * SweepOptions::progress while the sweep is still running. */
struct SweepProgress {
    int done = 0;  ///< Evaluations completed so far (this sweep).
    int total = 0; ///< Upper bound: 3 recipe cells per application.
    std::string app;
    std::string variant;
};

/** Sweep configuration. */
struct SweepOptions {
    EvalLevel level = EvalLevel::kPostMapping;
    EvalOptions eval;

    /**
     * Worker lanes (threads + the participating caller).  1 runs the
     * deterministic inline schedule; <= 0 asks the runtime for its
     * default ($APEX_JOBS, else hardware concurrency).  Ignored when
     * @ref pool is set.
     */
    int jobs = 1;
    /** External pool to run on (shared across sweeps); null =>
     * the sweep owns a pool sized by @ref jobs. */
    runtime::ThreadPool *pool = nullptr;
    /** Memoization cache for evaluate(); overrides eval.cache.  Under
     * kProcess the supervisor alone reads and writes it: cached cells
     * never reach a worker, and what workers compute is stored here
     * as evaluate() would store it (degraded results excepted). */
    runtime::ArtifactCache *cache = nullptr;
    /** Cooperative cancellation: when it reads true, unstarted cells
     * finish as kCancelled skips instead of evaluating. */
    const std::atomic<bool> *cancel = nullptr;
    /** Invoked after each fresh cell evaluation completes, from
     * whichever lane (or worker supervisor) finished it — the callee
     * must be thread-safe.  Replayed cells do not fire.  Purely
     * observational: it never affects the report. */
    std::function<void(const SweepProgress &)> progress;

    /** Wall-clock bound for the whole sweep.  Cells (and builds) that
     * cannot start before it expires are recorded as kTimeout
     * failures; running stages observe it cooperatively. */
    Deadline deadline;
    /**
     * Per-cell wall-clock budget in milliseconds (<= 0: none).  Each
     * evaluation runs under the tighter of this and the sweep
     * deadline; on expiry it is retried once with cheap fallback
     * knobs (1 placement attempt, no track escalation, at most 2
     * fabric growths) under the sweep deadline only, and a result
     * salvaged that way is marked EvalResult::degraded.
     */
    double cell_deadline_ms = 0.0;
    /** Directory for the crash-safe sweep journal (the CLI passes its
     * cache dir).  Empty disables journaling. */
    std::string journal_dir;
    /** Replay the journal in journal_dir: cells completed by a prior
     * (possibly crashed) run are restored instead of re-evaluated.
     * A journal whose configuration fingerprint does not match is
     * ignored and restarted.  Requires journal_dir. */
    bool resume = false;

    /** Execution substrate for evaluations (builds always run
     * in-process: fork-COW then shares the built variants with every
     * worker for free). */
    IsolateMode isolate = IsolateMode::kInProcess;
    /** kProcess only: re-dispatches allowed after a worker-killing
     * attempt before the cell is quarantined. */
    int cell_retries = 2;
    /** kProcess only: worker proof-of-life cadence. */
    double worker_heartbeat_ms = 25.0;
    /** kProcess only: silence budget before a busy worker is
     * declared hung and SIGKILLed. */
    double worker_liveness_timeout_ms = 2000.0;

    /**
     * Request trace id stamped on every span this sweep records —
     * build/eval tasks on pool lanes and (kProcess) dispatched cells
     * in forked workers — so a multi-request daemon can slice one
     * request's spans back out (service `trace`).  0 = unscoped.
     * Purely observational: never affects the outcome.
     */
    std::uint64_t trace_id = 0;
};

/** One completed (application, variant) evaluation. */
struct SweepEntry {
    std::string app;
    std::string variant;
    EvalResult result;
};

/** Runtime counters of one sweep (reported under --diagnostics). */
struct SweepRuntimeStats {
    int jobs = 1;                  ///< Lanes actually used.
    long tasks_run = 0;            ///< Graph tasks executed.
    long tasks_stolen = 0;         ///< Executed off a foreign lane.
    long cache_hits = 0;           ///< evaluate() cache hits.
    long cache_misses = 0;         ///< evaluate() cache misses.
    long cells_replayed = 0;       ///< Restored from the journal.
    long cells_degraded = 0;       ///< Completed on the cheap path.
    long non_optimal_cliques = 0;  ///< Clique searches cut short.
    long mine_capped_levels = 0;   ///< Mining levels truncated at the
                                   ///< max_patterns_per_level cap.
    long worker_restarts = 0;      ///< Workers re-forked (kProcess).
    long worker_retries = 0;       ///< Cells re-dispatched (kProcess).
    long worker_quarantined = 0;   ///< Cells given up on (kProcess).
    double build_ms = 0.0;         ///< CPU ms in variant construction.
    double eval_ms = 0.0;          ///< CPU ms in evaluations.
    double wall_ms = 0.0;          ///< End-to-end sweep wall time.

    /** "jobs=8 tasks=24 stolen=7 cache=12/12 ... wall=103.4ms". */
    std::string toString() const;
};

/** Everything a sweep produced. */
struct SweepOutcome {
    std::vector<SweepEntry> entries; ///< Successful evaluations.
    ExplorationReport report;        ///< Roll-up incl. failures.
    SweepRuntimeStats stats;         ///< Parallel-runtime counters.
    /**
     * Non-ok when journaling was requested but could not keep its
     * durability promise (open failure, or a failed append — disk
     * full, I/O error — that left the on-disk log incomplete).  The
     * evaluations above are still valid; the CLI turns this into a
     * loud exit 17 because a later --resume against that journal
     * would silently redo (or mis-trust) work.  Always ok when
     * journal_dir was empty.
     */
    Status durability;
};

/** Parse an evaluation level name (map | pnr | pipe); any other name
 * is kInvalidArgument, never a silent fallback. */
Result<EvalLevel> parseEvalLevel(const std::string &name);

/** Parse an isolation mode name (thread | process). */
Result<IsolateMode> parseIsolateMode(const std::string &name);

/**
 * Fingerprint of every input that shapes a sweep's work: the app set,
 * the recipe, the evaluation knobs, the tech model and the explorer
 * configuration.  Deadlines and job counts are deliberately excluded
 * — they decide how fast cells complete, never what they contain —
 * so a resumed run may use different budgets.  Doubles as the
 * journal identity and the service layer's request-coalescing key.
 */
std::uint64_t sweepFingerprint(const std::vector<apps::AppInfo> &apps,
                               const Explorer &explorer,
                               const model::TechModel &tech,
                               const SweepOptions &options);

/** Evaluate @p apps across the variant recipe, surviving failures.
 * Stage failures are statuses in the report; an exception escaping a
 * task is rethrown once every task has finished (lowest task first,
 * in the sequential schedule's order). */
SweepOutcome runSweep(const std::vector<apps::AppInfo> &apps,
                      const Explorer &explorer,
                      const model::TechModel &tech,
                      const SweepOptions &options = {});

} // namespace apex::core

#endif // APEX_CORE_SWEEP_H_
