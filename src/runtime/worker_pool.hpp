#ifndef APEX_RUNTIME_WORKER_POOL_H_
#define APEX_RUNTIME_WORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"

/**
 * @file
 * Supervised multi-process worker pool: crash isolation for the DSE
 * sweep (and, eventually, the DSE-as-a-service daemon).
 *
 * The in-process ThreadPool shares one address space with the work it
 * runs, so a segfaulting placer or an OOM-killed clique search takes
 * the whole sweep down with it.  WorkerPool puts each unit of work
 * behind a process boundary instead: the supervisor forks N workers,
 * dispatches task payloads over length-framed fnv1a64-checksummed
 * pipes (runtime/wire.hpp), and treats a worker death as an *event* —
 * classify it, restart the worker under deterministic exponential
 * backoff, retry the task elsewhere, and quarantine a task that keeps
 * killing its workers so the rest of the batch still completes.
 *
 * Supervision tree:
 *
 *     supervisor (sweep process)
 *       ├── worker 0 ── req pipe ──▶ handler(task) ──▶ resp pipe
 *       ├── worker 1      (heartbeat frames interleave on resp)
 *       └── worker N-1
 *
 * Liveness is two independent signals: waitpid (the kernel tells us a
 * child died, and how) and heartbeats (a live-but-frozen child stops
 * emitting frames; after liveness_timeout_ms of silence while busy it
 * is SIGKILLed and classified as a hang).  Death causes:
 *
 *   - hang:  the supervisor itself killed the worker for silence;
 *   - oom:   SIGKILL from outside (the kernel OOM killer is the only
 *            expected sender once the supervisor's own kills are
 *            accounted);
 *   - crash: any other signal (SIGSEGV, SIGABRT, ...), a nonzero
 *            exit, or framing corruption on the result pipe (a
 *            garbled worker is indistinguishable from a crashed one).
 *
 * Task fate: a task whose worker died is retried (re-queued at the
 * front, so the retry happens promptly and ordinal-deterministic
 * fault windows land on the same task).  After 1 + task_retries
 * worker-killing attempts it is quarantined — returned to the caller
 * as kQuarantined with the death cause — and the batch continues.
 *
 * Determinism contract: run() returns outcomes indexed exactly like
 * the input task list, so callers assemble results in task order
 * regardless of which worker finished what when.  Restart backoff is
 * deterministic (base * 2^(consecutive_deaths-1), capped, no jitter).
 *
 * Fork-safety notes: stdio is flushed before every fork and workers
 * only ever leave via _Exit, so inherited buffers are never flushed
 * twice.  Workers are forked when run() is first called — fork-COW
 * shares whatever the caller built beforehand (e.g. merged PE
 * variants) with every worker for free.  SIGPIPE is ignored around
 * pipe writes; a dead peer is a Status, not a process death.
 */

namespace apex::runtime {

/** Why a worker died (classified by the supervisor). */
enum class WorkerDeathCause {
    kNone = 0,
    kCrash, ///< Fatal signal / nonzero exit / garbled result pipe.
    kOom,   ///< SIGKILL from outside the supervisor (OOM killer).
    kHang,  ///< Killed by the supervisor for heartbeat silence.
};

/** "crash", "oom", "hang" — stable names used in reports/journals. */
std::string_view workerDeathCauseName(WorkerDeathCause cause);

/** What finally happened to one task. */
enum class TaskFate {
    kDone,        ///< Handler response received.
    kQuarantined, ///< Killed its worker on every allowed attempt.
    kCancelled,   ///< Batch cancelled before the task completed.
};

/** Per-task result of WorkerPool::run(). */
struct WorkerTaskOutcome {
    TaskFate fate = TaskFate::kCancelled;
    WorkerDeathCause cause = WorkerDeathCause::kNone;
    int attempts = 0;       ///< Dispatches consumed (1 = first try).
    std::string response;   ///< Handler output (kDone only).
    double wall_ms = 0.0;   ///< Dispatch -> response wall time.
};

/** Aggregate supervisor statistics (mirrored into telemetry as
 * apex.worker.{restarts,retries,quarantined}). */
struct WorkerPoolStats {
    long forks = 0;       ///< Workers ever forked (initial + restarts).
    long restarts = 0;    ///< Workers re-forked after a death.
    long retries = 0;     ///< Tasks re-queued after a worker death.
    long quarantined = 0; ///< Tasks given up on.
};

struct WorkerPoolOptions {
    int workers = 1;
    /** Re-dispatches allowed after a worker-killing attempt; the
     * (task_retries + 1)th death quarantines the task. */
    int task_retries = 2;
    double heartbeat_ms = 25.0;
    /** Silence budget for a *busy* worker before it is declared hung
     * and SIGKILLed. */
    double liveness_timeout_ms = 2000.0;
    double backoff_base_ms = 10.0;
    double backoff_cap_ms = 1000.0;
    /** SIGTERM -> SIGKILL grace when cancelling / shutting down. */
    double shutdown_grace_ms = 2000.0;
    /** Cooperative cancel; polled by the supervisor loop. */
    const std::atomic<bool> *cancel = nullptr;
    /** Request trace id carried to each child in the task frame and
     * installed as its thread trace id before the handler runs, so
     * spans (and the handler itself, via currentTraceId()) stay
     * correlated to the request across the fork.  0 = unscoped. */
    std::uint64_t trace_id = 0;
};

/**
 * Forks `workers` children on first run(); each child loops reading
 * task frames, calling @p handler, and writing response frames.  The
 * handler runs *in the child*: it may crash, hang, or exhaust memory
 * without harming the supervisor.  Throwing from the handler exits
 * the child with a failure code (classified as a crash).
 */
class WorkerPool {
  public:
    using Handler = std::function<std::string(const std::string &)>;

    WorkerPool(Handler handler, WorkerPoolOptions options);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run every task to a final fate and return outcomes in task
     * order.  Serializes callers; the pool's workers are reused
     * across run() calls (and respawned on demand).
     */
    std::vector<WorkerTaskOutcome>
    run(const std::vector<std::string> &tasks);

    const WorkerPoolStats &stats() const { return stats_; }
    int parallelism() const { return options_.workers; }

  private:
    struct Worker;

    void spawnWorker(Worker &w);
    void stopWorker(Worker &w, bool kill_now);
    void shutdownAll();
    [[noreturn]] void workerMain(int req_fd, int resp_fd);

    Handler handler_;
    WorkerPoolOptions options_;
    WorkerPoolStats stats_;
    std::vector<Worker> workers_;
    std::uint64_t next_task_id_ = 1;
    bool shut_down_ = false;
};

} // namespace apex::runtime

#endif // APEX_RUNTIME_WORKER_POOL_H_
