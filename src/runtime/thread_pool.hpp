#ifndef APEX_RUNTIME_THREAD_POOL_H_
#define APEX_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/**
 * @file
 * Work-stealing thread pool for the parallel DSE runtime.
 *
 * A pool with parallelism P owns P-1 worker threads; the P-th lane is
 * the caller itself, which participates through tryRunOne() while it
 * waits (parallelFor, the sweep's fan-out).  Each worker owns a deque:
 * local work is popped LIFO (cache-hot), and an idle worker steals
 * FIFO from a victim chosen round-robin, so the oldest — typically
 * largest — subtrees migrate first.  Submissions from outside the
 * pool land in a shared inbox deque that every worker steals from.
 *
 * Tasks must not block on other pool tasks (they may *help* via
 * tryRunOne or parallelFor, which never blocks).  Under that
 * contract the pool is deadlock-free: any thread that waits for work
 * it scheduled also executes pending work itself.
 *
 * A pool with parallelism <= 1 starts no threads; submit() runs the
 * task inline, which keeps the sequential path allocation-free and
 * byte-identical to the pre-runtime behavior.
 */

namespace apex::runtime {

/** Work-stealing thread pool.  Its work is counted process-wide in the
 * telemetry registry: `apex.pool.tasks_run` (tasks executed to
 * completion) and `apex.pool.tasks_stolen` (executed from another
 * lane's deque). */
class ThreadPool {
  public:
    /** @param parallelism Total lanes incl. the caller; clamped >= 1. */
    explicit ThreadPool(int parallelism = defaultParallelism());
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (worker threads + the participating caller). */
    int parallelism() const { return parallelism_; }

    /**
     * Enqueue @p fn.  Called from a worker of this pool, it lands in
     * that worker's own deque; from any other thread, in the shared
     * inbox.  With parallelism <= 1 the task runs inline instead.
     */
    void submit(std::function<void()> fn);

    /**
     * Execute one pending task on the calling thread, if any.
     * @return true when a task ran.  This is the "help while
     * waiting" primitive — safe from any thread, including workers.
     */
    bool tryRunOne();

    /** $APEX_JOBS when it is a whole positive integer, else hardware
     * concurrency. */
    static int defaultParallelism();

  private:
    struct Lane {
        std::mutex mutex;
        std::deque<std::function<void()>> deque;
    };

    void workerLoop(int self);
    bool popLane(int lane, bool back, std::function<void()> *fn);
    /** Steal one task, preferring lanes after @p self. */
    bool stealFrom(int self, std::function<void()> *fn);

    int parallelism_ = 1;
    /** Lanes [0, workers) are per-worker; lane [workers] is the
     * shared inbox for external submissions. */
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::thread> threads_;
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::atomic<bool> stop_{false};
    std::atomic<int> pending_{0};
};

/**
 * The pool for a job count: @p jobs lanes, or defaultParallelism()
 * when jobs <= 0; null when that is one lane, so the sequential path
 * runs inline without a pool.
 */
std::unique_ptr<ThreadPool> makePool(int jobs);

/**
 * Run fn(0..n-1) across the pool with the caller participating.
 * Iterations are claimed from an atomic counter, so the index
 * distribution is nondeterministic but every index runs exactly once;
 * callers needing determinism must make fn(i) write only to slot i.
 * The first exception (lowest index) is rethrown on the caller after
 * every iteration finished.  pool == nullptr or parallelism <= 1
 * degrades to a plain sequential loop.
 */
void parallelFor(ThreadPool *pool, int n,
                 std::function<void(int)> fn);

/**
 * parallelFor with indices claimed in contiguous blocks of @p chunk:
 * one fetch_add claims [base, base + chunk), amortizing the shared
 * counter and keeping adjacent slots on one lane when fn(i) is
 * fine-grained (e.g. the miner's per-candidate growth).  Semantics
 * are otherwise identical to parallelFor — every index runs exactly
 * once, the lowest-index exception is rethrown after all iterations
 * finish, and a null pool / parallelism <= 1 / chunk >= n degrades to
 * the plain sequential loop.
 */
void parallelForChunked(ThreadPool *pool, int n, int chunk,
                        std::function<void(int)> fn);

} // namespace apex::runtime

#endif // APEX_RUNTIME_THREAD_POOL_H_
