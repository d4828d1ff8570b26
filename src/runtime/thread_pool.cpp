#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <exception>
#include <utility>

#include "runtime/telemetry.hpp"

namespace apex::runtime {

namespace {

/** Which pool (and lane) the current thread is a worker of. */
thread_local ThreadPool *tl_pool = nullptr;
thread_local int tl_lane = -1;

telemetry::Counter &
tasksRunCounter()
{
    static telemetry::Counter *c =
        &telemetry::counter("apex.pool.tasks_run");
    return *c;
}

telemetry::Counter &
tasksStolenCounter()
{
    static telemetry::Counter *c =
        &telemetry::counter("apex.pool.tasks_stolen");
    return *c;
}

} // namespace

int
ThreadPool::defaultParallelism()
{
    if (const char *env = std::getenv("APEX_JOBS")) {
        const int n = std::atoi(env);
        if (n >= 1)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int parallelism)
    : parallelism_(std::max(1, parallelism))
{
    const int workers = parallelism_ - 1;
    lanes_.reserve(workers + 1);
    for (int i = 0; i < workers + 1; ++i)
        lanes_.push_back(std::make_unique<Lane>());
    threads_.reserve(workers);
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true, std::memory_order_relaxed);
    wake_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> fn)
{
    if (parallelism_ <= 1) {
        // Sequential pool: run inline, preserving submission order.
        fn();
        tasksRunCounter().add(1);
        return;
    }
    const int lane = (tl_pool == this)
                         ? tl_lane
                         : static_cast<int>(lanes_.size()) - 1;
    {
        std::lock_guard<std::mutex> lock(lanes_[lane]->mutex);
        lanes_[lane]->deque.push_back(std::move(fn));
    }
    pending_.fetch_add(1, std::memory_order_release);
    wake_cv_.notify_one();
}

bool
ThreadPool::popLane(int lane, bool back, std::function<void()> *fn)
{
    Lane &l = *lanes_[lane];
    std::lock_guard<std::mutex> lock(l.mutex);
    if (l.deque.empty())
        return false;
    if (back) {
        *fn = std::move(l.deque.back());
        l.deque.pop_back();
    } else {
        *fn = std::move(l.deque.front());
        l.deque.pop_front();
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
ThreadPool::stealFrom(int self, std::function<void()> *fn)
{
    const int n = static_cast<int>(lanes_.size());
    for (int i = 1; i <= n; ++i) {
        const int victim = (self + i) % n;
        if (victim == self)
            continue;
        if (popLane(victim, /*back=*/false, fn)) {
            tasksStolenCounter().add(1);
            return true;
        }
    }
    return false;
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> fn;
    const bool own_worker = tl_pool == this;
    const int self = own_worker ? tl_lane
                                : static_cast<int>(lanes_.size()) - 1;
    bool got = popLane(self, /*back=*/own_worker, &fn);
    if (!got)
        got = stealFrom(self, &fn);
    if (!got)
        return false;
    fn();
    tasksRunCounter().add(1);
    return true;
}

void
ThreadPool::workerLoop(int self)
{
    tl_pool = this;
    tl_lane = self;
    telemetry::setLane(self);
    while (!stop_.load(std::memory_order_relaxed)) {
        if (tryRunOne())
            continue;
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
            return stop_.load(std::memory_order_relaxed) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
    }
    tl_pool = nullptr;
    tl_lane = -1;
    telemetry::setLane(-1);
}

void
parallelForChunked(ThreadPool *pool, int n, int chunk,
                   std::function<void(int)> fn)
{
    if (n <= 0)
        return;
    chunk = std::max(1, chunk);
    if (!pool || pool->parallelism() <= 1 || n <= chunk) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }

    struct State {
        std::function<void(int)> fn;
        int n = 0;
        int chunk = 1;
        std::atomic<int> next{0};
        std::atomic<int> done{0};
        std::mutex error_mutex;
        std::exception_ptr error;
        int error_index = INT_MAX;
    };
    auto state = std::make_shared<State>();
    state->fn = std::move(fn);
    state->n = n;
    state->chunk = chunk;

    auto drain = [state] {
        for (;;) {
            const int base = state->next.fetch_add(
                state->chunk, std::memory_order_relaxed);
            if (base >= state->n)
                break;
            const int end = std::min(state->n, base + state->chunk);
            for (int i = base; i < end; ++i) {
                try {
                    state->fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(
                        state->error_mutex);
                    if (i < state->error_index) {
                        state->error_index = i;
                        state->error = std::current_exception();
                    }
                }
                state->done.fetch_add(1, std::memory_order_release);
            }
        }
    };

    const int blocks = (n + chunk - 1) / chunk;
    const int helpers = std::min(pool->parallelism() - 1, blocks - 1);
    for (int h = 0; h < helpers; ++h)
        pool->submit(drain);
    drain(); // the caller is a full lane

    // All indices are claimed; help the pool until they all finish
    // (a helper may still be mid-iteration on another thread).
    while (state->done.load(std::memory_order_acquire) < n) {
        if (!pool->tryRunOne())
            std::this_thread::yield();
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

void
parallelFor(ThreadPool *pool, int n, std::function<void(int)> fn)
{
    parallelForChunked(pool, n, 1, std::move(fn));
}

} // namespace apex::runtime
