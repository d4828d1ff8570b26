#include "runtime/worker_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"

namespace apex::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// Worker-side cooperative termination flag (set by SIGTERM/SIGINT in
// the child; only ever consulted after fork).
volatile std::sig_atomic_t g_worker_terminate = 0;

void
onWorkerTerminate(int)
{
    g_worker_terminate = 1;
}

/** Fault directives carried in a request frame: the supervisor counts
 * fault ordinals at dispatch (stable across restarts) and tells the
 * worker how to misbehave. */
constexpr std::string_view kDirectiveNone = "-";
constexpr std::string_view kDirectiveKill = "kill";
constexpr std::string_view kDirectiveHang = "hang";
constexpr std::string_view kDirectiveGarbage = "garbage";

/** Why the *supervisor* killed a worker (distinguishes our own
 * SIGKILLs from the kernel OOM killer's). */
enum class KillReason { kNone, kHang, kProtocol, kShutdown };

} // namespace

std::string_view
workerDeathCauseName(WorkerDeathCause cause)
{
    switch (cause) {
      case WorkerDeathCause::kNone:  return "none";
      case WorkerDeathCause::kCrash: return "crash";
      case WorkerDeathCause::kOom:   return "oom";
      case WorkerDeathCause::kHang:  return "hang";
    }
    return "none";
}

struct WorkerPool::Worker {
    pid_t pid = -1;
    int req_fd = -1;  ///< Supervisor writes task frames here.
    int resp_fd = -1; ///< Supervisor reads results/heartbeats here.
    FrameDecoder decoder;
    bool alive = false;
    bool ever_spawned = false;
    /** Index of the dispatched task, or npos when idle. */
    std::size_t busy = kIdle;
    Clock::time_point dispatched_at{};
    Clock::time_point last_frame{};
    KillReason kill_reason = KillReason::kNone;
    int consecutive_deaths = 0;
    /** Earliest respawn time (exponential backoff). */
    Clock::time_point restart_at = Clock::time_point::min();

    static constexpr std::size_t kIdle =
        static_cast<std::size_t>(-1);
};

WorkerPool::WorkerPool(Handler handler, WorkerPoolOptions options)
    : handler_(std::move(handler)), options_(options)
{
    if (options_.workers < 1)
        options_.workers = 1;
    workers_.resize(static_cast<std::size_t>(options_.workers));
    // A worker death between our poll and our write would otherwise
    // SIGPIPE the supervisor — exactly the cascade this pool exists
    // to prevent.
    std::signal(SIGPIPE, SIG_IGN);
}

WorkerPool::~WorkerPool()
{
    shutdownAll();
}

void
WorkerPool::spawnWorker(Worker &w)
{
    int req[2] = {-1, -1};  // supervisor -> worker
    int resp[2] = {-1, -1}; // worker -> supervisor
    if (::pipe(req) != 0)
        return;
    if (::pipe(resp) != 0) {
        ::close(req[0]);
        ::close(req[1]);
        return;
    }

    // Never fork with dirty stdio buffers: the child would flush a
    // second copy of everything on libc shutdown paths.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {req[0], req[1], resp[0], resp[1]})
            ::close(fd);
        return;
    }
    if (pid == 0) {
        ::close(req[1]);
        ::close(resp[0]);
        workerMain(req[0], resp[1]); // [[noreturn]]
    }

    ::close(req[0]);
    ::close(resp[1]);
    ::fcntl(resp[0], F_SETFL,
            ::fcntl(resp[0], F_GETFL, 0) | O_NONBLOCK);

    w.pid = pid;
    w.req_fd = req[1];
    w.resp_fd = resp[0];
    w.decoder = FrameDecoder();
    w.alive = true;
    w.busy = Worker::kIdle;
    w.kill_reason = KillReason::kNone;
    w.last_frame = Clock::now();
    ++stats_.forks;
    if (w.ever_spawned) {
        ++stats_.restarts;
        telemetry::counter("apex.worker.restarts").add(1);
    }
    w.ever_spawned = true;
}

void
WorkerPool::stopWorker(Worker &w, bool kill_now)
{
    if (w.pid > 0 && w.alive)
        ::kill(w.pid, kill_now ? SIGKILL : SIGTERM);
    if (kill_now && w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.alive = false;
        if (w.req_fd >= 0)
            ::close(w.req_fd);
        if (w.resp_fd >= 0)
            ::close(w.resp_fd);
        w.req_fd = w.resp_fd = -1;
        w.pid = -1;
    }
}

void
WorkerPool::shutdownAll()
{
    if (shut_down_)
        return;
    shut_down_ = true;
    // Cooperative first: SIGTERM, a bounded grace, then SIGKILL.
    for (Worker &w : workers_)
        if (w.alive && w.pid > 0)
            ::kill(w.pid, SIGTERM);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               options_.shutdown_grace_ms));
    for (Worker &w : workers_) {
        if (!w.alive || w.pid <= 0)
            continue;
        for (;;) {
            int status = 0;
            const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
            if (r == w.pid)
                break;
            if (Clock::now() >= deadline) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        w.alive = false;
        if (w.req_fd >= 0)
            ::close(w.req_fd);
        if (w.resp_fd >= 0)
            ::close(w.resp_fd);
        w.req_fd = w.resp_fd = -1;
        w.pid = -1;
    }
}

// ---------------------------------------------------------------------
// Worker child
// ---------------------------------------------------------------------

void
WorkerPool::workerMain(int req_fd, int resp_fd)
{
    // Children always leave through _Exit: inherited stdio buffers,
    // atexit hooks and static destructors belong to the supervisor.
    struct sigaction sa = {};
    sa.sa_handler = onWorkerTerminate;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // No SA_RESTART: blocking read() gets EINTR.
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    // Heartbeat thread: proof-of-life frames on the response pipe,
    // interleaved with results under a write mutex.  A "hang" fault
    // freezes heartbeats too — a truly wedged process emits nothing.
    std::mutex write_mutex;
    std::atomic<bool> heartbeats{true};
    const auto beat = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(
            options_.heartbeat_ms));
    // Termination signals are kept *blocked* in every thread and only
    // unblocked atomically inside ppoll() below.  This closes two
    // races at once: a SIGTERM delivered to the heartbeat thread
    // (asleep in sleep_for()) would never interrupt the main thread's
    // read, and a SIGTERM landing between the terminate-flag check
    // and the blocking read would be consumed with the worker already
    // committed to blocking — the classic missed wakeup that pselect/
    // ppoll exist to prevent.
    sigset_t term_mask, wait_mask;
    sigemptyset(&term_mask);
    sigaddset(&term_mask, SIGTERM);
    sigaddset(&term_mask, SIGINT);
    ::pthread_sigmask(SIG_BLOCK, &term_mask, &wait_mask);
    sigdelset(&wait_mask, SIGTERM);
    sigdelset(&wait_mask, SIGINT);
    std::thread heartbeat_thread([&] {
        for (;;) {
            std::this_thread::sleep_for(beat);
            if (!heartbeats.load(std::memory_order_relaxed))
                continue;
            std::lock_guard<std::mutex> lock(write_mutex);
            if (!writeFrame(resp_fd, "hb", "").ok())
                return; // Supervisor is gone; nothing left to prove.
        }
    });
    heartbeat_thread.detach();

    FrameDecoder decoder;
    char buf[4096];
    for (;;) {
        FramedRecord frame;
        DecodeResult dr;
        while ((dr = decoder.next(&frame)) ==
               DecodeResult::kNeedMore) {
            // Wait with the termination signals unblocked only for
            // the duration of the ppoll: delivery can then only
            // interrupt the wait itself, never slip past the flag
            // check into a blocking read.
            struct pollfd pfd = {req_fd, POLLIN, 0};
            const int pr = ::ppoll(&pfd, 1, nullptr, &wait_mask);
            if (pr < 0) {
                if (errno != EINTR)
                    std::_Exit(2);
                if (g_worker_terminate)
                    std::_Exit(0);
                continue;
            }
            const ssize_t n = ::read(req_fd, buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                std::_Exit(0); // Supervisor closed the pipe.
            decoder.feed(buf, static_cast<std::size_t>(n));
        }
        if (dr != DecodeResult::kFrame)
            std::_Exit(2); // Garbled request stream.
        if (g_worker_terminate)
            std::_Exit(0);

        // Payload: "<id> <directive>\n<task bytes>".
        const std::size_t nl = frame.payload.find('\n');
        if (nl == std::string::npos)
            std::_Exit(2);
        std::istringstream head(frame.payload.substr(0, nl));
        std::string id, directive;
        if (!(head >> id >> directive))
            std::_Exit(2);
        // Optional third header token (absent from old supervisors):
        // the request trace id, installed before the handler so the
        // child's spans and currentTraceId() match the dispatcher's.
        unsigned long long trace = 0;
        if (head >> trace)
            telemetry::setThreadTraceId(trace);
        const std::string task = frame.payload.substr(nl + 1);

        if (directive == kDirectiveKill) {
            std::abort(); // SIGABRT: an honest crash.
        } else if (directive == kDirectiveHang) {
            heartbeats.store(false, std::memory_order_relaxed);
            for (;;)
                ::pause(); // Wedged until the supervisor kills us.
        } else if (directive == kDirectiveGarbage) {
            std::lock_guard<std::mutex> lock(write_mutex);
            (void)writeAll(
                resp_fd,
                "!!this is not a frame, checksums save us!!\n");
            continue; // Supervisor will kill us for the framing loss.
        }

        std::string response;
        try {
            response = handler_(task);
        } catch (...) {
            std::_Exit(3); // A throwing handler is a crashed worker.
        }
        std::lock_guard<std::mutex> lock(write_mutex);
        if (!writeFrame(resp_fd, "resp", id + "\n" + response).ok())
            std::_Exit(0);
    }
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

std::vector<WorkerTaskOutcome>
WorkerPool::run(const std::vector<std::string> &tasks)
{
    std::vector<WorkerTaskOutcome> outcomes(tasks.size());
    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        queue.push_back(i);
    std::size_t remaining = tasks.size();
    bool cancelled = false;

    const auto liveness =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.liveness_timeout_ms));

    // Finish (or give up on) one task whose worker died.
    const auto settleDeadTask = [&](Worker &w,
                                    WorkerDeathCause cause) {
        const std::size_t t = w.busy;
        w.busy = Worker::kIdle;
        if (t == Worker::kIdle)
            return;
        WorkerTaskOutcome &o = outcomes[t];
        if (o.fate == TaskFate::kDone)
            return; // Response arrived before the death was reaped.
        o.cause = cause;
        if (o.attempts > options_.task_retries) {
            o.fate = TaskFate::kQuarantined;
            o.wall_ms = msBetween(w.dispatched_at, Clock::now());
            --remaining;
            ++stats_.quarantined;
            telemetry::counter("apex.worker.quarantined").add(1);
        } else {
            // Front of the queue: the retry happens promptly and
            // fault-ordinal windows stay aligned with the same task.
            queue.push_front(t);
            ++stats_.retries;
            telemetry::counter("apex.worker.retries").add(1);
        }
    };

    // Drain whatever a worker managed to say, then classify.  (EOF
    // and read errors need no handling here: worker death is detected
    // by waitpid, and the decoder just processes what did arrive.)
    const auto drainAndProcess = [&](Worker &w) {
        (void)drainFd(w.resp_fd, w.decoder);
        FramedRecord frame;
        for (;;) {
            const DecodeResult dr = w.decoder.next(&frame);
            if (dr == DecodeResult::kNeedMore)
                break;
            if (dr == DecodeResult::kCorrupt) {
                // Framing loss: the worker is lying or dying.  Kill
                // it; classification happens at the reap.
                if (w.alive && w.kill_reason == KillReason::kNone) {
                    w.kill_reason = KillReason::kProtocol;
                    ::kill(w.pid, SIGKILL);
                }
                break;
            }
            const Clock::time_point now = Clock::now();
            telemetry::histogram("apex.worker.heartbeat.ms")
                .observe(msBetween(w.last_frame, now));
            w.last_frame = now;
            if (frame.type == "hb")
                continue;
            if (frame.type != "resp")
                continue; // Unknown-but-valid frame: forward compat.
            const std::size_t nl = frame.payload.find('\n');
            if (nl == std::string::npos)
                continue;
            if (w.busy == Worker::kIdle)
                continue; // Stale response from a pre-retry attempt.
            WorkerTaskOutcome &o = outcomes[w.busy];
            o.fate = TaskFate::kDone;
            o.cause = WorkerDeathCause::kNone;
            o.response = frame.payload.substr(nl + 1);
            o.wall_ms = msBetween(w.dispatched_at, now);
            w.busy = Worker::kIdle;
            w.consecutive_deaths = 0;
            --remaining;
        }
    };

    while (remaining > 0) {
        // Cooperative cancel: stop dispatching, ask workers to exit,
        // and report everything unfinished as kCancelled.
        if (options_.cancel &&
            options_.cancel->load(std::memory_order_relaxed)) {
            cancelled = true;
            break;
        }

        // Reap deaths.  Classification order matters: our own kills
        // (hang / protocol) are known causes; an external SIGKILL is
        // the OOM killer; everything else is a crash.
        for (Worker &w : workers_) {
            if (!w.alive || w.pid <= 0)
                continue;
            int status = 0;
            const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
            if (r != w.pid)
                continue;
            // waitpid reaped the pid — mark the worker dead *before*
            // draining so the drain's protocol-kill path can never
            // signal a recycled pid.
            w.alive = false;
            // The worker may have answered before dying; honor it.
            drainAndProcess(w);
            WorkerDeathCause cause = WorkerDeathCause::kCrash;
            if (w.kill_reason == KillReason::kHang)
                cause = WorkerDeathCause::kHang;
            else if (w.kill_reason == KillReason::kProtocol)
                cause = WorkerDeathCause::kCrash;
            else if (WIFSIGNALED(status) &&
                     WTERMSIG(status) == SIGKILL)
                cause = WorkerDeathCause::kOom;
            ::close(w.req_fd);
            ::close(w.resp_fd);
            w.req_fd = w.resp_fd = -1;
            w.pid = -1;
            settleDeadTask(w, cause);
            ++w.consecutive_deaths;
            const int shift =
                w.consecutive_deaths > 20 ? 20
                                          : w.consecutive_deaths - 1;
            const double backoff_ms = std::min(
                options_.backoff_cap_ms,
                options_.backoff_base_ms *
                    static_cast<double>(1u << shift));
            w.restart_at =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        backoff_ms));
        }

        if (remaining == 0)
            break;

        // Respawn dead workers whose backoff has elapsed (and fresh
        // ones on the first pass).
        for (Worker &w : workers_)
            if (!w.alive && Clock::now() >= w.restart_at)
                spawnWorker(w);

        // Liveness: a busy worker that has said nothing for too long
        // is wedged.  SIGKILL it; the reap classifies it as a hang.
        for (Worker &w : workers_) {
            if (!w.alive || w.busy == Worker::kIdle)
                continue;
            if (Clock::now() - w.last_frame > liveness &&
                w.kill_reason == KillReason::kNone) {
                w.kill_reason = KillReason::kHang;
                ::kill(w.pid, SIGKILL);
            }
        }

        // Dispatch queued tasks to idle live workers.
        for (Worker &w : workers_) {
            if (queue.empty())
                break;
            if (!w.alive || w.busy != Worker::kIdle)
                continue;
            const std::size_t t = queue.front();
            queue.pop_front();
            ++outcomes[t].attempts;

            // Fault directives are decided *here*, in the supervisor,
            // so the Nth dispatch misbehaves no matter which child
            // ends up running it.
            std::string_view directive = kDirectiveNone;
            if (!checkFault(FaultStage::kWorkerKill).ok())
                directive = kDirectiveKill;
            else if (!checkFault(FaultStage::kWorkerHang).ok())
                directive = kDirectiveHang;
            else if (!checkFault(FaultStage::kWorkerGarbage).ok())
                directive = kDirectiveGarbage;

            std::ostringstream payload;
            payload << next_task_id_++ << ' ' << directive << ' '
                    << options_.trace_id << '\n'
                    << tasks[t];
            w.dispatched_at = Clock::now();
            w.last_frame = w.dispatched_at;
            w.busy = t;
            if (!writeFrame(w.req_fd, "req", payload.str()).ok()) {
                // The worker died under us; undo the attempt and let
                // the reap handle the body.
                --outcomes[t].attempts;
                w.busy = Worker::kIdle;
                queue.push_front(t);
            }
        }

        // Wait for frames (bounded so timers keep firing).
        std::vector<pollfd> fds;
        std::vector<Worker *> fd_owner;
        for (Worker &w : workers_) {
            if (!w.alive)
                continue;
            fds.push_back({w.resp_fd, POLLIN, 0});
            fd_owner.push_back(&w);
        }
        const int poll_ms = 20;
        if (fds.empty()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
            continue;
        }
        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), poll_ms);
        if (ready <= 0)
            continue;
        for (std::size_t i = 0; i < fds.size(); ++i)
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                drainAndProcess(*fd_owner[i]);
    }

    if (cancelled) {
        telemetry::counter("apex.worker.cancelled").add(1);
        for (Worker &w : workers_)
            if (w.alive && w.pid > 0)
                ::kill(w.pid, SIGTERM);
        const Clock::time_point grace_deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.shutdown_grace_ms));
        // Keep accepting results during the grace window: a cell that
        // finishes while we wind down is a cell we don't lose.
        while (Clock::now() < grace_deadline) {
            bool any_busy = false;
            for (Worker &w : workers_) {
                if (!w.alive)
                    continue;
                int status = 0;
                if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
                    w.alive = false;
                    drainAndProcess(w);
                    ::close(w.req_fd);
                    ::close(w.resp_fd);
                    w.req_fd = w.resp_fd = -1;
                    w.pid = -1;
                    w.busy = Worker::kIdle;
                    continue;
                }
                drainAndProcess(w);
                if (w.busy != Worker::kIdle)
                    any_busy = true;
            }
            if (!any_busy)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        for (Worker &w : workers_)
            if (w.alive)
                stopWorker(w, /*kill_now=*/true);
    }

    return outcomes;
}

} // namespace apex::runtime
