#include "service/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/explorer.hpp"
#include "core/fault.hpp"
#include "runtime/eventlog.hpp"
#include "runtime/telemetry.hpp"
#include "service/version.hpp"

namespace apex::service {

namespace {

using Clock = std::chrono::steady_clock;

Status
posixError(const std::string &what)
{
    return Status(ErrorCode::kUnavailable,
                  what + ": " + std::strerror(errno));
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Accept-pause knobs: first exhaustion pauses the listeners briefly,
 * repeats double the pause up to the cap — long enough for fds to be
 * returned, short enough that recovery is prompt. */
constexpr double kAcceptBackoffMinMs = 50.0;
constexpr double kAcceptBackoffMaxMs = 2000.0;

/** Coalesced-trace aliases retained; past this the oldest is evicted
 * — an alias outliving two minutes of ring history is already a cold
 * trace nobody can usefully fetch. */
constexpr std::size_t kTraceAliasCap = 1024;

/** Quantile over one interval's histogram bucket deltas: the upper
 * bound of the bucket where the cumulative count crosses q*total
 * (the overflow bucket reports the last finite bound). */
double
quantileFromDeltas(const std::vector<double> &bounds,
                   const std::vector<long long> &deltas, double q)
{
    long long total = 0;
    for (long long d : deltas)
        total += d;
    if (total <= 0)
        return 0.0;
    const double target = q * static_cast<double>(total);
    long long cumulative = 0;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        cumulative += deltas[i];
        if (static_cast<double>(cumulative) >= target)
            return i < bounds.size() ? bounds[i] : bounds.back();
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_depth,
             &telemetry::gauge("apex.service.queue_depth"))
{
}

Server::~Server()
{
    stop();
}

Status
Server::start()
{
    if (started_)
        return Status(ErrorCode::kInternal, "server already started");
    if (options_.unix_path.empty())
        return Status(ErrorCode::kInvalidArgument,
                      "a unix socket path is required");

    // A dead peer must cost a Status from writeAll, not the process.
    std::signal(SIGPIPE, SIG_IGN);

    // Hot state, loaded once and shared by every request.
    apps_ = apps::allApps();
    runtime::CacheOptions copt;
    if (!options_.cache_dir.empty())
        copt.disk_dir = options_.cache_dir;
    cache_ = std::make_unique<runtime::ArtifactCache>(copt);

    // Any failure below must release everything opened so far:
    // started_ stays false, so stop() will never clean up after a
    // failed start.  A socket file is unlinked only once it is ours
    // (first the temporary name, then the configured path) — before
    // that, a file at the path belongs to whoever put it there.
    std::string own_path;
    const auto fail = [&](Status s) {
        for (int *fd : {&unix_fd_, &tcp_fd_, &wake_rd_, &wake_wr_}) {
            if (*fd >= 0)
                ::close(*fd);
            *fd = -1;
        }
        if (!own_path.empty())
            (void)::unlink(own_path.c_str());
        return s;
    };

    // Self-pipe: executors wake the io thread for outbound frames.
    int wake[2] = {-1, -1};
    if (::pipe(wake) != 0)
        return posixError("pipe");
    wake_rd_ = wake[0];
    wake_wr_ = wake[1];
    setNonBlocking(wake_rd_);
    setNonBlocking(wake_wr_);

    // Unix-domain listener (the primary transport).  The socket file
    // appears at bind(), before listen(), and a client that connects
    // in between is refused; so bind a temporary sibling name, listen,
    // and only then rename it over the configured path.  Whoever sees
    // the file can connect, and the rename replaces a stale socket.
    const std::string bind_path =
        options_.unix_path + ".tmp." + std::to_string(::getpid());
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (bind_path.size() >= sizeof addr.sun_path)
        return fail(Status(ErrorCode::kInvalidArgument,
                           "socket path too long: " +
                               options_.unix_path));
    std::strncpy(addr.sun_path, bind_path.c_str(),
                 sizeof addr.sun_path - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0)
        return fail(posixError("socket"));
    // Only a dead process with this pid can have left this name.
    (void)::unlink(bind_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail(posixError("bind " + options_.unix_path));
    own_path = bind_path;
    if (::listen(unix_fd_, 64) != 0)
        return fail(posixError("listen " + options_.unix_path));
    if (::rename(bind_path.c_str(), options_.unix_path.c_str()) != 0)
        return fail(posixError("bind " + options_.unix_path));
    own_path = options_.unix_path;
    setNonBlocking(unix_fd_);

    // Optional TCP listener, loopback only.
    if (options_.tcp_port >= 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0)
            return fail(posixError("socket (tcp)"));
        const int one = 1;
        (void)::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                           sizeof one);
        struct sockaddr_in tin;
        std::memset(&tin, 0, sizeof tin);
        tin.sin_family = AF_INET;
        tin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tin.sin_port =
            htons(static_cast<std::uint16_t>(options_.tcp_port));
        if (::bind(tcp_fd_,
                   reinterpret_cast<struct sockaddr *>(&tin),
                   sizeof tin) != 0 ||
            ::listen(tcp_fd_, 64) != 0)
            return fail(posixError("bind 127.0.0.1"));
        socklen_t len = sizeof tin;
        if (::getsockname(tcp_fd_,
                          reinterpret_cast<struct sockaddr *>(&tin),
                          &len) == 0)
            tcp_port_ = ntohs(tin.sin_port);
        setNonBlocking(tcp_fd_);
    }

    stop_.store(false);
    started_ = true;
    statusz_ring_.clear();
    prev_request_buckets_.clear();
    next_statusz_sample_ = Clock::now();
    const int executors = options_.executors > 0 ? options_.executors
                                                 : 1;
    executors_.reserve(executors);
    for (int i = 0; i < executors; ++i)
        executors_.emplace_back([this] { executorLoop(); });
    io_thread_ = std::thread([this] { ioLoop(); });
    return Status::okStatus();
}

void
Server::stop()
{
    if (!started_)
        return;
    stop_.store(true);
    queue_.shutdown();
    // Wake the io thread; a full pipe already guarantees a wakeup.
    const char byte = 1;
    (void)!::write(wake_wr_, &byte, 1);
    for (std::thread &t : executors_)
        t.join();
    executors_.clear();
    io_thread_.join();

    sessions_.clear();
    {
        std::lock_guard<std::mutex> lock(outbound_mu_);
        outbound_.clear();
    }
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.clear();
        session_inflight_.clear();
        trace_alias_.clear();
        trace_alias_order_.clear();
    }
    outbound_bytes_.store(0);
    accept_backoff_ms_ = 0.0;
    accept_pause_until_ = {};
    queue_saturated_.store(false);
    for (int *fd : {&unix_fd_, &tcp_fd_, &wake_rd_, &wake_wr_}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
    (void)::unlink(options_.unix_path.c_str());
    started_ = false;
}

bool
Server::acceptPaused() const
{
    return Clock::now() < accept_pause_until_;
}

void
Server::logEpisode(const std::string &stage, const Status &status)
{
    // One structured line per episode (the callers latch), correlated
    // to the request being served when one is in scope.  Falls back to
    // stderr when apexd ran without --log-out.
    eventlog::emit(eventlog::Level::kError, "service." + stage,
                   status.toString(), telemetry::currentTraceId());
}

void
Server::acceptPending(int listen_fd)
{
    for (;;) {
        int fd = -1;
        int err = 0;
        // Fault hook: rehearse running out of file descriptors
        // without actually exhausting the process's fd table.
        if (!checkFault(FaultStage::kAcceptEmfile).ok()) {
            err = EMFILE;
        } else {
            fd = ::accept(listen_fd, nullptr, nullptr);
            err = fd < 0 ? errno : 0;
        }
        if (fd >= 0) {
            // A successful accept ends any exhaustion episode.
            accept_backoff_ms_ = 0.0;
            setNonBlocking(fd);
            const std::uint64_t id = next_session_id_++;
            sessions_.emplace(id, std::make_unique<Session>(fd, id));
            continue;
        }
        switch (err) {
        case EINTR:
        case ECONNABORTED: // Peer gone between listen and accept.
            continue;
        case EMFILE:  // Process fd table full.
        case ENFILE:  // System fd table full.
        case ENOBUFS: // Kernel socket memory exhausted.
        case ENOMEM: {
            // Pause the listener with exponential backoff: accepting
            // again before an fd is returned would spin on the same
            // errno.  Pending connections wait in the kernel backlog;
            // the episode is logged once, on its first pause.
            const bool new_episode = accept_backoff_ms_ == 0.0;
            accept_backoff_ms_ =
                new_episode ? kAcceptBackoffMinMs
                            : std::min(accept_backoff_ms_ * 2.0,
                                       kAcceptBackoffMaxMs);
            accept_pause_until_ =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        accept_backoff_ms_));
            telemetry::counter("apex.resource.accept_exhausted")
                .add(1);
            if (new_episode)
                logEpisode(
                    "accept",
                    Status(ErrorCode::kResourceExhausted,
                           std::string("accept failed: ") +
                               std::strerror(err) +
                               "; pausing listeners"));
            return;
        }
        default:
            // EAGAIN/EWOULDBLOCK (backlog drained) or a transient
            // per-connection failure; either way, nothing to accept
            // right now.
            return;
        }
    }
}

void
Server::ioLoop()
{
    std::vector<struct pollfd> fds;
    std::vector<std::uint64_t> fd_sessions;
    while (!stop_.load()) {
        fds.clear();
        fd_sessions.clear();
        fds.push_back({wake_rd_, POLLIN, 0});
        // While an exhaustion pause is active the listeners stay out
        // of the poll set entirely — a readable listener we refuse to
        // accept from would turn every poll into a busy spin.  The
        // 100ms poll timeout re-evaluates the pause.
        std::size_t unix_idx = 0;
        std::size_t tcp_idx = 0;
        if (!acceptPaused()) {
            unix_idx = fds.size();
            fds.push_back({unix_fd_, POLLIN, 0});
            if (tcp_fd_ >= 0) {
                tcp_idx = fds.size();
                fds.push_back({tcp_fd_, POLLIN, 0});
            }
        }
        const std::size_t first_session = fds.size();
        for (const auto &[id, session] : sessions_) {
            fds.push_back({session->fd(), POLLIN, 0});
            fd_sessions.push_back(id);
        }

        // A finite timeout bounds the stop() latency even if the
        // wakeup byte is lost to a racing drain.
        if (::poll(fds.data(), fds.size(), 100) < 0 &&
            errno != EINTR)
            break;
        if (stop_.load())
            break;

        // Vitals sampling rides the poll cadence: the 100ms timeout
        // bounds how late a sample can land even on an idle daemon.
        if (options_.statusz_interval_ms > 0 &&
            Clock::now() >= next_statusz_sample_) {
            sampleStatusz();
            next_statusz_sample_ =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.statusz_interval_ms));
        }

        if (fds[0].revents != 0) {
            char buf[256];
            while (::read(wake_rd_, buf, sizeof buf) > 0) {
            }
        }
        // Outbound frames from the executors (completion reports,
        // progress): flush every pass, whatever woke us.
        std::vector<Outbound> pending;
        {
            std::lock_guard<std::mutex> lock(outbound_mu_);
            pending.swap(outbound_);
        }
        for (Outbound &out : pending) {
            // Delivered or dropped, the frame leaves the handoff —
            // release its budget either way.
            outbound_bytes_.fetch_sub(out.payload.size(),
                                      std::memory_order_relaxed);
            auto it = sessions_.find(out.session_id);
            if (it == sessions_.end())
                continue; // Subscriber disconnected mid-sweep.
            if (!it->second->send(out.type, out.payload))
                dropSession(out.session_id);
        }

        if (unix_idx != 0 && fds[unix_idx].revents != 0)
            acceptPending(unix_fd_);
        if (tcp_idx != 0 && fds[tcp_idx].revents != 0)
            acceptPending(tcp_fd_);

        for (std::size_t i = first_session; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            const std::uint64_t id = fd_sessions[i - first_session];
            auto it = sessions_.find(id);
            if (it == sessions_.end())
                continue; // Dropped by an outbound failure above.
            Session &session = *it->second;
            std::vector<runtime::FramedRecord> frames;
            bool keep = session.onReadable(&frames);
            for (const runtime::FramedRecord &rec : frames)
                if (!dispatch(session, rec)) {
                    keep = false;
                    break;
                }
            if (!keep)
                dropSession(id);
        }
    }
}

bool
Server::dispatch(Session &session, const runtime::FramedRecord &rec)
{
    if (rec.type == kFrameSweep) {
        SweepRequest request;
        if (!decodeSweepRequest(rec.payload, &request))
            return false; // Schema skew: drop the session.
        admitSweep(session, request);
        return true;
    }
    if (rec.type == kFrameInfo) {
        InfoReply info;
        info.protocol = kProtocolVersion;
        info.version = versionString();
        info.commit = buildCommit();
        info.flags = buildFlags();
        return session.send(kFrameInfoOk, encodeInfoReply(info));
    }
    if (rec.type == kFrameMetrics) {
        return session.send(
            kFrameMetricsOk,
            telemetry::Registry::instance().jsonDump());
    }
    if (rec.type == kFrameTrace) {
        TraceRequest req;
        if (!decodeTraceRequest(rec.payload, &req))
            return false;
        // A coalesced joiner asks for *its* trace id; the alias map
        // redirects to the id the shared job executed under and the
        // slice is rewritten so the caller sees its own request.
        std::uint64_t executed_as = req.trace_id;
        {
            std::lock_guard<std::mutex> lock(inflight_mu_);
            auto it = trace_alias_.find(req.trace_id);
            if (it != trace_alias_.end())
                executed_as = it->second;
        }
        TraceReply reply;
        reply.trace_id = req.trace_id;
        reply.events = telemetry::eventsForTrace(executed_as);
        if (executed_as != req.trace_id)
            for (telemetry::SpanEvent &ev : reply.events)
                ev.trace_id = req.trace_id;
        reply.dropped = telemetry::droppedEvents();
        reply.evicted = telemetry::evictedEvents();
        return session.send(kFrameTraceOk, encodeTraceReply(reply));
    }
    if (rec.type == kFrameStatusz) {
        StatuszRequest req;
        if (!decodeStatuszRequest(rec.payload, &req))
            return false;
        StatuszReply reply;
        reply.interval_ms = options_.statusz_interval_ms;
        std::size_t first = 0;
        if (req.max_samples > 0 &&
            statusz_ring_.size() >
                static_cast<std::size_t>(req.max_samples))
            first = statusz_ring_.size() -
                    static_cast<std::size_t>(req.max_samples);
        reply.samples.assign(statusz_ring_.begin() + first,
                             statusz_ring_.end());
        return session.send(kFrameStatuszOk,
                            encodeStatuszReply(reply));
    }
    if (rec.type == kFrameBye) {
        (void)session.send(kFrameByeOk, "");
        return false; // Graceful close.
    }
    return false; // Unknown frame type: protocol violation.
}

std::uint64_t
Server::coalescingKey(const SweepRequest &request) const
{
    // The journal/core fingerprint covers everything that shapes the
    // cells' *content*; the service key additionally folds in the
    // knobs that shape the *report* (deadlines can turn cells into
    // timeout failures, isolation changes crash verdicts), so two
    // coalesced requests are guaranteed byte-identical replies.
    const core::Explorer explorer(model::defaultTech());
    const std::uint64_t fp = core::sweepFingerprint(
        apps_, explorer, model::defaultTech(),
        sweepOptionsFor(request).value());
    char knobs[160];
    std::snprintf(knobs, sizeof knobs, "%016llx %s %s %d %a %a",
                  static_cast<unsigned long long>(fp),
                  request.level.c_str(), request.isolate.c_str(),
                  request.cell_retries, request.deadline_ms,
                  request.cell_deadline_ms);
    return runtime::fnv1a64(knobs);
}

void
Server::admitSweep(Session &session, const SweepRequest &request)
{
    // Stamp the requester's trace id over admission: the io-thread
    // span below and any shedding episode logged here correlate to
    // the request that triggered them.
    telemetry::ScopedTraceId trace_scope;
    if (request.trace_id != 0)
        trace_scope.set(request.trace_id);
    APEX_SPAN("service.admit");

    // Validated at admission so a typo is a reject frame, not a
    // queued job that fails later.
    if (const auto opts = sweepOptionsFor(request); !opts) {
        SweepReject rej;
        rej.id = request.id;
        rej.code = opts.status().code();
        rej.reason = opts.status().message();
        (void)session.send(kFrameReject, encodeReject(rej));
        return;
    }

    // Load shedding happens before any state is created, and every
    // shedding reject carries the retry_after hint so a well-behaved
    // client backs off instead of hammering a daemon under pressure.
    const auto shed = [&](const char *counter_name,
                          std::string reason) {
        telemetry::counter(counter_name).add(1);
        telemetry::counter("apex.service.rejected").add(1);
        SweepReject rej;
        rej.id = request.id;
        rej.code = ErrorCode::kUnavailable;
        rej.reason = std::move(reason);
        rej.retry_after_ms = options_.retry_after_ms;
        (void)session.send(kFrameReject, encodeReject(rej));
    };

    // Soft memory budget over undelivered frames: a slow reader (or
    // many fat reports at once) pushes back on admission instead of
    // growing the handoff without bound.
    if (options_.mem_budget_bytes > 0 &&
        outbound_bytes_.load(std::memory_order_relaxed) >
            options_.mem_budget_bytes) {
        shed("apex.service.shed_memory",
             "daemon over its memory budget (" +
                 std::to_string(options_.mem_budget_bytes) +
                 " bytes of undelivered frames); retry later");
        return;
    }

    const std::uint64_t key = coalescingKey(request);
    SweepJob::Subscriber sub;
    sub.session_id = session.id();
    sub.request_id = request.id;
    sub.want_progress = request.want_progress;
    sub.trace_id = request.trace_id;

    std::lock_guard<std::mutex> lock(inflight_mu_);

    // Per-session cap: one greedy client gets per-client pushback
    // while everyone else's requests keep flowing.
    if (options_.session_cap > 0 &&
        session_inflight_[session.id()] >= options_.session_cap) {
        shed("apex.service.shed_session",
             "session already has " +
                 std::to_string(options_.session_cap) +
                 " sweeps in flight; retry later");
        return;
    }

    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
        {
            std::lock_guard<std::mutex> job_lock(it->second->mu);
            it->second->subscribers.push_back(sub);
        }
        // The joiner's sweep executes under the first requester's
        // trace id; remember the alias so a later `trace` request for
        // the joiner's id finds the shared slice.
        if (sub.trace_id != 0 &&
            it->second->request.trace_id != sub.trace_id &&
            trace_alias_.emplace(sub.trace_id,
                                 it->second->request.trace_id)
                .second) {
            trace_alias_order_.push_back(sub.trace_id);
            if (trace_alias_order_.size() > kTraceAliasCap) {
                trace_alias_.erase(trace_alias_order_.front());
                trace_alias_order_.pop_front();
            }
        }
        ++session_inflight_[session.id()];
        telemetry::counter("apex.service.accepted").add(1);
        telemetry::counter("apex.service.coalesced").add(1);
        SweepAck ack;
        ack.id = request.id;
        ack.coalesced = true;
        (void)session.send(kFrameAck, encodeAck(ack));
        return;
    }

    auto job = std::make_shared<SweepJob>();
    job->key = key;
    job->request = request;
    job->subscribers.push_back(sub);
    inflight_.emplace(key, job);
    if (!queue_.push(job, request.priority)) {
        inflight_.erase(key);
        // Bounded logging: a saturated queue rejects every arrival
        // for as long as the burst lasts — log the *episode* once,
        // not one line per rejected request.
        if (!queue_saturated_.exchange(true)) {
            telemetry::counter("apex.service.saturation_episodes")
                .add(1);
            logEpisode("admission",
                       Status(ErrorCode::kUnavailable,
                              "admission queue saturated (depth " +
                                  std::to_string(
                                      options_.queue_depth) +
                                  "); shedding load"));
        }
        shed("apex.service.shed_queue",
             "admission queue full (depth " +
                 std::to_string(options_.queue_depth) +
                 "); retry later");
        return;
    }
    queue_saturated_.store(false);
    ++session_inflight_[session.id()];
    telemetry::counter("apex.service.accepted").add(1);
    SweepAck ack;
    ack.id = request.id;
    ack.coalesced = false;
    (void)session.send(kFrameAck, encodeAck(ack));
}

void
Server::executorLoop()
{
    const std::unique_ptr<runtime::ThreadPool> pool =
        runtime::makePool(options_.jobs);
    while (auto job = queue_.pop()) {
        if (options_.admission_hold_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    options_.admission_hold_ms));
        runJob(*job, pool.get());
    }
}

void
Server::runJob(const std::shared_ptr<SweepJob> &job,
               runtime::ThreadPool *pool)
{
    const Clock::time_point t0 = Clock::now();
    telemetry::counter("apex.service.sweeps").add(1);

    const SweepRequest &request = job->request;
    // Every span the sweep emits on this executor (and, via
    // SweepOptions::trace_id, on the worker lanes) carries the
    // request's trace id, so `trace` can slice it back out.
    telemetry::ScopedTraceId trace_scope;
    if (request.trace_id != 0)
        trace_scope.set(request.trace_id);
    // executeJob's span closes before the report is published: a
    // client that fetches its trace slice right after the report
    // must find it.
    SweepReply reply = executeJob(job, pool);

    // Stop accepting coalesced joiners *before* publishing: a request
    // arriving after this point starts a fresh sweep instead of
    // attaching to a completed one.
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(job->key);
    }
    telemetry::histogram("apex.service.request_ms")
        .observe(std::chrono::duration<double, std::milli>(
                     Clock::now() - t0)
                     .count());

    std::vector<SweepJob::Subscriber> subscribers;
    {
        std::lock_guard<std::mutex> job_lock(job->mu);
        subscribers = job->subscribers;
    }
    for (const SweepJob::Subscriber &sub : subscribers) {
        reply.id = sub.request_id;
        enqueueOutbound(sub.session_id, kFrameReport,
                        encodeSweepReply(reply));
    }

    // The report is on its way: release each subscriber's slot in
    // its session's in-flight cap.
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        for (const SweepJob::Subscriber &sub : subscribers) {
            auto sit = session_inflight_.find(sub.session_id);
            if (sit != session_inflight_.end() && --sit->second <= 0)
                session_inflight_.erase(sit);
        }
    }
}

SweepReply
Server::executeJob(const std::shared_ptr<SweepJob> &job,
                   runtime::ThreadPool *pool)
{
    const SweepRequest &request = job->request;
    APEX_SPAN("service.execute");
    // The budget starts when execution starts: queue wait is the
    // price of admission, not of the sweep (matching the batch CLI,
    // where the deadline clock starts after flag parsing).
    core::SweepOptions opts = sweepOptionsFor(request).value();
    opts.pool = pool;
    opts.cache = cache_.get();
    opts.cancel = &stop_;
    // With a cache dir the daemon journals every sweep under a
    // per-coalescing-key directory and always resumes: a daemon
    // killed mid-sweep replays the completed cells when the same
    // request is resubmitted after restart, so a self-healing client
    // pays only for the missing cells the second time.
    if (!options_.cache_dir.empty()) {
        const std::string dir =
            options_.cache_dir + "/sweep-" + runtime::hex64(job->key);
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (!ec) {
            opts.journal_dir = dir;
            opts.resume = true;
        }
    }
    opts.progress = [this, &job](const core::SweepProgress &p) {
        broadcastProgress(job, p);
    };

    // Variant construction observes the sweep deadline too, exactly
    // like the batch path.
    core::ExplorerOptions ex_options;
    ex_options.miner.pool = pool;
    ex_options.miner.deadline = opts.deadline;
    ex_options.merge.deadline = opts.deadline;
    const core::Explorer explorer(model::defaultTech(), ex_options);
    core::SweepOutcome outcome = core::runSweep(
        apps_, explorer, model::defaultTech(), opts);
    return sweepReplyFor(outcome, opts);
}

void
Server::broadcastProgress(const std::shared_ptr<SweepJob> &job,
                          const core::SweepProgress &progress)
{
    SweepProgressFrame frame;
    frame.done = progress.done;
    frame.total = progress.total;
    frame.app = progress.app;
    frame.variant = progress.variant;

    std::vector<SweepJob::Subscriber> subscribers;
    {
        std::lock_guard<std::mutex> job_lock(job->mu);
        subscribers = job->subscribers;
    }
    for (const SweepJob::Subscriber &sub : subscribers) {
        if (!sub.want_progress)
            continue;
        frame.id = sub.request_id;
        // Each subscriber sees its own trace id, even on a coalesced
        // job executing under the first requester's.
        frame.trace_id = sub.trace_id;
        enqueueOutbound(sub.session_id, kFrameProgress,
                        encodeProgress(frame));
    }
}

void
Server::enqueueOutbound(std::uint64_t session_id,
                        std::string_view type, std::string payload)
{
    if (stop_.load())
        return; // The io thread is winding down; nobody to deliver.
    outbound_bytes_.fetch_add(payload.size(),
                              std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(outbound_mu_);
        outbound_.push_back(
            {session_id, std::string(type), std::move(payload)});
    }
    const char byte = 1;
    (void)!::write(wake_wr_, &byte, 1);
}

void
Server::sampleStatusz()
{
    // Publish what only the io thread knows, then read every vital
    // back from the registry.
    telemetry::gauge("apex.service.sessions")
        .set(static_cast<double>(sessions_.size()));
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        telemetry::gauge("apex.service.active_sweeps")
            .set(static_cast<double>(inflight_.size()));
    }
    telemetry::gauge("apex.service.inflight_bytes")
        .set(static_cast<double>(
            outbound_bytes_.load(std::memory_order_relaxed)));

    // Per-interval latency quantiles from the request_ms histogram:
    // the delta against the previous sample isolates this interval's
    // completions from the daemon's lifetime distribution.
    telemetry::Histogram &hist =
        telemetry::histogram("apex.service.request_ms");
    const std::vector<double> &bounds = hist.bounds();
    prev_request_buckets_.resize(bounds.size() + 1, 0);
    std::vector<long long> deltas(bounds.size() + 1, 0);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const long long count = hist.bucketCount(i);
        deltas[i] = count - prev_request_buckets_[i];
        prev_request_buckets_[i] = count;
    }
    telemetry::gauge("apex.service.request_p50_ms")
        .set(quantileFromDeltas(bounds, deltas, 0.50));
    telemetry::gauge("apex.service.request_p99_ms")
        .set(quantileFromDeltas(bounds, deltas, 0.99));

    StatusSnapshot snap;
    snap.ts_ms = telemetry::monotonicNanos() / 1e6;
    for (std::size_t i = 0; i < snap.values.size(); ++i) {
        const StatuszVital &vital = kStatuszVitals[i];
        snap.values[i] =
            vital.kind == VitalKind::kCounter
                ? static_cast<double>(
                      telemetry::counter(vital.metric).value())
                : telemetry::gauge(vital.metric).value();
    }
    statusz_ring_.push_back(snap);
    while (statusz_ring_.size() > options_.statusz_capacity &&
           !statusz_ring_.empty())
        statusz_ring_.pop_front();
}

void
Server::dropSession(std::uint64_t session_id)
{
    sessions_.erase(session_id);
    // A dead session's in-flight slots would otherwise leak into the
    // cap bookkeeping forever (its reports are discarded above).
    std::lock_guard<std::mutex> lock(inflight_mu_);
    session_inflight_.erase(session_id);
}

} // namespace apex::service
