/**
 * daemon-mixed: an in-process service::Server (apexd's nine-app set,
 * executors=2, jobs=2, cache and socket in a fresh directory) driven by
 * two client connections in a closed loop.
 *
 * Each round, every client sends kRepeatsPerRound requests for keys
 * primed during set-up (served by journal replay), then both clients
 * send one primed key at the same instant (so the two coalesce), then
 * both send one fresh key at the same instant.  Fresh keys alternate
 * isolate=thread and isolate=process; a seeded cell_retries salt makes
 * each one unique, which changes the coalescing key and journal
 * directory but not the report.
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "harness.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/version.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace apex;

constexpr int kClients = 2;
constexpr int kExecutors = 2;
constexpr int kJobsPerSweep = 2;
/** Together the clients' repeats in one round are the samples a p90
 * needs (see summarizeWindows). */
constexpr int kRepeatsPerRound = static_cast<int>(kWindowSamples) / kClients;
constexpr int kSetups = 3;
constexpr double kMeasureCapMs = 60e3;
const char *const kPrimedLevels[] = {"map", "pnr", "pipe"};
const char *const kFreshLevel = "pipe";

/** One daemon with its private directory (socket, cache, journals). */
struct Daemon {
    std::string dir;
    std::string socket;
    std::unique_ptr<service::Server> server;
};

/** The reference of every level a request can ask for, by level. */
using References = std::map<std::string, Reference>;

Status
startDaemon(const Args &args, Daemon *d)
{
    std::error_code ec;
    std::filesystem::create_directories(args.tmp_dir, ec);
    std::string templ = args.tmp_dir + "/apexd-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr)
        return Status(ErrorCode::kUnavailable,
                      "mkdtemp in " + args.tmp_dir + ": " +
                          std::strerror(errno));
    d->dir = templ;
    d->socket = d->dir + "/s";
    service::ServerOptions opts;
    opts.unix_path = d->socket;
    opts.cache_dir = d->dir + "/cache";
    opts.executors = kExecutors;
    opts.jobs = kJobsPerSweep;
    d->server = std::make_unique<service::Server>(opts);
    return d->server->start();
}

/** Stop the server, remove its directory, and prove nothing of it is
 * left: no unreaped child, no stray descriptor. */
std::string
stopDaemon(Daemon *d, int fds_before)
{
    if (d->server) {
        d->server->stop();
        d->server.reset();
    }
    std::error_code ec;
    std::filesystem::remove_all(d->dir, ec);
    if (ec || std::filesystem::exists(d->dir))
        return "daemon directory " + d->dir + " was not removed";
    errno = 0;
    if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD)
        return "a child process outlived the daemon";
    const int fds = openFdCount();
    if (fds != fds_before)
        return "fd count " + std::to_string(fds) + " after teardown vs " +
               std::to_string(fds_before) + " before set-up";
    return {};
}

service::SweepRequest
primedRequest(const std::string &level)
{
    service::SweepRequest r;
    r.level = level;
    r.isolate = "thread";
    return r;
}

/** Prime every repeat key, one after the other on one connection. */
std::string
prime(const Daemon &d, const References &refs)
{
    service::Client c;
    if (Status s = c.connect(d.socket); !s.ok())
        return "priming: " + s.toString();
    for (const char *level : kPrimedLevels) {
        service::SweepReply reply;
        if (Status s = c.runSweep(primedRequest(level), &reply); !s.ok())
            return "priming: " + s.toString();
        if (std::string why =
                checkAgainst(reply.entries, reply.report, refs.at(level));
            !why.empty())
            return why;
    }
    c.goodbye();
    return {};
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/** A service client speaking the wire protocol directly, so the traced
 * run can put a span around each step of a request. */
class TracedClient {
  public:
    explicit TracedClient(SpanRecorder &rec) : rec_(rec) {}
    ~TracedClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    TracedClient(const TracedClient &) = delete;
    TracedClient &operator=(const TracedClient &) = delete;

    Status connect(const std::string &path)
    {
        ScopedSpan span(rec_, "service.connect");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return Status(ErrorCode::kInvalidArgument, "path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof addr) != 0)
            return Status(ErrorCode::kUnavailable, "connect " + path);
        service::HelloRequest hello;
        hello.protocol = service::kProtocolVersion;
        hello.client = "perfbench";
        Status s = send(service::kFrameHello, service::encodeHello(hello));
        runtime::FramedRecord rec;
        if (s.ok())
            s = read(&rec);
        if (s.ok() && rec.type != service::kFrameHelloOk)
            s = Status(ErrorCode::kInternal, "handshake: " + rec.type);
        return s;
    }

    /** send -> ack -> report -> decode, one span each. */
    Status sweep(const service::SweepRequest &req,
                 service::SweepReply *reply, bool *coalesced)
    {
        runtime::FramedRecord rec;
        {
            ScopedSpan span(rec_, "service.send");
            if (Status s = send(service::kFrameSweep,
                                service::encodeSweepRequest(req));
                !s.ok())
                return s;
        }
        {
            ScopedSpan span(rec_, "service.ack");
            if (Status s = read(&rec); !s.ok())
                return s;
            service::SweepAck ack;
            if (rec.type != service::kFrameAck ||
                !service::decodeAck(rec.payload, &ack))
                return Status(ErrorCode::kUnavailable,
                              "not acked: " + rec.type);
            *coalesced = ack.coalesced;
        }
        {
            ScopedSpan span(rec_, "service.report");
            do {
                if (Status s = read(&rec); !s.ok())
                    return s;
            } while (rec.type == service::kFrameProgress);
        }
        ScopedSpan span(rec_, "service.decode");
        if (rec.type != service::kFrameReport ||
            !service::decodeSweepReply(rec.payload, reply))
            return Status(ErrorCode::kInternal, "bad report frame");
        return Status::okStatus();
    }

    void goodbye()
    {
        (void)send(service::kFrameBye, "");
        runtime::FramedRecord rec;
        (void)read(&rec);
    }

  private:
    Status send(std::string_view type, const std::string &payload)
    {
        return runtime::writeFrame(fd_, service::kServiceMagic,
                                   service::kServiceWireVersion, type,
                                   payload);
    }

    Status read(runtime::FramedRecord *out)
    {
        for (;;) {
            const runtime::DecodeResult r = decoder_.next(out);
            if (r == runtime::DecodeResult::kFrame)
                return Status::okStatus();
            if (r == runtime::DecodeResult::kCorrupt)
                return Status(ErrorCode::kInternal, "corrupt stream");
            if (runtime::drainFd(fd_, decoder_,
                                 runtime::DrainMode::kSingleRead) !=
                runtime::DrainResult::kOpen)
                return Status(ErrorCode::kUnavailable, "daemon hung up");
        }
    }

    SpanRecorder &rec_;
    int fd_ = -1;
    runtime::FrameDecoder decoder_{service::kServiceMagic,
                                   service::kServiceWireVersion};
};

/** What one client lane saw. */
struct LaneResult {
    std::vector<double> repeat_ms;
    std::vector<double> fresh_ms;
    /** (finish time, round trip) of every request, in ms. */
    std::vector<std::pair<double, double>> timeline;
    long attempted = 0;
    long failed = 0;
    long cells = 0;
    long process_requests = 0;
    std::vector<std::string> notes;
};

/** One request of a lane's plan, and whether its key is fresh. */
struct Planned {
    bool fresh = false;
    service::SweepRequest request;
};

/** The seeded request sequence of client @p c in round @p r. */
std::vector<Planned>
planRound(std::uint64_t seed, int r, int c)
{
    std::vector<Planned> plan;
    SplitMix own(seed * 1000003u + static_cast<std::uint64_t>(r) * 16 + c);
    for (int i = 0; i < kRepeatsPerRound; ++i)
        plan.push_back({false, primedRequest(kPrimedLevels[own.below(3)])});
    // Same draw on both clients: the coalescing pair.
    SplitMix shared(seed * 7919u + static_cast<std::uint64_t>(r));
    plan.push_back({false, primedRequest(kPrimedLevels[shared.below(3)])});
    Planned fresh;
    fresh.fresh = true;
    fresh.request.level = kFreshLevel;
    fresh.request.isolate = (r + c) % 2 == 0 ? "thread" : "process";
    fresh.request.cell_retries =
        3 + static_cast<int>(seed % 100000) * 1000 + r * kClients + c;
    plan.push_back(fresh);
    return plan;
}

/** What runRounds measured besides the lanes. */
struct Rounds {
    std::vector<LaneResult> lanes;
    double window_ms = 0.0;
    /** Wall time from the fresh requests' start to the round's end. */
    double fresh_wall_ms = 0.0;
    /** Peak RSS of each round (the high-water mark is reset between
     * rounds), in MiB. */
    std::vector<double> round_peak_mb;
};

/**
 * Run whole rounds on kClients lanes until @p seconds have passed.
 * @p send performs one request for lane c and returns its outcome.  A
 * barrier sits before the coalescing pair and before the fresh
 * requests, which the clients send at the same time.
 */
template <typename Send>
Rounds
runRounds(std::uint64_t seed, double seconds, const References &refs,
          Send &&send, const std::function<void()> &between_rounds)
{
    Rounds out;
    out.lanes.resize(kClients);
    std::atomic<bool> more{true};
    Clock::time_point fresh_start;
    (void)resetPeakRss();
    const Clock::time_point start = Clock::now();
    const auto decide = [&]() noexcept {
        out.fresh_wall_ms += msSince(fresh_start);
        out.round_peak_mb.push_back(peakRssMb());
        (void)resetPeakRss();
        if (between_rounds)
            between_rounds();
        more = msSince(start) < std::min(seconds * 1e3, kMeasureCapMs);
    };
    std::barrier sync(kClients, decide);
    std::barrier pair(kClients);
    std::barrier to_fresh(kClients,
                          [&]() noexcept { fresh_start = Clock::now(); });
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            LaneResult &lane = out.lanes[c];
            const auto run = [&](const Planned &p) {
                service::SweepReply reply;
                double rt_ms = 0.0;
                Status s = send(c, p.request, &reply, &rt_ms);
                ++lane.attempted;
                lane.timeline.push_back({msSince(start), rt_ms});
                (p.fresh ? lane.fresh_ms : lane.repeat_ms).push_back(rt_ms);
                if (p.request.isolate == "process")
                    ++lane.process_requests;
                std::string why =
                    s.ok() ? checkAgainst(reply.entries, reply.report,
                                          refs.at(p.request.level))
                           : s.toString();
                if (s.ok() && reply.cancelled)
                    why = "cancelled";
                lane.cells += static_cast<long>(reply.entries.size());
                if (!why.empty()) {
                    ++lane.failed;
                    if (lane.notes.size() < 3)
                        lane.notes.push_back("request: " + why);
                }
            };
            for (int r = 0; more.load(); ++r) {
                // The plan ends with the coalescing pair's request and
                // then the fresh one.
                const std::vector<Planned> plan = planRound(seed, r, c);
                for (std::size_t i = 0; i + 2 < plan.size(); ++i)
                    run(plan[i]);
                pair.arrive_and_wait();
                run(plan[plan.size() - 2]);
                to_fresh.arrive_and_wait();
                run(plan.back());
                sync.arrive_and_wait();
            }
        });
    for (std::thread &t : threads)
        t.join();
    out.window_ms = msSince(start);
    return out;
}

void
mergeLanes(const std::vector<LaneResult> &lanes, Report *report,
           LaneResult *all)
{
    for (const LaneResult &l : lanes) {
        all->repeat_ms.insert(all->repeat_ms.end(), l.repeat_ms.begin(),
                              l.repeat_ms.end());
        all->fresh_ms.insert(all->fresh_ms.end(), l.fresh_ms.begin(),
                             l.fresh_ms.end());
        all->timeline.insert(all->timeline.end(), l.timeline.begin(),
                             l.timeline.end());
        all->cells += l.cells;
        all->process_requests += l.process_requests;
        report->attempted += l.attempted;
        report->failed += l.failed;
        report->notes.insert(report->notes.end(), l.notes.begin(),
                             l.notes.end());
    }
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------

void
runUntraced(const Args &args, const Daemon &d, const References &refs,
            Report *report)
{
    std::vector<std::unique_ptr<service::Client>> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<service::Client>());
        if (Status s = clients.back()->connect(d.socket); !s.ok()) {
            report->setup_ok = false;
            report->notes.push_back("connect: " + s.toString());
            return;
        }
    }
    const auto send = [&](int c, const service::SweepRequest &req,
                          service::SweepReply *reply, double *rt_ms) {
        const Clock::time_point t0 = Clock::now();
        Status s = clients[c]->runSweep(req, reply);
        *rt_ms = msSince(t0);
        return s;
    };
    const CpuTimes c0 = readCpu();
    const Rounds rounds = runRounds(args.seed, args.seconds, refs, send, {});
    const double cpu_ms = readCpu().total() - c0.total();
    for (auto &c : clients)
        c->goodbye();

    LaneResult all;
    mergeLanes(rounds.lanes, report, &all);
    std::sort(all.timeline.begin(), all.timeline.end());
    std::vector<double> every;
    for (const auto &[finish_ms, rt_ms] : all.timeline)
        every.push_back(rt_ms);
    const Summary sweep = summarizeWindows(every);
    if (sweep.has_p90)
        report->info["sweep_ms_p90"] = {sweep.p90, "ms"};
    else
        report->info_missing["sweep_ms_p90"] = sweep.why_missing;
    report->info["sweep_ms_p50"] = {sweep.p50, "ms"};
    // How the window splits between the two paths; the rest of the
    // wall after the fresh phases is replay (and the coalescing pairs).
    const double window_ms = rounds.window_ms;
    report->info["replay_share_of_requests"] = {
        100.0 * all.repeat_ms.size() / every.size(), "%"};
    report->info["replay_share_of_wall"] = {
        100.0 * (window_ms - rounds.fresh_wall_ms) / window_ms, "%"};
    report->samples["replay_share_of_requests"] = every.size();
    report->samples["replay_share_of_wall"] = every.size();
    auto &m = report->metrics;
    m["cells_per_s"] = all.cells / (window_ms / 1e3);
    m["cpu_ms_per_cell"] = cpu_ms / static_cast<double>(all.cells);
    m["peak_rss_mb"] = median(rounds.round_peak_mb);
    report->samples["peak_rss_mb"] = rounds.round_peak_mb.size();
    report->samples["sweep_ms_p50"] = sweep.n;
    report->samples["sweep_ms_p90"] = sweep.n;
    report->samples["cells_per_s"] = static_cast<std::size_t>(all.cells);
    report->samples["cpu_ms_per_cell"] =
        static_cast<std::size_t>(all.cells);
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------

/** Spans the daemon must record for the traced requests; a missing
 * one (say, a renamed library span) fails the run instead of reading
 * as zero. */
const char *const kExpectedServerSpans[] = {
    "service.execute", "build",          "mine",      "mis.rank",
    "merge",           "journal.append", "journal.replay", "cache.get",
};

/** Why a per-layer metric is not measured on daemon-mixed. */
const char *const kInWorkersOrCached =
    "in-process cells hit the cache; process-mode cells run in forked "
    "workers, whose spans and counters stay in the child";
const char *const kOffLane =
    "daemon-side work runs outside the client lanes' spans";

/** Daemon-side span totals of the traced requests, by span name.
 * gather() runs often enough that no per-thread ring fills, and takes
 * only events it has not seen, so the event store's cap loses none. */
class ServerSpans {
  public:
    ServerSpans(const std::set<std::uint64_t> &ids, std::mutex &ids_mu)
        : ids_(ids), ids_mu_(ids_mu),
          seen_(telemetry::evictedEvents() +
                static_cast<long long>(telemetry::events().size())),
          dropped0_(telemetry::droppedEvents())
    {
    }

    /** Collect and fold in new events; one caller at a time. */
    void gather()
    {
        telemetry::collect();
        const std::vector<telemetry::SpanEvent> &evs = telemetry::events();
        const long long evicted = telemetry::evictedEvents();
        if (seen_ < evicted) {
            lost_ += evicted - seen_;
            seen_ = evicted;
        }
        std::lock_guard<std::mutex> lock(ids_mu_);
        for (std::size_t i = static_cast<std::size_t>(seen_ - evicted);
             i < evs.size(); ++i) {
            const telemetry::SpanEvent &ev = evs[i];
            if (!ids_.count(ev.trace_id))
                continue;
            const double ms = ev.dur_us / 1e3;
            total_ms_[ev.name] += ms;
            max_ms_[ev.name] = std::max(max_ms_[ev.name], ms);
        }
        seen_ = evicted + static_cast<long long>(evs.size());
    }

    /** Events lost to full rings or to the store's cap. */
    long long lost() const
    {
        return lost_ + telemetry::droppedEvents() - dropped0_;
    }
    double total(const std::string &name) const
    {
        const auto it = total_ms_.find(name);
        return it == total_ms_.end() ? 0.0 : it->second;
    }
    double longest(const std::string &name) const
    {
        const auto it = max_ms_.find(name);
        return it == max_ms_.end() ? 0.0 : it->second;
    }
    bool has(const std::string &name) const
    {
        return total_ms_.count(name) != 0;
    }

  private:
    const std::set<std::uint64_t> &ids_;
    std::mutex &ids_mu_;
    long long seen_;
    long long dropped0_;
    long long lost_ = 0;
    std::map<std::string, double> total_ms_;
    std::map<std::string, double> max_ms_;
};

/** Median replay round trip of kClients untraced clients sending one
 * round's repeats concurrently: the base of trace.overhead_pct. */
double
calibrateReplay(const Args &args, const Daemon &d,
                const Clock::time_point origin, std::string *why)
{
    std::vector<std::vector<double>> rts(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            SpanRecorder off(origin, false);
            TracedClient client(off);
            if (Status s = client.connect(d.socket); !s.ok()) {
                errors[c] = "connect: " + s.toString();
                return;
            }
            const std::vector<Planned> plan = planRound(args.seed, 0, c);
            for (int i = 0; i < kRepeatsPerRound; ++i) {
                service::SweepReply reply;
                bool coalesced = false;
                const Clock::time_point t0 = Clock::now();
                if (Status s = client.sweep(plan[i].request, &reply,
                                            &coalesced);
                    !s.ok()) {
                    errors[c] = "calibration: " + s.toString();
                    return;
                }
                rts[c].push_back(msSince(t0));
            }
            client.goodbye();
        });
    for (std::thread &t : threads)
        t.join();
    std::vector<double> all;
    for (int c = 0; c < kClients; ++c) {
        if (!errors[c].empty())
            *why = errors[c];
        all.insert(all.end(), rts[c].begin(), rts[c].end());
    }
    return median(all);
}

void
runTraced(const Args &args, const Daemon &d, const References &refs,
          Report *report)
{
    const Clock::time_point origin = Clock::now();
    std::string why;
    const double calib_ms = calibrateReplay(args, d, origin, &why);
    if (!why.empty()) {
        report->setup_ok = false;
        report->notes.push_back(why);
        return;
    }

    std::vector<std::unique_ptr<SpanRecorder>> recs;
    std::vector<std::unique_ptr<TracedClient>> clients;
    for (int c = 0; c < kClients; ++c) {
        recs.push_back(std::make_unique<SpanRecorder>(origin));
        clients.push_back(std::make_unique<TracedClient>(*recs.back()));
    }
    std::mutex ids_mu;
    std::set<std::uint64_t> trace_ids;

    telemetry::setTracingEnabled(true);
    ServerSpans server(trace_ids, ids_mu);
    const auto before = counterSnapshot();
    telemetry::Histogram &req_hist =
        telemetry::histogram("apex.service.request_ms");
    const double exec_sum0 = req_hist.sum();
    const long long exec_n0 = req_hist.count();
    const double lane_start = msSince(origin);
    for (int c = 0; c < kClients; ++c)
        if (Status s = clients[c]->connect(d.socket); !s.ok()) {
            report->setup_ok = false;
            report->notes.push_back("connect: " + s.toString());
            telemetry::setTracingEnabled(false);
            return;
        }

    long lane0_requests = 0;
    const auto send = [&](int c, const service::SweepRequest &base,
                          service::SweepReply *reply, double *rt_ms) {
        service::SweepRequest req = base;
        req.trace_id = service::mintTraceId();
        {
            std::lock_guard<std::mutex> lock(ids_mu);
            trace_ids.insert(req.trace_id);
        }
        bool coalesced = false;
        const Clock::time_point t0 = Clock::now();
        Status s = clients[c]->sweep(req, reply, &coalesced);
        *rt_ms = msSince(t0);
        {
            ScopedSpan span(*recs[c], "service.render");
            (void)service::renderSweepText(reply->entries, reply->report);
        }
        // Lane 0 drains the span rings as it goes.  The other gather()
        // runs between rounds, while every lane waits at the barrier.
        if (c == 0 && ++lane0_requests % 256 == 0)
            server.gather();
        return s;
    };
    const Rounds rounds = runRounds(args.seed, args.seconds, refs, send,
                                    [&] { server.gather(); });
    const double window_ms = rounds.window_ms;
    const double lane_end = msSince(origin);
    for (auto &c : clients)
        c->goodbye();
    server.gather();
    const auto delta = counterDelta(before, counterSnapshot());
    const double exec_sum = req_hist.sum() - exec_sum0;
    const long long exec_n = req_hist.count() - exec_n0;
    telemetry::setTracingEnabled(false);

    LaneResult all;
    mergeLanes(rounds.lanes, report, &all);
    if (server.lost() > 0) {
        ++report->failed;
        report->notes.push_back(std::to_string(server.lost()) +
                                " daemon span events were lost");
    }
    for (const char *name : kExpectedServerSpans)
        if (!server.has(name)) {
            ++report->failed;
            report->notes.push_back(std::string("no daemon span \"") + name +
                                    "\" in the traced requests");
        }

    // Building and evaluating happen only for fresh keys, replay only
    // for repeats: each layer is averaged over the requests it serves.
    const double requests = static_cast<double>(report->attempted);
    const double fresh = static_cast<double>(all.fresh_ms.size());
    const double repeats = static_cast<double>(all.repeat_ms.size());
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto count = [&](const char *name) {
        return static_cast<double>(delta.at(name));
    };
    auto &m = report->metrics;
    m["mining.mine_ms"] = server.total("mine") / fresh;
    m["mining.rank_ms"] = server.total("mis.rank") / fresh;
    m["mining.rank_max_ms"] = server.longest("mis.rank");
    m["mining.patterns"] = count("apex.mine.patterns") / fresh;
    m["mining.embeddings"] = count("apex.mine.embeddings") / fresh;
    m["mining.matcher_fallbacks"] =
        count("apex.mine.matcher_fallbacks") / fresh;
    m["merging.merge_ms"] = server.total("merge") / fresh;
    m["merging.clique_nodes"] = count("apex.clique.nodes") / fresh;
    m["merging.clique_non_optimal"] = count("apex.clique.non_optimal") / fresh;
    m["core.build_ms"] = server.total("build") / fresh;
    m["core.build_max_ms"] = server.longest("build");
    m["core.journal_append_ms"] = server.total("journal.append") / fresh;
    m["core.journal_replay_ms"] = server.total("journal.replay") / repeats;
    const double task_ms =
        (count("apex.sweep.build_us") + count("apex.sweep.eval_us")) / 1e3;
    m["runtime.lane_occupancy"] =
        ratio(task_ms, window_ms * kExecutors * kJobsPerSweep);
    m["runtime.tasks_stolen"] = count("apex.pool.tasks_stolen") / requests;
    m["runtime.cache_get_ms"] = server.total("cache.get") / fresh;
    m["runtime.cache_put_ms"] = server.total("cache.put") / fresh;
    m["runtime.cache_hit_ratio"] =
        ratio(count("apex.cache.hits"),
              count("apex.cache.hits") + count("apex.cache.misses"));
    // Worker evaluations run in forked children whose spans stay there:
    // their time is the sweep's evaluation time minus the in-process
    // evaluate spans.
    m["runtime.worker_run_ms"] =
        ratio(std::max(0.0, count("apex.sweep.eval_us") / 1e3 -
                                server.total("evaluate")),
              static_cast<double>(all.process_requests));
    m["runtime.worker_restarts"] = count("apex.worker.restarts");
    for (const char *name :
         {"mapper.rewrite_ms", "mapper.rules", "mapper.rewrite_unique_ratio",
          "mapper.select_ms", "mapper.pe_count", "pipeline.pe_ms",
          "pipeline.app_ms", "cgra.place_ms", "cgra.route_ms",
          "cgra.place_attempts", "cgra.place_success_ratio",
          "cgra.route_ripups"})
        report->unmeasured[name] = kInWorkersOrCached;
    report->unmeasured["core.cache_key_ms"] =
        "evalCacheKey has no library span";
    report->unmeasured["runtime.task_inflation"] =
        "the daemon's work has no sequential traced baseline";

    // Parents index into their own lane's list; re-base per lane.
    std::vector<SpanRecord> spans;
    double covered = 0.0;
    for (const auto &rec : recs) {
        covered += rootCoverage(rec->spans());
        const int base = static_cast<int>(spans.size());
        for (SpanRecord s : rec->spans()) {
            if (s.parent >= 0)
                s.parent += base;
            spans.push_back(std::move(s));
        }
    }
    const SpanTotals t = totalsOf(spans);
    const auto mean_span = [&](const char *name) {
        return t.inclusive_ms.at(name) / t.count.at(name);
    };
    double round_trips = 0.0;
    for (double v : all.repeat_ms)
        round_trips += v;
    for (double v : all.fresh_ms)
        round_trips += v;
    m["service.ack_ms"] = mean_span("service.ack");
    m["service.execute_ms"] = ratio(exec_sum, static_cast<double>(exec_n));
    m["service.overhead_ms"] = (round_trips - exec_sum) / requests;
    m["service.render_ms"] = mean_span("service.render");
    m["service.coalesced_ratio"] =
        ratio(count("apex.service.coalesced"), count("apex.service.accepted"));
    m["service.rejected"] = count("apex.service.rejected");
    const Summary replay = summarize(all.repeat_ms);
    m["service.replay_ms_p50"] = replay.p50;
    m["service.replay_ms_p90"] = replay.p90;
    if (!replay.has_p90)
        report->notes.push_back("service.replay_ms_p90: " +
                                replay.why_missing);
    m["service.fresh_ms_p50"] = median(all.fresh_ms);
    for (const auto &[layer, self_ms] : t.layer_self_ms)
        m[layer + ".self_ms"] = self_ms;
    for (const char *layer :
         {"mining", "merging", "core", "mapper", "pipeline", "cgra", "runtime"})
        report->unmeasured[std::string(layer) + ".self_ms"] = kOffLane;

    // Lane time: each client lane contributes its whole window.
    const double lane_ms = (lane_end - lane_start) * kClients;
    double self_sum = 0.0;
    for (const auto &[layer, self_ms] : t.layer_self_ms)
        self_sum += self_ms;
    m["trace.wall_ms"] = lane_ms;
    m["trace.unattributed_ms"] = lane_ms - covered;
    m["trace.overhead_pct"] = 100.0 * ratio(replay.p50 - calib_ms, calib_ms);
    if (std::abs(self_sum + (lane_ms - covered) - lane_ms) > 1e-6 * lane_ms) {
        ++report->failed;
        report->notes.push_back("layer self-times do not sum to the wall");
    }
    report->samples["service.replay_ms_p50"] = replay.n;
    report->samples["service.replay_ms_p90"] = replay.n;
    report->samples["service.fresh_ms_p50"] = all.fresh_ms.size();
    report->samples["trace.overhead_pct"] = replay.n;
}

} // namespace

Report
runDaemon(const Args &args)
{
    Report report;
    References refs;
    for (const char *level : kPrimedLevels)
        if (!loadReference(args.reference_dir, "all", level,
                           &refs[level])) {
            report.setup_ok = false;
            report.notes.push_back(std::string("missing reference all-") +
                                   level + " in " + args.reference_dir);
            return report;
        }

    // Set-up, several times over: every attempt is a complete daemon
    // life (fresh directory, start, prime), torn down and checked
    // except the last, which serves the measured traffic.
    const int fds_before = openFdCount();
    if (!resetPeakRss()) {
        report.setup_ok = false;
        report.notes.push_back("cannot reset the peak RSS");
        return report;
    }
    std::vector<double> setup_s;
    Daemon d;
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0) {
            if (std::string why = stopDaemon(&d, fds_before); !why.empty()) {
                report.setup_ok = false;
                report.notes.push_back("teardown: " + why);
                return report;
            }
            d = Daemon{};
        }
        const Clock::time_point t0 = Clock::now();
        Status s = startDaemon(args, &d);
        std::string why = s.ok() ? prime(d, refs) : s.toString();
        setup_s.push_back(msSince(t0) / 1e3);
        if (!why.empty()) {
            report.setup_ok = false;
            report.notes.push_back("set-up: " + why);
            (void)stopDaemon(&d, fds_before);
            return report;
        }
        if (args.trace)
            break; // setup_s is not reported by the traced run
    }

    if (args.trace)
        runTraced(args, d, refs, &report);
    else
        runUntraced(args, d, refs, &report);

    if (std::string why = stopDaemon(&d, fds_before); !why.empty()) {
        report.setup_ok = false;
        report.notes.push_back("teardown: " + why);
    }
    if (!args.trace) {
        report.metrics["setup_s"] = median(setup_s);
        report.samples["setup_s"] = setup_s.size();
    }
    return report;
}

} // namespace perfbench
