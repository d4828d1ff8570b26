/**
 * End-to-end process tests of the apexc CLI: exit codes must match
 * exitCodeFor() for success, validation failures, the timeout path
 * and cooperative cancellation, a SIGKILLed journaled sweep must
 * resume to byte-identical output, a process-isolated sweep must
 * fill and then read its --cache-dir, a client sweep through a live
 * apexd must match batch mode, and apexd must serve a client the
 * moment its socket file appears.
 *
 * Output files are published or reported: a file apexc or apexd
 * cannot write exits 2 naming the path, and a symlinked output keeps
 * its link.  A PE variant that fails to build exits with its stage's
 * code, printing and writing nothing.
 *
 * Each test shells out to the real binaries (APEXC_PATH and
 * APEXD_PATH are injected by CMake), so these cover the signal
 * handlers and process teardown that in-process tests cannot.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.hpp"
#include "frame_forge.hpp"

namespace apex {
namespace {

namespace fs = std::filesystem;

/** Scratch dir per test and process (two runs of the suite on one
 * host must not share one), removed on scope exit. */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("apex_cli_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** Run @p cmd through the shell; return its exit code (or the signal
 * number + 128, as the shell reports a killed child). */
int
run(const std::string &cmd)
{
    const int raw = std::system(cmd.c_str());
    if (raw == -1)
        return -1;
    if (WIFEXITED(raw))
        return WEXITSTATUS(raw);
    if (WIFSIGNALED(raw))
        return 128 + WTERMSIG(raw);
    return -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

const std::string apexc = APEXC_PATH;
const std::string apexd = APEXD_PATH;

TEST(Cli, SuccessExitsZero)
{
    EXPECT_EQ(run(apexc + " apps > /dev/null"), 0);
}

TEST(Cli, InvalidArgumentsExitWithValidationCode)
{
    const int want = exitCodeFor(ErrorCode::kInvalidArgument);
    EXPECT_EQ(run(apexc + " sweep --level bogus 2> /dev/null"),
              want);
    EXPECT_EQ(run(apexc + " explore no_such_app 2> /dev/null"),
              want);
    // --resume without --cache-dir: there is no journal to replay.
    EXPECT_EQ(run(apexc + " sweep --resume 2> /dev/null"), want);
}

TEST(Cli, UnknownVariantIsAUsageErrorListingTheAcceptedNames)
{
    // An unknown --variant never falls back to PE Base: it prints and
    // writes nothing and names every variant the command takes.
    ScratchDir dir("unknown_variant");
    const std::string rtl = dir.str() + "/rtl";
    const std::string out = dir.str() + "/out";
    const std::string err = dir.str() + "/err";
    fs::create_directories(rtl);
    const int want = exitCodeFor(ErrorCode::kInvalidArgument);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {" explore camera --variant bogus --level map",
         "base, pe1, spec, ip, ml, biglittle"},
        {" rtl camera --variant typo -o " + rtl,
         "base, pe1, spec, ip, ml)"},
    };
    for (const auto &[args, names] : cases) {
        EXPECT_EQ(run(apexc + args + " > " + out + " 2> " + err), want)
            << args;
        EXPECT_EQ(slurp(out), "") << args;
        EXPECT_NE(slurp(err).find(names), std::string::npos)
            << args << ": " << slurp(err);
    }
    EXPECT_TRUE(fs::is_empty(rtl));
}

TEST(Cli, MalformedNumericFlagIsAUsageError)
{
    // A numeric flag's value is one whole number or a usage error
    // naming the flag and the value, never a silent zero.
    ScratchDir dir("malformed_number");
    const std::string out = dir.str() + "/out";
    const std::string err = dir.str() + "/err";
    const int want = exitCodeFor(ErrorCode::kInvalidArgument);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {" sweep --level map --deadline abc", "'abc' for --deadline"},
        {" analyze camera --support abc", "'abc' for --support"},
        {" explore camera --level map --jobs 2x", "'2x' for --jobs"},
    };
    for (const auto &[args, message] : cases) {
        EXPECT_EQ(run(apexc + args + " > " + out + " 2> " + err), want)
            << args;
        EXPECT_EQ(slurp(out), "") << args;
        EXPECT_NE(slurp(err).find(message), std::string::npos)
            << args << ": " << slurp(err);
    }
}

TEST(Cli, MalformedJobsVariableIsAUsageError)
{
    // APEX_JOBS is checked like --jobs: a malformed value is a usage
    // error naming the variable, not a silent default lane count.
    ScratchDir dir("malformed_jobs_env");
    const std::string out = dir.str() + "/out";
    const std::string err = dir.str() + "/err";
    EXPECT_EQ(run("APEX_JOBS=abc " + apexc +
                  " sweep --level map --diagnostics > " + out + " 2> " +
                  err),
              exitCodeFor(ErrorCode::kInvalidArgument));
    EXPECT_EQ(slurp(out), "");
    EXPECT_NE(slurp(err).find("malformed value 'abc' for APEX_JOBS"),
              std::string::npos)
        << slurp(err);

    EXPECT_EQ(run("APEX_JOBS=2 " + apexc +
                  " sweep --level map --diagnostics > " + out + " 2> " +
                  err),
              0);
    EXPECT_NE(slurp(err).find("jobs=2 "), std::string::npos)
        << slurp(err);
}

TEST(Cli, ExpiredDeadlineExitsWithTimeoutCode)
{
    // The clock-skew fault makes the first deadline poll observe an
    // expired clock, so the timeout path runs without real waiting
    // despite the huge nominal budget.
    const int code =
        run("APEX_FAULT=clock:1:1000000 " + apexc +
            " sweep --level map --deadline 600000 > /dev/null");
    EXPECT_EQ(code, exitCodeFor(ErrorCode::kTimeout));
}

TEST(Cli, AlreadyExpiredDeadlineExitsTimeoutWithCoherentReport)
{
    // --deadline 0 is expired before the first cell can start: the
    // sweep must not wedge or report success — every cell is skipped
    // and the exit code is the timeout code, in both isolate modes.
    ScratchDir dir("deadline_zero");
    const int want = exitCodeFor(ErrorCode::kTimeout);
    for (const std::string isolate : {"thread", "process"}) {
        const std::string out =
            dir.str() + "/report_" + isolate + ".out";
        EXPECT_EQ(run(apexc + " sweep --level map --deadline 0" +
                      " --isolate " + isolate + " > " + out),
                  want)
            << isolate;
        const std::string report = slurp(out);
        EXPECT_NE(report.find("0 evaluated"), std::string::npos)
            << isolate << ": " << report;
    }
}

TEST(Cli, WorkerKillSweepCompletesWithQuarantine)
{
    // A cell that kills its worker on every allowed attempt must be
    // quarantined with its cause in the report while the rest of the
    // sweep completes; transparent recovery (1 kill, retries left)
    // must leave no trace in the report at all.
    ScratchDir dir("worker_kill");
    const std::string ref_out = dir.str() + "/reference.out";
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);

    const std::string recovered = dir.str() + "/recovered.out";
    EXPECT_EQ(run("APEX_FAULT=worker_kill:2 " + apexc +
                  " sweep --level map --isolate process > " +
                  recovered + " 2> /dev/null"),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(recovered));

    // Quarantine does not fail the sweep: the other cells evaluated,
    // so the exit code stays 0 and the failure lives in the report.
    const std::string poisoned = dir.str() + "/poisoned.out";
    EXPECT_EQ(run("APEX_FAULT=worker_kill:1:3 " + apexc +
                  " sweep --level map --isolate process"
                  " --cell-retries 2 > " +
                  poisoned + " 2> /dev/null"),
              0);
    const std::string report = slurp(poisoned);
    EXPECT_NE(report.find("stage 'worker'"), std::string::npos)
        << report;
    EXPECT_NE(report.find("(crash)"), std::string::npos) << report;
}

TEST(Cli, SigtermCancelsCooperativelyWithCancelledCode)
{
    // Post-PnR sweeps run for seconds; a SIGTERM shortly after launch
    // lands mid-sweep and must come back as a clean kCancelled exit,
    // not a default-action kill (which the shell would report as 143).
    const int code = run(
        "sh -c '" + apexc +
        " sweep --level pnr > /dev/null & pid=$!; sleep 0.2; "
        "kill -TERM $pid; wait $pid'");
    EXPECT_EQ(code, exitCodeFor(ErrorCode::kCancelled));
}

TEST(Cli, CrashedSweepResumesByteIdentical)
{
    ScratchDir dir("crash_resume");
    const std::string cache = dir.str() + "/cache";
    const std::string ref_out = dir.str() + "/reference.out";
    const std::string resume_out = dir.str() + "/resumed.out";

    // Reference: one uninterrupted, unjournaled sweep.
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);

    // Crash: the fault injector hard-kills the process (as kill -9
    // would) at the 3rd journal append.
    const int crashed =
        run("APEX_FAULT=crash:3 " + apexc +
            " sweep --level map --cache-dir " + cache +
            " > /dev/null 2>&1");
    EXPECT_EQ(crashed, 128 + SIGKILL);
    EXPECT_TRUE(fs::exists(cache + "/sweep.journal"));

    // Resume: replays the journaled prefix, finishes the rest, and
    // prints exactly what the uninterrupted run printed.
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " --resume > " + resume_out),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(resume_out));
}

TEST(Cli, ResumeOverAForgedJournalLengthIsByteIdentical)
{
    // A journal whose last frame claims a length no reader may honor
    // (a corrupt disk, a hostile writer): --resume drops that frame
    // as a damaged tail, re-evaluates its cell and prints exactly
    // the uninterrupted report.
    ScratchDir dir("forged_journal");
    const std::string cache = dir.str() + "/cache";
    const std::string ref_out = dir.str() + "/reference.out";
    const std::string resume_out = dir.str() + "/resumed.out";
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " > " + ref_out),
              0);
    test::forgeFrameLength(cache + "/sweep.journal", test::kLastFrame);
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " --resume > " + resume_out),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(resume_out));
}

TEST(Cli, ForgedCacheEntryLengthCostsTimeNotCorrectness)
{
    ScratchDir dir("forged_cache");
    const std::string cache = dir.str() + "/cache";
    const std::string ref_out = dir.str() + "/reference.out";
    const std::string rerun_out = dir.str() + "/rerun.out";
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " > /dev/null"),
              0);
    std::string entry;
    for (const auto &f : fs::directory_iterator(cache))
        if (f.path().extension() == ".apexcache")
            entry = f.path().string();
    ASSERT_FALSE(entry.empty());
    test::forgeFrameLength(entry, 0);
    // The forged entry is a miss: its cell is recomputed, every
    // other cell is served from disk, and the report is unchanged.
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " > " + rerun_out),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(rerun_out));
}

TEST(Cli, ProcessSweepReadsAndFillsTheCache)
{
    // Under --isolate process the supervisor stores what its workers
    // compute, so a second run over the same --cache-dir serves every
    // cell from the cache and prints the same report.
    ScratchDir dir("process_cache");
    const std::string cache = dir.str() + "/cache";
    std::string out[2];
    std::string err[2];
    for (int i = 0; i < 2; ++i) {
        const std::string base = dir.str() + "/run" + std::to_string(i);
        ASSERT_EQ(run(apexc + " sweep --level map --isolate process" +
                      " --cache-dir " + cache + " --diagnostics > " +
                      base + ".out 2> " + base + ".err"),
                  0);
        out[i] = slurp(base + ".out");
        err[i] = slurp(base + ".err");
    }
    EXPECT_NE(out[0].find("evaluated"), std::string::npos) << out[0];
    EXPECT_EQ(out[0], out[1]);
    EXPECT_NE(err[0].find("cache=0/27"), std::string::npos) << err[0];
    EXPECT_NE(err[1].find("cache=27/27"), std::string::npos) << err[1];
}

TEST(Cli, DiskFullJournalExitsResourceExhausted)
{
    // A journaled sweep whose very first durability write hits a
    // full disk must fail loudly with the resource-exhaustion exit
    // code (DESIGN.md Sec. 7h) — running on silently would leave an
    // unreplayable journal behind for the next --resume.
    ScratchDir dir("disk_full");
    const std::string out = dir.str() + "/report.out";
    EXPECT_EQ(run("APEX_FAULT=disk_full:1 " + apexc +
                  " sweep --level map --cache-dir " + dir.str() +
                  "/cache > " + out + " 2> " + dir.str() + "/err"),
              17);
    EXPECT_NE(slurp(dir.str() + "/err").find("ResourceExhausted"),
              std::string::npos);

    // Without --cache-dir there is no durability promise to break:
    // the same fault must not perturb the sweep, and the report is
    // byte-identical to an undisturbed run.  (The cache's
    // degrade-to-memory-only ladder is covered in-process by
    // durability_test.)
    const std::string ref_out = dir.str() + "/reference.out";
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);
    const std::string degraded_out = dir.str() + "/degraded.out";
    EXPECT_EQ(run("APEX_FAULT=disk_full:1 " + apexc +
                  " sweep --level map > " + degraded_out +
                  " 2> /dev/null"),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(degraded_out));
}

// --- Output files: a write that failed is reported, never claimed ------

/** True when a sibling of @p path is named `<file>.tmp*` — a publish
 * left its temporary behind. */
bool
hasTmpSibling(const std::string &path)
{
    const fs::path p(path);
    const std::string prefix = p.filename().string() + ".tmp";
    for (const auto &entry : fs::directory_iterator(p.parent_path()))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            return true;
    return false;
}

/** The value of counter @p name in a metrics dump ("" when absent). */
std::string
counterValue(const std::string &dump, const std::string &name)
{
    const std::string key = "{\"name\":\"" + name + "\",\"value\":";
    const std::size_t at = dump.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + key.size();
    return dump.substr(start, dump.find('}', start) - start);
}

TEST(Cli, UnwritableRtlAndDumpOutputsExitTwoWithoutClaimingThem)
{
    ScratchDir dir("unwritable_outputs");
    const std::string missing = dir.str() + "/missing";
    const std::string out = dir.str() + "/out";
    const std::string err = dir.str() + "/err";
    const int want = exitCodeFor(ErrorCode::kInvalidArgument);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {" rtl camera -o " + missing, missing + "/pe_spec_camera.v"},
        {" dump camera -o " + missing + "/x.apexir",
         missing + "/x.apexir"},
    };
    for (const auto &[args, path] : cases) {
        EXPECT_EQ(run(apexc + args + " > " + out + " 2> " + err), want)
            << args;
        EXPECT_EQ(slurp(out).find("wrote"), std::string::npos)
            << args << ": " << slurp(out);
        EXPECT_NE(slurp(err).find("'" + path + "'"), std::string::npos)
            << args << ": " << slurp(err);
        EXPECT_NE(slurp(err).find("No such file or directory"),
                  std::string::npos)
            << args << ": " << slurp(err);
    }
    EXPECT_FALSE(fs::exists(missing));
}

TEST(Cli, FailedVariantBuildExitsWithItsStageCodeAndPrintsNothing)
{
    // A PE that could not be mined or merged is an exit code, never
    // a less specialized PE reported under the requested name.
    ScratchDir dir("failed_builds");
    const std::string out = dir.str() + "/out";
    const int mine = exitCodeFor(ErrorCode::kMiningFailed);
    const int merge = exitCodeFor(ErrorCode::kMergeInfeasible);
    const std::vector<std::pair<std::string, int>> cases = {
        {"mine:1 " + apexc + " explore camera --variant spec --level map",
         mine},
        {"merge:1 " + apexc + " explore camera --variant spec --level map",
         merge},
        {"mine:1 " + apexc + " explore camera --variant ip --level map",
         mine},
        {"merge:1 " + apexc + " explore camera --variant ip --level map",
         merge},
        {"mine:1 " + apexc + " analyze camera", mine},
    };
    for (const auto &[command, want] : cases) {
        EXPECT_EQ(run("APEX_FAULT=" + command + " > " + out +
                      " 2> /dev/null"),
                  want)
            << command;
        EXPECT_EQ(slurp(out), "") << command;
    }
}

TEST(Cli, FailedRtlBuildWritesNoFile)
{
    ScratchDir dir("failed_rtl");
    const std::string rtl = dir.str() + "/rtl";
    const std::string out = dir.str() + "/out";
    fs::create_directories(rtl);
    EXPECT_EQ(run("APEX_FAULT=mine:1 " + apexc + " rtl camera -o " + rtl +
                  " > " + out + " 2> /dev/null"),
              exitCodeFor(ErrorCode::kMiningFailed));
    EXPECT_EQ(slurp(out), "");
    EXPECT_TRUE(fs::is_empty(rtl));
}

TEST(Cli, DaemonReportsAnUnwritableExitDump)
{
    // apexd publishes --metrics-out once after a clean shutdown; a
    // dump it cannot write turns the exit code into 2 and is named
    // on stderr.
    ScratchDir dir("daemon_exit_dump");
    const std::string socket = dir.str() + "/apexd.sock";
    const std::string metrics = dir.str() + "/missing/m.json";
    const std::string err = dir.str() + "/err";
    const int code = run(
        apexd + " --socket " + socket + " --metrics-out " + metrics +
        " 2> " + err + " & pid=$!; i=0; while [ ! -S " + socket +
        " ] && [ $i -lt 200 ]; do sleep 0.05; i=$((i+1)); done; "
        "kill -TERM $pid; wait $pid");
    EXPECT_EQ(code, 2) << slurp(err);
    EXPECT_NE(slurp(err).find("'" + metrics + "'"), std::string::npos)
        << slurp(err);
    EXPECT_FALSE(fs::exists(metrics));
}

TEST(Cli, SymlinkedMetricsOutKeepsItsLinkWithAnInterval)
{
    ScratchDir dir("metrics_symlink");
    const std::string real = dir.str() + "/real.json";
    const std::string link = dir.str() + "/link.json";
    std::ofstream(real) << "stale\n";
    fs::create_symlink("real.json", link);
    ASSERT_EQ(run(apexc + " apps --metrics-out " + link +
                  " --metrics-interval 1000 > /dev/null"),
              0);
    EXPECT_TRUE(fs::is_symlink(link));
    const std::string dump = slurp(real);
    EXPECT_EQ(dump.find("{\"apex_metrics\":1,"), 0u) << dump;
    EXPECT_EQ(dump.back(), '}') << dump;
    EXPECT_FALSE(hasTmpSibling(real));
}

TEST(Cli, PeriodicMetricsSweepPublishesTheFinalDumpOnce)
{
    // A 5 ms timer republishes the dump all through the sweep; the
    // file left behind is the end-of-run dump, complete, with no
    // temporary beside it.
    ScratchDir dir("periodic_metrics");
    const std::string once = dir.str() + "/once.json";
    const std::string periodic = dir.str() + "/m.json";
    ASSERT_EQ(run(apexc + " sweep --level map --metrics-out " + once +
                  " > /dev/null"),
              0);
    ASSERT_EQ(run(apexc + " sweep --level map --metrics-out " +
                  periodic + " --metrics-interval 5 > /dev/null"),
              0);
    const std::string dump = slurp(periodic);
    EXPECT_EQ(dump.find("{\"apex_metrics\":1,"), 0u) << dump;
    EXPECT_EQ(dump.back(), '}') << dump;
    EXPECT_FALSE(hasTmpSibling(periodic));
    const std::string tasks = counterValue(slurp(once), "apex.sweep.tasks");
    EXPECT_FALSE(tasks.empty());
    EXPECT_EQ(counterValue(dump, "apex.sweep.tasks"), tasks);
}

TEST(Cli, VersionReportsBuildIdentityAndProtocol)
{
    ScratchDir dir("version");
    const std::string out = dir.str() + "/version.out";
    ASSERT_EQ(run(apexc + " --version > " + out), 0);
    const std::string text = slurp(out);
    EXPECT_EQ(text.find("apex "), 0u);
    EXPECT_NE(text.find("protocol v"), std::string::npos);
}

/** A background apexd serving a socket in @p dir, started with the
 * shell variable assignments in @p env; ready once its socket file
 * exists, and SIGTERMed (which removes its socket) when the scope
 * ends. */
class Daemon {
  public:
    explicit Daemon(const std::string &dir, const std::string &env = "")
        : socket_(dir + "/apexd.sock"), pid_(dir + "/apexd.pid")
    {
        run(env + " " + apexd + " --socket " + socket_ +
            " > /dev/null 2>&1 & echo $! > " + pid_);
        for (int i = 0; i < 1000 && !fs::exists(socket_); ++i)
            ::usleep(5000);
    }
    ~Daemon()
    {
        run("kill -TERM $(cat " + pid_ + ") 2> /dev/null");
        for (int i = 0; i < 100 && fs::exists(socket_); ++i)
            run("sleep 0.05");
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    std::string pid_;
};

TEST(Cli, DaemonServesAClientTheMomentItsSocketAppears)
{
    // The socket file is apexd's readiness signal (Daemon above and
    // CI wait for it), so the file must not exist before the daemon
    // listens.  The shim holds listen() back by 300 ms: a file that
    // appeared at bind() would refuse this client with exit 16.  An
    // ASan runtime would object to a preloaded library ahead of it.
    ScratchDir dir("listen_ready");
    const Daemon daemon(
        dir.str(), std::string("LD_PRELOAD=") + SLOW_LISTEN_PATH +
                       " ASAN_OPTIONS=${ASAN_OPTIONS:+$ASAN_OPTIONS:}"
                       "verify_asan_link_order=0");
    ASSERT_TRUE(fs::exists(daemon.socket()));
    const std::string err = dir.str() + "/client.err";
    EXPECT_EQ(run(apexc + " client info --socket " + daemon.socket() +
                  " > /dev/null 2> " + err),
              0)
        << slurp(err);
}

TEST(Cli, ClientSweepMatchesBatchOnExpiredDeadline)
{
    // --deadline 0 is "already expired" on both paths: through a
    // live apexd the client prints batch's bytes and exits with the
    // same timeout code.
    ScratchDir dir("client_deadline_zero");
    const Daemon daemon(dir.str());
    ASSERT_TRUE(fs::exists(daemon.socket()));

    const int want = exitCodeFor(ErrorCode::kTimeout);
    const std::string batch = dir.str() + "/batch.out";
    const std::string client = dir.str() + "/client.out";
    EXPECT_EQ(run(apexc + " sweep --level map --deadline 0 > " + batch),
              want);
    EXPECT_EQ(run(apexc + " client sweep --level map --deadline 0" +
                  " --socket " + daemon.socket() + " > " + client),
              want);
    EXPECT_NE(slurp(batch).find("0 evaluated"), std::string::npos);
    EXPECT_EQ(slurp(batch), slurp(client));
}

TEST(Cli, ClientSweepReportsAnUnwritableMergedTrace)
{
    // The merged trace follows the output-file rule: a trace that
    // cannot be written is named on stderr and turns the successful
    // sweep's exit code into 2; the report still prints.
    ScratchDir dir("client_trace_unwritable");
    const Daemon daemon(dir.str());
    ASSERT_TRUE(fs::exists(daemon.socket()));
    const std::string trace = dir.str() + "/missing/trace.json";
    const std::string out = dir.str() + "/client.out";
    const std::string err = dir.str() + "/client.err";
    EXPECT_EQ(run(apexc + " client sweep --level map --socket " +
                  daemon.socket() + " --trace " + trace + " > " + out +
                  " 2> " + err),
              exitCodeFor(ErrorCode::kInvalidArgument));
    EXPECT_NE(slurp(out).find("evaluated"), std::string::npos);
    EXPECT_NE(slurp(err).find("'" + trace + "'"), std::string::npos)
        << slurp(err);
}

TEST(Cli, ClientWithoutDaemonExitsUnavailable)
{
    ScratchDir dir("no_daemon");
    // No daemon listens here; the client must fail fast with the
    // service-stage exit code, not hang or crash.
    EXPECT_EQ(run(apexc + " client sweep --socket " + dir.str() +
                  "/absent.sock > /dev/null 2>&1"),
              exitCodeFor(ErrorCode::kUnavailable));
    EXPECT_EQ(run(apexc + " client info --socket " + dir.str() +
                  "/absent.sock > /dev/null 2>&1"),
              exitCodeFor(ErrorCode::kUnavailable));
}

} // namespace
} // namespace apex
