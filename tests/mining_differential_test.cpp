#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/status.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "mining/miner.hpp"
#include "oracles/oracles.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * Differential tests: the DFS-code miner (FrequentSubgraphMiner) must
 * produce byte-identical pattern lists to the historic engine kept in
 * tests/oracles/miner_reference.cpp, on every paper application and
 * on randomized graphs, under both support metrics, at any job count,
 * and in the max_embeddings overflow regime.
 */

namespace apex::mining {
namespace {

using ir::Graph;
using ir::GraphBuilder;
using ir::Value;

/** Full byte comparison of two mined pattern lists. */
void
expectIdentical(const std::vector<MinedPattern> &ref,
                const std::vector<MinedPattern> &got,
                const std::string &context)
{
    ASSERT_EQ(ref.size(), got.size()) << context;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const std::string at = context + " pattern " +
                               std::to_string(i);
        EXPECT_EQ(ref[i].code, got[i].code) << at;
        EXPECT_EQ(ir::serialize(ref[i].pattern),
                  ir::serialize(got[i].pattern)) << at;
        EXPECT_EQ(ref[i].core_size, got[i].core_size) << at;
        EXPECT_EQ(ref[i].occurrences, got[i].occurrences) << at;
        EXPECT_EQ(ref[i].frequency, got[i].frequency) << at;
        EXPECT_EQ(ref[i].mni_support, got[i].mni_support) << at;
    }
}

/** Run both engines on @p app with @p opt and compare everything. */
void
runDifferential(const Graph &app, const MinerOptions &opt,
                const std::string &context,
                MineStats *ref_out = nullptr,
                MineStats *dfs_out = nullptr)
{
    MineStats ref_stats;
    const auto ref = minePatternsReference(app, opt, &ref_stats);

    MineStats dfs_stats;
    const auto got = FrequentSubgraphMiner(opt).mine(app, &dfs_stats);

    expectIdentical(ref, got, context);
    EXPECT_EQ(ref_stats.capped_levels, dfs_stats.capped_levels)
        << context;
    EXPECT_EQ(ref_stats.patterns, dfs_stats.patterns) << context;
    if (ref_out != nullptr)
        *ref_out = ref_stats;
    if (dfs_out != nullptr)
        *dfs_out = dfs_stats;
}

/** Deterministic DAG generator (LCG; no std::random across stdlibs). */
class Lcg {
  public:
    explicit Lcg(std::uint64_t seed) : state_(seed * 2 + 1) {}
    std::uint64_t next()
    {
        state_ = state_ * 6364136223846793005ULL +
                 1442695040888963407ULL;
        return state_ >> 33;
    }
    int below(int n) { return static_cast<int>(next() % n); }

  private:
    std::uint64_t state_;
};

Graph
randomDag(std::uint64_t seed, int nodes)
{
    GraphBuilder b;
    Lcg rng(seed);
    std::vector<Value> values;
    for (int i = 0; i < 4; ++i)
        values.push_back(b.input("in" + std::to_string(i)));
    for (int i = 0; i < nodes; ++i) {
        const Value a = values[rng.below(
            static_cast<int>(values.size()))];
        const Value c = values[rng.below(
            static_cast<int>(values.size()))];
        Value v;
        switch (rng.below(5)) {
          case 0: v = b.add(a, c); break;
          case 1: v = b.mul(a, c); break;
          case 2: v = b.sub(a, c); break;
          case 3: v = b.max(a, c); break;
          default:
            v = b.add(a, b.constant(rng.below(3), "k"));
            break;
        }
        values.push_back(v);
    }
    b.output(values.back(), "out");
    return b.take();
}

TEST(MiningDifferentialTest, AllPaperApps) {
    MineStats ref_total, dfs_total;
    for (const apps::AppInfo &info : apps::allApps()) {
        MineStats ref_stats, dfs_stats;
        runDifferential(info.graph,
                        {.min_support = 3,
                         .max_pattern_nodes = 4,
                         .max_patterns_per_level = 256},
                        info.name, &ref_stats, &dfs_stats);
        ref_total.matcher_calls += ref_stats.matcher_calls;
        dfs_total.matcher_calls += dfs_stats.matcher_calls;
    }
    // The point of the engine: support comes from incremental
    // embedding extension, not isomorphism re-matching.  The bench
    // gate requires >= 3x fewer matcher invocations; assert the same
    // bound here so a silent regression fails in plain ctest too.
    EXPECT_LE(dfs_total.matcher_calls * 3, ref_total.matcher_calls);
}

TEST(MiningDifferentialTest, RandomGraphsBothMetrics) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Graph g = randomDag(seed, 40 + 5 * (seed % 3));
        for (const SupportMetric metric :
             {SupportMetric::kDistinctNodeSets, SupportMetric::kMni}) {
            for (const int support : {2, 3}) {
                runDifferential(
                    g,
                    {.min_support = support,
                     .max_pattern_nodes = 4,
                     .metric = metric},
                    "seed " + std::to_string(seed) + " metric " +
                        std::to_string(static_cast<int>(metric)) +
                        " support " + std::to_string(support));
            }
        }
    }
}

TEST(MiningDifferentialTest, JobsInvariance) {
    const apps::AppInfo app = apps::gaussianBlur();
    MinerOptions opt{.min_support = 3, .max_pattern_nodes = 4};
    const auto sequential = FrequentSubgraphMiner(opt).mine(app.graph);
    MineStats seq_stats;
    FrequentSubgraphMiner(opt).mine(app.graph, &seq_stats);
    for (const int jobs : {2, 4}) {
        runtime::ThreadPool pool(jobs);
        MinerOptions popt = opt;
        popt.pool = &pool;
        MineStats par_stats;
        const auto parallel =
            FrequentSubgraphMiner(popt).mine(app.graph, &par_stats);
        expectIdentical(sequential, parallel,
                        "jobs " + std::to_string(jobs));
        // Stats are scheduling-invariant too, not just the output.
        EXPECT_EQ(seq_stats.candidates, par_stats.candidates);
        EXPECT_EQ(seq_stats.duplicates, par_stats.duplicates);
        EXPECT_EQ(seq_stats.embeddings, par_stats.embeddings);
        EXPECT_EQ(seq_stats.matcher_calls, par_stats.matcher_calls);
        EXPECT_EQ(seq_stats.capped_levels, par_stats.capped_levels);
    }
}

TEST(MiningDifferentialTest, ReferenceEngineJobsInvariance) {
    const apps::AppInfo app = apps::unsharp();
    MinerOptions opt{.min_support = 3, .max_pattern_nodes = 4};
    const auto sequential = minePatternsReference(app.graph, opt);
    runtime::ThreadPool pool(3);
    opt.pool = &pool;
    const auto parallel = minePatternsReference(app.graph, opt);
    expectIdentical(sequential, parallel, "reference jobs 3");
}

TEST(MiningDifferentialTest, DeadlineExpiryBothEngines) {
    const apps::AppInfo app = apps::gaussianBlur();
    const MinerOptions opt{.min_support = 2,
                           .max_pattern_nodes = 4,
                           .deadline = Deadline::after(0)};
    for (const bool reference : {false, true}) {
        try {
            if (reference)
                minePatternsReference(app.graph, opt);
            else
                FrequentSubgraphMiner(opt).mine(app.graph);
            FAIL() << "expired deadline must throw";
        } catch (const ApexError &e) {
            EXPECT_EQ(e.status().code(), ErrorCode::kTimeout);
            EXPECT_NE(e.status().message().find("mining level"),
                      std::string::npos);
        }
    }
}

TEST(MiningDifferentialTest, MaxEmbeddingsOverflowFallback) {
    // A cap far below the real embedding counts forces the incremental
    // lists to overflow into the matcher fallback; the engines must
    // stay identical because the fallback reproduces the reference's
    // truncated matcher lists exactly.
    const apps::AppInfo app = apps::gaussianBlur();
    for (const std::size_t cap : {std::size_t{4}, std::size_t{16}}) {
        MineStats ref_stats, dfs_stats;
        runDifferential(app.graph,
                        {.min_support = 2,
                         .max_pattern_nodes = 4,
                         .max_embeddings = cap},
                        "cap " + std::to_string(cap), &ref_stats,
                        &dfs_stats);
        EXPECT_GT(dfs_stats.matcher_calls, 0) << "cap " << cap;
    }
}

TEST(MiningDifferentialTest, MinSupportEdgeCases) {
    const Graph g = randomDag(42, 30);
    // Support of 1 keeps everything; a huge support keeps nothing.
    runDifferential(g, {.min_support = 1, .max_pattern_nodes = 3},
                    "support 1");
    const MinerOptions none{.min_support = 1000};
    EXPECT_TRUE(FrequentSubgraphMiner(none).mine(g).empty());
    EXPECT_TRUE(minePatternsReference(g, none).empty());
}

TEST(MiningDifferentialTest, FrontierTruncationDetectedIdentically) {
    const apps::AppInfo app = apps::gaussianBlur();
    MineStats ref_stats, dfs_stats;
    runDifferential(app.graph,
                    {.min_support = 2,
                     .max_pattern_nodes = 4,
                     .max_patterns_per_level = 3},
                    "capped frontier", &ref_stats, &dfs_stats);
    EXPECT_FALSE(dfs_stats.capped_levels.empty());
    EXPECT_EQ(ref_stats.capped_levels, dfs_stats.capped_levels);
}

} // namespace
} // namespace apex::mining
