#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "cgra/fabric.hpp"
#include "cgra/place.hpp"
#include "core/bitset.hpp"
#include "core/deadline.hpp"
#include "core/explorer.hpp"
#include "core/mt19937.hpp"
#include "ir/builder.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "merging/clique.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"
#include "model/tech.hpp"
#include "oracles/oracles.hpp"
#include "pe/baseline.hpp"
#include "pe/functional.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"

/*
 * Differential suite for the bitset combinatorial kernels, the
 * lowered rewrite-rule validator and the integer-delta placer: every
 * optimized kernel must return byte-identical results to its retained
 * reference implementation — order included, truncation paths
 * included.  Seeds are fixed, so a mismatch is a determinism-contract
 * break, not flakiness.
 */
namespace {

using apex::Deadline;

/** Deterministic LCG so instances are identical on every platform. */
struct Lcg {
    std::uint32_t state;
    explicit Lcg(std::uint32_t seed) : state(seed) {}
    std::uint32_t next()
    {
        state = state * 1664525u + 1013904223u;
        return state >> 16;
    }
};

// ---------------------------------------------------------------------
// DenseBitset / BitsetMatrix substrate.

TEST(BitsetTest, SetTestCountReset) {
    apex::core::DenseBitset bs(130);
    EXPECT_TRUE(bs.none());
    bs.set(0);
    bs.set(63);
    bs.set(64);
    bs.set(129);
    EXPECT_EQ(bs.count(), 4u);
    EXPECT_TRUE(bs.test(63));
    EXPECT_FALSE(bs.test(62));
    bs.reset(63);
    EXPECT_FALSE(bs.test(63));
    EXPECT_EQ(bs.count(), 3u);
}

TEST(BitsetTest, SetAllRespectsUniverse) {
    apex::core::DenseBitset bs(70);
    bs.setAll();
    EXPECT_EQ(bs.count(), 70u);
}

TEST(BitsetTest, ForEachAscending) {
    apex::core::DenseBitset bs(200);
    const std::vector<int> want = {3, 64, 65, 127, 128, 199};
    for (int i : want)
        bs.set(static_cast<std::size_t>(i));
    std::vector<int> got;
    bs.forEach([&](int i) { got.push_back(i); });
    EXPECT_EQ(got, want);
}

TEST(BitsetTest, IntersectAndNotDisjoint) {
    apex::core::DenseBitset a(100), b(100);
    a.set(1);
    a.set(70);
    a.set(99);
    b.set(70);
    b.set(2);
    apex::core::DenseBitset c = a;
    c &= b;
    EXPECT_EQ(c.count(), 1u);
    EXPECT_TRUE(c.test(70));
    a.andNot(b);
    EXPECT_FALSE(a.test(70));
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.disjoint(c) == false || !a.test(70));
    apex::core::DenseBitset d(100);
    d.set(5);
    EXPECT_TRUE(c.disjoint(d));
}

TEST(BitsetTest, MatrixRowsIndependent) {
    apex::core::BitsetMatrix m(3, 90);
    m.set(0, 5);
    m.set(1, 5);
    m.set(1, 80);
    EXPECT_TRUE(m.test(0, 5));
    EXPECT_FALSE(m.test(2, 5));
    EXPECT_EQ(m.rowCount(1), 2u);
    m.intersectRows(2, 0, 1);
    EXPECT_EQ(m.rowCount(2), 1u);
    EXPECT_TRUE(m.test(2, 5));
    m.clearRow(1);
    EXPECT_FALSE(m.rowAny(1));
    m.ensureRows(6);
    EXPECT_GE(m.rows(), 6u);
    EXPECT_FALSE(m.rowAny(5));
}

// ---------------------------------------------------------------------
// Clique: bitset BBMC vs reference, both bounds, truncation paths.

using apex::merging::CliqueBound;
using apex::merging::CliqueProblem;
using apex::merging::CliqueResult;
using apex::merging::maxWeightClique;
using apex::merging::maxWeightCliqueReference;

/** Random graph with integer-grid weights (exact FP comparisons are
 * well-defined on them). */
CliqueProblem
randomClique(int n, int density_pct, std::uint32_t seed)
{
    CliqueProblem p;
    p.n = n;
    p.weight.resize(n);
    p.adj.assign(n, std::vector<bool>(n, false));
    Lcg lcg(seed);
    for (int i = 0; i < n; ++i)
        p.weight[i] = 1.0 + static_cast<double>(lcg.next() % 7);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (static_cast<int>(lcg.next() % 100) < density_pct) {
                p.adj[i][j] = true;
                p.adj[j][i] = true;
            }
    return p;
}

void
expectSameClique(const CliqueResult &a, const CliqueResult &b,
                 bool compare_nodes)
{
    EXPECT_EQ(a.vertices, b.vertices);
    EXPECT_EQ(a.weight, b.weight); // exact: identical arithmetic
    EXPECT_EQ(a.optimal, b.optimal);
    EXPECT_EQ(a.timed_out, b.timed_out);
    if (compare_nodes) {
        EXPECT_EQ(a.nodes, b.nodes);
    }
}

TEST(CliqueDifferentialTest, MatchesColoringReferenceAtAmpleBudget) {
    for (int n : {1, 2, 10, 30, 60}) {
        for (int density : {10, 50, 90}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " density=" + std::to_string(density));
            const auto p = randomClique(n, density, 1000u + n + density);
            const auto got = maxWeightClique(p);
            const auto ref = maxWeightCliqueReference(
                p, 2'000'000, {}, CliqueBound::kColoring);
            expectSameClique(got, ref, /*compare_nodes=*/true);
            EXPECT_TRUE(got.optimal);
        }
    }
}

TEST(CliqueDifferentialTest, MatchesHistoricWeakBoundAnswers) {
    // The coloring bound prunes more nodes but — being admissible
    // under the fixed branching order with strict-improvement
    // incumbents — must return the same clique as the historic
    // weight-sum bound whenever neither search is truncated.
    for (int n : {12, 25, 45}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto p = randomClique(n, 55, 77u * n);
        const auto got = maxWeightClique(p);
        const auto weak = maxWeightCliqueReference(
            p, 50'000'000, {}, CliqueBound::kWeightSum);
        ASSERT_TRUE(weak.optimal);
        EXPECT_EQ(got.vertices, weak.vertices);
        EXPECT_EQ(got.weight, weak.weight);
        // The point of the stronger bound: never more nodes, and on
        // non-trivial instances strictly fewer.
        EXPECT_LE(got.nodes, weak.nodes);
        if (n >= 25) {
            EXPECT_LT(got.nodes, weak.nodes);
        }
    }
}

TEST(CliqueDifferentialTest, BudgetTruncationIsByteIdentical) {
    // Under truncation the node count is part of the behaviour, so
    // the oracle must share the same (coloring) bound.
    const auto p = randomClique(40, 60, 424242u);
    for (std::int64_t budget : {1, 5, 37, 200, 5000}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        const auto got = maxWeightClique(p, budget);
        const auto ref = maxWeightCliqueReference(
            p, budget, {}, CliqueBound::kColoring);
        expectSameClique(got, ref, /*compare_nodes=*/true);
    }
    EXPECT_FALSE(maxWeightClique(p, 1).optimal);
}

TEST(CliqueDifferentialTest, ExpiredDeadlineDegradesIdentically) {
    const auto p = randomClique(30, 50, 99u);
    const Deadline expired = Deadline::after(0);
    const auto got = maxWeightClique(p, 2'000'000, expired);
    const auto ref = maxWeightCliqueReference(
        p, 2'000'000, expired, CliqueBound::kColoring);
    expectSameClique(got, ref, /*compare_nodes=*/true);
    EXPECT_FALSE(got.optimal);
    EXPECT_TRUE(got.timed_out);
    // Degraded answer is still a valid clique.
    for (std::size_t a = 0; a < got.vertices.size(); ++a)
        for (std::size_t b = a + 1; b < got.vertices.size(); ++b)
            EXPECT_TRUE(p.adj[got.vertices[a]][got.vertices[b]]);
}

TEST(CliqueDifferentialTest, EmptyAndEdgelessGraphs) {
    CliqueProblem empty;
    expectSameClique(maxWeightClique(empty),
                     maxWeightCliqueReference(empty), true);

    const auto p = randomClique(8, 0, 5u); // no edges at all
    const auto got = maxWeightClique(p);
    expectSameClique(got, maxWeightCliqueReference(p), true);
    ASSERT_EQ(got.vertices.size(), 1u); // heaviest single vertex
}

// ---------------------------------------------------------------------
// MIS: bucket-built bitset overlap rows, greedy and exact search vs
// references.

using apex::mining::FrequentSubgraphMiner;
using apex::mining::maximalIndependentSet;
using apex::mining::maximalIndependentSetReference;
using apex::mining::overlapGraph;
using apex::mining::overlapGraphReference;

/** Random occurrence sets: sorted unique node ids from a universe
 * sized to give a controllable overlap density. */
std::vector<std::vector<apex::ir::NodeId>>
randomOccurrences(int n, int universe, int per_occ, std::uint32_t seed)
{
    Lcg lcg(seed);
    std::vector<std::vector<apex::ir::NodeId>> occ(n);
    for (int i = 0; i < n; ++i) {
        for (int k = 0; k < per_occ; ++k)
            occ[i].push_back(static_cast<apex::ir::NodeId>(
                lcg.next() % universe));
        std::sort(occ[i].begin(), occ[i].end());
        occ[i].erase(std::unique(occ[i].begin(), occ[i].end()),
                     occ[i].end());
    }
    return occ;
}

TEST(MisDifferentialTest, OverlapGraphMatchesReference) {
    for (int n : {0, 1, 7, 20, 60}) {
        for (int universe : {4, 40, 400}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " universe=" + std::to_string(universe));
            const auto occ =
                randomOccurrences(n, universe, 4, 31u * n + universe);
            EXPECT_EQ(overlapGraph(occ), overlapGraphReference(occ));
        }
    }
}

TEST(MisDifferentialTest, ExactRegimeMatchesReference) {
    for (int n : {1, 5, 12, 24, 28}) {
        for (int universe : {6, 30, 200}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " universe=" + std::to_string(universe));
            const auto occ =
                randomOccurrences(n, universe, 3, 17u * n + universe);
            const auto got = maximalIndependentSet(occ);
            const auto ref = maximalIndependentSetReference(occ);
            EXPECT_EQ(got.chosen, ref.chosen);
            EXPECT_EQ(got.size, ref.size);
        }
    }
}

TEST(MisDifferentialTest, GreedyRegimeMatchesReference) {
    for (int n : {40, 90}) {
        for (int universe : {10, 120}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " universe=" + std::to_string(universe));
            const auto occ =
                randomOccurrences(n, universe, 5, 13u * n + universe);
            const auto got = maximalIndependentSet(occ);
            const auto ref = maximalIndependentSetReference(occ);
            EXPECT_EQ(got.chosen, ref.chosen);
            EXPECT_EQ(got.size, ref.size);
        }
    }
}

/** Hub occurrences: occurrence i holds hub node i % hubs plus
 * random others, so each hub's bucket is a clique of n / hubs
 * occurrences — the dense regime an app-wide constant produces. */
std::vector<std::vector<apex::ir::NodeId>>
hubOccurrences(int n, int hubs, int universe, std::uint32_t seed)
{
    auto occ = randomOccurrences(n, universe, 3, seed);
    for (int i = 0; i < n; ++i) {
        for (apex::ir::NodeId &node : occ[i])
            node += static_cast<apex::ir::NodeId>(hubs);
        occ[i].insert(occ[i].begin(),
                      static_cast<apex::ir::NodeId>(i % hubs));
    }
    return occ;
}

TEST(MisDifferentialTest, HubRegimeMatchesReference) {
    for (int n : {300, 1500}) {
        for (int hubs : {1, 2}) {
            for (int universe : {50, 4 * n}) {
                SCOPED_TRACE("n=" + std::to_string(n) +
                             " hubs=" + std::to_string(hubs) +
                             " universe=" + std::to_string(universe));
                const auto occ = hubOccurrences(
                    n, hubs, universe, 7u * n + hubs + universe);
                EXPECT_EQ(overlapGraph(occ),
                          overlapGraphReference(occ));
                const auto got = maximalIndependentSet(occ);
                const auto ref = maximalIndependentSetReference(occ);
                EXPECT_EQ(got.chosen, ref.chosen);
                EXPECT_EQ(got.size, ref.size);
            }
        }
    }
}

TEST(MisDifferentialTest, NearCompleteOverlapTakesTheFullPath) {
    // Occurrence i holds hub node 0 and its own node i + 1, so the
    // overlap graph is complete exactly when every occurrence holds
    // the hub.  The complete case returns {0} without a matrix; one
    // occurrence short of the hub, also when another lists the hub
    // twice (as many hub incidences as occurrences), must take the
    // full path, where the short one is isolated and the set has two.
    const auto expectReference = [](const auto &occ, int size) {
        const auto got = maximalIndependentSet(occ);
        const auto ref = maximalIndependentSetReference(occ);
        EXPECT_EQ(got.chosen, ref.chosen);
        EXPECT_EQ(got.size, ref.size);
        EXPECT_EQ(ref.size, size);
    };
    for (int n : {2, 28, 29, 300, 1500}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        std::vector<std::vector<apex::ir::NodeId>> complete(n);
        for (int i = 0; i < n; ++i)
            complete[i] = {0, static_cast<apex::ir::NodeId>(i + 1)};
        expectReference(complete, 1);

        const int shy = n / 2;
        auto short_one = complete;
        short_one[shy].erase(short_one[shy].begin());
        expectReference(short_one, 2);

        auto doubled = short_one;
        const int twice = (shy + 1) % n;
        doubled[twice].insert(doubled[twice].begin(), 0);
        expectReference(doubled, 2);
    }
}

TEST(MisDifferentialTest, EveryMinedAppPatternMatchesReference) {
    // The explorer's miner options, so fast's 4,795-occurrence
    // patterns (complete overlap graphs) are among the instances.
    apex::mining::MinerOptions options;
    options.min_support = 3;
    options.max_pattern_nodes = 4;
    options.max_patterns_per_level = 256;
    const FrequentSubgraphMiner miner(options);
    std::size_t patterns = 0, largest = 0;
    for (const auto &info : apex::apps::allApps()) {
        for (const auto &p : miner.mine(info.graph)) {
            SCOPED_TRACE(info.name + " " + p.code);
            const auto &occ = p.occurrences;
            EXPECT_EQ(overlapGraph(occ), overlapGraphReference(occ));
            const auto got = maximalIndependentSet(occ);
            const auto ref = maximalIndependentSetReference(occ);
            EXPECT_EQ(got.chosen, ref.chosen);
            EXPECT_EQ(got.size, ref.size);
            ++patterns;
            largest = std::max(largest, occ.size());
        }
    }
    EXPECT_GT(patterns, 900u);
    EXPECT_GE(largest, 4795u);
}

TEST(MisDifferentialTest, ChosenSetIsIndependentAndMaximal) {
    const auto occ = randomOccurrences(26, 24, 3, 2024u);
    const auto adj = overlapGraph(occ);
    const auto got = maximalIndependentSet(occ);
    std::vector<bool> in(occ.size(), false);
    for (int v : got.chosen)
        in[v] = true;
    for (int v : got.chosen)
        for (int nb : adj[v])
            EXPECT_FALSE(in[nb]);
    for (std::size_t v = 0; v < occ.size(); ++v) {
        if (in[v])
            continue;
        bool blocked = false;
        for (int nb : adj[v])
            blocked = blocked || in[nb];
        EXPECT_TRUE(blocked) << "set not maximal at " << v;
    }
}

// ---------------------------------------------------------------------
// Isomorphism: label-indexed matcher vs whole-graph-scan reference.

using apex::ir::Graph;
using apex::ir::GraphBuilder;
using apex::ir::Value;
using apex::mining::findEmbeddings;
using apex::mining::findEmbeddingsReference;

/** Random expression DAG: a pool of values grown by binary ops over
 * random earlier values, several outputs. */
Graph
randomTarget(int ops, std::uint32_t seed)
{
    Lcg lcg(seed);
    GraphBuilder b;
    std::vector<Value> pool;
    for (int i = 0; i < 4; ++i)
        pool.push_back(b.input());
    pool.push_back(b.constant(3));
    pool.push_back(b.constant(5));
    for (int i = 0; i < ops; ++i) {
        const Value x = pool[lcg.next() % pool.size()];
        const Value y = pool[lcg.next() % pool.size()];
        switch (lcg.next() % 4) {
        case 0: pool.push_back(b.add(x, y)); break;
        case 1: pool.push_back(b.sub(x, y)); break;
        case 2: pool.push_back(b.mul(x, y)); break;
        default: pool.push_back(b.min(x, y)); break;
        }
    }
    b.output(pool.back());
    return b.take();
}

std::vector<Graph>
testPatterns()
{
    std::vector<Graph> out;
    {
        GraphBuilder b; // bare multiply
        b.mul(b.input(), b.input());
        out.push_back(b.take());
    }
    {
        GraphBuilder b; // multiply-accumulate
        b.add(b.mul(b.input(), b.input()), b.input());
        out.push_back(b.take());
    }
    {
        GraphBuilder b; // add chain
        b.add(b.add(b.input(), b.input()), b.input());
        out.push_back(b.take());
    }
    {
        GraphBuilder b; // multiply by constant
        b.mul(b.input(), b.constant(7));
        out.push_back(b.take());
    }
    {
        GraphBuilder b; // sub(min) — port order matters
        b.sub(b.min(b.input(), b.input()), b.input());
        out.push_back(b.take());
    }
    return out;
}

void
expectSameEmbeddings(const Graph &pattern, const Graph &target,
                     std::size_t limit)
{
    const auto got = findEmbeddings(pattern, target, limit);
    const auto ref = findEmbeddingsReference(pattern, target, limit);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].map, ref[i].map) << "embedding " << i;
}

TEST(IsomorphismDifferentialTest, MatchesReferenceOnRandomTargets) {
    const auto patterns = testPatterns();
    for (std::uint32_t seed : {1u, 7u, 19u, 101u}) {
        const Graph target = randomTarget(40, seed);
        for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " pattern=" + std::to_string(pi));
            expectSameEmbeddings(patterns[pi], target, 0);
        }
    }
}

TEST(IsomorphismDifferentialTest, LimitTruncationIsByteIdentical) {
    const auto patterns = testPatterns();
    const Graph target = randomTarget(60, 555u);
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
        for (std::size_t limit : {1u, 2u, 3u, 10u}) {
            SCOPED_TRACE("pattern=" + std::to_string(pi) +
                         " limit=" + std::to_string(limit));
            expectSameEmbeddings(patterns[pi], target, limit);
        }
    }
}

TEST(IsomorphismDifferentialTest, NoMatchingLabelReturnsEmpty) {
    GraphBuilder bt;
    bt.output(bt.add(bt.input(), bt.input()));
    const Graph target = bt.take();

    GraphBuilder bp;
    bp.mul(bp.input(), bp.input());
    const Graph pattern = bp.take();
    EXPECT_TRUE(findEmbeddings(pattern, target).empty());
    EXPECT_TRUE(findEmbeddingsReference(pattern, target).empty());
}

// ---------------------------------------------------------------------
// Rewrite-rule validation: the lowered validator and the lowered
// PeFunctionalModel::evaluate against the historic per-assignment loop
// and recursive PE walk, on every rule of the sweep's libraries, on
// seeded config mutants of each, and on hand-built invalid configs.

using apex::mapper::RewriteRule;
using apex::mapper::RewriteRuleSynthesizer;
using apex::mapper::validateRule;
using apex::mapper::validateRuleReference;
using apex::pe::PeConfig;
using apex::pe::PeSpec;

struct RuleLibrary {
    std::string name;
    std::string app; ///< Empty for PE Base, which serves every app.
    PeSpec spec;
    std::vector<RewriteRule> rules;
};

/** The sweep's libraries for all nine apps: PE Base once, then PE 1
 * and PE k (k = max_merged_subgraphs) per app. */
const std::vector<RuleLibrary> &
sweepLibraries()
{
    static const std::vector<RuleLibrary> libraries = [] {
        std::vector<RuleLibrary> out;
        const apex::core::Explorer explorer;
        const auto add = [&](const apex::core::PeVariant &v,
                             const std::string &app) {
            RuleLibrary lib{v.name, app, v.spec, {}};
            lib.rules = RewriteRuleSynthesizer(lib.spec)
                            .synthesizeLibrary(v.patterns);
            out.push_back(std::move(lib));
        };
        add(explorer.baselineVariant(), "");
        for (const auto &app : apex::apps::allApps()) {
            add(explorer.subsetVariant(app), app.name);
            auto spec = explorer.specializedVariant(
                explorer.analyze(app).value(),
                explorer.options().max_merged_subgraphs);
            EXPECT_TRUE(spec.ok()) << app.name;
            if (spec.ok())
                add(spec.value(), app.name);
        }
        return out;
    }();
    return libraries;
}

/** Change one field of @p rule's config, port or const binding,
 * choosing the field from @p kind onwards (the first that applies). */
void
mutate(const PeSpec &spec, RewriteRule *rule, int kind, Lcg *rng)
{
    PeConfig &cfg = rule->config;
    const auto pick = [&](std::size_t n) {
        return static_cast<int>(rng->next() % n);
    };
    for (int k = 0; k < 5; ++k) {
        switch ((kind + k) % 5) {
          case 0: { // a mux select, one past either end included
            if (spec.muxes.empty())
                break;
            const int m = pick(spec.muxes.size());
            cfg.mux_sel[m] = pick(spec.muxes[m].sources.size() + 2) - 1;
            return;
          }
          case 1: { // a block op, or kNumOps ("unused")
            const auto blocks = spec.dp.blockIds();
            const int b = blocks[pick(blocks.size())];
            const auto &ops = spec.dp.nodes[b].ops;
            const int i = pick(ops.size() + 1);
            cfg.block_op[b] = i == static_cast<int>(ops.size())
                                  ? apex::ir::Op::kNumOps
                                  : *std::next(ops.begin(), i);
            return;
          }
          case 2: { // the word or the bit output select
            const bool word = spec.bit_outputs.empty() ||
                              (!spec.word_outputs.empty() &&
                               rng->next() % 2 == 0);
            const auto &outs =
                word ? spec.word_outputs : spec.bit_outputs;
            (word ? cfg.word_out_sel : cfg.bit_out_sel) =
                pick(outs.size() + 1);
            return;
          }
          case 3: { // swap two input ports, or move one
            auto &ports = rule->input_ports;
            if (ports.empty())
                break;
            const int a = pick(ports.size());
            const bool bit = rule->pattern.op(rule->placeholders[a]) ==
                             apex::ir::Op::kInputBit;
            std::vector<int> same;
            for (std::size_t k2 = 0; k2 < ports.size(); ++k2)
                if (static_cast<int>(k2) != a &&
                    (rule->pattern.op(rule->placeholders[k2]) ==
                     apex::ir::Op::kInputBit) == bit)
                    same.push_back(static_cast<int>(k2));
            if (!same.empty()) {
                std::swap(ports[a], ports[same[pick(same.size())]]);
            } else {
                ports[a] = pick(bit ? spec.bit_inputs.size()
                                    : spec.word_inputs.size());
            }
            return;
          }
          default: { // swap two const bindings, or move one
            auto &bindings = rule->const_bindings;
            if (bindings.empty())
                break;
            const int a = pick(bindings.size());
            if (bindings.size() > 1) {
                std::swap(bindings[a].second,
                          bindings[(a + 1 + pick(bindings.size() - 1)) %
                                   bindings.size()]
                              .second);
            } else {
                bindings[a].second = pick(spec.const_regs.size());
            }
            return;
          }
        }
    }
}

/** Both evaluators agree on @p cfg: verdict and every output. */
void
expectSameEvaluation(const PeSpec &spec, const PeConfig &cfg, Lcg *rng)
{
    apex::pe::PeInputs in;
    for (std::size_t i = 0; i < spec.word_inputs.size(); ++i)
        in.word.push_back(rng->next());
    for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i)
        in.bit.push_back(rng->next() & 1);
    for (int width : {3, apex::ir::kWordWidth}) {
        apex::pe::PeOutputs got, ref;
        const bool ok = apex::pe::PeFunctionalModel(spec, width)
                            .evaluate(cfg, in, &got);
        ASSERT_EQ(ok, apex::pe::evaluateReference(spec, width, cfg, in,
                                                  &ref));
        if (!ok)
            continue;
        EXPECT_EQ(got.has_word, ref.has_word);
        EXPECT_EQ(got.has_bit, ref.has_bit);
        EXPECT_EQ(got.word, ref.word);
        EXPECT_EQ(got.bit, ref.bit);
    }
}

TEST(RewriteDifferentialTest, EveryLibraryRuleMatchesReference) {
    std::size_t rules = 0;
    for (const RuleLibrary &lib : sweepLibraries()) {
        ASSERT_FALSE(lib.rules.empty()) << lib.name;
        for (std::size_t r = 0; r < lib.rules.size(); ++r) {
            SCOPED_TRACE(lib.name + " rule " + std::to_string(r));
            EXPECT_TRUE(validateRule(lib.spec, lib.rules[r]));
            EXPECT_TRUE(validateRuleReference(lib.spec, lib.rules[r]));
            ++rules;
        }
    }
    EXPECT_EQ(sweepLibraries().size(), 19u);
    EXPECT_GT(rules, 1000u);
}

TEST(RewriteDifferentialTest, SeededConfigMutantsMatchReference) {
    constexpr int kMutantsPerRule = 5;
    Lcg rng(2024);
    std::size_t accepted = 0, rejected = 0;
    for (const RuleLibrary &lib : sweepLibraries()) {
        for (std::size_t r = 0; r < lib.rules.size(); ++r) {
            for (int m = 0; m < kMutantsPerRule; ++m) {
                SCOPED_TRACE(lib.name + " rule " + std::to_string(r) +
                             " mutant " + std::to_string(m));
                RewriteRule mutant = lib.rules[r];
                mutate(lib.spec, &mutant, static_cast<int>(r) + m,
                       &rng);
                const bool got = validateRule(lib.spec, mutant);
                ASSERT_EQ(got, validateRuleReference(lib.spec, mutant));
                ++(got ? accepted : rejected);
                expectSameEvaluation(lib.spec, mutant.config, &rng);
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

/** Datapath node ids of unusedConeLoopSpec(). */
enum LoopSpecNode { kIn0, kIn1, kD, kA, kB, kC };

/**
 * in0, in1 -> D = add (word output; the only block an add pattern
 * embeds into), and a loop kept apart from it: A and B are adds whose
 * port 0 muxes between in0 and the other block, and C = ult(B, in1) is
 * the bit output.  With A.0 = B and B.0 = A only the bit cone loops.
 */
PeSpec
unusedConeLoopSpec()
{
    using apex::merging::DpNode;
    using apex::merging::DpNodeKind;
    using apex::ir::Op;
    apex::merging::Datapath dp;
    const auto node = [&](DpNodeKind kind, std::set<Op> ops,
                          bool bit, bool output) {
        DpNode n;
        n.kind = kind;
        n.ops = std::move(ops);
        n.type = bit ? apex::ir::ValueType::kBit
                     : apex::ir::ValueType::kWord;
        n.is_output = output;
        dp.nodes.push_back(std::move(n));
    };
    node(DpNodeKind::kInput, {}, false, false);         // kIn0
    node(DpNodeKind::kInput, {}, false, false);         // kIn1
    node(DpNodeKind::kBlock, {Op::kAdd}, false, true);  // kD
    node(DpNodeKind::kBlock, {Op::kAdd}, false, false); // kA
    node(DpNodeKind::kBlock, {Op::kAdd}, false, false); // kB
    node(DpNodeKind::kBlock, {Op::kUlt}, true, true);   // kC
    dp.nodes[kC].cls = apex::model::HwBlockClass::kCompare;
    dp.edges = {{kIn0, kD, 0}, {kIn1, kD, 1}, {kIn0, kA, 0},
                {kB, kA, 0},   {kIn1, kA, 1}, {kIn0, kB, 0},
                {kA, kB, 0},   {kIn1, kB, 1}, {kB, kC, 0},
                {kIn1, kC, 1}};
    return apex::pe::makePeSpec(std::move(dp), "pe_unused_loop");
}

/** Set the mux at (node, 0) of @p spec to the source @p src. */
void
selectSource(const PeSpec &spec, PeConfig *cfg, int node, int src)
{
    const int mux = spec.muxIndexOf(node, 0);
    ASSERT_GE(mux, 0);
    const auto &sources = spec.muxes[mux].sources;
    cfg->mux_sel[mux] = static_cast<int>(
        std::find(sources.begin(), sources.end(), src) -
        sources.begin());
}

TEST(RewriteDifferentialTest, CombinationalCycleIsRejected) {
    const PeSpec spec = unusedConeLoopSpec();
    GraphBuilder b;
    b.add(b.input(), b.input());
    auto rule = RewriteRuleSynthesizer(spec).synthesize(b.take());
    ASSERT_TRUE(rule.has_value());
    ASSERT_EQ(rule->node_to_dp.back(), kD);
    EXPECT_TRUE(validateRule(spec, *rule));
    EXPECT_TRUE(validateRuleReference(spec, *rule));

    // Loop A <-> B: the rule reads the word output D, but evaluating
    // the PE also needs the bit output C, which sits on the loop.
    selectSource(spec, &rule->config, kA, kB);
    selectSource(spec, &rule->config, kB, kA);
    EXPECT_FALSE(validateRuleReference(spec, *rule));
    EXPECT_FALSE(validateRule(spec, *rule));
    apex::pe::PeOutputs out;
    EXPECT_FALSE(apex::pe::PeFunctionalModel(spec).evaluate(
        rule->config, {{1, 2}, {}}, &out));

    // Breaking the loop at A makes the rule valid again.
    selectSource(spec, &rule->config, kA, kIn0);
    EXPECT_TRUE(validateRuleReference(spec, *rule));
    EXPECT_TRUE(validateRule(spec, *rule));
}

TEST(RewriteDifferentialTest, UnusedOutputSelectOutOfRangeIsRejected) {
    const PeSpec spec = apex::pe::baselinePe();
    ASSERT_FALSE(spec.word_outputs.empty());
    ASSERT_FALSE(spec.bit_outputs.empty());
    const RewriteRuleSynthesizer synth(spec);

    GraphBuilder bw;
    bw.add(bw.input(), bw.input());
    auto word_rule = synth.synthesize(bw.take());
    ASSERT_TRUE(word_rule.has_value());
    ASSERT_TRUE(word_rule->word_output);
    word_rule->config.bit_out_sel =
        static_cast<int>(spec.bit_outputs.size());
    EXPECT_FALSE(validateRuleReference(spec, *word_rule));
    EXPECT_FALSE(validateRule(spec, *word_rule));

    GraphBuilder bb;
    bb.slt(bb.input(), bb.input());
    auto bit_rule = synth.synthesize(bb.take());
    ASSERT_TRUE(bit_rule.has_value());
    ASSERT_FALSE(bit_rule->word_output);
    bit_rule->config.word_out_sel = -1;
    EXPECT_FALSE(validateRuleReference(spec, *bit_rule));
    EXPECT_FALSE(validateRule(spec, *bit_rule));
}

// ---------------------------------------------------------------------
// Placement: the integer-delta annealer on the block MT19937 against
// the historic loop (double before/after sums, write and revert,
// std::mt19937), on every app's PE Base, PE 1 and PE k netlists after
// mapping and after pipelining, the three retry seeds, two fabric
// sizes, a big.LITTLE split, seeded random netlists and the degenerate
// cases.

TEST(BlockMt19937Test, MatchesStdMt19937DrawForDraw) {
    for (const std::uint32_t seed :
         {0u, 1u, 0xCA11u, 0xCA11u + 0x9E3779B9u, 0xFFFFFFFFu}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 ref(seed);
        apex::core::BlockMt19937 got(seed);
        int mismatches = 0;
        for (int i = 0; i < 200000; ++i)
            mismatches += got() != ref();
        EXPECT_EQ(mismatches, 0);

        // Interleaved with real draws, as the annealer draws them.
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(got() % 7, ref() % 7);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(uniform(got)),
                      std::bit_cast<std::uint64_t>(uniform(ref)));
        }
    }
}

using apex::cgra::Fabric;
using apex::cgra::PlacementResult;
using apex::cgra::PlacerOptions;
using apex::cgra::placeHetero;
using apex::cgra::placeHeteroReference;
using apex::mapper::MappedGraph;
using apex::mapper::MappedKind;

/** The retry seeds core::evaluate derives from its base seed. */
constexpr unsigned kRetrySeeds[] = {0xCA11u, 0xCA11u + 0x9E3779B9u,
                                    0xCA11u + 2 * 0x9E3779B9u};

struct Netlist {
    std::string name;
    MappedGraph mapped;
};

/** Every app mapped onto PE Base, PE 1 and PE k, once as mapped and
 * once pipelined, as core::evaluate hands them to the placer. */
const std::vector<Netlist> &
sweepNetlists()
{
    static const std::vector<Netlist> netlists = [] {
        std::vector<Netlist> out;
        for (const auto &app : apex::apps::allApps()) {
            for (const RuleLibrary &lib : sweepLibraries()) {
                if (!lib.app.empty() && lib.app != app.name)
                    continue;
                const auto sel = apex::mapper::InstructionSelector(
                                     apex::mapper::combineLibraries(
                                         {lib.rules}))
                                     .map(app.graph);
                EXPECT_TRUE(sel.success) << app.name << " " << lib.name;
                if (!sel.success)
                    continue;
                const std::string name = app.name + "/" + lib.name;
                out.push_back({name + "/map", sel.mapped});
                PeSpec spec = lib.spec;
                apex::pipeline::pipelinePe(spec,
                                           apex::model::defaultTech());
                MappedGraph piped = sel.mapped;
                apex::pipeline::pipelineApplication(
                    &piped, spec.pipeline_stages, {});
                out.push_back({name + "/pipe", std::move(piped)});
            }
        }
        return out;
    }();
    return netlists;
}

void
expectSamePlacement(const PlacementResult &got,
                    const PlacementResult &ref)
{
    EXPECT_EQ(got.success, ref.success);
    EXPECT_EQ(got.status.code(), ref.status.code());
    EXPECT_EQ(got.status.message(), ref.status.message());
    EXPECT_TRUE(got.loc == ref.loc);
    ASSERT_EQ(got.edges.size(), ref.edges.size());
    for (std::size_t e = 0; e < got.edges.size(); ++e) {
        EXPECT_EQ(got.edges[e].src, ref.edges[e].src);
        EXPECT_EQ(got.edges[e].dst, ref.edges[e].dst);
        EXPECT_EQ(got.edges[e].regs, ref.edges[e].regs);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wirelength),
              std::bit_cast<std::uint64_t>(ref.wirelength));
}

/** Both placers on one input. */
void
expectSamePlacement(const Fabric &fabric, const MappedGraph &mapped,
                    const std::vector<int> &types, int num_types,
                    const PlacerOptions &options)
{
    expectSamePlacement(
        placeHetero(fabric, mapped, types, num_types, options),
        placeHeteroReference(fabric, mapped, types, num_types,
                             options));
}

TEST(PlaceDifferentialTest, SweepNetlistsMatchReference) {
    ASSERT_EQ(sweepNetlists().size(), 9u * 3u * 2u);
    int placed = 0;
    for (const Fabric &fabric : {Fabric(32, 16), Fabric(32, 32)}) {
        for (const Netlist &n : sweepNetlists()) {
            for (unsigned seed : kRetrySeeds) {
                SCOPED_TRACE(n.name + " " +
                             std::to_string(fabric.width()) + "x" +
                             std::to_string(fabric.height()) +
                             " seed " + std::to_string(seed));
                PlacerOptions options;
                options.seed = seed;
                const auto got =
                    placeHetero(fabric, n.mapped, {}, 1, options);
                expectSamePlacement(
                    got, placeHeteroReference(fabric, n.mapped, {}, 1,
                                              options));
                placed += got.success;
            }
        }
    }
    EXPECT_GT(placed, 9 * 3 * 2 * 3);
}

TEST(PlaceDifferentialTest, BigLittleFabricMatchesReference) {
    // Two PE types by node parity, as a big.LITTLE split assigns
    // them; a short type vector leaves the tail on type 0, and an
    // out-of-range type clamps to the last pool.
    for (const Netlist &n : sweepNetlists()) {
        SCOPED_TRACE(n.name);
        std::vector<int> types(n.mapped.nodes.size() * 3 / 4);
        for (std::size_t id = 0; id < types.size(); ++id)
            types[id] = id % 5 == 4 ? 7 : static_cast<int>(id % 2);
        PlacerOptions options;
        options.seed = kRetrySeeds[1];
        expectSamePlacement(Fabric(32, 32), n.mapped, types, 2,
                            options);
    }
}

/**
 * A seeded random netlist of @p n nodes.  Node 0 is a hub input every
 * PE reads; PEs read two or three earlier nodes, often one twice
 * (parallel edges) and often through a register chain; the rest are
 * MEM tiles (none when @p with_mem is false), register files and IO
 * pads.  The last PE also reads itself through a register.
 */
MappedGraph
randomNetlist(int n, bool with_mem, std::uint32_t seed)
{
    Lcg rng(seed);
    MappedGraph g;
    const auto add = [&](MappedKind kind, std::vector<int> inputs) {
        apex::mapper::MappedNode node;
        node.kind = kind;
        node.inputs = std::move(inputs);
        g.nodes.push_back(std::move(node));
        return static_cast<int>(g.nodes.size()) - 1;
    };
    const auto earlier = [&] {
        return static_cast<int>(rng.next() % g.nodes.size());
    };
    const auto through_regs = [&](int src) {
        for (unsigned r = rng.next() % 3; r > 0; --r)
            src = add(MappedKind::kReg, {src});
        return src;
    };
    add(MappedKind::kInput, {});
    int last_pe = -1;
    while (static_cast<int>(g.nodes.size()) < n) {
        const unsigned pick = rng.next() % 10;
        if (pick < 6) {
            std::vector<int> in = {0, through_regs(earlier())};
            if (rng.next() % 2 == 0)
                in.push_back(in.back());
            last_pe = add(MappedKind::kPe, std::move(in));
        } else if (pick == 6 && with_mem) {
            add(MappedKind::kMem, {earlier()});
        } else if (pick == 7) {
            add(MappedKind::kRegFile, {earlier()});
        } else if (pick == 8) {
            add(MappedKind::kInput, {});
        } else {
            add(rng.next() % 2 ? MappedKind::kOutput
                               : MappedKind::kOutputBit,
                {through_regs(earlier())});
        }
    }
    if (last_pe >= 0)
        g.nodes[last_pe].inputs.push_back(
            add(MappedKind::kReg, {last_pe}));
    return g;
}

TEST(PlaceDifferentialTest, RandomNetlistsMatchReference) {
    int placed = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        const bool with_mem = seed % 3 != 0;
        const int n = 20 + static_cast<int>(seed) * 25;
        SCOPED_TRACE("seed " + std::to_string(seed));
        const MappedGraph g = randomNetlist(n, with_mem, seed);
        PlacerOptions options;
        options.seed = kRetrySeeds[seed % 3];
        std::vector<int> types(g.nodes.size());
        for (std::size_t id = 0; id < types.size(); ++id)
            types[id] = static_cast<int>(id % 3);
        for (const int num_types : {1, 3}) {
            const Fabric fabric(32, 16 * num_types);
            const auto got =
                placeHetero(fabric, g, types, num_types, options);
            expectSamePlacement(got,
                                placeHeteroReference(fabric, g, types,
                                                     num_types, options));
            placed += got.success;
        }
    }
    EXPECT_EQ(placed, 24);
}

TEST(PlaceDifferentialTest, SinglePlaceableNodeMatchesReference) {
    for (const MappedKind kind : {MappedKind::kPe, MappedKind::kInput}) {
        MappedGraph g;
        g.nodes.resize(1);
        g.nodes[0].kind = kind;
        expectSamePlacement(Fabric(32, 16), g, {}, 1, {});
    }
    expectSamePlacement(Fabric(32, 16), MappedGraph{}, {}, 1, {});
}

TEST(PlaceDifferentialTest, ZeroAndOneMovePerNodeMatchReference) {
    for (const int moves : {0, 1}) {
        for (const Netlist &n : sweepNetlists()) {
            SCOPED_TRACE(n.name + " moves " + std::to_string(moves));
            PlacerOptions options;
            options.moves_per_node = moves;
            expectSamePlacement(Fabric(32, 16), n.mapped, {}, 1,
                                options);
        }
    }
}

TEST(PlaceDifferentialTest, TooSmallFabricMatchesReference) {
    const Netlist &n = sweepNetlists().front();
    const auto got = placeHetero(Fabric(4, 4), n.mapped, {}, 1, {});
    EXPECT_FALSE(got.success);
    EXPECT_EQ(got.status.code(), apex::ErrorCode::kBudgetExhausted);
    expectSamePlacement(
        got, placeHeteroReference(Fabric(4, 4), n.mapped, {}, 1, {}));
}

} // namespace
