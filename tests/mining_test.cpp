#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "apps/apps.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "ir/signature.hpp"
#include "ir/validate.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"

namespace apex::mining {
namespace {

using ir::Graph;
using ir::GraphBuilder;
using ir::NodeId;
using ir::Op;
using ir::Value;

/** The Fig. 3 convolution, chain-shaped exactly as in the paper:
 * ((((i0*w0 + i1*w1) + i2*w2) + i3*w3) + c). */
Graph
fig3Convolution()
{
    GraphBuilder b;
    Value acc = b.mul(b.input("i0"), b.constant(1, "w0"));
    acc = b.add(acc, b.mul(b.input("i1"), b.constant(3, "w1")));
    acc = b.add(acc, b.mul(b.input("i2"), b.constant(5, "w2")));
    acc = b.add(acc, b.mul(b.input("i3"), b.constant(7, "w3")));
    acc = b.add(acc, b.constant(7, "c"));
    b.output(acc, "out");
    return b.take();
}

Graph
mulPattern()
{
    GraphBuilder b;
    b.mul(b.input(), b.input());
    return b.take();
}

TEST(IsomorphismTest, FindsAllMulsInConvolution) {
    const Graph conv = fig3Convolution();
    const auto embs = findEmbeddings(mulPattern(), conv);
    EXPECT_EQ(embs.size(), 4u);
}

TEST(IsomorphismTest, PortLabelsRestrictMatches) {
    // Pattern: sub(input, mul(...)) must not match sub(mul(...), input).
    GraphBuilder bt;
    Value x = bt.input(), y = bt.input();
    bt.output(bt.sub(bt.mul(x, y), x));
    const Graph target = bt.take();

    GraphBuilder bp1;
    bp1.sub(bp1.mul(bp1.input(), bp1.input()), bp1.input());
    EXPECT_EQ(findEmbeddings(bp1.take(), target).size(), 1u);

    GraphBuilder bp2;
    bp2.sub(bp2.input(), bp2.mul(bp2.input(), bp2.input()));
    EXPECT_TRUE(findEmbeddings(bp2.take(), target).empty());
}

TEST(IsomorphismTest, SharedPlaceholderRequiresSharedProducer) {
    GraphBuilder bt;
    Value x = bt.input(), y = bt.input();
    bt.output(bt.mul(x, y)); // a * b with distinct inputs
    const Graph target = bt.take();

    // Square pattern: mul(v, v) with one shared placeholder.
    Graph square;
    const NodeId v = square.addNode(Op::kInput);
    square.addNode(Op::kMul, {v, v});
    EXPECT_TRUE(findEmbeddings(square, target).empty());

    GraphBuilder bt2;
    Value z = bt2.input();
    bt2.output(bt2.mul(z, z));
    EXPECT_EQ(findEmbeddings(square, bt2.take()).size(), 1u);
}

TEST(IsomorphismTest, InjectiveOnCoreNodes) {
    // Pattern add(add(., .), .) in a two-add chain matches once.
    GraphBuilder bt;
    Value a = bt.input(), b = bt.input(), c = bt.input();
    bt.output(bt.add(bt.add(a, b), c));
    const Graph target = bt.take();

    GraphBuilder bp;
    bp.add(bp.add(bp.input(), bp.input()), bp.input());
    const auto embs = findEmbeddings(bp.take(), target);
    ASSERT_EQ(embs.size(), 1u);
}

TEST(MinerTest, MinesFig3FrequentSubgraphs) {
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 4,
                                 .max_pattern_nodes = 3});
    auto patterns = miner.mine(conv);
    ASSERT_FALSE(patterns.empty());

    // Fig. 3 reports three most frequent subgraphs with frequency 4:
    // mul, add, and mul->add.  Check all three appear with freq 4.
    int found = 0;
    for (const auto &p : patterns) {
        if (p.frequency != 4)
            continue;
        const auto hist = p.pattern.opHistogram();
        const int muls = hist.count(Op::kMul) ? hist.at(Op::kMul) : 0;
        const int adds = hist.count(Op::kAdd) ? hist.at(Op::kAdd) : 0;
        if ((muls == 1 && adds == 0) || (muls == 0 && adds == 1) ||
            (muls == 1 && adds == 1)) {
            ++found;
        }
    }
    EXPECT_GE(found, 3);
}

TEST(MinerTest, FrequenciesAreExact) {
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 2,
                                 .max_pattern_nodes = 4});
    for (const auto &p : miner.mine(conv)) {
        // Re-verify: every reported occurrence really hosts an
        // embedding, and the count of distinct node sets matches.
        const auto embs = findEmbeddings(p.pattern, conv);
        std::set<std::vector<NodeId>> sets;
        std::vector<NodeId> core;
        for (NodeId id = 0; id < p.pattern.size(); ++id)
            if (!isPlaceholder(p.pattern, id))
                core.push_back(id);
        for (const auto &e : embs) {
            std::vector<NodeId> s;
            for (NodeId cid : core)
                s.push_back(e.map[cid]);
            std::sort(s.begin(), s.end());
            sets.insert(s);
        }
        EXPECT_EQ(p.frequency, static_cast<int>(sets.size()))
            << p.code;
    }
}

TEST(MinerTest, RespectsMaxPatternSize) {
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 2,
                                 .max_pattern_nodes = 3});
    for (const auto &p : miner.mine(conv))
        EXPECT_LE(p.core_size, 3);
}

TEST(MinerTest, PatternsAreUnique) {
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 2,
                                 .max_pattern_nodes = 4});
    std::set<std::string> codes;
    for (const auto &p : miner.mine(conv)) {
        EXPECT_EQ(p.code, ir::canonicalCode(p.pattern));
        EXPECT_TRUE(codes.insert(p.code).second)
            << "duplicate pattern " << p.code;
    }
}

TEST(MinerTest, MinesRealApplication) {
    const auto app = apps::gaussianBlur(2);
    FrequentSubgraphMiner miner({.min_support = 3,
                                 .max_pattern_nodes = 4});
    auto patterns = miner.mine(app.graph);
    rankPatterns(patterns);
    ASSERT_FALSE(patterns.empty());

    // The top-ranked pattern must have substantial non-overlapping
    // coverage and more than one node (a MAC-ish shape).
    EXPECT_GE(patterns.front().mis_size, 3);
    EXPECT_GE(patterns.front().core_size, 2);
    // Ranking is by MIS size, descending.
    for (std::size_t i = 1; i < patterns.size(); ++i)
        EXPECT_GE(patterns[i - 1].mis_size, patterns[i].mis_size);
}

TEST(MinerTest, MniSupportBoundsNodeSetCount) {
    // MNI is never larger than the distinct-node-set count, and for
    // the Fig. 3 convolution the two agree on the top patterns.
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 2,
                                 .max_pattern_nodes = 3});
    for (const auto &p : miner.mine(conv)) {
        EXPECT_LE(p.mni_support,
                  static_cast<int>(p.occurrences.size()))
            << p.code;
        EXPECT_GE(p.mni_support, 1) << p.code;
    }
}

TEST(MinerTest, MniMetricPrunesHarder) {
    // Under MNI, overlapping-only patterns score lower; mining with
    // the MNI metric can only return a subset of the node-set-count
    // run at equal threshold.
    const Graph conv = fig3Convolution();
    MinerOptions node_sets{.min_support = 3, .max_pattern_nodes = 3};
    MinerOptions mni = node_sets;
    mni.metric = SupportMetric::kMni;

    const auto a = FrequentSubgraphMiner(node_sets).mine(conv);
    const auto b = FrequentSubgraphMiner(mni).mine(conv);
    EXPECT_LE(b.size(), a.size());
    std::set<std::string> codes;
    for (const auto &p : a)
        codes.insert(p.code);
    for (const auto &p : b)
        EXPECT_TRUE(codes.count(p.code))
            << "MNI-frequent pattern missing from node-set run";
}

TEST(MinerTest, MniCountsDistinctImagesNotEmbeddings) {
    // Star: one add consumed by three muls.  Pattern mul(add, x) has
    // three embeddings but the add position maps to ONE target node,
    // so MNI == 1 while node-set count == 3.
    GraphBuilder b;
    Value x = b.input(), y = b.input();
    Value s = b.add(x, y);
    b.output(b.mul(s, b.input()));
    b.output(b.mul(s, b.input()));
    b.output(b.mul(s, b.input()));
    const Graph g = b.take();

    FrequentSubgraphMiner miner({.min_support = 1,
                                 .max_pattern_nodes = 2});
    bool found = false;
    for (const auto &p : miner.mine(g)) {
        const auto hist = p.pattern.opHistogram();
        if (p.core_size == 2 && hist.count(Op::kAdd) &&
            hist.count(Op::kMul)) {
            EXPECT_EQ(p.mni_support, 1);
            EXPECT_EQ(static_cast<int>(p.occurrences.size()), 3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(MinerTest, ConstantMiningCanBeDisabled) {
    const Graph conv = fig3Convolution();
    MinerOptions opt{.min_support = 2, .max_pattern_nodes = 3};
    opt.mine_constants = false;
    for (const auto &p : FrequentSubgraphMiner(opt).mine(conv)) {
        EXPECT_TRUE(p.pattern.nodesWithOp(Op::kConst).empty())
            << p.code;
    }
}

TEST(MinerTest, MinedPatternsSerializeRoundTrip) {
    const Graph conv = fig3Convolution();
    FrequentSubgraphMiner miner({.min_support = 2,
                                 .max_pattern_nodes = 3});
    for (const auto &p : miner.mine(conv)) {
        const auto parsed = ir::parseGraph(ir::serialize(p.pattern));
        ASSERT_TRUE(parsed.ok()) << p.code;
        EXPECT_EQ(ir::canonicalCode(*parsed), p.code);
    }
}

TEST(MinerTest, EmptyGraphYieldsNoPatterns) {
    FrequentSubgraphMiner miner({.min_support = 1});
    EXPECT_TRUE(miner.mine(Graph{}).empty());
}

TEST(MinerTest, SupportThresholdFilters) {
    const Graph conv = fig3Convolution();
    // Nothing in the 9-op convolution occurs 100 times.
    FrequentSubgraphMiner miner({.min_support = 100});
    EXPECT_TRUE(miner.mine(conv).empty());
}

TEST(MisTest, Fig4OverlapExample) {
    // Four occurrences in a chain where consecutive ones overlap:
    // MIS must pick the two ends (size 2), as in Fig. 4.
    std::vector<std::vector<NodeId>> occ = {
        {0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}};
    const auto mis = maximalIndependentSet(occ);
    EXPECT_EQ(mis.size, 2);
}

TEST(MisTest, DisjointOccurrencesAllChosen) {
    std::vector<std::vector<NodeId>> occ = {
        {0, 1}, {2, 3}, {4, 5}, {6, 7}};
    EXPECT_EQ(maximalIndependentSet(occ).size, 4);
}

TEST(MisTest, ChosenSetIsIndependentAndMaximal) {
    std::vector<std::vector<NodeId>> occ = {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}};
    const auto mis = maximalIndependentSet(occ);
    const auto adj = overlapGraph(occ);

    std::set<int> chosen(mis.chosen.begin(), mis.chosen.end());
    for (int c : mis.chosen)
        for (int nb : adj[c])
            EXPECT_FALSE(chosen.count(nb))
                << "chosen set must be independent";
    // Maximality: every unchosen vertex has a chosen neighbour.
    for (int v = 0; v < static_cast<int>(occ.size()); ++v) {
        if (chosen.count(v))
            continue;
        bool blocked = false;
        for (int nb : adj[v])
            blocked |= chosen.count(nb) > 0;
        EXPECT_TRUE(blocked) << "vertex " << v
                             << " could extend the set";
    }
}

TEST(MisTest, ExactBeatsOrMatchesGreedyOnStar) {
    // Star graph: centre overlaps all leaves; exact MIS = #leaves.
    std::vector<std::vector<NodeId>> occ;
    occ.push_back({0, 1, 2, 3, 4, 5});
    for (NodeId leaf = 0; leaf < 6; ++leaf)
        occ.push_back({leaf, 100 + leaf});
    EXPECT_EQ(maximalIndependentSet(occ).size, 6);
}

TEST(MisTest, EmptyInput) {
    EXPECT_EQ(maximalIndependentSet({}).size, 0);
}

// Property sweep over several applications: every mined pattern's
// occurrences must be real embeddings and MIS <= frequency.
class MinerPropertyTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(MinerPropertyTest, OccurrencesAreEmbeddingsAndMisBounded) {
    const std::string name = GetParam();
    apps::AppInfo app = name == "gaussian" ? apps::gaussianBlur(2)
                        : name == "harris" ? apps::harrisCorner(1)
                                           : apps::mobilenetLayer(2);
    FrequentSubgraphMiner miner({.min_support = 3,
                                 .max_pattern_nodes = 4});
    auto patterns = miner.mine(app.graph);
    rankPatterns(patterns);
    ASSERT_FALSE(patterns.empty()) << name;
    for (const auto &p : patterns) {
        EXPECT_GE(p.frequency, 3);
        EXPECT_GE(p.mis_size, 1);
        EXPECT_LE(p.mis_size, p.frequency);
        EXPECT_TRUE(ir::validate(p.pattern).ok());
        EXPECT_EQ(p.pattern.topoOrder().size(), p.pattern.size());
        for (const auto &occ : p.occurrences)
            EXPECT_EQ(occ.size(), static_cast<std::size_t>(p.core_size));
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, MinerPropertyTest,
                         ::testing::Values("gaussian", "harris",
                                           "mobilenet"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace apex::mining
