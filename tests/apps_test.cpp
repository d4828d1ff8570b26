#include <gtest/gtest.h>

#include <set>

#include "apps/apps.hpp"
#include "apps/window.hpp"
#include "ir/interpreter.hpp"
#include "ir/validate.hpp"

namespace apex::apps {
namespace {

using ir::Op;

class AppValidityTest : public ::testing::TestWithParam<const char *> {
  protected:
    AppInfo load() const {
        const std::string name = GetParam();
        if (name == "camera") return cameraPipeline();
        if (name == "harris") return harrisCorner();
        if (name == "gaussian") return gaussianBlur();
        if (name == "unsharp") return unsharp();
        if (name == "resnet") return resnetLayer();
        if (name == "mobilenet") return mobilenetLayer();
        if (name == "laplacian") return laplacianPyramid();
        if (name == "stereo") return stereo();
        return fastCorner();
    }
};

TEST_P(AppValidityTest, GraphValidates) {
    const AppInfo app = load();
    const Status s = ir::validate(app.graph);
    EXPECT_TRUE(s.ok()) << app.name << ": " << s.message();
    EXPECT_EQ(app.graph.topoOrder().size(), app.graph.size())
        << app.name << " has a cycle";
    EXPECT_FALSE(app.graph.empty());
    EXPECT_GT(app.work_items_per_frame, 0.0);
    EXPECT_GE(app.items_per_cycle, 1);
}

TEST_P(AppValidityTest, HasIoAndCompute) {
    const AppInfo app = load();
    int inputs = 0, outputs = 0;
    for (ir::NodeId id = 0; id < app.graph.size(); ++id) {
        const Op op = app.graph.op(id);
        inputs += (op == Op::kInput || op == Op::kInputBit);
        outputs += (op == Op::kOutput || op == Op::kOutputBit);
    }
    EXPECT_GE(inputs, 1) << app.name;
    EXPECT_GE(outputs, 1) << app.name;
    EXPECT_GE(app.graph.computeNodes().size(), 8u) << app.name;
}

TEST_P(AppValidityTest, InterpreterRunsOnArbitraryInput) {
    const AppInfo app = load();
    ir::Interpreter interp;
    std::vector<std::uint64_t> inputs;
    for (ir::NodeId id = 0; id < app.graph.size(); ++id) {
        const Op op = app.graph.op(id);
        if (op == Op::kInput)
            inputs.push_back(120 + 7 * inputs.size());
        else if (op == Op::kInputBit)
            inputs.push_back(inputs.size() % 2);
    }
    const auto outs = interp.evalByOrder(app.graph, inputs);
    EXPECT_FALSE(outs.empty()) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppValidityTest,
                         ::testing::Values("camera", "harris",
                                           "gaussian", "unsharp",
                                           "resnet", "mobilenet",
                                           "laplacian", "stereo",
                                           "fast"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(AppsTest, CameraOpMixMatchesPaper) {
    // Sec. 5.1: camera uses all baseline ops except left shift and
    // bitwise logical operations.
    const AppInfo app = cameraPipeline();
    const auto hist = app.graph.opHistogram();
    EXPECT_EQ(hist.count(Op::kShl), 0u);
    EXPECT_EQ(hist.count(Op::kAnd), 0u);
    EXPECT_EQ(hist.count(Op::kOr), 0u);
    EXPECT_EQ(hist.count(Op::kXor), 0u);
    EXPECT_GT(hist.at(Op::kMul), 0);
    EXPECT_GT(hist.at(Op::kAdd), 0);
    EXPECT_GT(hist.at(Op::kMin), 0);
}

TEST(AppsTest, CameraHasRoughly90OpsPerPixel) {
    const AppInfo app = cameraPipeline(1);
    const std::size_t compute = app.graph.computeNodes().size();
    EXPECT_GE(compute, 50u);
    EXPECT_LE(compute, 140u);
}

TEST(AppsTest, UnrollScalesComputeLinearly) {
    const std::size_t one = cameraPipeline(1).graph.computeNodes().size();
    const std::size_t four =
        cameraPipeline(4).graph.computeNodes().size();
    EXPECT_EQ(four, 4 * one);
}

TEST(AppsTest, GaussianIsMacChain) {
    const AppInfo app = gaussianBlur(1);
    const auto hist = app.graph.opHistogram();
    EXPECT_EQ(hist.at(Op::kMul), 9);
    EXPECT_EQ(hist.at(Op::kAdd), 8);
    EXPECT_EQ(hist.at(Op::kLshr), 1);
}

TEST(AppsTest, GaussianComputesBinomialBlur) {
    // All window taps equal v -> blur(v) == v (kernel sums to 16).
    const AppInfo app = gaussianBlur(1);
    ir::Interpreter interp;
    const auto outs = interp.evalByOrder(app.graph, {200});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0], 200u)
        << "uniform image must be unchanged by normalized blur";
}

TEST(AppsTest, RegistrySetsAreConsistent) {
    EXPECT_EQ(ipApps().size(), 4u);
    EXPECT_EQ(mlApps().size(), 2u);
    EXPECT_EQ(analyzedApps().size(), 6u);
    EXPECT_EQ(unseenApps().size(), 3u);
    EXPECT_EQ(allApps().size(), 9u);

    std::set<std::string> names;
    for (const AppInfo &a : allApps()) {
        EXPECT_TRUE(names.insert(a.name).second)
            << "duplicate app name " << a.name;
        EXPECT_FALSE(a.description.empty());
    }
    for (const AppInfo &a : unseenApps())
        EXPECT_TRUE(a.unseen);
    for (const AppInfo &a : analyzedApps())
        EXPECT_FALSE(a.unseen);
    for (const AppInfo &a : mlApps())
        EXPECT_EQ(a.domain, Domain::kMachineLearning);
}

TEST(AppsTest, MemTilesPresentForStencils) {
    // Line-buffered stencil apps must instantiate memory nodes.
    for (const AppInfo &a : ipApps()) {
        EXPECT_GE(a.graph.nodesWithOp(Op::kMem).size(), 2u) << a.name;
    }
}

TEST(WindowTest, TapCountAndStructure) {
    ir::GraphBuilder b;
    ir::Value in = b.input("s");
    const auto taps = windowTaps(b, in, 3, 5, "w");
    EXPECT_EQ(taps.size(), 15u);
    const ir::Graph &g = b.graph();
    // rows-1 memory nodes, rows*(cols-1) registers.
    EXPECT_EQ(g.nodesWithOp(Op::kMem).size(), 2u);
    EXPECT_EQ(g.nodesWithOp(Op::kReg).size(), 12u);
    // Rightmost tap of row 0 is the raw stream.
    EXPECT_EQ(taps[4].id(), in.id());
}

TEST(WindowTest, SingleRowHasNoMem) {
    ir::GraphBuilder b;
    const auto taps = windowTaps(b, b.input(), 1, 4, "w");
    EXPECT_EQ(taps.size(), 4u);
    EXPECT_TRUE(b.graph().nodesWithOp(Op::kMem).empty());
}

} // namespace
} // namespace apex::apps
