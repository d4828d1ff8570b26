#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "ir/builder.hpp"
#include "ir/dot.hpp"
#include "ir/graph.hpp"
#include "ir/interpreter.hpp"
#include "ir/op.hpp"
#include "ir/signature.hpp"
#include "ir/streaming.hpp"
#include "ir/validate.hpp"

namespace apex::ir {
namespace {

TEST(OpTest, MetadataConsistency) {
    for (int i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        const OpInfo &info = opInfo(op);
        EXPECT_FALSE(info.name.empty());
        EXPECT_EQ(opFromName(info.name), op);
        EXPECT_NE(info.isCompute, info.isStructural)
            << "op " << info.name
            << " must be exactly one of compute/structural";
    }
}

TEST(OpTest, ArithmeticSemantics) {
    EXPECT_EQ(evalOp(Op::kAdd, 7, 9, 0, 0), 16u);
    EXPECT_EQ(evalOp(Op::kAdd, 0xFFFF, 1, 0, 0), 0u) << "16-bit wrap";
    EXPECT_EQ(evalOp(Op::kSub, 3, 5, 0, 0), 0xFFFEu);
    EXPECT_EQ(evalOp(Op::kMul, 300, 300, 0, 0), (300 * 300) & 0xFFFF);
    EXPECT_EQ(evalOp(Op::kAbs, 0xFFFF, 0, 0, 0), 1u) << "|-1| == 1";
    EXPECT_EQ(evalOp(Op::kAbs, 5, 0, 0, 0), 5u);
    EXPECT_EQ(evalOp(Op::kMin, 0xFFFF, 1, 0, 0), 0xFFFFu)
        << "signed min(-1, 1) == -1";
    EXPECT_EQ(evalOp(Op::kMax, 0xFFFF, 1, 0, 0), 1u);
}

TEST(OpTest, ShiftSemantics) {
    EXPECT_EQ(evalOp(Op::kShl, 1, 4, 0, 0), 16u);
    EXPECT_EQ(evalOp(Op::kLshr, 0x8000, 15, 0, 0), 1u);
    EXPECT_EQ(evalOp(Op::kAshr, 0x8000, 15, 0, 0), 0xFFFFu)
        << "arithmetic shift must replicate the sign bit";
}

TEST(OpTest, CompareSemantics) {
    EXPECT_EQ(evalOp(Op::kSlt, 0xFFFF, 0, 0, 0), 1u) << "-1 < 0";
    EXPECT_EQ(evalOp(Op::kUlt, 0xFFFF, 0, 0, 0), 0u);
    EXPECT_EQ(evalOp(Op::kEq, 42, 42, 0, 0), 1u);
    EXPECT_EQ(evalOp(Op::kNeq, 42, 42, 0, 0), 0u);
    EXPECT_EQ(evalOp(Op::kSge, 5, 5, 0, 0), 1u);
}

TEST(OpTest, SelectAndLut) {
    EXPECT_EQ(evalOp(Op::kSel, 1, 111, 222, 0), 111u);
    EXPECT_EQ(evalOp(Op::kSel, 0, 111, 222, 0), 222u);
    // LUT table 0b11101000 == majority(a, b, c).
    EXPECT_EQ(evalOp(Op::kLut, 1, 1, 0, 0xE8), 1u);
    EXPECT_EQ(evalOp(Op::kLut, 1, 0, 0, 0xE8), 0u);
    EXPECT_EQ(evalOp(Op::kLut, 1, 0, 1, 0xE8), 1u);
}

TEST(OpTest, ReducedWidthEvaluation) {
    // 4-bit semantics: 15 + 1 wraps to 0; -1 == 15.
    EXPECT_EQ(evalOp(Op::kAdd, 15, 1, 0, 0, 4), 0u);
    EXPECT_EQ(evalOp(Op::kSlt, 15, 0, 0, 0, 4), 1u);
    EXPECT_EQ(evalOp(Op::kAshr, 8, 3, 0, 0, 4), 15u);
}

TEST(GraphTest, BuildAndValidate) {
    GraphBuilder b;
    Value x = b.input("x");
    Value y = b.input("y");
    b.output(b.add(b.mul(x, y), b.constant(1)), "out");
    Graph g = b.take();

    const Status s = validate(g);
    EXPECT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(g.topoOrder().size(), g.size());
    EXPECT_EQ(g.size(), 6u);
    EXPECT_EQ(g.computeNodes().size(), 2u);
    EXPECT_EQ(g.opHistogram()[Op::kMul], 1);
}

TEST(GraphTest, TopoOrderRespectsDependencies) {
    GraphBuilder b;
    Value x = b.input();
    Value s = b.add(x, b.constant(1));
    b.output(b.mul(s, s));
    Graph g = b.take();

    const auto order = g.topoOrder();
    ASSERT_EQ(order.size(), g.size());
    std::vector<int> pos(g.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    for (const Edge &e : g.edges())
        EXPECT_LT(pos[e.src], pos[e.dst]);
}

TEST(GraphTest, InducedSubgraphAddsInputs) {
    GraphBuilder b;
    Value x = b.input("x");
    Value y = b.input("y");
    Value m = b.mul(x, y);
    Value a = b.add(m, b.constant(3));
    b.output(a);
    Graph g = b.take();

    // Keep only the add node: its operands become fresh inputs.
    Graph sub = g.inducedSubgraph({a.id()});
    EXPECT_TRUE(validate(sub).ok());
    EXPECT_EQ(sub.topoOrder().size(), sub.size());
    EXPECT_EQ(sub.size(), 3u); // two inputs + add
    EXPECT_EQ(sub.nodesWithOp(Op::kAdd).size(), 1u);
    EXPECT_EQ(sub.nodesWithOp(Op::kInput).size(), 2u);
}

TEST(GraphTest, InducedSubgraphSharesExternalProducer) {
    GraphBuilder b;
    Value x = b.input("x");
    Value sq = b.mul(x, x);
    b.output(sq);
    Graph g = b.take();

    Graph sub = g.inducedSubgraph({sq.id()});
    // Both mul operands come from the same external node -> one input.
    EXPECT_EQ(sub.nodesWithOp(Op::kInput).size(), 1u);
}

TEST(InterpreterTest, EvaluatesExpression) {
    GraphBuilder b;
    Value x = b.input("x");
    Value y = b.input("y");
    b.output(b.add(b.mul(x, y), b.constant(10)));
    Graph g = b.take();

    Interpreter interp;
    const auto outs = interp.evalByOrder(g, {6, 7});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0], 52u);
}

TEST(InterpreterTest, RegistersAreTransparent) {
    GraphBuilder b;
    Value x = b.input();
    b.output(b.add(b.reg(b.reg(x)), b.constant(1)));
    Graph g = b.take();
    Interpreter interp;
    EXPECT_EQ(interp.evalByOrder(g, {41})[0], 42u);
}

TEST(InterpreterTest, SelectPath) {
    GraphBuilder b;
    Value x = b.input();
    Value cond = b.sgt(x, b.constant(10));
    b.output(b.select(cond, b.constant(1), b.constant(0)));
    Graph g = b.take();
    Interpreter interp;
    EXPECT_EQ(interp.evalByOrder(g, {20})[0], 1u);
    EXPECT_EQ(interp.evalByOrder(g, {5})[0], 0u);
}

TEST(SignatureTest, IsomorphicGraphsShareCode) {
    // Same structure built in different node orders.
    GraphBuilder b1;
    Value x1 = b1.input(), y1 = b1.input();
    b1.output(b1.add(b1.mul(x1, y1), y1));
    Graph g1 = b1.take();

    GraphBuilder b2;
    Value y2 = b2.input(), x2 = b2.input();
    b2.output(b2.add(b2.mul(x2, y2), y2));
    Graph g2 = b2.take();

    EXPECT_EQ(canonicalCode(g1), canonicalCode(g2));
    EXPECT_TRUE(isomorphic(g1, g2));
}

TEST(SignatureTest, OperandOrderMatters) {
    GraphBuilder b1;
    Value x1 = b1.input(), y1 = b1.input();
    b1.output(b1.sub(b1.mul(x1, y1), y1));
    Graph g1 = b1.take();

    GraphBuilder b2;
    Value x2 = b2.input(), y2 = b2.input();
    b2.output(b2.sub(y2, b2.mul(x2, y2)));
    Graph g2 = b2.take();

    EXPECT_NE(canonicalCode(g1), canonicalCode(g2))
        << "sub(a, b) and sub(b, a) are different patterns";
}

TEST(SignatureTest, DifferentOpsDiffer) {
    GraphBuilder b1;
    b1.output(b1.add(b1.input(), b1.input()));
    GraphBuilder b2;
    b2.output(b2.mul(b2.input(), b2.input()));
    EXPECT_FALSE(isomorphic(b1.graph(), b2.graph()));
}

TEST(SignatureTest, ConstValuesDoNotDistinguish) {
    GraphBuilder b1;
    b1.output(b1.mul(b1.input(), b1.constant(3)));
    GraphBuilder b2;
    b2.output(b2.mul(b2.input(), b2.constant(99)));
    EXPECT_TRUE(isomorphic(b1.graph(), b2.graph()))
        << "weights are wildcards for pattern identity";
}

TEST(SignatureTest, LutTableDistinguishes) {
    GraphBuilder b1;
    Value a1 = b1.inputBit(), c1 = b1.inputBit(), d1 = b1.inputBit();
    b1.outputBit(b1.lut(0xE8, a1, c1, d1));
    GraphBuilder b2;
    Value a2 = b2.inputBit(), c2 = b2.inputBit(), d2 = b2.inputBit();
    b2.outputBit(b2.lut(0x96, a2, c2, d2));
    EXPECT_FALSE(isomorphic(b1.graph(), b2.graph()));
}

/** FNV-1a over all eight little-endian bytes of each value: the
 * digest Fnv64::mix must reproduce whatever its loop skips. */
class ByteLoopFnv {
  public:
    ByteLoopFnv &mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
        return *this;
    }
    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

TEST(SignatureTest, FnvMixMatchesTheFullByteLoop) {
    std::vector<std::uint64_t> values = {
        0, 1, 0xff, 0x100, 1ull << 56, ~0ull, 0x0100000000000001ull};
    std::uint64_t x = 0x9e3779b97f4a7c15ull; // splitmix64
    for (int i = 0; i < 64; ++i) {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        values.push_back(z >> (i % 64)); // every significant width
    }
    ByteLoopFnv chained_ref;
    Fnv64 chained;
    for (const std::uint64_t v : values) {
        SCOPED_TRACE(v);
        EXPECT_EQ(Fnv64().mix(v).digest(), ByteLoopFnv().mix(v).digest());
        chained.mix(v);
        chained_ref.mix(v);
        EXPECT_EQ(chained.digest(), chained_ref.digest());
    }
    for (const double d : {0.0, -0.0, 1.0, 0.1, -2.5e300}) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        EXPECT_EQ(Fnv64().mixDouble(d).digest(),
                  ByteLoopFnv().mix(bits).digest())
            << d;
    }
}

TEST(StreamingTest, RegisterDelaysByOneCycle) {
    GraphBuilder b;
    Value x = b.input("x");
    b.output(b.reg(x), "y");
    Graph g = b.take();

    StreamingInterpreter s;
    const auto out = s.run(g, {{10, 20, 30, 40}}, 4);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (std::vector<std::uint64_t>{0, 10, 20, 30}));
}

TEST(StreamingTest, RegFileDelaysByDepth) {
    Graph g;
    NodeId in = g.addNode(Op::kInput);
    NodeId rf = g.addNode(Op::kRegFile, {in}, 3);
    g.addNode(Op::kOutput, {rf});

    StreamingInterpreter s;
    const auto out = s.run(g, {{1, 2, 3, 4, 5}}, 5);
    EXPECT_EQ(out[0], (std::vector<std::uint64_t>{0, 0, 0, 1, 2}));
}

TEST(StreamingTest, WindowSumCombinesAdjacentSamples) {
    // y(t) = x(t) + x(t-1): a 2-tap moving sum.
    GraphBuilder b;
    Value x = b.input("x");
    b.output(b.add(x, b.reg(x)), "y");
    Graph g = b.take();

    StreamingInterpreter s;
    const auto out = s.run(g, {{5, 7, 11, 13}}, 4);
    EXPECT_EQ(out[0], (std::vector<std::uint64_t>{5, 12, 18, 24}));
}

TEST(StreamingTest, SteadyStateMatchesCombinationalInterpreter) {
    // On a constant input stream, the streaming semantics converge
    // to the combinational interpreter's value.
    const Graph g = [] {
        GraphBuilder b;
        Value x = b.input("x");
        Value m = b.mem(x, "lb");
        b.output(b.add(b.mul(m, b.constant(3)), b.reg(x)));
        return b.take();
    }();

    StreamingInterpreter s;
    const auto streams = s.run(g, {{9, 9, 9, 9, 9, 9}}, 6);
    const Interpreter interp;
    const auto fixed = interp.evalByOrder(g, {9});
    EXPECT_EQ(streams[0].back(), fixed[0]);
}

TEST(DotTest, ContainsNodesAndEdges) {
    GraphBuilder b;
    b.output(b.add(b.input("x"), b.constant(7)));
    const std::string dot = toDot(b.graph(), "t");
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("add"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

// Property sweep: evalOp must agree between full width and the masked
// projection for width-uniform ops (the rewrite-rule validation
// argument from DESIGN.md).
class WidthUniformityTest : public ::testing::TestWithParam<Op> {};

TEST_P(WidthUniformityTest, MaskCommutesWithEval) {
    const Op op = GetParam();
    const int w = 6;
    const std::uint64_t mask = (1u << w) - 1;
    for (std::uint64_t a = 0; a <= mask; a += 5) {
        for (std::uint64_t c = 0; c <= mask; c += 7) {
            const auto narrow = evalOp(op, a, c, 0, 0, w);
            EXPECT_LE(narrow, opResultType(op) == ValueType::kWord
                                  ? mask
                                  : 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, WidthUniformityTest,
    ::testing::Values(Op::kAdd, Op::kSub, Op::kMul, Op::kMin, Op::kMax,
                      Op::kShl, Op::kLshr, Op::kAshr, Op::kAnd, Op::kOr,
                      Op::kXor, Op::kEq, Op::kUlt, Op::kSlt, Op::kSge),
    [](const auto &info) {
        return std::string(opName(info.param));
    });

// --- ir::validate ------------------------------------------------------

TEST(ValidateTest, AcceptsWellFormedGraphs) {
    GraphBuilder b;
    Value x = b.input("x");
    b.output(b.add(b.mul(x, b.constant(7)), b.constant(3)), "y");
    const Graph g = b.take();
    EXPECT_TRUE(validate(g).ok());
}

TEST(ValidateTest, RejectsDanglingOperand) {
    Graph g;
    const NodeId in = g.addNode(Op::kInput);
    const NodeId add = g.addNode(Op::kAdd, {in, in});
    g.setOperand(add, 1, static_cast<NodeId>(500));
    const Status s = validate(g);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kInvalidIr);
}

TEST(ValidateTest, RejectsArityMismatch) {
    Graph g;
    const NodeId in = g.addNode(Op::kInput);
    g.addNode(Op::kAdd, {in}); // add needs two operands
    const Status s = validate(g);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("operands"), std::string::npos);
}

TEST(ValidateTest, RejectsTypeMismatch) {
    Graph g;
    const NodeId a = g.addNode(Op::kInput);
    const NodeId b = g.addNode(Op::kInput);
    const NodeId cmp = g.addNode(Op::kEq, {a, b});
    g.addNode(Op::kAdd, {cmp, a}); // bit into word port
    const Status s = validate(g);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kInvalidIr);
    EXPECT_NE(s.message().find("type mismatch"), std::string::npos);
}

TEST(ValidateTest, AllowsRegisterBrokenFeedbackLoop) {
    // Accumulator idiom: add feeds a register that feeds the add.
    Graph g;
    const NodeId in = g.addNode(Op::kInput);
    const NodeId add = g.addNode(Op::kAdd, {in, in});
    const NodeId reg = g.addNode(Op::kReg, {add});
    g.setOperand(add, 1, reg);
    EXPECT_TRUE(validate(g).ok());
    // ...but the serialized (def-order) form must reject it.
    EXPECT_FALSE(
        validate(g, {.require_def_order = true}).ok());
}

TEST(ValidateTest, RejectsCombinationalCycle) {
    Graph g;
    const NodeId in = g.addNode(Op::kInput);
    const NodeId a = g.addNode(Op::kAdd, {in, in});
    const NodeId b = g.addNode(Op::kAdd, {a, in});
    g.setOperand(a, 1, b); // combinational a <-> b loop
    const Status s = validate(g);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("cycle"), std::string::npos);
}

// --- Typed IR errors (former asserts) ----------------------------------

TEST(IrErrorTest, BuilderRejectsInvalidValue) {
    GraphBuilder b;
    Value good = b.input("x");
    Value bad; // default-constructed
    EXPECT_THROW(b.add(good, bad), IrError);
    EXPECT_THROW(b.output(bad), IrError);
}

TEST(IrErrorTest, MacTreeRejectsMismatchedInputs) {
    GraphBuilder b;
    std::vector<Value> ins = {b.input("a")};
    std::vector<Value> weights = {b.constant(1), b.constant(2)};
    EXPECT_THROW(b.macTree(ins, weights), IrError);
}

TEST(IrErrorTest, UnknownOpNameThrows) {
    EXPECT_THROW(opFromName("frobnicate"), IrError);
    try {
        opFromName("frobnicate");
    } catch (const IrError &e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    }
}

TEST(IrErrorTest, EvalOpRejectsBadWidth) {
    EXPECT_THROW(evalOp(Op::kAdd, 1, 2, 0, 0, 0), IrError);
    EXPECT_THROW(evalOp(Op::kAdd, 1, 2, 0, 0, 65), IrError);
    EXPECT_EQ(evalOp(Op::kAdd, 1, 2, 0, 0, 16), 3u);
}

TEST(IrErrorTest, SetOperandRejectsOutOfRangeNode) {
    Graph g;
    g.addNode(Op::kInput);
    EXPECT_THROW(g.setOperand(static_cast<NodeId>(42), 0, 0),
                 IrError);
}

} // namespace
} // namespace apex::ir
