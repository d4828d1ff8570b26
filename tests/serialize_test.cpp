#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "ir/builder.hpp"
#include "ir/interpreter.hpp"
#include "ir/serialize.hpp"
#include "ir/signature.hpp"

namespace apex::ir {
namespace {

TEST(SerializeTest, RoundTripSimpleGraph) {
    GraphBuilder b;
    Value x = b.input("x");
    Value w = b.constant(7, "w");
    b.output(b.add(b.mul(x, w), b.constant(3)), "y");
    const Graph g = b.take();

    const std::string text = serialize(g);
    EXPECT_NE(text.find("apexir 1"), std::string::npos);
    EXPECT_NE(text.find("mul"), std::string::npos);
    EXPECT_NE(text.find("\"x\""), std::string::npos);

    const auto parsed = parseGraph(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_TRUE(isomorphic(g, *parsed));
    EXPECT_EQ(parsed->node(1).param, 7u);
    EXPECT_EQ(parsed->node(0).name, "x");
}

TEST(SerializeTest, RoundTripPreservesSemantics) {
    const auto app = apps::gaussianBlur(1);
    const std::string text = serialize(app.graph);
    const auto parsed = parseGraph(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    ASSERT_EQ(parsed->size(), app.graph.size());

    const Interpreter interp;
    EXPECT_EQ(interp.evalByOrder(app.graph, {123}),
              interp.evalByOrder(*parsed, {123}));
}

TEST(SerializeTest, RoundTripEveryApp) {
    for (const auto &app : apps::allApps()) {
        const auto parsed = parseGraph(serialize(app.graph));
        ASSERT_TRUE(parsed.ok())
            << app.name << ": " << parsed.status().message();
        EXPECT_EQ(parsed->size(), app.graph.size()) << app.name;
        // parseGraph already ran ir::validate; a parsed app is also
        // acyclic.
        EXPECT_EQ(parsed->topoOrder().size(), parsed->size())
            << app.name;
    }
}

TEST(SerializeTest, EscapesQuotesInNames) {
    Graph g;
    g.addNode(Op::kInput, {}, 0, "a\"b\\c");
    const auto parsed = parseGraph(serialize(g));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->node(0).name, "a\"b\\c");
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
    const std::string text =
        "apexir 1\n"
        "# a comment\n"
        "n0 = input\n"
        "\n"
        "n1 = output n0\n";
    const auto parsed = parseGraph(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->size(), 2u);
}

/** The message of the status parseGraph rejects @p text with. */
std::string
rejection(const std::string &text)
{
    const auto parsed = parseGraph(text);
    EXPECT_FALSE(parsed.ok()) << text;
    return parsed.ok() ? std::string() : parsed.status().message();
}

TEST(SerializeTest, RejectsMissingHeader) {
    EXPECT_NE(rejection("n0 = input\n").find("header"),
              std::string::npos);
}

TEST(SerializeTest, RejectsForwardReference) {
    EXPECT_NE(rejection("apexir 1\nn0 = reg n1\nn1 = input\n")
                  .find("forward"),
              std::string::npos);
}

TEST(SerializeTest, RejectsUnknownOp) {
    EXPECT_NE(rejection("apexir 1\nn0 = frobnicate\n").find("unknown op"),
              std::string::npos);
}

TEST(SerializeTest, RejectsNonDenseIds) {
    EXPECT_NE(rejection("apexir 1\nn5 = input\n").find("dense"),
              std::string::npos);
}

TEST(SerializeTest, RejectsInvalidGraph) {
    // add with a single operand fails validation after parsing.
    EXPECT_NE(rejection("apexir 1\nn0 = input\nn1 = add n0\n")
                  .find("invalid graph"),
              std::string::npos);
}

// --- Hostile input: parseGraph must reject, never crash ---------------

TEST(SerializeTest, ParseGraphReturnsTypedLineTaggedErrors) {
    const auto r = parseGraph("apexir 1\nn0 = frobnicate\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
    EXPECT_NE(r.status().message().find("line 2"),
              std::string::npos);
}

TEST(SerializeTest, RejectsDuplicateNodeIds) {
    EXPECT_FALSE(
        rejection("apexir 1\nn0 = input\nn0 = input\n").empty());
}

TEST(SerializeTest, RejectsOutOfRangeNodeIds) {
    // An id too large for NodeId must not wrap around.
    EXPECT_FALSE(
        rejection("apexir 1\nn99999999999999999999 = input\n").empty());
}

TEST(SerializeTest, RejectsUnterminatedQuotedName) {
    EXPECT_NE(rejection("apexir 1\nn0 = input \"oops\n")
                  .find("unterminated"),
              std::string::npos);

    // A trailing backslash must not read past the end either.
    EXPECT_NE(rejection("apexir 1\nn0 = input \"oops\\")
                  .find("unterminated"),
              std::string::npos);
}

TEST(SerializeTest, RejectsOverflowingConstParam) {
    // 2^64 overflows uint64; must be a parse error, not silent wrap.
    EXPECT_FALSE(
        rejection("apexir 1\nn0 = const 18446744073709551616\n").empty());

    // The largest representable value still parses.
    const auto ok =
        parseGraph("apexir 1\nn0 = const 18446744073709551615\n");
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    EXPECT_EQ(ok->node(0).param, ~0ull);
}

TEST(SerializeTest, RejectsNegativeAndMalformedOperands) {
    EXPECT_FALSE(
        rejection("apexir 1\nn0 = input\nn1 = reg n-1\n").empty());
    EXPECT_FALSE(
        rejection("apexir 1\nn0 = input\nn1 = reg nxyz\n").empty());
}

TEST(SerializeTest, RejectsTrailingTokensAfterName) {
    EXPECT_NE(rejection("apexir 1\nn0 = input \"x\" garbage\n")
                  .find("trailing"),
              std::string::npos);
}

} // namespace
} // namespace apex::ir
