#include <gtest/gtest.h>

#include <random>

#include "cgra/place.hpp"
#include "core/evaluate.hpp"
#include "core/fault.hpp"
#include "ir/interpreter.hpp"
#include "mapper/select.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"

namespace apex::core {
namespace {

const model::TechModel &tech = model::defaultTech();

/** big.LITTLE around the IP domain PE. */
HeteroCgra
bigLittle(const Explorer &ex)
{
    return makeBigLittleCgra(
        ex.domainVariant(ex.analyze(apps::ipApps()).value(), 1, "pe_ip")
            .value(),
        "biglittle");
}

TEST(CombineLibrariesTest, TagsTypesAndPrefersCheapOnTies) {
    const pe::PeSpec big = pe::baselinePe();
    const pe::PeSpec little = pe::baselineSubsetPe(
        {ir::Op::kAdd, ir::Op::kSub}, "little");

    mapper::RewriteRuleSynthesizer sb(big), sl(little);
    auto combined = mapper::combineLibraries(
        {sb.synthesizeLibrary({}), sl.synthesizeLibrary({})},
        {big.area(tech), little.area(tech)});

    ASSERT_FALSE(combined.empty());
    bool has_type0 = false, has_type1 = false;
    for (std::size_t i = 1; i < combined.size(); ++i)
        EXPECT_GE(combined[i - 1].size, combined[i].size);
    for (const auto &rule : combined) {
        has_type0 |= rule.pe_type == 0;
        has_type1 |= rule.pe_type == 1;
    }
    EXPECT_TRUE(has_type0);
    EXPECT_TRUE(has_type1);

    // For a plain add (both types implement it, same size/bindings),
    // the first matching rule must be the little PE's.
    for (const auto &rule : combined) {
        if (rule.size == 1 && rule.const_bindings.empty() &&
            rule.pattern.nodesWithOp(ir::Op::kAdd).size() == 1 &&
            rule.pattern.size() == 3) {
            EXPECT_EQ(rule.pe_type, 1)
                << "cheap PE must win the tie";
            break;
        }
    }
}

TEST(HeteroTest, BigLittleMapsAndSplitsWork) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    std::vector<int> by_type;
    const auto r = evaluate(app, bigLittle(ex), EvalLevel::kPostMapping,
                            tech, {}, &by_type);
    ASSERT_TRUE(r.success) << r.status.toString();
    ASSERT_EQ(by_type.size(), 2u);
    EXPECT_GT(by_type[0], 0) << "MACs need the big PE";
    EXPECT_GT(by_type[1], 0)
        << "plain adds/shifts should land on the little PE";
    EXPECT_EQ(r.pe_count, by_type[0] + by_type[1]);
}

TEST(HeteroTest, HeteroBeatsHomogeneousOnArea) {
    // The little PE absorbs single-op work at a fraction of the big
    // PE's area: total PE area must drop vs the homogeneous fabric.
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const PeVariant pe_ip =
        ex.domainVariant(ex.analyze(apps::ipApps()).value(), 1, "pe_ip")
            .value();

    const auto homo = evaluate(app, pe_ip,
                               EvalLevel::kPostMapping, tech);
    const auto hetero =
        evaluate(app, makeBigLittleCgra(pe_ip, "biglittle"),
                 EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(homo.success) << homo.status.toString();
    ASSERT_TRUE(hetero.success) << hetero.status.toString();
    EXPECT_LT(hetero.pe_area, homo.pe_area);
    EXPECT_LE(hetero.pe_energy, homo.pe_energy * 1.05);
}

TEST(HeteroTest, FunctionalEquivalenceAcrossTypes) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    const HeteroCgra cgra = bigLittle(ex);

    std::vector<std::vector<mapper::RewriteRule>> libs;
    std::vector<double> areas;
    std::vector<const pe::PeSpec *> specs;
    for (const PeVariant &v : cgra.types) {
        mapper::RewriteRuleSynthesizer synth(v.spec);
        libs.push_back(synth.synthesizeLibrary(v.patterns));
        areas.push_back(v.spec.area(tech));
        specs.push_back(&v.spec);
    }
    const auto rules =
        mapper::combineLibraries(std::move(libs), areas);
    mapper::InstructionSelector selector(rules);
    const auto sel = selector.map(app.graph);
    ASSERT_TRUE(sel.success) << sel.error;

    std::mt19937 rng(3);
    std::uniform_int_distribution<std::uint32_t> dist(0, 255);
    for (int trial = 0; trial < 4; ++trial) {
        const std::vector<std::uint64_t> inputs = {dist(rng)};
        const ir::Interpreter interp;
        const auto want = interp.evalByOrder(app.graph, inputs);
        const auto got = mapper::executeMappedHetero(
            sel.mapped, rules, specs, inputs);
        EXPECT_EQ(got, want);
    }
}

TEST(HeteroTest, PlacementRespectsTypePools) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const auto r = evaluate(app, bigLittle(ex), EvalLevel::kPostPnr, tech);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.cgra_area, r.pe_area);
    EXPECT_GT(r.cgra_energy, r.pe_energy);
    EXPECT_EQ(r.util.pes, r.pe_count);
}

TEST(HeteroTest, TypePoolCapacityIsEnforced) {
    // A fabric with very few tiles per pool must fail placement
    // rather than overfill one pool.
    Explorer ex;
    const auto app = apps::gaussianBlur(4);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 4;
    options.auto_grow_fabric = false;
    const auto r = evaluate(app, bigLittle(ex), EvalLevel::kPostPnr,
                            tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.status.message().find("too small"), std::string::npos);
}

// A fabric of several PE types runs the same checks and P&R ladder
// as one PE type: each case below matches evaluate() on pe_ip alone.

TEST(HeteroTest, FabricGrowthBoundHolds) {
    Explorer ex;
    const auto app = apps::gaussianBlur(4);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 4;
    options.max_fabric_growths = 1;
    const auto r = evaluate(app, bigLittle(ex), EvalLevel::kPostPnr,
                            tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kBudgetExhausted);
    EXPECT_NE(r.status.toString().find("final fabric 4x4"),
              std::string::npos)
        << r.status.toString();
}

TEST(HeteroTest, ExpiredDeadlineIsATimeout) {
    Explorer ex;
    EvalOptions options;
    options.deadline = Deadline::after(-1.0);
    const auto r = evaluate(apps::gaussianBlur(4), bigLittle(ex),
                            EvalLevel::kPostPnr, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
    EXPECT_FALSE(r.diagnostics.forStage("deadline").empty());
}

TEST(HeteroTest, EvaluateFaultFailsTheEvaluation) {
    Explorer ex;
    const HeteroCgra cgra = bigLittle(ex);
    FaultScope fault(FaultStage::kEvaluate, 1);
    const auto r = evaluate(apps::gaussianBlur(4), cgra,
                            EvalLevel::kPostPnr, tech);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kEvaluationFailed);
}

TEST(HeteroTest, PlaceAndRouteFaultsRecoverOnTheConfiguredFabric) {
    // One failed placement retries the seed, one failed route adds
    // tracks; neither grows the 32x16 fabric.
    Explorer ex;
    const HeteroCgra cgra = bigLittle(ex);
    const auto app = apps::gaussianBlur(4);
    for (const FaultStage stage :
         {FaultStage::kPlace, FaultStage::kRoute}) {
        const std::string name(faultStageName(stage));
        FaultScope fault(stage, 1);
        const auto r = evaluate(app, cgra, EvalLevel::kPostPnr, tech);
        ASSERT_TRUE(r.success) << name << ": " << r.status.toString();
        EXPECT_EQ(r.fabric_width, 32) << name;
        EXPECT_EQ(r.fabric_height, 16) << name;
        EXPECT_FALSE(r.diagnostics.forStage(name).empty()) << name;
        EXPECT_GE(r.pnr_attempts, 1) << name;
    }
}

TEST(HeteroTest, SeveralTypesCannotBePipelined) {
    Explorer ex;
    const auto r = evaluate(apps::gaussianBlur(2), bigLittle(ex),
                            EvalLevel::kPostPipelining, tech);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kInvalidArgument);
}

TEST(HeteroTest, OneTypeFabricIsTheHomogeneousEvaluation) {
    // The one-type fabric is the paper's homogeneous CGRA: the same
    // record, byte for byte, with every PE counted as type 0.
    Explorer ex;
    for (const apps::AppInfo &app : apps::analyzedApps()) {
        const PeVariant pe1 = ex.subsetVariant(app);
        const HeteroCgra one{"one_type", {pe1}};
        for (const EvalLevel level :
             {EvalLevel::kPostMapping, EvalLevel::kPostPnr}) {
            const auto homo = evaluate(app, pe1, level, tech);
            std::vector<int> by_type;
            const auto fabric =
                evaluate(app, one, level, tech, {}, &by_type);
            ASSERT_TRUE(homo.success) << homo.status.toString();
            ASSERT_TRUE(fabric.success) << fabric.status.toString();
            EXPECT_EQ(serializeEvalResult(fabric),
                      serializeEvalResult(homo))
                << app.name;
            EXPECT_EQ(by_type, std::vector<int>{homo.pe_count})
                << app.name;
        }
    }
}

} // namespace
} // namespace apex::core
