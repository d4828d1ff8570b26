// Fault-injection harness tests: the DSE pipeline must survive a
// deterministic fault at every stage — the sweep keeps going, only
// the affected app/variant is skipped, and the ExplorationReport
// names the failed stage, error code and attempts consumed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/evaluate.hpp"
#include "core/fault.hpp"
#include "core/sweep.hpp"
#include "ir/serialize.hpp"

namespace apex::core {
namespace {

const model::TechModel tech = model::defaultTech();

class FaultTest : public ::testing::Test {
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }

    static std::vector<apps::AppInfo> smallApps() {
        return {apps::gaussianBlur(1), apps::unsharp(1)};
    }

    /** Eval options that make one injected fault terminal: no seed
     * retries, no track escalation, no fabric growth. */
    static EvalOptions strictEval() {
        EvalOptions eval;
        eval.place_retries = 1;
        eval.route_track_escalations = 0;
        eval.auto_grow_fabric = false;
        return eval;
    }
};

TEST_F(FaultTest, DeserializeFaultInjection) {
    const std::string text =
        ir::serialize(apps::gaussianBlur(1).graph);
    {
        FaultScope scope(FaultStage::kDeserialize, 1);
        const auto parsed = ir::parseGraph(text);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
        EXPECT_NE(parsed.status().message().find("injected fault"),
                  std::string::npos);
    }
    // Disarmed again: the same text parses.
    EXPECT_TRUE(ir::parseGraph(text).ok());
}

TEST_F(FaultTest, SweepSurvivesFaultAtEveryStage) {
    const struct {
        FaultStage stage;
        EvalLevel level;
    } cases[] = {
        {FaultStage::kValidate, EvalLevel::kPostMapping},
        {FaultStage::kMine, EvalLevel::kPostMapping},
        {FaultStage::kMerge, EvalLevel::kPostMapping},
        {FaultStage::kMap, EvalLevel::kPostMapping},
        {FaultStage::kPlace, EvalLevel::kPostPnr},
        {FaultStage::kRoute, EvalLevel::kPostPnr},
        {FaultStage::kEvaluate, EvalLevel::kPostMapping},
    };
    const auto apps_list = smallApps();
    Explorer ex;

    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(faultStageName(c.stage)));
        SweepOptions options;
        options.level = c.level;
        options.eval = strictEval();

        FaultScope scope(c.stage, 1);
        const SweepOutcome outcome =
            runSweep(apps_list, ex, tech, options);

        // The sweep finished and evaluated everything except the one
        // faulted pair (or app, for a validate fault).
        ASSERT_EQ(outcome.report.failures.size(), 1u);
        const StageFailure &f = outcome.report.failures.front();
        EXPECT_EQ(f.stage, faultStageName(c.stage));
        EXPECT_EQ(f.status.code(), faultErrorCode(c.stage));
        EXPECT_GE(f.attempts, 1);
        EXPECT_EQ(f.app, apps_list.front().name);
        EXPECT_EQ(outcome.report.skipped, 1);
        EXPECT_GE(outcome.report.evaluated, 3);
        EXPECT_EQ(outcome.entries.size(),
                  static_cast<std::size_t>(
                      outcome.report.evaluated));

        // The second application is untouched by the fault.
        int second_app_entries = 0;
        for (const SweepEntry &e : outcome.entries)
            if (e.app == apps_list.back().name)
                ++second_app_entries;
        EXPECT_EQ(second_app_entries, 3);

        // The summary names the failed stage for the operator.
        const std::string summary = outcome.report.summary();
        EXPECT_NE(summary.find("stage '" +
                               std::string(faultStageName(c.stage)) +
                               "'"),
                  std::string::npos);
    }
}

TEST_F(FaultTest, ValidateFaultSkipsWholeApp) {
    const auto apps_list = smallApps();
    Explorer ex;
    SweepOptions options;
    options.eval = strictEval();

    FaultScope scope(FaultStage::kValidate, 1);
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    EXPECT_EQ(outcome.report.failures.front().app,
              apps_list.front().name);
    EXPECT_TRUE(outcome.report.failures.front().variant.empty());
    // Only the other app's variants ran.
    EXPECT_EQ(outcome.report.evaluated, 3);
}

TEST_F(FaultTest, PlacementRetriesWithNewSeedAfterFailure) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.place_retries = 3;

    // First placement call fails; the retry with a derived seed must
    // succeed and the trail must show both attempts.
    FaultScope scope(FaultStage::kPlace, 1);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_EQ(r.pnr_attempts, 2);

    const auto trail = r.diagnostics.forStage("place");
    ASSERT_GE(trail.size(), 2u);
    EXPECT_EQ(trail[0].severity, Severity::kError);
    EXPECT_EQ(trail[0].code, ErrorCode::kPlaceFailed);
    EXPECT_EQ(trail[0].attempt, 1);
    EXPECT_EQ(trail[1].severity, Severity::kInfo);
    EXPECT_EQ(trail[1].attempt, 2);
}

TEST_F(FaultTest, RoutingRetriesWithMoreTracksAfterFailure) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.route_track_escalations = 2;

    FaultScope scope(FaultStage::kRoute, 1);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_EQ(r.pnr_attempts, 1); // placement never failed

    const auto trail = r.diagnostics.forStage("route");
    ASSERT_GE(trail.size(), 2u);
    EXPECT_EQ(trail[0].severity, Severity::kError);
    EXPECT_EQ(trail[0].code, ErrorCode::kRouteFailed);
    EXPECT_EQ(trail[1].severity, Severity::kInfo);
    EXPECT_NE(trail[1].message.find("escalation"),
              std::string::npos);
}

TEST_F(FaultTest, ExhaustedRetriesReportTheFullTrail) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.place_retries = 2;
    options.auto_grow_fabric = false;

    // Both placement attempts fail: the evaluation must fail with
    // the typed code and report every attempt.
    FaultScope scope(FaultStage::kPlace, 1, 2);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kPlaceFailed);
    EXPECT_EQ(r.pnr_attempts, 2);
    EXPECT_EQ(r.diagnostics.count(Severity::kError), 2);
    EXPECT_FALSE(r.status.ok());
}

TEST_F(FaultTest, EvaluateRejectsCorruptApplicationGraph) {
    // A corrupt graph must be caught by boundary validation, not
    // crash the mapper.
    apps::AppInfo app = apps::gaussianBlur(1);
    const ir::NodeId victim = app.graph.size() - 1;
    app.graph.setOperand(victim, 0,
                         static_cast<ir::NodeId>(10000)); // dangling

    Explorer ex;
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostMapping, tech);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kInvalidIr);
    EXPECT_FALSE(r.diagnostics.forStage("validate").empty());
}

TEST_F(FaultTest, SweepSkipsCorruptAppAndContinues) {
    auto apps_list = smallApps();
    apps_list.front().graph.setOperand(
        apps_list.front().graph.size() - 1, 0,
        static_cast<ir::NodeId>(10000));

    Explorer ex;
    SweepOptions options;
    options.eval = strictEval();
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    EXPECT_EQ(outcome.report.failures.front().stage, "validate");
    EXPECT_EQ(outcome.report.failures.front().status.code(),
              ErrorCode::kInvalidIr);
    EXPECT_EQ(outcome.report.evaluated, 3);
}

} // namespace
} // namespace apex::core
