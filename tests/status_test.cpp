// Tests for the unified error layer (status.hpp) and the
// deterministic fault injector (fault.hpp).
#include <set>

#include <gtest/gtest.h>

#include "core/fault.hpp"
#include "core/status.hpp"

namespace apex {
namespace {

TEST(StatusTest, DefaultConstructedIsOk) {
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
    EXPECT_EQ(s.toString(), "Ok");
}

TEST(StatusTest, CarriesCodeAndMessage) {
    Status s(ErrorCode::kRouteFailed, "congestion on link 7");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kRouteFailed);
    EXPECT_EQ(s.message(), "congestion on link 7");
}

TEST(StatusTest, ContextChainsInnermostFirst) {
    Status s = Status(ErrorCode::kRouteFailed, "congestion")
                   .withContext("routing PE_3 on 8x8 fabric")
                   .withContext("evaluating 'camera'");
    ASSERT_EQ(s.context().size(), 2u);
    EXPECT_EQ(s.context()[0], "routing PE_3 on 8x8 fabric");
    EXPECT_EQ(s.context()[1], "evaluating 'camera'");
    const std::string text = s.toString();
    EXPECT_NE(text.find("RouteFailed"), std::string::npos);
    EXPECT_NE(text.find("congestion"), std::string::npos);
    EXPECT_NE(text.find("[routing PE_3 on 8x8 fabric]"),
              std::string::npos);
}

TEST(StatusTest, WithContextIsNoOpOnOk) {
    Status s = Status::okStatus().withContext("ignored");
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.context().empty());
}

TEST(StatusTest, ExitCodesAreDistinctPerStage) {
    const ErrorCode codes[] = {
        ErrorCode::kOk,           ErrorCode::kInvalidArgument,
        ErrorCode::kParseError,   ErrorCode::kInvalidIr,
        ErrorCode::kMiningFailed, ErrorCode::kMergeInfeasible,
        ErrorCode::kMappingFailed, ErrorCode::kPlaceFailed,
        ErrorCode::kRouteFailed,  ErrorCode::kBudgetExhausted,
        ErrorCode::kEvaluationFailed, ErrorCode::kTimeout,
        ErrorCode::kInternal,     ErrorCode::kResourceExhausted,
    };
    std::set<int> seen;
    for (ErrorCode code : codes)
        seen.insert(exitCodeFor(code));
    EXPECT_EQ(seen.size(), std::size(codes));
    EXPECT_EQ(exitCodeFor(ErrorCode::kOk), 0);
}

TEST(StatusTest, StageForCodeMapsThePipeline) {
    EXPECT_EQ(stageForCode(ErrorCode::kParseError), "deserialize");
    EXPECT_EQ(stageForCode(ErrorCode::kInvalidIr), "validate");
    EXPECT_EQ(stageForCode(ErrorCode::kMiningFailed), "mine");
    EXPECT_EQ(stageForCode(ErrorCode::kMergeInfeasible), "merge");
    EXPECT_EQ(stageForCode(ErrorCode::kMappingFailed), "map");
    EXPECT_EQ(stageForCode(ErrorCode::kPlaceFailed), "place");
    EXPECT_EQ(stageForCode(ErrorCode::kBudgetExhausted), "place");
    EXPECT_EQ(stageForCode(ErrorCode::kRouteFailed), "route");
    EXPECT_EQ(stageForCode(ErrorCode::kEvaluationFailed), "evaluate");
    EXPECT_EQ(stageForCode(ErrorCode::kResourceExhausted),
              "durability");
}

TEST(StatusTest, ResourceExhaustionHasItsOwnExitCode) {
    // Exit 17 is the documented "machine ran out of disk/fds" code
    // (DESIGN.md Sec. 7h); it must stay distinct from the search-
    // budget code the placer uses (exit 10).
    EXPECT_EQ(exitCodeFor(ErrorCode::kResourceExhausted), 17);
    EXPECT_EQ(exitCodeFor(ErrorCode::kBudgetExhausted), 10);
    EXPECT_EQ(errorCodeName(ErrorCode::kResourceExhausted),
              "ResourceExhausted");
    EXPECT_EQ(errorCodeName(ErrorCode::kBudgetExhausted),
              "BudgetExhausted");
}

TEST(ResultTest, HoldsValue) {
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(*r, 42);
    EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, ErrorPropagatesAndValueThrows) {
    Result<int> r(Status(ErrorCode::kPlaceFailed, "no tiles"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kPlaceFailed);
    EXPECT_THROW(r.value(), ApexError);
}

TEST(ResultTest, OkStatusDegradesToInternal) {
    Result<int> r(Status::okStatus());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
}

TEST(ResultTest, ApexErrorCarriesStatus) {
    try {
        throw IrError(ErrorCode::kInvalidIr, "dangling operand");
    } catch (const ApexError &e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidIr);
        EXPECT_NE(std::string(e.what()).find("dangling operand"),
                  std::string::npos);
    }
}

TEST(DiagnosticsTest, CollectsOrderedRecords) {
    Diagnostics d;
    d.error("place", Status(ErrorCode::kPlaceFailed, "seed 0 stuck"),
            1);
    d.info("place", "placement succeeded", 2);
    d.warning("route", "escalated to 7 tracks");
    EXPECT_EQ(d.records().size(), 3u);
    EXPECT_EQ(d.count(Severity::kError), 1);
    EXPECT_EQ(d.count(Severity::kWarning), 1);
    EXPECT_EQ(d.count(Severity::kInfo), 1);

    const auto place = d.forStage("place");
    ASSERT_EQ(place.size(), 2u);
    EXPECT_EQ(place[0].severity, Severity::kError);
    EXPECT_EQ(place[0].attempt, 1);
    EXPECT_EQ(place[1].severity, Severity::kInfo);
    EXPECT_EQ(place[1].attempt, 2);

    const std::string text = d.toString();
    EXPECT_NE(text.find("place"), std::string::npos);
    EXPECT_NE(text.find("seed 0 stuck"), std::string::npos);
}

TEST(DiagnosticsTest, MergeTagsScope) {
    Diagnostics inner;
    inner.error("route", Status(ErrorCode::kRouteFailed, "net 3"));
    Diagnostics outer;
    outer.merge(inner, "camera/pe_base");
    ASSERT_EQ(outer.records().size(), 1u);
    EXPECT_EQ(outer.records()[0].scope, "camera/pe_base");
    EXPECT_EQ(outer.records()[0].stage, "route");
}

TEST(ReportTest, SummaryNamesStageCodeAndAttempts) {
    ExplorationReport report;
    report.evaluated = 5;
    report.skipped = 1;
    StageFailure f;
    f.app = "camera";
    f.variant = "pe4_camera";
    f.stage = "route";
    f.status = Status(ErrorCode::kRouteFailed, "congestion");
    f.attempts = 3;
    report.failures.push_back(f);

    EXPECT_FALSE(report.allOk());
    const std::string text = report.summary();
    EXPECT_NE(text.find("5 evaluated"), std::string::npos);
    EXPECT_NE(text.find("camera/pe4_camera"), std::string::npos);
    EXPECT_NE(text.find("stage 'route'"), std::string::npos);
    EXPECT_NE(text.find("RouteFailed"), std::string::npos);
    EXPECT_NE(text.find("3 attempts"), std::string::npos);
}

// --- Fault injector ---------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, DisarmedPassesEveryCall) {
    auto &inj = FaultInjector::instance();
    EXPECT_FALSE(inj.armed());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(inj.onCall(FaultStage::kRoute).ok());
    EXPECT_EQ(inj.callCount(FaultStage::kRoute), 3);
}

TEST_F(FaultInjectorTest, FailsTheNthCallWithStageNaturalCode) {
    auto &inj = FaultInjector::instance();
    inj.arm(FaultStage::kRoute, 2);
    EXPECT_TRUE(inj.onCall(FaultStage::kRoute).ok());
    const Status s = inj.onCall(FaultStage::kRoute);
    EXPECT_EQ(s.code(), ErrorCode::kRouteFailed);
    EXPECT_NE(s.message().find("injected fault"), std::string::npos);
    EXPECT_TRUE(inj.onCall(FaultStage::kRoute).ok());
    // Other stages are unaffected.
    EXPECT_TRUE(inj.onCall(FaultStage::kPlace).ok());
}

TEST_F(FaultInjectorTest, CountArmsAWindowOfCalls) {
    auto &inj = FaultInjector::instance();
    inj.arm(FaultStage::kPlace, 2, 2);
    EXPECT_TRUE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_FALSE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_FALSE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_TRUE(inj.onCall(FaultStage::kPlace).ok());
}

TEST_F(FaultInjectorTest, ConfigureParsesSpecStrings) {
    auto &inj = FaultInjector::instance();
    ASSERT_TRUE(inj.configure("place:1:2,mine:3").ok());
    EXPECT_TRUE(inj.armed());
    EXPECT_FALSE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_FALSE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_TRUE(inj.onCall(FaultStage::kPlace).ok());
    EXPECT_TRUE(inj.onCall(FaultStage::kMine).ok());
    EXPECT_TRUE(inj.onCall(FaultStage::kMine).ok());
    EXPECT_EQ(inj.onCall(FaultStage::kMine).code(),
              ErrorCode::kMiningFailed);
}

TEST_F(FaultInjectorTest, ConfigureRejectsBadSpecs) {
    auto &inj = FaultInjector::instance();
    EXPECT_FALSE(inj.configure("warp:1").ok());
    EXPECT_FALSE(inj.configure("route").ok());
    EXPECT_FALSE(inj.configure("route:0").ok());
    EXPECT_FALSE(inj.configure("route:x").ok());
    // A rejected spec must leave the injector disarmed.
    EXPECT_FALSE(inj.armed());
}

TEST_F(FaultInjectorTest, FaultScopeDisarmsOnExit) {
    auto &inj = FaultInjector::instance();
    {
        FaultScope scope(FaultStage::kMerge, 1);
        EXPECT_TRUE(inj.armed());
        EXPECT_EQ(checkFault(FaultStage::kMerge).code(),
                  ErrorCode::kMergeInfeasible);
    }
    EXPECT_FALSE(inj.armed());
    EXPECT_TRUE(checkFault(FaultStage::kMerge).ok());
}

TEST_F(FaultInjectorTest, StageNamesRoundTrip) {
    for (int i = 0; i < kNumFaultStages; ++i) {
        const auto stage = static_cast<FaultStage>(i);
        const auto back = faultStageFromName(faultStageName(stage));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, stage);
    }
    EXPECT_FALSE(faultStageFromName("bogus").has_value());
}

} // namespace
} // namespace apex
