#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "core/explorer.hpp"
#include "core/fault.hpp"
#include "ir/validate.hpp"
#include "model/tech.hpp"
#include "runtime/thread_pool.hpp"

namespace apex::core {
namespace {

const model::TechModel &tech = model::defaultTech();

TEST(ExplorerTest, AnalyzeProducesViableRankedPatterns) {
    Explorer ex;
    const auto app = apps::gaussianBlur(4);
    const auto patterns = ex.analyze(app.graph).value();
    ASSERT_FALSE(patterns.empty());
    for (const auto &p : patterns) {
        EXPECT_GE(p.core_size, 2);
        EXPECT_GE(p.mis_size, ex.options().min_mis);
        EXPECT_TRUE(ir::validate(p.pattern).ok());
        EXPECT_EQ(p.pattern.topoOrder().size(), p.pattern.size());
    }
    for (std::size_t i = 1; i < patterns.size(); ++i)
        EXPECT_GE(patterns[i - 1].mis_size, patterns[i].mis_size);
}

TEST(ExplorerTest, VariantRecipeShrinksWithSpecialization) {
    Explorer ex;
    const auto app = apps::cameraPipeline(1);

    const PeVariant base = ex.baselineVariant();
    const PeVariant pe1 = ex.subsetVariant(app);
    EXPECT_LT(pe1.spec.area(tech), base.spec.area(tech))
        << "PE 1 drops unused hardware";

    // Merging subgraphs grows the PE core itself...
    const PeVariant pe2 = ex.specializedVariant(app, 1).value();
    EXPECT_GE(pe2.spec.area(tech), pe1.spec.area(tech) * 0.9);
    EXPECT_FALSE(pe2.patterns.empty());
}

TEST(ExplorerTest, DomainVariantCoversAllApps) {
    Explorer ex;
    const auto ip = apps::ipApps();
    const PeVariant pe_ip = ex.domainVariant(ip, 1, "pe_ip").value();
    EXPECT_GE(pe_ip.patterns.size(), 2u)
        << "at least two distinct domain subgraphs expected";
    EXPECT_TRUE(pe_ip.spec.dp.validate());
}

TEST(EvaluateTest, PostMappingCameraSpecializationShape) {
    // Fig. 11 / Table 2 shape: specialization reduces #PEs and total
    // PE area and energy monotonically-ish from baseline to PE spec.
    Explorer ex;
    const auto app = apps::cameraPipeline(1);

    const auto base = evaluate(app, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto pe1 = evaluate(app, ex.subsetVariant(app),
                              EvalLevel::kPostMapping, tech);
    const auto spec =
        evaluate(app, bestSpecializedVariant(app, ex, tech).value(),
                 EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(pe1.success) << pe1.status.toString();
    ASSERT_TRUE(spec.success) << spec.status.toString();

    // PE 1: same PE count (same coverage), smaller area.
    EXPECT_EQ(pe1.pe_count, base.pe_count);
    EXPECT_LT(pe1.pe_area, base.pe_area);
    EXPECT_LT(pe1.pe_energy, base.pe_energy);

    // PE spec: fewer PEs and lower area/energy than baseline.
    EXPECT_LT(spec.pe_count, base.pe_count);
    EXPECT_LT(spec.pe_area, pe1.pe_area * 1.05);
    EXPECT_LT(spec.pe_energy, pe1.pe_energy);

    // Headline: large reduction vs baseline.  The paper reports up
    // to -78% area / -68% energy from gate-level synthesis; the
    // analytic cost model here reproduces the direction and a
    // substantial fraction of the magnitude (see EXPERIMENTS.md).
    EXPECT_LT(spec.pe_area, 0.65 * base.pe_area);
    EXPECT_LT(spec.pe_energy, 0.85 * base.pe_energy);
}

TEST(EvaluateTest, SpecSearchPicksTheSameVariantOnBothSchedules) {
    Explorer ex;
    const auto app = apps::cameraPipeline(1);
    runtime::ThreadPool pool(4);
    const PeVariant walked =
        bestSpecializedVariant(app, ex, tech).value();
    const PeVariant speculative =
        bestSpecializedVariant(app, ex, tech, &pool).value();
    EXPECT_EQ(walked.name, "pe_spec_camera");
    EXPECT_EQ(speculative.name, walked.name);
    // The cache key fingerprints the datapath and the patterns.
    EXPECT_EQ(evalCacheKey(app, speculative, EvalLevel::kPostMapping,
                           tech, {}),
              evalCacheKey(app, walked, EvalLevel::kPostMapping, tech,
                           {}));
}

TEST(EvaluateTest, SpecSearchReportsAFailedBuildOnBothSchedules) {
    // A candidate that cannot be built is an error, never PE 1 under
    // the PE Spec name.  With k <= 2 camera's stopping rule reaches
    // every candidate, so whichever speculative build draws the
    // fault, the in-order walk meets it.
    ExplorerOptions options;
    options.max_merged_subgraphs = 2;
    const Explorer ex(tech, options);
    const auto app = apps::cameraPipeline(1);
    runtime::ThreadPool pool(4);
    for (runtime::ThreadPool *lanes :
         std::initializer_list<runtime::ThreadPool *>{&pool, nullptr}) {
        FaultScope fault(FaultStage::kMine, 1);
        const auto spec = bestSpecializedVariant(app, ex, tech, lanes);
        ASSERT_FALSE(spec.ok()) << (lanes ? "pool" : "sequential");
        EXPECT_EQ(spec.status().code(), ErrorCode::kMiningFailed);
    }
}

TEST(EvaluateTest, PostPnrAddsInterconnect) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.sb_area, 0.0);
    EXPECT_GT(r.cb_area, 0.0);
    EXPECT_GT(r.mem_area, 0.0);
    EXPECT_GT(r.cgra_area, r.pe_area);
    EXPECT_GT(r.cgra_energy, r.pe_energy);
    EXPECT_EQ(r.util.pes, r.pe_count);
}

TEST(EvaluateTest, PostPipeliningImprovesPerformance) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const PeVariant spec_variant =
        ex.specializedVariant(app, ex.options().max_merged_subgraphs)
            .value();

    const auto pnr = evaluate(app, spec_variant,
                              EvalLevel::kPostPnr, tech);
    const auto piped = evaluate(app, spec_variant,
                                EvalLevel::kPostPipelining, tech);
    ASSERT_TRUE(pnr.success) << pnr.status.toString();
    ASSERT_TRUE(piped.success) << piped.status.toString();

    // Fig. 16 shape: pipelining cuts the clock period (the merged
    // datapath is deep), at some register/RF cost.
    EXPECT_LT(piped.period_ns, pnr.period_ns);
    EXPECT_GT(piped.pipeline_stages, 0);
    EXPECT_GT(piped.frames_per_ms_mm2, 0.0);
    EXPECT_LE(piped.period_ns, tech.target_period + 0.35);
}

TEST(EvaluateTest, DomainPeBeatsBaselineOnUnseenApps) {
    // Fig. 13 shape: PE IP, built WITHOUT seeing laplacian, still
    // beats the baseline on it.
    Explorer ex;
    const PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();
    const auto unseen = apps::laplacianPyramid(1);

    const auto base = evaluate(unseen, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto ip = evaluate(unseen, pe_ip,
                             EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(ip.success) << ip.status.toString();
    EXPECT_LT(ip.pe_area, base.pe_area);
    EXPECT_LT(ip.pe_energy, base.pe_energy);
}

TEST(EvaluateTest, MlPeOnMlApps) {
    Explorer ex;
    const PeVariant pe_ml =
        ex.domainVariant(apps::mlApps(), 1, "pe_ml").value();
    const auto app = apps::mobilenetLayer(2);

    const auto base = evaluate(app, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto ml = evaluate(app, pe_ml, EvalLevel::kPostMapping,
                             tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(ml.success) << ml.status.toString();
    EXPECT_LT(ml.pe_count, base.pe_count);
    EXPECT_LT(ml.pe_area, base.pe_area);
}

TEST(EvaluateTest, ReportsFailureForUndersizedFabric) {
    Explorer ex;
    const auto app = apps::cameraPipeline(2);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 2;
    options.auto_grow_fabric = false;
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.status.ok());
}

TEST(EvaluateTest, AutoGrowRecoversFromSmallFabric) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 2;
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.fabric_width * r.fabric_height, 8);
}


/** An EvalResult with every one of the record's 31 fields set. */
EvalResult
fullyPopulatedResult()
{
    EvalResult r;
    r.success = true;
    r.pnr_attempts = 4;
    r.degraded = true;
    r.pe_count = 57;
    r.pe_area = 1234.5;
    r.pe_energy = 0.1;
    r.fabric_width = 64;
    r.fabric_height = 32;
    r.sb_area = 225000.0;
    r.cb_area = 3.0 / 7.0;
    r.mem_area = 4096.0;
    r.cgra_area = 987654.321;
    r.sb_energy = 2.5e-3;
    r.cb_energy = 1.0 / 3.0;
    r.mem_energy = 7.75;
    r.cgra_energy = 12.0625;
    r.util.pes = 57;
    r.util.mems = 6;
    r.util.rf_entries = 12;
    r.util.ios = 8;
    r.util.regs = 31;
    r.util.routing_tiles = 19;
    r.util.sb_hops = 240;
    r.pipeline_stages = 3;
    r.period_ns = 1.125;
    r.latency_cycles = 17;
    r.runtime_ms = 0.3;
    r.perf_per_mm2 = 6.02e23;
    r.frames_per_ms_mm2 = 1e-9;
    r.total_energy_uj = 42.0;
    r.raw_compute_energy_uj = 0.0078125;
    r.op_events = 1048576.0;
    return r;
}

// The artifact cache and the journal store these bytes, so they are
// pinned: a change here orphans every cached and journaled result.
TEST(EvalResultCodec, PinsTheRecordBytesAndRejectsMalformedFields) {
    const std::string bytes = serializeEvalResult(fullyPopulatedResult());
    EXPECT_EQ(bytes, "apexeval 2\n"
                     "pnr_attempts 4\n"
                     "degraded 1\n"
                     "pe_count 57\n"
                     "pe_area 0x1.34ap+10\n"
                     "pe_energy 0x1.999999999999ap-4\n"
                     "fabric_width 64\n"
                     "fabric_height 32\n"
                     "sb_area 0x1.b774p+17\n"
                     "cb_area 0x1.b6db6db6db6dbp-2\n"
                     "mem_area 0x1p+12\n"
                     "cgra_area 0x1.e240ca45a1cacp+19\n"
                     "sb_energy 0x1.47ae147ae147bp-9\n"
                     "cb_energy 0x1.5555555555555p-2\n"
                     "mem_energy 0x1.fp+2\n"
                     "cgra_energy 0x1.82p+3\n"
                     "util_pes 57\n"
                     "util_mems 6\n"
                     "util_rf_entries 12\n"
                     "util_ios 8\n"
                     "util_regs 31\n"
                     "util_routing_tiles 19\n"
                     "util_sb_hops 240\n"
                     "pipeline_stages 3\n"
                     "period_ns 0x1.2p+0\n"
                     "latency_cycles 0x1.1p+4\n"
                     "runtime_ms 0x1.3333333333333p-2\n"
                     "perf_per_mm2 0x1.fde9f10a8d361p+78\n"
                     "frames_per_ms_mm2 0x1.12e0be826d695p-30\n"
                     "total_energy_uj 0x1.5p+5\n"
                     "raw_compute_energy_uj 0x1p-7\n"
                     "op_events 0x1p+20\n");
    Result<EvalResult> back = parseEvalResult(bytes);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(serializeEvalResult(back.value()), bytes);

    // Each field exactly once: a repeated field does not stand in for
    // a missing one.
    std::string repeated = bytes;
    const std::size_t area = repeated.find("pe_area");
    repeated.replace(area, repeated.find('\n', area) - area,
                     "pe_count 7");
    EXPECT_FALSE(parseEvalResult(repeated).ok());

    // Each number is a whole token.
    std::string partial = bytes;
    partial.replace(partial.find("pnr_attempts 4"), 14,
                    "pnr_attempts 9x");
    EXPECT_FALSE(parseEvalResult(partial).ok());

    // Fields in record order, and nothing after the last one.
    std::string swapped = bytes;
    const std::string in_order = "fabric_width 64\nfabric_height 32\n";
    swapped.replace(swapped.find(in_order), in_order.size(),
                    "fabric_height 32\nfabric_width 64\n");
    EXPECT_FALSE(parseEvalResult(swapped).ok());
    EXPECT_FALSE(parseEvalResult(bytes + "op_events 0x1p+20\n").ok());
}

} // namespace
} // namespace apex::core
