/**
 * Micro-benchmarks (google-benchmark) for the algorithmic cores of
 * the framework: frequent-subgraph mining, maximum-weight clique,
 * datapath merging, rewrite-rule synthesis, instruction selection,
 * placement and routing.  The paper's headline process claim is that
 * the whole APEX flow runs "in minutes" vs hours for prior work —
 * these benches document where the time goes in this implementation.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "apps/apps.hpp"
#include "bench/common.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "core/evaluate.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "merging/clique.hpp"
#include "merging/merge.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"
#include "model/tech.hpp"
#include "oracles/oracles.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"

namespace {

using namespace apex;

void
BM_MineGaussian(benchmark::State &state)
{
    const auto app = apps::gaussianBlur(
        static_cast<int>(state.range(0)));
    mining::FrequentSubgraphMiner miner(
        {.min_support = 3, .max_pattern_nodes = 4});
    for (auto _ : state) {
        auto patterns = miner.mine(app.graph);
        benchmark::DoNotOptimize(patterns);
    }
    state.SetLabel(std::to_string(app.graph.size()) + " nodes");
}
BENCHMARK(BM_MineGaussian)->Arg(1)->Arg(2)->Arg(4);

void
BM_MineCamera(benchmark::State &state)
{
    const auto app = apps::cameraPipeline(1);
    mining::FrequentSubgraphMiner miner(
        {.min_support = 3, .max_pattern_nodes = 4});
    for (auto _ : state) {
        auto patterns = miner.mine(app.graph);
        benchmark::DoNotOptimize(patterns);
    }
}
BENCHMARK(BM_MineCamera);

void
BM_MaxWeightClique(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    merging::CliqueProblem pb;
    pb.n = n;
    pb.adj.assign(n, std::vector<bool>(n, false));
    std::uint32_t lcg = 12345;
    for (int i = 0; i < n; ++i) {
        pb.weight.push_back(1.0 + (i % 7));
        for (int j = i + 1; j < n; ++j) {
            lcg = lcg * 1664525u + 1013904223u;
            if ((lcg >> 16) % 100 < 55)
                pb.adj[i][j] = pb.adj[j][i] = true;
        }
    }
    for (auto _ : state) {
        auto result = merging::maxWeightClique(pb, 500000);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_MaxWeightClique)->Arg(40)->Arg(80)->Arg(160);

void
BM_MergeDatapaths(benchmark::State &state)
{
    core::Explorer ex;
    const auto app = apps::harrisCorner(1);
    const auto patterns = ex.analyze(app).value().patterns;
    std::vector<ir::Graph> graphs;
    for (std::size_t i = 0;
         i < std::min<std::size_t>(4, patterns.size()); ++i)
        graphs.push_back(patterns[i].pattern);
    const auto &tech = model::defaultTech();
    for (auto _ : state) {
        auto merged = merging::mergePatterns(graphs, tech);
        benchmark::DoNotOptimize(merged);
    }
}
BENCHMARK(BM_MergeDatapaths);

void
BM_RewriteRuleLibrary(benchmark::State &state)
{
    const pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    for (auto _ : state) {
        auto rules = synth.synthesizeLibrary({});
        benchmark::DoNotOptimize(rules);
    }
}
BENCHMARK(BM_RewriteRuleLibrary);

void
BM_InstructionSelectCamera(benchmark::State &state)
{
    const auto app = apps::cameraPipeline(1);
    const pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(synth.synthesizeLibrary({}));
    for (auto _ : state) {
        auto result = selector.map(app.graph);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InstructionSelectCamera);

void
BM_PlaceAndRouteCamera(benchmark::State &state)
{
    const auto app = apps::cameraPipeline(2);
    const pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(synth.synthesizeLibrary({}));
    const auto sel = selector.map(app.graph);
    const cgra::Fabric fabric(32, 16);
    for (auto _ : state) {
        auto placement = cgra::place(fabric, sel.mapped);
        auto routing = cgra::route(fabric, placement);
        benchmark::DoNotOptimize(routing);
    }
}
BENCHMARK(BM_PlaceAndRouteCamera);

void
BM_FullFlowGaussian(benchmark::State &state)
{
    core::Explorer ex;
    const auto app = apps::gaussianBlur(4);
    const auto variant =
        ex.specializedVariant(ex.analyze(app).value(),
                              ex.options().max_merged_subgraphs)
            .value();
    const auto &tech = model::defaultTech();
    for (auto _ : state) {
        auto r = core::evaluate(app, variant,
                                core::EvalLevel::kPostPipelining,
                                tech);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FullFlowGaussian);

// ---------------------------------------------------------------------
// `--kernels`: deterministic scaling rows for the combinatorial
// kernels, one JSON object per line.  Instances are seeded, weights
// live on an integer grid and node counts are branch-deterministic,
// so the numbers are byte-stable across machines — the CI perf-smoke
// job diffs them against the checked-in BENCH_kernels.json baseline.

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The BM_MaxWeightClique instance family (same LCG, same density). */
merging::CliqueProblem
kernelCliqueInstance(int n)
{
    merging::CliqueProblem pb;
    pb.n = n;
    pb.adj.assign(n, std::vector<bool>(n, false));
    std::uint32_t lcg = 12345;
    for (int i = 0; i < n; ++i) {
        pb.weight.push_back(1.0 + (i % 7));
        for (int j = i + 1; j < n; ++j) {
            lcg = lcg * 1664525u + 1013904223u;
            if ((lcg >> 16) % 100 < 55)
                pb.adj[i][j] = pb.adj[j][i] = true;
        }
    }
    return pb;
}

/** n occurrences of up to four nodes drawn from [0, universe)
 * (default n). */
std::vector<std::vector<ir::NodeId>>
kernelOccurrences(int n, int universe = 0)
{
    if (universe <= 0)
        universe = n;
    std::uint32_t lcg = 777;
    std::vector<std::vector<ir::NodeId>> occ(n);
    for (int i = 0; i < n; ++i) {
        for (int k = 0; k < 4; ++k) {
            lcg = lcg * 1664525u + 1013904223u;
            occ[i].push_back(
                static_cast<ir::NodeId>((lcg >> 16) % universe));
        }
        std::sort(occ[i].begin(), occ[i].end());
        occ[i].erase(std::unique(occ[i].begin(), occ[i].end()),
                     occ[i].end());
    }
    return occ;
}

/** kernelOccurrences(n, universe) with every occurrence also
 * holding one of @p hubs hub nodes: each hub's bucket is a clique of
 * n/hubs occurrences, the dense regime an app-wide shared constant
 * produces.  One hub makes the overlap graph complete. */
std::vector<std::vector<ir::NodeId>>
kernelHubOccurrences(int n, int hubs, int universe = 0)
{
    auto occ = kernelOccurrences(n, universe);
    for (int i = 0; i < n; ++i) {
        for (ir::NodeId &node : occ[i])
            node += static_cast<ir::NodeId>(hubs);
        occ[i].insert(occ[i].begin(),
                      static_cast<ir::NodeId>(i % hubs));
    }
    return occ;
}

ir::Graph
kernelIsoTarget(int ops)
{
    std::uint32_t lcg = 4242;
    ir::GraphBuilder b;
    std::vector<ir::Value> pool;
    for (int i = 0; i < 4; ++i)
        pool.push_back(b.input());
    pool.push_back(b.constant(3));
    for (int i = 0; i < ops; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ir::Value x = pool[(lcg >> 16) % pool.size()];
        lcg = lcg * 1664525u + 1013904223u;
        const ir::Value y = pool[(lcg >> 16) % pool.size()];
        lcg = lcg * 1664525u + 1013904223u;
        switch ((lcg >> 16) % 3) {
        case 0: pool.push_back(b.add(x, y)); break;
        case 1: pool.push_back(b.mul(x, y)); break;
        default: pool.push_back(b.sub(x, y)); break;
        }
    }
    b.output(pool.back());
    return b.take();
}

int
runKernelRows()
{
    // Clique: bitset BBMC with the coloring bound vs the historic
    // weight-sum bound (reference solver).  `nodes` is the telemetry
    // counter apex.clique.nodes for this row; the >= 5x node
    // reduction is the headline claim checked by CI.
    for (int n : {40, 80, 160, 240}) {
        const auto pb = kernelCliqueInstance(n);
        bench::StageSnapshot stages;
        auto t0 = std::chrono::steady_clock::now();
        const auto got = merging::maxWeightClique(pb, 500000);
        const double ms = wallMs(t0);
        t0 = std::chrono::steady_clock::now();
        const auto weak = merging::maxWeightCliqueReference(
            pb, 2'000'000, {}, merging::CliqueBound::kWeightSum);
        const double ms_ref = wallMs(t0);
        const double ratio =
            got.nodes > 0 ? static_cast<double>(weak.nodes) /
                                static_cast<double>(got.nodes)
                          : 0.0;
        std::printf("{\"kernel\":\"clique\",\"n\":%d,"
                    "\"nodes\":%lld,\"nodes_weak\":%lld,"
                    "\"ratio\":%.2f,\"weight\":%.1f,"
                    "\"match\":%s,\"ms\":%.2f,\"ms_ref\":%.2f,%s}\n",
                    n, static_cast<long long>(got.nodes),
                    static_cast<long long>(weak.nodes), ratio,
                    got.weight,
                    (!got.optimal || !weak.optimal ||
                     got.vertices == weak.vertices)
                        ? "true"
                        : "false",
                    ms, ms_ref, stages.jsonFragment().c_str());
    }

    // MIS: bucket-built bitset overlap rows + bucket greedy / bitset
    // exact vs the all-pairs + scanning reference, on sparse random
    // occurrences (`mis`), on two-hub ones whose overlap graph is
    // two big cliques (`mis_dense`), and on one-hub ones over 33
    // nodes, fast's largest patterns, whose overlap graph is complete
    // (`mis_complete`: solved without a matrix).  MIS has no
    // deterministic work counter, so CI gates the dense and complete
    // rows' ms_ref/ms ratios.
    const auto misRow = [](const char *kernel, int n,
                           const std::vector<std::vector<ir::NodeId>>
                               &occ) {
        bench::StageSnapshot stages;
        auto t0 = std::chrono::steady_clock::now();
        const auto got = mining::maximalIndependentSet(occ);
        const double ms = wallMs(t0);
        t0 = std::chrono::steady_clock::now();
        const auto ref = mining::maximalIndependentSetReference(occ);
        const double ms_ref = wallMs(t0);
        std::printf("{\"kernel\":\"%s\",\"n\":%d,\"size\":%d,"
                    "\"match\":%s,\"ms\":%.2f,\"ms_ref\":%.2f,%s}\n",
                    kernel, n, got.size,
                    got.chosen == ref.chosen ? "true" : "false", ms,
                    ms_ref, stages.jsonFragment().c_str());
    };
    for (int n : {26, 200, 800, 2000})
        misRow("mis", n, kernelOccurrences(n));
    for (int n : {1000, 4000})
        misRow("mis_dense", n, kernelHubOccurrences(n, 2));
    misRow("mis_complete", 4800, kernelHubOccurrences(4800, 1, 32));

    // Isomorphism: label-indexed matcher vs whole-graph-scan
    // reference, multiply-accumulate pattern.
    ir::GraphBuilder bp;
    bp.add(bp.mul(bp.input(), bp.input()), bp.input());
    const ir::Graph pattern = bp.take();
    for (int ops : {200, 800, 3200}) {
        const ir::Graph target = kernelIsoTarget(ops);
        bench::StageSnapshot stages;
        auto t0 = std::chrono::steady_clock::now();
        const auto got = mining::findEmbeddings(pattern, target);
        const double ms = wallMs(t0);
        t0 = std::chrono::steady_clock::now();
        const auto ref =
            mining::findEmbeddingsReference(pattern, target);
        const double ms_ref = wallMs(t0);
        bool match = got.size() == ref.size();
        for (std::size_t i = 0; match && i < got.size(); ++i)
            match = got[i].map == ref[i].map;
        std::printf("{\"kernel\":\"iso\",\"n\":%d,"
                    "\"embeddings\":%zu,\"match\":%s,"
                    "\"ms\":%.2f,\"ms_ref\":%.2f,%s}\n",
                    ops, got.size(), match ? "true" : "false", ms,
                    ms_ref, stages.jsonFragment().c_str());
    }

    // Rewrite-rule validation: the lowered validator vs the historic
    // per-assignment loop, over every rule of the PE Base library and
    // of each analyzed app's PE k library (stage_ms.rewrite is the
    // library's synthesis).  `rules` is deterministic, so CI diffs it
    // against the baseline and gates the PE Base row's ms_ref/ms.
    const core::Explorer explorer;
    const auto rewriteRow = [](const core::PeVariant &v) {
        bench::StageSnapshot stages;
        const auto rules = mapper::RewriteRuleSynthesizer(v.spec)
                               .synthesizeLibrary(v.patterns);
        // Best of three: the PE Base library validates in about a
        // millisecond, where one scheduler hiccup skews a ratio.
        double ms = 1e300, ms_ref = 1e300;
        bool match = true;
        for (int rep = 0; rep < 3; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            for (const auto &rule : rules)
                match &= mapper::validateRule(v.spec, rule);
            ms = std::min(ms, wallMs(t0));
            t0 = std::chrono::steady_clock::now();
            for (const auto &rule : rules)
                match &= mapper::validateRuleReference(v.spec, rule);
            ms_ref = std::min(ms_ref, wallMs(t0));
        }
        std::printf("{\"kernel\":\"rewrite\",\"pe\":\"%s\","
                    "\"rules\":%zu,\"match\":%s,\"ms\":%.2f,"
                    "\"ms_ref\":%.2f,%s}\n",
                    v.name.c_str(), rules.size(),
                    match ? "true" : "false", ms, ms_ref,
                    stages.jsonFragment().c_str());
    };
    rewriteRow(explorer.baselineVariant());
    const auto analyses = explorer.analyze(apps::analyzedApps());
    if (!analyses.ok()) {
        std::fprintf(stderr, "%s\n",
                     analyses.status().toString().c_str());
        return 1;
    }
    for (const core::AppAnalysis &analysis : *analyses) {
        auto v = explorer.specializedVariant(
            analysis, explorer.options().max_merged_subgraphs);
        if (!v.ok()) {
            std::fprintf(stderr, "%s: %s\n", analysis.app.c_str(),
                         v.status().toString().c_str());
            return 1;
        }
        rewriteRow(v.value());
    }

    // Placement: the integer-delta annealer vs the historic loop, on
    // each analyzed app's PE Base netlist after pipelining, placed as
    // core::evaluate's first attempt does (default seed, first fabric
    // of its growth ladder with room).  `moves` and `wirelength` are
    // deterministic, so CI diffs them against the baseline and gates
    // the largest row's ms_ref/ms.
    const core::PeVariant base = explorer.baselineVariant();
    const mapper::InstructionSelector base_selector(
        mapper::RewriteRuleSynthesizer(base.spec)
            .synthesizeLibrary(base.patterns));
    pe::PeSpec piped = base.spec;
    pipeline::pipelinePe(piped, model::defaultTech());
    const core::EvalOptions eval;
    cgra::PlacerOptions popt;
    popt.seed = eval.placer_seed;
    for (const auto &app : apps::analyzedApps()) {
        auto sel = base_selector.map(app.graph);
        if (!sel.success) {
            std::fprintf(stderr, "%s: %s\n", app.name.c_str(),
                         sel.status.toString().c_str());
            return 1;
        }
        pipeline::pipelineApplication(&sel.mapped,
                                      piped.pipeline_stages, {});
        int width = eval.fabric_width, height = eval.fabric_height;
        for (int growth = 1;
             cgra::place(cgra::Fabric(width, height), sel.mapped, popt)
                 .status.code() == ErrorCode::kBudgetExhausted;
             ++growth)
            (growth % 2 == 1 ? height : width) *= 2;
        const cgra::Fabric fabric(width, height);
        bench::StageSnapshot stages;
        double ms = 1e300, ms_ref = 1e300;
        cgra::PlacementResult got, ref;
        for (int rep = 0; rep < 3; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            got = cgra::placeHetero(fabric, sel.mapped, {}, 1, popt);
            ms = std::min(ms, wallMs(t0));
            t0 = std::chrono::steady_clock::now();
            ref = cgra::placeHeteroReference(fabric, sel.mapped, {}, 1,
                                             popt);
            ms_ref = std::min(ms_ref, wallMs(t0));
        }
        bool match = got.success == ref.success && got.loc == ref.loc &&
                     got.edges.size() == ref.edges.size() &&
                     std::memcmp(&got.wirelength, &ref.wirelength,
                                 sizeof got.wirelength) == 0;
        for (std::size_t e = 0; match && e < got.edges.size(); ++e)
            match = got.edges[e].src == ref.edges[e].src &&
                    got.edges[e].dst == ref.edges[e].dst &&
                    got.edges[e].regs == ref.edges[e].regs;
        int placeable = 0;
        for (const auto &n : sel.mapped.nodes)
            placeable += cgra::isPlaceable(n.kind);
        std::printf("{\"kernel\":\"place\",\"app\":\"%s\","
                    "\"fabric\":\"%dx%d\",\"placeable\":%d,"
                    "\"moves\":%d,\"wirelength\":%.0f,\"match\":%s,"
                    "\"ms\":%.2f,\"ms_ref\":%.2f,%s}\n",
                    app.name.c_str(), width, height, placeable,
                    placeable * popt.moves_per_node, got.wirelength,
                    match ? "true" : "false", ms, ms_ref,
                    stages.jsonFragment().c_str());
    }
    return 0;
}

// ---------------------------------------------------------------------
// `--miner`: the DFS-code engine vs the reference growth miner over
// every paper app, one JSON row per app.  Every counter field is
// deterministic for the (app, options) pair — candidate enumeration
// order is fixed and the engines are byte-identical by contract — so
// CI diffs the rows against BENCH_miner.json and gates both
// `match:true` (pattern lists identical) and the >= 3x reduction in
// full isomorphism-matcher invocations (`iso_calls` vs
// `iso_calls_ref`), the headline claim of the incremental-embedding
// rework.  Only `ms` / `ms_ref` vary across machines.

bool
minedListsIdentical(const std::vector<mining::MinedPattern> &a,
                    const std::vector<mining::MinedPattern> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].code != b[i].code ||
            a[i].frequency != b[i].frequency ||
            a[i].mni_support != b[i].mni_support ||
            a[i].occurrences != b[i].occurrences ||
            ir::serialize(a[i].pattern) != ir::serialize(b[i].pattern))
            return false;
    }
    return true;
}

int
runMinerRows()
{
    mining::MinerOptions opt;
    opt.min_support = 3;
    opt.max_pattern_nodes = 4;
    for (const auto &info : apps::allApps()) {
        mining::MineStats st, st_ref;
        const mining::FrequentSubgraphMiner miner(opt);
        auto t0 = std::chrono::steady_clock::now();
        const auto got = miner.mine(info.graph, &st);
        const double ms = wallMs(t0);
        t0 = std::chrono::steady_clock::now();
        const auto ref =
            mining::minePatternsReference(info.graph, opt, &st_ref);
        const double ms_ref = wallMs(t0);
        std::printf(
            "{\"kernel\":\"miner\",\"app\":\"%s\",\"n\":%zu,"
            "\"patterns\":%lld,\"candidates\":%lld,"
            "\"embeddings\":%lld,\"iso_calls\":%lld,"
            "\"iso_calls_ref\":%lld,\"match\":%s,"
            "\"ms\":%.2f,\"ms_ref\":%.2f}\n",
            info.name.c_str(), info.graph.size(), st.patterns,
            st.candidates, st.embeddings, st.matcher_calls,
            st_ref.matcher_calls,
            minedListsIdentical(got, ref) ? "true" : "false", ms,
            ms_ref);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--kernels") == 0)
            return runKernelRows();
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--miner") == 0)
            return runMinerRows();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
