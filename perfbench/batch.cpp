/**
 * analyzed-cold: core::runSweep over the six analyzed applications x
 * three recipe variants at the post-pipelining level, jobs=4, with a
 * fresh ArtifactCache for every sweep, so every evaluate() misses.
 */
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>

#include "cgra/fabric.hpp"
#include "cgra/metrics.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "core/evaluate.hpp"
#include "core/explorer.hpp"
#include "harness.hpp"
#include "ir/validate.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "merging/merge.hpp"
#include "mining/miner.hpp"
#include "model/hw_block.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "pipeline/timing.hpp"
#include "runtime/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace apex;

constexpr core::EvalLevel kLevel = core::EvalLevel::kPostPipelining;
constexpr int kJobs = 4;
/** The p90 rule needs 100 samples; a run measures at least this many
 * sweeps even when --seconds has already passed. */
constexpr std::size_t kMinSweeps = 100;
/** Hard stop for the measuring loop, keeping a run under 180 s. */
constexpr double kMeasureCapMs = 120e3;
/** Set-up is repeated this often; setup_s is the median. */
constexpr int kSetups = 11;

/** Everything set-up builds: the inputs and the explorer. */
struct BatchState {
    std::vector<apps::AppInfo> apps;
    std::unique_ptr<core::Explorer> explorer;
};

core::SweepOptions
sweepOptions(int jobs, runtime::ArtifactCache *cache)
{
    core::SweepOptions o;
    o.level = kLevel;
    o.jobs = jobs;
    o.cache = cache;
    return o;
}

/** Build the inputs and prove the program against the reference with
 * one sweep as measured.  (With a jobs=1 sweep here, setup_s spread by
 * 0.44 over ten runs on a shared 4-vCPU host, while the same runs'
 * jobs=4 sweeps spread by 0.04.) */
bool
setUp(const Reference &ref, BatchState *s, std::string *why)
{
    s->apps = apps::analyzedApps();
    s->explorer = std::make_unique<core::Explorer>(model::defaultTech());
    runtime::ArtifactCache cache;
    const auto out = core::runSweep(s->apps, *s->explorer,
                                    model::defaultTech(),
                                    sweepOptions(kJobs, &cache));
    *why = checkAgainst(out.entries, out.report, ref);
    return why->empty();
}

// ---------------------------------------------------------------------
// Traced replay: the sweep one cell at a time through public entry
// points, each call inside a driver span named "<layer>.<stage>".
// ---------------------------------------------------------------------

/** Layer-level tallies of one traced pass that are not span times. */
struct PassTallies {
    long rules = 0;          ///< Rules synthesized, over all calls.
    long pe_count = 0;       ///< PEs instantiated, over all cells.
    long rewrite_calls = 0;  ///< synthesizeLibrary calls.
    /** Inputs of those calls; valid only while the pass runs. */
    std::vector<const core::PeVariant *> rewritten;
};

/** Explorer's viability filter for mined patterns (explorer.cpp). */
bool
mergeable(const mining::MinedPattern &p)
{
    int sinks = 0;
    int compute = 0;
    std::vector<bool> has_consumer(p.pattern.size(), false);
    for (const ir::Edge &e : p.pattern.edges())
        has_consumer[e.src] = true;
    for (ir::NodeId id = 0; id < p.pattern.size(); ++id) {
        if (ir::opIsCompute(p.pattern.op(id))) {
            ++compute;
            if (!has_consumer[id])
                ++sinks;
        }
    }
    return sinks == 1 && compute >= 2;
}

/** Explorer::trySpecializedVariant, one layer call per span. */
core::PeVariant
tracedSpecialized(const apps::AppInfo &app, const core::Explorer &explorer,
                  SpanRecorder &rec)
{
    const core::ExplorerOptions &xo = explorer.options();
    const int k = xo.max_merged_subgraphs;
    core::PeVariant v;
    v.name = "pe" + std::to_string(k + 1) + "_" + app.name;
    const pe::PeSpec seed =
        pe::baselineSubsetPe(pe::opsUsedBy(app.graph), v.name);
    std::vector<mining::MinedPattern> mined;
    {
        ScopedSpan span(rec, "mining.mine");
        mining::FrequentSubgraphMiner miner(xo.miner);
        mined = miner.mine(app.graph);
    }
    {
        ScopedSpan span(rec, "mining.rank");
        mining::rankPatterns(mined);
    }
    std::erase_if(mined, [&](const mining::MinedPattern &p) {
        return !mergeable(p) || p.mis_size < xo.min_mis;
    });
    for (const auto &p : mined) {
        if (static_cast<int>(v.patterns.size()) >= k)
            break;
        v.patterns.push_back(p.pattern);
    }
    merging::MultiMergeResult mm;
    {
        ScopedSpan span(rec, "merging.merge");
        mm = merging::mergeIntoDatapath(seed.dp, v.patterns,
                                        explorer.tech(), nullptr,
                                        xo.merge);
    }
    v.non_optimal_merges = mm.non_optimal_cliques;
    v.spec = pe::makePeSpec(mm.merged, v.name, seed.has_register_file);
    return v;
}

/** core::evaluate at the post-pipelining level, with the default
 * evaluation knobs a sweep uses, one layer call per span. */
core::EvalResult
tracedEvaluate(const apps::AppInfo &app, const core::PeVariant &variant,
               runtime::ArtifactCache &cache, SpanRecorder &rec,
               PassTallies *tallies)
{
    using mapper::MappedKind;
    const model::TechModel &tech = model::defaultTech();
    const core::EvalOptions opts;
    ScopedSpan eval_span(rec, "core.evaluate");
    core::EvalResult r;
    {
        ScopedSpan span(rec, "core.validate");
        if (Status s = ir::validate(app.graph); !s.ok()) {
            r.status = s;
            return r;
        }
    }
    std::string key;
    {
        ScopedSpan span(rec, "core.cache_key");
        key = core::evalCacheKey(app, variant, kLevel, tech, opts);
    }
    std::optional<std::string> hit;
    {
        ScopedSpan span(rec, "runtime.cache_get");
        hit = cache.get(key);
    }
    if (hit) {
        ScopedSpan span(rec, "core.parse");
        if (Result<core::EvalResult> cached = core::parseEvalResult(*hit);
            cached.ok())
            return std::move(cached).value();
    }

    pe::PeSpec spec = variant.spec;
    std::vector<mapper::RewriteRule> rules;
    {
        ScopedSpan span(rec, "mapper.rewrite");
        mapper::RewriteRuleSynthesizer synth(spec);
        rules = synth.synthesizeLibrary(variant.patterns);
    }
    tallies->rules += static_cast<long>(rules.size());
    ++tallies->rewrite_calls;
    tallies->rewritten.push_back(&variant);
    mapper::SelectionResult sel;
    {
        ScopedSpan span(rec, "mapper.select");
        mapper::InstructionSelector selector(rules);
        sel = selector.map(app.graph);
    }
    if (!sel.success) {
        r.status = Status(ErrorCode::kMappingFailed, sel.error);
        return r;
    }

    r.pe_count = sel.peCount();
    tallies->pe_count += r.pe_count;
    r.pe_area = spec.area(tech) * r.pe_count;
    const double invocations_per_item = 1.0 / app.items_per_cycle;
    double pe_energy_per_cycle = 0.0;
    for (const mapper::MappedNode &n : sel.mapped.nodes)
        if (n.kind == MappedKind::kPe)
            pe_energy_per_cycle +=
                core::peInstanceEnergy(rules[n.rule], spec, tech);
    r.pe_energy = pe_energy_per_cycle * invocations_per_item;
    double raw_per_cycle = 0.0;
    int compute_nodes = 0;
    for (ir::NodeId id = 0; id < app.graph.size(); ++id) {
        const ir::Op op = app.graph.op(id);
        if (!ir::opIsCompute(op))
            continue;
        ++compute_nodes;
        raw_per_cycle +=
            model::blockCost(tech, model::blockClassOf(op)).energy;
    }
    const double frames_invocations =
        app.work_items_per_frame / app.items_per_cycle;
    r.raw_compute_energy_uj = raw_per_cycle * frames_invocations * 1e-6;
    r.op_events = static_cast<double>(compute_nodes) * frames_invocations;

    {
        ScopedSpan span(rec, "pipeline.timing");
        r.period_ns = pipeline::analyzeTiming(spec, tech).critical_path;
    }
    {
        ScopedSpan span(rec, "pipeline.pe");
        const auto pe_pipe = pipeline::pipelinePe(spec, tech);
        r.pipeline_stages = spec.pipeline_stages;
        r.period_ns = pe_pipe.period;
    }
    {
        ScopedSpan span(rec, "pipeline.app");
        const auto app_pipe = pipeline::pipelineApplication(
            &sel.mapped, spec.pipeline_stages, {});
        r.latency_cycles = app_pipe.max_latency;
    }

    // evaluate()'s resilience ladder: seed retries, then track
    // escalations, then fabric growth.  No deadline is set.
    int width = opts.fabric_width;
    int height = opts.fabric_height;
    cgra::PlacementResult placement;
    cgra::RouteResult routing;
    bool pnr_ok = false;
    const int growths =
        opts.auto_grow_fabric ? std::max(1, opts.max_fabric_growths) : 1;
    const int seed_tries = std::max(1, opts.place_retries);
    const int escalations = std::max(0, opts.route_track_escalations);
    const cgra::RouterOptions base_ropt;
    for (int growth = 0; growth < growths && !pnr_ok; ++growth) {
        if (growth > 0) {
            if (growth % 2 == 1)
                height *= 2;
            else
                width *= 2;
        }
        const cgra::Fabric fabric(width, height);
        for (int retry = 0; retry < seed_tries && !pnr_ok; ++retry) {
            cgra::PlacerOptions popt;
            popt.seed =
                opts.placer_seed + 0x9E3779B9u * static_cast<unsigned>(retry);
            ++r.pnr_attempts;
            {
                ScopedSpan span(rec, "cgra.place");
                placement = cgra::place(fabric, sel.mapped, popt);
            }
            if (!placement.success) {
                if (placement.status.code() ==
                    ErrorCode::kBudgetExhausted)
                    break;
                continue;
            }
            for (int esc = 0; esc <= escalations; ++esc) {
                cgra::RouterOptions ropt = base_ropt;
                ropt.tracks = base_ropt.tracks + 2 * esc;
                ScopedSpan span(rec, "cgra.route");
                routing = cgra::route(fabric, placement, ropt);
                if (routing.success) {
                    pnr_ok = true;
                    break;
                }
            }
        }
    }
    if (!pnr_ok) {
        r.status = Status(ErrorCode::kRouteFailed, "place-and-route");
        return r;
    }
    r.fabric_width = width;
    r.fabric_height = height;
    r.period_ns =
        std::max(r.period_ns, tech.sb_hop_delay + tech.reg_setup_delay);
    {
        ScopedSpan span(rec, "cgra.metrics");
        const cgra::Fabric fabric(width, height);
        r.util = cgra::utilizationOf(fabric, sel.mapped, placement, routing);
    }

    const int rf_tiles = sel.mapped.count(MappedKind::kRegFile);
    const int sb_tiles =
        r.util.pes + r.util.mems + rf_tiles + r.util.routing_tiles;
    r.sb_area = sb_tiles * tech.sb_area;
    r.cb_area =
        r.pe_count * (static_cast<double>(spec.word_inputs.size()) *
                          tech.cb_area_per_input +
                      static_cast<double>(spec.bit_inputs.size()) *
                          tech.cb_area_per_input_bit) +
        (r.util.mems + rf_tiles) * tech.cb_area_per_input;
    r.mem_area = r.util.mems * tech.mem_tile_area;
    r.cgra_area = r.pe_area + rf_tiles * tech.rf_area + r.sb_area +
                  r.cb_area + r.mem_area;
    r.sb_energy =
        routing.total_hops * tech.sb_energy_per_hop * invocations_per_item;
    r.cb_energy = static_cast<double>(placement.edges.size()) *
                  tech.cb_energy * invocations_per_item;
    r.mem_energy =
        r.util.mems * tech.mem_energy_access * invocations_per_item;
    const double reg_energy =
        (r.util.regs * tech.pipe_reg_energy +
         r.util.rf_entries * tech.pipe_reg_energy * 0.4) *
        invocations_per_item;
    r.cgra_energy = r.pe_energy + r.sb_energy + r.cb_energy +
                    r.mem_energy + reg_energy;
    const double cycles = frames_invocations + r.latency_cycles;
    r.runtime_ms = cycles * r.period_ns * 1e-6;
    const double area_mm2 = r.cgra_area * 1e-6;
    if (r.runtime_ms > 0.0 && area_mm2 > 0.0) {
        r.frames_per_ms_mm2 = 1.0 / (r.runtime_ms * area_mm2);
        r.perf_per_mm2 = r.frames_per_ms_mm2 * app.work_items_per_frame;
    }
    r.total_energy_uj = r.cgra_energy * app.work_items_per_frame * 1e-6;
    r.success = true;

    std::string blob;
    {
        ScopedSpan span(rec, "core.serialize");
        blob = core::serializeEvalResult(r);
    }
    {
        ScopedSpan span(rec, "runtime.cache_put");
        cache.put(key, blob);
    }
    return r;
}

/** One traced pass over every cell, in runSweep's jobs=1 order. */
struct TracedPass {
    double wall_ms = 0.0;
    std::vector<SpanRecord> spans;
    std::map<std::string, long long> counts; ///< Registry deltas.
    PassTallies tallies;
    long rewrite_unique = 0;
    std::string fidelity_error; ///< Empty when every cell matched.
};

TracedPass
tracedPass(const BatchState &s, runtime::ArtifactCache &cache,
           const std::map<std::string, std::string> &ref_cells)
{
    TracedPass pass;
    const model::TechModel &tech = model::defaultTech();
    std::vector<std::array<std::optional<core::PeVariant>, 3>> variants(
        s.apps.size());
    std::vector<std::array<core::EvalResult, 3>> results(s.apps.size());

    const auto before = counterSnapshot();
    const Clock::time_point origin = Clock::now();
    SpanRecorder rec(origin);
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
        const apps::AppInfo &app = s.apps[i];
        {
            ScopedSpan span(rec, "core.build");
            if (!ir::validate(app.graph).ok())
                continue;
            variants[i][0] = s.explorer->baselineVariant();
            variants[i][1] = s.explorer->subsetVariant(app);
            variants[i][2] = tracedSpecialized(app, *s.explorer, rec);
        }
        for (int j = 0; j < 3; ++j)
            results[i][j] = tracedEvaluate(app, *variants[i][j], cache, rec,
                                           &pass.tallies);
    }
    pass.wall_ms = msSince(origin);
    pass.counts = counterDelta(before, counterSnapshot());
    pass.spans = rec.spans();

    // Fidelity: every decomposed cell must serialize to exactly the
    // bytes core::evaluate produced for the checked-in reference.
    for (std::size_t i = 0; i < s.apps.size() && pass.fidelity_error.empty();
         ++i) {
        for (int j = 0; j < 3; ++j) {
            const std::string id =
                s.apps[i].name + " " +
                (variants[i][j] ? variants[i][j]->name : "?");
            const auto it = ref_cells.find(id);
            if (!results[i][j].success || it == ref_cells.end() ||
                core::serializeEvalResult(results[i][j]) != it->second) {
                pass.fidelity_error =
                    "traced cell " + id +
                    " differs from core::evaluate's result";
                break;
            }
        }
    }
    // Distinct (PE spec, pattern set) inputs to rule synthesis: the
    // eval cache key of a fixed app fingerprints exactly those.
    std::set<std::string> distinct;
    for (const core::PeVariant *v : pass.tallies.rewritten) {
        const std::string key =
            core::evalCacheKey(s.apps.front(), *v, kLevel, tech, {});
        distinct.insert(key.substr(key.rfind('/') + 1));
    }
    pass.rewrite_unique = static_cast<long>(distinct.size());
    pass.tallies.rewritten.clear(); // the variants die with this frame
    return pass;
}

/** Counters whose traced-pass delta must equal the untraced sweep's. */
const char *const kDeterministicCounters[] = {
    "apex.mine.patterns",  "apex.mine.embeddings",
    "apex.mine.matcher_fallbacks", "apex.clique.nodes",
    "apex.clique.non_optimal", "apex.place.attempts",
    "apex.place.failures", "apex.route.ripup_iterations",
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer metrics of a traced run. */
void
runTraced(const Args &args, BatchState &s, const Reference &ref,
          Report *report)
{
    const model::TechModel &tech = model::defaultTech();
    const auto ref_cells = splitCells(ref.cells);

    // Untraced jobs=4 sweep: the counts to reproduce, and the lane
    // accounting the sequential traced pass is compared against.
    runtime::ArtifactCache c4;
    const auto before4 = counterSnapshot();
    const core::SweepOutcome out4 =
        core::runSweep(s.apps, *s.explorer, tech, sweepOptions(kJobs, &c4));
    const auto delta4 = counterDelta(before4, counterSnapshot());
    const std::string why4 = checkAgainst(out4.entries, out4.report, ref);
    if (!why4.empty()) {
        report->setup_ok = false;
        report->notes.push_back("untraced jobs=4 sweep: " + why4);
    }
    const double task_ms4 = (delta4.at("apex.sweep.build_us") +
                             delta4.at("apex.sweep.eval_us")) /
                            1e3;

    // Untraced jobs=1 sweep of the same cells: the tracing-overhead base.
    runtime::ArtifactCache c1;
    const Clock::time_point t1 = Clock::now();
    (void)core::runSweep(s.apps, *s.explorer, tech, sweepOptions(1, &c1));
    const double wall1 = msSince(t1);

    // Traced passes for --seconds (at least three); the pass with the
    // median wall time is reported, so its numbers add up exactly.
    std::vector<TracedPass> passes;
    const Clock::time_point start = Clock::now();
    while (passes.size() < 3 ||
           (msSince(start) < args.seconds * 1e3 && passes.size() < 25)) {
        runtime::ArtifactCache cp;
        passes.push_back(tracedPass(s, cp, ref_cells));
        TracedPass &p = passes.back();
        ++report->attempted;
        std::string why = p.fidelity_error;
        for (const char *name : kDeterministicCounters)
            if (why.empty() && p.counts.at(name) != delta4.at(name))
                why = std::string(name) + ": traced " +
                      std::to_string(p.counts.at(name)) + " vs sweep " +
                      std::to_string(delta4.at(name));
        if (!why.empty()) {
            ++report->failed;
            report->notes.push_back("fidelity: " + why);
        }
    }
    std::sort(passes.begin(), passes.end(),
              [](const TracedPass &a, const TracedPass &b) {
                  return a.wall_ms < b.wall_ms;
              });
    const TracedPass &p = passes[passes.size() / 2];
    const SpanTotals t = totalsOf(p.spans);
    const auto incl = [&](const char *name) {
        const auto it = t.inclusive_ms.find(name);
        return it == t.inclusive_ms.end() ? 0.0 : it->second;
    };
    const auto longest = [&](const char *name) {
        const auto it = t.max_ms.find(name);
        return it == t.max_ms.end() ? 0.0 : it->second;
    };
    const auto count = [&](const char *name) {
        return static_cast<double>(p.counts.at(name));
    };
    auto &m = report->metrics;
    m["mining.mine_ms"] = incl("mining.mine");
    m["mining.rank_ms"] = incl("mining.rank");
    m["mining.rank_max_ms"] = longest("mining.rank");
    m["mining.patterns"] = count("apex.mine.patterns");
    m["mining.embeddings"] = count("apex.mine.embeddings");
    m["mining.matcher_fallbacks"] = count("apex.mine.matcher_fallbacks");
    m["merging.merge_ms"] = incl("merging.merge");
    m["merging.clique_nodes"] = count("apex.clique.nodes");
    m["merging.clique_non_optimal"] = count("apex.clique.non_optimal");
    m["core.build_ms"] = incl("core.build");
    m["core.build_max_ms"] = longest("core.build");
    m["core.cache_key_ms"] = incl("core.cache_key");
    m["mapper.rewrite_ms"] = incl("mapper.rewrite");
    m["mapper.rules"] = static_cast<double>(p.tallies.rules);
    m["mapper.rewrite_unique_ratio"] =
        ratio(static_cast<double>(p.rewrite_unique),
              static_cast<double>(p.tallies.rewrite_calls));
    m["mapper.select_ms"] = incl("mapper.select");
    m["mapper.pe_count"] = static_cast<double>(p.tallies.pe_count);
    m["pipeline.pe_ms"] = incl("pipeline.pe");
    m["pipeline.app_ms"] = incl("pipeline.app");
    m["cgra.place_ms"] = incl("cgra.place");
    m["cgra.route_ms"] = incl("cgra.route");
    m["cgra.place_attempts"] = count("apex.place.attempts");
    m["cgra.place_success_ratio"] =
        ratio(count("apex.place.attempts") - count("apex.place.failures"),
              count("apex.place.attempts"));
    m["cgra.route_ripups"] = count("apex.route.ripup_iterations");
    m["runtime.lane_occupancy"] =
        ratio(task_ms4, out4.stats.wall_ms * out4.stats.jobs);
    m["runtime.task_inflation"] =
        ratio(task_ms4, incl("core.build") + incl("core.evaluate"));
    m["runtime.tasks_stolen"] = static_cast<double>(out4.stats.tasks_stolen);
    m["runtime.cache_get_ms"] = incl("runtime.cache_get");
    m["runtime.cache_put_ms"] = incl("runtime.cache_put");
    m["runtime.cache_hit_ratio"] =
        ratio(count("apex.cache.hits"),
              count("apex.cache.hits") + count("apex.cache.misses"));
    for (const auto &[layer, self_ms] : t.layer_self_ms)
        m[layer + ".self_ms"] = self_ms;
    for (const char *name : {"core.journal_append_ms", "core.journal_replay_ms"})
        report->unmeasured[name] = "a batch sweep keeps no journal";
    for (const char *name : {"runtime.worker_run_ms", "runtime.worker_restarts"})
        report->unmeasured[name] = "every cell runs in-process";
    for (const char *name :
         {"service.ack_ms", "service.execute_ms", "service.overhead_ms",
          "service.render_ms", "service.coalesced_ratio", "service.rejected",
          "service.replay_ms_p50", "service.replay_ms_p90",
          "service.fresh_ms_p50", "service.self_ms"})
        report->unmeasured[name] = "no daemon";

    // The identity the per-layer table rests on: layer self-times plus
    // the unattributed remainder are the traced wall time.
    const double covered = rootCoverage(p.spans);
    double self_sum = 0.0;
    for (const auto &[layer, self_ms] : t.layer_self_ms)
        self_sum += self_ms;
    m["trace.wall_ms"] = p.wall_ms;
    m["trace.unattributed_ms"] = p.wall_ms - covered;
    m["trace.overhead_pct"] = 100.0 * ratio(p.wall_ms - wall1, wall1);
    if (std::abs(self_sum + (p.wall_ms - covered) - p.wall_ms) >
        1e-6 * p.wall_ms) {
        ++report->failed;
        report->notes.push_back("layer self-times do not sum to the wall");
    }
    report->samples["trace.wall_ms"] = passes.size();
}

} // namespace

Report
runBatch(const Args &args)
{
    Report report;
    Reference ref;
    if (!loadReference(args.reference_dir, "analyzed", "pipe", &ref)) {
        report.setup_ok = false;
        report.notes.push_back("missing reference analyzed-pipe in " +
                               args.reference_dir);
        return report;
    }

    // Set-up, several times over: setup_s is the median.
    BatchState s;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        s = BatchState{};
        std::string why;
        const Clock::time_point t0 = Clock::now();
        const bool ok = setUp(ref, &s, &why);
        setup_s.push_back(msSince(t0) / 1e3);
        if (!ok) {
            report.setup_ok = false;
            report.notes.push_back("set-up: " + why);
            return report;
        }
    }

    if (args.trace) {
        runTraced(args, s, ref, &report);
        return report;
    }

    std::vector<double> sweep_ms;
    double cpu_ms = 0.0;
    double wall_ms = 0.0;
    long cells = 0;
    const Clock::time_point start = Clock::now();
    while ((msSince(start) < args.seconds * 1e3 ||
            sweep_ms.size() < kMinSweeps) &&
           msSince(start) < kMeasureCapMs) {
        runtime::ArtifactCache cache;
        const CpuTimes c0 = readCpu();
        const Clock::time_point t0 = Clock::now();
        const core::SweepOutcome out =
            core::runSweep(s.apps, *s.explorer, model::defaultTech(),
                           sweepOptions(kJobs, &cache));
        const double dt = msSince(t0);
        cpu_ms += readCpu().total() - c0.total();
        sweep_ms.push_back(dt);
        wall_ms += dt;
        cells += static_cast<long>(out.entries.size());
        ++report.attempted;
        const std::string why = checkAgainst(out.entries, out.report, ref);
        if (!why.empty()) {
            ++report.failed;
            if (report.notes.size() < 5)
                report.notes.push_back("sweep: " + why);
        }
    }

    const Summary sweep = summarizeWindows(sweep_ms);
    if (sweep.has_p90)
        report.info["sweep_ms_p90"] = {sweep.p90, "ms"};
    else
        report.info_missing["sweep_ms_p90"] = sweep.why_missing;
    report.info["sweep_ms_p50"] = {sweep.p50, "ms"};
    auto &m = report.metrics;
    m["setup_s"] = median(setup_s);
    m["cells_per_s"] = cells / (wall_ms / 1e3);
    m["cpu_ms_per_cell"] = cpu_ms / static_cast<double>(cells);
    m["peak_rss_mb"] = peakRssMb();
    report.samples["setup_s"] = setup_s.size();
    report.samples["sweep_ms_p50"] = sweep.n;
    report.samples["sweep_ms_p90"] = sweep.n;
    report.samples["cells_per_s"] = static_cast<std::size_t>(cells);
    report.samples["cpu_ms_per_cell"] = static_cast<std::size_t>(cells);
    return report;
}

} // namespace perfbench
