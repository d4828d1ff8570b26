#include "core/evaluate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/fault.hpp"
#include "ir/signature.hpp"
#include "ir/validate.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "mapper/select.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "pipeline/timing.hpp"
#include "runtime/telemetry.hpp"

namespace apex::core {

using mapper::MappedKind;

// ---------------------------------------------------------------------
// Artifact-cache keys and EvalResult serialization
// ---------------------------------------------------------------------

namespace {

/** Content fingerprint of a PE specification: everything evaluate()
 * reads from it (datapath structure, config space, pipelining). */
std::uint64_t
specFingerprint(const pe::PeSpec &spec)
{
    ir::Fnv64 f;
    f.mix(static_cast<std::uint64_t>(spec.dp.nodes.size()));
    for (const merging::DpNode &n : spec.dp.nodes) {
        f.mix(static_cast<std::uint64_t>(n.kind));
        f.mix(static_cast<std::uint64_t>(n.cls));
        f.mix(static_cast<std::uint64_t>(n.type));
        f.mix(static_cast<std::uint64_t>(n.is_output));
        f.mix(static_cast<std::uint64_t>(n.ops.size()));
        for (const ir::Op op : n.ops) // std::set: sorted, stable
            f.mix(static_cast<std::uint64_t>(op));
    }
    f.mix(static_cast<std::uint64_t>(spec.dp.edges.size()));
    for (const merging::DpEdge &e : spec.dp.edges) {
        f.mix(static_cast<std::uint64_t>(e.src));
        f.mix(static_cast<std::uint64_t>(e.dst));
        f.mix(static_cast<std::uint64_t>(e.port));
    }
    auto mix_ints = [&f](const std::vector<int> &v) {
        f.mix(static_cast<std::uint64_t>(v.size()));
        for (const int i : v)
            f.mix(static_cast<std::uint64_t>(i));
    };
    f.mix(static_cast<std::uint64_t>(spec.muxes.size()));
    for (const pe::MuxSite &m : spec.muxes) {
        f.mix(static_cast<std::uint64_t>(m.node));
        f.mix(static_cast<std::uint64_t>(m.port));
        mix_ints(m.sources);
    }
    mix_ints(spec.multi_op_blocks);
    mix_ints(spec.const_regs);
    mix_ints(spec.word_inputs);
    mix_ints(spec.bit_inputs);
    mix_ints(spec.word_outputs);
    mix_ints(spec.bit_outputs);
    mix_ints(spec.lut_blocks);
    f.mix(static_cast<std::uint64_t>(spec.has_register_file));
    f.mix(static_cast<std::uint64_t>(spec.pipeline_stages));
    return f.digest();
}

} // namespace

std::uint64_t
techFingerprint(const model::TechModel &tech)
{
    ir::Fnv64 f;
    for (const model::BlockCost &b : tech.block) {
        f.mixDouble(b.area);
        f.mixDouble(b.energy);
        f.mixDouble(b.delay);
    }
    f.mixDouble(tech.mux_input_area);
    f.mixDouble(tech.mux_input_area_bit);
    f.mixDouble(tech.mux_energy);
    f.mixDouble(tech.mux_delay);
    f.mixDouble(tech.config_bit_area);
    f.mixDouble(tech.decode_area_per_op);
    f.mixDouble(tech.decode_energy);
    f.mixDouble(tech.config_bit_energy);
    f.mixDouble(tech.decode_energy_per_op);
    f.mixDouble(tech.idle_toggle_factor);
    f.mixDouble(tech.pipe_reg_area);
    f.mixDouble(tech.pipe_reg_energy);
    f.mixDouble(tech.reg_setup_delay);
    f.mixDouble(tech.rf_area);
    f.mixDouble(tech.rf_energy);
    f.mix(static_cast<std::uint64_t>(tech.sb_tracks));
    f.mixDouble(tech.sb_area);
    f.mixDouble(tech.sb_energy_per_hop);
    f.mixDouble(tech.sb_hop_delay);
    f.mixDouble(tech.cb_area_per_input);
    f.mixDouble(tech.cb_area_per_input_bit);
    f.mixDouble(tech.cb_energy);
    f.mixDouble(tech.mem_tile_area);
    f.mixDouble(tech.mem_energy_access);
    f.mixDouble(tech.target_period);
    return f.digest();
}

std::string
evalCacheKey(const apps::AppInfo &app, const PeVariant &variant,
             EvalLevel level, const model::TechModel &tech,
             const EvalOptions &options)
{
    ir::Fnv64 f;
    f.mix(ir::fingerprint(app.graph));
    f.mixDouble(app.work_items_per_frame);
    f.mix(static_cast<std::uint64_t>(app.items_per_cycle));
    f.mix(specFingerprint(variant.spec));
    f.mix(static_cast<std::uint64_t>(variant.patterns.size()));
    for (const ir::Graph &p : variant.patterns)
        f.mix(ir::fingerprint(p));
    f.mix(static_cast<std::uint64_t>(level));
    f.mix(techFingerprint(tech));
    f.mix(static_cast<std::uint64_t>(options.fabric_width));
    f.mix(static_cast<std::uint64_t>(options.fabric_height));
    f.mix(static_cast<std::uint64_t>(options.auto_grow_fabric));
    f.mix(static_cast<std::uint64_t>(options.max_fabric_growths));
    f.mix(static_cast<std::uint64_t>(options.placer_seed));
    f.mix(static_cast<std::uint64_t>(options.place_retries));
    f.mix(
        static_cast<std::uint64_t>(options.route_track_escalations));
    // options.deadline is intentionally excluded: it never changes a
    // computed result, only whether one is computed at all.

    // Human-readable prefix for cache introspection; the hash is the
    // actual content address.
    std::ostringstream os;
    os << "eval/v2/" << app.name << '/' << variant.name << '/'
       << static_cast<int>(level) << '/' << std::hex << f.digest();
    return os.str();
}

std::optional<EvalResult>
cachedEvaluation(runtime::ArtifactCache &cache, const std::string &key)
{
    const std::optional<std::string> hit = cache.get(key);
    if (!hit)
        return std::nullopt;
    Result<EvalResult> cached = parseEvalResult(*hit);
    if (!cached.ok())
        return std::nullopt;
    EvalResult out = std::move(cached).value();
    out.diagnostics.info("cache", "evaluation served from artifact cache");
    return out;
}

namespace {

/**
 * The apexeval record's fields in record order: the one list behind
 * serializeEvalResult() and parseEvalResult().  @p visit is called
 * as visit(name, field) with an int, bool or double field of @p r
 * (an EvalResult, const for the writer).
 */
template <typename R, typename Visit>
void
forEachField(R &r, Visit &&visit)
{
    visit("pnr_attempts", r.pnr_attempts);
    visit("degraded", r.degraded);
    visit("pe_count", r.pe_count);
    visit("pe_area", r.pe_area);
    visit("pe_energy", r.pe_energy);
    visit("fabric_width", r.fabric_width);
    visit("fabric_height", r.fabric_height);
    visit("sb_area", r.sb_area);
    visit("cb_area", r.cb_area);
    visit("mem_area", r.mem_area);
    visit("cgra_area", r.cgra_area);
    visit("sb_energy", r.sb_energy);
    visit("cb_energy", r.cb_energy);
    visit("mem_energy", r.mem_energy);
    visit("cgra_energy", r.cgra_energy);
    visit("util_pes", r.util.pes);
    visit("util_mems", r.util.mems);
    visit("util_rf_entries", r.util.rf_entries);
    visit("util_ios", r.util.ios);
    visit("util_regs", r.util.regs);
    visit("util_routing_tiles", r.util.routing_tiles);
    visit("util_sb_hops", r.util.sb_hops);
    visit("pipeline_stages", r.pipeline_stages);
    visit("period_ns", r.period_ns);
    visit("latency_cycles", r.latency_cycles);
    visit("runtime_ms", r.runtime_ms);
    visit("perf_per_mm2", r.perf_per_mm2);
    visit("frames_per_ms_mm2", r.frames_per_ms_mm2);
    visit("total_energy_uj", r.total_energy_uj);
    visit("raw_compute_energy_uj", r.raw_compute_energy_uj);
    visit("op_events", r.op_events);
}

/** Parse all of @p token into @p out; false on any leftover byte. */
bool
parseWhole(const std::string &token, int *out)
{
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

bool
parseWhole(const std::string &token, bool *out)
{
    int v = 0;
    if (!parseWhole(token, &v) || (v != 0 && v != 1))
        return false;
    *out = v != 0;
    return true;
}

bool
parseWhole(const std::string &token, double *out)
{
    char *end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return !token.empty() && end == token.c_str() + token.size();
}

} // namespace

std::string
serializeEvalResult(const EvalResult &r)
{
    std::ostringstream os;
    os << "apexeval 2\n";
    forEachField(r, [&os](const char *name, const auto &field) {
        os << name << ' ';
        if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                     double>) {
            // %a round-trips IEEE doubles exactly: cache hits are
            // bit-identical to the run that populated the cache.
            char buf[64];
            std::snprintf(buf, sizeof buf, "%a", field);
            os << buf;
        } else {
            os << static_cast<int>(field);
        }
        os << '\n';
    });
    return os.str();
}

Result<EvalResult>
parseEvalResult(const std::string &text)
{
    std::istringstream is(text);
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "apexeval" ||
        version != 2)
        return Status(ErrorCode::kParseError,
                      "bad apexeval header");

    // Every field, in record order, exactly once.
    EvalResult r;
    Status bad;
    forEachField(r, [&is, &bad](const char *name, auto &field) {
        if (!bad.ok())
            return;
        std::string key, value;
        if (!(is >> key >> value))
            bad = Status(ErrorCode::kParseError,
                         "truncated apexeval record");
        else if (key != name)
            bad = Status(ErrorCode::kParseError,
                         "apexeval field '" + key + "' where '" +
                             name + "' belongs");
        else if (!parseWhole(value, &field))
            bad = Status(ErrorCode::kParseError,
                         "bad value '" + value + "' for '" + key + "'");
    });
    if (!bad.ok())
        return bad;
    if (std::string extra; is >> extra)
        return Status(ErrorCode::kParseError,
                      "trailing apexeval field '" + extra + "'");
    r.success = true;
    return r;
}

double
peInstanceEnergy(const mapper::RewriteRule &rule,
                 const pe::PeSpec &spec,
                 const model::TechModel &tech)
{
    double energy = spec.overheadEnergyPerCycle(tech);

    // Active datapath blocks of this rule.
    std::set<int> active;
    double active_energy = 0.0;
    for (ir::NodeId id = 0; id < rule.pattern.size(); ++id) {
        const ir::Op op = rule.pattern.op(id);
        if (!ir::opIsCompute(op))
            continue;
        const int dp_node = rule.node_to_dp[id];
        if (active.insert(dp_node).second) {
            active_energy +=
                model::blockCost(tech,
                                 spec.dp.nodes[dp_node].cls)
                    .energy;
        }
    }
    energy += active_energy;

    // Idle blocks still toggle.
    for (int b : spec.dp.blockIds()) {
        if (!active.count(b)) {
            energy += tech.idle_toggle_factor *
                      model::blockCost(tech, spec.dp.nodes[b].cls)
                          .energy;
        }
    }

    energy += tech.mux_energy *
              static_cast<double>(rule.placeholders.size());
    energy += 0.005 * static_cast<double>(rule.const_bindings.size());
    return energy;
}

namespace {

/** The one evaluator body behind both evaluate() overloads: @p types
 * holds the fabric's PE types (one for the paper's homogeneous
 * CGRAs), @p label names the fabric in contexts and spans. */
EvalResult
evaluateFabric(const apps::AppInfo &app, std::span<const PeVariant> types,
               const std::string &label, EvalLevel level,
               const model::TechModel &tech, const EvalOptions &options,
               std::vector<int> *pe_count_by_type)
{
    EvalResult r;
    // Cell attribution: every span below (mapper, P&R, pipeliner,
    // and anything they call) inherits this "app/variant" scope, so
    // the per-cell stage-time breakdown can group by it.
    telemetry::ScopedCell cell_scope;
    if (telemetry::tracingEnabled())
        cell_scope.set(app.name + "/" + label);
    APEX_SPAN("evaluate", {{"app", app.name}, {"variant", label}});
    telemetry::StageTimer eval_timer(
        telemetry::histogram("apex.eval.ms"));
    const std::string pair_context =
        "evaluating '" + app.name + "' on '" + label + "'";
    const int num_types = static_cast<int>(types.size());
    if (num_types == 0 ||
        (num_types > 1 && level == EvalLevel::kPostPipelining)) {
        r.status = Status(ErrorCode::kInvalidArgument,
                          num_types == 0
                              ? "fabric has no PE types"
                              : "pipelining a fabric of several PE "
                                "types is not modelled")
                       .withContext(pair_context);
        r.diagnostics.error("evaluate", r.status);
        return r;
    }
    if (Status fault = checkFault(FaultStage::kEvaluate);
        !fault.ok()) {
        r.status = std::move(fault).withContext(pair_context);
        r.diagnostics.error("evaluate", r.status);
        return r;
    }

    // Validate the application graph at the pipeline boundary: a
    // corrupt graph must be rejected here, not crash the mapper.
    if (Status s = ir::validate(app.graph); !s.ok()) {
        r.status = std::move(s).withContext(pair_context);
        r.diagnostics.error("validate", r.status);
        return r;
    }

    // --- Artifact-cache lookup (one PE type only) --------------------
    // After the fault hook and validation so injected faults keep
    // their per-stage call ordinals and a corrupt graph is rejected
    // even when a stale entry exists for its fingerprint.
    std::string cache_key;
    if (options.cache != nullptr && num_types == 1) {
        cache_key =
            evalCacheKey(app, types.front(), level, tech, options);
        if (std::optional<EvalResult> hit =
                cachedEvaluation(*options.cache, cache_key)) {
            if (pe_count_by_type != nullptr)
                *pe_count_by_type = {hit->pe_count};
            return std::move(*hit);
        }
    }
    const auto memoize = [&](const EvalResult &ok_result) {
        if (!cache_key.empty())
            options.cache->put(cache_key,
                               serializeEvalResult(ok_result));
    };

    // --- Compile: rewrite rules + instruction selection -----------
    if (Status s = options.deadline.check("instruction selection");
        !s.ok()) {
        r.status = std::move(s).withContext(pair_context);
        r.diagnostics.error("deadline", r.status);
        return r;
    }
    // One rule library per PE type, combined most-complex-first with
    // the cheaper type preferred on ties (for one type, a stable
    // re-sort of an already sorted library).
    std::vector<pe::PeSpec> specs; // mutable copies (pipelining)
    std::vector<std::vector<mapper::RewriteRule>> libraries;
    std::vector<double> type_areas;
    for (const PeVariant &v : types) {
        specs.push_back(v.spec);
        mapper::RewriteRuleSynthesizer synth(specs.back());
        libraries.push_back(synth.synthesizeLibrary(v.patterns));
        type_areas.push_back(v.spec.area(tech));
    }
    const auto rules =
        mapper::combineLibraries(std::move(libraries), type_areas);
    mapper::InstructionSelector selector(rules);
    mapper::SelectionResult sel = selector.map(app.graph);
    if (!sel.success) {
        r.status = sel.status.withContext(pair_context);
        r.diagnostics.error("map", r.status);
        return r;
    }

    // --- Post-mapping metrics --------------------------------------
    const double invocations_per_item = 1.0 / app.items_per_cycle;
    std::vector<int> counts(num_types, 0);
    std::vector<int> pe_type_of_node(sel.mapped.nodes.size(), 0);
    double pe_energy_per_cycle = 0.0;
    for (std::size_t id = 0; id < sel.mapped.nodes.size(); ++id) {
        const mapper::MappedNode &n = sel.mapped.nodes[id];
        if (n.kind != MappedKind::kPe)
            continue;
        const int type = rules[n.rule].pe_type;
        pe_type_of_node[id] = type;
        ++counts[type];
        pe_energy_per_cycle +=
            peInstanceEnergy(rules[n.rule], specs[type], tech);
    }
    r.pe_count = sel.peCount();
    for (int t = 0; t < num_types; ++t)
        r.pe_area += type_areas[t] * counts[t];
    r.pe_energy = pe_energy_per_cycle * invocations_per_item;
    if (pe_count_by_type != nullptr)
        *pe_count_by_type = counts;

    // ASIC floor + FPGA comparator inputs.
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
    r.raw_compute_energy_uj = raw_per_cycle * frames_invocations *
                              1e-6;
    r.op_events = static_cast<double>(compute_nodes) *
                  frames_invocations;

    // Timing of the unpipelined PEs (informative at every level): the
    // slowest type sets the fabric's clock.
    double unpipelined_period = 0.0;
    for (const pe::PeSpec &spec : specs)
        unpipelined_period = std::max(
            unpipelined_period,
            pipeline::analyzeTiming(spec, tech).critical_path);
    r.period_ns = unpipelined_period;

    if (level == EvalLevel::kPostMapping) {
        r.success = true;
        memoize(r);
        return r;
    }

    // --- Optional pipelining (before PnR: registers must route) ----
    // One PE type here: several were rejected above.
    if (level == EvalLevel::kPostPipelining) {
        pe::PeSpec &spec = specs.front();
        const auto pe_pipe = pipeline::pipelinePe(spec, tech);
        r.pipeline_stages = spec.pipeline_stages;
        r.period_ns = pe_pipe.period;
        const auto app_pipe = pipeline::pipelineApplication(
            &sel.mapped, spec.pipeline_stages, {});
        r.latency_cycles = app_pipe.max_latency;
    }

    // --- Place and route --------------------------------------------
    // Resilience ladder, cheapest remedy first: retry placement with
    // a derived seed, escalate routing tracks on congestion, then
    // grow the fabric.  Every attempt lands in r.diagnostics.
    int width = options.fabric_width;
    int height = options.fabric_height;
    cgra::PlacementResult placement;
    cgra::RouteResult routing;
    Status last_failure;
    bool pnr_ok = false;
    bool out_of_time = false;
    const int growths =
        options.auto_grow_fabric
            ? std::max(1, options.max_fabric_growths)
            : 1;
    const int seed_tries = std::max(1, options.place_retries);
    const int escalations =
        std::max(0, options.route_track_escalations);
    cgra::RouterOptions base_ropt;
    // The router's rip-up loop is the longest uninterruptible stretch
    // of the ladder, so it polls the deadline itself.
    base_ropt.deadline = options.deadline;

    for (int growth = 0; growth < growths && !pnr_ok; ++growth) {
        if (Status s = options.deadline.check(
                "fabric growth " + std::to_string(growth + 1));
            !s.ok()) {
            last_failure = std::move(s);
            r.diagnostics.error("deadline", last_failure,
                                r.pnr_attempts);
            out_of_time = true;
            break;
        }
        if (growth > 0) {
            if (growth % 2 == 1)
                height *= 2;
            else
                width *= 2;
            std::ostringstream os;
            os << "growing fabric to " << width << 'x' << height;
            r.diagnostics.info("place", os.str());
        }
        const cgra::Fabric fabric(width, height);
        for (int retry = 0; retry < seed_tries && !pnr_ok;
             ++retry) {
            if (Status s = options.deadline.check(
                    "placement attempt " +
                    std::to_string(r.pnr_attempts + 1));
                !s.ok()) {
                last_failure = std::move(s);
                r.diagnostics.error("deadline", last_failure,
                                    r.pnr_attempts);
                out_of_time = true;
                break;
            }
            cgra::PlacerOptions popt;
            popt.seed = options.placer_seed +
                        0x9E3779B9u * static_cast<unsigned>(retry);
            ++r.pnr_attempts;
            placement = cgra::placeHetero(fabric, sel.mapped,
                                          pe_type_of_node, num_types,
                                          popt);
            if (!placement.success) {
                last_failure = placement.status;
                r.diagnostics.error("place", last_failure,
                                    r.pnr_attempts);
                // No seed conjures missing tiles: grow instead.
                if (last_failure.code() ==
                    ErrorCode::kBudgetExhausted)
                    break;
                continue;
            }
            if (r.pnr_attempts > 1)
                r.diagnostics.info("place", "placement succeeded",
                                   r.pnr_attempts);
            for (int esc = 0; esc <= escalations; ++esc) {
                cgra::RouterOptions ropt = base_ropt;
                ropt.tracks = base_ropt.tracks + 2 * esc;
                if (esc > 0)
                    telemetry::counter(
                        "apex.route.track_escalations")
                        .add(1);
                routing = cgra::route(fabric, placement, ropt);
                if (routing.success) {
                    if (esc > 0) {
                        std::ostringstream os;
                        os << "routing succeeded with "
                           << ropt.tracks
                           << " tracks (escalation " << esc << ")";
                        r.diagnostics.info("route", os.str(),
                                           r.pnr_attempts);
                    }
                    pnr_ok = true;
                    break;
                }
                last_failure = routing.status;
                r.diagnostics.error("route", last_failure,
                                    r.pnr_attempts);
                // A timed-out route will not improve with more
                // tracks: stop the whole ladder.
                if (last_failure.code() == ErrorCode::kTimeout) {
                    out_of_time = true;
                    break;
                }
            }
            if (out_of_time)
                break;
        }
        if (out_of_time)
            break;
    }
    if (!pnr_ok) {
        std::ostringstream os;
        os << "place-and-route (" << r.pnr_attempts
           << " placement attempt(s), final fabric " << width << 'x'
           << height << ")";
        r.status = std::move(last_failure)
                       .withContext(os.str())
                       .withContext(pair_context);
        return r;
    }
    r.fabric_width = width;
    r.fabric_height = height;

    // Application-level static timing.  Pre-pipelining, unpipelined
    // PEs chain combinationally through unregistered interconnect —
    // only explicit registers (window regs, memories, RF FIFOs, IO)
    // break the path; this is what the paper's 6.9x-12.5x
    // post-pipelining speedups are measured against.  Post-
    // pipelining, PEs are staged and every SB track is registered.
    if (level == EvalLevel::kPostPipelining) {
        r.period_ns = std::max(
            r.period_ns, tech.sb_hop_delay + tech.reg_setup_delay);
    } else {
        const double pe_delay =
            unpipelined_period - tech.reg_setup_delay;
        std::vector<std::vector<int>> in_edges(
            sel.mapped.nodes.size());
        for (std::size_t e = 0; e < placement.edges.size(); ++e)
            in_edges[placement.edges[e].dst].push_back(
                static_cast<int>(e));
        std::vector<double> arrival(sel.mapped.nodes.size(), 0.0);
        double worst = unpipelined_period;
        for (int id : sel.mapped.topoOrder()) {
            if (!cgra::isPlaceable(sel.mapped.nodes[id].kind))
                continue;
            double in_arrival = 0.0;
            for (int e : in_edges[id]) {
                const auto &edge = placement.edges[e];
                const double wire =
                    routing.paths[e].size() * tech.sb_hop_delay;
                // A registered edge launches from its last register.
                const double from =
                    edge.regs > 0
                        ? wire * 0.5
                        : arrival[edge.src] + wire;
                in_arrival = std::max(in_arrival, from);
            }
            const bool is_pe =
                sel.mapped.nodes[id].kind == MappedKind::kPe;
            arrival[id] = is_pe ? in_arrival + pe_delay : 0.0;
            worst = std::max(worst,
                             in_arrival + (is_pe ? pe_delay : 0.0) +
                                 tech.reg_setup_delay);
        }
        r.period_ns = worst;
    }

    const cgra::Fabric fabric(width, height);
    r.util = cgra::utilizationOf(fabric, sel.mapped, placement,
                                 routing);

    // --- Post-PnR area ----------------------------------------------
    const int rf_tiles =
        sel.mapped.count(MappedKind::kRegFile);
    const int sb_tiles = r.util.pes + r.util.mems + rf_tiles +
                         r.util.routing_tiles;
    r.sb_area = sb_tiles * tech.sb_area;
    for (int t = 0; t < num_types; ++t)
        r.cb_area +=
            counts[t] * (static_cast<double>(specs[t].word_inputs.size()) *
                             tech.cb_area_per_input +
                         static_cast<double>(specs[t].bit_inputs.size()) *
                             tech.cb_area_per_input_bit);
    r.cb_area += (r.util.mems + rf_tiles) * tech.cb_area_per_input;
    r.mem_area = r.util.mems * tech.mem_tile_area;
    const double rf_area = rf_tiles * tech.rf_area;
    r.cgra_area =
        r.pe_area + rf_area + r.sb_area + r.cb_area + r.mem_area;

    // --- Post-PnR energy (per output item) ---------------------------
    r.sb_energy = routing.total_hops * tech.sb_energy_per_hop *
                  invocations_per_item;
    r.cb_energy = static_cast<double>(placement.edges.size()) *
                  tech.cb_energy * invocations_per_item;
    r.mem_energy = r.util.mems * tech.mem_energy_access *
                   invocations_per_item;
    const double reg_energy =
        (r.util.regs * tech.pipe_reg_energy +
         r.util.rf_entries * tech.pipe_reg_energy * 0.4) *
        invocations_per_item;
    r.cgra_energy = r.pe_energy + r.sb_energy + r.cb_energy +
                    r.mem_energy + reg_energy;

    // --- Performance --------------------------------------------------
    const double cycles = frames_invocations + r.latency_cycles;
    r.runtime_ms = cycles * r.period_ns * 1e-6;
    const double area_mm2 = r.cgra_area * 1e-6;
    if (r.runtime_ms > 0.0 && area_mm2 > 0.0) {
        r.frames_per_ms_mm2 = 1.0 / (r.runtime_ms * area_mm2);
        r.perf_per_mm2 =
            r.frames_per_ms_mm2 * app.work_items_per_frame;
    }
    r.total_energy_uj =
        r.cgra_energy * app.work_items_per_frame * 1e-6;

    r.success = true;
    memoize(r);
    return r;
}

} // namespace

EvalResult
evaluate(const apps::AppInfo &app, const PeVariant &variant,
         EvalLevel level, const model::TechModel &tech,
         const EvalOptions &options)
{
    return evaluateFabric(app, {&variant, 1}, variant.name, level, tech,
                          options, nullptr);
}

EvalResult
evaluate(const apps::AppInfo &app, const HeteroCgra &cgra,
         EvalLevel level, const model::TechModel &tech,
         const EvalOptions &options, std::vector<int> *pe_count_by_type)
{
    return evaluateFabric(app, cgra.types, cgra.name, level, tech,
                          options, pe_count_by_type);
}

HeteroCgra
makeBigLittleCgra(const PeVariant &big, const std::string &name)
{
    PeVariant little;
    little.name = name + "_little";
    little.spec = pe::baselineSubsetPe(
        {ir::Op::kAdd, ir::Op::kSub, ir::Op::kLshr, ir::Op::kAshr},
        little.name);
    return HeteroCgra{name, {big, std::move(little)}};
}

Result<PeVariant>
bestSpecializedVariant(const apps::AppInfo &app,
                       const Explorer &explorer,
                       const model::TechModel &tech,
                       runtime::ThreadPool *pool,
                       const EvalOptions &options)
{
    // Candidate k is PE (k+1): k = 0 is the subset PE.
    const int candidates = explorer.options().max_merged_subgraphs + 1;
    std::vector<PeVariant> variants(candidates);
    std::vector<Status> statuses(candidates);
    std::vector<double> scores(candidates, 1e300);
    const auto build = [&](int k) {
        if (k == 0) {
            variants[k] = explorer.subsetVariant(app);
        } else if (auto v = explorer.specializedVariant(app, k);
                   v.ok()) {
            variants[k] = std::move(v).value();
        } else {
            statuses[k] = v.status();
            return;
        }
        const EvalResult r = evaluate(app, variants[k],
                                      EvalLevel::kPostMapping, tech,
                                      options);
        if (r.success)
            scores[k] = r.pe_area * r.pe_energy;
    };
    // Speculative parallel schedule: build and score every candidate
    // concurrently (each writes only its own slots), then walk them
    // in order exactly as the sequential schedule builds them.
    const bool speculative = pool != nullptr && pool->parallelism() > 1;
    if (speculative)
        runtime::parallelFor(pool, candidates, build);
    int best = 0;
    for (int k = 0; k < candidates; ++k) {
        if (!speculative)
            build(k);
        if (!statuses[k].ok())
            return statuses[k];
        if (k > 0 && scores[k] >= scores[best])
            break; // merging more subgraphs stopped paying off
        best = k;
    }
    PeVariant v = std::move(variants[best]);
    v.name = "pe_spec_" + app.name;
    v.spec.name = v.name;
    return v;
}

} // namespace apex::core
