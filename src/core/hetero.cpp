#include "core/hetero.hpp"

#include <algorithm>

#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "mapper/select.hpp"
#include "pe/baseline.hpp"

namespace apex::core {

using mapper::MappedKind;

HeteroCgra
makeBigLittleCgra(const PeVariant &big, const std::string &name)
{
    HeteroCgra cgra;
    cgra.name = name;

    PeVariant little;
    little.name = name + "_little";
    little.spec = pe::baselineSubsetPe(
        {ir::Op::kAdd, ir::Op::kSub, ir::Op::kLshr, ir::Op::kAshr},
        little.name);

    cgra.types.push_back(big);
    cgra.types.push_back(std::move(little));
    return cgra;
}

HeteroEvalResult
evaluateHetero(const apps::AppInfo &app, const HeteroCgra &cgra_def,
               EvalLevel level, const model::TechModel &tech,
               const EvalOptions &options)
{
    HeteroEvalResult r;
    const int num_types = static_cast<int>(cgra_def.types.size());
    if (num_types == 0) {
        r.status = Status(ErrorCode::kInvalidArgument, "no PE types");
        return r;
    }

    // Per-type rule libraries, combined with cheap-PE preference.
    std::vector<std::vector<mapper::RewriteRule>> libraries;
    std::vector<double> type_areas;
    for (const PeVariant &v : cgra_def.types) {
        mapper::RewriteRuleSynthesizer synth(v.spec);
        libraries.push_back(synth.synthesizeLibrary(v.patterns));
        type_areas.push_back(v.spec.area(tech));
    }
    const auto rules = mapper::combineLibraries(std::move(libraries),
                                                type_areas);

    mapper::InstructionSelector selector(rules);
    mapper::SelectionResult sel = selector.map(app.graph);
    if (!sel.success) {
        r.status = sel.status.withContext("mapping '" + app.name +
                                          "' onto '" + cgra_def.name +
                                          "'");
        return r;
    }

    // --- Post-mapping ------------------------------------------------
    r.pe_count_by_type.assign(num_types, 0);
    const double invocations_per_item = 1.0 / app.items_per_cycle;
    double energy_per_cycle = 0.0;
    std::vector<int> pe_type_of_node(sel.mapped.nodes.size(), 0);
    for (std::size_t id = 0; id < sel.mapped.nodes.size(); ++id) {
        const mapper::MappedNode &n = sel.mapped.nodes[id];
        if (n.kind != MappedKind::kPe)
            continue;
        const int type = rules[n.rule].pe_type;
        pe_type_of_node[id] = type;
        ++r.pe_count_by_type[type];
        ++r.pe_count;
        r.pe_area += type_areas[type];
        energy_per_cycle += peInstanceEnergy(
            rules[n.rule], cgra_def.types[type].spec, tech);
    }
    r.pe_energy = energy_per_cycle * invocations_per_item;

    if (level == EvalLevel::kPostMapping) {
        r.success = true;
        return r;
    }

    // --- Place and route with typed PE pools --------------------------
    int width = options.fabric_width;
    int height = options.fabric_height;
    cgra::PlacementResult placement;
    cgra::RouteResult routing;
    for (int attempt = 0; attempt < 5; ++attempt) {
        const cgra::Fabric fabric(width, height);
        cgra::PlacerOptions popt;
        popt.seed = options.placer_seed;
        placement = cgra::placeHetero(fabric, sel.mapped,
                                      pe_type_of_node, num_types,
                                      popt);
        if (placement.success) {
            routing = cgra::route(fabric, placement);
            if (routing.success)
                break;
        }
        if (!options.auto_grow_fabric)
            break;
        if (attempt % 2 == 0)
            height *= 2;
        else
            width *= 2;
    }
    if (!placement.success || !routing.success) {
        r.status = (placement.success ? routing.status
                                      : placement.status)
                       .withContext("place-and-route of '" + app.name +
                                    "' on '" + cgra_def.name + "'");
        return r;
    }
    r.fabric_width = width;
    r.fabric_height = height;

    const cgra::Fabric fabric(width, height);
    r.util = cgra::utilizationOf(fabric, sel.mapped, placement,
                                 routing);

    // --- Post-PnR area/energy -----------------------------------------
    const int rf_tiles = sel.mapped.count(MappedKind::kRegFile);
    const int sb_tiles = r.util.pes + r.util.mems + rf_tiles +
                         r.util.routing_tiles;
    double cb_area = (r.util.mems + rf_tiles) *
                     tech.cb_area_per_input;
    for (std::size_t id = 0; id < sel.mapped.nodes.size(); ++id) {
        if (sel.mapped.nodes[id].kind != MappedKind::kPe)
            continue;
        const pe::PeSpec &spec =
            cgra_def.types[pe_type_of_node[id]].spec;
        cb_area += static_cast<double>(spec.word_inputs.size()) *
                       tech.cb_area_per_input +
                   static_cast<double>(spec.bit_inputs.size()) *
                       tech.cb_area_per_input_bit;
    }
    r.cgra_area = r.pe_area + rf_tiles * tech.rf_area +
                  sb_tiles * tech.sb_area + cb_area +
                  r.util.mems * tech.mem_tile_area;

    const double sb_energy = routing.total_hops *
                             tech.sb_energy_per_hop *
                             invocations_per_item;
    const double cb_energy =
        static_cast<double>(placement.edges.size()) *
        tech.cb_energy * invocations_per_item;
    const double mem_energy = r.util.mems * tech.mem_energy_access *
                              invocations_per_item;
    const double reg_energy =
        (r.util.regs * tech.pipe_reg_energy +
         r.util.rf_entries * tech.pipe_reg_energy * 0.4) *
        invocations_per_item;
    r.cgra_energy = r.pe_energy + sb_energy + cb_energy +
                    mem_energy + reg_energy;

    r.success = true;
    return r;
}

} // namespace apex::core
