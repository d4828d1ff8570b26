#include "merging/merge.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "ir/validate.hpp"
#include "merging/clique.hpp"
#include "runtime/telemetry.hpp"

/*
 * Determinism contract (parallel DSE runtime): merging runs inside
 * concurrently evaluated sweep cells and its merged datapaths are
 * memoized by the content-addressed cache, so identical inputs must
 * merge identically on every lane and every run.  Opportunity
 * enumeration walks nodes in id order, clique search and weight
 * tie-breaks use explicit indices, and only ordered containers are
 * used — unordered_* iteration order, pointer comparisons and other
 * address-dependent choices are banned here.
 */
namespace apex::merging {

namespace {

/** One merge opportunity: 1 node pair (node merge) or 2 (edge merge). */
struct Opportunity {
    std::vector<std::pair<int, int>> pairs; ///< (A node, B node).
    double weight = 0.0;
};

/** Can nodes a (from A) and b (from B) share hardware? */
bool
nodesMergeable(const DpNode &a, const DpNode &b)
{
    if (a.kind != b.kind)
        return false;
    if (a.kind == DpNodeKind::kInput)
        return a.type == b.type;
    return a.cls == b.cls; // consts and blocks: same class
}

/** Area credit for merging two word input ports (models the
 * connection-box saving of one fewer PE input). */
constexpr double kInputMergeWeight = 20.0;
/** Same, for 1-bit inputs. */
constexpr double kInputMergeWeightBit = 2.0;

double
nodeMergeWeight(const DpNode &a, const model::TechModel &tech)
{
    if (a.kind == DpNodeKind::kInput) {
        return a.type == ir::ValueType::kBit ? kInputMergeWeightBit
                                             : kInputMergeWeight;
    }
    return model::blockCost(tech, a.cls).area;
}

/** Are two opportunities' pairings mutually injective? */
bool
compatible(const Opportunity &u, const Opportunity &v)
{
    for (const auto &[a1, b1] : u.pairs)
        for (const auto &[a2, b2] : v.pairs) {
            if ((a1 == a2) != (b1 == b2))
                return false;
        }
    return true;
}

} // namespace

MergeResult
mergeDatapaths(const Datapath &a, const Datapath &b,
               const model::TechModel &tech, const MergeOptions &opt)
{
    APEX_SPAN("merge");
    telemetry::StageTimer timer(
        telemetry::histogram("apex.merge.ms"));
    // 1. Enumerate node merge opportunities.
    std::vector<Opportunity> opportunities;
    for (int i = 0; i < static_cast<int>(a.nodes.size()); ++i) {
        for (int j = 0; j < static_cast<int>(b.nodes.size()); ++j) {
            if (!nodesMergeable(a.nodes[i], b.nodes[j]))
                continue;
            Opportunity op;
            op.pairs = {{i, j}};
            op.weight = nodeMergeWeight(a.nodes[i], tech);
            opportunities.push_back(std::move(op));
        }
    }

    // 2. Edge merge opportunities: mergeable endpoints, same dest port.
    for (const DpEdge &ea : a.edges) {
        for (const DpEdge &eb : b.edges) {
            if (ea.port != eb.port)
                continue;
            if (!nodesMergeable(a.nodes[ea.src], b.nodes[eb.src]) ||
                !nodesMergeable(a.nodes[ea.dst], b.nodes[eb.dst])) {
                continue;
            }
            Opportunity op;
            op.pairs = {{ea.src, eb.src}, {ea.dst, eb.dst}};
            const bool bit =
                a.nodes[ea.src].type == ir::ValueType::kBit;
            op.weight = bit ? tech.mux_input_area_bit
                            : tech.mux_input_area;
            opportunities.push_back(std::move(op));
        }
    }

    // 3. Compatibility graph + maximum-weight clique.
    CliqueProblem pb;
    pb.n = static_cast<int>(opportunities.size());
    pb.weight.resize(pb.n);
    pb.adj.assign(pb.n, std::vector<bool>(pb.n, false));
    for (int i = 0; i < pb.n; ++i) {
        pb.weight[i] = opportunities[i].weight;
        for (int j = i + 1; j < pb.n; ++j) {
            if (compatible(opportunities[i], opportunities[j])) {
                pb.adj[i][j] = pb.adj[j][i] = true;
            }
        }
    }
    const CliqueResult clique =
        maxWeightClique(pb, opt.clique_budget, opt.deadline);

    // 4. Selected pairings.
    std::vector<int> b_match(b.nodes.size(), -1); // B node -> A node
    for (int v : clique.vertices) {
        for (const auto &[ai, bj] : opportunities[v].pairs) {
            assert(b_match[bj] == -1 || b_match[bj] == ai);
            b_match[bj] = ai;
        }
    }

    // 5. Reconstruction.
    MergeResult result;
    result.saved_area = clique.weight;
    result.clique_optimal = clique.optimal;
    result.clique_timed_out = clique.timed_out;
    result.a_to_merged.resize(a.nodes.size());
    result.b_to_merged.assign(b.nodes.size(), -1);

    for (int i = 0; i < static_cast<int>(a.nodes.size()); ++i) {
        result.a_to_merged[i] =
            static_cast<int>(result.merged.nodes.size());
        result.merged.nodes.push_back(a.nodes[i]);
    }
    for (int j = 0; j < static_cast<int>(b.nodes.size()); ++j) {
        if (b_match[j] >= 0) {
            const int m = result.a_to_merged[b_match[j]];
            result.b_to_merged[j] = m;
            DpNode &merged_node = result.merged.nodes[m];
            merged_node.ops.insert(b.nodes[j].ops.begin(),
                                   b.nodes[j].ops.end());
            merged_node.is_output |= b.nodes[j].is_output;
            if (merged_node.name.empty())
                merged_node.name = b.nodes[j].name;
        } else {
            result.b_to_merged[j] =
                static_cast<int>(result.merged.nodes.size());
            result.merged.nodes.push_back(b.nodes[j]);
        }
    }

    for (const DpEdge &e : a.edges) {
        result.merged.addEdgeUnique(DpEdge{result.a_to_merged[e.src],
                                           result.a_to_merged[e.dst],
                                           e.port});
    }
    for (const DpEdge &e : b.edges) {
        result.merged.addEdgeUnique(DpEdge{result.b_to_merged[e.src],
                                           result.b_to_merged[e.dst],
                                           e.port});
    }
    return result;
}

namespace {

/** Validate @p pattern; on failure record the skip in @p result
 * (empty map entry keeps pattern_maps index-aligned) and remember the
 * reason in @p last_invalid. */
bool
patternUsable(const ir::Graph &pattern, std::size_t k,
              MultiMergeResult &result, Status &last_invalid)
{
    Status s = ir::validate(pattern);
    if (s.ok())
        return true;
    result.skipped_patterns.push_back(static_cast<int>(k));
    result.pattern_maps.emplace_back();
    last_invalid = std::move(s).withContext("merging pattern " +
                                            std::to_string(k));
    return false;
}

/** Roll one pairwise merge's clique outcome into the fold totals. */
void
noteCliqueOutcome(const MergeResult &mr, MultiMergeResult &result)
{
    if (!mr.clique_optimal)
        ++result.non_optimal_cliques;
    if (mr.clique_timed_out)
        ++result.clique_timeouts;
}

/** Deadline expired mid-fold: record patterns [k, n) as skipped
 * (index-aligned empty maps) and keep the datapath merged so far. */
void
skipRemaining(std::size_t k, std::size_t n, MultiMergeResult &result)
{
    result.deadline_expired = true;
    for (std::size_t r = k; r < n; ++r) {
        result.skipped_patterns.push_back(static_cast<int>(r));
        result.pattern_maps.emplace_back();
    }
}

} // namespace

MultiMergeResult
mergePatterns(const std::vector<ir::Graph> &patterns,
              const model::TechModel &tech, const MergeOptions &opt)
{
    MultiMergeResult result;
    if (Status fault = checkFault(FaultStage::kMerge); !fault.ok()) {
        result.status = std::move(fault);
        return result;
    }
    if (patterns.empty())
        return result;

    Status last_invalid = Status::okStatus();
    bool have_seed = false;
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        // The first pattern just seeds the fold (cheap); every later
        // one costs a clique search, so respect the deadline between
        // them and keep what is merged so far.
        if (have_seed && opt.deadline.expired()) {
            skipRemaining(k, patterns.size(), result);
            break;
        }
        if (!patternUsable(patterns[k], k, result, last_invalid))
            continue;
        std::vector<int> mapk;
        Datapath next = datapathFromPattern(patterns[k], &mapk);
        if (!have_seed) {
            result.merged = std::move(next);
            result.pattern_maps.push_back(std::move(mapk));
            have_seed = true;
            continue;
        }
        MergeResult mr =
            mergeDatapaths(result.merged, next, tech, opt);
        noteCliqueOutcome(mr, result);
        result.saved_area += mr.saved_area;

        // Relocate previous pattern maps through a_to_merged.
        for (auto &pm : result.pattern_maps)
            for (int &id : pm)
                if (id >= 0)
                    id = mr.a_to_merged[id];
        // New pattern map composes with b_to_merged.
        for (int &id : mapk)
            if (id >= 0)
                id = mr.b_to_merged[id];
        result.pattern_maps.push_back(std::move(mapk));
        result.merged = std::move(mr.merged);
    }
    if (!have_seed)
        result.status = Status(ErrorCode::kMergeInfeasible,
                               "every pattern failed validation: " +
                                   last_invalid.toString());
    return result;
}

MultiMergeResult
mergeIntoDatapath(const Datapath &seed,
                  const std::vector<ir::Graph> &patterns,
                  const model::TechModel &tech,
                  std::vector<int> *seed_map, const MergeOptions &opt)
{
    MultiMergeResult result;
    result.merged = seed;
    if (Status fault = checkFault(FaultStage::kMerge); !fault.ok()) {
        // Seed datapath is returned unchanged so the caller can still
        // fall back to the unmerged PE.
        result.status = std::move(fault);
        if (seed_map) {
            seed_map->resize(seed.nodes.size());
            for (std::size_t i = 0; i < seed.nodes.size(); ++i)
                (*seed_map)[i] = static_cast<int>(i);
        }
        return result;
    }

    std::vector<int> seed_relocation(seed.nodes.size());
    for (std::size_t i = 0; i < seed.nodes.size(); ++i)
        seed_relocation[i] = static_cast<int>(i);

    Status last_invalid = Status::okStatus();
    bool merged_any = false;
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        // The seed datapath is always a usable fallback, so deadline
        // expiry here degrades to "stop growing" rather than failing.
        if (opt.deadline.expired()) {
            skipRemaining(k, patterns.size(), result);
            break;
        }
        if (!patternUsable(patterns[k], k, result, last_invalid))
            continue;
        std::vector<int> mapk;
        const Datapath next = datapathFromPattern(patterns[k], &mapk);
        MergeResult mr =
            mergeDatapaths(result.merged, next, tech, opt);
        noteCliqueOutcome(mr, result);
        merged_any = true;
        result.saved_area += mr.saved_area;

        for (int &id : seed_relocation)
            id = mr.a_to_merged[id];
        for (auto &pm : result.pattern_maps)
            for (int &id : pm)
                if (id >= 0)
                    id = mr.a_to_merged[id];
        for (int &id : mapk)
            if (id >= 0)
                id = mr.b_to_merged[id];
        result.pattern_maps.push_back(std::move(mapk));
        result.merged = std::move(mr.merged);
    }
    if (!patterns.empty() && !merged_any && !result.deadline_expired)
        result.status = Status(ErrorCode::kMergeInfeasible,
                               "every pattern failed validation: " +
                                   last_invalid.toString());
    if (seed_map)
        *seed_map = std::move(seed_relocation);
    return result;
}

} // namespace apex::merging
