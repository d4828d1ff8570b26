#include "oracles/oracles.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <cstdint>
#include <tuple>

#include "ir/signature.hpp"
#include "mining/isomorphism.hpp"
#include "runtime/telemetry.hpp"

/*
 * The historic pattern-growth miner, kept verbatim as the
 * differential oracle for the DFS-code engine (miner.cpp) — the same
 * playbook as the *_reference.cpp kernels: every candidate extension
 * is materialized, deduplicated via the full ir::canonicalCode B&B
 * search, and its occurrences recomputed from scratch with the
 * isomorphism matcher.  The only deviations from the original are
 * (a) the per-pattern embedding cap reads MinerOptions::max_embeddings
 * instead of a private constant, and (b) the MineStats out-parameter,
 * so benches and the frontier-truncation diagnostic can compare both
 * engines on equal terms.
 */
namespace apex::mining {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::Op;

namespace {

/** Label key for a minable node: op + LUT truth table. */
using Label = std::pair<Op, std::uint64_t>;

Label
labelOf(const Node &n)
{
    return {n.op, n.op == Op::kLut ? n.param : 0};
}

bool
isMinable(const Graph &g, NodeId id, const MinerOptions &opt)
{
    const Op op = g.op(id);
    if (ir::opIsCompute(op))
        return true;
    return opt.mine_constants && op == Op::kConst;
}

/** Append a fresh placeholder of the type expected at (op, port). */
NodeId
addPlaceholder(Graph &g, Op consumer, int port)
{
    const Op in_op =
        ir::opOperandType(consumer, port) == ir::ValueType::kBit
            ? Op::kInputBit
            : Op::kInput;
    return g.addNode(in_op);
}

/** Build the one-core-node pattern for a label. */
Graph
seedPattern(Label label)
{
    Graph g;
    const int arity = ir::opArity(label.first);
    std::vector<NodeId> operands;
    for (int p = 0; p < arity; ++p)
        operands.push_back(addPlaceholder(g, label.first, p));
    g.addNode(label.first, std::move(operands), label.second);
    return g;
}

/** Remove placeholders without consumers; remap everything else. */
Graph
compactPattern(const Graph &g)
{
    std::vector<int> consumers(g.size(), 0);
    for (const ir::Edge &e : g.edges())
        ++consumers[e.src];

    std::vector<NodeId> keep;
    for (NodeId id = 0; id < g.size(); ++id) {
        const bool placeholder =
            g.op(id) == Op::kInput || g.op(id) == Op::kInputBit;
        if (!placeholder || consumers[id] > 0)
            keep.push_back(id);
    }
    return g.inducedSubgraph(keep);
}

/** A candidate one-edge extension of a pattern. */
struct Extension {
    enum Kind { kNewUp, kNewDown, kClose } kind;
    NodeId a;   ///< kNewUp/kClose: consumer node; kNewDown: producer.
    int port;   ///< Consumer input port involved.
    NodeId b;   ///< kClose: producer core node (else unused).
    Op op;      ///< kNew*: label of the added node.
    std::uint64_t param; ///< kNew*: LUT table of the added node.

    auto key() const { return std::tie(kind, a, port, b, op, param); }
    bool operator<(const Extension &o) const { return key() < o.key(); }
};

/** Internal pattern record: public data + raw embeddings. */
struct WorkPattern {
    MinedPattern mined;
    std::vector<Embedding> embeddings;
    std::vector<NodeId> core_ids; ///< Non-placeholder pattern ids.
};

/**
 * Recompute embeddings/occurrences of a materialized pattern.
 * @p code must be the pattern's canonical code; every caller has
 * already computed it for dedup, so recomputing it here would double
 * the miner's hottest cost.
 */
bool
evaluatePattern(const Graph &app, Graph pattern, std::string code,
                const MinerOptions &opt, WorkPattern *out)
{
    WorkPattern wp;
    wp.mined.pattern = std::move(pattern);
    wp.mined.code = std::move(code);
    for (NodeId id = 0; id < wp.mined.pattern.size(); ++id)
        if (!isPlaceholder(wp.mined.pattern, id))
            wp.core_ids.push_back(id);
    wp.mined.core_size = static_cast<int>(wp.core_ids.size());

    wp.embeddings =
        findEmbeddings(wp.mined.pattern, app, opt.max_embeddings);

    std::set<std::vector<NodeId>> occ_sets;
    std::map<NodeId, std::set<NodeId>> image; // core node -> targets
    for (const Embedding &e : wp.embeddings) {
        std::vector<NodeId> s;
        s.reserve(wp.core_ids.size());
        for (NodeId cid : wp.core_ids) {
            s.push_back(e.map[cid]);
            image[cid].insert(e.map[cid]);
        }
        std::sort(s.begin(), s.end());
        occ_sets.insert(std::move(s));
    }
    wp.mined.occurrences.assign(occ_sets.begin(), occ_sets.end());

    // GRAMI minimum-node-image support.
    wp.mined.mni_support =
        wp.embeddings.empty() ? 0 : INT32_MAX;
    for (NodeId cid : wp.core_ids) {
        wp.mined.mni_support =
            std::min(wp.mined.mni_support,
                     static_cast<int>(image[cid].size()));
    }

    wp.mined.frequency =
        opt.metric == SupportMetric::kMni
            ? wp.mined.mni_support
            : static_cast<int>(wp.mined.occurrences.size());

    if (wp.mined.frequency < opt.min_support)
        return false;
    *out = std::move(wp);
    return true;
}

/** Enumerate the extensions of @p wp that occur in @p app. */
std::set<Extension>
collectExtensions(const Graph &app, const WorkPattern &wp,
                  const MinerOptions &opt)
{
    std::set<Extension> result;
    const Graph &pat = wp.mined.pattern;
    const auto app_fanout = app.fanouts();

    for (const Embedding &emb : wp.embeddings) {
        // Reverse map: target node -> core pattern node.
        std::map<NodeId, NodeId> rev;
        for (NodeId cid : wp.core_ids)
            rev[emb.map[cid]] = cid;

        for (NodeId cid : wp.core_ids) {
            const NodeId t = emb.map[cid];
            const Node &pn = pat.node(cid);
            const Node &tn = app.node(t);

            // Upward: free operand ports of cid.
            for (std::size_t p = 0; p < pn.operands.size(); ++p) {
                if (!isPlaceholder(pat, pn.operands[p]))
                    continue;
                const NodeId s = tn.operands[p];
                if (!isMinable(app, s, opt))
                    continue;
                auto it = rev.find(s);
                if (it != rev.end()) {
                    result.insert(Extension{Extension::kClose, cid,
                                            static_cast<int>(p),
                                            it->second, Op::kConst, 0});
                } else {
                    const Label lab = labelOf(app.node(s));
                    result.insert(Extension{Extension::kNewUp, cid,
                                            static_cast<int>(p),
                                            ir::kNoNode, lab.first,
                                            lab.second});
                }
            }

            // Downward: app consumers of t.
            for (const ir::Edge &e : app_fanout[t]) {
                if (!isMinable(app, e.dst, opt))
                    continue;
                auto it = rev.find(e.dst);
                if (it != rev.end()) {
                    // Edge into an existing core node: a closing
                    // extension on that node's port, unless already
                    // part of the pattern.
                    const Node &pdn = pat.node(it->second);
                    if (e.port <
                            static_cast<int>(pdn.operands.size()) &&
                        isPlaceholder(pat, pdn.operands[e.port])) {
                        result.insert(Extension{Extension::kClose,
                                                it->second, e.port,
                                                cid, Op::kConst, 0});
                    }
                } else {
                    const Label lab = labelOf(app.node(e.dst));
                    result.insert(Extension{Extension::kNewDown, cid,
                                            e.port, ir::kNoNode,
                                            lab.first, lab.second});
                }
            }
        }
    }
    return result;
}

/** Apply one extension to a pattern; returns the compacted graph. */
Graph
applyExtension(const Graph &pattern, const Extension &ext)
{
    Graph g = pattern; // copy
    switch (ext.kind) {
      case Extension::kClose:
        g.setOperand(ext.a, ext.port, ext.b);
        break;
      case Extension::kNewUp: {
        const int arity = ir::opArity(ext.op);
        std::vector<NodeId> operands;
        for (int p = 0; p < arity; ++p)
            operands.push_back(addPlaceholder(g, ext.op, p));
        const NodeId n =
            g.addNode(ext.op, std::move(operands), ext.param);
        g.setOperand(ext.a, ext.port, n);
        break;
      }
      case Extension::kNewDown: {
        const int arity = ir::opArity(ext.op);
        std::vector<NodeId> operands;
        for (int p = 0; p < arity; ++p) {
            if (p == ext.port)
                operands.push_back(ext.a);
            else
                operands.push_back(addPlaceholder(g, ext.op, p));
        }
        g.addNode(ext.op, std::move(operands), ext.param);
        break;
      }
    }
    return compactPattern(g);
}

} // namespace

std::vector<MinedPattern>
minePatternsReference(const Graph &app, const MinerOptions &options,
                      MineStats *stats)
{
    APEX_SPAN("mine");
    telemetry::StageTimer timer(
        telemetry::histogram("apex.mine.ms"));
    MineStats local;
    MineStats &st = stats != nullptr ? *stats : local;
    st = MineStats{};
    std::vector<MinedPattern> results;
    std::set<std::string> seen;

    // Level 1: single-node patterns per frequent label.
    std::map<Label, int> label_count;
    for (NodeId id = 0; id < app.size(); ++id)
        if (isMinable(app, id, options))
            ++label_count[labelOf(app.node(id))];

    std::vector<WorkPattern> frontier;
    for (const auto &[label, count] : label_count) {
        if (count < options.min_support)
            continue;
        WorkPattern wp;
        Graph sp = seedPattern(label);
        std::string sp_code = ir::canonicalCode(sp);
        ++st.matcher_calls;
        if (evaluatePattern(app, std::move(sp), std::move(sp_code),
                            options, &wp)) {
            seen.insert(wp.mined.code);
            results.push_back(wp.mined);
            frontier.push_back(std::move(wp));
        }
    }

    // Pattern growth.
    runtime::ThreadPool *pool = options.pool;
    const bool parallel =
        pool != nullptr && pool->parallelism() > 1;
    int level = 1;
    while (!frontier.empty() &&
           level < options.max_pattern_nodes) {
        if (Status s = options.deadline.check(
                "mining level " + std::to_string(level + 1));
            !s.ok()) {
            throw ApexError(std::move(s));
        }
        APEX_SPAN("mine.level", {{"level", level + 1}});
        telemetry::counter("apex.mine.levels").add(1);
        ++st.levels;
        std::vector<WorkPattern> next;

        if (!parallel) {
            // Incremental sequential walk: stops growing as soon as
            // the per-level cap is reached.
            for (const WorkPattern &wp : frontier) {
                for (const Extension &ext :
                     collectExtensions(app, wp, options)) {
                    if (ext.kind != Extension::kClose &&
                        wp.mined.core_size >=
                            options.max_pattern_nodes) {
                        continue;
                    }
                    ++st.candidates;
                    Graph grown =
                        applyExtension(wp.mined.pattern, ext);
                    std::string code = ir::canonicalCode(grown);
                    if (!seen.insert(code).second) {
                        ++st.duplicates;
                        continue;
                    }
                    WorkPattern child;
                    ++st.matcher_calls;
                    if (!evaluatePattern(app, std::move(grown),
                                         std::move(code), options,
                                         &child)) {
                        continue;
                    }
                    results.push_back(child.mined);
                    next.push_back(std::move(child));
                    if (static_cast<int>(next.size()) >=
                        options.max_patterns_per_level) {
                        break;
                    }
                }
                if (static_cast<int>(next.size()) >=
                    options.max_patterns_per_level) {
                    break;
                }
            }
        } else {
            // Speculative parallel expansion with a deterministic
            // sequential merge.  Phase 1 grows and canonicalizes
            // every candidate of every frontier pattern; phase 2
            // picks the unique codes not yet seen (in the merge
            // order below); phase 3 evaluates those concurrently;
            // phase 4 replays the sequential frontier x extension
            // order against `seen` and the per-level cap, so the
            // result list is byte-identical to the sequential walk.
            // Past-the-cap candidates are wasted work, never wrong
            // answers.
            std::vector<std::set<Extension>> ext_sets(
                frontier.size());
            runtime::parallelFor(
                pool, static_cast<int>(frontier.size()),
                [&](int i) {
                    ext_sets[i] = collectExtensions(
                        app, frontier[i], options);
                });

            // Flatten to one work item per candidate: growth and
            // canonicalization are the per-candidate hot spots, so
            // per-frontier-pattern granularity would leave one big
            // pattern's expansion on a single lane.
            struct Seed {
                int owner;
                const Extension *ext;
            };
            std::vector<Seed> seeds;
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                for (const Extension &ext : ext_sets[i]) {
                    if (ext.kind != Extension::kClose &&
                        frontier[i].mined.core_size >=
                            options.max_pattern_nodes) {
                        continue;
                    }
                    seeds.push_back(
                        {static_cast<int>(i), &ext});
                }
            }

            struct Candidate {
                Graph grown;
                std::string code;
            };
            std::vector<Candidate> cands(seeds.size());
            runtime::parallelFor(
                pool, static_cast<int>(seeds.size()), [&](int k) {
                    Graph grown = applyExtension(
                        frontier[seeds[k].owner].mined.pattern,
                        *seeds[k].ext);
                    cands[k].code = ir::canonicalCode(grown);
                    cands[k].grown = std::move(grown);
                });
            st.candidates += static_cast<long long>(cands.size());

            std::map<std::string, std::size_t> pending;
            std::vector<const Candidate *> uniq;
            for (const Candidate &c : cands) {
                if (seen.count(c.code) != 0)
                    continue;
                if (pending.emplace(c.code, uniq.size()).second)
                    uniq.push_back(&c);
            }

            std::vector<WorkPattern> evaluated(uniq.size());
            std::vector<char> kept(uniq.size(), 0);
            runtime::parallelFor(
                pool, static_cast<int>(uniq.size()), [&](int k) {
                    kept[k] = evaluatePattern(app, uniq[k]->grown,
                                              uniq[k]->code,
                                              options,
                                              &evaluated[k])
                                  ? 1
                                  : 0;
                });
            st.matcher_calls += static_cast<long long>(uniq.size());

            for (const Candidate &c : cands) {
                if (!seen.insert(c.code).second) {
                    ++st.duplicates;
                    continue;
                }
                const std::size_t k = pending.find(c.code)->second;
                if (kept[k] == 0)
                    continue;
                results.push_back(evaluated[k].mined);
                next.push_back(std::move(evaluated[k]));
                if (static_cast<int>(next.size()) >=
                    options.max_patterns_per_level) {
                    break;
                }
            }
        }

        if (static_cast<int>(next.size()) >=
            options.max_patterns_per_level) {
            st.capped_levels.push_back(level + 1);
            telemetry::counter("apex.mine.frontier_truncated").add(1);
        }
        frontier = std::move(next);
        ++level;
    }
    st.patterns = static_cast<long long>(results.size());
    telemetry::counter("apex.mine.patterns")
        .add(static_cast<long long>(results.size()));
    return results;
}

} // namespace apex::mining
