#include "mining/miner.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <cstdint>
#include <tuple>

#include "ir/signature.hpp"
#include "mining/dfs_code.hpp"
#include "mining/isomorphism.hpp"
#include "mining/mis.hpp"
#include "runtime/telemetry.hpp"

/*
 * The DFS-code mining engine (Pangolin-style; see DESIGN.md Sec. 7j).
 *
 * It walks the exact same level-synchronous frontier x extension
 * order as the reference engine (tests/oracles/miner_reference.cpp)
 * — same seed order, same std::set<Extension> enumeration, same
 * per-level cap and first-discovery representatives — so its output
 * is byte-identical, but the two per-candidate hot spots are
 * replaced:
 *
 *  - identity: the minimum DFS code of the candidate's core
 *    (mining/dfs_code.hpp) instead of the full-graph
 *    ir::canonicalCode WL + permutation B&B.  ir::canonicalCode is
 *    computed once per *kept* pattern only, where the public
 *    MinedPattern::code contract needs it.
 *  - support: the parent's materialized embedding list is extended
 *    across the one added edge (a filter for kClose, one operand
 *    lookup for kNewUp, a fanout scan for kNewDown) instead of
 *    re-running the isomorphism matcher per candidate.  The matcher
 *    only runs when a list overflows MinerOptions::max_embeddings —
 *    then the candidate (and its descendants) re-match with the same
 *    truncation the reference engine uses, so the overflowed regime
 *    stays byte-identical too.
 *
 * Parallelism is the reference engine's speculative-expansion +
 * sequential-replay scheme, applied to every phase with chunked index
 * claiming; each parallel iteration writes only its own slot, so the
 * mined list is byte-identical at any job count.
 */
namespace apex::mining {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::Op;

namespace {

/** Per-candidate growth work is fine-grained; claiming indices in
 * chunks keeps the atomic counter off the profile. */
constexpr int kGrowthChunk = 16;

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

/** Internal pattern record: public data + the embedding list. */
struct WorkPattern {
    MinedPattern mined;
    std::vector<Embedding> embeddings;
    std::vector<NodeId> core_ids; ///< Non-placeholder pattern ids.
    /** False when the list was truncated at max_embeddings: support
     * then mirrors the reference engine's truncated matcher list, and
     * children must re-match instead of extending it. */
    bool embeddings_complete = true;
};

/** Fill occurrences / MNI / frequency from the embedding list. */
void
computeSupport(const MinerOptions &opt, WorkPattern *wp)
{
    std::set<std::vector<NodeId>> occ_sets;
    std::map<NodeId, std::set<NodeId>> image; // core node -> targets
    for (const Embedding &e : wp->embeddings) {
        std::vector<NodeId> s;
        s.reserve(wp->core_ids.size());
        for (NodeId cid : wp->core_ids) {
            s.push_back(e.map[cid]);
            image[cid].insert(e.map[cid]);
        }
        std::sort(s.begin(), s.end());
        occ_sets.insert(std::move(s));
    }
    wp->mined.occurrences.assign(occ_sets.begin(), occ_sets.end());

    // GRAMI minimum-node-image support.
    wp->mined.mni_support =
        wp->embeddings.empty() ? 0 : INT32_MAX;
    for (NodeId cid : wp->core_ids) {
        wp->mined.mni_support =
            std::min(wp->mined.mni_support,
                     static_cast<int>(image[cid].size()));
    }

    wp->mined.frequency =
        opt.metric == SupportMetric::kMni
            ? wp->mined.mni_support
            : static_cast<int>(wp->mined.occurrences.size());
}

/** Enumerate the extensions of @p wp that occur in @p app. */
std::set<Extension>
collectExtensions(const Graph &app,
                  const std::vector<std::vector<ir::Edge>> &app_fanout,
                  const WorkPattern &wp, const MinerOptions &opt)
{
    std::set<Extension> result;
    const Graph &pat = wp.mined.pattern;

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

/** One grown candidate with the id bookkeeping embedding extension
 * needs: pre-compaction ids are the parent's ids plus the appended
 * node/placeholders; `remap` carries them into the compacted child. */
struct Grown {
    Graph graph;                    ///< Compacted child pattern.
    std::map<NodeId, NodeId> remap; ///< Kept pre-compact id -> child.
    NodeId added = ir::kNoNode;     ///< Pre-compact id of the new core
                                    ///< node (kNew* only).
    /** The new node's placeholder operands: (pre-compact id, port). */
    std::vector<std::pair<NodeId, int>> added_placeholders;
};

/** Apply one extension; same growth + compaction as the reference
 * engine's applyExtension, with the id remapping captured. */
Grown
applyExtensionMapped(const Graph &pattern, const Extension &ext)
{
    Grown out;
    Graph g = pattern; // copy
    switch (ext.kind) {
      case Extension::kClose:
        g.setOperand(ext.a, ext.port, ext.b);
        break;
      case Extension::kNewUp: {
        const int arity = ir::opArity(ext.op);
        std::vector<NodeId> operands;
        for (int p = 0; p < arity; ++p) {
            const NodeId ph = addPlaceholder(g, ext.op, p);
            out.added_placeholders.emplace_back(ph, p);
            operands.push_back(ph);
        }
        out.added = g.addNode(ext.op, std::move(operands), ext.param);
        g.setOperand(ext.a, ext.port, out.added);
        break;
      }
      case Extension::kNewDown: {
        const int arity = ir::opArity(ext.op);
        std::vector<NodeId> operands;
        for (int p = 0; p < arity; ++p) {
            if (p == ext.port) {
                operands.push_back(ext.a);
            } else {
                const NodeId ph = addPlaceholder(g, ext.op, p);
                out.added_placeholders.emplace_back(ph, p);
                operands.push_back(ph);
            }
        }
        out.added = g.addNode(ext.op, std::move(operands), ext.param);
        break;
      }
    }

    // Compact: drop placeholders whose consumer edge was rebound away
    // (identical keep rule to the reference's compactPattern).
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
    out.graph = g.inducedSubgraph(keep, &out.remap);
    return out;
}

/**
 * Extend @p parent's embedding list across @p ext into the child's.
 *
 * Each child embedding restricts to a valid parent embedding (drop
 * the added node/placeholders; the freed port's placeholder binding
 * is the dropped node's image), and that restriction is injective, so
 * iterating the parent's complete list and checking the one added
 * edge enumerates every child embedding exactly once:
 *
 *  - kClose: keep parent embeddings whose image realizes the closed
 *    edge (the consumer's target operand equals the producer's image);
 *  - kNewUp: the consumer's freed target operand is the only possible
 *    image of the added producer — at most one child per parent;
 *  - kNewDown: every target fanout of the producer's image on the
 *    right port yields a child.
 *
 * kNew* images must carry the extension's label and be distinct from
 * the parent core's image (the matcher's core injectivity).
 *
 * @return false when the child list would exceed @p limit; @p out is
 * then meaningless and the caller falls back to the matcher.
 */
bool
extendEmbeddings(const Graph &app,
                 const std::vector<std::vector<ir::Edge>> &app_fanout,
                 const WorkPattern &parent, const Extension &ext,
                 const Grown &grown, std::size_t limit,
                 std::vector<Embedding> *out)
{
    const std::size_t parent_size = parent.mined.pattern.size();
    const std::size_t child_size = grown.graph.size();

    // Split the remap once: kept parent ids vs the added structure.
    std::vector<std::pair<NodeId, NodeId>> kept_parent; // old -> child
    for (const auto &[old_id, child_id] : grown.remap)
        if (old_id < parent_size)
            kept_parent.emplace_back(old_id, child_id);
    NodeId added_child = ir::kNoNode;
    std::vector<std::pair<NodeId, int>> ph_child; // child id, port
    if (ext.kind != Extension::kClose) {
        added_child = grown.remap.at(grown.added);
        for (const auto &[ph, port] : grown.added_placeholders)
            ph_child.emplace_back(grown.remap.at(ph), port);
    }

    const auto matchesLabel = [&ext](const Node &n) {
        if (n.op != ext.op)
            return false;
        return ext.op != Op::kLut || n.param == ext.param;
    };

    out->clear();
    for (const Embedding &e : parent.embeddings) {
        const NodeId ta = e.map[ext.a];
        const auto emit = [&](NodeId image) {
            if (out->size() >= limit)
                return false;
            Embedding ce;
            ce.map.assign(child_size, ir::kNoNode);
            for (const auto &[old_id, child_id] : kept_parent)
                ce.map[child_id] = e.map[old_id];
            if (ext.kind != Extension::kClose) {
                ce.map[added_child] = image;
                const Node &in = app.node(image);
                for (const auto &[child_id, port] : ph_child)
                    ce.map[child_id] = in.operands[port];
            }
            out->push_back(std::move(ce));
            return true;
        };
        const auto usedByCore = [&](NodeId image) {
            for (NodeId cid : parent.core_ids)
                if (e.map[cid] == image)
                    return true;
            return false;
        };

        switch (ext.kind) {
          case Extension::kClose:
            if (app.node(ta).operands[ext.port] == e.map[ext.b])
                if (!emit(ir::kNoNode))
                    return false;
            break;
          case Extension::kNewUp: {
            const NodeId s = app.node(ta).operands[ext.port];
            if (matchesLabel(app.node(s)) && !usedByCore(s))
                if (!emit(s))
                    return false;
            break;
          }
          case Extension::kNewDown:
            for (const ir::Edge &fe : app_fanout[ta]) {
                if (fe.port != ext.port)
                    continue;
                if (matchesLabel(app.node(fe.dst)) &&
                    !usedByCore(fe.dst))
                    if (!emit(fe.dst))
                        return false;
            }
            break;
        }
    }
    return true;
}

} // namespace

std::vector<MinedPattern>
FrequentSubgraphMiner::mine(const Graph &app, MineStats *stats) const
{
    APEX_SPAN("mine");
    telemetry::StageTimer timer(
        telemetry::histogram("apex.mine.ms"));
    MineStats local;
    MineStats &st = stats != nullptr ? *stats : local;
    st = MineStats{};
    std::vector<MinedPattern> results;
    std::set<dfs::Code> seen;
    runtime::ThreadPool *pool = options_.pool;
    const auto app_fanout = app.fanouts();

    // Level 1: single-node patterns per frequent label.  The per-label
    // embedding list is the label's node bucket itself (ascending ids
    // — the matcher's bucket order), so no matching runs here either.
    std::map<Label, std::vector<NodeId>> buckets;
    for (NodeId id = 0; id < app.size(); ++id)
        if (isMinable(app, id, options_))
            buckets[labelOf(app.node(id))].push_back(id);

    std::vector<WorkPattern> frontier;
    for (const auto &[label, nodes] : buckets) {
        if (static_cast<int>(nodes.size()) < options_.min_support)
            continue;
        WorkPattern wp;
        wp.mined.pattern = seedPattern(label);
        wp.mined.code = ir::canonicalCode(wp.mined.pattern);
        const NodeId core = static_cast<NodeId>(
            wp.mined.pattern.size() - 1);
        wp.core_ids.push_back(core);
        wp.mined.core_size = 1;
        const std::size_t take =
            std::min(nodes.size(), options_.max_embeddings);
        wp.embeddings_complete = nodes.size() <= options_.max_embeddings;
        wp.embeddings.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            Embedding e;
            e.map.assign(wp.mined.pattern.size(), ir::kNoNode);
            const Node &tn = app.node(nodes[i]);
            for (std::size_t p = 0; p < tn.operands.size(); ++p)
                e.map[p] = tn.operands[p];
            e.map[core] = nodes[i];
            wp.embeddings.push_back(std::move(e));
        }
        computeSupport(options_, &wp);
        if (wp.mined.frequency < options_.min_support)
            continue;
        seen.insert(dfs::minCode(dfs::coreView(wp.mined.pattern)));
        results.push_back(wp.mined);
        frontier.push_back(std::move(wp));
    }

    // Pattern growth: one speculative parallel expansion + sequential
    // replay per level (parallelFor degrades to the same loop inline
    // when no pool is wired, so there is exactly one code path).
    int level = 1;
    while (!frontier.empty() &&
           level < options_.max_pattern_nodes) {
        if (Status s = options_.deadline.check(
                "mining level " + std::to_string(level + 1));
            !s.ok()) {
            throw ApexError(std::move(s));
        }
        APEX_SPAN("mine.level", {{"level", level + 1}});
        telemetry::counter("apex.mine.levels").add(1);
        ++st.levels;

        // Phase 1: per-frontier-pattern extension sets.
        std::vector<std::set<Extension>> ext_sets(frontier.size());
        runtime::parallelFor(
            pool, static_cast<int>(frontier.size()), [&](int i) {
                ext_sets[i] = collectExtensions(
                    app, app_fanout, frontier[i], options_);
            });

        // Phase 2: flatten to one work item per candidate, in the
        // frontier x extension replay order.
        struct Seed {
            int owner;
            const Extension *ext;
        };
        std::vector<Seed> seeds;
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            for (const Extension &ext : ext_sets[i]) {
                if (ext.kind != Extension::kClose &&
                    frontier[i].mined.core_size >=
                        options_.max_pattern_nodes) {
                    continue;
                }
                seeds.push_back({static_cast<int>(i), &ext});
            }
        }
        st.candidates += static_cast<long long>(seeds.size());

        // Phase 3: grow every candidate and compute its minimum DFS
        // code — the cheap canonical identity.
        struct Candidate {
            Grown grown;
            dfs::Code key;
        };
        std::vector<Candidate> cands(seeds.size());
        runtime::parallelForChunked(
            pool, static_cast<int>(seeds.size()), kGrowthChunk,
            [&](int k) {
                cands[k].grown = applyExtensionMapped(
                    frontier[seeds[k].owner].mined.pattern,
                    *seeds[k].ext);
                cands[k].key =
                    dfs::minCode(dfs::coreView(cands[k].grown.graph));
            });

        // Phase 4: pick the unique unseen codes, in replay order.
        std::map<dfs::Code, std::size_t> pending;
        std::vector<std::size_t> uniq;
        for (std::size_t k = 0; k < cands.size(); ++k) {
            if (seen.count(cands[k].key) != 0)
                continue;
            if (pending.emplace(cands[k].key, uniq.size()).second)
                uniq.push_back(k);
        }

        // Phase 5: evaluate the uniques — extend the parent's
        // embedding list (or re-match on overflow), compute support,
        // and canonicalize only the keepers.
        std::vector<WorkPattern> evaluated(uniq.size());
        std::vector<char> kept(uniq.size(), 0);
        std::vector<long long> extended(uniq.size(), 0);
        std::vector<char> rematched(uniq.size(), 0);
        runtime::parallelForChunked(
            pool, static_cast<int>(uniq.size()), kGrowthChunk,
            [&](int u) {
                const std::size_t k = uniq[u];
                const WorkPattern &parent =
                    frontier[seeds[k].owner];
                WorkPattern child;
                const bool from_list =
                    parent.embeddings_complete &&
                    extendEmbeddings(app, app_fanout, parent,
                                     *seeds[k].ext, cands[k].grown,
                                     options_.max_embeddings,
                                     &child.embeddings);
                child.mined.pattern =
                    std::move(cands[k].grown.graph);
                if (from_list) {
                    child.embeddings_complete = true;
                    extended[u] = static_cast<long long>(
                        child.embeddings.size());
                } else {
                    child.embeddings = findEmbeddings(
                        child.mined.pattern, app,
                        options_.max_embeddings);
                    child.embeddings_complete =
                        child.embeddings.size() <
                        options_.max_embeddings;
                    rematched[u] = 1;
                }
                for (NodeId id = 0;
                     id < child.mined.pattern.size(); ++id)
                    if (!isPlaceholder(child.mined.pattern, id))
                        child.core_ids.push_back(id);
                child.mined.core_size =
                    static_cast<int>(child.core_ids.size());
                computeSupport(options_, &child);
                if (child.mined.frequency < options_.min_support)
                    return;
                child.mined.code =
                    ir::canonicalCode(child.mined.pattern);
                kept[u] = 1;
                evaluated[u] = std::move(child);
            });
        for (std::size_t u = 0; u < uniq.size(); ++u) {
            st.embeddings += extended[u];
            st.matcher_calls += rematched[u];
        }

        // Phase 6: sequential replay against `seen` and the per-level
        // cap — byte-identical to the reference engine's merge.
        std::vector<WorkPattern> next;
        for (std::size_t k = 0; k < cands.size(); ++k) {
            if (!seen.insert(cands[k].key).second) {
                ++st.duplicates;
                continue;
            }
            const std::size_t u =
                pending.find(cands[k].key)->second;
            if (kept[u] == 0)
                continue;
            results.push_back(evaluated[u].mined);
            next.push_back(std::move(evaluated[u]));
            if (static_cast<int>(next.size()) >=
                options_.max_patterns_per_level) {
                break;
            }
        }

        if (static_cast<int>(next.size()) >=
            options_.max_patterns_per_level) {
            st.capped_levels.push_back(level + 1);
            telemetry::counter("apex.mine.frontier_truncated").add(1);
        }
        frontier = std::move(next);
        ++level;
    }
    st.patterns = static_cast<long long>(results.size());
    telemetry::counter("apex.mine.patterns")
        .add(static_cast<long long>(results.size()));
    telemetry::counter("apex.mine.embeddings").add(st.embeddings);
    telemetry::counter("apex.mine.pruned_noncanonical")
        .add(st.duplicates);
    telemetry::counter("apex.mine.matcher_fallbacks")
        .add(st.matcher_calls);
    return results;
}

void
rankPatterns(std::vector<MinedPattern> &patterns)
{
    APEX_SPAN("mis.rank",
              {{"patterns", static_cast<long long>(patterns.size())}});
    telemetry::StageTimer timer(
        telemetry::histogram("apex.mis.ms"));
    // Drop patterns that contain no real compute (constants only).
    std::erase_if(patterns, [](const MinedPattern &p) {
        for (NodeId id = 0; id < p.pattern.size(); ++id)
            if (ir::opIsCompute(p.pattern.op(id)))
                return false;
        return true;
    });

    for (MinedPattern &p : patterns)
        p.mis_size = maximalIndependentSet(p.occurrences).size;

    std::sort(patterns.begin(), patterns.end(),
              [](const MinedPattern &a, const MinedPattern &b) {
                  if (a.mis_size != b.mis_size)
                      return a.mis_size > b.mis_size;
                  if (a.core_size != b.core_size)
                      return a.core_size > b.core_size;
                  return a.code < b.code;
              });
}

} // namespace apex::mining
