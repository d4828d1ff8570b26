#include <algorithm>

#include "oracles/oracles.hpp"

/**
 * @file
 * Retained reference subgraph-isomorphism search: the historic
 * backtracking matcher whose unconstrained pattern nodes scan the
 * whole target graph, kept verbatim as the differential-testing
 * oracle for the label-indexed matcher in isomorphism.cpp.  It must
 * return byte-identical embedding lists (order included, truncation
 * via `limit` included).
 */

namespace apex::mining {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;

namespace {

/** Matching state shared across the backtracking recursion. */
struct RefMatchState {
    const Graph &pattern;
    const Graph &target;
    std::size_t limit;
    std::vector<Embedding> results;

    std::vector<NodeId> map;        // pattern id -> target id or kNoNode
    std::vector<bool> target_used;  // target ids used by core nodes
    std::vector<NodeId> core_order; // non-placeholder pattern ids
    std::vector<std::vector<Edge>> target_fanout;
    std::vector<std::vector<Edge>> pattern_fanout;

    RefMatchState(const Graph &p, const Graph &t, std::size_t lim)
        : pattern(p), target(t), limit(lim),
          map(p.size(), ir::kNoNode), target_used(t.size(), false),
          target_fanout(t.fanouts()), pattern_fanout(p.fanouts()) {}
};

/** Check every pattern constraint touching @p pid once it is mapped to
 * @p tid; also bind placeholders feeding @p pid. */
bool
consistent(RefMatchState &st, NodeId pid, NodeId tid)
{
    const Node &pn = st.pattern.node(pid);
    const Node &tn = st.target.node(tid);
    if (!labelsMatch(pn, tn))
        return false;
    if (pn.operands.size() != tn.operands.size())
        return false;

    // Operand edges of pid.  Shared placeholders must bind
    // consistently, including two ports of this same node.
    std::vector<std::pair<NodeId, NodeId>> local_binds;
    for (std::size_t p = 0; p < pn.operands.size(); ++p) {
        const NodeId psrc = pn.operands[p];
        const NodeId tsrc = tn.operands[p];
        if (isPlaceholder(st.pattern, psrc)) {
            NodeId expected = st.map[psrc];
            for (const auto &[ph, bound] : local_binds)
                if (ph == psrc)
                    expected = bound;
            if (expected != ir::kNoNode && expected != tsrc)
                return false;
            local_binds.emplace_back(psrc, tsrc);
            continue;
        }
        if (st.map[psrc] != ir::kNoNode && st.map[psrc] != tsrc)
            return false;
    }

    // Fanout edges of pid into already-mapped pattern nodes.
    for (const Edge &e : st.pattern_fanout[pid]) {
        if (isPlaceholder(st.pattern, e.dst))
            continue;
        const NodeId tdst = st.map[e.dst];
        if (tdst == ir::kNoNode)
            continue;
        const Node &tdn = st.target.node(tdst);
        if (e.port >= static_cast<int>(tdn.operands.size()) ||
            tdn.operands[e.port] != tid) {
            return false;
        }
    }
    return true;
}

/** Bind the placeholders feeding @p pid; returns the bindings made so
 * they can be undone on backtrack. */
std::vector<NodeId>
bindPlaceholders(RefMatchState &st, NodeId pid, NodeId tid)
{
    std::vector<NodeId> bound;
    const Node &pn = st.pattern.node(pid);
    const Node &tn = st.target.node(tid);
    for (std::size_t p = 0; p < pn.operands.size(); ++p) {
        const NodeId psrc = pn.operands[p];
        if (isPlaceholder(st.pattern, psrc) &&
            st.map[psrc] == ir::kNoNode) {
            st.map[psrc] = tn.operands[p];
            bound.push_back(psrc);
        }
    }
    return bound;
}

void
recurse(RefMatchState &st, std::size_t depth)
{
    if (st.limit && st.results.size() >= st.limit)
        return;
    if (depth == st.core_order.size()) {
        Embedding e;
        e.map = st.map;
        st.results.push_back(std::move(e));
        return;
    }

    const NodeId pid = st.core_order[depth];

    // Candidate targets: derive from an already-mapped neighbour when
    // possible; otherwise scan all target nodes.
    std::vector<NodeId> candidates;
    bool derived = false;

    const Node &pn = st.pattern.node(pid);
    // Mapped producer constraint: pid consumes a mapped core node.
    for (std::size_t p = 0; p < pn.operands.size() && !derived; ++p) {
        const NodeId psrc = pn.operands[p];
        if (isPlaceholder(st.pattern, psrc) ||
            st.map[psrc] == ir::kNoNode) {
            continue;
        }
        // pid must be a consumer of map(psrc) at port p.
        for (const Edge &e : st.target_fanout[st.map[psrc]])
            if (e.port == static_cast<int>(p))
                candidates.push_back(e.dst);
        derived = true;
    }
    // Mapped consumer constraint: a mapped core node consumes pid.
    if (!derived) {
        for (const Edge &e : st.pattern_fanout[pid]) {
            if (isPlaceholder(st.pattern, e.dst) ||
                st.map[e.dst] == ir::kNoNode) {
                continue;
            }
            const Node &tdn = st.target.node(st.map[e.dst]);
            if (e.port < static_cast<int>(tdn.operands.size()))
                candidates.push_back(tdn.operands[e.port]);
            derived = true;
            break;
        }
    }
    if (!derived) {
        for (NodeId t = 0; t < st.target.size(); ++t)
            candidates.push_back(t);
    }

    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    for (NodeId tid : candidates) {
        if (tid >= st.target.size() || st.target_used[tid])
            continue;
        if (!consistent(st, pid, tid))
            continue;
        st.map[pid] = tid;
        st.target_used[tid] = true;
        std::vector<NodeId> bound = bindPlaceholders(st, pid, tid);
        recurse(st, depth + 1);
        for (NodeId b : bound)
            st.map[b] = ir::kNoNode;
        st.target_used[tid] = false;
        st.map[pid] = ir::kNoNode;
    }
}

} // namespace

std::vector<Embedding>
findEmbeddingsReference(const Graph &pattern, const Graph &target,
                        std::size_t limit)
{
    RefMatchState st(pattern, target, limit);

    // Core nodes in a connectivity-friendly order: topological order of
    // the pattern keeps each node adjacent to a previously ordered one
    // for connected patterns.
    for (NodeId id : pattern.topoOrder())
        if (!isPlaceholder(pattern, id))
            st.core_order.push_back(id);

    if (st.core_order.empty())
        return {};
    recurse(st, 0);
    return std::move(st.results);
}

} // namespace apex::mining
