#include "mining/isomorphism.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "runtime/telemetry.hpp"

/*
 * Label-indexed subgraph matcher.  The historic matcher
 * (tests/oracles/isomorphism_reference.cpp) scanned every target
 * node whenever a pattern node had no mapped neighbour to derive
 * candidates from; candidate filtering dominates matching cost (FAST,
 * arXiv:2102.10768), so this version adds a per-target label index
 * (op -> candidate nodes, LUTs bucketed by truth table) plus an
 * operand-arity / core-fanout-degree prefilter.  Both only remove
 * candidates that could never complete an embedding, so the embedding
 * list — order and `limit` truncation included — stays byte-identical
 * to the reference (enforced by tests/kernels_test.cpp).
 */
namespace apex::mining {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::Op;

bool
isPlaceholder(const Graph &pattern, NodeId id)
{
    const Op op = pattern.op(id);
    return op == Op::kInput || op == Op::kInputBit;
}

bool
labelsMatch(const Node &pattern_node, const Node &target_node)
{
    if (pattern_node.op != target_node.op)
        return false;
    // Constants match regardless of value (a weight is a weight);
    // LUTs must implement the same boolean function.
    if (pattern_node.op == Op::kLut)
        return pattern_node.param == target_node.param;
    return true;
}

namespace {

/** Index key mirroring labelsMatch(): op, plus the truth table for
 * LUTs only (consts match any value). */
std::pair<Op, std::uint64_t>
labelKey(const Node &n)
{
    return {n.op, n.op == Op::kLut ? n.param : 0};
}

/** Matching state shared across the backtracking recursion. */
struct MatchState {
    const Graph &pattern;
    const Graph &target;
    std::size_t limit;
    std::vector<Embedding> results;

    std::vector<NodeId> map;        // pattern id -> target id or kNoNode
    std::vector<bool> target_used;  // target ids used by core nodes
    std::vector<NodeId> core_order; // non-placeholder pattern ids
    std::vector<std::vector<Edge>> target_fanout;
    std::vector<std::vector<Edge>> pattern_fanout;

    /** Target nodes by label, ascending (built by one target scan). */
    std::map<std::pair<Op, std::uint64_t>, std::vector<NodeId>>
        label_index;
    /** Per pattern node: fanout edges into core (non-placeholder)
     * nodes.  An embedding maps those to distinct target fanout
     * edges, so any target node with fewer fanouts can be skipped. */
    std::vector<int> core_fanout_need;

    MatchState(const Graph &p, const Graph &t, std::size_t lim)
        : pattern(p), target(t), limit(lim),
          map(p.size(), ir::kNoNode), target_used(t.size(), false),
          target_fanout(t.fanouts()), pattern_fanout(p.fanouts()),
          core_fanout_need(p.size(), 0)
    {
        for (NodeId id = 0; id < t.size(); ++id)
            label_index[labelKey(t.node(id))].push_back(id);
        for (NodeId id = 0; id < p.size(); ++id)
            for (const Edge &e : pattern_fanout[id])
                if (!isPlaceholder(p, e.dst))
                    ++core_fanout_need[id];
    }
};

/** Check every pattern constraint touching @p pid once it is mapped to
 * @p tid; also bind placeholders feeding @p pid. */
bool
consistent(MatchState &st, NodeId pid, NodeId tid)
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
bindPlaceholders(MatchState &st, NodeId pid, NodeId tid)
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
recurse(MatchState &st, std::size_t depth)
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
    // possible; otherwise the label index replaces the historic
    // whole-target scan with the (already ascending) same-label
    // bucket.
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
    if (derived) {
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());
    } else {
        const auto it = st.label_index.find(labelKey(pn));
        if (it == st.label_index.end())
            return; // no target node carries this label
        candidates = it->second;
    }

    const int fanout_need = st.core_fanout_need[pid];
    for (NodeId tid : candidates) {
        if (tid >= st.target.size() || st.target_used[tid])
            continue;
        // Degree prefilter: pid's core fanout edges map to distinct
        // target fanout edges of tid, so too few fanouts can never
        // complete an embedding.
        if (static_cast<int>(st.target_fanout[tid].size()) <
            fanout_need)
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
findEmbeddings(const Graph &pattern, const Graph &target,
               std::size_t limit)
{
    telemetry::StageTimer timer(
        telemetry::histogram("apex.iso.ms"));
    MatchState st(pattern, target, limit);

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
