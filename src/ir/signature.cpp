#include "ir/signature.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

namespace apex::ir {

namespace {

/** Node label used for canonicalization (op + LUT table). */
std::string
nodeLabel(const Node &n)
{
    std::string label(opName(n.op));
    if (n.op == Op::kLut) {
        label += '#';
        label += std::to_string(n.param);
    }
    return label;
}

/**
 * Weisfeiler-Lehman color refinement over the directed, port-labeled
 * graph.  Returns a color id per node; isomorphic nodes get equal
 * colors (the converse may not hold, hence the exact phase below).
 *
 * Colors are compressed to dense ids after every round (sorted by
 * signature, so the ids themselves are isomorphism-invariant), and
 * refinement stops as soon as the partition stops splitting.  Keeping
 * the concatenated neighbourhood descriptions as strings instead
 * makes the color length grow exponentially with the round number,
 * which once dominated the entire mining phase.
 */
std::vector<int>
wlColors(const Graph &g)
{
    const std::size_t n = g.size();
    std::vector<int> color(n);
    std::size_t classes = 0;
    {
        std::map<std::string, int> ids;
        for (NodeId id = 0; id < n; ++id)
            ids.emplace(nodeLabel(g.node(id)), 0);
        int k = 0;
        for (auto &[label, cid] : ids)
            cid = k++;
        for (NodeId id = 0; id < n; ++id)
            color[id] = ids[nodeLabel(g.node(id))];
        classes = ids.size();
    }

    const auto fanout = g.fanouts();
    // (own color, operand colors by port, sorted fanout color@port)
    using Sig = std::tuple<int, std::vector<int>,
                           std::vector<std::pair<int, int>>>;
    for (std::size_t iter = 0; iter < n; ++iter) {
        std::vector<Sig> sigs(n);
        std::map<Sig, int> ids;
        for (NodeId id = 0; id < n; ++id) {
            const Node &nd = g.node(id);
            std::vector<int> ops;
            ops.reserve(nd.operands.size());
            for (const NodeId src : nd.operands)
                ops.push_back(color[src]);
            std::vector<std::pair<int, int>> outs;
            outs.reserve(fanout[id].size());
            for (const Edge &e : fanout[id])
                outs.emplace_back(color[e.dst], e.port);
            std::sort(outs.begin(), outs.end());
            sigs[id] = Sig(color[id], std::move(ops),
                           std::move(outs));
            ids.emplace(sigs[id], 0);
        }
        int k = 0;
        for (auto &[sig, cid] : ids)
            cid = k++;
        // Refinement only ever splits classes, so an unchanged class
        // count means the partition is stable.
        const bool stable = ids.size() == classes;
        for (NodeId id = 0; id < n; ++id)
            color[id] = ids[sigs[id]];
        classes = ids.size();
        if (stable)
            break;
    }
    return color;
}

} // namespace

std::string
canonicalCode(const Graph &g)
{
    const std::size_t n = g.size();
    if (n == 0)
        return "{}";

    const std::vector<int> colors = wlColors(g);

    // Candidate positions grouped by color: nodes must be placed in
    // non-decreasing color order; within a color class all orders are
    // tried and the lexicographically smallest code wins.
    std::vector<NodeId> order(n);
    for (NodeId id = 0; id < n; ++id)
        order[id] = id;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return colors[a] < colors[b];
    });

    // Position colors: position p may only hold nodes of this color.
    std::vector<int> pos_color(n);
    for (std::size_t p = 0; p < n; ++p)
        pos_color[p] = colors[order[p]];

    // This enumeration is the hottest loop of mining, and symmetric
    // patterns make it factorial in the largest color class.  The
    // search below produces the exact same minimum string as brute
    // force over all color-respecting permutations, but emits the
    // encoding incrementally and branches in *string order*: whenever
    // emission stalls (the next characters depend on an unassigned
    // position or node), it branches on exactly that assignment.
    // Every decision therefore extends the emitted prefix at once,
    // and a branch whose prefix is already lexicographically greater
    // than the best-known code is abandoned — every completion of it
    // would be greater too.  Once a prefix is strictly smaller than
    // the best, comparisons stop (`lt`) but enumeration continues to
    // find the minimum within that subtree.  Buffers are reused; no
    // allocation in steady state (string streams here would also
    // serialize the parallel miner on the allocator).
    std::vector<std::string> labels(n);
    for (NodeId id = 0; id < n; ++id)
        labels[id] = nodeLabel(g.node(id));

    std::string best;
    std::string prefix;
    std::vector<int> perm(n, -1);     // node -> position
    std::vector<NodeId> inv(n, kNoNode); // position -> node

    // Emission cursor: position being emitted and the next operand to
    // write (-1: the "label<" header is still unemitted).
    std::size_t epos = 0;
    int eop = -1;
    bool lt = false; // prefix already strictly below best

    enum class Need { kDone, kPosition, kNode };
    struct Stall {
        Need need;
        std::size_t pos; // kPosition: position lacking a node
        NodeId node;     // kNode: node lacking a position
    };

    // Extend `prefix` as far as the current assignment determines it.
    const auto advance = [&]() -> Stall {
        char buf[16];
        while (epos < n) {
            if (inv[epos] == kNoNode)
                return {Need::kPosition, epos, kNoNode};
            const Node &nd = g.node(inv[epos]);
            if (eop < 0) {
                prefix.append(labels[inv[epos]]);
                prefix.push_back('<');
                eop = 0;
            }
            while (eop < static_cast<int>(nd.operands.size())) {
                const NodeId src = nd.operands[eop];
                if (perm[src] == -1)
                    return {Need::kNode, 0, src};
                const int len = std::snprintf(buf, sizeof buf, "%d",
                                              perm[src]);
                prefix.append(buf, static_cast<std::size_t>(len));
                prefix.push_back(',');
                ++eop;
            }
            prefix.push_back('>');
            ++epos;
            eop = -1;
        }
        return {Need::kDone, 0, kNoNode};
    };

    std::function<void()> rec = [&]() {
        const std::size_t save_len = prefix.size();
        const std::size_t save_epos = epos;
        const int save_eop = eop;
        const bool save_lt = lt;

        const Stall stall = advance();

        bool prune = false;
        if (!lt && !best.empty()) {
            for (std::size_t i = save_len; i < prefix.size(); ++i) {
                if (i >= best.size() || prefix[i] > best[i]) {
                    prune = true;
                    break;
                }
                if (prefix[i] < best[i]) {
                    lt = true;
                    break;
                }
            }
        }

        if (!prune) {
            if (stall.need == Need::kDone) {
                if (best.empty() || prefix < best)
                    best = prefix;
            } else if (stall.need == Need::kPosition) {
                // Any still-unplaced node of this position's color.
                const int want = pos_color[stall.pos];
                for (NodeId id = 0; id < n; ++id) {
                    if (perm[id] != -1 || colors[id] != want)
                        continue;
                    perm[id] = static_cast<int>(stall.pos);
                    inv[stall.pos] = id;
                    rec();
                    inv[stall.pos] = kNoNode;
                    perm[id] = -1;
                }
            } else {
                // Any still-free position of this node's color.
                const int want = colors[stall.node];
                for (std::size_t p = 0; p < n; ++p) {
                    if (pos_color[p] != want || inv[p] != kNoNode)
                        continue;
                    perm[stall.node] = static_cast<int>(p);
                    inv[p] = stall.node;
                    rec();
                    inv[p] = kNoNode;
                    perm[stall.node] = -1;
                }
            }
        }

        prefix.resize(save_len);
        epos = save_epos;
        eop = save_eop;
        lt = save_lt;
    };
    rec();
    return best;
}

bool
isomorphic(const Graph &a, const Graph &b)
{
    if (a.size() != b.size())
        return false;
    return canonicalCode(a) == canonicalCode(b);
}

Fnv64 &
Fnv64::mixDouble(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return mix(bits);
}

std::uint64_t
fingerprint(const Graph &g)
{
    Fnv64 f;
    f.mix(static_cast<std::uint64_t>(g.size()));
    for (NodeId id = 0; id < g.size(); ++id) {
        const Node &n = g.node(id);
        f.mix(static_cast<std::uint64_t>(n.op));
        f.mix(n.param);
        f.mix(static_cast<std::uint64_t>(n.operands.size()));
        for (const NodeId src : n.operands)
            f.mix(static_cast<std::uint64_t>(src));
    }
    return f.digest();
}

} // namespace apex::ir
