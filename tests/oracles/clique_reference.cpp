#include <algorithm>
#include <cstddef>
#include <vector>

#include "oracles/oracles.hpp"
#include "merging/clique_detail.hpp"

/**
 * @file
 * Retained reference max-weight-clique solver: the historic
 * vector-of-vector search, kept as the differential-testing oracle
 * for the bitset BBMC rewrite and as the node-count baseline for the
 * kernel benchmarks.
 *
 * The search structure (budget accounting, deadline stride, leaf
 * shortcut, strict-improvement incumbent, branch order) mirrors
 * maxWeightClique() statement for statement; only the data
 * structures (candidate vectors with per-node allocation) and the
 * selectable bound differ.  With CliqueBound::kColoring every path —
 * including budget/deadline truncation — must return byte-identical
 * results to the bitset solver; kWeightSum reproduces the historic
 * weak remaining-weight bound.
 */

namespace apex::merging {

namespace {

struct ReferenceSearch {
    static constexpr std::int64_t kDeadlineStride = 8192;

    const CliqueProblem &pb;
    std::int64_t budget;
    const Deadline &deadline;
    CliqueBound bound_kind;
    std::int64_t nodes = 0;
    std::vector<int> best;
    double best_weight = 0.0;
    bool optimal = true;
    bool timed_out = false;

    ReferenceSearch(const CliqueProblem &p, std::int64_t b,
                    const Deadline &d, CliqueBound kind)
        : pb(p), budget(b), deadline(d), bound_kind(kind) {}

    /** Suffix bounds over @p candidates: either the plain remaining-
     * weight sum or the greedy-colouring bound.  The colouring rule —
     * candidates in list order, smallest non-clashing class, suffix
     * totals accumulated back-to-front — must match BitSearch
     * exactly, including the floating-point evaluation order. */
    std::vector<double>
    suffixBounds(const std::vector<int> &candidates) const
    {
        const std::size_t k = candidates.size();
        std::vector<double> bound(k);
        if (bound_kind == CliqueBound::kWeightSum) {
            double rest = 0.0;
            for (std::size_t i = k; i-- > 0;) {
                rest += pb.weight[candidates[i]];
                bound[i] = rest;
            }
            return bound;
        }
        std::vector<std::vector<int>> classes;
        std::vector<int> colour_of(k);
        for (std::size_t i = 0; i < k; ++i) {
            const int v = candidates[i];
            std::size_t c = 0;
            for (; c < classes.size(); ++c) {
                bool clash = false;
                for (int u : classes[c])
                    if (pb.adj[v][u]) {
                        clash = true;
                        break;
                    }
                if (!clash)
                    break;
            }
            if (c == classes.size())
                classes.emplace_back();
            classes[c].push_back(v);
            colour_of[i] = static_cast<int>(c);
        }
        std::vector<double> colour_max(classes.size(), 0.0);
        double total = 0.0;
        for (std::size_t i = k; i-- > 0;) {
            const int c = colour_of[i];
            const double w = pb.weight[candidates[i]];
            if (w > colour_max[c]) {
                total += w - colour_max[c];
                colour_max[c] = w;
            }
            bound[i] = total;
        }
        return bound;
    }

    void
    expand(std::vector<int> &current, double current_weight,
           std::vector<int> &candidates)
    {
        if (--budget <= 0) {
            optimal = false;
            return;
        }
        if (++nodes % kDeadlineStride == 0 && deadline.expired()) {
            optimal = false;
            timed_out = true;
            budget = 0; // unwind the whole recursion
            return;
        }
        if (candidates.empty()) {
            if (current_weight > best_weight) {
                best_weight = current_weight;
                best = current;
            }
            return;
        }
        const std::vector<double> bound = suffixBounds(candidates);

        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (current_weight + bound[i] <= best_weight)
                return; // bound: the suffix cannot beat the incumbent
            const int v = candidates[i];

            std::vector<int> next;
            next.reserve(candidates.size() - i);
            for (std::size_t j = i + 1; j < candidates.size(); ++j)
                if (pb.adj[v][candidates[j]])
                    next.push_back(candidates[j]);

            current.push_back(v);
            const double w = current_weight + pb.weight[v];
            if (next.empty()) {
                if (w > best_weight) {
                    best_weight = w;
                    best = current;
                }
            } else {
                expand(current, w, next);
            }
            current.pop_back();
            if (budget <= 0)
                return;
        }
    }
};

} // namespace

CliqueResult
maxWeightCliqueReference(const CliqueProblem &pb,
                         std::int64_t node_budget,
                         const Deadline &deadline, CliqueBound bound)
{
    if (pb.n == 0)
        return {};

    CliqueResult seed = detail::greedyClique(pb);
    if (deadline.expired()) {
        seed.optimal = false;
        seed.timed_out = true;
        return seed;
    }

    ReferenceSearch search(pb, node_budget, deadline, bound);
    search.best = seed.vertices;
    search.best_weight = seed.weight;

    std::vector<int> candidates = detail::branchOrder(pb);
    std::vector<int> current;
    search.expand(current, 0.0, candidates);

    CliqueResult result;
    result.vertices = std::move(search.best);
    std::sort(result.vertices.begin(), result.vertices.end());
    result.weight = search.best_weight;
    result.optimal = search.optimal;
    result.timed_out = search.timed_out;
    result.nodes = search.nodes;
    return result;
}

} // namespace apex::merging
