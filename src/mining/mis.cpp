#include "mining/mis.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "core/bitset.hpp"
#include "runtime/telemetry.hpp"

/*
 * Optimized MIS kernels.  Every function must return byte-identical
 * results to its counterpart in tests/oracles/mis_reference.cpp (the
 * differential suite in tests/kernels_test.cpp enforces this): the
 * overlap rows hold exactly the reference's adjacency, greedy picks
 * the (min live degree, min index) vertex, and the exact search
 * pivots on the (max live degree, min index) vertex with
 * strict-improvement incumbents — all identical decision rules, only
 * the data structures changed.
 */
namespace apex::mining {

namespace {

/**
 * True when one target node lies in every occurrence, so the overlap
 * graph is complete.  Such a node is one of occurrence 0's, and each
 * of those is looked up in every other occurrence: membership, not a
 * count of incidences, so an occurrence listing a node twice is still
 * one occurrence.
 */
bool
someNodeInEvery(const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    return std::any_of(
        occurrences[0].begin(), occurrences[0].end(),
        [&](ir::NodeId node) {
            return std::all_of(
                occurrences.begin() + 1, occurrences.end(),
                [&](const std::vector<ir::NodeId> &occ) {
                    return std::find(occ.begin(), occ.end(), node) !=
                           occ.end();
                });
        });
}

/**
 * The overlap graph as bitset rows: row i = occurrences sharing a
 * target node with occurrence i, i itself excluded.  Occurrences that
 * hold one node form a clique, so each node's bucket is ORed into the
 * rows of its members — only over the words the bucket spans, which
 * keeps small local buckets cheap on large instances.
 */
core::BitsetMatrix
overlapRows(const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    const std::size_t n = occurrences.size();
    // (target node, occurrence) incidences, sorted: each node's run
    // is its bucket, ascending by occurrence.
    std::vector<std::pair<ir::NodeId, int>> incidence;
    std::size_t total = 0;
    for (const auto &occ : occurrences)
        total += occ.size();
    incidence.reserve(total);
    for (std::size_t i = 0; i < n; ++i)
        for (ir::NodeId node : occurrences[i])
            incidence.emplace_back(node, static_cast<int>(i));
    std::sort(incidence.begin(), incidence.end());

    core::BitsetMatrix rows(n, n);
    core::DenseBitset bucket(n);
    for (std::size_t lo = 0; lo < incidence.size();) {
        std::size_t hi = lo;
        while (hi < incidence.size() &&
               incidence[hi].first == incidence[lo].first)
            ++hi;
        if (hi - lo > 1) {
            for (std::size_t a = lo; a < hi; ++a)
                bucket.set(incidence[a].second);
            const std::size_t w0 = incidence[lo].second / 64;
            const std::size_t w1 = incidence[hi - 1].second / 64 + 1;
            for (std::size_t a = lo; a < hi; ++a) {
                std::uint64_t *row = rows.row(incidence[a].second);
                for (std::size_t w = w0; w < w1; ++w)
                    row[w] |= bucket.data()[w];
            }
            for (std::size_t a = lo; a < hi; ++a)
                bucket.reset(incidence[a].second);
        }
        lo = hi;
    }
    for (std::size_t i = 0; i < n; ++i)
        rows.reset(i, i);
    return rows;
}

/** Visit the set bits of row & live, ascending. */
template <typename Fn>
void
forEachLive(const std::uint64_t *row, const core::DenseBitset &live,
            Fn &&fn)
{
    const std::uint64_t *alive = live.data();
    for (std::size_t w = 0; w < live.words(); ++w) {
        std::uint64_t word = row[w] & alive[w];
        while (word) {
            fn(static_cast<int>(w * 64 + std::countr_zero(word)));
            word &= word - 1;
        }
    }
}

/**
 * Min-degree greedy with a bucket-by-degree structure: buckets[d] is
 * a lazy min-heap of vertices whose degree was d when pushed.  Each
 * degree decrement pushes a fresh copy, so a live vertex always has a
 * valid entry at its true degree and stale copies are skipped on pop.
 * Each pick is near O(1) amortized instead of an O(n) scan; the
 * picked vertex — (min live degree, min index) — is identical to the
 * reference scan's.
 */
MisResult
greedyMis(const core::BitsetMatrix &adj)
{
    const int n = static_cast<int>(adj.rows());
    MisResult result;
    core::DenseBitset alive(n);
    alive.setAll();
    std::vector<int> degree(n);
    int maxd = 0;
    for (int i = 0; i < n; ++i) {
        degree[i] = static_cast<int>(adj.rowCount(i));
        maxd = std::max(maxd, degree[i]);
    }
    using MinHeap = std::priority_queue<int, std::vector<int>,
                                        std::greater<int>>;
    std::vector<MinHeap> buckets(maxd + 1);
    for (int i = 0; i < n; ++i)
        buckets[degree[i]].push(i);

    std::vector<int> removed;
    int remaining = n;
    int cur = 0;
    while (remaining > 0) {
        int best = -1;
        while (best == -1) {
            if (buckets[cur].empty()) {
                ++cur;
                continue;
            }
            const int top = buckets[cur].top();
            if (!alive.test(top) || degree[top] != cur) {
                buckets[cur].pop(); // stale copy
                continue;
            }
            best = top;
        }
        result.chosen.push_back(best);
        // Clear best and its live neighbourhood from `alive` first,
        // then charge the survivors: edges inside the removed set
        // are never walked.
        removed.assign(1, best);
        forEachLive(adj.row(best), alive,
                    [&](int nb) { removed.push_back(nb); });
        for (int r : removed)
            alive.reset(r);
        remaining -= static_cast<int>(removed.size());
        for (int r : removed)
            forEachLive(adj.row(r), alive, [&](int nb) {
                buckets[--degree[nb]].push(nb);
                cur = std::min(cur, degree[nb]);
            });
    }
    std::sort(result.chosen.begin(), result.chosen.end());
    result.size = static_cast<int>(result.chosen.size());
    return result;
}

/**
 * Exact maximum independent set on dense bitset alive-sets.  Pivot =
 * (max live degree, min index), include/exclude branching, live-count
 * bound — the reference recursion's decision rules exactly, but the
 * live degrees are cached and updated on remove/restore instead of
 * being recomputed per recursion node, and neighbourhoods are bitset
 * rows instead of adjacency-list walks.
 */
struct ExactMis {
    const core::BitsetMatrix &adj; ///< Row v = neighbours of v.
    core::DenseBitset alive;
    std::vector<int> degree; ///< Live degree of each live vertex.
    std::vector<int> current;
    std::vector<int> best;
    std::vector<int> removed_stack; ///< Shared DFS removal stack.

    explicit ExactMis(const core::BitsetMatrix &rows)
        : adj(rows), alive(rows.rows()), degree(rows.rows())
    {
        alive.setAll();
        for (std::size_t v = 0; v < rows.rows(); ++v)
            degree[v] = static_cast<int>(rows.rowCount(v));
    }

    /** Remove the vertices on removed_stack[base..): clear alive bits
     * and decrement surviving neighbours' cached degrees. */
    void
    removeFrom(std::size_t base)
    {
        for (std::size_t k = base; k < removed_stack.size(); ++k) {
            const int r = removed_stack[k];
            alive.reset(r);
            forEachLive(adj.row(r), alive,
                        [&](int nb) { --degree[nb]; });
        }
    }

    /** Exact inverse of removeFrom(): restore in reverse order so
     * every increment mirrors the decrement it undoes. */
    void
    restoreFrom(std::size_t base)
    {
        for (std::size_t k = removed_stack.size(); k-- > base;) {
            const int r = removed_stack[k];
            forEachLive(adj.row(r), alive,
                        [&](int nb) { ++degree[nb]; });
            alive.set(r);
        }
        removed_stack.resize(base);
    }

    void
    recurse(int alive_count)
    {
        if (current.size() + alive_count <= best.size())
            return;
        // Pick the live vertex with the highest cached live degree
        // (ascending scan: first max wins, as in the reference).
        int pivot = -1, pivot_deg = -1;
        alive.forEach([&](int i) {
            if (degree[i] > pivot_deg) {
                pivot = i;
                pivot_deg = degree[i];
            }
        });
        if (pivot == -1) {
            if (current.size() > best.size())
                best = current;
            return;
        }
        if (pivot_deg == 0) {
            // All remaining vertices are isolated: take them all.
            std::vector<int> taken = current;
            alive.forEach([&](int i) { taken.push_back(i); });
            if (taken.size() > best.size())
                best = std::move(taken);
            return;
        }

        // Branch 1: include pivot (removes pivot + neighbourhood).
        {
            const std::size_t base = removed_stack.size();
            removed_stack.push_back(pivot);
            forEachLive(adj.row(pivot), alive,
                        [&](int nb) { removed_stack.push_back(nb); });
            const int n_removed =
                static_cast<int>(removed_stack.size() - base);
            removeFrom(base);
            current.push_back(pivot);
            recurse(alive_count - n_removed);
            current.pop_back();
            restoreFrom(base);
        }
        // Branch 2: exclude pivot.
        {
            const std::size_t base = removed_stack.size();
            removed_stack.push_back(pivot);
            removeFrom(base);
            recurse(alive_count - 1);
            restoreFrom(base);
        }
    }
};

} // namespace

std::vector<std::vector<int>>
overlapGraph(const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    const core::BitsetMatrix rows = overlapRows(occurrences);
    std::vector<std::vector<int>> adj(occurrences.size());
    for (std::size_t i = 0; i < adj.size(); ++i)
        rows.forEachInRow(i, [&](int j) { adj[i].push_back(j); });
    return adj;
}

MisResult
maximalIndependentSet(
    const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    const int n = static_cast<int>(occurrences.size());
    if (n == 0)
        return {};
    telemetry::StageTimer timer(
        telemetry::histogram("apex.mis.solve.ms"));

    // One node in every occurrence makes the overlap graph complete:
    // greedy takes vertex 0 (all degrees tie) and removes the rest,
    // and the exact search, seeded with {0}, finds no strictly larger
    // set.  No matrix is needed to know that.
    if (someNodeInEvery(occurrences))
        return MisResult{{0}, 1};
    const core::BitsetMatrix adj = overlapRows(occurrences);

    if (n <= kExactMisLimit) {
        ExactMis solver(adj);
        solver.best = greedyMis(adj).chosen; // seed bound
        solver.recurse(n);
        std::sort(solver.best.begin(), solver.best.end());
        MisResult r;
        r.chosen = std::move(solver.best);
        r.size = static_cast<int>(r.chosen.size());
        return r;
    }
    return greedyMis(adj);
}

} // namespace apex::mining
