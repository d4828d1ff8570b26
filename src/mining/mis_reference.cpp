#include <algorithm>

#include "mining/mis.hpp"

/**
 * @file
 * Retained reference MIS implementations: the historic all-pairs
 * overlap construction, O(n)-scan greedy and degree-recomputing exact
 * branch and bound, kept verbatim as the differential-testing oracle
 * for the indexed/bitset rewrite in mis.cpp.  Every function here
 * must return byte-identical results to its optimized counterpart.
 */

namespace apex::mining {

std::vector<std::vector<int>>
overlapGraphReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    const int n = static_cast<int>(occurrences.size());
    std::vector<std::vector<int>> adj(n);

    auto intersects = [](const std::vector<ir::NodeId> &a,
                         const std::vector<ir::NodeId> &b) {
        std::size_t i = 0, j = 0;
        while (i < a.size() && j < b.size()) {
            if (a[i] == b[j])
                return true;
            if (a[i] < b[j])
                ++i;
            else
                ++j;
        }
        return false;
    };

    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (intersects(occurrences[i], occurrences[j])) {
                adj[i].push_back(j);
                adj[j].push_back(i);
            }
    return adj;
}

namespace {

/** Min-degree greedy: repeatedly take the vertex with fewest live
 * neighbours, remove it and its neighbourhood. */
MisResult
greedyMisReference(const std::vector<std::vector<int>> &adj)
{
    const int n = static_cast<int>(adj.size());
    std::vector<bool> alive(n, true);
    std::vector<int> degree(n, 0);
    for (int i = 0; i < n; ++i)
        degree[i] = static_cast<int>(adj[i].size());

    MisResult result;
    int remaining = n;
    while (remaining > 0) {
        int best = -1;
        for (int i = 0; i < n; ++i)
            if (alive[i] && (best == -1 || degree[i] < degree[best]))
                best = i;
        result.chosen.push_back(best);
        // Remove best and its neighbourhood.
        std::vector<int> removed = {best};
        for (int nb : adj[best])
            if (alive[nb])
                removed.push_back(nb);
        for (int r : removed) {
            alive[r] = false;
            --remaining;
            for (int nb : adj[r])
                if (alive[nb])
                    --degree[nb];
        }
    }
    std::sort(result.chosen.begin(), result.chosen.end());
    result.size = static_cast<int>(result.chosen.size());
    return result;
}

/** Exact maximum independent set by branch and bound on the highest-
 * degree vertex (include/exclude), with the live-vertex count bound. */
void
exactMisReference(const std::vector<std::vector<int>> &adj,
                  std::vector<bool> &alive, int alive_count,
                  std::vector<int> &current, std::vector<int> &best)
{
    if (current.size() + alive_count <= best.size())
        return;
    // Pick the live vertex with the highest live degree.
    const int n = static_cast<int>(adj.size());
    int pivot = -1, pivot_deg = -1;
    for (int i = 0; i < n; ++i) {
        if (!alive[i])
            continue;
        int d = 0;
        for (int nb : adj[i])
            if (alive[nb])
                ++d;
        if (d > pivot_deg) {
            pivot = i;
            pivot_deg = d;
        }
    }
    if (pivot == -1) {
        if (current.size() > best.size())
            best = current;
        return;
    }
    if (pivot_deg == 0) {
        // All remaining vertices are isolated: take them all.
        std::vector<int> taken = current;
        for (int i = 0; i < n; ++i)
            if (alive[i])
                taken.push_back(i);
        if (taken.size() > best.size())
            best = std::move(taken);
        return;
    }

    // Branch 1: include pivot (removes pivot + neighbourhood).
    {
        std::vector<int> removed = {pivot};
        for (int nb : adj[pivot])
            if (alive[nb])
                removed.push_back(nb);
        for (int r : removed)
            alive[r] = false;
        current.push_back(pivot);
        exactMisReference(adj, alive,
                          alive_count -
                              static_cast<int>(removed.size()),
                          current, best);
        current.pop_back();
        for (int r : removed)
            alive[r] = true;
    }
    // Branch 2: exclude pivot.
    {
        alive[pivot] = false;
        exactMisReference(adj, alive, alive_count - 1, current, best);
        alive[pivot] = true;
    }
}

} // namespace

MisResult
maximalIndependentSetReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    const int n = static_cast<int>(occurrences.size());
    if (n == 0)
        return {};

    const auto adj = overlapGraphReference(occurrences);

    if (n <= kExactMisLimit) {
        std::vector<bool> alive(n, true);
        std::vector<int> current;
        std::vector<int> best =
            greedyMisReference(adj).chosen; // seed bound
        exactMisReference(adj, alive, n, current, best);
        std::sort(best.begin(), best.end());
        MisResult r;
        r.chosen = std::move(best);
        r.size = static_cast<int>(r.chosen.size());
        return r;
    }
    return greedyMisReference(adj);
}

} // namespace apex::mining
