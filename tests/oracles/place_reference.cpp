#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "oracles/oracles.hpp"

/**
 * @file
 * Retained reference placer: the historic annealing loop, which sums
 * each move's before and after cost in doubles over both nodes'
 * incident edges, writes the move into the placement, and reverts it
 * on rejection, drawing from std::mt19937.  Kept verbatim, without
 * its telemetry and fault hook, as the differential-testing oracle
 * for placeHetero in cgra/place.cpp.
 */

namespace apex::cgra {

using mapper::MappedGraph;
using mapper::MappedKind;

namespace {

constexpr double kInitialTemperature = 8.0;
constexpr double kCooling = 0.95;

int
manhattan(Coord a, Coord b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

} // namespace

PlacementResult
placeHeteroReference(const Fabric &fabric, const MappedGraph &mapped,
                     const std::vector<int> &pe_type_of_node,
                     int num_pe_types, const PlacerOptions &options)
{
    PlacementResult result;
    result.loc.assign(mapped.nodes.size(), Coord{-1, -1});
    result.edges = contractRegisters(mapped);

    // Slot classes: one per PE type, then MEM, then IO.
    const int num_classes = num_pe_types + 2;
    const int mem_class = num_pe_types;
    const int io_class = num_pe_types + 1;

    auto class_of = [&](std::size_t id) {
        switch (mapped.nodes[id].kind) {
          case MappedKind::kPe: {
            const int type =
                id < pe_type_of_node.size() ? pe_type_of_node[id]
                                            : 0;
            return std::min(type, num_pe_types - 1);
          }
          case MappedKind::kRegFile:
            return 0; // borrows a PE tile's register file
          case MappedKind::kMem:
            return mem_class;
          default:
            return io_class;
        }
    };

    // Collect placeable nodes per class.
    std::vector<std::vector<int>> nodes_of_class(num_classes);
    for (std::size_t id = 0; id < mapped.nodes.size(); ++id) {
        if (!isPlaceable(mapped.nodes[id].kind))
            continue;
        nodes_of_class[class_of(id)].push_back(
            static_cast<int>(id));
    }

    // PE tile pools: interleave by tile index among the PE types.
    std::vector<std::vector<Coord>> slots_of_class(num_classes);
    {
        const auto pe_tiles = fabric.peTiles();
        for (std::size_t i = 0; i < pe_tiles.size(); ++i) {
            slots_of_class[i % num_pe_types].push_back(pe_tiles[i]);
        }
        slots_of_class[mem_class] = fabric.memTiles();
        slots_of_class[io_class] = fabric.ioTiles();
    }

    for (int c = 0; c < num_classes; ++c) {
        if (nodes_of_class[c].size() > slots_of_class[c].size()) {
            std::ostringstream os;
            os << "fabric too small: class " << c << " needs "
               << nodes_of_class[c].size() << " tiles, has "
               << slots_of_class[c].size();
            result.status =
                Status(ErrorCode::kBudgetExhausted, os.str());
            return result;
        }
    }

    // Initial placement: nodes in order onto slots in order (slots
    // enumerate row-major, which clusters connected nodes decently).
    std::mt19937 rng(options.seed);
    std::vector<int> slot_of_node(mapped.nodes.size(), -1);
    std::vector<std::vector<int>> node_in_slot(num_classes);
    for (int c = 0; c < num_classes; ++c) {
        node_in_slot[c].assign(slots_of_class[c].size(), -1);
        for (std::size_t k = 0; k < nodes_of_class[c].size(); ++k) {
            const int node = nodes_of_class[c][k];
            slot_of_node[node] = static_cast<int>(k);
            node_in_slot[c][k] = node;
            result.loc[node] = slots_of_class[c][k];
        }
    }

    // Incident contracted edges per node.
    std::vector<std::vector<int>> incident(mapped.nodes.size());
    for (std::size_t e = 0; e < result.edges.size(); ++e) {
        incident[result.edges[e].src].push_back(
            static_cast<int>(e));
        incident[result.edges[e].dst].push_back(
            static_cast<int>(e));
    }

    auto edge_cost = [&](const PlacedEdge &e) {
        return static_cast<double>(
            manhattan(result.loc[e.src], result.loc[e.dst]));
    };
    auto node_cost = [&](int node) {
        double cost = 0.0;
        for (int e : incident[node])
            cost += edge_cost(result.edges[e]);
        return cost;
    };

    // Simulated annealing: swap a node with another node (or empty
    // slot) of the same class.
    int placeable_total = 0;
    for (int c = 0; c < num_classes; ++c)
        placeable_total += static_cast<int>(nodes_of_class[c].size());
    const int total_moves = placeable_total * options.moves_per_node;
    double temperature = kInitialTemperature;
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    for (int move = 0; move < total_moves; ++move) {
        if (move > 0 && move % std::max(placeable_total, 1) == 0)
            temperature *= kCooling;

        // Pick a random placeable node.
        int c;
        do {
            c = static_cast<int>(rng() % num_classes);
        } while (nodes_of_class[c].empty());
        const int node =
            nodes_of_class[c][rng() % nodes_of_class[c].size()];
        const int new_slot =
            static_cast<int>(rng() % slots_of_class[c].size());
        const int old_slot = slot_of_node[node];
        if (new_slot == old_slot)
            continue;
        const int other = node_in_slot[c][new_slot];

        double before = node_cost(node);
        if (other >= 0)
            before += node_cost(other);

        // Apply.
        result.loc[node] = slots_of_class[c][new_slot];
        if (other >= 0)
            result.loc[other] = slots_of_class[c][old_slot];

        double after = node_cost(node);
        if (other >= 0)
            after += node_cost(other);

        const double delta = after - before;
        if (delta <= 0.0 ||
            uniform(rng) < std::exp(-delta / std::max(temperature,
                                                      1e-3))) {
            slot_of_node[node] = new_slot;
            node_in_slot[c][new_slot] = node;
            node_in_slot[c][old_slot] = other;
            if (other >= 0)
                slot_of_node[other] = old_slot;
        } else {
            // Revert.
            result.loc[node] = slots_of_class[c][old_slot];
            if (other >= 0)
                result.loc[other] = slots_of_class[c][new_slot];
        }
    }

    result.wirelength = 0.0;
    for (const PlacedEdge &e : result.edges)
        result.wirelength += edge_cost(e);
    result.success = true;
    return result;
}

} // namespace apex::cgra
