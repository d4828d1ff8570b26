#include "cgra/place.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>

#include "core/fault.hpp"
#include "core/mt19937.hpp"
#include "runtime/telemetry.hpp"

namespace apex::cgra {

using mapper::MappedGraph;
using mapper::MappedKind;

namespace {

/** Annealing schedule: starting temperature, and its decay after
 * every pass of one move per placeable node. */
constexpr double kInitialTemperature = 8.0;
constexpr double kCooling = 0.95;

} // namespace

bool
isPlaceable(MappedKind kind)
{
    switch (kind) {
      case MappedKind::kPe:
      case MappedKind::kMem:
      case MappedKind::kRegFile:
      case MappedKind::kInput:
      case MappedKind::kInputBit:
      case MappedKind::kOutput:
      case MappedKind::kOutputBit:
        return true;
      default:
        return false;
    }
}

std::vector<PlacedEdge>
contractRegisters(const MappedGraph &mapped)
{
    std::vector<PlacedEdge> edges;
    for (std::size_t id = 0; id < mapped.nodes.size(); ++id) {
        const mapper::MappedNode &n = mapped.nodes[id];
        if (!isPlaceable(n.kind))
            continue;
        for (int src : n.inputs) {
            PlacedEdge e;
            e.dst = static_cast<int>(id);
            int cursor = src;
            while (mapped.nodes[cursor].kind == MappedKind::kReg) {
                ++e.regs;
                cursor = mapped.nodes[cursor].inputs[0];
            }
            e.src = cursor;
            edges.push_back(e);
        }
    }
    return edges;
}

namespace {

int
manhattan(Coord a, Coord b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/**
 * x % d by two multiplications instead of a division, exact for
 * every 32-bit x and d > 0 (Lemire, Kaser and Kurz, "Faster Remainder
 * by Direct Computation", 2019).  The annealer takes three remainders
 * per move in a chain of dependent loads, where a division's latency
 * shows.
 */
class Remainder {
  public:
    explicit Remainder(std::uint32_t d)
        : d_(d), m_(~std::uint64_t{0} / d + 1)
    {
    }

    std::uint32_t of(std::uint32_t x) const
    {
        const std::uint64_t low = m_ * x; // wraps by design
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(low) * d_) >> 64);
    }

  private:
    std::uint64_t d_;
    std::uint64_t m_; ///< ceil(2^64 / d), 0 for d = 1.
};

} // namespace

PlacementResult
place(const Fabric &fabric, const MappedGraph &mapped,
      const PlacerOptions &options)
{
    return placeHetero(fabric, mapped, {}, 1, options);
}

PlacementResult
placeHetero(const Fabric &fabric, const MappedGraph &mapped,
            const std::vector<int> &pe_type_of_node,
            int num_pe_types, const PlacerOptions &options)
{
    APEX_SPAN("place",
              {{"nodes", static_cast<long long>(mapped.nodes.size())},
               {"seed", static_cast<long long>(options.seed)}});
    telemetry::StageTimer timer(
        telemetry::histogram("apex.place.ms"));
    telemetry::counter("apex.place.attempts").add(1);

    PlacementResult result;
    struct OutcomeCounters {
        const PlacementResult &r;
        ~OutcomeCounters()
        {
            if (!r.success)
                telemetry::counter("apex.place.failures").add(1);
        }
    } outcome_counters{result};
    if (Status fault = checkFault(FaultStage::kPlace); !fault.ok()) {
        result.status = std::move(fault);
        return result;
    }
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

    // Contracted-edge neighbours per node (CSR): one entry per
    // incident edge, so parallel edges repeat.  Self-loops are left
    // out: their length is always 0.
    const std::size_t num_nodes = mapped.nodes.size();
    std::vector<int> nb_begin(num_nodes + 1, 0);
    for (const PlacedEdge &e : result.edges) {
        if (e.src != e.dst) {
            ++nb_begin[e.src + 1];
            ++nb_begin[e.dst + 1];
        }
    }
    for (std::size_t i = 0; i < num_nodes; ++i)
        nb_begin[i + 1] += nb_begin[i];
    std::vector<int> nb(nb_begin[num_nodes]);
    {
        std::vector<int> fill(nb_begin.begin(), nb_begin.end() - 1);
        for (const PlacedEdge &e : result.edges) {
            if (e.src != e.dst) {
                nb[fill[e.src]++] = e.dst;
                nb[fill[e.dst]++] = e.src;
            }
        }
    }

    // Length change of @p node's edges when it moves @p from -> @p to
    // while @p partner (or -1) takes its place: edges between the two
    // keep their length and are skipped.
    const auto move_delta = [&](int node, Coord from, Coord to,
                                int partner) {
        int delta = 0;
        for (int i = nb_begin[node]; i < nb_begin[node + 1]; ++i) {
            const int m = nb[i];
            if (m == partner)
                continue;
            const Coord at = result.loc[m];
            delta += manhattan(to, at) - manhattan(from, at);
        }
        return delta;
    };

    // Simulated annealing: swap a node with another node (or empty
    // slot) of the same class.  A move's cost change is an integer,
    // and so are the before/after sums it replaces (exact in doubles),
    // so every accept/reject decision, RNG call included, is the
    // historic one.
    int placeable_total = 0;
    for (int c = 0; c < num_classes; ++c)
        placeable_total += static_cast<int>(nodes_of_class[c].size());
    const int total_moves = placeable_total * options.moves_per_node;
    double temperature = kInitialTemperature;
    core::BlockMt19937 rng(options.seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    // exp(-delta / T) per small delta, filled on first use at each
    // temperature (negative = not yet computed).
    std::array<double, 64> acceptance;
    acceptance.fill(-1.0);
    const auto accept_probability = [&](int delta) {
        const auto exact = [&] {
            return std::exp(-static_cast<double>(delta) /
                            std::max(temperature, 1e-3));
        };
        if (delta >= static_cast<int>(acceptance.size()))
            return exact();
        double &p = acceptance[delta];
        if (p < 0.0)
            p = exact();
        return p;
    };

    // Draws are below 2^32, so these equal the historic `rng() % n`.
    // (An empty class is never drawn from; 1 stands in for its 0.)
    const auto remainder = [](std::size_t n) {
        return Remainder(
            static_cast<std::uint32_t>(std::max<std::size_t>(n, 1)));
    };
    const Remainder class_pick = remainder(num_classes);
    std::vector<Remainder> node_pick, slot_pick;
    for (int c = 0; c < num_classes; ++c) {
        node_pick.push_back(remainder(nodes_of_class[c].size()));
        slot_pick.push_back(remainder(slots_of_class[c].size()));
    }
    const auto draw = [&rng] {
        return static_cast<std::uint32_t>(rng());
    };

    int until_cooling = placeable_total;
    for (int move = 0; move < total_moves; ++move) {
        if (until_cooling == 0) {
            temperature *= kCooling;
            acceptance.fill(-1.0);
            until_cooling = placeable_total;
        }
        --until_cooling;

        // Pick a random placeable node.
        int c;
        do {
            c = static_cast<int>(class_pick.of(draw()));
        } while (nodes_of_class[c].empty());
        const int node = nodes_of_class[c][node_pick[c].of(draw())];
        const int new_slot = static_cast<int>(slot_pick[c].of(draw()));
        const int old_slot = slot_of_node[node];
        if (new_slot == old_slot)
            continue;
        const int other = node_in_slot[c][new_slot];
        const Coord from = slots_of_class[c][old_slot];
        const Coord to = slots_of_class[c][new_slot];

        int delta = move_delta(node, from, to, other);
        if (other >= 0)
            delta += move_delta(other, to, from, node);
        if (delta <= 0 || uniform(rng) < accept_probability(delta)) {
            slot_of_node[node] = new_slot;
            node_in_slot[c][new_slot] = node;
            node_in_slot[c][old_slot] = other;
            result.loc[node] = to;
            if (other >= 0) {
                slot_of_node[other] = old_slot;
                result.loc[other] = from;
            }
        }
    }

    result.wirelength = 0.0;
    for (const PlacedEdge &e : result.edges)
        result.wirelength += static_cast<double>(
            manhattan(result.loc[e.src], result.loc[e.dst]));
    result.success = true;
    return result;
}

} // namespace apex::cgra
