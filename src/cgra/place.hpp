#ifndef APEX_CGRA_PLACE_H_
#define APEX_CGRA_PLACE_H_

#include <string>
#include <vector>

#include "cgra/fabric.hpp"
#include "core/status.hpp"
#include "mapper/mapped_graph.hpp"

/**
 * @file
 * Placement: assign every *placeable* mapped node (PE instances,
 * memory tiles, register-file FIFOs — which occupy a PE tile's
 * register file — and IO pads) to a fabric tile of the right kind,
 * minimizing with simulated annealing the summed Manhattan length of
 * the contracted two-pin edges.  That is not half-perimeter
 * wirelength: a net with fanout k counts as k edges.
 *
 * Pipeline registers (kReg) are not placed: they live on interconnect
 * tracks.  For placement and routing, register chains are contracted
 * into their carrying edge, which remembers how many registers the
 * route must absorb.
 */

namespace apex::cgra {

/** A contracted netlist edge between two placeable nodes. */
struct PlacedEdge {
    int src = -1;  ///< Producer mapped-node id.
    int dst = -1;  ///< Consumer mapped-node id.
    int regs = 0;  ///< Pipeline registers absorbed on this route.
};

/** Annealing parameters. */
struct PlacerOptions {
    unsigned seed = 0xCA11;
    int moves_per_node = 150;
};

/** Result of placement. */
struct PlacementResult {
    bool success = false;
    /** Typed outcome, non-ok exactly when !success: kBudgetExhausted
     * when the fabric is too small (retrying another seed cannot
     * help), kPlaceFailed otherwise. */
    Status status;
    /** Location per mapped node; kReg (and const-only) nodes get
     * {-1, -1} — they do not occupy tiles. */
    std::vector<Coord> loc;
    std::vector<PlacedEdge> edges; ///< Contracted netlist.
    /** Final cost: summed Manhattan length of the contracted edges
     * (a net with fanout k counts k times), not HPWL. */
    double wirelength = 0.0;
};

/** @return true when @p kind occupies a fabric tile. */
bool isPlaceable(mapper::MappedKind kind);

/** Contract kReg chains: the netlist the placer/router work on. */
std::vector<PlacedEdge>
contractRegisters(const mapper::MappedGraph &mapped);

/** Place @p mapped onto @p fabric (homogeneous PEs). */
PlacementResult place(const Fabric &fabric,
                      const mapper::MappedGraph &mapped,
                      const PlacerOptions &options = {});

/**
 * Heterogeneous placement: every kPe node carries a PE type in
 * @p pe_type_of_node (indexed by mapped-node id; ignored for
 * non-PE nodes), and the fabric's PE tiles are interleaved among
 * @p num_pe_types type-specialized tile pools (tile i serves type
 * i % num_pe_types).  Register-file nodes may use any PE tile pool
 * (they only borrow the tile's register file) and are assigned to
 * pool 0.
 */
PlacementResult placeHetero(const Fabric &fabric,
                            const mapper::MappedGraph &mapped,
                            const std::vector<int> &pe_type_of_node,
                            int num_pe_types,
                            const PlacerOptions &options = {});

} // namespace apex::cgra

#endif // APEX_CGRA_PLACE_H_
