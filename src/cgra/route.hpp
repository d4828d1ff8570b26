#ifndef APEX_CGRA_ROUTE_H_
#define APEX_CGRA_ROUTE_H_

#include <string>
#include <vector>

#include "cgra/place.hpp"
#include "core/deadline.hpp"

/**
 * @file
 * Routing: negotiated-congestion (PathFinder-style) routing of the
 * contracted netlist over the fabric's per-link track resources.
 *
 * Each directed link between adjacent tiles carries
 * TechModel::sb_tracks wires.  Every net is routed with A* under a
 * cost that adds growing penalties for present and historical
 * congestion; iterations of rip-up-and-reroute continue until no
 * link is over capacity (or the iteration limit is hit).
 *
 * Every track has a configurable pipeline register, so a route of h
 * hops can absorb up to h of the edge's registers; the rare shortfall
 * (chains of <= rf_cutoff registers across a 1-hop route) is
 * reported as register overflow and accounted against the
 * destination tile's input register.
 */

namespace apex::cgra {

/** Router parameters. */
struct RouterOptions {
    int tracks = 5; ///< Capacity per directed link.
    /** Wall-clock bound, polled before each rip-up iteration.  Expiry
     * returns a kTimeout RouteResult (not kRouteFailed: the fabric
     * was never proven unroutable, the router just ran out of time
     * negotiating congestion). */
    Deadline deadline;
};

/** Result of routing. */
struct RouteResult {
    bool success = false;
    /** Typed outcome, non-ok exactly when !success (kRouteFailed on
     * congestion / unroutable nets, kTimeout on deadline expiry). */
    Status status;
    /** Per contracted edge: the links (Fabric::linkIndex) crossed. */
    std::vector<std::vector<int>> paths;
    std::vector<int> link_usage; ///< Final wires per link.
    int total_hops = 0;          ///< Sum of path lengths.
    int iterations = 0;          ///< PathFinder iterations used.
    int register_overflow = 0;   ///< Registers that did not fit.

    /** @return tiles whose SB is crossed by some route. */
    std::vector<int>
    tilesTouched(const Fabric &fabric) const;
};

/** Route the placed netlist. */
RouteResult route(const Fabric &fabric,
                  const PlacementResult &placement,
                  const RouterOptions &options = {});

} // namespace apex::cgra

#endif // APEX_CGRA_ROUTE_H_
