#ifndef APEX_MAPPER_MAPPED_GRAPH_H_
#define APEX_MAPPER_MAPPED_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * The mapped application: a dataflow graph over CGRA resources (PE
 * instances, memory tiles, IO pads, pipeline registers, register-file
 * FIFOs) produced by instruction selection (Fig. 7 of the paper) and
 * transformed by application pipelining (Sec. 4.3).
 */

namespace apex::mapper {

/** Kind of a mapped node. */
enum class MappedKind : std::uint8_t {
    kPe,      ///< PE instance executing one rewrite rule.
    kMem,     ///< Memory tile (line buffer).
    kInput,   ///< Word input pad.
    kInputBit,///< Bit input pad.
    kOutput,  ///< Word output pad.
    kOutputBit, ///< Bit output pad.
    kReg,     ///< Pipeline register (lives in the interconnect).
    kRegFile, ///< Register file acting as a FIFO of depth `depth`.
};

/** One node of the mapped application graph. */
struct MappedNode {
    MappedKind kind = MappedKind::kPe;
    int rule = -1; ///< kPe: index into the rewrite-rule library.
    /** kPe: values bound to the rule's const registers, parallel to
     * RewriteRule::const_bindings. */
    std::vector<std::uint64_t> const_vals;
    /** Producers, one per input. kPe: parallel to
     * RewriteRule::placeholders; others: single producer. */
    std::vector<int> inputs;
    int depth = 0; ///< kRegFile: FIFO depth in cycles.
    /** kReg: true when inserted by branch delay matching (pipeline
     * skew compensation) rather than present in the application
     * (functional delay). */
    bool is_balancing = false;
    /** kRegFile: how many of the folded registers were balancing
     * registers (the rest were functional delays). */
    int balancing_regs = 0;
    std::string name; ///< Debug name (IO pads keep the app name).
    /** App graph node this mapped node produces (sink for PEs). */
    ir::NodeId app_node = ir::kNoNode;
};

/** The mapped application graph. */
struct MappedGraph {
    std::vector<MappedNode> nodes;

    /** @return ids with the given kind, in creation order. */
    std::vector<int> nodesOfKind(MappedKind kind) const;

    /** @return a topological order (producers first). */
    std::vector<int> topoOrder() const;

    /** @return count of nodes with the given kind. */
    int count(MappedKind kind) const;
};

} // namespace apex::mapper

#endif // APEX_MAPPER_MAPPED_GRAPH_H_
