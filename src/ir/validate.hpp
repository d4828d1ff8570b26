#ifndef APEX_IR_VALIDATE_H_
#define APEX_IR_VALIDATE_H_

#include "core/status.hpp"
#include "ir/graph.hpp"

/**
 * @file
 * Typed structural validation of dataflow graphs, called at every
 * pipeline boundary (after parsing, after merge, before mapping).
 *
 * Returns a Status with ErrorCode::kInvalidIr, distinguishes
 * register-broken feedback (legal in streaming graphs) from
 * combinational cycles, and checks op-parameter ranges.
 */

namespace apex::ir {

/** Knobs for validate(). */
struct ValidateOptions {
    /**
     * Require operands to be defined before their consumers (the
     * serialized apexir form guarantees this; programmatic graphs
     * built with setOperand() may legally violate it).
     */
    bool require_def_order = false;
};

/**
 * Check structural invariants of @p g:
 *  - every operand refers to an existing node (no dangling edges);
 *  - operand counts match opArity() and types match opOperandType();
 *  - parameters are in range (const_bit <= 1, 3-LUT table <= 0xff);
 *  - no cycle runs through compute/structural nodes without crossing
 *    a register (kReg) — register feedback loops are permitted;
 *  - optionally, definition order (see ValidateOptions).
 *
 * @return ok, or kInvalidIr naming the first violation.
 */
Status validate(const Graph &g, const ValidateOptions &options = {});

} // namespace apex::ir

#endif // APEX_IR_VALIDATE_H_
