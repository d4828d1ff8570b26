#ifndef APEX_IR_SERIALIZE_H_
#define APEX_IR_SERIALIZE_H_

#include <string>

#include "core/status.hpp"
#include "ir/graph.hpp"

/**
 * @file
 * Text serialization of dataflow graphs.
 *
 * A stable, diff-friendly line format (one node per line) so mined
 * patterns, application graphs and PE datapath sources can be stored,
 * versioned and exchanged:
 *
 * @code
 *   apexir 1
 *   n0 = input "x"
 *   n1 = const 7 "w"
 *   n2 = mul n0 n1
 *   n3 = output n2 "y"
 * @endcode
 *
 * Node ids must be dense and in definition order; names are optional
 * quoted strings (supporting \" and \\ escapes); parameters follow
 * const/const_bit/lut/regfile mnemonics as decimal integers.
 */

namespace apex::ir {

/** Render @p g in the apexir text format. */
std::string serialize(const Graph &g);

/**
 * Parse an apexir text document (hostile-input hardened).
 *
 * Rejects, with line-tagged kParseError statuses: missing header,
 * non-dense or duplicate node ids, malformed / integer-overflowing
 * ids and parameters, forward operand references, unterminated quoted
 * names, and trailing garbage.  The parsed graph is additionally
 * checked with ir::validate() (definition order required).
 *
 * @param text  Document produced by serialize() (or hand-written).
 * @return the graph, or a kParseError / kInvalidIr status.
 */
Result<Graph> parseGraph(const std::string &text);

} // namespace apex::ir

#endif // APEX_IR_SERIALIZE_H_
