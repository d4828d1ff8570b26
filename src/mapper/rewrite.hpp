#ifndef APEX_MAPPER_REWRITE_H_
#define APEX_MAPPER_REWRITE_H_

#include <optional>
#include <vector>

#include "ir/graph.hpp"
#include "pe/functional.hpp"
#include "pe/spec.hpp"

/**
 * @file
 * Rewrite-rule synthesis (Sec. 4.1.1) — the SMT-based synthesis
 * substitute.
 *
 * A rewrite rule records how a PE must be configured to execute one
 * operation pattern: the mapping of pattern nodes onto datapath
 * resources, the mux selects and opcodes that realize the pattern's
 * edges, which PE input port carries each pattern input, which
 * constant register absorbs each pattern constant, and the output
 * select.
 *
 * The paper solves "exists config x, forall inputs y: P(x, y) = Op(y)"
 * with an SMT solver.  Here the exists is solved *structurally*
 * (backtracking embedding of the pattern into the configurable
 * datapath — the config space of these PEs is exactly their routing
 * and opcode space), and the forall is validated by exhaustive
 * equivalence at reduced bit-width plus randomized checking at full
 * width, both run on the pattern and the configured PE lowered once
 * to straight-line programs (see DESIGN.md for the soundness
 * discussion).
 */

namespace apex::mapper {

/** A synthesized rewrite rule. */
struct RewriteRule {
    ir::Graph pattern;  ///< Pattern graph (placeholders + consts).
    pe::PeConfig config; ///< PE configuration executing the pattern
                         ///< (const values are bound per match site).
    /** Pattern node id -> datapath node id (-1 for unmapped). */
    std::vector<int> node_to_dp;
    /** Placeholder pattern node ids, ascending — rule input order. */
    std::vector<ir::NodeId> placeholders;
    /** For each placeholder: index into PeSpec::word_inputs (word
     * placeholders) or PeSpec::bit_inputs (bit placeholders). */
    std::vector<int> input_ports;
    /** Pattern const node ids -> position in PeSpec::const_regs. */
    std::vector<std::pair<ir::NodeId, int>> const_bindings;
    ir::NodeId out_node = ir::kNoNode; ///< Pattern sink node.
    bool word_output = true;  ///< Sink produces a word (else a bit).
    int size = 0;             ///< Compute nodes covered by the rule.
    /** PE type executing this rule (0 in homogeneous CGRAs; set by
     * combineLibraries() for heterogeneous fabrics). */
    int pe_type = 0;
};

/** Synthesizes rewrite rules for one PE specification. */
class RewriteRuleSynthesizer {
  public:
    explicit RewriteRuleSynthesizer(const pe::PeSpec &spec);

    /**
     * Try to synthesize a rule executing @p pattern on the PE.
     *
     * @return the validated rule, or nullopt when the PE cannot
     * execute the pattern (no structural embedding, or — should the
     * structural argument ever be violated — validation failure).
     */
    std::optional<RewriteRule>
    synthesize(const ir::Graph &pattern) const;

    /**
     * Synthesize the standard rule library for this PE:
     *  - one rule per single op the datapath supports, plus variants
     *    with each word operand bound to a constant register;
     *  - one rule per entry of @p complex_patterns (merged subgraphs
     *    from application analysis) that the PE can execute.
     *
     * Rules are returned largest-first (instruction-selection order).
     */
    std::vector<RewriteRule>
    synthesizeLibrary(const std::vector<ir::Graph> &complex_patterns)
        const;

    const pe::PeSpec &spec() const { return spec_; }

  private:
    const pe::PeSpec &spec_;
};

/**
 * Check functional equivalence of @p rule against its pattern on the
 * PE @p spec: every assignment of the free inputs and constants at
 * 3 bits when there are at most three of them, then 128 seeded random
 * assignments at 16 bits.  The pattern and the configured PE are each
 * lowered once to straight-line code, which every assignment runs; a
 * configuration that does not lower (pe::PeFunctionalModel::lower)
 * fails.  Exposed for tests.
 */
bool validateRule(const pe::PeSpec &spec, const RewriteRule &rule);

/**
 * Merge several per-PE-type rule libraries into one instruction-
 * selection library for a heterogeneous CGRA: rules from
 * libraries[t] get pe_type = t, and the result is re-sorted
 * most-complex-first with cheaper PE types preferred on ties (a tie
 * means both PE types execute the pattern; the smaller PE should).
 *
 * @param libraries       One library per PE type.
 * @param type_area_rank  Optional areas per type used for the
 *                        tie-break (smaller = preferred).
 */
std::vector<RewriteRule>
combineLibraries(std::vector<std::vector<RewriteRule>> libraries,
                 const std::vector<double> &type_area_rank = {});

} // namespace apex::mapper

#endif // APEX_MAPPER_REWRITE_H_
