#ifndef APEX_PE_FUNCTIONAL_H_
#define APEX_PE_FUNCTIONAL_H_

#include <cstdint>
#include <vector>

#include "pe/spec.hpp"

/**
 * @file
 * PE functional model — executes a PeSpec on concrete values, the way
 * a PEak program executes as Python.  Used as the golden model for
 * rewrite-rule validation and for CGRA simulation.
 *
 * A configuration is first lowered to a straight-line PeProgram over
 * the nodes reachable from the selected output(s) through the
 * *configured* mux selections; only those nodes are computed.  A
 * configuration whose selected edges form a combinational loop does
 * not lower (merged datapaths may contain such loops across mutually
 * exclusive configurations).  Rewrite-rule validation lowers a rule's
 * configuration once and runs the program for every assignment.
 */

namespace apex::pe {

/** Input values for one evaluation. */
struct PeInputs {
    std::vector<std::uint64_t> word; ///< Per PeSpec::word_inputs.
    std::vector<std::uint64_t> bit;  ///< Per PeSpec::bit_inputs.
};

/** Output values of one evaluation. */
struct PeOutputs {
    std::uint64_t word = 0;
    std::uint64_t bit = 0;
    bool has_word = false;
    bool has_bit = false;
};

/**
 * A configured PE as straight-line code: one step per activated
 * datapath node, each after the steps it reads.  Values live in slots:
 * slot 0 always holds 0 (the operand an op of lower arity ignores) and
 * step i writes slot i + 1.
 */
struct PeProgram {
    /** Where a step's value comes from. */
    enum class Source : std::uint8_t {
        kWordInput, ///< PeInputs::word[index].
        kBitInput,  ///< PeInputs::bit[index].
        kConst,     ///< Constant register `index` (PeConfig order).
        kOp,        ///< ir::evalOp over the operand slots.
    };

    /** One activated datapath node. */
    struct Step {
        Source source = Source::kOp;
        ir::Op op = ir::Op::kNumOps; ///< kOp: the configured op.
        int index = 0;               ///< Input port or const register.
        int operand[3] = {0, 0, 0};  ///< kOp: operand slots.
        std::uint64_t lut = 0;       ///< kOp: LUT truth table.
    };

    std::vector<Step> steps;
    int word_out = -1; ///< Slot of the word output, -1 if none.
    int bit_out = -1;  ///< Slot of the bit output, -1 if none.
    int word_ports = 0; ///< Word input ports read (highest + 1).
    int bit_ports = 0;  ///< Bit input ports read (highest + 1).

    /** @return the number of value slots run() writes. */
    std::size_t slots() const { return steps.size() + 1; }

    /**
     * Execute every step.  Inputs and constants are read raw; ops
     * mask them to @p width as ir::evalOp does.
     *
     * @param word    At least word_ports values.
     * @param bit     At least bit_ports values.
     * @param consts  One value per constant register of the config
     *                the program was lowered from.
     * @param values  slots() values; receives every slot.
     */
    void run(const std::uint64_t *word, const std::uint64_t *bit,
             const std::uint64_t *consts, int width,
             std::uint64_t *values) const;
};

/** Evaluator for a PE specification. */
class PeFunctionalModel {
  public:
    /**
     * @param spec   PE to model (must outlive the model).
     * @param width  Datapath width in bits (reduced widths support the
     *               exhaustive rewrite-rule validation sweep).
     */
    explicit PeFunctionalModel(const PeSpec &spec,
                               int width = ir::kWordWidth);

    /**
     * Lower @p config to a straight-line program covering the cone
     * of every output port the PE has (both, when it has a word and a
     * bit output), so a program exists exactly when evaluate() can
     * succeed.
     *
     * @return false when an output select, mux select, opcode or
     *         constant-register index is invalid, or when the selected
     *         edges form a combinational cycle.
     */
    bool lower(const PeConfig &config, PeProgram *program) const;

    /**
     * Evaluate the PE: lower @p config, then run it once.
     *
     * @param config  Configuration (mux selects, opcodes, constants).
     * @param inputs  Input port values.
     * @param out     Receives the output port values.
     * @return false when the configuration does not lower or reads an
     *         input port @p inputs lacks; true otherwise.
     */
    bool evaluate(const PeConfig &config, const PeInputs &inputs,
                  PeOutputs *out) const;

    int width() const { return width_; }

  private:
    const PeSpec &spec_;
    int width_;
    std::vector<int> input_index_; ///< node id -> port position.
    std::vector<int> const_index_; ///< node id -> const reg position.
};

} // namespace apex::pe

#endif // APEX_PE_FUNCTIONAL_H_
