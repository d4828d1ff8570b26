#include "pe/functional.hpp"

#include <algorithm>

#include "ir/op.hpp"

namespace apex::pe {

using merging::DpNodeKind;

PeFunctionalModel::PeFunctionalModel(const PeSpec &spec, int width)
    : spec_(spec), width_(width),
      input_index_(spec.dp.nodes.size(), -1),
      const_index_(spec.dp.nodes.size(), -1)
{
    for (std::size_t i = 0; i < spec.word_inputs.size(); ++i)
        input_index_[spec.word_inputs[i]] = static_cast<int>(i);
    for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i)
        input_index_[spec.bit_inputs[i]] = static_cast<int>(i);
    for (std::size_t i = 0; i < spec.const_regs.size(); ++i)
        const_index_[spec.const_regs[i]] = static_cast<int>(i);
}

namespace {

/** Depth-first lowering of the nodes a configuration activates. */
struct Lowering {
    static constexpr int kNew = -2;    ///< Not visited yet.
    static constexpr int kOnPath = -1; ///< On the DFS path (gray).

    const PeSpec &spec;
    const PeConfig &config;
    const std::vector<int> &input_index;
    const std::vector<int> &const_index;
    PeProgram &program;
    std::vector<int> slot_of; ///< Per node: kNew, kOnPath or its slot.

    /** @return the slot holding node @p id's value, or -1 when it
     * closes a cycle or its configuration is invalid. */
    int
    visit(int id)
    {
        if (slot_of[id] != kNew)
            return slot_of[id]; // a slot, or kOnPath: a cycle
        slot_of[id] = kOnPath;

        const merging::DpNode &nd = spec.dp.nodes[id];
        PeProgram::Step step;
        switch (nd.kind) {
          case DpNodeKind::kInput: {
            const int idx = input_index[id];
            if (idx < 0)
                return -1;
            const bool bit = nd.type == ir::ValueType::kBit;
            step.source = bit ? PeProgram::Source::kBitInput
                              : PeProgram::Source::kWordInput;
            step.index = idx;
            int &ports = bit ? program.bit_ports : program.word_ports;
            ports = std::max(ports, idx + 1);
            break;
          }
          case DpNodeKind::kConst: {
            const int idx = const_index[id];
            if (idx < 0 ||
                idx >= static_cast<int>(config.const_val.size())) {
                return -1;
            }
            step.source = PeProgram::Source::kConst;
            step.index = idx;
            break;
          }
          case DpNodeKind::kBlock: {
            if (id >= static_cast<int>(config.block_op.size()))
                return -1;
            const ir::Op op = config.block_op[id];
            if (op >= ir::Op::kNumOps || !nd.ops.count(op))
                return -1;
            step.op = op;
            for (int p = 0; p < ir::opArity(op); ++p) {
                int src;
                const int mux = spec.muxIndexOf(id, p);
                if (mux >= 0) {
                    if (mux >= static_cast<int>(config.mux_sel.size()))
                        return -1;
                    const int sel = config.mux_sel[mux];
                    const auto &sources = spec.muxes[mux].sources;
                    if (sel < 0 ||
                        sel >= static_cast<int>(sources.size())) {
                        return -1;
                    }
                    src = sources[sel];
                } else {
                    const auto sources = spec.dp.sourcesOf(id, p);
                    if (sources.empty())
                        return -1;
                    src = sources[0];
                }
                const int operand = visit(src);
                if (operand < 0)
                    return -1;
                step.operand[p] = operand;
            }
            const auto lut = std::find(spec.lut_blocks.begin(),
                                       spec.lut_blocks.end(), id);
            const auto l =
                static_cast<std::size_t>(lut - spec.lut_blocks.begin());
            if (lut != spec.lut_blocks.end() &&
                l < config.lut_table.size()) {
                step.lut = config.lut_table[l];
            }
            break;
          }
        }
        program.steps.push_back(step);
        slot_of[id] = static_cast<int>(program.steps.size());
        return slot_of[id];
    }

    /** Lower the cone of output @p sel among @p outputs into @p *slot
     * (left -1 when the PE has no such output). */
    bool
    output(const std::vector<int> &outputs, int sel, int *slot)
    {
        if (outputs.empty())
            return true;
        if (sel < 0 || sel >= static_cast<int>(outputs.size()))
            return false;
        *slot = visit(outputs[sel]);
        return *slot >= 0;
    }
};

} // namespace

bool
PeFunctionalModel::lower(const PeConfig &config,
                         PeProgram *program) const
{
    *program = PeProgram{};
    Lowering lowering{spec_, config, input_index_, const_index_,
                      *program,
                      std::vector<int>(spec_.dp.nodes.size(),
                                       Lowering::kNew)};
    return lowering.output(spec_.word_outputs, config.word_out_sel,
                           &program->word_out) &&
           lowering.output(spec_.bit_outputs, config.bit_out_sel,
                           &program->bit_out);
}

void
PeProgram::run(const std::uint64_t *word, const std::uint64_t *bit,
               const std::uint64_t *consts, int width,
               std::uint64_t *values) const
{
    values[0] = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step &s = steps[i];
        std::uint64_t v;
        switch (s.source) {
          case Source::kWordInput: v = word[s.index]; break;
          case Source::kBitInput: v = bit[s.index]; break;
          case Source::kConst: v = consts[s.index]; break;
          default:
            v = ir::evalOp(s.op, values[s.operand[0]],
                           values[s.operand[1]], values[s.operand[2]],
                           s.lut, width);
            break;
        }
        values[i + 1] = v;
    }
}

bool
PeFunctionalModel::evaluate(const PeConfig &config,
                            const PeInputs &inputs,
                            PeOutputs *out) const
{
    *out = PeOutputs{};
    PeProgram program;
    if (!lower(config, &program) ||
        program.word_ports > static_cast<int>(inputs.word.size()) ||
        program.bit_ports > static_cast<int>(inputs.bit.size())) {
        return false;
    }
    std::vector<std::uint64_t> values(program.slots());
    program.run(inputs.word.data(), inputs.bit.data(),
                config.const_val.data(), width_, values.data());
    if (program.word_out >= 0) {
        out->word = values[program.word_out];
        out->has_word = true;
    }
    if (program.bit_out >= 0) {
        out->bit = values[program.bit_out];
        out->has_bit = true;
    }
    return true;
}

} // namespace apex::pe
