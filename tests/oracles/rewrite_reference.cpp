#include <functional>
#include <map>
#include <random>

#include "ir/interpreter.hpp"
#include "oracles/oracles.hpp"

/**
 * @file
 * Retained reference rewrite-rule validator: the historic loop that,
 * for every assignment, copies the pattern, binds it through a
 * std::map, interprets it with a fresh ir::Interpreter and evaluates a
 * fresh PE model whose recursive demand-driven walk starts again from
 * each selected output.  Kept verbatim (the retired SynthesisOptions
 * defaults included) as the differential-testing oracle for the
 * lowered validator in mapper/rewrite.cpp and the lowered
 * PeFunctionalModel::evaluate in pe/functional.cpp.
 */

namespace apex::pe {

namespace {

using merging::DpNodeKind;

/** The historic PeFunctionalModel. */
class ReferenceModel {
  public:
    ReferenceModel(const PeSpec &spec, int width)
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

    bool evaluate(const PeConfig &config, const PeInputs &inputs,
                  PeOutputs *out) const;
    bool evaluateNode(const PeConfig &config, const PeInputs &inputs,
                      int node, std::uint64_t *value) const;

  private:
    const PeSpec &spec_;
    int width_;
    std::vector<int> input_index_; ///< node id -> port position.
    std::vector<int> const_index_; ///< node id -> const reg position.
};

/** DFS visit state. */
enum class Visit : std::uint8_t { kWhite, kGray, kBlack };

bool
ReferenceModel::evaluateNode(const PeConfig &config,
                             const PeInputs &inputs, int node,
                             std::uint64_t *value) const
{
    const auto &dp = spec_.dp;
    const int n = static_cast<int>(dp.nodes.size());
    if (node < 0 || node >= n)
        return false;

    std::vector<std::uint64_t> val(n, 0);
    std::vector<Visit> state(n, Visit::kWhite);

    // LUT table lookup per node.
    auto lut_of = [&](int id) -> std::uint64_t {
        for (std::size_t i = 0; i < spec_.lut_blocks.size(); ++i)
            if (spec_.lut_blocks[i] == id)
                return i < config.lut_table.size()
                           ? config.lut_table[i]
                           : 0;
        return 0;
    };

    std::function<bool(int)> eval = [&](int id) -> bool {
        if (state[id] == Visit::kBlack)
            return true;
        if (state[id] == Visit::kGray)
            return false; // combinational cycle under this config
        state[id] = Visit::kGray;

        const merging::DpNode &nd = dp.nodes[id];
        switch (nd.kind) {
          case DpNodeKind::kInput: {
            const int idx = input_index_[id];
            const auto &vec = nd.type == ir::ValueType::kBit
                                  ? inputs.bit
                                  : inputs.word;
            if (idx < 0 || idx >= static_cast<int>(vec.size()))
                return false;
            val[id] = vec[idx];
            break;
          }
          case DpNodeKind::kConst: {
            const int idx = const_index_[id];
            if (idx < 0 ||
                idx >= static_cast<int>(config.const_val.size())) {
                return false;
            }
            val[id] = config.const_val[idx];
            break;
          }
          case DpNodeKind::kBlock: {
            const ir::Op op = config.block_op[id];
            if (op >= ir::Op::kNumOps || !nd.ops.count(op))
                return false;
            const int arity = ir::opArity(op);
            std::uint64_t operand[3] = {0, 0, 0};
            for (int p = 0; p < arity; ++p) {
                int src;
                const int mux = spec_.muxIndexOf(id, p);
                if (mux >= 0) {
                    const int sel = config.mux_sel[mux];
                    const auto &sources = spec_.muxes[mux].sources;
                    if (sel < 0 ||
                        sel >= static_cast<int>(sources.size())) {
                        return false;
                    }
                    src = sources[sel];
                } else {
                    const auto sources = dp.sourcesOf(id, p);
                    if (sources.empty())
                        return false;
                    src = sources[0];
                }
                if (!eval(src))
                    return false;
                operand[p] = val[src];
            }
            val[id] = ir::evalOp(op, operand[0], operand[1],
                                 operand[2], lut_of(id), width_);
            break;
          }
        }
        state[id] = Visit::kBlack;
        return true;
    };

    if (!eval(node))
        return false;
    *value = val[node];
    return true;
}

bool
ReferenceModel::evaluate(const PeConfig &config,
                         const PeInputs &inputs,
                         PeOutputs *out) const
{
    *out = PeOutputs{};
    if (!spec_.word_outputs.empty()) {
        const int sel = config.word_out_sel;
        if (sel < 0 ||
            sel >= static_cast<int>(spec_.word_outputs.size())) {
            return false;
        }
        if (!evaluateNode(config, inputs, spec_.word_outputs[sel],
                          &out->word)) {
            return false;
        }
        out->has_word = true;
    }
    if (!spec_.bit_outputs.empty()) {
        const int sel = config.bit_out_sel;
        if (sel < 0 ||
            sel >= static_cast<int>(spec_.bit_outputs.size())) {
            return false;
        }
        if (!evaluateNode(config, inputs, spec_.bit_outputs[sel],
                          &out->bit)) {
            return false;
        }
        out->has_bit = true;
    }
    return true;
}

} // namespace

bool
evaluateReference(const PeSpec &spec, int width, const PeConfig &config,
                  const PeInputs &inputs, PeOutputs *out)
{
    return ReferenceModel(spec, width).evaluate(config, inputs, out);
}

} // namespace apex::pe

namespace apex::mapper {

namespace {

using ir::Graph;
using ir::NodeId;
using ir::Op;
using pe::PeConfig;
using pe::PeSpec;

bool
isPlaceholderNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kInput || op == Op::kInputBit;
}

/** The retired SynthesisOptions, at the defaults every caller used. */
struct SynthesisOptions {
    int random_checks = 128;
    int exhaustive_width = 3;
    int exhaustive_max_inputs = 3;
    unsigned seed = 0xA9EC;
};

} // namespace

bool
validateRuleReference(const PeSpec &spec, const RewriteRule &rule)
{
    const SynthesisOptions options;

    // Free variables of the forall: placeholders and constants.
    std::vector<NodeId> free_vars = rule.placeholders;
    for (const auto &[const_node, reg] : rule.const_bindings)
        free_vars.push_back(const_node);

    auto check = [&](const std::vector<std::uint64_t> &values,
                     int width) {
        // Bind the pattern side: copy the pattern with const params
        // overridden, interpret.
        Graph bound = rule.pattern;
        std::map<NodeId, std::uint64_t> inputs;
        pe::PeInputs pe_in;
        pe_in.word.assign(spec.word_inputs.size(), 0);
        pe_in.bit.assign(spec.bit_inputs.size(), 0);
        PeConfig cfg = rule.config;

        for (std::size_t i = 0; i < free_vars.size(); ++i) {
            const NodeId id = free_vars[i];
            const std::uint64_t v = values[i];
            if (isPlaceholderNode(rule.pattern, id)) {
                inputs[id] = v;
                // Locate this placeholder's rule input port.
                for (std::size_t k = 0; k < rule.placeholders.size();
                     ++k) {
                    if (rule.placeholders[k] != id)
                        continue;
                    if (rule.pattern.op(id) == Op::kInputBit)
                        pe_in.bit[rule.input_ports[k]] = v & 1;
                    else
                        pe_in.word[rule.input_ports[k]] = v;
                }
            } else {
                bound.node(id).param = v;
                for (const auto &[cnode, reg] : rule.const_bindings)
                    if (cnode == id)
                        cfg.const_val[reg] = v;
            }
        }

        const ir::Interpreter interp(width);
        const auto pattern_vals = interp.evalAll(bound, inputs);
        const std::uint64_t want = pattern_vals[rule.out_node];

        pe::PeOutputs out;
        if (!pe::evaluateReference(spec, width, cfg, pe_in, &out))
            return false;
        const std::uint64_t got = rule.word_output ? out.word
                                                   : out.bit;
        return got == want;
    };

    const int nvars = static_cast<int>(free_vars.size());
    auto width_of = [&](NodeId id) {
        return ir::opResultType(rule.pattern.op(id)) ==
                       ir::ValueType::kBit
                   ? 1
                   : 0; // 0 = word (width set per phase)
    };

    // Phase 1: exhaustive at reduced width when tractable.
    if (nvars <= options.exhaustive_max_inputs) {
        const int w = options.exhaustive_width;
        std::vector<std::uint64_t> values(nvars, 0);
        std::function<bool(int)> sweep = [&](int i) -> bool {
            if (i == nvars)
                return check(values, w);
            const std::uint64_t limit =
                width_of(free_vars[i]) == 1 ? 2 : (1u << w);
            for (std::uint64_t v = 0; v < limit; ++v) {
                values[i] = v;
                if (!sweep(i + 1))
                    return false;
            }
            return true;
        };
        if (!sweep(0))
            return false;
    }

    // Phase 2: randomized checking at full width.
    std::mt19937 rng(options.seed);
    std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
    for (int t = 0; t < options.random_checks; ++t) {
        std::vector<std::uint64_t> values(nvars);
        for (int i = 0; i < nvars; ++i) {
            values[i] = width_of(free_vars[i]) == 1 ? (dist(rng) & 1)
                                                    : dist(rng);
        }
        if (!check(values, ir::kWordWidth))
            return false;
    }
    return true;
}

} // namespace apex::mapper
