#include "pe/verilog.hpp"

#include <cmath>
#include <sstream>

namespace apex::pe {

using ir::Op;
using merging::DpNodeKind;

namespace {

int
selBits(std::size_t choices)
{
    int bits = 1;
    while ((std::size_t{1} << bits) < choices)
        ++bits;
    return bits;
}

std::string
wireName(int node)
{
    // A named suffix: `"n" + std::to_string(node)` trips GCC 12's -O3
    // -Wrestrict false positive.
    const std::string id = std::to_string(node);
    return "n" + id;
}

/** Verilog expression for op applied to operand wires a, b, c. */
std::string
opExpr(Op op, const std::string &a, const std::string &b,
       const std::string &c, const std::string &lut)
{
    auto s = [](const std::string &x) {
        return "$signed(" + x + ")";
    };
    switch (op) {
      case Op::kAdd:  return a + " + " + b;
      case Op::kSub:  return a + " - " + b;
      case Op::kMul:  return a + " * " + b;
      case Op::kAbs:
        return s(a) + " < 0 ? -" + s(a) + " : " + a;
      case Op::kMin:
        return s(a) + " < " + s(b) + " ? " + a + " : " + b;
      case Op::kMax:
        return s(a) + " > " + s(b) + " ? " + a + " : " + b;
      case Op::kShl:  return a + " << " + b + "[3:0]";
      case Op::kLshr: return a + " >> " + b + "[3:0]";
      case Op::kAshr: return s(a) + " >>> " + b + "[3:0]";
      case Op::kAnd:  return a + " & " + b;
      case Op::kOr:   return a + " | " + b;
      case Op::kXor:  return a + " ^ " + b;
      case Op::kNot:  return "~" + a;
      case Op::kEq:   return a + " == " + b;
      case Op::kNeq:  return a + " != " + b;
      case Op::kUlt:  return a + " < " + b;
      case Op::kUle:  return a + " <= " + b;
      case Op::kUgt:  return a + " > " + b;
      case Op::kUge:  return a + " >= " + b;
      case Op::kSlt:  return s(a) + " < " + s(b);
      case Op::kSle:  return s(a) + " <= " + s(b);
      case Op::kSgt:  return s(a) + " > " + s(b);
      case Op::kSge:  return s(a) + " >= " + s(b);
      case Op::kSel:  return a + " ? " + b + " : " + c;
      case Op::kLut:
        return lut + "[{" + a + ", " + b + ", " + c + "}]";
      case Op::kBitAnd: return a + " & " + b;
      case Op::kBitOr:  return a + " | " + b;
      case Op::kBitXor: return a + " ^ " + b;
      case Op::kBitNot: return "~" + a;
      default:          return "16'd0";
    }
}

} // namespace

std::string
emitVerilog(const PeSpec &spec)
{
    std::ostringstream os;
    const auto &dp = spec.dp;

    os << "// Generated by APEX from PE specification '" << spec.name
       << "'.\n";
    os << "module " << spec.name << " (\n";
    os << "    input  wire clk,\n";
    os << "    input  wire rst_n,\n";
    for (std::size_t i = 0; i < spec.word_inputs.size(); ++i)
        os << "    input  wire [15:0] data" << i << ",\n";
    for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i)
        os << "    input  wire bit" << i << ",\n";
    for (std::size_t i = 0; i < spec.const_regs.size(); ++i) {
        const bool is_bit = dp.nodes[spec.const_regs[i]].type ==
                            ir::ValueType::kBit;
        os << "    input  wire " << (is_bit ? "" : "[15:0] ")
           << "cfg_const" << i << ",\n";
    }
    for (std::size_t i = 0; i < spec.muxes.size(); ++i) {
        os << "    input  wire ["
           << selBits(spec.muxes[i].sources.size()) - 1
           << ":0] cfg_mux" << i << ",\n";
    }
    for (int b : spec.multi_op_blocks) {
        os << "    input  wire ["
           << selBits(dp.nodes[b].ops.size()) - 1 << ":0] cfg_op"
           << b << ",\n";
    }
    for (std::size_t i = 0; i < spec.lut_blocks.size(); ++i)
        os << "    input  wire [7:0] cfg_lut" << i << ",\n";
    if (spec.word_outputs.size() > 1) {
        os << "    input  wire ["
           << selBits(spec.word_outputs.size()) - 1
           << ":0] cfg_out_sel,\n";
    }
    if (spec.bit_outputs.size() > 1) {
        os << "    input  wire ["
           << selBits(spec.bit_outputs.size()) - 1
           << ":0] cfg_out_sel_bit,\n";
    }
    if (!spec.word_outputs.empty())
        os << "    output wire [15:0] res,\n";
    if (!spec.bit_outputs.empty())
        os << "    output wire res_p,\n";
    os << "    input  wire enable\n";
    os << ");\n\n";

    // Node wires.
    for (int id = 0; id < static_cast<int>(dp.nodes.size()); ++id) {
        const bool is_bit = dp.nodes[id].type == ir::ValueType::kBit;
        os << "    wire " << (is_bit ? "" : "[15:0] ")
           << wireName(id) << ";\n";
    }
    os << "\n";

    // Input and constant bindings.
    for (std::size_t i = 0; i < spec.word_inputs.size(); ++i) {
        os << "    assign " << wireName(spec.word_inputs[i])
           << " = data" << i << ";\n";
    }
    for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i) {
        os << "    assign " << wireName(spec.bit_inputs[i])
           << " = bit" << i << ";\n";
    }
    for (std::size_t i = 0; i < spec.const_regs.size(); ++i) {
        os << "    assign " << wireName(spec.const_regs[i])
           << " = cfg_const" << i << ";\n";
    }
    os << "\n";

    // Operand wires (muxed where needed).
    for (int id : dp.blockIds()) {
        const merging::DpNode &nd = dp.nodes[id];
        for (int p = 0; p < nd.arity(); ++p) {
            const std::string op_wire =
                wireName(id) + "_op" + std::to_string(p);
            const bool is_bit =
                ir::opOperandType(*nd.ops.begin(), p) ==
                ir::ValueType::kBit;
            os << "    wire " << (is_bit ? "" : "[15:0] ") << op_wire
               << ";\n";
            const int mux = spec.muxIndexOf(id, p);
            if (mux < 0) {
                os << "    assign " << op_wire << " = "
                   << wireName(dp.sourcesOf(id, p)[0]) << ";\n";
            } else {
                const auto &sources = spec.muxes[mux].sources;
                os << "    assign " << op_wire << " =\n";
                for (std::size_t s = 0; s + 1 < sources.size(); ++s) {
                    os << "        cfg_mux" << mux << " == " << s
                       << " ? " << wireName(sources[s]) << " :\n";
                }
                os << "        " << wireName(sources.back())
                   << ";\n";
            }
        }
    }
    os << "\n";

    // Block bodies.
    int lut_idx = 0;
    for (int id : dp.blockIds()) {
        const merging::DpNode &nd = dp.nodes[id];
        auto operand = [&](int p) {
            return p < nd.arity()
                       ? wireName(id) + "_op" + std::to_string(p)
                       : std::string("1'b0");
        };
        std::string lut_cfg = "8'd0";
        if (nd.ops.count(Op::kLut))
            lut_cfg = "cfg_lut" + std::to_string(lut_idx++);

        if (nd.ops.size() == 1) {
            os << "    assign " << wireName(id) << " = "
               << opExpr(*nd.ops.begin(), operand(0), operand(1),
                         operand(2), lut_cfg)
               << ";\n";
            continue;
        }
        // Multi-op block: opcode-decoded result.
        const bool is_bit = nd.type == ir::ValueType::kBit;
        os << "    reg " << (is_bit ? "" : "[15:0] ") << wireName(id)
           << "_r;\n";
        os << "    always @(*) begin\n";
        os << "        case (cfg_op" << id << ")\n";
        int code = 0;
        for (Op op : nd.ops) {
            os << "            " << code << ": " << wireName(id)
               << "_r = " << opExpr(op, operand(0), operand(1),
                                    operand(2), lut_cfg)
               << ";\n";
            ++code;
        }
        os << "            default: " << wireName(id) << "_r = 0;\n";
        os << "        endcase\n    end\n";
        os << "    assign " << wireName(id) << " = " << wireName(id)
           << "_r;\n";
    }
    os << "\n";

    // Output selection (+ optional pipeline register chain).
    auto emit_out = [&](const std::vector<int> &outs,
                        const std::string &sel,
                        const std::string &port, bool is_bit) {
        if (outs.empty())
            return;
        const std::string comb = port + "_comb";
        os << "    wire " << (is_bit ? "" : "[15:0] ") << comb
           << ";\n";
        if (outs.size() == 1) {
            os << "    assign " << comb << " = " << wireName(outs[0])
               << ";\n";
        } else {
            os << "    assign " << comb << " =\n";
            for (std::size_t s = 0; s + 1 < outs.size(); ++s) {
                os << "        " << sel << " == " << s << " ? "
                   << wireName(outs[s]) << " :\n";
            }
            os << "        " << wireName(outs.back()) << ";\n";
        }
        if (spec.pipeline_stages == 0) {
            os << "    assign " << port << " = " << comb << ";\n";
            return;
        }
        for (int stage = 0; stage < spec.pipeline_stages; ++stage) {
            os << "    reg " << (is_bit ? "" : "[15:0] ") << port
               << "_q" << stage << ";\n";
        }
        os << "    always @(posedge clk or negedge rst_n) begin\n";
        os << "        if (!rst_n) begin\n";
        for (int stage = 0; stage < spec.pipeline_stages; ++stage)
            os << "            " << port << "_q" << stage
               << " <= 0;\n";
        os << "        end else if (enable) begin\n";
        os << "            " << port << "_q0 <= " << comb << ";\n";
        for (int stage = 1; stage < spec.pipeline_stages; ++stage) {
            os << "            " << port << "_q" << stage << " <= "
               << port << "_q" << stage - 1 << ";\n";
        }
        os << "        end\n    end\n";
        os << "    assign " << port << " = " << port << "_q"
           << spec.pipeline_stages - 1 << ";\n";
    };
    emit_out(spec.word_outputs, "cfg_out_sel", "res", false);
    emit_out(spec.bit_outputs, "cfg_out_sel_bit", "res_p", true);

    os << "\nendmodule\n";
    return os.str();
}

} // namespace apex::pe
