#ifndef APEX_IR_BUILDER_H_
#define APEX_IR_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Expression-style builder for dataflow graphs.
 *
 * This is the repository's Halide-frontend substitute: application
 * kernels are written against GraphBuilder and produce the same kind of
 * lowered dataflow graph the APEX paper obtains from Halide -> CoreIR.
 */

namespace apex::ir {

class GraphBuilder;

/** Lightweight handle to a node under construction. */
class Value {
  public:
    Value() = default;
    Value(GraphBuilder *b, NodeId id) : builder_(b), id_(id) {}

    NodeId id() const { return id_; }
    bool valid() const { return builder_ != nullptr; }
    GraphBuilder *builder() const { return builder_; }

  private:
    GraphBuilder *builder_ = nullptr;
    NodeId id_ = kNoNode;
};

/**
 * Convenience wrapper that builds a Graph with expression syntax.
 *
 * Example:
 * @code
 *   GraphBuilder b;
 *   Value x = b.input("x"), w = b.constant(3);
 *   b.output(b.add(b.mul(x, w), b.constant(1)), "y");
 *   Graph g = b.take();
 * @endcode
 */
class GraphBuilder {
  public:
    Value input(std::string name = {});
    Value inputBit(std::string name = {});
    Value constant(std::uint64_t value, std::string name = {});
    Value output(Value v, std::string name = {});
    Value outputBit(Value v, std::string name = {});

    /** Memory tile node (line buffer); forwards its input stream. */
    Value mem(Value v, std::string name = {});
    /** Single pipeline register. */
    Value reg(Value v);

    Value add(Value a, Value b) { return binary(Op::kAdd, a, b); }
    Value sub(Value a, Value b) { return binary(Op::kSub, a, b); }
    Value mul(Value a, Value b) { return binary(Op::kMul, a, b); }
    Value min(Value a, Value b) { return binary(Op::kMin, a, b); }
    Value max(Value a, Value b) { return binary(Op::kMax, a, b); }
    Value shl(Value a, Value b) { return binary(Op::kShl, a, b); }
    Value lshr(Value a, Value b) { return binary(Op::kLshr, a, b); }
    Value ashr(Value a, Value b) { return binary(Op::kAshr, a, b); }
    Value bitwiseAnd(Value a, Value b) { return binary(Op::kAnd, a, b); }
    Value bitwiseOr(Value a, Value b) { return binary(Op::kOr, a, b); }
    Value bitwiseXor(Value a, Value b) { return binary(Op::kXor, a, b); }
    Value bitwiseNot(Value a) { return unary(Op::kNot, a); }
    Value abs(Value a) { return unary(Op::kAbs, a); }

    Value eq(Value a, Value b) { return binary(Op::kEq, a, b); }
    Value ult(Value a, Value b) { return binary(Op::kUlt, a, b); }
    Value ugt(Value a, Value b) { return binary(Op::kUgt, a, b); }
    Value slt(Value a, Value b) { return binary(Op::kSlt, a, b); }
    Value sgt(Value a, Value b) { return binary(Op::kSgt, a, b); }
    Value sge(Value a, Value b) { return binary(Op::kSge, a, b); }

    /** out = sel ? a : b. */
    Value select(Value sel, Value a, Value b);
    /** 3-input 1-bit LUT with the given truth table. */
    Value lut(std::uint64_t table, Value a, Value b, Value c);
    Value bitOr(Value a, Value b) { return binary(Op::kBitOr, a, b); }

    /** Multiply-accumulate tree: sum(in[i] * w[i]) (+ bias if valid). */
    Value macTree(const std::vector<Value> &ins,
                  const std::vector<Value> &ws, Value bias = {});

    /** Clamp v into [lo, hi] with signed min/max. */
    Value clamp(Value v, Value lo, Value hi);

    /** ReLU: max(v, 0). */
    Value relu(Value v);

    /** @return the finished graph (builder becomes empty). */
    Graph take();

    /** Access to the graph under construction (e.g. for validation). */
    const Graph &graph() const { return graph_; }

  private:
    Value unary(Op op, Value a);
    Value binary(Op op, Value a, Value b);

    Graph graph_;
};

} // namespace apex::ir

#endif // APEX_IR_BUILDER_H_
