#include "mapper/rewrite.hpp"

#include <algorithm>
#include <random>
#include <set>

#include "runtime/telemetry.hpp"

namespace apex::mapper {

using ir::Graph;
using ir::NodeId;
using ir::Op;
using merging::DpNodeKind;
using pe::PeConfig;
using pe::PeSpec;

namespace {

bool
isPlaceholderNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kInput || op == Op::kInputBit;
}

bool
isConstNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kConst || op == Op::kConstBit;
}

/** Find the unique sink (compute node without consumers); kNoNode if
 * the pattern has zero or several sinks. */
NodeId
uniqueSink(const Graph &pattern)
{
    std::vector<bool> has_consumer(pattern.size(), false);
    for (const ir::Edge &e : pattern.edges())
        has_consumer[e.src] = true;
    NodeId sink = ir::kNoNode;
    for (NodeId id = 0; id < pattern.size(); ++id) {
        if (!ir::opIsCompute(pattern.op(id)) || has_consumer[id])
            continue;
        if (sink != ir::kNoNode)
            return ir::kNoNode;
        sink = id;
    }
    return sink;
}

/** Backtracking structural embedding of a pattern into the datapath. */
struct StructuralMatcher {
    const Graph &pattern;
    const PeSpec &spec;
    std::vector<int> pat2dp;
    std::vector<bool> dp_used;
    std::vector<NodeId> order; ///< Pattern nodes in assignment order.
    NodeId sink;

    StructuralMatcher(const Graph &p, const PeSpec &s, NodeId snk)
        : pattern(p), spec(s), pat2dp(p.size(), -1),
          dp_used(s.dp.nodes.size(), false), sink(snk)
    {
        for (NodeId id : p.topoOrder())
            order.push_back(id);
    }

    bool
    edgeOk(NodeId psrc, NodeId pdst, int port) const
    {
        const merging::DpEdge want{pat2dp[psrc], pat2dp[pdst], port};
        return std::find(spec.dp.edges.begin(), spec.dp.edges.end(),
                         want) != spec.dp.edges.end();
    }

    /** Check edges of @p pid against already-assigned neighbours. */
    bool
    consistent(NodeId pid) const
    {
        const ir::Node &pn = pattern.node(pid);
        for (int p = 0; p < static_cast<int>(pn.operands.size());
             ++p) {
            const NodeId src = pn.operands[p];
            if (pat2dp[src] >= 0 && !edgeOk(src, pid, p))
                return false;
        }
        // Fanout edges into assigned consumers.
        for (NodeId other = 0; other < pattern.size(); ++other) {
            if (pat2dp[other] < 0)
                continue;
            const ir::Node &on = pattern.node(other);
            for (int p = 0; p < static_cast<int>(on.operands.size());
                 ++p) {
                if (on.operands[p] == pid && !edgeOk(pid, other, p))
                    return false;
            }
        }
        return true;
    }

    std::vector<int>
    candidatesFor(NodeId pid) const
    {
        const ir::Node &pn = pattern.node(pid);
        std::vector<int> result;
        if (isPlaceholderNode(pattern, pid)) {
            const auto &inputs = pn.op == Op::kInputBit
                                     ? spec.bit_inputs
                                     : spec.word_inputs;
            for (int id : inputs)
                result.push_back(id);
        } else if (isConstNode(pattern, pid)) {
            for (int id : spec.const_regs) {
                const bool want_bit = pn.op == Op::kConstBit;
                const bool is_bit = spec.dp.nodes[id].type ==
                                    ir::ValueType::kBit;
                if (want_bit == is_bit)
                    result.push_back(id);
            }
        } else {
            for (int id : spec.dp.blockIds()) {
                if (!spec.dp.nodes[id].ops.count(pn.op))
                    continue;
                if (pid == sink && !spec.dp.nodes[id].is_output)
                    continue;
                result.push_back(id);
            }
        }
        return result;
    }

    bool
    search(std::size_t depth)
    {
        if (depth == order.size())
            return true;
        const NodeId pid = order[depth];
        for (int cand : candidatesFor(pid)) {
            if (dp_used[cand])
                continue;
            pat2dp[pid] = cand;
            dp_used[cand] = true;
            if (consistent(pid) && search(depth + 1))
                return true;
            dp_used[cand] = false;
            pat2dp[pid] = -1;
        }
        return false;
    }
};

/** Make a const-variant of a single-op seed: placeholders at the
 * word ports selected by @p const_mask are replaced by constants. */
Graph
constVariant(Op op, unsigned const_mask)
{
    Graph g;
    std::vector<NodeId> operands;
    for (int p = 0; p < ir::opArity(op); ++p) {
        const bool bit = ir::opOperandType(op, p) ==
                         ir::ValueType::kBit;
        if (const_mask >> p & 1)
            operands.push_back(
                g.addNode(bit ? Op::kConstBit : Op::kConst));
        else
            operands.push_back(
                g.addNode(bit ? Op::kInputBit : Op::kInput));
    }
    g.addNode(op, std::move(operands));
    return g;
}

Graph
seedSingleOp(Op op)
{
    Graph g;
    std::vector<NodeId> operands;
    for (int p = 0; p < ir::opArity(op); ++p) {
        const bool bit = ir::opOperandType(op, p) ==
                         ir::ValueType::kBit;
        operands.push_back(
            g.addNode(bit ? Op::kInputBit : Op::kInput));
    }
    g.addNode(op, std::move(operands));
    return g;
}

/** Equivalence check: 3-bit exhaustive sweep over at most three free
 * variables, then seeded random vectors at full width. */
constexpr int kExhaustiveWidth = 3;
constexpr int kExhaustiveMaxInputs = 3;
constexpr int kRandomChecks = 128;
constexpr unsigned kRandomSeed = 0xA9EC;

/** One node of a pattern lowered for repeated evaluation; operand
 * slots are node ids, and the slot past the last node holds 0. */
struct PatternStep {
    Op op;
    NodeId node;
    NodeId operand[3];
    std::uint64_t param;
};

/** Lower @p pattern to its nodes in topological order. */
std::vector<PatternStep>
lowerPattern(const Graph &pattern)
{
    const auto zero = static_cast<NodeId>(pattern.size());
    std::vector<PatternStep> steps;
    for (NodeId id : pattern.topoOrder()) {
        const ir::Node &n = pattern.node(id);
        PatternStep step{n.op, id, {zero, zero, zero}, n.param};
        for (std::size_t p = 0; p < n.operands.size() && p < 3; ++p)
            step.operand[p] = n.operands[p];
        steps.push_back(step);
    }
    return steps;
}

/**
 * Run a lowered pattern the way ir::Interpreter::evalAll does:
 * placeholders and constants take their value from @p raw masked to
 * the width (bits to 1), storage nodes forward their operand, and
 * compute nodes go through ir::evalOp.  @p values has one slot per
 * node plus the zero slot.
 */
void
runPattern(const std::vector<PatternStep> &steps,
           const std::uint64_t *raw, int width, std::uint64_t *values)
{
    const std::uint64_t mask = (width >= 64)
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << width) - 1;
    for (const PatternStep &s : steps) {
        std::uint64_t &v = values[s.node];
        switch (s.op) {
          case Op::kInput:
          case Op::kConst:
            v = raw[s.node] & mask;
            break;
          case Op::kInputBit:
          case Op::kConstBit:
            v = raw[s.node] & 1;
            break;
          case Op::kOutput:
          case Op::kOutputBit:
          case Op::kReg:
          case Op::kRegFile:
          case Op::kMem:
            v = values[s.operand[0]];
            break;
          default:
            v = ir::evalOp(s.op, values[s.operand[0]],
                           values[s.operand[1]], values[s.operand[2]],
                           s.param, width);
            break;
        }
    }
}

/** A free variable of the forall with its PE-side slot. */
struct FreeVar {
    NodeId node;             ///< Pattern placeholder or constant.
    bool bit;                ///< Takes only 0 and 1.
    std::uint64_t *pe_slot;  ///< PE input port or const register.
};

} // namespace

RewriteRuleSynthesizer::RewriteRuleSynthesizer(const PeSpec &spec)
    : spec_(spec)
{
}

std::optional<RewriteRule>
RewriteRuleSynthesizer::synthesize(const Graph &pattern) const
{
    const NodeId sink = uniqueSink(pattern);
    if (sink == ir::kNoNode)
        return std::nullopt;

    StructuralMatcher matcher(pattern, spec_, sink);
    if (!matcher.search(0))
        return std::nullopt;

    RewriteRule rule;
    rule.pattern = pattern;
    rule.node_to_dp = matcher.pat2dp;
    rule.out_node = sink;
    rule.word_output =
        ir::opResultType(pattern.op(sink)) == ir::ValueType::kWord;
    rule.config = pe::defaultConfig(spec_);

    for (NodeId id = 0; id < pattern.size(); ++id) {
        const int dp_id = matcher.pat2dp[id];
        if (isPlaceholderNode(pattern, id)) {
            rule.placeholders.push_back(id);
            const auto &inputs =
                pattern.op(id) == Op::kInputBit ? spec_.bit_inputs
                                                : spec_.word_inputs;
            const auto it = std::find(inputs.begin(), inputs.end(),
                                      dp_id);
            rule.input_ports.push_back(
                static_cast<int>(it - inputs.begin()));
        } else if (isConstNode(pattern, id)) {
            const auto it = std::find(spec_.const_regs.begin(),
                                      spec_.const_regs.end(), dp_id);
            rule.const_bindings.emplace_back(
                id,
                static_cast<int>(it - spec_.const_regs.begin()));
        } else {
            rule.config.block_op[dp_id] = pattern.op(id);
            ++rule.size;
            // LUT truth table becomes configuration.
            if (pattern.op(id) == Op::kLut) {
                for (std::size_t l = 0; l < spec_.lut_blocks.size();
                     ++l) {
                    if (spec_.lut_blocks[l] == dp_id)
                        rule.config.lut_table[l] =
                            pattern.node(id).param;
                }
            }
        }
    }

    // Mux selects from pattern edges.
    for (const ir::Edge &e : pattern.edges()) {
        const int dst_dp = matcher.pat2dp[e.dst];
        const int src_dp = matcher.pat2dp[e.src];
        if (dst_dp < 0 || src_dp < 0)
            continue;
        if (spec_.dp.nodes[dst_dp].kind != DpNodeKind::kBlock)
            continue;
        const int mux = spec_.muxIndexOf(dst_dp, e.port);
        if (mux < 0)
            continue;
        const auto &sources = spec_.muxes[mux].sources;
        const auto it = std::find(sources.begin(), sources.end(),
                                  src_dp);
        rule.config.mux_sel[mux] =
            static_cast<int>(it - sources.begin());
    }

    // Output select.
    const int sink_dp = matcher.pat2dp[sink];
    const auto &outs = rule.word_output ? spec_.word_outputs
                                        : spec_.bit_outputs;
    const auto it = std::find(outs.begin(), outs.end(), sink_dp);
    if (it == outs.end())
        return std::nullopt;
    if (rule.word_output)
        rule.config.word_out_sel =
            static_cast<int>(it - outs.begin());
    else
        rule.config.bit_out_sel = static_cast<int>(it - outs.begin());

    if (!validateRule(spec_, rule))
        return std::nullopt;
    return rule;
}

std::vector<RewriteRule>
RewriteRuleSynthesizer::synthesizeLibrary(
    const std::vector<Graph> &complex_patterns) const
{
    APEX_SPAN("map.rewrite",
              {{"patterns",
                static_cast<long long>(complex_patterns.size())}});
    telemetry::StageTimer timer(
        telemetry::histogram("apex.rewrite.ms"));
    std::vector<RewriteRule> rules;

    // Complex patterns first.
    for (const Graph &p : complex_patterns) {
        if (auto rule = synthesize(p))
            rules.push_back(std::move(*rule));
    }

    // Single-op rules + const variants for every supported op.
    std::set<Op> supported;
    for (int b : spec_.dp.blockIds())
        supported.insert(spec_.dp.nodes[b].ops.begin(),
                         spec_.dp.nodes[b].ops.end());
    for (Op op : supported) {
        if (auto rule = synthesize(seedSingleOp(op)))
            rules.push_back(std::move(*rule));
        // Every non-empty subset of word operand ports may be bound
        // to constant registers (Sec. 2.3's I/O reduction).
        unsigned word_ports = 0;
        for (int port = 0; port < ir::opArity(op); ++port)
            if (ir::opOperandType(op, port) == ir::ValueType::kWord)
                word_ports |= 1u << port;
        for (unsigned mask = 1; mask < 8; ++mask) {
            if ((mask & word_ports) != mask)
                continue;
            if (auto rule = synthesize(constVariant(op, mask)))
                rules.push_back(std::move(*rule));
        }
    }

    // Largest first; prefer const-absorbing variants on ties.
    std::stable_sort(
        rules.begin(), rules.end(),
        [](const RewriteRule &a, const RewriteRule &b) {
            if (a.size != b.size)
                return a.size > b.size;
            return a.const_bindings.size() > b.const_bindings.size();
        });
    return rules;
}

std::vector<RewriteRule>
combineLibraries(std::vector<std::vector<RewriteRule>> libraries,
                 const std::vector<double> &type_area_rank)
{
    std::vector<RewriteRule> combined;
    for (std::size_t t = 0; t < libraries.size(); ++t) {
        for (RewriteRule &rule : libraries[t]) {
            rule.pe_type = static_cast<int>(t);
            combined.push_back(std::move(rule));
        }
    }
    auto rank = [&](int type) {
        return type < static_cast<int>(type_area_rank.size())
                   ? type_area_rank[type]
                   : 0.0;
    };
    std::stable_sort(
        combined.begin(), combined.end(),
        [&](const RewriteRule &a, const RewriteRule &b) {
            if (a.size != b.size)
                return a.size > b.size;
            if (a.const_bindings.size() != b.const_bindings.size())
                return a.const_bindings.size() >
                       b.const_bindings.size();
            return rank(a.pe_type) < rank(b.pe_type);
        });
    return combined;
}

bool
validateRule(const PeSpec &spec, const RewriteRule &rule)
{
    pe::PeProgram pe_program;
    if (rule.out_node >= rule.pattern.size() ||
        !pe::PeFunctionalModel(spec).lower(rule.config, &pe_program))
        return false;
    const int pe_out =
        rule.word_output ? pe_program.word_out : pe_program.bit_out;
    const std::vector<PatternStep> pattern_program =
        lowerPattern(rule.pattern);

    // The PE reads raw port and register values; ports no
    // placeholder binds stay 0.
    std::vector<std::uint64_t> word_in(spec.word_inputs.size(), 0);
    std::vector<std::uint64_t> bit_in(spec.bit_inputs.size(), 0);
    std::vector<std::uint64_t> consts = rule.config.const_val;

    // Free variables of the forall: placeholders in ascending order,
    // then the constants, each bound to its slots once.
    std::vector<FreeVar> vars;
    for (std::size_t k = 0; k < rule.placeholders.size(); ++k) {
        const NodeId id = rule.placeholders[k];
        const bool bit = rule.pattern.op(id) == Op::kInputBit;
        auto &ports = bit ? bit_in : word_in;
        const int port = rule.input_ports[k];
        if (port < 0 || port >= static_cast<int>(ports.size()))
            return false;
        vars.push_back({id, bit, &ports[port]});
    }
    for (const auto &[const_node, reg] : rule.const_bindings) {
        if (reg < 0 || reg >= static_cast<int>(consts.size()))
            return false;
        vars.push_back({const_node,
                        ir::opResultType(rule.pattern.op(const_node)) ==
                            ir::ValueType::kBit,
                        &consts[reg]});
    }
    const int nvars = static_cast<int>(vars.size());

    // Pattern-side raw values: const params (overwritten when bound)
    // and placeholder values, masked by each phase's width.
    std::vector<std::uint64_t> raw(rule.pattern.size(), 0);
    for (NodeId id = 0; id < rule.pattern.size(); ++id)
        if (isConstNode(rule.pattern, id))
            raw[id] = rule.pattern.node(id).param;
    std::vector<std::uint64_t> want(rule.pattern.size() + 1);
    std::vector<std::uint64_t> got(pe_program.slots());
    std::vector<std::uint64_t> values(nvars, 0);

    auto check = [&](int width) {
        // Bit variables only take 0 and 1, so the raw value is also
        // the one a bit port or register receives.
        for (int i = 0; i < nvars; ++i) {
            raw[vars[i].node] = values[i];
            *vars[i].pe_slot = values[i];
        }
        runPattern(pattern_program, raw.data(), width, want.data());
        pe_program.run(word_in.data(), bit_in.data(), consts.data(),
                       width, got.data());
        return (pe_out >= 0 ? got[pe_out] : 0) == want[rule.out_node];
    };

    // Phase 1: exhaustive at reduced width when tractable, as an
    // odometer whose last variable turns fastest.
    if (nvars <= kExhaustiveMaxInputs) {
        for (;;) {
            if (!check(kExhaustiveWidth))
                return false;
            int i = nvars - 1;
            for (; i >= 0; --i) {
                const std::uint64_t limit =
                    vars[i].bit ? 2 : 1u << kExhaustiveWidth;
                if (++values[i] < limit)
                    break;
                values[i] = 0;
            }
            if (i < 0)
                break;
        }
    }

    // Phase 2: randomized checking at full width, one draw per free
    // variable per trial.
    std::mt19937 rng(kRandomSeed);
    std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
    for (int t = 0; t < kRandomChecks; ++t) {
        for (int i = 0; i < nvars; ++i)
            values[i] = vars[i].bit ? (dist(rng) & 1) : dist(rng);
        if (!check(ir::kWordWidth))
            return false;
    }
    return true;
}

} // namespace apex::mapper
