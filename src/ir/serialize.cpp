#include "ir/serialize.hpp"

#include <cctype>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "core/fault.hpp"
#include "ir/validate.hpp"

namespace apex::ir {

namespace {

bool
opHasParam(Op op)
{
    return op == Op::kConst || op == Op::kConstBit ||
           op == Op::kLut || op == Op::kRegFile;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/**
 * Overflow-checked decimal parse of an all-digit token.  Returns
 * nullopt for empty tokens, non-digit characters (including signs)
 * and values that do not fit 64 bits.
 */
std::optional<std::uint64_t>
parseUint(std::string_view token)
{
    if (token.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : token) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value >
            (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

/** Tokenizer for one line: ids, mnemonics, integers, quoted strings. */
struct LineLexer {
    const std::string &line;
    std::size_t pos = 0;
    bool unterminated = false; ///< Set by quoted() on a missing '"'.

    explicit LineLexer(const std::string &l) : line(l) {}

    void
    skipSpace()
    {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t')) {
            ++pos;
        }
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos >= line.size();
    }

    /** Next bare token (up to whitespace); empty at end. */
    std::string
    word()
    {
        skipSpace();
        std::size_t start = pos;
        while (pos < line.size() && line[pos] != ' ' &&
               line[pos] != '\t') {
            ++pos;
        }
        return line.substr(start, pos - start);
    }

    /** Quoted string if present; sets unterminated on a missing
     * closing quote (including a trailing backslash escape). */
    std::optional<std::string>
    quoted()
    {
        skipSpace();
        if (pos >= line.size() || line[pos] != '"')
            return std::nullopt;
        ++pos;
        std::string out;
        while (pos < line.size() && line[pos] != '"') {
            if (line[pos] == '\\') {
                if (pos + 1 >= line.size()) {
                    unterminated = true;
                    return std::nullopt;
                }
                ++pos;
            }
            out += line[pos++];
        }
        if (pos >= line.size()) {
            unterminated = true;
            return std::nullopt;
        }
        ++pos; // closing quote
        return out;
    }
};

} // namespace

std::string
serialize(const Graph &g)
{
    std::ostringstream os;
    os << "apexir 1\n";
    for (NodeId id = 0; id < g.size(); ++id) {
        const Node &n = g.node(id);
        os << 'n' << id << " = " << opName(n.op);
        if (opHasParam(n.op))
            os << ' ' << n.param;
        for (NodeId src : n.operands)
            os << " n" << src;
        if (!n.name.empty())
            os << ' ' << quote(n.name);
        os << '\n';
    }
    return os.str();
}

Result<Graph>
parseGraph(const std::string &text)
{
    APEX_RETURN_IF_ERROR(checkFault(FaultStage::kDeserialize));

    auto fail = [](int line_no, const std::string &msg) {
        std::ostringstream os;
        os << "line " << line_no << ": " << msg;
        return Status(ErrorCode::kParseError, os.str());
    };

    std::istringstream is(text);
    std::string line;
    int line_no = 0;

    // Header.
    if (!std::getline(is, line))
        return fail(0, "empty document");
    ++line_no;
    if (line.rfind("apexir", 0) != 0)
        return fail(line_no, "missing 'apexir' header");

    Graph g;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;

        LineLexer lex(line);
        const std::string lhs = lex.word();
        if (lhs.empty())
            continue;
        if (lhs[0] != 'n')
            return fail(line_no, "expected node id");
        const auto id = parseUint(std::string_view(lhs).substr(1));
        if (!id || *id >= kNoNode)
            return fail(line_no,
                        "malformed node id '" + lhs + "'");
        if (*id != g.size())
            return fail(line_no, "node ids must be dense/in order");
        if (lex.word() != "=")
            return fail(line_no, "expected '='");

        const std::string mnemonic = lex.word();
        if (mnemonic.empty())
            return fail(line_no, "missing op mnemonic");
        Op op;
        {
            bool found = false;
            for (int i = 0; i < kNumOps; ++i) {
                if (opName(static_cast<Op>(i)) == mnemonic) {
                    op = static_cast<Op>(i);
                    found = true;
                    break;
                }
            }
            if (!found)
                return fail(line_no, "unknown op '" + mnemonic + "'");
        }

        std::uint64_t param = 0;
        if (opHasParam(op)) {
            const std::string p = lex.word();
            if (p.empty())
                return fail(line_no, "missing parameter");
            const auto value = parseUint(p);
            if (!value)
                return fail(line_no,
                            "parameter '" + p +
                                "' is not an unsigned 64-bit integer");
            param = *value;
        }

        std::vector<NodeId> operands;
        std::string name;
        bool have_name = false;
        while (!lex.atEnd()) {
            if (auto q = lex.quoted()) {
                name = *q;
                have_name = true;
                break;
            }
            if (lex.unterminated)
                return fail(line_no, "unterminated quoted name");
            const std::string tok = lex.word();
            if (tok.empty())
                break;
            if (tok[0] != 'n')
                return fail(line_no, "expected operand id");
            const auto src = parseUint(std::string_view(tok).substr(1));
            if (!src || *src >= kNoNode)
                return fail(line_no,
                            "malformed operand id '" + tok + "'");
            if (*src >= g.size())
                return fail(line_no, "forward operand reference");
            operands.push_back(static_cast<NodeId>(*src));
        }
        if (have_name && !lex.atEnd())
            return fail(line_no, "trailing tokens after name");

        g.addNode(op, std::move(operands), param, std::move(name));
    }

    ValidateOptions vopt;
    vopt.require_def_order = true;
    if (const Status s = validate(g, vopt); !s.ok())
        return fail(line_no, "invalid graph: " + s.message());
    return g;
}

} // namespace apex::ir
