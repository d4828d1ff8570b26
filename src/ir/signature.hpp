#ifndef APEX_IR_SIGNATURE_H_
#define APEX_IR_SIGNATURE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "ir/graph.hpp"

/**
 * @file
 * Canonical codes for small dataflow graphs.
 *
 * The subgraph miner grows patterns along many redundant paths; to
 * deduplicate, every pattern is reduced to a canonical string that is
 * identical for isomorphic patterns and different for non-isomorphic
 * ones.  Canonicalization uses Weisfeiler-Lehman color refinement to
 * restrict the search, followed by exact enumeration of color-respecting
 * permutations (patterns are small, typically <= 8 nodes).
 *
 * Labels: the op mnemonic; kLut additionally carries its truth table.
 * Constant *values* are deliberately excluded — a pattern multiplying by
 * any weight is one pattern.  Edge port indices are part of the code so
 * non-commutative operand order is preserved.
 */

namespace apex::ir {

/**
 * @return a canonical code: equal for isomorphic graphs (same labels and
 * port-preserving edge structure), distinct otherwise.
 */
std::string canonicalCode(const Graph &g);

/** @return true when @p a and @p b are isomorphic as labeled DAGs. */
bool isomorphic(const Graph &a, const Graph &b);

/**
 * Incremental FNV-1a hasher for building content-addressed cache
 * keys out of graphs and stage parameters (runtime/cache).
 */
class Fnv64 {
  public:
    /** The value's 8 little-endian bytes.  A step on a zero byte only
     * multiplies by the prime, so the bytes after the last non-zero
     * one fold into one multiply by a power of it: the digest of the
     * full 8-byte loop, at the cost of the significant bytes. */
    Fnv64 &mix(std::uint64_t v) {
        int bytes = 0;
        for (; v != 0; v >>= 8, ++bytes) {
            h_ ^= v & 0xff;
            h_ *= kPrime;
        }
        h_ *= kPrimePowers[8 - bytes];
        return *this;
    }
    Fnv64 &mix(std::string_view s) {
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= kPrime;
        }
        mix(static_cast<std::uint64_t>(s.size())); // length-delimited
        return *this;
    }
    /** Hash the exact bit pattern (distinguishes -0.0, NaN payloads). */
    Fnv64 &mixDouble(double v);

    std::uint64_t digest() const { return h_; }

  private:
    static constexpr std::uint64_t kPrime = 1099511628211ull;
    /** kPrimePowers[k] = kPrime^k (mod 2^64). */
    static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
        std::array<std::uint64_t, 9> p{1};
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * @return a linear-time content fingerprint of @p g: ops, params and
 * operand wiring in node order (debug names excluded — they do not
 * affect any evaluation result).  Unlike canonicalCode() this is NOT
 * canonical under isomorphism — two differently-ordered but
 * isomorphic graphs hash differently — which is exactly the right
 * contract for memoization keys: equal fingerprint => recomputation
 * is guaranteed redundant, and the miss on a reordered graph only
 * costs time.  canonicalCode() stays the identity for pattern
 * deduplication, where isomorphism-invariance is required.
 */
std::uint64_t fingerprint(const Graph &g);

} // namespace apex::ir

#endif // APEX_IR_SIGNATURE_H_
