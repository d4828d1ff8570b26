#ifndef APEX_CORE_BITSET_H_
#define APEX_CORE_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

/**
 * @file
 * Dense bitset substrate for the combinatorial kernels (clique search,
 * MIS, isomorphism candidate filtering, router tables).
 *
 * The hot inner loops of those kernels are set intersections and
 * membership tests over vertex sets of a few dozen to a few thousand
 * elements.  A 64-bit word array turns each of those into word-
 * parallel AND/ANDNOT plus popcount, and `forEach` iterates set bits
 * in ascending index order with countr_zero — the ascending order is
 * load-bearing: every kernel's determinism contract ties its
 * tie-breaking to ascending-index iteration.
 *
 * Two layers are provided:
 *  - DenseBitset: an owning fixed-universe set with the usual
 *    set/reset/test/count/intersect operations.
 *  - BitsetMatrix: n rows of equal width stored contiguously (row =
 *    adjacency of one vertex), so a branch-and-bound can intersect a
 *    candidate row against an adjacency row without touching per-node
 *    heap allocations.
 */

namespace apex::core {

namespace bitset_detail {
inline constexpr std::size_t kWordBits = 64;

inline std::size_t
wordsFor(std::size_t bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

/** Apply @p fn to every set bit of words[0..words_n), ascending. */
template <typename Fn>
inline void
forEachWord(const std::uint64_t *words, std::size_t words_n, Fn &&fn)
{
    for (std::size_t w = 0; w < words_n; ++w) {
        std::uint64_t word = words[w];
        while (word) {
            const int b = std::countr_zero(word);
            fn(static_cast<int>(w * kWordBits + b));
            word &= word - 1;
        }
    }
}

inline bool
anyWord(const std::uint64_t *words, std::size_t words_n)
{
    for (std::size_t w = 0; w < words_n; ++w)
        if (words[w])
            return true;
    return false;
}

inline std::size_t
countWords(const std::uint64_t *words, std::size_t words_n)
{
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_n; ++w)
        c += static_cast<std::size_t>(std::popcount(words[w]));
    return c;
}
} // namespace bitset_detail

/** Owning fixed-universe dense bitset. */
class DenseBitset {
  public:
    DenseBitset() = default;
    explicit DenseBitset(std::size_t bits)
        : bits_(bits), words_(bitset_detail::wordsFor(bits), 0) {}

    std::size_t universe() const { return bits_; }
    std::size_t words() const { return words_.size(); }
    std::uint64_t *data() { return words_.data(); }
    const std::uint64_t *data() const { return words_.data(); }

    void set(std::size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
    void reset(std::size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
    bool test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void setAll()
    {
        for (auto &w : words_)
            w = ~0ull;
        trim();
    }
    void clear()
    {
        for (auto &w : words_)
            w = 0;
    }

    bool any() const
    {
        return bitset_detail::anyWord(words_.data(), words_.size());
    }
    bool none() const { return !any(); }
    std::size_t count() const
    {
        return bitset_detail::countWords(words_.data(), words_.size());
    }

    /** this &= other (universes must match). */
    DenseBitset &operator&=(const DenseBitset &o)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= o.words_[w];
        return *this;
    }
    /** this &= ~other. */
    DenseBitset &andNot(const DenseBitset &o)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~o.words_[w];
        return *this;
    }
    DenseBitset &operator|=(const DenseBitset &o)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] |= o.words_[w];
        return *this;
    }

    /** True when this and @p o share no set bit. */
    bool disjoint(const DenseBitset &o) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            if (words_[w] & o.words_[w])
                return false;
        return true;
    }

    /** Visit set bits in ascending index order. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        bitset_detail::forEachWord(words_.data(), words_.size(),
                                   static_cast<Fn &&>(fn));
    }

  private:
    /** Zero the tail bits past the universe after whole-word fills. */
    void trim()
    {
        const std::size_t tail = bits_ & 63;
        if (tail && !words_.empty())
            words_.back() &= (1ull << tail) - 1;
    }

    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

/**
 * n rows of a fixed-width bitset stored contiguously.  Row r is the
 * word range [r*rowWords(), (r+1)*rowWords()); kernels use it both for
 * adjacency matrices (row = neighbours of vertex r) and as a per-depth
 * candidate-set pool (row = candidate set at recursion depth r).
 */
class BitsetMatrix {
  public:
    BitsetMatrix() = default;
    BitsetMatrix(std::size_t rows, std::size_t bits)
        : bits_(bits), row_words_(bitset_detail::wordsFor(bits)),
          words_(rows * row_words_, 0) {}

    std::size_t rowWords() const { return row_words_; }
    std::size_t rows() const
    {
        return row_words_ ? words_.size() / row_words_ : 0;
    }

    std::uint64_t *row(std::size_t r)
    {
        return words_.data() + r * row_words_;
    }
    const std::uint64_t *row(std::size_t r) const
    {
        return words_.data() + r * row_words_;
    }

    /** Grow to at least @p rows rows (existing rows preserved). */
    void ensureRows(std::size_t rows)
    {
        if (rows * row_words_ > words_.size())
            words_.resize(rows * row_words_, 0);
    }

    void set(std::size_t r, std::size_t i)
    {
        row(r)[i >> 6] |= 1ull << (i & 63);
    }
    void reset(std::size_t r, std::size_t i)
    {
        row(r)[i >> 6] &= ~(1ull << (i & 63));
    }
    bool test(std::size_t r, std::size_t i) const
    {
        return (row(r)[i >> 6] >> (i & 63)) & 1;
    }
    void clearRow(std::size_t r)
    {
        std::uint64_t *w = row(r);
        for (std::size_t k = 0; k < row_words_; ++k)
            w[k] = 0;
    }

    /** dst row = a row & b row (rows of this matrix). */
    void intersectRows(std::size_t dst, std::size_t a, std::size_t b)
    {
        std::uint64_t *d = row(dst);
        const std::uint64_t *pa = row(a), *pb = row(b);
        for (std::size_t k = 0; k < row_words_; ++k)
            d[k] = pa[k] & pb[k];
    }

    bool rowAny(std::size_t r) const
    {
        return bitset_detail::anyWord(row(r), row_words_);
    }
    std::size_t rowCount(std::size_t r) const
    {
        return bitset_detail::countWords(row(r), row_words_);
    }

    template <typename Fn>
    void forEachInRow(std::size_t r, Fn &&fn) const
    {
        bitset_detail::forEachWord(row(r), row_words_,
                                   static_cast<Fn &&>(fn));
    }

  private:
    std::size_t bits_ = 0;
    std::size_t row_words_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace apex::core

#endif // APEX_CORE_BITSET_H_
