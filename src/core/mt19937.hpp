#ifndef APEX_CORE_MT19937_H_
#define APEX_CORE_MT19937_H_

#include <cstdint>

/**
 * @file
 * A block-generated MT19937: the same 32-bit stream as std::mt19937,
 * draw for draw, for every seed.
 *
 * std::mt19937 twists its 624-word state in one pass but tempers each
 * word on the call that returns it, behind a call the compiler does
 * not always inline.  This engine twists and tempers the whole block
 * in one loop into an output buffer, so a draw is a load and an index
 * bump.  Its min(), max() and outputs equal std::mt19937's, so a
 * distribution drawing through it (std::uniform_real_distribution
 * included) returns the same values.
 */

namespace apex::core {

class BlockMt19937 {
  public:
    using result_type = std::uint_fast32_t; ///< As std::mt19937's.

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return 0xFFFFFFFFu; }

    /** Seeded as std::mt19937(seed). */
    explicit BlockMt19937(std::uint32_t seed)
    {
        state_[0] = seed;
        for (int i = 1; i < kN; ++i)
            state_[i] = 1812433253u *
                            (state_[i - 1] ^ (state_[i - 1] >> 30)) +
                        static_cast<std::uint32_t>(i);
    }

    result_type operator()()
    {
        if (next_ == kN)
            refill();
        return out_[next_++];
    }

  private:
    static constexpr int kN = 624;
    static constexpr int kM = 397;

    static std::uint32_t twist(std::uint32_t hi, std::uint32_t lo,
                               std::uint32_t far)
    {
        const std::uint32_t y = (hi & 0x80000000u) | (lo & 0x7FFFFFFFu);
        return far ^ (y >> 1) ^ ((0u - (y & 1u)) & 0x9908B0DFu);
    }

    /** Twist the state into the next block, then temper all of it.
     * Out of line: it runs once per 624 draws, and inlined into a
     * caller's loop its vector constants crowd out the loop's
     * registers. */
    [[gnu::noinline]] void refill()
    {
        int k = 0;
        for (; k < kN - kM; ++k)
            state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
        for (; k < kN - 1; ++k)
            state_[k] = twist(state_[k], state_[k + 1],
                              state_[k + kM - kN]);
        state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
        for (k = 0; k < kN; ++k) {
            std::uint32_t y = state_[k];
            y ^= y >> 11;
            y ^= (y << 7) & 0x9D2C5680u;
            y ^= (y << 15) & 0xEFC60000u;
            y ^= y >> 18;
            out_[k] = y;
        }
        next_ = 0;
    }

    std::uint32_t state_[kN];
    std::uint32_t out_[kN];
    int next_ = kN;
};

} // namespace apex::core

#endif // APEX_CORE_MT19937_H_
