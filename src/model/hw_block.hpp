#ifndef APEX_MODEL_HW_BLOCK_H_
#define APEX_MODEL_HW_BLOCK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "ir/op.hpp"

/**
 * @file
 * Hardware block classes.
 *
 * Datapath merging (Sec. 3.3) may merge two operation nodes when they
 * "can both be implemented on the same hardware block".  This header
 * defines that equivalence: every compute op belongs to exactly one
 * block class, and one physical instance of a class can execute any op
 * of the class (selected by configuration).
 */

namespace apex::model {

/** Classes of physical functional units inside a PE. */
enum class HwBlockClass : std::uint8_t {
    kAddSub,    ///< Adder/subtractor (add, sub).
    kMul,       ///< 16x16 multiplier (low half).
    kShift,     ///< Barrel shifter (shl, lshr, ashr).
    kLogicWord, ///< Word-wide bitwise logic (and, or, xor, not).
    kCompare,   ///< Signed/unsigned comparator (eq..sge).
    kMinMax,    ///< Min/max/abs unit (comparator + mux datapath).
    kSelect,    ///< Word 2:1 select driven by a bit.
    kLutBit,    ///< 3-input LUT covering all 1-bit logic.
    kConstReg,  ///< 16-bit configuration-time constant register.
    kConstRegBit, ///< 1-bit constant register.
    kNumClasses,
};

/** Number of block classes. */
inline constexpr int kNumHwBlockClasses =
    static_cast<int>(HwBlockClass::kNumClasses);

/** @return the block class implementing @p op; aborts for structural
 * ops other than constants. */
HwBlockClass blockClassOf(ir::Op op);

/** @return all compute ops a block of class @p cls can execute. */
std::vector<ir::Op> opsOfClass(HwBlockClass cls);

/** @return short lowercase name, e.g. "addsub". */
std::string_view blockClassName(HwBlockClass cls);

} // namespace apex::model

#endif // APEX_MODEL_HW_BLOCK_H_
