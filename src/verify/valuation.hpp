// The replayer's constant-propagating register valuation and its transfer
// over straight-line data instructions.
//
// Sixteen registers (a known mask plus values) and the four NZCV flags
// (low nibble = values, high nibble = known), packed so that a whole
// valuation is one flat value: the replay engine updates it in a tight loop
// over a run of data instructions, and the memo cache (memo.hpp) keys and
// stores it as is. Unknown registers and flags always hold zero in their
// value bits, so two valuations are equal exactly when every register and
// flag is known alike with the same value.
//
// The transfer is the core's own isa::transfer (isa/semantics.hpp) over
// this partial domain, so it is sound against cpu::Executor: every register
// and flag it reports known equals what the core computes from any concrete
// state that agrees with the valuation's known part. Memory is not
// modelled, so a load or a POP leaves its destination registers unknown.
#pragma once

#include <array>
#include <optional>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "isa/semantics.hpp"

namespace raptrack::verify {

struct Valuation {
  using Value = std::optional<u32>;  ///< isa::transfer's domain value
  static constexpr u8 kN = isa::kFlagN, kZ = isa::kFlagZ, kC = isa::kFlagC,
                      kV = isa::kFlagV;                ///< value bits
  static constexpr u8 kKnownShift = 4;                  ///< known = value << 4

  std::array<u32, 16> regs{};
  u16 known = 0;  ///< bit i set when regs[i] holds a known value
  u8 flags = 0;   ///< bits 0-3 NZCV values, bits 4-7 NZCV known

  u64 hash() const {
    u64 h = 0x243f6a8885a308d3ull;
    const auto mix = [&h](u64 v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    for (const u32 reg : regs) mix(reg);
    mix(known);
    mix(flags);
    return h;
  }

  bool is_known(isa::Reg r) const { return (known >> isa::index(r)) & 1; }

  // The read/write/map/set_flags members below are isa::transfer's domain
  // interface, forced inline: the replayer runs them per data instruction.

  /// Operand read at `pc`: PC reads as pc + 4, like the core.
  [[gnu::always_inline]] std::optional<u32> read(isa::Reg r, Address pc) const {
    if (r == isa::Reg::PC) return pc + 4;
    if (!is_known(r)) return std::nullopt;
    return regs[isa::index(r)];
  }

  /// Known write; a write to PC is control flow, which the replayer handles.
  [[gnu::always_inline]] void write(isa::Reg r, u32 value) {
    if (r == isa::Reg::PC) return;
    const unsigned i = isa::index(r);
    regs[i] = value;
    known = static_cast<u16>(known | (1u << i));
  }

  [[gnu::always_inline]] void forget(isa::Reg r) {
    if (r == isa::Reg::PC) return;
    const unsigned i = isa::index(r);
    regs[i] = 0;
    known = static_cast<u16>(known & ~(1u << i));
  }

  [[gnu::always_inline]] void write(isa::Reg r, std::optional<u32> value) {
    if (value) {
      write(r, *value);
    } else {
      forget(r);
    }
  }

  [[gnu::always_inline]] static Value constant(u32 w) { return w; }
  template <typename F>
  [[gnu::always_inline]] static auto map(const Value& a, F f)
      -> std::optional<decltype(f(0u))> {
    if (a) return f(*a);
    return std::nullopt;
  }
  template <typename F>
  [[gnu::always_inline]] static auto map(const Value& a, const Value& b, F f)
      -> std::optional<decltype(f(0u, 0u))> {
    if (a && b) return f(*a, *b);
    return std::nullopt;
  }
  /// Flags `mask` take `f`'s values, or become unknown.
  [[gnu::always_inline]] void set_flags(u8 mask,
                                       const std::optional<isa::Flags>& f) {
    const u8 values =
        f ? static_cast<u8>((f->n ? kN : 0) | (f->z ? kZ : 0) |
                            (f->c ? kC : 0) | (f->v ? kV : 0))
          : 0;
    const u8 now_known = f ? mask : 0;
    flags = static_cast<u8>((flags & ~(mask | (mask << kKnownShift))) |
                            (now_known << kKnownShift) | (values & mask));
  }

  /// Flag `mask` (value bits) is known; its value, when it is.
  std::optional<bool> flag(u8 mask) const {
    if ((flags & (mask << kKnownShift)) == 0) return std::nullopt;
    return (flags & mask) != 0;
  }

  friend bool operator==(const Valuation&, const Valuation&) = default;
};

/// The verifier's memory port: no memory contents are modelled, so every
/// load and POP yields an unknown and stores have no register effect.
struct UnknownMemory {
  static std::optional<u32> load(const std::optional<u32>&, u32, Address) {
    return std::nullopt;
  }
  static void store(const std::optional<u32>&, const std::optional<u32>&, u32,
                    Address) {}
};

/// Apply the register and flag effects of the data instruction `in` at `pc`
/// (anything isa::branch_kind classifies as BranchKind::None, SVC aside):
/// isa::transfer over the partial domain.
inline void apply_data(Valuation& v, const isa::Instruction& in, Address pc) {
  isa::transfer(v, UnknownMemory{}, in, pc);
}

/// Evaluate a condition when the flags it needs are known.
inline std::optional<bool> evaluate_condition(isa::Cond cond,
                                              const Valuation& v) {
  using isa::Cond;
  const auto n = v.flag(Valuation::kN), z = v.flag(Valuation::kZ),
             c = v.flag(Valuation::kC), ov = v.flag(Valuation::kV);
  const auto negate = [](std::optional<bool> f) {
    return f ? std::optional<bool>(!*f) : std::nullopt;
  };
  switch (cond) {
    case Cond::EQ: return z;
    case Cond::NE: return negate(z);
    case Cond::CS: return c;
    case Cond::CC: return negate(c);
    case Cond::MI: return n;
    case Cond::PL: return negate(n);
    case Cond::VS: return ov;
    case Cond::VC: return negate(ov);
    case Cond::HI:
      if (c && z) return *c && !*z;
      return std::nullopt;
    case Cond::LS:
      if (c && z) return !*c || *z;
      return std::nullopt;
    case Cond::GE:
      if (n && ov) return *n == *ov;
      return std::nullopt;
    case Cond::LT:
      if (n && ov) return *n != *ov;
      return std::nullopt;
    case Cond::GT:
      if (z && n && ov) return !*z && *n == *ov;
      return std::nullopt;
    case Cond::LE:
      if (z && n && ov) return *z || *n != *ov;
      return std::nullopt;
    case Cond::AL: return true;
  }
  return std::nullopt;
}

}  // namespace raptrack::verify
