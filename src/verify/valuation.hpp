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
// The transfer is sound against cpu::Executor: every register and flag it
// reports known equals what the core computes from any concrete state that
// agrees with the valuation's known part. Memory is not modelled, so a load
// or a POP leaves its destination registers unknown.
#pragma once

#include <array>
#include <bit>
#include <optional>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace raptrack::verify {

struct Valuation {
  static constexpr u8 kN = 1, kZ = 2, kC = 4, kV = 8;  ///< value bits
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

  /// Operand read at `pc`: PC reads as pc + 4, like the core.
  std::optional<u32> read(isa::Reg r, Address pc) const {
    if (r == isa::Reg::PC) return pc + 4;
    if (!is_known(r)) return std::nullopt;
    return regs[isa::index(r)];
  }

  /// Known write; a write to PC is control flow, which the replayer handles.
  void write(isa::Reg r, u32 value) {
    if (r == isa::Reg::PC) return;
    const unsigned i = isa::index(r);
    regs[i] = value;
    known = static_cast<u16>(known | (1u << i));
  }

  void forget(isa::Reg r) {
    if (r == isa::Reg::PC) return;
    const unsigned i = isa::index(r);
    regs[i] = 0;
    known = static_cast<u16>(known & ~(1u << i));
  }

  void write(isa::Reg r, std::optional<u32> value) {
    if (value) {
      write(r, *value);
    } else {
      forget(r);
    }
  }

  /// Flag `mask` (value bits) is known; its value, when it is.
  std::optional<bool> flag(u8 mask) const {
    if ((flags & (mask << kKnownShift)) == 0) return std::nullopt;
    return (flags & mask) != 0;
  }

  friend bool operator==(const Valuation&, const Valuation&) = default;
};

namespace detail {

inline void set_flag_bits(Valuation& v, u8 mask, u8 values) {
  v.flags = static_cast<u8>((v.flags & ~(mask | (mask << Valuation::kKnownShift))) |
                            (mask << Valuation::kKnownShift) | (values & mask));
}

inline void forget_flags(Valuation& v, u8 mask) {
  v.flags = static_cast<u8>(v.flags & ~(mask | (mask << Valuation::kKnownShift)));
}

inline void set_nz(Valuation& v, std::optional<u32> result) {
  constexpr u8 kNZ = Valuation::kN | Valuation::kZ;
  if (!result) {
    forget_flags(v, kNZ);
    return;
  }
  set_flag_bits(v, kNZ,
                static_cast<u8>(((*result >> 31) != 0 ? Valuation::kN : 0) |
                                (*result == 0 ? Valuation::kZ : 0)));
}

inline void set_nzcv(Valuation& v, u32 result, bool c, bool ov) {
  v.flags = static_cast<u8>(0xf0 | ((result >> 31) != 0 ? Valuation::kN : 0) |
                            (result == 0 ? Valuation::kZ : 0) |
                            (c ? Valuation::kC : 0) | (ov ? Valuation::kV : 0));
}

inline void set_add_flags(Valuation& v, std::optional<u32> a,
                          std::optional<u32> b) {
  if (!a || !b) {
    v.flags = 0;
    return;
  }
  const u64 wide = static_cast<u64>(*a) + *b;
  const u32 result = static_cast<u32>(wide);
  set_nzcv(v, result, (wide >> 32) != 0,
           (~(*a ^ *b) & (*a ^ result) & 0x8000'0000u) != 0);
}

inline void set_sub_flags(Valuation& v, std::optional<u32> a,
                          std::optional<u32> b) {
  if (!a || !b) {
    v.flags = 0;
    return;
  }
  const u32 result = *a - *b;
  set_nzcv(v, result, *a >= *b,
           ((*a ^ *b) & (*a ^ result) & 0x8000'0000u) != 0);
}

template <typename Fn>
std::optional<u32> binop(std::optional<u32> a, std::optional<u32> b, Fn&& fn) {
  if (a && b) return fn(*a, *b);
  return std::nullopt;
}

}  // namespace detail

/// Apply the register and flag effects of the data instruction `in` at `pc`
/// (anything isa::branch_kind classifies as BranchKind::None, SVC aside).
/// Every operand is read before the destination is written.
inline void apply_data(Valuation& v, const isa::Instruction& in, Address pc) {
  using isa::Op;
  using detail::binop;
  const auto rn = v.read(in.rn, pc);
  const auto b = isa::format_of(in.op) == isa::Format::AluReg
                     ? v.read(in.rm, pc)
                     : std::optional<u32>(static_cast<u32>(in.imm));

  switch (in.op) {
    case Op::MOVI:
      v.write(in.rd, static_cast<u32>(in.imm));
      break;
    case Op::MOVT: {
      const auto old = v.read(in.rd, pc);
      v.write(in.rd, old ? std::optional<u32>((*old & 0xffffu) |
                                              (static_cast<u32>(in.imm) << 16))
                         : std::nullopt);
      break;
    }
    case Op::MOV:
      v.write(in.rd, b);
      if (in.set_flags) detail::set_nz(v, b);
      break;
    case Op::MVN: {
      const auto result = b ? std::optional<u32>(~*b) : std::nullopt;
      v.write(in.rd, result);
      if (in.set_flags) detail::set_nz(v, result);
      break;
    }
    case Op::ADD: case Op::ADDI:
      if (in.set_flags) detail::set_add_flags(v, rn, b);
      v.write(in.rd, binop(rn, b, [](u32 x, u32 y) { return x + y; }));
      break;
    case Op::SUB: case Op::SUBI:
      if (in.set_flags) detail::set_sub_flags(v, rn, b);
      v.write(in.rd, binop(rn, b, [](u32 x, u32 y) { return x - y; }));
      break;
    case Op::RSB: case Op::RSBI:
      if (in.set_flags) detail::set_sub_flags(v, b, rn);
      v.write(in.rd, binop(b, rn, [](u32 x, u32 y) { return x - y; }));
      break;
    case Op::MUL: {
      const auto result = binop(rn, b, [](u32 x, u32 y) { return x * y; });
      v.write(in.rd, result);
      if (in.set_flags) detail::set_nz(v, result);
      break;
    }
    case Op::UDIV:
      v.write(in.rd, binop(rn, b, [](u32 x, u32 y) { return y ? x / y : 0; }));
      break;
    case Op::SDIV:
      v.write(in.rd, binop(rn, b, [](u32 x, u32 y) {
                const i32 n = static_cast<i32>(x), d = static_cast<i32>(y);
                if (d == 0) return 0u;
                if (n == INT32_MIN && d == -1) return static_cast<u32>(INT32_MIN);
                return static_cast<u32>(n / d);
              }));
      break;
    case Op::AND: case Op::ANDI:
    case Op::ORR: case Op::ORRI:
    case Op::EOR: case Op::EORI: {
      const auto result = binop(rn, b, [&](u32 x, u32 y) {
        switch (in.op) {
          case Op::AND: case Op::ANDI: return x & y;
          case Op::ORR: case Op::ORRI: return x | y;
          default: return x ^ y;
        }
      });
      v.write(in.rd, result);
      if (in.set_flags) {
        detail::set_nz(v, result);
        detail::forget_flags(v, Valuation::kC | Valuation::kV);  // conservative
      }
      break;
    }
    case Op::LSL: case Op::LSLI:
    case Op::LSR: case Op::LSRI:
    case Op::ASR: case Op::ASRI: {
      const auto result = binop(rn, b, [&](u32 x, u32 y) {
        const u32 amount = y & 0xff;
        if (in.op == Op::LSL || in.op == Op::LSLI) {
          return amount >= 32 ? 0u : (x << amount);
        }
        if (in.op == Op::LSR || in.op == Op::LSRI) {
          return amount >= 32 ? 0u : (amount == 0 ? x : x >> amount);
        }
        const i32 sx = static_cast<i32>(x);
        return static_cast<u32>(amount >= 32 ? (sx >> 31) : (sx >> amount));
      });
      v.write(in.rd, result);
      if (in.set_flags) {
        detail::set_nz(v, result);
        detail::forget_flags(v, Valuation::kC | Valuation::kV);
      }
      break;
    }
    case Op::CMP: case Op::CMPI:
      detail::set_sub_flags(v, rn, b);
      break;
    case Op::CMN:
      detail::set_add_flags(v, rn, b);
      break;
    case Op::TST: case Op::TSTI:
      detail::set_nz(v, binop(rn, b, [](u32 x, u32 y) { return x & y; }));
      detail::forget_flags(v, Valuation::kC | Valuation::kV);
      break;
    case Op::LDR: case Op::LDRB: case Op::LDRH: case Op::LDRR:
      v.forget(in.rd);  // memory contents are not modeled
      break;
    case Op::STR: case Op::STRB: case Op::STRH: case Op::STRR:
      break;  // stores do not affect register state
    case Op::PUSH:
      if (const auto sp = v.read(isa::Reg::SP, pc)) {
        v.write(isa::Reg::SP,
                *sp - 4u * static_cast<u32>(std::popcount(in.reg_list)));
      }
      break;
    case Op::POP: {
      const auto sp = v.read(isa::Reg::SP, pc);
      for (unsigned i = 0; i < 13; ++i) {
        if (bit(in.reg_list, i)) v.forget(static_cast<isa::Reg>(i));
      }
      // The rewriters refuse POP into LR; an image that does it anyway
      // must reach BX LR with LR unknown, not with the caller's value.
      if (bit(in.reg_list, 14)) v.forget(isa::Reg::LR);
      if (sp) {
        v.write(isa::Reg::SP,
                *sp + 4u * static_cast<u32>(std::popcount(in.reg_list)));
      }
      break;
    }
    default:
      break;  // NOP/HLT/BKPT/SVC/branches handled by the replayer
  }
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
