// The register and flag effects of every RT-ISA data instruction, written
// once. The simulated core, its superblock window and the verifier's
// valuation all run this one transfer, so the verifier's replay means
// exactly what the core executes (RAP-Track resolves every unlogged step,
// BX LR included, from register state: §IV-A, §IV-C.2).
//
// transfer() is a template over a value domain and a memory port.
//
//   Domain — the register file and NZCV over some `Value`:
//     Value read(Reg r, Address pc) const;   // PC reads as pc + 4
//     void write(Reg r, Value v);
//     Value constant(Word w) const;
//     auto map(Value a, F f) const;          // lift a pure Word function;
//     auto map(Value a, Value b, F f) const; // f may return Word or Flags
//     void set_flags(u8 mask, FlagsValue f); // mask of kFlag* bits; f is
//                                            // map()'s lift of isa::Flags
//   The core's domain holds words, and map() applies f. The verifier's
//   holds partly known words, and map() is known only when every input is.
//   written_registers() below runs a third domain that only records which
//   registers are written.
//
//   Memory — Value load(Value addr, u32 size, Address pc) const;
//            void store(Value addr, Value value, u32 size, Address pc) const;
//   The core's port is the bus (and may fault); the verifier's port knows
//   no memory contents, so every load, POP included, yields an unknown.
//
// Control flow stays with the caller. transfer() has no effect for NOP,
// HLT, BKPT, SVC and the branch opcodes. A load or POP into PC performs
// every other effect and returns the loaded value instead of writing PC.
#pragma once

#include <bit>
#include <functional>
#include <optional>

#include "common/bits.hpp"
#include "common/hex.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace raptrack::isa {

/// Flag masks for Domain::set_flags (the verifier's packed NZCV layout).
inline constexpr u8 kFlagN = 1, kFlagZ = 2, kFlagC = 4, kFlagV = 8;
inline constexpr u8 kFlagsNZ = kFlagN | kFlagZ;
inline constexpr u8 kFlagsNZCV = kFlagsNZ | kFlagC | kFlagV;

/// True for the opcodes transfer() gives an effect: moves, ALU ops,
/// compares, loads, stores, PUSH and POP.
constexpr bool is_data(Op op) { return op >= Op::MOVI && op <= Op::POP; }
static_assert(Op::SVC < Op::MOVI && Op::POP < Op::B,
              "is_data(): system opcodes sort below the data range and "
              "branches above it");

namespace sem {

// Word-level functions, as function objects so that map() inlines them.
inline constexpr auto nz = [](Word r) {
  return Flags{.n = (r >> 31) != 0, .z = r == 0};
};
inline constexpr auto add_flags = [](Word a, Word b) {
  const u64 wide = static_cast<u64>(a) + b;
  const Word r = static_cast<Word>(wide);
  return Flags{.n = (r >> 31) != 0, .z = r == 0, .c = (wide >> 32) != 0,
               .v = (~(a ^ b) & (a ^ r) & 0x8000'0000u) != 0};
};
inline constexpr auto sub_flags = [](Word a, Word b) {
  const Word r = a - b;
  return Flags{.n = (r >> 31) != 0, .z = r == 0, .c = a >= b,  // no borrow
               .v = ((a ^ b) & (a ^ r) & 0x8000'0000u) != 0};
};
inline constexpr auto test_flags = [](Word a, Word b) { return nz(a & b); };

// Shifts use the bottom byte of the amount, like the core.
inline constexpr auto lsl = [](Word a, Word amount) -> Word {
  amount &= 0xff;
  return amount >= 32 ? 0 : a << amount;
};
inline constexpr auto lsr = [](Word a, Word amount) -> Word {
  amount &= 0xff;
  return amount >= 32 ? 0 : a >> amount;
};
inline constexpr auto asr = [](Word a, Word amount) {
  amount &= 0xff;
  const i32 sa = static_cast<i32>(a);
  return static_cast<Word>(amount >= 32 ? (sa >> 31) : (sa >> amount));
};

// Division by zero yields 0 (no trap); INT_MIN / -1 wraps to INT_MIN.
inline constexpr auto udiv = [](Word n, Word d) -> Word {
  return d == 0 ? 0 : n / d;
};
inline constexpr auto sdiv = [](Word n, Word d) -> Word {
  const i32 sn = static_cast<i32>(n), sd = static_cast<i32>(d);
  if (sd == 0) return 0;
  if (sn == INT32_MIN && sd == -1) return static_cast<Word>(INT32_MIN);
  return static_cast<Word>(sn / sd);
};

}  // namespace sem

namespace detail {

/// One application of transfer(). Every member is forced inline: each
/// instantiation sits in a hot loop (the core's dispatch, the superblock
/// window, the replayer's runs), and GCC would otherwise outline helpers
/// that several cases share.
template <typename Domain, typename Memory>
struct Transfer {
  using Value = typename Domain::Value;
  Domain& d;
  const Memory& mem;
  const Instruction& in;
  Address pc;

  [[gnu::always_inline]] Value rn() const { return d.read(in.rn, pc); }
  [[gnu::always_inline]] Value rm() const { return d.read(in.rm, pc); }
  [[gnu::always_inline]] Value imm() const {
    return d.constant(static_cast<Word>(in.imm));
  }
  /// A result that sets N and Z only: C and V keep their values.
  [[gnu::always_inline]] void result_nz(Value r) {
    if (in.set_flags) d.set_flags(kFlagsNZ, d.map(r, sem::nz));
    d.write(in.rd, r);
  }
  [[gnu::always_inline]] void add(Value a, Value b) {
    if (in.set_flags) d.set_flags(kFlagsNZCV, d.map(a, b, sem::add_flags));
    d.write(in.rd, d.map(a, b, std::plus<Word>{}));
  }
  [[gnu::always_inline]] void sub(Value a, Value b) {
    if (in.set_flags) d.set_flags(kFlagsNZCV, d.map(a, b, sem::sub_flags));
    d.write(in.rd, d.map(a, b, std::minus<Word>{}));
  }
  /// A load or store's address: rn + imm, or rn + (rm << shift).
  [[gnu::always_inline]] Value address() const {
    if (in.op == Op::LDRR || in.op == Op::STRR) {
      const Value scaled =
          d.map(rm(), [shift = in.shift](Word x) { return x << shift; });
      return d.map(rn(), scaled, std::plus<Word>{});
    }
    return d.map(rn(), imm(), std::plus<Word>{});
  }
  [[gnu::always_inline]] u32 access_size() const {
    if (in.op == Op::LDRB || in.op == Op::STRB) return 1;
    if (in.op == Op::LDRH || in.op == Op::STRH) return 2;
    return 4;
  }
  [[gnu::always_inline]] Value next_word(Value addr) const {
    return d.map(addr, [](Word a) { return a + 4; });
  }

  [[gnu::always_inline]] std::optional<Value> run() {
    switch (in.op) {
      case Op::MOVI: d.write(in.rd, imm()); break;
      case Op::MOVT:
        d.write(in.rd, d.map(d.read(in.rd, pc),
                             [top = static_cast<Word>(in.imm) << 16](Word old) {
                               return (old & 0xffffu) | top;
                             }));
        break;
      case Op::MOV: result_nz(rm()); break;
      case Op::MVN: result_nz(d.map(rm(), std::bit_not<Word>{})); break;

      case Op::ADD: add(rn(), rm()); break;
      case Op::ADDI: add(rn(), imm()); break;
      case Op::SUB: sub(rn(), rm()); break;
      case Op::SUBI: sub(rn(), imm()); break;
      case Op::RSB: sub(rm(), rn()); break;
      case Op::RSBI: sub(imm(), rn()); break;
      case Op::MUL:
        result_nz(d.map(rn(), rm(), std::multiplies<Word>{}));
        break;
      case Op::UDIV: d.write(in.rd, d.map(rn(), rm(), sem::udiv)); break;
      case Op::SDIV: d.write(in.rd, d.map(rn(), rm(), sem::sdiv)); break;

      case Op::AND: result_nz(d.map(rn(), rm(), std::bit_and<Word>{})); break;
      case Op::ANDI: result_nz(d.map(rn(), imm(), std::bit_and<Word>{})); break;
      case Op::ORR: result_nz(d.map(rn(), rm(), std::bit_or<Word>{})); break;
      case Op::ORRI: result_nz(d.map(rn(), imm(), std::bit_or<Word>{})); break;
      case Op::EOR: result_nz(d.map(rn(), rm(), std::bit_xor<Word>{})); break;
      case Op::EORI: result_nz(d.map(rn(), imm(), std::bit_xor<Word>{})); break;
      case Op::LSL: result_nz(d.map(rn(), rm(), sem::lsl)); break;
      case Op::LSLI: result_nz(d.map(rn(), imm(), sem::lsl)); break;
      case Op::LSR: result_nz(d.map(rn(), rm(), sem::lsr)); break;
      case Op::LSRI: result_nz(d.map(rn(), imm(), sem::lsr)); break;
      case Op::ASR: result_nz(d.map(rn(), rm(), sem::asr)); break;
      case Op::ASRI: result_nz(d.map(rn(), imm(), sem::asr)); break;

      case Op::CMP:
        d.set_flags(kFlagsNZCV, d.map(rn(), rm(), sem::sub_flags));
        break;
      case Op::CMPI:
        d.set_flags(kFlagsNZCV, d.map(rn(), imm(), sem::sub_flags));
        break;
      case Op::CMN:
        d.set_flags(kFlagsNZCV, d.map(rn(), rm(), sem::add_flags));
        break;
      case Op::TST:
        d.set_flags(kFlagsNZ, d.map(rn(), rm(), sem::test_flags));
        break;
      case Op::TSTI:
        d.set_flags(kFlagsNZ, d.map(rn(), imm(), sem::test_flags));
        break;

      // One load site and one store site, so that every instantiation
      // holds a single inlined copy of the port's access.
      case Op::LDR: case Op::LDRH: case Op::LDRB: case Op::LDRR: {
        Value value = mem.load(address(), access_size(), pc);
        if (in.rd == Reg::PC) return value;
        d.write(in.rd, value);
        break;
      }
      case Op::STR: case Op::STRH: case Op::STRB: case Op::STRR:
        mem.store(address(), d.read(in.rd, pc), access_size(), pc);
        break;

      case Op::PUSH: {
        // SP moves first, so a pushed SP is the decremented one; a pushed
        // PC is the instruction's own address.
        const u32 bytes = 4u * static_cast<u32>(std::popcount(in.reg_list));
        d.write(Reg::SP, d.map(d.read(Reg::SP, pc),
                               [bytes](Word sp) { return sp - bytes; }));
        Value addr = d.read(Reg::SP, pc);
        for (unsigned i = 0; i < kNumRegs; ++i) {
          if (!bit(in.reg_list, i)) continue;
          const Reg r = static_cast<Reg>(i);
          mem.store(addr, r == Reg::PC ? d.constant(pc) : d.read(r, pc), 4,
                    pc);
          addr = next_word(addr);
        }
        break;
      }
      case Op::POP: {
        // Every popped register takes its stacked value, LR included; a
        // popped SP is then overwritten by the final stack pointer.
        Value addr = d.read(Reg::SP, pc);
        std::optional<Value> loaded_pc;
        for (unsigned i = 0; i < kNumRegs; ++i) {
          if (!bit(in.reg_list, i)) continue;
          Value value = mem.load(addr, 4, pc);
          addr = next_word(addr);
          if (i == index(Reg::PC)) {
            loaded_pc = value;
          } else {
            d.write(static_cast<Reg>(i), value);
          }
        }
        d.write(Reg::SP, addr);
        return loaded_pc;
      }

      default:
        break;  // NOP/HLT/BKPT/SVC and branches: the caller's
    }
    return std::nullopt;
  }
};

/// A domain and memory port that only record which registers are written.
struct WriteSet {
  struct Value {};
  u16 written = 0;
  Value read(Reg, Address) const { return {}; }
  void write(Reg r, Value) {
    written = static_cast<u16>(written | (1u << index(r)));
  }
  Value constant(Word) const { return {}; }
  template <typename F> Value map(Value, F) const { return {}; }
  template <typename F> Value map(Value, Value, F) const { return {}; }
  void set_flags(u8, Value) {}
  Value load(Value, u32, Address) const { return {}; }
  void store(Value, Value, u32, Address) const {}
};

}  // namespace detail

/// Apply the register, flag and memory effects of `in` at `pc`. Returns
/// the loaded value of a load or POP into PC, for the caller to branch to.
/// Every operand is read before the destination is written.
template <typename Domain, typename Memory>
[[gnu::always_inline]] inline std::optional<typename Domain::Value> transfer(
    Domain& d, const Memory& mem, const Instruction& in, Address pc) {
  return detail::Transfer<Domain, Memory>{d, mem, in, pc}.run();
}

/// Memory port for instructions that touch no memory and never branch: the
/// superblock window's ops (isa::fusible_in_superblock). Reaching it is a
/// classification bug, reported loudly rather than executed wrongly.
struct NoMemory {
  template <typename Value>
  Value load(const Value&, u32, Address pc) const {
    throw Error("NoMemory: load at " + hex32(pc));
  }
  template <typename Value>
  void store(const Value&, const Value&, u32, Address pc) const {
    throw Error("NoMemory: store at " + hex32(pc));
  }
};

/// The registers `in` writes (bit i = register i): transfer()'s own
/// destination set. A loaded PC is control flow and is not included.
inline u16 written_registers(const Instruction& in) {
  detail::WriteSet set;
  transfer(set, set, in, 0);
  return set.written;
}

/// True when `in` writes LR other than as BL/BLX's return address. BX LR
/// is deterministic only if nothing else writes LR (§IV-C.2), so the
/// rewriters and the RAP/TRACES deployments refuse such an instruction.
inline bool writes_lr(const Instruction& in) {
  return bit(written_registers(in), index(Reg::LR));
}

}  // namespace raptrack::isa
