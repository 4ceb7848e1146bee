// Block replay: the valuation transfer the replayer applies over
// straight-line runs, checked against the executor, and the step budget
// cutting through those runs exactly where per-instruction stepping would.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "cpu/executor.hpp"
#include "mem/bus.hpp"
#include "mem/memory_map.hpp"
#include "verify/deployment.hpp"
#include "verify/replayer.hpp"
#include "verify/valuation.hpp"
#include "verify/verifier.hpp"

namespace raptrack::verify {
namespace {

using isa::Op;
using isa::Reg;

// -- valuation transfer vs cpu::Executor --------------------------------------

// Register roles in the fuzzed runs: r11 holds a small word-aligned index
// and r12 a scratch-RAM base, so every load and store lands in RAM; SP
// keeps the stack inside RAM. None of the three is ever a destination.
constexpr Address kCodeBase = mem::MapLayout::kNsFlashBase;
constexpr Address kScratch = mem::MapLayout::kNsRamBase + 0x1000;
constexpr Address kStackTop = mem::MapLayout::kNsRamBase + 0x8000;
constexpr u32 kIndex = 8;

Reg dest_reg(Xoshiro256& rng) {
  // Mostly r0..r3 so destinations and sources collide (rd == rn cases).
  if (rng.chance(3, 4)) return static_cast<Reg>(rng.next_below(4));
  return rng.chance(1, 6) ? Reg::LR : static_cast<Reg>(rng.next_below(11));
}

Reg source_reg(Xoshiro256& rng) {
  if (rng.chance(1, 12)) {
    const Reg special[] = {Reg::SP, Reg::LR, Reg::PC, Reg::R11, Reg::R12};
    return special[rng.next_below(std::size(special))];
  }
  return static_cast<Reg>(rng.next_below(rng.chance(2, 3) ? 4 : 11));
}

/// One random data instruction: ALU, MOVI/MOVT, loads/stores, PUSH/POP
/// without pc. PUSH and POP lists may include LR: a POP into LR must leave
/// it unknown, since the core reloads it from the stack.
isa::Instruction fuzz_data(Xoshiro256& rng) {
  isa::Instruction in;
  const u32 roll = static_cast<u32>(rng.next_below(100));
  if (roll < 55) {
    const Op alu[] = {Op::ADD,  Op::SUB,  Op::RSB,  Op::MUL,  Op::UDIV,
                      Op::SDIV, Op::AND,  Op::ORR,  Op::EOR,  Op::LSL,
                      Op::LSR,  Op::ASR,  Op::MOV,  Op::MVN,  Op::CMP,
                      Op::CMN,  Op::TST,  Op::ADDI, Op::SUBI, Op::RSBI,
                      Op::ANDI, Op::ORRI, Op::EORI, Op::LSLI, Op::LSRI,
                      Op::ASRI, Op::CMPI, Op::TSTI};
    in.op = alu[rng.next_below(std::size(alu))];
    in.rd = dest_reg(rng);
    in.rn = rng.chance(1, 3) ? in.rd : source_reg(rng);
    in.rm = source_reg(rng);
    in.set_flags = rng.chance(1, 2);
    in.imm = static_cast<i32>(rng.next_range(-2048, 2047));
    if (in.op == Op::LSLI || in.op == Op::LSRI || in.op == Op::ASRI) {
      in.imm = static_cast<i32>(rng.next_below(40));
    }
  } else if (roll < 65) {
    in.op = rng.chance(1, 2) ? Op::MOVI : Op::MOVT;
    in.rd = dest_reg(rng);
    in.imm = static_cast<i32>(rng.next_below(0x10000));
  } else if (roll < 85) {
    const Op mem[] = {Op::LDR,  Op::LDRB, Op::LDRH, Op::LDRR,
                      Op::STR,  Op::STRB, Op::STRH, Op::STRR};
    in.op = mem[rng.next_below(std::size(mem))];
    const bool load = in.op == Op::LDR || in.op == Op::LDRB ||
                      in.op == Op::LDRH || in.op == Op::LDRR;
    in.rd = load ? dest_reg(rng) : source_reg(rng);
    in.rn = Reg::R12;
    in.rm = Reg::R11;
    in.shift = static_cast<u8>(rng.next_below(3));
    in.imm = static_cast<i32>(4 * rng.next_below(64));
  } else {
    in.op = rng.chance(1, 2) ? Op::PUSH : Op::POP;
    in.reg_list = static_cast<u16>(rng.next_below(1u << 11));
    if (rng.chance(1, 2)) in.reg_list |= 1u << 14;  // LR
    if (in.reg_list == 0) in.reg_list = 1;
  }
  return in;
}

bool is_load(const isa::Instruction& in) {
  return in.op == Op::LDR || in.op == Op::LDRB || in.op == Op::LDRH ||
         in.op == Op::LDRR;
}

/// Every register and flag the valuation reports known agrees with the core.
void expect_sound(const Valuation& v, const cpu::CpuState& state,
                  const std::string& where) {
  for (unsigned i = 0; i < 15; ++i) {
    const Reg r = static_cast<Reg>(i);
    if (v.is_known(r)) {
      EXPECT_EQ(v.regs[i], state.reg(r)) << where << " r" << i;
    }
  }
  const auto expect_flag = [&](u8 mask, bool actual, const char* name) {
    if (const auto known = v.flag(mask)) {
      EXPECT_EQ(*known, actual) << where << " flag " << name;
    }
  };
  expect_flag(Valuation::kN, state.flags.n, "N");
  expect_flag(Valuation::kZ, state.flags.z, "Z");
  expect_flag(Valuation::kC, state.flags.c, "C");
  expect_flag(Valuation::kV, state.flags.v, "V");
}

TEST(BlockReplay, TransferMatchesExecutorOnFuzzedDataRuns) {
  constexpr int kPrograms = 300;
  constexpr u32 kLength = 32;
  for (int seed = 0; seed < kPrograms; ++seed) {
    Xoshiro256 rng(static_cast<u64>(seed) + 1);
    std::vector<isa::Instruction> code;
    std::vector<u8> bytes;
    for (u32 k = 0; k <= kLength; ++k) {
      const u32 word = isa::encode(
          k < kLength ? fuzz_data(rng) : isa::Instruction{.op = Op::HLT});
      // The transfer sees exactly what the core decodes.
      code.push_back(isa::decode(word).value());
      for (int b = 0; b < 4; ++b) bytes.push_back(static_cast<u8>(word >> (8 * b)));
    }

    mem::MemoryMap map = mem::MemoryMap::make_default();
    mem::Bus bus(map);
    cpu::Executor cpu(bus);
    map.load(kCodeBase, bytes);
    cpu.reset(kCodeBase, kStackTop);

    // Fully-known entry state: random registers and flags, with the
    // address-bearing registers pinned.
    auto& state = cpu.state();
    Valuation v;
    for (unsigned i = 0; i < 15; ++i) {
      const Reg r = static_cast<Reg>(i);
      if (r == Reg::R11) {
        state.set_reg(r, kIndex);
      } else if (r == Reg::R12) {
        state.set_reg(r, kScratch);
      } else if (r != Reg::SP) {
        state.set_reg(r, static_cast<u32>(
                             rng.chance(1, 4) ? rng.next_below(4) : rng.next()));
      }
      v.write(r, state.reg(r));
    }
    state.flags = {rng.chance(1, 2), rng.chance(1, 2), rng.chance(1, 2),
                   rng.chance(1, 2)};
    v.flags = static_cast<u8>(0xf0 | (state.flags.n ? Valuation::kN : 0) |
                              (state.flags.z ? Valuation::kZ : 0) |
                              (state.flags.c ? Valuation::kC : 0) |
                              (state.flags.v ? Valuation::kV : 0));

    for (u32 k = 0; k < kLength; ++k) {
      const Address pc = kCodeBase + 4 * k;
      const isa::Instruction& in = code[k];
      apply_data(v, in, pc);
      ASSERT_FALSE(cpu.step().has_value())
          << "seed " << seed << " step " << k << " " << isa::to_string(in);
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(k) + " `" +
                                isa::to_string(in) + "`";
      expect_sound(v, state, where);
      if (is_load(in)) {
        EXPECT_FALSE(v.is_known(in.rd)) << where;
      }
      if (in.op == Op::POP) {
        for (unsigned i = 0; i < 15; ++i) {
          if (i != 13 && ((in.reg_list >> i) & 1)) {
            EXPECT_FALSE(v.is_known(static_cast<Reg>(i))) << where << " r" << i;
          }
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(BlockReplay, AddsReadsItsOperandBeforeWritingIt) {
  // adds r1, r1, #1 with r1 = 0xffffffff: the flags describe 0xffffffff + 1
  // (zero, carry out), not the written 0 + 1.
  Valuation v;
  v.write(Reg::R1, 0xffff'ffffu);
  const isa::Instruction adds{.op = Op::ADDI, .rd = Reg::R1, .rn = Reg::R1,
                              .set_flags = true, .imm = 1};
  apply_data(v, adds, kCodeBase);
  EXPECT_EQ(v.read(Reg::R1, kCodeBase), 0u);
  EXPECT_EQ(v.flag(Valuation::kZ), true);
  EXPECT_EQ(v.flag(Valuation::kC), true);
  EXPECT_EQ(v.flag(Valuation::kN), false);
  EXPECT_EQ(v.flag(Valuation::kV), false);
}

// -- exhaustive single-instruction property -----------------------------------
//
// Every data and memory opcode, with and without S, from entry valuations
// where each operand register (and SP) and each flag is independently known
// or unknown, over edge values: the valuation after apply_data() must be
// sound against the core, and exact when every input was known.

constexpr u32 kEdges[] = {0, 1, 0x7fff'ffff, 0x8000'0000, 0xffff'ffff};
constexpr u32 kShiftAmounts[] = {31, 32, 255};  // 0 and 1 are edges already
constexpr i32 kImms[] = {0, 1, -1, 2047, -2048, 31, 32, 255};
constexpr i32 kImm16s[] = {0, 1, 0x7fff, 0x8000, 0xffff};
constexpr Address kSp = kStackTop - 0x100;

// Operand registers of every enumerated instruction: rd, rn, rm.
constexpr Reg kRd = Reg::R0, kRn = Reg::R1, kRm = Reg::R2;

/// One enumerated case: the instruction and its operand values.
struct TransferCase {
  isa::Instruction in;
  u32 rd = 0, rn = 0, rm = 0;
};

std::vector<TransferCase> enumerate_transfer_cases() {
  std::vector<TransferCase> out;
  const auto add = [&](isa::Instruction in, u32 rd, u32 rn, u32 rm) {
    in.rd = kRd;
    in.rn = kRn;
    in.rm = kRm;
    // The transfer sees exactly what the core decodes.
    out.push_back({isa::decode(isa::encode(in)).value(), rd, rn, rm});
  };
  const Op alu_reg[] = {Op::MOV, Op::MVN, Op::ADD, Op::SUB, Op::RSB,
                        Op::MUL, Op::UDIV, Op::SDIV, Op::AND, Op::ORR,
                        Op::EOR, Op::LSL, Op::LSR, Op::ASR, Op::CMP,
                        Op::CMN, Op::TST};
  const Op alu_imm[] = {Op::ADDI, Op::SUBI, Op::RSBI, Op::ANDI,
                        Op::ORRI, Op::EORI, Op::LSLI, Op::LSRI,
                        Op::ASRI, Op::CMPI, Op::TSTI};
  for (const bool s : {false, true}) {
    for (const Op op : alu_reg) {
      for (const u32 a : kEdges) {
        for (const u32 b : kEdges) add({.op = op, .set_flags = s}, 0, a, b);
        for (const u32 b : kShiftAmounts) {
          add({.op = op, .set_flags = s}, 0, a, b);
        }
      }
    }
    for (const Op op : alu_imm) {
      for (const u32 a : kEdges) {
        for (const i32 imm : kImms) {
          add({.op = op, .set_flags = s, .imm = imm}, 0, a, 0);
        }
      }
    }
  }
  for (const i32 imm : kImm16s) {
    add({.op = Op::MOVI, .imm = imm}, 0, 0, 0);
    for (const u32 old : kEdges) add({.op = Op::MOVT, .imm = imm}, old, 0, 0);
  }
  for (const Op op : {Op::LDR, Op::LDRH, Op::LDRB, Op::STR, Op::STRH,
                      Op::STRB}) {
    for (const i32 imm : {0, 4, -4}) {
      for (const u32 value : kEdges) {
        add({.op = op, .imm = imm}, value, kScratch, 0);
      }
    }
  }
  for (const Op op : {Op::LDRR, Op::STRR}) {
    for (const u8 shift : {0, 2}) {
      for (const u32 index : {0u, 4u, 8u}) {  // aligned either way
        for (const u32 value : kEdges) {
          add({.op = op, .shift = shift}, value, kScratch, index);
        }
      }
    }
  }
  const u16 lists[] = {1u << 0, 0x0007, (1u << 4) | (1u << 14), 1u << 13,
                       0x5fff, (1u << 0) | (1u << 15)};
  for (const Op op : {Op::PUSH, Op::POP}) {
    for (const u16 list : lists) add({.op = op, .reg_list = list}, 0, 0, 0);
  }
  return out;
}

/// Register r's entry value in every case: operands from the case, SP at
/// kSp, every other register a distinct marker.
u32 entry_value(const TransferCase& c, unsigned r) {
  switch (static_cast<Reg>(r)) {
    case kRd: return c.rd;
    case kRn: return c.rn;
    case kRm: return c.rm;
    case Reg::SP: return kSp;
    default: return 0x1000u + r;
  }
}

/// Registers a fully known entry cannot know afterwards: those the core
/// loads from memory (SP popped is recomputed from the old SP).
u16 loaded_registers(const isa::Instruction& in) {
  if (is_load(in)) return static_cast<u16>(1u << isa::index(in.rd));
  if (in.op == Op::POP) return in.reg_list & 0x5fff;
  return 0;
}

/// The first way `after` is unsound against `core`, or inexact given a
/// fully known `before`; empty when there is none.
std::string transfer_mismatch(const Valuation& before, const Valuation& after,
                              const cpu::CpuState& core,
                              const isa::Instruction& in) {
  for (unsigned i = 0; i < 15; ++i) {
    const Reg r = static_cast<Reg>(i);
    if (after.is_known(r) && after.regs[i] != core.reg(r)) {
      return "r" + std::to_string(i) + " known " + hex32(after.regs[i]) +
             ", core " + hex32(core.reg(r));
    }
  }
  const bool core_flags[] = {core.flags.n, core.flags.z, core.flags.c,
                             core.flags.v};
  for (unsigned f = 0; f < 4; ++f) {
    const auto known = after.flag(static_cast<u8>(1u << f));
    if (known && *known != core_flags[f]) {
      return "flag " + std::string(1, "NZCV"[f]) + " known wrong";
    }
  }
  if (before.known == 0x7fff && (before.flags >> 4) == 0xf) {
    const u16 expect_known = static_cast<u16>(0x7fff & ~loaded_registers(in));
    if (after.known != expect_known) {
      return "all inputs known, known mask " + hex32(after.known) +
             " instead of " + hex32(expect_known);
    }
    if ((after.flags >> 4) != 0xf) return "all inputs known, flags lost";
  }
  return {};
}

TEST(BlockReplay, TransferIsSoundAndExactOnEveryDataOpAndEdgeValue) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus(map);
  cpu::Executor cpu(bus);
  // A popped PC must be a valid branch target: the stack holds code
  // addresses, scratch RAM a mix of edge values.
  std::vector<u8> stack, scratch;
  for (u32 k = 0; k < 16; ++k) {
    for (int b = 0; b < 4; ++b) {
      stack.push_back(static_cast<u8>(kCodeBase >> (8 * b)));
      scratch.push_back(static_cast<u8>(kEdges[k % 5] >> (8 * b)));
    }
  }
  map.load(kSp, stack);
  map.load(kScratch - 16, scratch);

  const Reg inputs[] = {kRd, kRn, kRm, Reg::SP};
  u64 checked = 0;
  for (const TransferCase& c : enumerate_transfer_cases()) {
    const u32 word = isa::encode(c.in);
    map.load(kCodeBase, std::vector<u8>{static_cast<u8>(word),
                                        static_cast<u8>(word >> 8),
                                        static_cast<u8>(word >> 16),
                                        static_cast<u8>(word >> 24)});
    const bool stack_op = c.in.op == Op::PUSH || c.in.op == Op::POP;
    for (u32 unknown = 0; unknown < (stack_op ? 16u : 8u); ++unknown) {
      for (u32 known_flags = 0; known_flags < 16; ++known_flags) {
        for (const u8 flag_values : {0x5, 0xa}) {
          cpu.reset(kCodeBase, kSp);
          cpu::CpuState& state = cpu.state();
          Valuation before;
          for (unsigned i = 0; i < 15; ++i) {
            state.set_reg(static_cast<Reg>(i), entry_value(c, i));
            before.write(static_cast<Reg>(i), entry_value(c, i));
          }
          for (unsigned k = 0; k < 4; ++k) {
            if ((unknown >> k) & 1) before.forget(inputs[k]);
          }
          state.flags = {.n = (flag_values & Valuation::kN) != 0,
                         .z = (flag_values & Valuation::kZ) != 0,
                         .c = (flag_values & Valuation::kC) != 0,
                         .v = (flag_values & Valuation::kV) != 0};
          before.flags =
              static_cast<u8>((known_flags << Valuation::kKnownShift) |
                              (flag_values & known_flags));
          Valuation after = before;
          apply_data(after, c.in, kCodeBase);
          ASSERT_FALSE(cpu.step().has_value()) << isa::to_string(c.in);
          const std::string mismatch =
              transfer_mismatch(before, after, state, c.in);
          ASSERT_TRUE(mismatch.empty())
              << "`" << isa::to_string(c.in) << "` rd=" << hex32(c.rd)
              << " rn=" << hex32(c.rn) << " rm=" << hex32(c.rm)
              << " unknown regs " << unknown << " known flags "
              << known_flags << " flag values " << int{flag_values} << ": "
              << mismatch;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 500'000u);
}

TEST(BlockReplay, FlagSettingLogicalOpsKeepCarryAndOverflow) {
  // ANDS/ORRS/EORS/LSLS/LSRS/ASRS/TST set N and Z only, on the core and in
  // the valuation: known C and V survive them even when the result does not.
  for (const Op op : {Op::AND, Op::ORR, Op::EOR, Op::LSL, Op::LSR, Op::ASR,
                      Op::TST, Op::ANDI, Op::TSTI}) {
    Valuation v;
    v.flags = static_cast<u8>(
        ((Valuation::kC | Valuation::kV) << Valuation::kKnownShift) |
        Valuation::kC);
    apply_data(v, {.op = op, .rd = kRd, .rn = kRn, .rm = kRm,
                   .set_flags = true, .imm = 3},
               kCodeBase);
    EXPECT_EQ(v.flag(Valuation::kC), true) << isa::to_string({.op = op});
    EXPECT_EQ(v.flag(Valuation::kV), false) << isa::to_string({.op = op});
    EXPECT_EQ(v.flag(Valuation::kN), std::nullopt);
  }
}

// -- step budget through straight-line runs -----------------------------------

struct BudgetCase {
  std::shared_ptr<const Deployment> deployment;
  ReplayInputs inputs;
};

BudgetCase budget_case(bool rap) {
  const apps::PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const cfa::Challenge chal{};
  const apps::MethodRun run = rap ? apps::run_rap(prepared, 3, {}, {}, chal)
                                  : apps::run_naive(prepared, 3, {}, {}, chal);
  EXPECT_TRUE(run.functional_ok);
  BudgetCase out;
  out.deployment =
      rap ? Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                            prepared.built.entry)
          : Deployment::naive(prepared.built.program, prepared.built.entry);
  Verifier verifier(apps::demo_key());
  verifier.expect(out.deployment);
  verifier.adopt_challenge(chal);
  const VerificationResult result =
      verifier.verify(chal, run.attestation.reports);
  EXPECT_EQ(result.verdict, Verdict::Accept) << result.detail;
  out.inputs = result.inputs;
  return out;
}

void sweep_budget(const BudgetCase& c) {
  PathReplayer replayer(*c.deployment);
  const ReplayResult full = replayer.replay(c.inputs);
  ASSERT_TRUE(full.clean()) << full.failure;
  ASSERT_GT(full.steps, 400u);

  // A window at the start and one straddling the halt: both cut through
  // data runs (budgets where no event is added) as well as branches.
  std::vector<u64> budgets;
  for (u64 m = 1; m <= 200; ++m) budgets.push_back(m);
  for (u64 m = full.steps - 200; m <= full.steps + 3; ++m) budgets.push_back(m);

  u64 silent_cuts = 0;
  size_t prev_events = 0;
  for (const u64 max_steps : budgets) {
    const ReplayResult cut = replayer.replay(c.inputs, max_steps);
    const std::string where = "max_steps " + std::to_string(max_steps);
    if (max_steps >= full.steps) {
      EXPECT_TRUE(cut.complete) << where;
      EXPECT_EQ(cut.steps, full.steps) << where;
      EXPECT_EQ(cut.events, full.events) << where;
      continue;
    }
    EXPECT_FALSE(cut.complete) << where;
    EXPECT_EQ(cut.steps, max_steps) << where;
    EXPECT_EQ(cut.failure, "replay step budget exceeded") << where;
    ASSERT_LE(cut.events.size(), full.events.size()) << where;
    EXPECT_TRUE(std::equal(cut.events.begin(), cut.events.end(),
                           full.events.begin()))
        << where;
    if (max_steps > 1 && cut.events.size() == prev_events) ++silent_cuts;
    prev_events = cut.events.size();
  }
  EXPECT_GT(silent_cuts, 50u);
}

TEST(BlockReplay, StepBudgetCutsRunsExactlyRap) { sweep_budget(budget_case(true)); }

TEST(BlockReplay, StepBudgetCutsRunsExactlyNaive) {
  sweep_budget(budget_case(false));
}

}  // namespace
}  // namespace raptrack::verify
