// Block replay: the valuation transfer the replayer applies over
// straight-line runs, checked against the executor, and the step budget
// cutting through those runs exactly where per-instruction stepping would.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/runner.hpp"
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
