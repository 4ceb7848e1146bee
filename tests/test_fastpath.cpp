// Differential correctness harness for the predecoded fast-path interpreter:
//   - lock-steps step_fast() against the step() oracle over 500 seeded
//     fuzzed programs (registers, flags, cycles, sink event streams, faults),
//     printing the first mismatching pc on divergence;
//   - re-runs every registry app under all four methods with the fast path
//     on vs off and demands identical metrics, reports, and oracle traces;
//   - regression-checks the undefined-word parity (poisoned word
//     mid-program) and write-invalidation of predecoded lines;
//   - replays the seeded device-fault campaign fast vs slow and demands
//     verdict-for-verdict parity (cache invalidation vs SEU/glitch
//     injectors).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "apps/runner.hpp"
#include "common/hex.hpp"
#include "cpu/executor.hpp"
#include "fault/campaign.hpp"
#include "fuzz_programs.hpp"
#include "isa/decoded_image.hpp"
#include "mem/bus.hpp"
#include "obs/metrics.hpp"
#include "trace/dwt.hpp"
#include "trace/mtb.hpp"
#include "trace/trace_fabric.hpp"

namespace raptrack {
namespace {

using cpu::HaltReason;
using isa::Op;
using isa::Reg;

// -- shared fixtures ---------------------------------------------------------

struct Event {
  bool is_branch = false;
  Address pc = 0;           ///< instruction pc, or branch source
  Address destination = 0;  ///< branches only
  isa::BranchKind kind = isa::BranchKind::None;

  friend bool operator==(const Event&, const Event&) = default;
};

class RecordingSink final : public cpu::TraceSink {
 public:
  void on_instruction(Address pc) override {
    events.push_back({false, pc, 0, isa::BranchKind::None});
  }
  void on_branch(Address source, Address destination,
                 isa::BranchKind kind) override {
    events.push_back({true, source, destination, kind});
  }
  std::vector<Event> events;
};

/// Seeded register file: base registers point into scratch RAM so the
/// fuzzed loads/stores frequently hit backed memory.
void seed_registers(cpu::Executor& cpu, u64 reg_seed) {
  Xoshiro256 rng(reg_seed ^ 0x9e3779b97f4a7c15ull);
  for (unsigned i = 0; i < 6; ++i) {
    cpu.state().set_reg(static_cast<Reg>(i),
                        apps::kScratchBase + static_cast<u32>(rng.next_below(256)) * 4);
  }
  for (unsigned i = 6; i < 11; ++i) {
    cpu.state().set_reg(static_cast<Reg>(i), static_cast<Word>(rng.next()));
  }
}

/// A bare simulated core (no Machine): map + bus + executor + one recording
/// sink, with optional predecode over the loaded program.
struct Core {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus{map};
  cpu::Executor cpu{bus};
  RecordingSink sink;
  std::unique_ptr<isa::DecodedImage> image;

  explicit Core(const Program& program, u64 reg_seed, bool fast) {
    cpu.add_sink(&sink);
    map.load(program.base(), program.bytes());
    if (fast) {
      image = std::make_unique<isa::DecodedImage>(program.base(),
                                                  program.bytes());
      bus.watch_writes(program.base(), program.size(),
                       [img = image.get()](Address addr, u32 bytes) {
                         img->invalidate(addr, bytes);
                       });
      cpu.attach_decoded_image(image.get());
    }
    cpu.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);
    seed_registers(cpu, reg_seed);
  }
};

std::string fault_text(const std::optional<mem::Fault>& fault) {
  if (!fault) return "(none)";
  return std::string(mem::fault_name(fault->type)) + " @" + hex32(fault->pc) +
         " addr=" + hex32(fault->address) + " — " + fault->detail;
}

/// Full-state comparison; returns a description of the first difference.
::testing::AssertionResult states_equal(const cpu::Executor& oracle,
                                        const cpu::Executor& fast) {
  for (unsigned i = 0; i < isa::kNumRegs; ++i) {
    const Reg r = static_cast<Reg>(i);
    if (oracle.state().reg(r) != fast.state().reg(r)) {
      return ::testing::AssertionFailure()
             << "r" << i << ": oracle=" << hex32(oracle.state().reg(r))
             << " fast=" << hex32(fast.state().reg(r));
    }
  }
  if (!(oracle.state().flags == fast.state().flags)) {
    return ::testing::AssertionFailure() << "NZCV flags differ";
  }
  if (oracle.cycles() != fast.cycles()) {
    return ::testing::AssertionFailure() << "cycles: oracle=" << oracle.cycles()
                                         << " fast=" << fast.cycles();
  }
  if (oracle.instructions_retired() != fast.instructions_retired()) {
    return ::testing::AssertionFailure()
           << "instructions: oracle=" << oracle.instructions_retired()
           << " fast=" << fast.instructions_retired();
  }
  const auto& of = oracle.fault();
  const auto& ff = fast.fault();
  if (of.has_value() != ff.has_value() ||
      (of && (of->type != ff->type || of->address != ff->address ||
              of->pc != ff->pc || of->detail != ff->detail))) {
    return ::testing::AssertionFailure() << "fault: oracle=" << fault_text(of)
                                         << " fast=" << fault_text(ff);
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult events_equal(const std::vector<Event>& oracle,
                                        const std::vector<Event>& fast) {
  const size_t n = std::min(oracle.size(), fast.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(oracle[i] == fast[i])) {
      return ::testing::AssertionFailure()
             << "first mismatching event #" << i << " at pc "
             << hex32(oracle[i].pc) << " (oracle) vs " << hex32(fast[i].pc)
             << " (fast)";
    }
  }
  if (oracle.size() != fast.size()) {
    const Address pc = oracle.size() > fast.size() ? oracle[n].pc : fast[n].pc;
    return ::testing::AssertionFailure()
           << "event stream lengths differ (oracle " << oracle.size()
           << " vs fast " << fast.size() << "), first extra event at pc "
           << hex32(pc);
  }
  return ::testing::AssertionSuccess();
}

// -- fuzzed-program differential ---------------------------------------------

constexpr u64 kFuzzBudget = 2000;

TEST(FastPathDiff, LockStepAgainstOracleOn500FuzzedPrograms) {
  for (u64 seed = 1; seed <= 500; ++seed) {
    const Program program = testing::fuzz_program(seed);
    Core oracle(program, seed, /*fast=*/false);
    Core fast(program, seed, /*fast=*/true);

    for (u64 steps = 0; steps < kFuzzBudget; ++steps) {
      const Address at = oracle.cpu.state().pc();
      const auto oracle_reason = oracle.cpu.step();
      const auto fast_reason = fast.cpu.step_fast();
      ASSERT_EQ(oracle_reason.has_value(), fast_reason.has_value())
          << "seed " << seed << ": halt divergence, first mismatching pc "
          << hex32(at);
      ASSERT_TRUE(states_equal(oracle.cpu, fast.cpu))
          << "seed " << seed << ": first mismatching pc " << hex32(at);
      if (oracle_reason) {
        ASSERT_EQ(*oracle_reason, *fast_reason) << "seed " << seed;
        break;
      }
    }
    ASSERT_TRUE(events_equal(oracle.sink.events, fast.sink.events))
        << "seed " << seed;
  }
}

TEST(FastPathDiff, BatchRunFastMatchesOracleRun) {
  // Same 500 programs through the real hoisted-dispatch loop (run_fast with
  // a single sink) rather than the step-by-step wrapper.
  for (u64 seed = 1; seed <= 500; ++seed) {
    const Program program = testing::fuzz_program(seed);
    Core oracle(program, seed, /*fast=*/false);
    Core fast(program, seed, /*fast=*/true);

    const HaltReason oracle_reason = oracle.cpu.run(kFuzzBudget);
    const HaltReason fast_reason = fast.cpu.run_fast(kFuzzBudget);
    ASSERT_EQ(oracle_reason, fast_reason) << "seed " << seed;
    ASSERT_TRUE(states_equal(oracle.cpu, fast.cpu)) << "seed " << seed;
    ASSERT_TRUE(events_equal(oracle.sink.events, fast.sink.events))
        << "seed " << seed;
  }
}

TEST(FastPathDiff, NoSinkAndMultiSinkDispatchVariantsAgree) {
  // The per-configuration dispatch has three shapes; exercise 0 and 2 sinks
  // (the single-sink shape is covered by the batch test above).
  for (u64 seed = 501; seed <= 540; ++seed) {
    const Program program = testing::fuzz_program(seed);

    // Multi-sink: two recorders must both see the identical stream.
    Core oracle(program, seed, false);
    Core fast(program, seed, true);
    RecordingSink oracle_second, fast_second;
    oracle.cpu.add_sink(&oracle_second);
    fast.cpu.add_sink(&fast_second);
    ASSERT_EQ(oracle.cpu.run(kFuzzBudget), fast.cpu.run_fast(kFuzzBudget))
        << "seed " << seed;
    ASSERT_TRUE(states_equal(oracle.cpu, fast.cpu)) << "seed " << seed;
    ASSERT_TRUE(events_equal(oracle.sink.events, fast.sink.events));
    ASSERT_TRUE(events_equal(oracle_second.events, fast_second.events));

    // No-sink: state-only comparison.
    mem::MemoryMap map_a = mem::MemoryMap::make_default();
    mem::Bus bus_a{map_a};
    cpu::Executor cpu_a{bus_a};
    map_a.load(program.base(), program.bytes());
    cpu_a.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);

    mem::MemoryMap map_b = mem::MemoryMap::make_default();
    mem::Bus bus_b{map_b};
    cpu::Executor cpu_b{bus_b};
    map_b.load(program.base(), program.bytes());
    isa::DecodedImage image(program.base(), program.bytes());
    bus_b.watch_writes(program.base(), program.size(),
                       [&image](Address addr, u32 bytes) {
                         image.invalidate(addr, bytes);
                       });
    cpu_b.attach_decoded_image(&image);
    cpu_b.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);

    ASSERT_EQ(cpu_a.run(kFuzzBudget), cpu_b.run_fast(kFuzzBudget))
        << "seed " << seed;
    ASSERT_TRUE(states_equal(cpu_a, cpu_b)) << "seed " << seed;
  }
}

// -- undefined-word parity (the cost-asymmetry fix) --------------------------

Program poisoned_program() {
  Program program(mem::MapLayout::kNsFlashBase, std::vector<u8>(6 * 4, 0));
  Address at = program.base();
  program.set_word(at, isa::encode({.op = Op::MOVI, .rd = Reg::R0, .imm = 7}));
  program.set_word(at + 4, isa::encode({.op = Op::ADDI, .rd = Reg::R0,
                                        .rn = Reg::R0, .imm = 3}));
  program.set_word(at + 8, 0xffff'ffffu);  // poisoned: does not decode
  program.set_word(at + 12, isa::encode(isa::Instruction{.op = Op::HLT}));
  program.set_word(at + 16, isa::encode(isa::Instruction{.op = Op::HLT}));
  program.set_word(at + 20, isa::encode(isa::Instruction{.op = Op::HLT}));
  return program;
}

TEST(FastPathUndefined, PoisonedWordMidProgramFaultsIdentically) {
  const Program program = poisoned_program();
  ASSERT_FALSE(isa::decode(0xffff'ffffu).has_value());

  Core oracle(program, 1, false);
  Core fast(program, 1, true);
  EXPECT_EQ(oracle.cpu.run(100), HaltReason::Fault);
  EXPECT_EQ(fast.cpu.run_fast(100), HaltReason::Fault);

  ASSERT_TRUE(oracle.cpu.fault().has_value());
  ASSERT_TRUE(fast.cpu.fault().has_value());
  EXPECT_EQ(fast.cpu.fault()->type, mem::FaultType::UndefinedInstr);
  EXPECT_EQ(fast.cpu.fault()->pc, program.base() + 8);
  EXPECT_EQ(oracle.cpu.fault()->detail, fast.cpu.fault()->detail);
  EXPECT_TRUE(states_equal(oracle.cpu, fast.cpu));
  // The poisoned word retires nothing on either path (fault precedes the
  // sink walk and the retired-instruction count).
  EXPECT_EQ(fast.cpu.instructions_retired(), 2u);
  EXPECT_TRUE(events_equal(oracle.sink.events, fast.sink.events));
}

TEST(FastPathUndefined, PredecodeMarksPoisonedSlotInvalid) {
  const Program program = poisoned_program();
  isa::DecodedImage image(program.base(), program.bytes());
  EXPECT_EQ(image.slot(program.base()).kind, isa::SlotKind::Valid);
  EXPECT_EQ(image.slot(program.base() + 8).kind, isa::SlotKind::Undefined);
  EXPECT_EQ(image.slot(program.base() + 8).raw, 0xffff'ffffu);
}

// -- write invalidation ------------------------------------------------------

TEST(FastPathInvalidation, StoreIntoPredecodedRegionDropsTheLine) {
  // Program overwrites its own word #3 (a B .+0 self-loop) with a HLT via a
  // store, then falls through into it. Without invalidation the fast path
  // would execute the stale self-loop from the cache.
  Program program(mem::MapLayout::kNsFlashBase, std::vector<u8>(6 * 4, 0));
  const Address base = program.base();
  const u32 hlt = isa::encode(isa::Instruction{.op = Op::HLT});
  program.set_word(base, isa::encode({.op = Op::MOVI, .rd = Reg::R0,
                                      .imm = static_cast<i32>(hlt & 0xffff)}));
  program.set_word(base + 4,
                   isa::encode({.op = Op::MOVT, .rd = Reg::R0,
                                .imm = static_cast<i32>(hlt >> 16)}));
  // Reading PC as an operand yields pc+4, so r1 = base+12; the store then
  // targets [r1 + 4] = base+16, the self-loop's slot.
  program.set_word(base + 8, isa::encode({.op = Op::MOV, .rd = Reg::R1,
                                          .rm = Reg::PC}));
  program.set_word(base + 12, isa::encode({.op = Op::STR, .rd = Reg::R0,
                                           .rn = Reg::R1, .imm = 4}));
  program.set_word(base + 16, isa::encode(isa::make_branch(Op::B, -4)));
  program.set_word(base + 20, hlt);

  Core oracle(program, 1, false);
  Core fast(program, 1, true);
  EXPECT_EQ(oracle.cpu.run(100), HaltReason::Halted);
  EXPECT_EQ(fast.cpu.run_fast(100), HaltReason::Halted);
  EXPECT_TRUE(states_equal(oracle.cpu, fast.cpu));
  EXPECT_TRUE(events_equal(oracle.sink.events, fast.sink.events));
  EXPECT_GT(fast.image->invalidations(), 0u);
}

TEST(FastPathInvalidation, RawInjectorWriteAlsoDropsTheLine) {
  // The MTB SEU injector writes through MemoryMap::raw_write32, bypassing
  // the bus — the watch must still fire.
  Program program(mem::MapLayout::kNsFlashBase, std::vector<u8>(3 * 4, 0));
  program.set_word(program.base(), isa::encode(isa::make_branch(Op::B, -4)));
  program.set_word(program.base() + 4,
                   isa::encode(isa::Instruction{.op = Op::HLT}));
  program.set_word(program.base() + 8,
                   isa::encode(isa::Instruction{.op = Op::HLT}));

  Core fast(program, 1, true);
  EXPECT_EQ(fast.cpu.run_fast(10), HaltReason::InstrBudget);

  // "SEU" rewrites the self-loop into a fall-through NOP.
  fast.map.raw_write32(program.base(),
                       isa::encode(isa::Instruction{.op = Op::NOP}));
  EXPECT_GT(fast.image->invalidations(), 0u);

  Core fresh(program, 1, true);
  fresh.map.raw_write32(program.base(),
                        isa::encode(isa::Instruction{.op = Op::NOP}));
  EXPECT_EQ(fresh.cpu.run_fast(10), HaltReason::Halted);
}

TEST(FastPathInvalidation, CachedSlotsAreActuallyExecutedFromTheImage) {
  // Negative control for every parity test above: attach an image that
  // deliberately disagrees with memory (HLT cached over a self-loop in
  // flash, no write watch). If step_fast() were quietly falling back to
  // fetch+decode, this run would spin to the budget; executing the cached
  // HLT proves the hot path really reads the image.
  Program looping(mem::MapLayout::kNsFlashBase, std::vector<u8>(2 * 4, 0));
  looping.set_word(looping.base(), isa::encode(isa::make_branch(Op::B, -4)));
  looping.set_word(looping.base() + 4,
                   isa::encode(isa::Instruction{.op = Op::HLT}));

  Program halting = looping;
  halting.set_word(halting.base(), isa::encode(isa::Instruction{.op = Op::HLT}));

  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus{map};
  cpu::Executor cpu{bus};
  map.load(looping.base(), looping.bytes());
  isa::DecodedImage image(halting.base(), halting.bytes());
  cpu.attach_decoded_image(&image);
  cpu.reset(looping.base(), mem::MapLayout::kNsRamBase + 0x8000);
  EXPECT_EQ(cpu.run_fast(100), HaltReason::Halted);
  EXPECT_EQ(cpu.instructions_retired(), 1u);
}

// -- superblock fusion -------------------------------------------------------
//
// The sink-carrying fixtures above use RecordingSink (a generic TraceSink),
// which the dispatcher must observe per instruction — fuse_window() answers
// false and fusion never engages there. These tests run sinkless or through
// a real TraceFabric, the two configurations where superblocks are live.

/// Recompute the expected fused-run metadata from the image's *current* slot
/// states with the same backward pass predecode uses, and demand the live
/// array matches. After invalidate() this proves truncation is exactly
/// equivalent to a full rebuild (lengths and suffix cycle sums).
void expect_fuse_metadata_consistent(const isa::DecodedImage& image) {
  const size_t n = image.slot_count();
  std::vector<isa::FuseRun> expect(n);
  for (size_t i = n; i-- > 0;) {
    const isa::DecodedSlot& slot = image.slot(image.base() + 4 * i);
    if (slot.kind != isa::SlotKind::Valid ||
        !isa::fusible_in_superblock(slot.instr)) {
      continue;
    }
    const isa::FuseRun next = (i + 1 < n) ? expect[i + 1] : isa::FuseRun{};
    expect[i].len = next.len + 1;
    expect[i].cycles = next.cycles + slot.cost_taken;
  }
  for (size_t i = 0; i < n; ++i) {
    const isa::FuseRun& got = image.fuse_run(image.base() + 4 * i);
    ASSERT_EQ(got.len, expect[i].len) << "fuse len, slot " << i;
    ASSERT_EQ(got.cycles, expect[i].cycles) << "fuse cycles, slot " << i;
  }
}

/// Sinkless core pair (fusion engages via SinksNone) for one fuzzed program.
struct SinklessPair {
  mem::MemoryMap oracle_map = mem::MemoryMap::make_default();
  mem::Bus oracle_bus{oracle_map};
  cpu::Executor oracle{oracle_bus};
  mem::MemoryMap fast_map = mem::MemoryMap::make_default();
  mem::Bus fast_bus{fast_map};
  cpu::Executor fast{fast_bus};
  std::unique_ptr<isa::DecodedImage> image;

  SinklessPair(const Program& program, u64 reg_seed) {
    oracle_map.load(program.base(), program.bytes());
    oracle.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);
    seed_registers(oracle, reg_seed);

    fast_map.load(program.base(), program.bytes());
    image = std::make_unique<isa::DecodedImage>(program.base(),
                                                program.bytes());
    fast_bus.watch_writes(program.base(), program.size(),
                          [img = image.get()](Address addr, u32 bytes) {
                            img->invalidate(addr, bytes);
                          });
    fast.attach_decoded_image(image.get());
    fast.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);
    seed_registers(fast, reg_seed);
  }
};

TEST(Superblock, SinklessFuzzedProgramsMatchOracleAndActuallyFuse) {
  u64 total_fused = 0;
  for (u64 seed = 1; seed <= 300; ++seed) {
    const Program program = testing::fuzz_program(seed);
    SinklessPair pair(program, seed);
    ASSERT_EQ(pair.oracle.run(kFuzzBudget), pair.fast.run_fast(kFuzzBudget))
        << "seed " << seed;
    ASSERT_TRUE(states_equal(pair.oracle, pair.fast)) << "seed " << seed;
    expect_fuse_metadata_consistent(*pair.image);
    total_fused += pair.fast.fused_dispatches();
  }
  // Engagement check: across the corpus a meaningful number of retirements
  // must have gone through fused windows, or this test proves nothing. The
  // fuzz mix is deliberately branch/fault-heavy, so runs of >= 2 fusible
  // ALU ops are a minority of retirements (~3.5k of them across 300 seeds).
  EXPECT_GT(total_fused, 1'000u);
}

/// The fused window against execute(): every fusible_in_superblock opcode,
/// with and without S, over edge operand values, with rd a plain register,
/// rn itself (so the second copy reads the first's result) or PC (a dead
/// write inside the window), and rn = PC read as pc + 4. Each program is
/// `op; op; hlt`: the first two retire as one fused window on the fast
/// path and per instruction on the oracle.
TEST(Superblock, FusedWindowMatchesExecuteOnEveryFusibleOp) {
  const u32 edges[] = {0,  1,  0x7fff'ffff, 0x8000'0000, 0xffff'ffff,
                       31, 32, 255};
  const i32 imms[] = {0, 1, -1, 2047, -2048, 31, 32, 255};
  const i32 imm16s[] = {0, 1, 0x7fff, 0x8000, 0xffff};
  const Address base = mem::MapLayout::kNsFlashBase;
  const Address stack_top = mem::MapLayout::kNsRamBase + 0x8000;

  mem::MemoryMap oracle_map = mem::MemoryMap::make_default();
  mem::Bus oracle_bus{oracle_map};
  cpu::Executor oracle{oracle_bus};
  mem::MemoryMap fast_map = mem::MemoryMap::make_default();
  mem::Bus fast_bus{fast_map};
  cpu::Executor fast{fast_bus};

  u64 windows = 0;
  const auto check = [&](const isa::Instruction& in, u32 rn, u32 rm,
                         bool flags) {
    const u32 word = isa::encode(in);
    const u32 hlt = isa::encode(isa::Instruction{.op = Op::HLT});
    std::vector<u8> bytes;
    for (const u32 w : {word, word, hlt}) {
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<u8>(w >> (8 * b)));
      }
    }
    oracle_map.load(base, bytes);
    fast_map.load(base, bytes);
    const isa::DecodedImage image(base, bytes);
    fast.attach_decoded_image(&image);
    for (cpu::Executor* core : {&oracle, &fast}) {
      core->reset(base, stack_top);
      for (unsigned i = 0; i < 13; ++i) {
        core->state().set_reg(static_cast<Reg>(i), 0x1000u + i);
      }
      core->state().set_reg(Reg::R1, rn);
      core->state().set_reg(Reg::R2, rm);
      core->state().flags = {flags, !flags, flags, !flags};
    }
    ASSERT_EQ(oracle.run(10), HaltReason::Halted);
    ASSERT_EQ(fast.run_fast(10), HaltReason::Halted);
    fast.detach_decoded_image();
    ASSERT_EQ(fast.fused_dispatches(), 2u) << isa::to_string(in);
    ASSERT_TRUE(states_equal(oracle, fast))
        << "`" << isa::to_string(in) << "` rn=" << hex32(rn)
        << " rm=" << hex32(rm);
    ++windows;
  };

  for (unsigned byte = 0; byte < 256; ++byte) {
    const auto info = isa::op_info(static_cast<u8>(byte));
    if (!info || !isa::fusible_in_superblock({.op = info->op})) continue;
    const Op op = info->op;
    const isa::Format format = isa::format_of(op);
    for (const Reg rd : {Reg::R0, Reg::R1, Reg::PC}) {
      for (const Reg rn : {Reg::R1, Reg::PC}) {
        for (const bool s : {false, true}) {
          for (const bool flags : {false, true}) {
            isa::Instruction in{.op = op, .rd = rd, .rn = rn, .rm = Reg::R2,
                                .set_flags = s && format != isa::Format::Mov16};
            if (format == isa::Format::Mov16) {
              for (const i32 imm : imm16s) {
                in.imm = imm;
                for (const u32 old : edges) check(in, old, 0, flags);
              }
            } else if (format == isa::Format::AluImm) {
              for (const i32 imm : imms) {
                in.imm = imm;
                for (const u32 a : edges) check(in, a, 0, flags);
              }
            } else {
              for (const u32 a : edges) {
                for (const u32 b : edges) check(in, a, b, flags);
              }
            }
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(windows, 20'000u);
}

/// Fuzzed self-patching program: a 3-instruction fused header materialises a
/// patch word, a per-slot STR plants it at a random slot inside the long
/// fused ALU run that follows, and execution then enters the truncated run
/// and must fall back per-slot at the patched word — which is randomly a
/// HLT (halts), NOP (falls through into the rest of the run), B .-4 (spins
/// to the budget), or an undecodable word (UndefinedInstr fault).
Program self_patching_program(u64 seed, u32 words) {
  Xoshiro256 rng(seed ^ 0xa02bdbf7bb3c0a75ull);
  Program program(mem::MapLayout::kNsFlashBase, std::vector<u8>(words * 4, 0));
  const Address base = program.base();

  const u32 patches[] = {
      isa::encode(isa::Instruction{.op = Op::HLT}),
      isa::encode(isa::Instruction{.op = Op::NOP}),
      isa::encode(isa::make_branch(Op::B, -4)),
      0xffff'ffffu,  // does not decode
  };
  const u32 patch = patches[rng.next_below(std::size(patches))];
  const u32 target = 5 + static_cast<u32>(rng.next_below(words - 7));

  program.set_word(base, isa::encode({.op = Op::MOVI, .rd = Reg::R0,
                                      .imm = static_cast<i32>(patch & 0xffff)}));
  program.set_word(base + 4, isa::encode({.op = Op::MOVT, .rd = Reg::R0,
                                          .imm = static_cast<i32>(patch >> 16)}));
  // r1 = pc + 4 = base + 12; STR [r1, 4*target - 12] patches slot `target`.
  program.set_word(base + 8, isa::encode({.op = Op::MOV, .rd = Reg::R1,
                                          .rm = Reg::PC}));
  program.set_word(base + 12,
                   isa::encode({.op = Op::STR, .rd = Reg::R0, .rn = Reg::R1,
                                .imm = static_cast<i32>(4 * target - 12)}));
  // Slots 4 .. words-2: one maximal fused ALU run crossing `target`.
  const Op alu[] = {Op::ADDI, Op::SUBI, Op::ANDI, Op::ORRI, Op::EORI,
                    Op::MOVI, Op::MOV,  Op::ADD,  Op::SUB,  Op::EOR};
  for (u32 i = 4; i + 1 < words; ++i) {
    isa::Instruction in;
    in.op = alu[rng.next_below(std::size(alu))];
    in.rd = static_cast<Reg>(2 + rng.next_below(8));  // R2..R9
    in.rn = static_cast<Reg>(2 + rng.next_below(8));
    in.rm = static_cast<Reg>(2 + rng.next_below(8));
    in.set_flags = rng.chance(1, 2);
    in.imm = static_cast<i32>(rng.next_below(256));
    program.set_word(base + 4 * i, isa::encode(in));
  }
  program.set_word(base + 4 * (words - 1),
                   isa::encode(isa::Instruction{.op = Op::HLT}));
  return program;
}

TEST(Superblock, FuzzedSelfModifyingWriteInsideFusedRunFallsBackLosslessly) {
  for (u64 seed = 1; seed <= 200; ++seed) {
    const Program program = self_patching_program(seed, /*words=*/40);
    SinklessPair pair(program, seed);
    ASSERT_EQ(pair.oracle.run(500), pair.fast.run_fast(500))
        << "seed " << seed;
    ASSERT_TRUE(states_equal(pair.oracle, pair.fast)) << "seed " << seed;
    // Every seed must (a) have fused at least the header run, (b) have
    // invalidated the patched slot, and (c) leave truncated metadata that
    // matches a from-scratch rebuild.
    EXPECT_GT(pair.fast.fused_dispatches(), 0u) << "seed " << seed;
    EXPECT_GT(pair.image->invalidations(), 0u) << "seed " << seed;
    expect_fuse_metadata_consistent(*pair.image);
  }
}

TEST(Superblock, RandomInvalidationsKeepFuseMetadataRebuildExact) {
  for (u64 seed = 1; seed <= 100; ++seed) {
    const Program program = testing::fuzz_program(seed);
    isa::DecodedImage image(program.base(), program.bytes());
    Xoshiro256 rng(seed * 0x2545f4914f6cdd1dull + 1);
    for (int round = 0; round < 8; ++round) {
      const Address at = program.base() - 8 +
                         static_cast<Address>(rng.next_below(program.size() + 16));
      image.invalidate(at, 1 + static_cast<u32>(rng.next_below(16)));
      expect_fuse_metadata_consistent(image);
    }
  }
}

TEST(Superblock, DisabledSuperblocksPublishNoFuseMetadata) {
  const Program program = testing::fuzz_program(7);
  isa::DecodedImage fused(program.base(), program.bytes());
  isa::DecodedImage plain(program.base(), program.bytes(), {},
                          /*superblocks=*/false);
  EXPECT_NE(fused.fuse_begin(), nullptr);
  EXPECT_EQ(plain.fuse_begin(), nullptr);
  // And invalidate() on the plain image must not touch fuse state.
  plain.invalidate(program.base() + 8, 4);
  EXPECT_EQ(plain.fuse_begin(), nullptr);
}

/// Core wired to a real TraceFabric (MTB in always-on mode over a small
/// wrap-prone buffer + DWT), the configuration where the fast path defers
/// MTB packet emission and fuses through DWT-inert windows.
struct FabricCore {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus{map};
  cpu::Executor cpu{bus};
  trace::Mtb mtb{map, mem::MapLayout::kMtbSramBase, 64};
  trace::Dwt dwt{mtb};
  trace::TraceFabric fabric{dwt, mtb};
  std::unique_ptr<isa::DecodedImage> image;

  FabricCore(const Program& program, u64 reg_seed, bool fast) {
    mtb.set_enabled(true);
    mtb.set_tstart_enable(true);
    cpu.add_sink(&fabric);
    map.load(program.base(), program.bytes());
    if (fast) {
      image = std::make_unique<isa::DecodedImage>(program.base(),
                                                  program.bytes());
      bus.watch_writes(program.base(), program.size(),
                       [img = image.get()](Address addr, u32 bytes) {
                         img->invalidate(addr, bytes);
                       });
      cpu.attach_decoded_image(image.get());
    }
    cpu.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);
    seed_registers(cpu, reg_seed);
  }
};

TEST(Superblock, DeferredMtbEmissionIsByteIdenticalToEager) {
  // The eager reference is the oracle run (per-step sink dispatch writes
  // each packet straight to SRAM); the fast run batches emission in the
  // deferral ring and flushes at window/drain boundaries. The paper's
  // attestation evidence is the raw MTB SRAM content, so the comparison is
  // at the byte level, wrap and A-bits included.
  u64 total_fused = 0;
  u64 total_packets = 0;
  for (u64 seed = 1; seed <= 150; ++seed) {
    const Program program = testing::fuzz_program(seed);
    FabricCore oracle(program, seed, /*fast=*/false);
    FabricCore fast(program, seed, /*fast=*/true);

    ASSERT_EQ(oracle.cpu.run(kFuzzBudget), fast.cpu.run_fast(kFuzzBudget))
        << "seed " << seed;
    ASSERT_TRUE(states_equal(oracle.cpu, fast.cpu)) << "seed " << seed;

    ASSERT_EQ(oracle.mtb.position(), fast.mtb.position()) << "seed " << seed;
    ASSERT_EQ(oracle.mtb.wrapped(), fast.mtb.wrapped()) << "seed " << seed;
    ASSERT_EQ(oracle.mtb.total_bytes_written(), fast.mtb.total_bytes_written())
        << "seed " << seed;
    for (u32 offset = 0; offset < 64; offset += 4) {
      ASSERT_EQ(
          oracle.map.raw_read32(mem::MapLayout::kMtbSramBase + offset),
          fast.map.raw_read32(mem::MapLayout::kMtbSramBase + offset))
          << "seed " << seed << ": MTB SRAM word at +" << offset;
    }
    total_fused += fast.cpu.fused_dispatches();
    total_packets += oracle.mtb.packets_recorded();
  }
  EXPECT_GT(total_fused, 1'000u);    // fusion engaged through the fabric
  EXPECT_GT(total_packets, 1'000u);  // and the corpus actually branched
}

// -- state-aware inert windows ------------------------------------------------
//
// Each case runs one hand-built straight-line program through a TraceFabric
// twice from the same DWT configuration and MTB state — per-step oracle vs
// superblock fast path — and demands identical core state, MTB event
// counts, watchpoint hits and trace SRAM, plus exactly the fused-retirement
// count the state-aware rule predicts for the MTB state at each window head.

constexpr u32 kPad = 8;  ///< fusible instructions heading the window program

/// kPad fusible ADDIs at base..base+4*(kPad-1), then `b .+4` (one packet
/// when tracing is live), then HLT.
Program window_program() {
  Program program(mem::MapLayout::kNsFlashBase,
                  std::vector<u8>((kPad + 2) * 4, 0));
  const Address base = program.base();
  for (u32 i = 0; i < kPad; ++i) {
    program.set_word(base + 4 * i,
                     isa::encode({.op = Op::ADDI, .rd = Reg::R0, .rn = Reg::R0,
                                  .imm = static_cast<i32>(i + 1)}));
  }
  program.set_word(base + 4 * kPad, isa::encode(isa::make_branch(Op::B, 0)));
  program.set_word(base + 4 * (kPad + 1),
                   isa::encode(isa::Instruction{.op = Op::HLT}));
  return program;
}

Address pad_pc(u32 i) { return mem::MapLayout::kNsFlashBase + 4 * i; }

struct WindowCore {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus{map};
  cpu::Executor cpu{bus};
  trace::Mtb mtb{map, mem::MapLayout::kMtbSramBase, 64};
  trace::Dwt dwt{mtb};
  trace::TraceFabric fabric{dwt, mtb};
  std::unique_ptr<isa::DecodedImage> image;
  u64 watch_hits = 0;

  WindowCore(const Program& program, bool fast,
             const std::function<void(trace::Dwt&, trace::Mtb&)>& setup) {
    mtb.set_enabled(true);
    dwt.set_watchpoint_handler([this](Address) { ++watch_hits; });
    cpu.add_sink(&fabric);
    map.load(program.base(), program.bytes());
    if (fast) {
      image = std::make_unique<isa::DecodedImage>(program.base(),
                                                  program.bytes());
      cpu.attach_decoded_image(image.get());
    }
    cpu.reset(program.base(), mem::MapLayout::kNsRamBase + 0x8000);
    setup(dwt, mtb);
  }
};

struct WindowOutcome {
  u64 fused = 0;
  u64 tstart = 0;
  u64 tstop = 0;
  u64 packets = 0;
};

/// Runs the window program under `setup` on both paths, checks they agree
/// on everything observable, and returns the fast path's counts.
WindowOutcome run_window(
    const std::function<void(trace::Dwt&, trace::Mtb&)>& setup) {
  const Program program = window_program();
  WindowCore oracle(program, /*fast=*/false, setup);
  WindowCore fast(program, /*fast=*/true, setup);
  EXPECT_EQ(oracle.cpu.run(100), HaltReason::Halted);
  EXPECT_EQ(fast.cpu.run_fast(100), HaltReason::Halted);
  EXPECT_TRUE(states_equal(oracle.cpu, fast.cpu));
  EXPECT_EQ(oracle.mtb.tstart_events(), fast.mtb.tstart_events());
  EXPECT_EQ(oracle.mtb.tstop_events(), fast.mtb.tstop_events());
  EXPECT_EQ(oracle.mtb.tracing(), fast.mtb.tracing());
  EXPECT_EQ(oracle.mtb.total_bytes_written(), fast.mtb.total_bytes_written());
  EXPECT_EQ(oracle.mtb.read_log(), fast.mtb.read_log());
  EXPECT_EQ(oracle.watch_hits, fast.watch_hits);
  EXPECT_EQ(oracle.cpu.fused_dispatches(), 0u);
  return {fast.cpu.fused_dispatches(), fast.mtb.tstart_events(),
          fast.mtb.tstop_events(), fast.mtb.packets_recorded()};
}

void tstop_range(trace::Dwt& dwt, Address base, Address limit) {
  dwt.configure(2, {trace::ComparatorAction::MtbTstopBase, base});
  dwt.configure(3, {trace::ComparatorAction::MtbTstopLimit, limit});
}

void tstart_range(trace::Dwt& dwt, Address base, Address limit) {
  dwt.configure(0, {trace::ComparatorAction::MtbTstartBase, base});
  dwt.configure(1, {trace::ComparatorAction::MtbTstartLimit, limit});
}

TEST(Superblock, InertWindowTstopEnteredStartedFiresOneTstopThenFuses) {
  const WindowOutcome out = run_window([](trace::Dwt& dwt, trace::Mtb& mtb) {
    tstop_range(dwt, pad_pc(0), pad_pc(kPad + 1));
    mtb.tstart();
  });
  // The head slot goes per-slot and fires the one real TSTOP; the shorter
  // run behind it then finds TSTOP idempotent and fuses.
  EXPECT_EQ(out.tstop, 1u);
  EXPECT_EQ(out.fused, kPad - 1);
  EXPECT_EQ(out.packets, 0u);
}

TEST(Superblock, InertWindowTstopWithMtbStoppedFusesWhole) {
  const WindowOutcome out = run_window([](trace::Dwt& dwt, trace::Mtb&) {
    tstop_range(dwt, pad_pc(0), pad_pc(kPad + 1));
  });
  EXPECT_EQ(out.tstop, 0u);
  EXPECT_EQ(out.fused, kPad);
}

TEST(Superblock, InertWindowTstartPadEnteredStoppedCountsActivationExactly) {
  // TSTART at the pad head starts the MTB with `latency` instructions to go;
  // the rest of the pad fuses and the batched countdown decides whether the
  // branch after the pad is traced: exactly when latency <= kPad.
  for (const u32 latency : {kPad - 1, kPad, kPad + 1}) {
    SCOPED_TRACE(latency);
    const WindowOutcome out =
        run_window([latency](trace::Dwt& dwt, trace::Mtb& mtb) {
          tstart_range(dwt, pad_pc(0), pad_pc(kPad - 1));
          mtb.set_activation_latency(latency);
        });
    EXPECT_EQ(out.tstart, 1u);
    EXPECT_EQ(out.fused, kPad - 1);
    EXPECT_EQ(out.packets, latency <= kPad ? 1u : 0u);
  }
}

TEST(Superblock, InertWindowTstartPadEnteredStartedWithPendingActivation) {
  for (const u32 latency : {kPad, kPad + 1, kPad + 2}) {
    SCOPED_TRACE(latency);
    const WindowOutcome out =
        run_window([latency](trace::Dwt& dwt, trace::Mtb& mtb) {
          tstart_range(dwt, pad_pc(0), pad_pc(kPad - 1));
          mtb.set_activation_latency(latency);
          mtb.tstart();  // started, activation still pending
        });
    EXPECT_EQ(out.tstart, 1u);  // only the one above: TSTART is idempotent
    EXPECT_EQ(out.fused, kPad);
    EXPECT_EQ(out.packets, latency <= kPad + 1 ? 1u : 0u);
  }
}

TEST(Superblock, InertWindowTstartenFusesAcrossBothRanges) {
  const WindowOutcome out = run_window([](trace::Dwt& dwt, trace::Mtb& mtb) {
    tstart_range(dwt, pad_pc(0), pad_pc(kPad / 2 - 1));
    tstop_range(dwt, pad_pc(kPad / 2), pad_pc(kPad + 1));
    mtb.set_tstart_enable(true);
  });
  EXPECT_EQ(out.tstart, 0u);
  EXPECT_EQ(out.tstop, 0u);
  EXPECT_EQ(out.fused, kPad);
  EXPECT_EQ(out.packets, 1u);
}

TEST(Superblock, InertWindowOverlappingBothRangesFusesOnlyPastTheOverlap) {
  // Without TSTARTEN a window touching both ranges always has one action
  // that would flip the MTB, so heads in the TSTART half go per-slot; the
  // first TSTOP-only head still finds the MTB started and fires TSTOP;
  // the remaining kPad/2 - 1 instructions fuse.
  for (const bool started : {false, true}) {
    SCOPED_TRACE(started);
    const WindowOutcome out =
        run_window([started](trace::Dwt& dwt, trace::Mtb& mtb) {
          tstart_range(dwt, pad_pc(0), pad_pc(kPad / 2 - 1));
          tstop_range(dwt, pad_pc(kPad / 2), pad_pc(kPad + 1));
          if (started) mtb.tstart();
        });
    EXPECT_EQ(out.tstart, 1u);
    EXPECT_EQ(out.tstop, 1u);
    EXPECT_EQ(out.fused, kPad / 2 - 1);
  }
}

TEST(Superblock, InertWindowWatchpointInsideWindowSplitsIt) {
  const WindowOutcome out = run_window([](trace::Dwt& dwt, trace::Mtb& mtb) {
    dwt.configure(0, {trace::ComparatorAction::Watchpoint, pad_pc(3)});
    mtb.set_tstart_enable(true);
  });
  // Every head up to the watchpoint sees it inside its window.
  EXPECT_EQ(out.fused, kPad - 4);
}

/// One RAP attestation on the fast path with superblocks on or off, plus
/// the MTB and fusion counters the report does not carry.
struct RapOutcome {
  cfa::AttestationRun run;
  u64 tstart = 0;
  u64 tstop = 0;
  u64 fused = 0;
};

RapOutcome attest_rap(const apps::PreparedApp& prepared, u64 seed,
                      bool superblocks, bool oracle) {
  sim::MachineConfig config;
  config.superblocks = superblocks;
  config.enable_oracle = oracle;
  sim::Machine machine(config);
  const auto periph = prepared.built.app->setup(machine, seed);
  cfa::RapProver prover(prepared.rap.program, prepared.rap.manifest,
                        prepared.built.entry, apps::demo_key());
  RapOutcome out;
  out.run = prover.attest(machine, {});
  out.tstart = machine.mtb().tstart_events();
  out.tstop = machine.mtb().tstop_events();
  out.fused = machine.cpu().fused_dispatches();
  return out;
}

TEST(Superblock, RapFusionMatchesSlotPathOnEveryRegistryApp) {
  // MTBDR code runs untraced (§IV-B), so under RAP-Track it must fuse, and
  // fusing it must move nothing the device or the verifier can see: the
  // signed chain, every modelled cycle, and the TSTART/TSTOP transitions.
  for (const auto& app : apps::app_registry()) {
    SCOPED_TRACE(app.name);
    const apps::PreparedApp prepared = apps::prepare_app(app);
    for (const u64 seed : {1ull, 42ull, 7919ull}) {
      for (const bool oracle : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (oracle ? " +oracle" : ""));
        const RapOutcome slot = attest_rap(prepared, seed, false, oracle);
        const RapOutcome fused = attest_rap(prepared, seed, true, oracle);
        EXPECT_EQ(slot.run.reports, fused.run.reports);
        const cfa::RunMetrics& a = slot.run.metrics;
        const cfa::RunMetrics& b = fused.run.metrics;
        EXPECT_EQ(a.exec_cycles, b.exec_cycles);
        EXPECT_EQ(a.attest_setup_cycles, b.attest_setup_cycles);
        EXPECT_EQ(a.pause_cycles, b.pause_cycles);
        EXPECT_EQ(a.final_report_cycles, b.final_report_cycles);
        EXPECT_EQ(a.partial_reports, b.partial_reports);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(slot.tstart, fused.tstart);
        EXPECT_EQ(slot.tstop, fused.tstop);
        EXPECT_GT(slot.tstop, 0u);
        EXPECT_EQ(slot.fused, 0u);
        EXPECT_GT(fused.fused, 0u);
      }
    }
  }
}

// -- registry apps: end-to-end parity across all four methods ----------------

template <typename RunFn>
void expect_method_parity(const char* method, const apps::PreparedApp& prepared,
                          RunFn&& run_method) {
  sim::MachineConfig slow_config;
  slow_config.fast_path = false;
  sim::MachineConfig fast_config;
  fast_config.fast_path = true;

  const apps::MethodRun slow = run_method(prepared, slow_config);
  const apps::MethodRun fast = run_method(prepared, fast_config);

  EXPECT_EQ(slow.functional_ok, fast.functional_ok) << method;
  EXPECT_EQ(slow.oracle, fast.oracle) << method << ": oracle traces diverge";
  EXPECT_EQ(slow.attestation.reports, fast.attestation.reports)
      << method << ": signed report chains diverge";

  const cfa::RunMetrics& a = slow.attestation.metrics;
  const cfa::RunMetrics& b = fast.attestation.metrics;
  EXPECT_EQ(a.exec_cycles, b.exec_cycles) << method;
  EXPECT_EQ(a.attest_setup_cycles, b.attest_setup_cycles) << method;
  EXPECT_EQ(a.pause_cycles, b.pause_cycles) << method;
  EXPECT_EQ(a.final_report_cycles, b.final_report_cycles) << method;
  EXPECT_EQ(a.cflog_bytes, b.cflog_bytes) << method;
  EXPECT_EQ(a.partial_reports, b.partial_reports) << method;
  EXPECT_EQ(a.world_switches, b.world_switches) << method;
  EXPECT_EQ(a.instructions, b.instructions) << method;
  EXPECT_EQ(a.transmitted_evidence_bytes, b.transmitted_evidence_bytes)
      << method;
  EXPECT_EQ(a.halt, b.halt) << method;
  EXPECT_EQ(a.fault.has_value(), b.fault.has_value()) << method;
}

TEST(FastPathApps, AllRegistryAppsAllMethodsMatchOracle) {
  for (const auto& app : apps::app_registry()) {
    SCOPED_TRACE(app.name);
    const apps::PreparedApp prepared = apps::prepare_app(app);
    const u64 seed = 42;
    expect_method_parity("baseline", prepared,
                         [&](const apps::PreparedApp& p, const sim::MachineConfig& c) {
                           return apps::run_baseline(p, seed, c);
                         });
    expect_method_parity("naive", prepared,
                         [&](const apps::PreparedApp& p, const sim::MachineConfig& c) {
                           return apps::run_naive(p, seed, c);
                         });
    expect_method_parity("rap", prepared,
                         [&](const apps::PreparedApp& p, const sim::MachineConfig& c) {
                           return apps::run_rap(p, seed, c);
                         });
    expect_method_parity("traces", prepared,
                         [&](const apps::PreparedApp& p, const sim::MachineConfig& c) {
                           return apps::run_traces(p, seed, c);
                         });
  }
}

// -- fault campaign: verdict-for-verdict fast/slow parity --------------------

TEST(FastPathCampaign, DeviceFaultVerdictsMatchSlowPathOn200SeededPlans) {
  // 4 device injector kinds x 25 seeds x 2 apps = 200 seeded plans, each
  // attested twice (fast path on and off). Proves cache invalidation
  // interacts correctly with the SEU/glitch injectors: identical verdicts,
  // identical injection records.
  constexpr u64 kSeedsPerKind = 25;
  u64 plans = 0;
  for (const char* name : {"gps", "syringe"}) {
    const apps::PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
    for (const fault::InjectorKind kind : fault::device_injectors()) {
      for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
        fault::CampaignOptions fast_opts;
        fast_opts.fast_path = true;
        fault::CampaignOptions slow_opts;
        slow_opts.fast_path = false;

        const auto fast =
            fault::run_device_fault(prepared, kind, seed, fast_opts);
        const auto slow =
            fault::run_device_fault(prepared, kind, seed, slow_opts);
        ++plans;

        ASSERT_EQ(fast.verdict, slow.verdict)
            << name << "/" << fault::injector_name(kind) << " seed " << seed
            << ": fast=" << verify::verdict_name(fast.verdict) << " ("
            << fast.result.detail << ") slow="
            << verify::verdict_name(slow.verdict) << " ("
            << slow.result.detail << ")";
        ASSERT_EQ(fast.fault_effective, slow.fault_effective)
            << name << "/" << fault::injector_name(kind) << " seed " << seed;
        ASSERT_EQ(fast.records.size(), slow.records.size());
        for (size_t i = 0; i < fast.records.size(); ++i) {
          EXPECT_EQ(fast.records[i].detail, slow.records[i].detail);
        }
      }
    }
  }
  EXPECT_EQ(plans, 200u);
  RecordProperty("parity_plans", static_cast<int>(plans));
}

// -- observability: dispatch counters must reconcile with path parity --------

TEST(FastPathMetrics, DispatchCountersReconcileAcrossPaths) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const apps::PreparedApp prepared =
      apps::prepare_app(apps::app_by_name("gps"));

  const auto run_and_delta = [&](bool fast) {
    sim::MachineConfig config;
    config.fast_path = fast;
    const obs::Snapshot before = obs::registry().scrape();
    const apps::MethodRun run = apps::run_rap(prepared, 42, config);
    EXPECT_TRUE(run.functional_ok);
    const obs::Snapshot after = obs::registry().scrape();
    struct Delta {
      u64 instructions, fast_dispatches, oracle_dispatches;
    } d{};
    d.instructions =
        after.value("sim.instructions") - before.value("sim.instructions");
    d.fast_dispatches = after.value("sim.fast_dispatches") -
                        before.value("sim.fast_dispatches");
    d.oracle_dispatches = after.value("sim.oracle_dispatches") -
                          before.value("sim.oracle_dispatches");
    EXPECT_EQ(d.instructions, run.attestation.metrics.instructions)
        << "counter delta must equal the run's own retire count";
    EXPECT_EQ(d.instructions, d.fast_dispatches + d.oracle_dispatches)
        << "every retired instruction is exactly one dispatch";
    return d;
  };

  const auto slow = run_and_delta(/*fast=*/false);
  const auto fast = run_and_delta(/*fast=*/true);
  // Both paths retire the same instruction stream (the parity theorem the
  // rest of this file proves); the counters must say so too.
  EXPECT_EQ(slow.instructions, fast.instructions);
  // The oracle path never touches the predecoded image...
  EXPECT_EQ(slow.fast_dispatches, 0u);
  EXPECT_EQ(slow.oracle_dispatches, slow.instructions);
  // ...and the fast path retires the overwhelming majority from it (only
  // invalidated or never-predecoded slots fall back to the oracle).
  EXPECT_GT(fast.fast_dispatches, fast.oracle_dispatches);
}

}  // namespace
}  // namespace raptrack
