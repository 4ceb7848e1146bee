// Differential fuzzing over seeded synthetic programs: for dozens of
// randomly generated (but structurally valid) applications, the whole
// pipeline must hold up —
//   F1  the program assembles, terminates, and both rewrites preserve its
//       final architectural state bit-for-bit;
//   F2  RAP-Track evidence verifies and reconstructs exactly;
//   F3  naive-MTB and TRACES reconstructions are exact;
//   F4  generation is deterministic per seed.
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "asm/assembler.hpp"
#include "apps/synthetic.hpp"

namespace raptrack {
namespace {

struct SynthCase {
  u64 program_seed;
  u64 input_seed;
};

std::string case_name(const ::testing::TestParamInfo<SynthCase>& info) {
  return "p" + std::to_string(info.param.program_seed) + "_i" +
         std::to_string(info.param.input_seed);
}

std::vector<SynthCase> synth_cases() {
  std::vector<SynthCase> cases;
  for (u64 program = 1; program <= 12; ++program) {
    for (u64 input : {1ull, 99ull}) {
      cases.push_back({program, input});
    }
  }
  return cases;
}

struct SynthProgram {
  Program original;
  Address entry = 0;
  Address code_end = 0;
  rewrite::RewriteResult rap;
  instr::TracesResult traces;
};

SynthProgram build(u64 program_seed) {
  SynthProgram built;
  const std::string source = apps::generate_synthetic_program(program_seed);
  built.original = assemble(source, apps::kAppBase);
  built.entry = *built.original.symbol("_start");
  built.code_end = *built.original.symbol("__code_end");
  built.rap = rewrite::rewrite_for_rap_track(built.original, built.entry,
                                             built.original.base(),
                                             built.code_end);
  built.traces = instr::rewrite_for_traces(built.original, built.entry,
                                           built.original.base(),
                                           built.code_end);
  return built;
}

/// Final architectural state: r0-r12 plus the published result words.
struct FinalState {
  std::array<Word, 13> regs{};
  std::array<u32, 7> results{};

  friend bool operator==(const FinalState&, const FinalState&) = default;
};

FinalState state_of(sim::Machine& machine) {
  FinalState state;
  for (u8 r = 0; r < 13; ++r) {
    state.regs[r] = machine.cpu().state().reg(static_cast<isa::Reg>(r));
  }
  for (u32 i = 0; i < 7; ++i) {
    state.results[i] = machine.memory().raw_read32(apps::kResultBase + 4 * i);
  }
  return state;
}

u32 tick_step_for(u64 input_seed) {
  return static_cast<u32>(SplitMix64(input_seed ^ 0x73796e).next());
}

class SynthTest : public ::testing::TestWithParam<SynthCase> {};

TEST_P(SynthTest, RewritesPreserveSemantics) {
  const auto& [program_seed, input_seed] = GetParam();
  const SynthProgram built = build(program_seed);

  const auto run_with = [&](const Program& image) {
    sim::Machine machine;
    auto periph = std::make_shared<apps::Peripherals>();
    periph->tick_step = tick_step_for(input_seed);
    periph->attach(machine);
    machine.load_program(image);
    // TRACES images need the logging engine; harmless for the others to
    // register a no-op loop service.
    instr::TracesEngine engine(image, built.traces.manifest, machine.memory());
    engine.attach(machine.monitor());
    machine.monitor().register_service(
        tz::Service::kRapLogLoopCondition,
        [](cpu::CpuState&) -> Cycles { return 1; });
    machine.reset_cpu(built.entry);
    EXPECT_EQ(machine.run(5'000'000), cpu::HaltReason::Halted);
    return state_of(machine);
  };

  const FinalState original = run_with(built.original);
  EXPECT_EQ(run_with(built.rap.program), original) << "rap rewrite";
  EXPECT_EQ(run_with(built.traces.program), original) << "traces rewrite";
}

TEST_P(SynthTest, RapEvidenceVerifiesAndReconstructs) {
  const auto& [program_seed, input_seed] = GetParam();
  const SynthProgram built = build(program_seed);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(built.rap.program, built.rap.manifest, built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  sim::Machine machine(sim::MachineConfig{.mtb_buffer_bytes = 1 << 20});
  auto periph = std::make_shared<apps::Peripherals>();
  periph->tick_step = tick_step_for(input_seed);
  periph->attach(machine);
  cfa::RapProver prover(built.rap.program, built.rap.manifest, built.entry,
                        apps::demo_key());
  const auto run = prover.attest(machine, chal);
  ASSERT_EQ(run.metrics.halt, cpu::HaltReason::Halted);

  const auto result = verifier.verify(chal, run.reports);
  ASSERT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, machine.oracle().events());
}

TEST_P(SynthTest, NaiveAndTracesReconstructExactly) {
  const auto& [program_seed, input_seed] = GetParam();
  const SynthProgram built = build(program_seed);

  {
    verify::Verifier verifier(apps::demo_key());
    verifier.expect_naive(built.original, built.entry);
    const cfa::Challenge chal = verifier.fresh_challenge();
    sim::Machine machine(sim::MachineConfig{.mtb_buffer_bytes = 1 << 22});
    auto periph = std::make_shared<apps::Peripherals>();
    periph->tick_step = tick_step_for(input_seed);
    periph->attach(machine);
    cfa::NaiveProver prover(built.original, built.entry, apps::demo_key());
    const auto run = prover.attest(machine, chal);
    const auto result = verifier.verify(chal, run.reports);
    ASSERT_TRUE(result.accepted()) << result.detail;
    EXPECT_EQ(result.replay.events, machine.oracle().events());
  }
  {
    verify::Verifier verifier(apps::demo_key());
    verifier.expect_traces(built.traces.program, built.traces.manifest,
                           built.entry);
    const cfa::Challenge chal = verifier.fresh_challenge();
    sim::Machine machine;
    auto periph = std::make_shared<apps::Peripherals>();
    periph->tick_step = tick_step_for(input_seed);
    periph->attach(machine);
    cfa::TracesProver prover(built.traces.program, built.traces.manifest,
                             built.entry, apps::demo_key());
    const auto run = prover.attest(machine, chal);
    const auto result = verifier.verify(chal, run.reports);
    ASSERT_TRUE(result.accepted()) << result.detail;
    EXPECT_EQ(result.replay.events, machine.oracle().events());
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SynthTest, ::testing::ValuesIn(synth_cases()),
                         case_name);

TEST(SyntheticGenerator, DeterministicPerSeed) {
  EXPECT_EQ(apps::generate_synthetic_program(7),
            apps::generate_synthetic_program(7));
  EXPECT_NE(apps::generate_synthetic_program(7),
            apps::generate_synthetic_program(8));
}

TEST(SyntheticGenerator, OptionsShapeTheProgram) {
  apps::SyntheticOptions no_calls;
  no_calls.allow_indirect_calls = false;
  no_calls.allow_recursion = false;
  const std::string source = apps::generate_synthetic_program(3, no_calls);
  EXPECT_EQ(source.find("blx"), std::string::npos);
  EXPECT_EQ(source.find("recurse"), std::string::npos);

  const std::string with_calls = apps::generate_synthetic_program(3);
  EXPECT_NE(with_calls.find("blx"), std::string::npos);
}

}  // namespace
}  // namespace raptrack
