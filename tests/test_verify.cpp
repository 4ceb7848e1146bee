// Unit tests: the path replayer — constant-propagating valuation, shadow
// call stack, slot/veneer disambiguation, evidence-exhaustion handling —
// on hand-built micro programs.
#include <gtest/gtest.h>

#include <type_traits>

#include "asm/assembler.hpp"
#include "cfa/provers.hpp"
#include "rewrite/rap_rewriter.hpp"
#include "sim/machine.hpp"
#include "verify/deployment.hpp"

namespace raptrack::verify {
namespace {

struct Built {
  Program program;
  Address entry;
  Address code_end;
};

Built build(std::string_view src) {
  Built b{assemble(src, 0x0020'0000), 0, 0};
  b.entry = *b.program.symbol("_start");
  b.code_end = *b.program.symbol("__code_end");
  return b;
}

/// Rewrite for RAP, run on a machine, and return {result, packets, loops,
/// oracle}.
struct RapRun {
  rewrite::RewriteResult rewritten;
  ReplayInputs inputs;
  std::vector<trace::OracleEvent> oracle;
};

RapRun run_rap(const Built& b, u64 r2_seed = 0) {
  RapRun out;
  out.rewritten = rewrite::rewrite_for_rap_track(b.program, b.entry,
                                                 b.program.base(), b.code_end);
  sim::Machine machine;
  machine.load_program(out.rewritten.program);
  machine.dwt().configure_rap_track(
      out.rewritten.manifest.mtbar_base, out.rewritten.manifest.mtbar_limit,
      out.rewritten.manifest.mtbdr_base, out.rewritten.manifest.mtbdr_limit);
  machine.mtb().set_enabled(true);
  std::vector<u32>& loops = out.inputs.loop_values;
  machine.monitor().register_service(
      tz::Service::kRapLogLoopCondition, [&](cpu::CpuState& state) -> Cycles {
        const auto* veneer =
            out.rewritten.manifest.veneer_at_svc(state.pc() - 4);
        loops.push_back(state.reg(veneer->loop.iterator));
        return 1;
      });
  machine.reset_cpu(b.entry);
  machine.cpu().state().set_reg(isa::Reg::R2, static_cast<Word>(r2_seed));
  EXPECT_EQ(machine.run(100000), cpu::HaltReason::Halted);
  out.inputs.packets = machine.mtb().read_log();
  out.oracle = machine.oracle().events();
  return out;
}

std::shared_ptr<const Deployment> rap_deployment(const Built& b,
                                                 const RapRun& run) {
  return Deployment::rap(run.rewritten.program, run.rewritten.manifest,
                         b.entry);
}

ReplayResult replay_rap(const Built& b, const RapRun& run) {
  return PathReplayer(*rap_deployment(b, run)).replay(run.inputs);
}

TEST(Replayer, DeterministicLoopResolvedByValuation) {
  const Built b = build(R"(
_start:
    movi r0, #0
    movi r1, #0
loop:
    add r0, r0, r1
    addi r1, r1, #1
    cmp r1, #5
    blt loop
    hlt
__code_end:
  )");
  const RapRun run = run_rap(b);
  EXPECT_TRUE(run.inputs.packets.empty());  // nothing logged at all
  const ReplayResult result = replay_rap(b, run);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);  // 4 taken back edges reconstructed
}

TEST(Replayer, LoopConditionValueSeedsTheValuation) {
  const Built b = build(R"(
_start:
    movi r0, #0
    mov r1, r2
loop:
    add r0, r0, r1
    addi r1, r1, #1
    cmp r1, #5
    blt loop
    hlt
__code_end:
  )");
  for (const u64 init : {0ull, 3ull, 4ull}) {
    const RapRun run = run_rap(b, init);
    ASSERT_EQ(run.inputs.loop_values.size(), 1u);
    EXPECT_EQ(run.inputs.loop_values[0], init);
    const ReplayResult result = replay_rap(b, run);
    EXPECT_TRUE(result.complete) << result.failure;
    EXPECT_EQ(result.events, run.oracle) << "init " << init;
  }
}

TEST(Replayer, CondTakenDisambiguatedBySlotAddress) {
  const Built b = build(R"(
_start:
    movi r4, #0
    movi r5, #0
loop:
    and r0, r4, r7      ; r7 == 0 -> r0 == 0 -> beq taken every iteration
    cmp r0, #0
    beq yes
    addi r5, r5, #16
yes:
    addi r4, r4, #1
    cmp r4, #3
    blt loop
    hlt
__code_end:
  )");
  const RapRun run = run_rap(b);
  const ReplayResult result = replay_rap(b, run);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);
}

TEST(Replayer, ShadowStackResolvesLeafReturns) {
  const Built b = build(R"(
_start:
    bl outer
    hlt
outer:
    push {r4, lr}
    bl leaf
    bl leaf
    pop {r4, pc}
leaf:
    movi r0, #1
    bx lr
__code_end:
  )");
  const RapRun run = run_rap(b);
  const ReplayResult result = replay_rap(b, run);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events, run.oracle);
}

TEST(Replayer, FailsOnMissingEvidence) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_FALSE(run.inputs.packets.empty());
  run.inputs.packets.pop_back();  // drop the return packet
  const ReplayResult result = replay_rap(b, run);
  EXPECT_FALSE(result.complete);
  EXPECT_NE(result.failure.find("exhausted"), std::string::npos);
}

TEST(Replayer, FailsOnInjectedEvidence) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  run.inputs.packets.push_back({0x00200000, 0x00200004, false});
  const ReplayResult result = replay_rap(b, run);
  EXPECT_FALSE(result.complete);
}

TEST(Replayer, FailsOnCorruptedDestination) {
  const Built b = build(R"(
_start:
    cmp r0, #0
    beq skip
    movi r1, #1
skip:
    hlt
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 1u);
  run.inputs.packets[0].destination += 8;  // claim a different static target
  const ReplayResult result = replay_rap(b, run);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.failure.empty());
}

TEST(Replayer, ReportsRopWhenReturnDiffersFromShadowStack) {
  // Hand-craft evidence showing a return to the wrong address, as a
  // stack-smashing attacker would produce (the MTB logs it faithfully).
  const Built b = build(R"(
_start:
    bl fn
    hlt
gadget:
    movi r1, #0x666
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 1u);
  run.inputs.packets[0].destination = *b.program.symbol("gadget");
  const ReplayResult result = replay_rap(b, run);
  EXPECT_TRUE(result.complete) << result.failure;  // evidence is consistent…
  ASSERT_EQ(result.findings.size(), 1u);           // …and incriminating
  EXPECT_NE(result.findings[0].description.find("ROP"), std::string::npos);
  EXPECT_EQ(result.findings[0].observed, *b.program.symbol("gadget"));
}

TEST(Replayer, PolicyFlagsIllegitimateCallTargets) {
  const Built b = build(R"(
_start:
    li r3, =callee
    blx r3
    hlt
callee:
    bx lr
__code_end:
  )");
  RapRun run = run_rap(b);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  ReplayPolicy policy;
  policy.valid_call_targets = {0x00300000};  // callee not in the set
  replayer.set_policy(policy);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete);
  ASSERT_FALSE(result.findings.empty());
  EXPECT_NE(result.findings[0].description.find("JOP"), std::string::npos);
}

TEST(Replayer, StepBudgetGuardsAgainstMalformedEvidence) {
  const Built b = build(R"(
_start:
    b loop
loop:
    b loop
__code_end:
  )");
  const auto deployment = Deployment::naive(b.program, b.entry);
  PathReplayer replayer(*deployment);
  ReplayInputs inputs;
  // Naive mode with an endless packet stream of the self-loop.
  for (int i = 0; i < 1000; ++i) {
    inputs.packets.push_back({*b.program.symbol("loop"),
                              *b.program.symbol("loop"), false});
  }
  inputs.packets.insert(inputs.packets.begin(),
                        {b.entry, *b.program.symbol("loop"), false});
  const ReplayResult result = replayer.replay(inputs, /*max_steps=*/100);
  EXPECT_FALSE(result.complete);
}

// A RAP replay cannot run without its manifest: the only way to build a
// replayer is from a Deployment, and Deployment::rap owns the manifest.
TEST(Replayer, ModeRequiresManifest) {
  static_assert(!std::is_constructible_v<PathReplayer, const Program&,
                                         Address, ReplayMode>);
  const Built b = build("_start:\n    hlt\n__code_end:\n");
  const RapRun run = run_rap(b);
  const auto deployment = rap_deployment(b, run);
  ASSERT_NE(deployment->rap_manifest(), nullptr);
  const ReplayResult result = PathReplayer(*deployment).replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
}

}  // namespace
}  // namespace raptrack::verify
