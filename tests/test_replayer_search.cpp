// Focused tests for the Verifier's one-pass RAP parse: silent-rejoin sites
// that the rewriter closes with CondBoth slots, the direction-selection
// analysis that keeps recursion decidable, the checker mode (scripted
// replay), and a property sweep over the generated corpus and the app
// registry asserting exact oracle equality.
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "asm/assembler.hpp"
#include "common/hex.hpp"
#include "cfa/provers.hpp"
#include "gen_corpus.hpp"
#include "rewrite/rap_rewriter.hpp"
#include "sim/machine.hpp"
#include "verify/deployment.hpp"
#include "verify/verifier.hpp"

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

struct RapRun {
  rewrite::RewriteResult rewritten;
  ReplayInputs inputs;
  std::vector<trace::OracleEvent> oracle;
};

RapRun run_rap(const Built& b, u32 r2_seed = 0) {
  RapRun out;
  out.rewritten = rewrite::rewrite_for_rap_track(b.program, b.entry,
                                                 b.program.base(), b.code_end);
  sim::Machine machine(sim::MachineConfig{.mtb_buffer_bytes = 1 << 20});
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
  EXPECT_EQ(machine.run(1'000'000), cpu::HaltReason::Halted);
  out.inputs.packets = machine.mtb().read_log();
  out.oracle = machine.oracle().events();
  return out;
}

std::shared_ptr<const Deployment> rap_deployment(const Built& b,
                                                 const RapRun& run) {
  return Deployment::rap(run.rewritten.program, run.rewritten.manifest,
                         b.entry);
}

// The canonical silent-rejoin program: a leaf helper with an if/else whose
// arms both end in BX LR, called twice back to back. With taken-edge-only
// logging the single taken-packet could belong to either call, so the
// rewriter logs both edges of the bgt there.
constexpr const char* kSilentRejoin = R"(
_start:
    li r4, =0x20201000
    movi r0, #5          ; first call: branch NOT taken (0 stored)
    bl classify
    str r0, [r4, #0]
    movi r0, #20         ; second call: branch taken (1 stored)
    bl classify
    str r0, [r4, #4]
    hlt
classify:                ; r0 -> 1 if r0 > 9 else 0
    cmp r0, #9
    bgt big
    movi r0, #0
    bx lr
big:
    movi r0, #1
    bx lr
__code_end:
)";

TEST(ReplaySearch, SilentRejoinLogsBothEdgesAndParsesExactly) {
  const Built b = build(kSilentRejoin);
  const RapRun run = run_rap(b);
  const Address bgt_site = *b.program.symbol("classify") + 4;
  const auto* slot = run.rewritten.manifest.slot_for_site(bgt_site);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, rewrite::SlotKind::CondBoth);
  // One packet per call: the fall-through exit of the first, the taken
  // edge of the second.
  ASSERT_EQ(run.inputs.packets.size(), 2u);

  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events, run.oracle);
  const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
  EXPECT_TRUE(checked.complete) << checked.failure;
  EXPECT_EQ(checked.events, run.oracle);
}

TEST(ReplaySearch, CheckerModeRejectsAWrongScript) {
  const Built b = build(kSilentRejoin);
  const RapRun run = run_rap(b);

  // Corrupt the script: claim the program halted after the first call.
  auto wrong = run.oracle;
  wrong.resize(wrong.size() / 2);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult checked = replayer.check_path(wrong, run.inputs);
  EXPECT_FALSE(checked.complete);
}

// Recursion parseability: the rewriter's silent-rejoin analysis must flip
// the base-case conditional of a recursive function to not-taken logging
// (the taken path immediately crosses the logged POP return).
TEST(ReplaySearch, RecursionBaseCaseUsesDecidableDirection) {
  const Built b = build(R"(
_start:
    movi r0, #9
    bl tri
    hlt
tri:                      ; triangular(r0), recursive
    push {r4, lr}
    cmp r0, #1
    ble tri_base
    mov r4, r0
    sub r0, r4, #1
    bl tri
    add r0, r0, r4
    pop {r4, pc}
tri_base:
    pop {r4, pc}
__code_end:
  )");
  const auto rewritten = rewrite::rewrite_for_rap_track(
      b.program, b.entry, b.program.base(), b.code_end);
  const Address ble_site = *b.program.symbol("tri") + 8;
  const auto* slot = rewritten.manifest.slot_for_site(ble_site);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, rewrite::SlotKind::CondNotTaken);

  // The reconstruction is exact (no ambiguity left to search through).
  const RapRun run = run_rap(b);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);
}

// A benign run must verify clean and a genuinely malicious log must still
// be convicted.
TEST(ReplaySearch, RecursionParsesCleanWithoutSpuriousFindings) {
  // Recursive shape where a misattributed slot packet would surface as a
  // shadow-stack mismatch downstream; the decidable rewrite leaves the
  // greedy pass no wrong reading.
  const Built b = build(R"(
_start:
    movi r0, #6
    bl fib
    hlt
fib:
    push {r4, r5, lr}
    cmp r0, #2
    blt base
    mov r4, r0
    sub r0, r4, #1
    bl fib
    mov r5, r0
    sub r0, r4, #2
    bl fib
    add r0, r5, r0
    pop {r4, r5, pc}
base:
    pop {r4, r5, pc}
__code_end:
  )");
  const RapRun run = run_rap(b);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events, run.oracle);
}

TEST(ReplaySearch, MaliciousEvidenceStillConvicted) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
gadget:
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 1u);
  run.inputs.packets[0].destination = *b.program.symbol("gadget");

  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  // The packet's destination is the gadget: the parse completes and
  // reports the ROP.
  EXPECT_TRUE(result.complete) << result.failure;
  ASSERT_FALSE(result.findings.empty());
  EXPECT_NE(result.findings[0].description.find("ROP"), std::string::npos);
}

// The replay index is built from the deployment's own bytes, so a word it
// could not decode is data: stepping onto it fails the replay outright.
TEST(ReplaySearch, BranchIntoADataWordFailsAsUndefined) {
  const Built b = build(R"(
_start:
    b data
data:
    .word 0xffffffff
__code_end:
  )");
  const Address data = *b.program.symbol("data");
  ASSERT_FALSE(b.program.instruction_at(data).has_value());
  const auto deployment = Deployment::naive(b.program, b.entry);
  ReplayInputs inputs;
  inputs.packets.push_back({b.entry, data, false});
  const ReplayResult result = PathReplayer(*deployment).replay(inputs);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.failure, "undefined instruction at " + hex32(data));
}

TEST(ReplaySearch, DeepRecursionParsesQuickly) {
  // fib(14): ~1200 calls. Direction selection keeps every slot decidable,
  // so one pass parses it.
  const Built b = build(R"(
_start:
    movi r0, #14
    bl fib
    hlt
fib:
    push {r4, r5, lr}
    cmp r0, #2
    blt base
    mov r4, r0
    sub r0, r4, #1
    bl fib
    mov r5, r0
    sub r0, r4, #2
    bl fib
    add r0, r5, r0
    pop {r4, r5, pc}
base:
    pop {r4, r5, pc}
__code_end:
  )");
  const RapRun run = run_rap(b);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);
  // The walk should be essentially linear in the path length.
  EXPECT_LT(result.steps, run.oracle.size() * 40 + 1000);
}

TEST(ReplaySearch, AmbiguousLoopReentryStillParses) {
  // An outer loop re-enters an if/else leaf whose arms both return through
  // unmonitored BX LR. The loop's logged back edge separates consecutive
  // instances of the bne, so its plain taken-edge slot stays decidable and
  // the rewriter must not spend a CondBoth slot on it.
  const Built b = build(R"(
_start:
    li r4, =0x20201000
    movi r5, #0
    movi r6, #0
again:
    and r0, r6, r7       ; r7 unknown to the verifier -> undecidable flags
    bl classify
    add r5, r5, r0
    addi r6, r6, #1
    cmp r6, #6
    blt again
    str r5, [r4]
    hlt
classify:
    cmp r0, #0
    bne nonzero
    movi r0, #3
    bx lr
nonzero:
    movi r0, #4
    bx lr
__code_end:
  )");
  const RapRun run = run_rap(b);
  const auto* slot = run.rewritten.manifest.slot_for_site(
      *b.program.symbol("classify") + 4);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, rewrite::SlotKind::CondTaken);
  const auto deployment = rap_deployment(b, run);
  PathReplayer replayer(*deployment);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events, run.oracle);
  const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
  EXPECT_TRUE(checked.complete) << checked.failure;
}

// "The rewriter leaves no ambiguity", as a property: over the whole
// 216-program generative corpus (gen_corpus.hpp, every program a leaf with
// a silently rejoining conditional) and every registry app at 8 seeds, the
// one-pass parse equals the ground-truth oracle exactly, and checker mode
// accepts the oracle path.
TEST(ReplaySearch, GeneratedCorpusSamplesStayLossless) {
  const std::vector<gen::GenParams> grid = gen::corpus_grid();
  ASSERT_EQ(grid.size(), 216u);
  for (const gen::GenParams& p : grid) {
    const std::string name = gen::corpus_name(p);
    const Built b = build(gen::corpus_source(p));
    const RapRun run = run_rap(b);
    const auto deployment = rap_deployment(b, run);
    PathReplayer replayer(*deployment);
    const ReplayResult result = replayer.replay(run.inputs);
    EXPECT_TRUE(result.complete) << name << ": " << result.failure;
    EXPECT_TRUE(result.findings.empty()) << name;
    EXPECT_EQ(result.events, run.oracle) << name;
    const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
    EXPECT_TRUE(checked.complete) << name << ": " << checked.failure;
  }

  for (const apps::App& app : apps::app_registry()) {
    const apps::PreparedApp prepared = apps::prepare_app(app);
    const auto deployment = Deployment::rap(
        prepared.rap.program, prepared.rap.manifest, prepared.built.entry);
    for (u64 seed = 0; seed < 8; ++seed) {
      const std::string name = app.name + "/" + std::to_string(seed);
      Verifier verifier(apps::demo_key());
      verifier.expect(deployment);
      const cfa::Challenge chal = verifier.fresh_challenge();
      const apps::MethodRun run = apps::run_rap(prepared, seed, {}, {}, chal);
      const VerificationResult result =
          verifier.verify(chal, run.attestation.reports);
      EXPECT_TRUE(result.accepted()) << name << ": " << result.detail;
      EXPECT_EQ(result.replay.events, run.oracle) << name;
      const ReplayResult checked =
          PathReplayer(*deployment).check_path(run.oracle, result.inputs);
      EXPECT_TRUE(checked.complete) << name << ": " << checked.failure;
    }
  }
}

}  // namespace
}  // namespace raptrack::verify
