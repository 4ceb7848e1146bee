// Unit tests: the RAP-Track offline phase — MTBAR/MTBDR layout, the five
// trampoline shapes of Figs 3-7, loop-optimization veneers, in-place
// patching, and semantic preservation of rewritten programs.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "cpu/executor.hpp"
#include "mem/bus.hpp"
#include "rewrite/manifest_io.hpp"
#include "rewrite/rap_rewriter.hpp"

namespace raptrack::rewrite {
namespace {

using isa::BranchKind;
using isa::Op;

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

RewriteResult rewrite(const Built& b, RewriteOptions options = {}) {
  return rewrite_for_rap_track(b.program, b.entry, b.program.base(),
                               b.code_end, options);
}

/// Run a program to halt and return final R0/R1 for semantic checks.
std::pair<Word, Word> run(const Program& p, Address entry) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus(map);
  cpu::Executor cpu(bus);
  map.load(p.base(), p.bytes());
  cpu.reset(entry, mem::MapLayout::kNsRamBase + 0x1000);
  EXPECT_EQ(cpu.run(100000), cpu::HaltReason::Halted);
  return {cpu.state().reg(isa::Reg::R0), cpu.state().reg(isa::Reg::R1)};
}

TEST(RapRewriter, IndirectCallGetsFig3Trampoline) {
  const Built b = build(R"(
_start:
    li r3, =callee
    blx r3
    hlt
callee:
    movi r0, #42
    bx lr
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  ASSERT_EQ(result.manifest.slots.size(), 1u);
  const SlotRecord& slot = result.manifest.slots[0];
  EXPECT_EQ(slot.kind, SlotKind::IndirectCall);
  // The site is now a direct BL to the slot (Fig 3).
  const auto patched = result.program.instruction_at(slot.site);
  EXPECT_EQ(patched->op, Op::BL);
  EXPECT_EQ(isa::branch_target(*patched, slot.site), slot.slot_base);
  // The slot ends with BX to the original register.
  const auto body =
      result.program.instruction_at(slot.slot_end - 4);
  EXPECT_EQ(body->op, Op::BX);
  EXPECT_EQ(body->rm, isa::Reg::R3);
  // Slot lives inside the MTBAR.
  EXPECT_GE(slot.slot_base, result.manifest.mtbar_base);
  EXPECT_LE(slot.slot_end - 4, result.manifest.mtbar_limit);
  // Semantics preserved.
  EXPECT_EQ(run(result.program, b.entry).first, 42u);
}

TEST(RapRewriter, ReturnPopGetsFig4Trampoline) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
fn:
    push {r4, lr}
    movi r0, #7
    pop {r4, pc}
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  ASSERT_EQ(result.manifest.slots.size(), 1u);
  const SlotRecord& slot = result.manifest.slots[0];
  EXPECT_EQ(slot.kind, SlotKind::ReturnPop);
  EXPECT_EQ(result.program.instruction_at(slot.site)->op, Op::B);
  EXPECT_EQ(result.program.instruction_at(slot.slot_end - 4)->op, Op::POP);
  EXPECT_EQ(run(result.program, b.entry).first, 7u);
}

TEST(RapRewriter, BxLrStaysUnmonitored) {
  const Built b = build(R"(
_start:
    bl leaf
    hlt
leaf:
    movi r0, #1
    bx lr
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  EXPECT_TRUE(result.manifest.slots.empty());  // §IV-C.2
  EXPECT_EQ(run(result.program, b.entry).first, 1u);
}

TEST(RapRewriter, NonLoopConditionalLogsTakenEdge) {
  const Built b = build(R"(
_start:
    cmp r0, #0
    bne not_taken_path
    movi r1, #1
not_taken_path:
    hlt
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  ASSERT_EQ(result.manifest.slots.size(), 1u);
  const SlotRecord& slot = result.manifest.slots[0];
  EXPECT_EQ(slot.kind, SlotKind::CondTaken);
  // Bcc retargeted into the slot, condition preserved (Fig 5).
  const auto patched = result.program.instruction_at(slot.site);
  EXPECT_EQ(patched->op, Op::BCC);
  EXPECT_EQ(patched->cond, isa::Cond::NE);
  EXPECT_EQ(isa::branch_target(*patched, slot.site), slot.slot_base);
  // Slot branches to the original taken target.
  const auto body = result.program.instruction_at(slot.slot_end - 4);
  EXPECT_EQ(body->op, Op::B);
  EXPECT_EQ(isa::branch_target(*body, slot.slot_end - 4), slot.continuation);
  EXPECT_EQ(run(result.program, b.entry).second, 1u);  // r1 set (r0 == 0)
}

TEST(RapRewriter, ForwardLoopExitDisplacesFallthrough) {
  const Built b = build(R"(
_start:
    mov r1, r0
    movi r0, #0
loop:
    cmp r1, #0
    beq exit
    add r0, r0, r1      ; first fall-through instruction (gets displaced)
    sub r1, r1, #1
    cmp r2, #99         ; extra conditional: loop is not "simple"
    beq exit
    b loop
exit:
    hlt
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  const Address beq_site = *b.program.symbol("loop") + 4;
  const SlotRecord* slot = result.manifest.slot_for_site(beq_site);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, SlotKind::CondNotTaken);
  // The displaced ADD now lives in the slot; the fall-through site branches
  // to the slot (Fig 7).
  EXPECT_EQ(result.program.instruction_at(beq_site + 4)->op, Op::B);
  EXPECT_EQ(slot->continuation, beq_site + 8);
  EXPECT_EQ(run(result.program, b.entry).first, 0u);  // r0 == 0: sum of nothing
}

TEST(RapRewriter, DeterministicLoopNeedsNoTrampoline) {
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
  const RewriteResult result = rewrite(b);
  EXPECT_TRUE(result.manifest.slots.empty());
  EXPECT_TRUE(result.manifest.loop_veneers.empty());
  EXPECT_EQ(result.manifest.deterministic_loops.size(), 1u);
  EXPECT_EQ(run(result.program, b.entry).first, 0u + 1 + 2 + 3 + 4);
}

TEST(RapRewriter, LoopOptimizationInsertsVeneer) {
  const Built b = build(R"(
_start:
    movi r0, #0
    mov r1, r2          ; variable iterator init (displaced into the veneer)
loop:
    add r0, r0, r1
    addi r1, r1, #1
    cmp r1, #5
    blt loop
    hlt
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  EXPECT_TRUE(result.manifest.slots.empty());  // no per-iteration logging
  ASSERT_EQ(result.manifest.loop_veneers.size(), 1u);
  const LoopVeneerRecord& veneer = result.manifest.loop_veneers[0];
  // Site replaced with a branch to the veneer.
  EXPECT_EQ(result.program.instruction_at(veneer.site)->op, Op::B);
  // Veneer: displaced instruction, SVC, branch back to the loop header.
  EXPECT_EQ(result.program.instruction_at(veneer.veneer_base)->op, Op::MOV);
  EXPECT_EQ(result.program.instruction_at(veneer.svc_addr)->op, Op::SVC);
  EXPECT_EQ(veneer.loop.iterator, isa::Reg::R1);
  // The veneer sits in the MTBDR (below the MTBAR).
  EXPECT_LT(veneer.veneer_base, result.manifest.mtbar_base);
}

TEST(RapRewriter, LoopOptAblationFallsBackToPerIteration) {
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
  RewriteOptions options;
  options.loop_optimization = false;
  const RewriteResult result = rewrite(b, options);
  EXPECT_TRUE(result.manifest.loop_veneers.empty());
  EXPECT_EQ(result.manifest.slots.size(), 1u);  // the blt gets a trampoline
}

TEST(RapRewriter, DeterministicElisionAblation) {
  const Built b = build(R"(
_start:
    movi r1, #0
loop:
    addi r1, r1, #1
    cmp r1, #5
    blt loop
    hlt
__code_end:
  )");
  RewriteOptions options;
  options.deterministic_loop_elision = false;
  const RewriteResult result = rewrite(b, options);
  EXPECT_EQ(result.manifest.slots.size(), 1u);
  EXPECT_TRUE(result.manifest.deterministic_loops.empty());
}

TEST(RapRewriter, NopPaddingMatchesOption) {
  const Built b = build(R"(
_start:
    li r3, =fn
    blx r3
    hlt
fn:
    bx lr
__code_end:
  )");
  for (const u32 pad : {0u, 1u, 3u}) {
    RewriteOptions options;
    options.nop_pad = pad;
    const RewriteResult result = rewrite(b, options);
    const SlotRecord& slot = result.manifest.slots.at(0);
    EXPECT_EQ(slot.slot_end - slot.slot_base, (pad + 1) * 4);
    for (u32 i = 0; i < pad; ++i) {
      EXPECT_EQ(result.program.instruction_at(slot.slot_base + 4 * i)->op,
                Op::NOP);
    }
  }
}

TEST(RapRewriter, MtbarAndMtbdrPartitionTheImage) {
  const Built b = build(R"(
_start:
    cmp r0, #0
    beq skip
    movi r1, #1
skip:
    hlt
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  const Manifest& m = result.manifest;
  EXPECT_EQ(m.mtbdr_base, result.program.base());
  EXPECT_EQ(m.mtbdr_limit, m.mtbar_base - 4);
  EXPECT_EQ(m.mtbar_limit, result.program.end() - 4);
  EXPECT_EQ(m.image_end, result.program.end());
  EXPECT_GT(result.rewritten_bytes, result.original_bytes);
}

TEST(RapRewriter, RejectsUnsupportedShapes) {
  const Built svc_app = build("_start:\n    svc #1\n    hlt\n__code_end:\n");
  EXPECT_THROW(rewrite(svc_app), Error);

  const Built lr_write = build("_start:\n    mov lr, r1\n    hlt\n__code_end:\n");
  EXPECT_THROW(rewrite(lr_write), Error);
}

TEST(RapRewriter, ManifestLookupsWork) {
  const Built b = build(R"(
_start:
    li r3, =fn
    blx r3
    hlt
fn:
    bx lr
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  const SlotRecord& slot = result.manifest.slots[0];
  EXPECT_EQ(result.manifest.slot_containing(slot.slot_base), &slot);
  EXPECT_EQ(result.manifest.slot_containing(slot.slot_end - 4), &slot);
  EXPECT_EQ(result.manifest.slot_containing(slot.slot_end), nullptr);
  EXPECT_EQ(result.manifest.slot_for_site(slot.site), &slot);
  EXPECT_EQ(result.manifest.slot_for_site(0), nullptr);
}

TEST(ManifestIo, RoundTripsTheFullManifest) {
  const Built b = build(R"(
_start:
    li r3, =fn
    blx r3
    mov r1, r2
loop:
    add r0, r0, r1
    addi r1, r1, #1
    cmp r1, #5
    blt loop
    movi r4, #0
det:
    addi r4, r4, #1
    cmp r4, #3
    blt det
    cmp r0, #9
    beq skip
    movi r5, #1
skip:
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  ASSERT_FALSE(result.manifest.slots.empty());
  ASSERT_FALSE(result.manifest.loop_veneers.empty());
  ASSERT_FALSE(result.manifest.deterministic_loops.empty());

  const std::vector<u8> bytes = serialize_manifest(result.manifest);
  const Manifest parsed = deserialize_manifest(bytes);

  EXPECT_EQ(parsed.code_begin, result.manifest.code_begin);
  EXPECT_EQ(parsed.code_end, result.manifest.code_end);
  EXPECT_EQ(parsed.image_end, result.manifest.image_end);
  EXPECT_EQ(parsed.mtbar_base, result.manifest.mtbar_base);
  EXPECT_EQ(parsed.mtbar_limit, result.manifest.mtbar_limit);
  EXPECT_EQ(parsed.mtbdr_base, result.manifest.mtbdr_base);
  EXPECT_EQ(parsed.mtbdr_limit, result.manifest.mtbdr_limit);
  EXPECT_EQ(parsed.nop_pad, result.manifest.nop_pad);

  ASSERT_EQ(parsed.slots.size(), result.manifest.slots.size());
  for (size_t i = 0; i < parsed.slots.size(); ++i) {
    EXPECT_EQ(parsed.slots[i].kind, result.manifest.slots[i].kind);
    EXPECT_EQ(parsed.slots[i].slot_base, result.manifest.slots[i].slot_base);
    EXPECT_EQ(parsed.slots[i].slot_end, result.manifest.slots[i].slot_end);
    EXPECT_EQ(parsed.slots[i].site, result.manifest.slots[i].site);
    EXPECT_EQ(parsed.slots[i].original, result.manifest.slots[i].original);
    EXPECT_EQ(parsed.slots[i].continuation,
              result.manifest.slots[i].continuation);
  }
  ASSERT_EQ(parsed.loop_veneers.size(), result.manifest.loop_veneers.size());
  const auto& veneer = parsed.loop_veneers[0];
  const auto& expected = result.manifest.loop_veneers[0];
  EXPECT_EQ(veneer.veneer_base, expected.veneer_base);
  EXPECT_EQ(veneer.svc_addr, expected.svc_addr);
  EXPECT_EQ(veneer.site, expected.site);
  EXPECT_EQ(veneer.displaced, expected.displaced);
  EXPECT_EQ(veneer.loop.iterator, expected.loop.iterator);
  EXPECT_EQ(veneer.loop.step, expected.loop.step);
  EXPECT_EQ(veneer.loop.bound, expected.loop.bound);
  ASSERT_EQ(parsed.deterministic_loops.size(),
            result.manifest.deterministic_loops.size());
  const auto& [site, loop] = *parsed.deterministic_loops.begin();
  EXPECT_EQ(site, result.manifest.deterministic_loops.begin()->first);
  EXPECT_EQ(loop.constant_init,
            result.manifest.deterministic_loops.begin()->second.constant_init);
}

TEST(ManifestIo, DeserializedManifestDrivesVerification) {
  // The Verifier works from a manifest that went through the wire format.
  const Built b = build(R"(
_start:
    bl fn
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  const Manifest parsed =
      deserialize_manifest(serialize_manifest(result.manifest));
  EXPECT_EQ(parsed.slot_for_site(result.manifest.slots[0].site)->kind,
            result.manifest.slots[0].kind);
}

TEST(ManifestIo, RejectsMalformedInput) {
  const Built b = build("_start:\n    hlt\n__code_end:\n");
  const RewriteResult result = rewrite(b);
  std::vector<u8> bytes = serialize_manifest(result.manifest);

  {
    auto corrupt = bytes;
    corrupt[0] ^= 0xff;  // magic
    EXPECT_THROW(deserialize_manifest(corrupt), Error);
  }
  {
    auto corrupt = bytes;
    corrupt[4] = 99;  // version
    EXPECT_THROW(deserialize_manifest(corrupt), Error);
  }
  {
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(deserialize_manifest(truncated), Error);
  }
  {
    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW(deserialize_manifest(trailing), Error);
  }
}

// Header: magic, version, eight range words, then the slot count; the first
// slot record starts with its kind byte.
constexpr size_t kFirstSlotKindOffset = 4 + 4 + 8 * 4 + 4;

TEST(ManifestIo, RejectsUnknownSlotKind) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  const RewriteResult result = rewrite(b);
  ASSERT_FALSE(result.manifest.slots.empty());
  std::vector<u8> bytes = serialize_manifest(result.manifest);
  ASSERT_EQ(bytes[kFirstSlotKindOffset],
            static_cast<u8>(result.manifest.slots[0].kind));
  bytes[kFirstSlotKindOffset] = static_cast<u8>(SlotKind::CondBoth);
  EXPECT_NO_THROW(deserialize_manifest(bytes));
  for (const u8 bad : {u8{6}, u8{0x7f}, u8{0xff}}) {
    bytes[kFirstSlotKindOffset] = bad;
    EXPECT_THROW(deserialize_manifest(bytes), Error) << int{bad};
  }
}

TEST(ManifestIo, RefusesVersionOneWhole) {
  const Built b = build("_start:\n    hlt\n__code_end:\n");
  const RewriteResult result = rewrite(b);
  std::vector<u8> bytes = serialize_manifest(result.manifest);
  ASSERT_EQ(bytes[4], 2u) << "manifest version field moved";
  bytes[4] = 1;
  try {
    deserialize_manifest(bytes);
    ADD_FAILURE() << "v1 manifest accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace raptrack::rewrite
