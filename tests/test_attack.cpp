// Attack-detection tests (§IV-F security analysis): a real stack-smashing
// ROP delivered through the app's input channel, a JOP-style dispatch
// hijack, and the benign-control runs that must stay clean. In every case
// the attack succeeds on the device but the CF_Log evidence exposes it to
// the Verifier.
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "asm/assembler.hpp"

namespace raptrack {
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

/// Models Adv's arbitrary runtime control over the Non-Secure world: runs a
/// callback before a chosen instruction executes (e.g. to corrupt a
/// register or RAM). Deliberately NOT the DWT — those comparators belong to
/// the trusted RoT configuration.
class AttackerHook final : public cpu::TraceSink {
 public:
  AttackerHook(Address trigger_pc, std::function<void()> action)
      : trigger_(trigger_pc), action_(std::move(action)) {}

  void on_instruction(Address pc) override {
    if (pc == trigger_ && !fired_) {
      fired_ = true;
      action_();
    }
  }

 private:
  Address trigger_;
  std::function<void()> action_;
  bool fired_ = false;
};

// A vulnerable service: reads a length byte from the UART and copies that
// many sensor words (ADC channel) into an 8-byte stack buffer — a classic
// unbounded copy. Index 5 of the copy lands on the saved return address.
constexpr const char* kVulnerableApp = R"asm(
.equ UART_RX,   0x40000000
.equ ADC,       0x40000010
.equ ACTUATOR,  0x40000050
.equ RES_OK,    0x20200000

_start:
    bl handle_message
    li r1, =RES_OK
    movi r0, #1
    str r0, [r1]
    hlt

; gadget the attacker wants to reach (fires the actuator).
privileged_gadget:
    li r1, =ACTUATOR
    li r0, =0xdead
    str r0, [r1]
    li r1, =RES_OK
    movi r0, #2
    str r0, [r1]
    hlt

handle_message:
    push {r4, r5, r6, lr}
    sub sp, sp, #8         ; 8-byte stack buffer at [sp]
    li r4, =UART_RX
    ldr r5, [r4]           ; attacker-controlled length
    li r4, =ADC
    movi r6, #0
copy_loop:
    cmp r6, r5
    bge copy_done
    ldr r0, [r4]           ; next sensor word
    ; *** missing bounds check: writes beyond the 8-byte buffer ***
    lsl r1, r6, #2
    add r1, r1, sp
    str r0, [r1]
    addi r6, r6, #1
    b copy_loop
copy_done:
    add sp, sp, #8
    pop {r4, r5, r6, pc}
__code_end:
)asm";

std::shared_ptr<apps::Peripherals> stimulus(sim::Machine& machine, u8 length,
                                            std::vector<u32> words) {
  auto periph = std::make_shared<apps::Peripherals>();
  periph->uart_rx.push_back(length);
  periph->adc_values = std::move(words);
  periph->attach(machine);
  return periph;
}

TEST(Attack, BenignRunOfVulnerableAppIsAccepted) {
  const Built b = build(kVulnerableApp);
  const auto rewritten = rewrite::rewrite_for_rap_track(
      b.program, b.entry, b.program.base(), b.code_end);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(rewritten.program, rewritten.manifest, b.entry);

  const cfa::Challenge chal = verifier.fresh_challenge();
  sim::Machine machine;
  const auto periph = stimulus(machine, 2, {0x11, 0x22});  // fits the buffer
  cfa::RapProver prover(rewritten.program, rewritten.manifest, b.entry,
                        apps::demo_key());
  const auto run = prover.attest(machine, chal);
  EXPECT_EQ(machine.memory().raw_read32(0x2020'0000), 1u);  // normal path
  const auto result = verifier.verify(chal, run.reports);
  EXPECT_TRUE(result.accepted()) << result.detail;
  EXPECT_TRUE(result.replay.findings.empty());
}

// End-to-end ROP through the input channel: the overflow payload itself
// carries the gadget address; no simulator magic involved. The MTB records
// the hijacked return and the Verifier reports the ROP with the exact
// gadget address.
TEST(Attack, RopStackSmashViaInputChannelIsDetected) {
  const Built b = build(kVulnerableApp);
  const auto rewritten = rewrite::rewrite_for_rap_track(
      b.program, b.entry, b.program.base(), b.code_end);
  const Address gadget = *b.program.symbol("privileged_gadget");

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(rewritten.program, rewritten.manifest, b.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  sim::Machine machine;
  // Indices 0-1 fill the buffer, 2-4 clobber saved r4/r5/r6, 5 overwrites
  // the saved return address.
  const auto periph =
      stimulus(machine, 6, {0x11, 0x22, 0x33, 0x44, 0x55, gadget});
  cfa::RapProver prover(rewritten.program, rewritten.manifest, b.entry,
                        apps::demo_key());
  const auto run = prover.attest(machine, chal);

  // The exploit worked on the device: the privileged gadget ran.
  EXPECT_EQ(machine.memory().raw_read32(0x2020'0000), 2u);
  ASSERT_FALSE(periph->actuator_writes.empty());
  EXPECT_EQ(periph->actuator_writes[0], 0xdeadu);

  // …and the evidence convicts it.
  const auto result = verifier.verify(chal, run.reports);
  EXPECT_TRUE(result.authentic);
  EXPECT_TRUE(result.memory_ok);
  EXPECT_TRUE(result.reconstruction_ok) << result.detail;
  EXPECT_FALSE(result.policy_ok);
  EXPECT_FALSE(result.accepted());
  ASSERT_FALSE(result.replay.findings.empty());
  const auto& finding = result.replay.findings[0];
  EXPECT_NE(finding.description.find("ROP"), std::string::npos);
  EXPECT_EQ(finding.observed, gadget);
  // The reconstructed path shows execution entering the gadget.
  bool path_hits_gadget = false;
  for (const auto& event : result.replay.events) {
    path_hits_gadget |= event.destination == gadget;
  }
  EXPECT_TRUE(path_hits_gadget);
}

// JOP-style dispatch hijack on the syringe pump: Adv corrupts the dispatch
// register before the indirect call (data-only attack, code unchanged); the
// Verifier's call-target policy flags the illegitimate target.
TEST(Attack, JopDispatchHijackIsDetected) {
  const auto prepared = apps::prepare_app(apps::app_by_name("syringe"));

  // Legitimate dispatch targets, harvested from the command table.
  verify::ReplayPolicy policy;
  const Program& original = prepared.built.program;
  const Address table = *original.symbol("cmd_table");
  for (Address a = table; a + 4 <= original.end(); a += 4) {
    policy.valid_call_targets.insert(original.word_at(a));
  }

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  verifier.set_policy(policy);

  // Benign run: accepted under the policy.
  {
    const cfa::Challenge chal = verifier.fresh_challenge();
    const auto run = apps::run_rap(prepared, 77, {}, {}, chal);
    const auto result = verifier.verify(chal, run.attestation.reports);
    EXPECT_TRUE(result.accepted()) << result.detail;
  }

  // Malicious run.
  {
    const cfa::Challenge chal = verifier.fresh_challenge();
    sim::Machine machine;
    const auto periph = prepared.built.app->setup(machine, 77);
    const Address hijack_target = *original.symbol("done");
    ASSERT_EQ(policy.valid_call_targets.count(hijack_target), 0u);

    const auto* call_slot = [&]() -> const rewrite::SlotRecord* {
      for (const auto& slot : prepared.rap.manifest.slots) {
        if (slot.kind == rewrite::SlotKind::IndirectCall) return &slot;
      }
      return nullptr;
    }();
    ASSERT_NE(call_slot, nullptr);
    AttackerHook hook(call_slot->site, [&] {
      machine.cpu().state().set_reg(isa::Reg::R3, hijack_target);
    });
    machine.cpu().add_sink(&hook);

    cfa::RapProver prover(prepared.rap.program, prepared.rap.manifest,
                          prepared.built.entry, apps::demo_key());
    const auto run = prover.attest(machine, chal);
    const auto result = verifier.verify(chal, run.reports);
    EXPECT_TRUE(result.reconstruction_ok) << result.detail;
    EXPECT_FALSE(result.policy_ok);
    EXPECT_FALSE(result.accepted());
    bool jop_found = false;
    for (const auto& finding : result.replay.findings) {
      jop_found |= finding.description.find("JOP") != std::string::npos;
    }
    EXPECT_TRUE(jop_found);
  }
}

// The same input-channel ROP is equally visible under naive MTB logging —
// losslessness is method-independent.
TEST(Attack, RopIsAlsoVisibleUnderNaiveMtb) {
  const Built b = build(kVulnerableApp);
  const Address gadget = *b.program.symbol("privileged_gadget");

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_naive(b.program, b.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  sim::Machine machine;
  const auto periph =
      stimulus(machine, 6, {0x11, 0x22, 0x33, 0x44, 0x55, gadget});
  cfa::NaiveProver prover(b.program, b.entry, apps::demo_key());
  const auto run = prover.attest(machine, chal);

  const auto result = verifier.verify(chal, run.reports);
  EXPECT_TRUE(result.reconstruction_ok) << result.detail;
  EXPECT_FALSE(result.policy_ok);
  bool rop_found = false;
  for (const auto& finding : result.replay.findings) {
    rop_found |= finding.description.find("ROP") != std::string::npos;
  }
  EXPECT_TRUE(rop_found);
}

// A return hijacked through a `POP {…, lr}` epilogue. The assembler
// refuses `pop lr`, but any other image source can emit it, so the probe
// assembles `pop {r4, pc}` and flips reg_list bit 15 to bit 14. Under RAP
// and TRACES alike BX LR is not logged: the verifier resolves it from the
// link register BL set, which such an epilogue silently replaces with a
// value off the stack. The rewriters must refuse the image, and a
// deployment handed the image directly must never Accept the attack.
constexpr const char* kPopLrApp = R"asm(
.equ UART_RX,   0x40000000
.equ RES_OK,    0x20200000

_start:
    li r1, =UART_RX
    ldr r0, [r1]
    bl helper
    li r1, =RES_OK
    movi r0, #1
    str r0, [r1]
    hlt

evil:
    li r1, =RES_OK
    movi r0, #2
    str r0, [r1]
    hlt

helper:
    push {r4, lr}
    cmp r0, #100
    blt epilogue
    li r3, =evil
    str r3, [sp, #4]       ; overwrite the saved LR
epilogue:
    pop {r4, POPPED}
    bx lr
__code_end:
)asm";

constexpr u32 kPopLr = 1u << 14;

/// The probe program with `pop {r4, <popped>}` at `epilogue`, and that
/// word's address.
Built pop_lr_probe(const char* popped) {
  std::string src = kPopLrApp;
  src.replace(src.find("POPPED"), 6, popped);
  return build(src);
}

/// Rewrites `pop {r4, <reg>}` at `at` into `pop {r4, lr}`.
void flip_pop_to_lr(Program& program, Address at, u32 from_bit) {
  const auto pop = program.instruction_at(at);
  ASSERT_TRUE(pop.has_value());
  ASSERT_EQ(pop->op, isa::Op::POP);
  ASSERT_EQ(pop->reg_list, (1u << 4) | from_bit);
  program.set_word(at, program.word_at(at) ^ from_bit ^ kPopLr);
  ASSERT_EQ(program.instruction_at(at)->reg_list, (1u << 4) | kPopLr);
}

/// Attests `run` against a deployment built straight from the flipped
/// image (no rewriter in the loop) on the attack input, and checks the
/// attack really ran on the device.
template <typename Prove>
verify::VerificationResult attack_flipped_image(
    std::shared_ptr<const verify::Deployment> deployment, Prove&& prove) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(std::move(deployment));
  const cfa::Challenge chal = verifier.fresh_challenge();
  sim::Machine machine;
  const auto periph = stimulus(machine, 200, {});  // >= 100: hijack
  const auto run = prove(machine, chal);
  EXPECT_EQ(machine.memory().raw_read32(0x2020'0000), 2u);  // evil ran
  return verifier.verify(chal, run.reports);
}

TEST(Attack, PopIntoLrIsRefusedAndNeverAcceptedUnderRap) {
  Built probe = pop_lr_probe("pc");
  const Address epilogue = *probe.program.symbol("epilogue");
  flip_pop_to_lr(probe.program, epilogue, 1u << 15);
  EXPECT_THROW(rewrite::rewrite_for_rap_track(probe.program, probe.entry,
                                              probe.program.base(),
                                              probe.code_end),
               Error);

  // The same image with the rewriter out of the loop: rewrite a `pop
  // {r4, r5}` stand-in (same CFG), then plant the LR pop in the output.
  const Built stand_in = pop_lr_probe("r5");
  auto rewritten = rewrite::rewrite_for_rap_track(
      stand_in.program, stand_in.entry, stand_in.program.base(),
      stand_in.code_end);
  flip_pop_to_lr(rewritten.program, epilogue, 1u << 5);
  const auto result = attack_flipped_image(
      verify::Deployment::rap(rewritten.program, rewritten.manifest,
                              stand_in.entry),
      [&](sim::Machine& machine, const cfa::Challenge& chal) {
        cfa::RapProver prover(rewritten.program, rewritten.manifest,
                              stand_in.entry, apps::demo_key());
        return prover.attest(machine, chal);
      });
  EXPECT_FALSE(result.accepted()) << result.detail;
  EXPECT_NE(result.detail.find("unknown link register"), std::string::npos)
      << result.detail;
}

TEST(Attack, PopIntoLrIsRefusedAndNeverAcceptedUnderTraces) {
  Built probe = pop_lr_probe("pc");
  const Address epilogue = *probe.program.symbol("epilogue");
  flip_pop_to_lr(probe.program, epilogue, 1u << 15);
  EXPECT_THROW(instr::rewrite_for_traces(probe.program, probe.entry,
                                         probe.program.base(), probe.code_end),
               Error);

  const Built stand_in = pop_lr_probe("r5");
  auto rewritten = instr::rewrite_for_traces(
      stand_in.program, stand_in.entry, stand_in.program.base(),
      stand_in.code_end);
  flip_pop_to_lr(rewritten.program, epilogue, 1u << 5);
  const auto result = attack_flipped_image(
      verify::Deployment::traces(rewritten.program, rewritten.manifest,
                                 stand_in.entry),
      [&](sim::Machine& machine, const cfa::Challenge& chal) {
        cfa::TracesProver prover(rewritten.program, rewritten.manifest,
                                 stand_in.entry, apps::demo_key());
        return prover.attest(machine, chal);
      });
  EXPECT_FALSE(result.accepted()) << result.detail;
  EXPECT_NE(result.detail.find("unknown link register"), std::string::npos)
      << result.detail;
}

}  // namespace
}  // namespace raptrack
