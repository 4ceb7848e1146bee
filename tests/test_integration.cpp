// End-to-end integration: the full CFA protocol (challenge -> attest ->
// verify) for RAP-Track, naive MTB, and TRACES over a real application,
// including losslessness (reconstruction == ground-truth oracle) and the
// report-chain security checks.
#include <gtest/gtest.h>

#include "apps/runner.hpp"

namespace raptrack {
namespace {

using apps::MethodRun;
using apps::PreparedApp;

constexpr u64 kSeed = 1234;

class IntegrationTest : public ::testing::Test {
 protected:
  static const PreparedApp& gps() {
    static const PreparedApp prepared =
        apps::prepare_app(apps::app_by_name("gps"));
    return prepared;
  }
};

TEST_F(IntegrationTest, RapTrackFullProtocolAccepts) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  const MethodRun run = apps::run_rap(gps(), kSeed, {}, {}, chal);
  EXPECT_TRUE(run.functional_ok);

  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_TRUE(result.authentic);
  EXPECT_TRUE(result.fresh);
  EXPECT_TRUE(result.chain_ok);
  EXPECT_TRUE(result.memory_ok);
  EXPECT_TRUE(result.reconstruction_ok) << result.detail;
  EXPECT_TRUE(result.policy_ok) << result.detail;
  EXPECT_TRUE(result.accepted());

  // Losslessness: the reconstructed branch history matches the ground truth.
  EXPECT_EQ(result.replay.events, run.oracle);
}

TEST_F(IntegrationTest, NaiveMtbFullProtocolAccepts) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_naive(gps().built.program, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  // A big-enough MTB avoids wrap loss in naive mode for this test.
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 8192;
  const MethodRun run = apps::run_naive(gps(), kSeed, config, {}, chal);
  EXPECT_TRUE(run.functional_ok);

  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle);
}

TEST_F(IntegrationTest, TracesFullProtocolAccepts) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_traces(gps().traces.program, gps().traces.manifest,
                         gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  const MethodRun run = apps::run_traces(gps(), kSeed, {}, {}, chal);
  EXPECT_TRUE(run.functional_ok);

  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle);
}

TEST_F(IntegrationTest, ReplayedChallengeIsRejected) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  const MethodRun run = apps::run_rap(gps(), kSeed, {}, {}, chal);

  EXPECT_TRUE(verifier.verify(chal, run.attestation.reports).accepted());
  // Second presentation of the same evidence: replay.
  const auto replayed = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(replayed.accepted());
  EXPECT_FALSE(replayed.fresh);
}

TEST_F(IntegrationTest, UnknownChallengeIsRejected) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  cfa::Challenge forged{};
  forged[0] = 0xaa;
  const MethodRun run = apps::run_rap(gps(), kSeed, {}, {}, forged);
  EXPECT_FALSE(verifier.verify(forged, run.attestation.reports).fresh);
}

TEST_F(IntegrationTest, TamperedMacIsRejected) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  MethodRun run = apps::run_rap(gps(), kSeed, {}, {}, chal);
  run.attestation.reports.back().mac[0] ^= 1;
  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(result.authentic);
  EXPECT_FALSE(result.accepted());
}

TEST_F(IntegrationTest, TamperedPayloadIsRejected) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  MethodRun run = apps::run_rap(gps(), kSeed, {}, {}, chal);
  ASSERT_GT(run.attestation.reports.back().payload.size(), 8u);
  run.attestation.reports.back().payload[6] ^= 0xff;  // flip a logged address
  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(result.accepted());
  EXPECT_FALSE(result.authentic);  // MAC no longer matches
}

TEST_F(IntegrationTest, WrongKeyProverIsRejected) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  // A prover with a different key (compromised clone without the RoT key).
  sim::Machine machine;
  const auto periph = gps().built.app->setup(machine, kSeed);
  crypto::Key wrong_key(32, 0x77);
  cfa::RapProver prover(gps().rap.program, gps().rap.manifest,
                        gps().built.entry, wrong_key);
  const auto attestation = prover.attest(machine, chal);
  EXPECT_FALSE(verifier.verify(chal, attestation.reports).authentic);
}

TEST_F(IntegrationTest, ModifiedBinaryFailsHmem) {
  // Verifier expects the pristine image; the device runs a patched one.
  Program patched = gps().rap.program;
  patched.set_instruction(gps().built.entry, isa::make_nop());

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(gps().rap.program, gps().rap.manifest, gps().built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  sim::Machine machine;
  const auto periph = gps().built.app->setup(machine, kSeed);
  cfa::RapProver prover(patched, gps().rap.manifest, gps().built.entry,
                        apps::demo_key());
  const auto attestation = prover.attest(machine, chal);
  const auto result = verifier.verify(chal, attestation.reports);
  EXPECT_TRUE(result.authentic);   // RoT signed honestly…
  EXPECT_FALSE(result.memory_ok);  // …but the binary is not the expected one
  EXPECT_FALSE(result.accepted());
}

TEST_F(IntegrationTest, MpuLockPreventsNonSecureCodePatch) {
  // After the CFA engine locks the NS-MPU, a Non-Secure write to APP's
  // binary faults (§IV-A / §IV-F).
  sim::Machine machine;
  const auto periph = gps().built.app->setup(machine, kSeed);
  machine.load_program(gps().rap.program);
  auto& mpu = machine.bus().ns_mpu();
  mpu.configure(0, {.enabled = true,
                    .base = gps().rap.program.base(),
                    .limit = gps().rap.program.end() - 1,
                    .allow_read = true,
                    .allow_write = false,
                    .allow_execute = true});
  mpu.lock();
  EXPECT_THROW(machine.bus().write(gps().rap.program.base(), 0,
                                   4, mem::WorldSide::NonSecure, 0),
               mem::FaultException);
  EXPECT_THROW(mpu.configure(0, {}), Error);  // cannot be undone
}

TEST_F(IntegrationTest, RapWorldSwitchesAreFarFewerThanTraces) {
  const MethodRun rap = apps::run_rap(gps(), kSeed);
  const MethodRun traces = apps::run_traces(gps(), kSeed);
  // The headline claim: parallel tracking obviates per-branch context
  // switches. RAP only switches for loop-condition logging.
  EXPECT_LT(rap.attestation.metrics.world_switches * 10,
            traces.attestation.metrics.world_switches);
}

}  // namespace
}  // namespace raptrack
