// Partial-report tests (§IV-E): the MTB_FLOW watermark splits CF_Log into
// signed chunks; the Verifier stitches the chain back together and the
// reconstruction stays lossless. Also covers the paper's §V-B point that a
// 4KB MTB forces frequent pauses under naive logging but rarely under
// RAP-Track.
#include <gtest/gtest.h>

#include "apps/runner.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;

TEST(PartialReports, RapChainVerifiesAcrossWatermarkFlushes) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  // Tiny watermark: 16 packets per partial report.
  cfa::SessionOptions options;
  options.watermark_bytes = 128;
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 256;
  const auto run = apps::run_rap(prepared, 42, config, options, chal);

  EXPECT_GT(run.attestation.metrics.partial_reports, 2u);
  EXPECT_EQ(run.attestation.reports.size(),
            run.attestation.metrics.partial_reports + 1u);
  EXPECT_GT(run.attestation.metrics.pause_cycles, 0u);

  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle);  // lossless across chunks
}

TEST(PartialReports, NaiveChainVerifiesAcrossWatermarkFlushes) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("prime"));

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_naive(prepared.built.program, prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  cfa::SessionOptions options;
  options.watermark_bytes = 1024;
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 4096;  // the paper's 4KB MTB
  const auto run = apps::run_naive(prepared, 42, config, options, chal);
  EXPECT_GT(run.attestation.metrics.partial_reports, 0u);

  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle);
}

TEST(PartialReports, DroppedChunkBreaksTheChain) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  cfa::SessionOptions options;
  options.watermark_bytes = 128;
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 256;
  auto run = apps::run_rap(prepared, 42, config, options, chal);
  ASSERT_GT(run.attestation.reports.size(), 2u);
  run.attestation.reports.erase(run.attestation.reports.begin() + 1);

  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(result.accepted());
  EXPECT_FALSE(result.chain_ok);
}

TEST(PartialReports, ReorderedChunksAreRejected) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  cfa::SessionOptions options;
  options.watermark_bytes = 128;
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 256;
  auto run = apps::run_rap(prepared, 42, config, options, chal);
  ASSERT_GT(run.attestation.reports.size(), 2u);
  std::swap(run.attestation.reports[0], run.attestation.reports[1]);

  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(result.accepted());
  EXPECT_FALSE(result.chain_ok);
}

TEST(PartialReports, MtbWrapWithoutWatermarkLosesEvidence) {
  // Misconfiguration case: no watermark and a small MTB. The buffer wraps,
  // the oldest packets are gone, and reconstruction must fail — silent
  // loss is not acceptable in lossless CFA.
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("fibcall"));

  sim::Machine machine(sim::MachineConfig{.mtb_buffer_bytes = 256});
  const auto periph = prepared.built.app->setup(machine, 7);
  machine.load_program(prepared.rap.program);
  machine.dwt().configure_rap_track(
      prepared.rap.manifest.mtbar_base, prepared.rap.manifest.mtbar_limit,
      prepared.rap.manifest.mtbdr_base, prepared.rap.manifest.mtbdr_limit);
  machine.mtb().set_enabled(true);  // no watermark set
  machine.monitor().register_service(
      tz::Service::kRapLogLoopCondition,
      [](cpu::CpuState&) -> Cycles { return 1; });
  machine.reset_cpu(prepared.built.entry);
  ASSERT_EQ(machine.run(10'000'000), cpu::HaltReason::Halted);
  ASSERT_TRUE(machine.mtb().wrapped());

  const auto deployment = verify::Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry);
  verify::PathReplayer replayer(*deployment);
  verify::ReplayInputs inputs;
  inputs.packets = machine.mtb().read_log();
  const auto result = replayer.replay(inputs);
  EXPECT_FALSE(result.complete);
}

TEST(PartialReports, TracesChunkedChainVerifies) {
  // The instrumentation baseline also streams its log: capacity flushes
  // become signed partial reports and the Verifier stitches the chunks.
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_traces(prepared.traces.program, prepared.traces.manifest,
                         prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  cfa::SessionOptions options;
  options.traces_capacity_bytes = 512;
  const auto run = apps::run_traces(prepared, 42, {}, options, chal);
  EXPECT_GT(run.attestation.metrics.partial_reports, 2u);
  EXPECT_EQ(run.attestation.reports.size(),
            run.attestation.metrics.partial_reports + 1u);
  EXPECT_GT(run.attestation.metrics.pause_cycles, 0u);

  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle);
}

TEST(PartialReports, TracesDroppedChunkBreaksTheChain) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_traces(prepared.traces.program, prepared.traces.manifest,
                         prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  cfa::SessionOptions options;
  options.traces_capacity_bytes = 512;
  auto run = apps::run_traces(prepared, 42, {}, options, chal);
  ASSERT_GT(run.attestation.reports.size(), 2u);
  run.attestation.reports.erase(run.attestation.reports.begin());
  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_FALSE(result.accepted());
  EXPECT_FALSE(result.chain_ok);
}

TEST(PartialReports, The4KbMtbPointFromSectionVB) {
  // §V-B: with the 4KB MTB, naive logging needs partial-report pauses on
  // branchy apps while RAP-Track usually fits in a single report.
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 4096;

  const auto naive = apps::run_naive(prepared, 42, config);
  const auto rap = apps::run_rap(prepared, 42, config);
  EXPECT_GT(naive.attestation.metrics.partial_reports,
            rap.attestation.metrics.partial_reports);
  EXPECT_GE(naive.attestation.metrics.pause_cycles,
            rap.attestation.metrics.pause_cycles);
}

}  // namespace
}  // namespace raptrack
