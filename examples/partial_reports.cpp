// Partial reports (§IV-E): run the GPS parser with a deliberately tiny MTB
// watermark so CF_Log is streamed to the Verifier as a chain of signed
// partial reports, then verify the whole chain and reconstruct the path.
//
//   $ ./partial_reports
#include <cstdio>

#include "apps/runner.hpp"

using namespace raptrack;

int main() {
  const auto prepared = apps::prepare_app(apps::app_by_name("gps"));

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  // A 256-byte MTB with a 128-byte watermark: 16 packets per chunk.
  sim::MachineConfig config;
  config.mtb_buffer_bytes = 256;
  cfa::SessionOptions options;
  options.watermark_bytes = 128;

  const auto run = apps::run_rap(prepared, /*seed=*/2026, config, options, chal);

  std::printf("gps run: %llu cycles, CF_Log %llu bytes total\n",
              (unsigned long long)run.attestation.metrics.exec_cycles,
              (unsigned long long)run.attestation.metrics.cflog_bytes);
  std::printf("partial reports: %u (pause cost %llu cycles)\n",
              run.attestation.metrics.partial_reports,
              (unsigned long long)run.attestation.metrics.pause_cycles);
  for (const auto& report : run.attestation.reports) {
    std::printf("  report seq=%u %s payload=%zu bytes\n", report.sequence,
                report.final_report ? "[final]" : "[partial]",
                report.payload.size());
  }

  const auto result = verifier.verify(chal, run.attestation.reports);
  std::printf("\nchain verification: %s\n",
              result.accepted() ? "ACCEPTED" : result.detail.c_str());
  std::string lossless = "NO";
  if (result.replay.events == run.oracle) {
    lossless = "yes (exact)";
  } else {
    // The GPS parser has silently-rejoining leaf helpers, so the log can
    // admit several benign attributions (see README); confirm the true
    // path is among the accepted parses.
    verify::PathReplayer checker(*verifier.deployment());
    if (checker.check_path(run.oracle, result.inputs).complete) {
      lossless = "yes (up to attribution equivalence)";
    }
  }
  std::printf("reconstructed %zu transfers; lossless vs oracle: %s\n",
              result.replay.events.size(), lossless.c_str());

  // Contrast: naive MTB logging at the paper's 4KB buffer size.
  sim::MachineConfig paper_mtb;
  paper_mtb.mtb_buffer_bytes = 4096;
  const auto naive = apps::run_naive(prepared, 2026, paper_mtb);
  const auto rap4k = apps::run_rap(prepared, 2026, paper_mtb);
  std::printf("\nwith the paper's 4KB MTB: naive needs %u partial reports, "
              "RAP-Track needs %u\n",
              naive.attestation.metrics.partial_reports,
              rap4k.attestation.metrics.partial_reports);
  return result.accepted() ? 0 : 1;
}
