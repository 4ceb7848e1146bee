// Shared assertion for RAP-Track losslessness tests.
//
// Taken-edge-only logging (paper Fig 5) reconstructs the path exactly in
// almost all cases, but cannot attribute a slot packet to a specific
// dynamic instance when an if/else's arms silently rejoin and the site
// re-executes with no logged branch in between (see replayer.hpp). The
// assertion therefore accepts either
//   (a) strict equality with the ground-truth oracle, or
//   (b) attribution equivalence: the reconstruction is a *benign* parse of
//       the evidence AND the oracle path itself parses the evidence
//       (checker mode) — the log admits both, indistinguishably.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/runner.hpp"

namespace raptrack::testing {

inline ::testing::AssertionResult rap_lossless_up_to_attribution(
    const Program& program, const rewrite::Manifest& manifest, Address entry,
    const verify::VerificationResult& result,
    const std::vector<trace::OracleEvent>& oracle) {
  if (!result.reconstruction_ok) {
    return ::testing::AssertionFailure()
           << "reconstruction failed: " << result.replay.failure;
  }
  if (result.replay.events == oracle) return ::testing::AssertionSuccess();

  // Silent-rejoin attribution ambiguity: the parse differs from the truth,
  // which is only acceptable when it is itself benign (no findings) ...
  if (!result.replay.findings.empty()) {
    return ::testing::AssertionFailure()
           << "divergent parse carries findings: "
           << result.replay.findings.front().description;
  }

  // ... and the true path must itself be an accepted parse of the evidence.
  const auto deployment = verify::Deployment::rap(program, manifest, entry);
  const auto checked =
      verify::PathReplayer(*deployment).check_path(oracle, result.inputs);
  if (!checked.complete) {
    return ::testing::AssertionFailure()
           << "oracle path is not consistent with the evidence: "
           << checked.failure;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace raptrack::testing
