// Property sweeps over the whole application suite × stimulus seeds:
//   P1  semantic preservation — every rewriting pass leaves app results
//       identical to the golden model;
//   P2  losslessness — Verifier reconstruction equals the ground-truth
//       oracle, branch for branch, for all three CFA methods;
//   P3  the paper's ordering invariants — RAP-Track runtime sits between
//       the baseline and TRACES; naive CF_Log dominates everything.
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "rewrite/manifest_io.hpp"

namespace raptrack {
namespace {

using apps::MethodRun;
using apps::PreparedApp;

struct Case {
  std::string app;
  u64 seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.app + "_seed" + std::to_string(info.param.seed);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& app : apps::app_registry()) {
    for (const u64 seed : {11ull, 42ull, 1234ull}) {
      cases.push_back({app.name, seed});
    }
  }
  return cases;
}

class PropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  static const PreparedApp& prepared(const std::string& name) {
    static std::map<std::string, PreparedApp> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      it = cache.emplace(name, apps::prepare_app(apps::app_by_name(name))).first;
    }
    return it->second;
  }
};

TEST_P(PropertyTest, SemanticPreservationAcrossAllMethods) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);
  EXPECT_TRUE(apps::run_baseline(p, seed).functional_ok) << "baseline";
  EXPECT_TRUE(apps::run_rap(p, seed).functional_ok) << "rap";
  EXPECT_TRUE(apps::run_traces(p, seed).functional_ok) << "traces";
  sim::MachineConfig big;
  big.mtb_buffer_bytes = 1 << 20;
  EXPECT_TRUE(apps::run_naive(p, seed, big).functional_ok) << "naive";
}

TEST_P(PropertyTest, RapReconstructionIsLossless) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(p.rap.program, p.rap.manifest, p.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  const MethodRun run = apps::run_rap(p, seed, {}, {}, chal);
  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << app << ": " << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle) << app;
}

TEST_P(PropertyTest, NaiveReconstructionIsLossless) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_naive(p.built.program, p.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  sim::MachineConfig big;
  big.mtb_buffer_bytes = 1 << 20;  // avoid wrap loss
  const MethodRun run = apps::run_naive(p, seed, big, {}, chal);
  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << app << ": " << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle) << app;
}

TEST_P(PropertyTest, TracesReconstructionIsLossless) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_traces(p.traces.program, p.traces.manifest, p.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  const MethodRun run = apps::run_traces(p, seed, {}, {}, chal);
  const auto result = verifier.verify(chal, run.attestation.reports);
  ASSERT_TRUE(result.accepted()) << app << ": " << result.detail;
  EXPECT_EQ(result.replay.events, run.oracle) << app;
}

TEST_P(PropertyTest, RuntimeOrderingMatchesThePaper) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);
  sim::MachineConfig big;
  big.mtb_buffer_bytes = 1 << 20;

  const Cycles baseline = apps::run_baseline(p, seed).attestation.metrics.exec_cycles;
  const Cycles naive = apps::run_naive(p, seed, big).attestation.metrics.exec_cycles;
  const Cycles rap = apps::run_rap(p, seed, big).attestation.metrics.exec_cycles;
  const Cycles traces = apps::run_traces(p, seed, big).attestation.metrics.exec_cycles;

  // Naive MTB adds no instrumentation: identical to the baseline.
  EXPECT_EQ(naive, baseline) << app;
  // RAP-Track adds trampolines (>= baseline) but beats instrumentation.
  EXPECT_GE(rap, baseline) << app;
  EXPECT_LE(rap, traces) << app;
}

TEST_P(PropertyTest, CflogOrderingMatchesThePaper) {
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);
  sim::MachineConfig big;
  big.mtb_buffer_bytes = 1 << 20;

  const u64 naive = apps::run_naive(p, seed, big).attestation.metrics.cflog_bytes;
  const u64 rap = apps::run_rap(p, seed, big).attestation.metrics.cflog_bytes;

  // Figure 9: naive MTB logs dominate RAP-Track's (strictly, unless the app
  // logs nothing at all).
  EXPECT_GE(naive, rap) << app;
  EXPECT_GT(naive, 0u) << app;
}

TEST_P(PropertyTest, CodeSizeOrderingMatchesThePaper) {
  const auto& [app, seed] = GetParam();
  (void)seed;
  const PreparedApp& p = prepared(app);
  // Figure 10: both rewrites grow the binary; neither shrinks it.
  EXPECT_GE(p.rap.rewritten_bytes, p.rap.original_bytes);
  EXPECT_GE(p.traces.rewritten_bytes, p.traces.original_bytes);
}

TEST_P(PropertyTest, SerializedManifestDrivesVerification) {
  // The manifest survives its wire format with full verification fidelity:
  // a Verifier working from the deserialized copy accepts the same runs.
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);
  const rewrite::Manifest roundtrip = rewrite::deserialize_manifest(
      rewrite::serialize_manifest(p.rap.manifest));

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(p.rap.program, roundtrip, p.built.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();
  const MethodRun run = apps::run_rap(p, seed, {}, {}, chal);
  const auto result = verifier.verify(chal, run.attestation.reports);
  EXPECT_TRUE(result.accepted()) << app << ": " << result.detail;
}

TEST_P(PropertyTest, SequentialSessionsStayIndependent) {
  // One Verifier, several attestation sessions: each needs its own fresh
  // challenge, and evidence from one session cannot satisfy another.
  const auto& [app, seed] = GetParam();
  const PreparedApp& p = prepared(app);
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(p.rap.program, p.rap.manifest, p.built.entry);

  const cfa::Challenge chal1 = verifier.fresh_challenge();
  const cfa::Challenge chal2 = verifier.fresh_challenge();
  ASSERT_NE(chal1, chal2);

  const MethodRun run1 = apps::run_rap(p, seed, {}, {}, chal1);
  const MethodRun run2 = apps::run_rap(p, seed + 1, {}, {}, chal2);

  // Cross-wiring evidence and challenges fails.
  EXPECT_FALSE(verifier.verify(chal2, run1.attestation.reports).accepted());
  // The right pairing still works (chal2 unconsumed by the failed check? —
  // a failed chal/report binding must not burn the challenge).
  EXPECT_TRUE(verifier.verify(chal1, run1.attestation.reports).accepted());
  EXPECT_TRUE(verifier.verify(chal2, run2.attestation.reports).accepted());
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllSeeds, PropertyTest,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace raptrack
