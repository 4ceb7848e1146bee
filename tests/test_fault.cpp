// Fault-injection campaign (the ISSUE's acceptance gate): seeded injectors
// spanning every transport- and device-level kind, ≥1000 faulted runs total,
// with the invariants
//   * an injector that changed the evidence NEVER yields Accept;
//   * an injector that fired nothing leaves the clean Accept intact;
//   * no mutation crashes the verifier (the whole campaign runs under
//     ASan+UBSan in the sanitize preset);
//   * clean runs still Accept with a lossless reconstruction.
#include <gtest/gtest.h>

#include <map>

#include "fault/campaign.hpp"
#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "verify/farm.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;
using fault::AttestedRun;
using fault::CampaignOptions;
using fault::CampaignOutcome;
using fault::InjectorKind;
using verify::Verdict;

std::string describe(const CampaignOutcome& outcome, InjectorKind kind,
                     u64 seed) {
  std::string text = std::string(fault::injector_name(kind)) + " seed " +
                     std::to_string(seed) + " -> " +
                     verify::verdict_name(outcome.verdict) + " (" +
                     outcome.result.detail + ")";
  for (const auto& record : outcome.records) {
    text += "\n  injected: " + record.detail;
  }
  return text;
}

TEST(FaultCampaign, CleanRunsAcceptWithLosslessReconstruction) {
  for (const char* name : {"gps", "temperature"}) {
    const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
    const AttestedRun clean = fault::attest_once(prepared);
    ASSERT_TRUE(clean.functional_ok) << name;
    ASSERT_GT(clean.reports.size(), 2u) << name << ": want a multi-report chain";

    const CampaignOutcome outcome = fault::run_clean(prepared);
    EXPECT_EQ(outcome.verdict, Verdict::Accept)
        << name << ": " << outcome.result.detail;
    EXPECT_FALSE(outcome.fault_effective);
    EXPECT_TRUE(outcome.result.chain_ok);
    EXPECT_TRUE(outcome.result.gaps.empty());
    EXPECT_EQ(outcome.result.replay.events, clean.oracle) << name;
  }
}

TEST(FaultCampaign, TransportInjectorsNeverYieldAccept) {
  constexpr u64 kSeedsPerKind = 40;
  u64 faulted_runs = 0;
  std::map<InjectorKind, u64> effective_by_kind;

  for (const char* name : {"gps", "temperature"}) {
    const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
    const AttestedRun clean = fault::attest_once(prepared);
    ASSERT_GT(clean.reports.size(), 2u) << name;

    for (const InjectorKind kind : fault::transport_injectors()) {
      for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
        const CampaignOutcome outcome =
            fault::verify_mutated(prepared, clean, kind, seed);
        ++faulted_runs;
        if (outcome.wire_rejected) {
          // The flip never survived deserialization: safe by construction.
          ++effective_by_kind[kind];
          continue;
        }
        if (outcome.fault_effective) {
          ++effective_by_kind[kind];
          EXPECT_NE(outcome.verdict, Verdict::Accept)
              << name << ": " << describe(outcome, kind, seed);
          // Tamper verdicts must explain themselves for the audit trail.
          EXPECT_FALSE(outcome.result.detail.empty())
              << describe(outcome, kind, seed);
        } else {
          EXPECT_EQ(outcome.verdict, Verdict::Accept)
              << name << ": untouched chain must still verify — "
              << describe(outcome, kind, seed);
        }
      }
    }
  }

  // Every transport injector kind must have actually fired in the campaign.
  for (const InjectorKind kind : fault::transport_injectors()) {
    EXPECT_GT(effective_by_kind[kind], 0u) << fault::injector_name(kind);
  }
  EXPECT_GE(faulted_runs, 1000u);
  RecordProperty("faulted_runs", static_cast<int>(faulted_runs));
}

TEST(FaultCampaign, DeviceInjectorsNeverYieldAccept) {
  constexpr u64 kSeedsPerKind = 30;
  // syringe: has §IV-D loop veneers, so the SVC gateway faults have live
  // loop-condition calls to attack.
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("syringe"));
  std::map<InjectorKind, u64> effective_by_kind;

  for (const InjectorKind kind : fault::device_injectors()) {
    for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
      const CampaignOutcome outcome =
          fault::run_device_fault(prepared, kind, seed);
      if (outcome.fault_effective) {
        ++effective_by_kind[kind];
        EXPECT_NE(outcome.verdict, Verdict::Accept)
            << describe(outcome, kind, seed);
      } else {
        // The injector found nothing to corrupt (e.g. the targeted SVC call
        // never happened) — evidence is genuine and must still Accept.
        EXPECT_EQ(outcome.verdict, Verdict::Accept)
            << describe(outcome, kind, seed);
      }
    }
  }

  // An SEU in a live buffer and a glitched watermark always bite on this
  // workload; the SVC gateway faults depend on the seeded target landing
  // within the run's loop-condition calls, so only require that they fired
  // somewhere in the sweep.
  EXPECT_EQ(effective_by_kind[InjectorKind::MtbSramBitFlip], kSeedsPerKind);
  EXPECT_EQ(effective_by_kind[InjectorKind::MtbWatermarkGlitch],
            kSeedsPerKind);
  if (!prepared.rap.manifest.loop_veneers.empty()) {
    EXPECT_GT(effective_by_kind[InjectorKind::SvcDropLoopValue], 0u);
    EXPECT_GT(effective_by_kind[InjectorKind::SvcDoubleLoopValue], 0u);
  }
}

TEST(FaultCampaign, CampaignIsDeterministic) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared);

  const auto a = fault::verify_mutated(prepared, clean,
                                       InjectorKind::PayloadBitFlip, 7);
  const auto b = fault::verify_mutated(prepared, clean,
                                       InjectorKind::PayloadBitFlip, 7);
  EXPECT_EQ(a.verdict, b.verdict);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].detail, b.records[i].detail);
  }

  const auto c = fault::run_device_fault(prepared,
                                         InjectorKind::MtbSramBitFlip, 11);
  const auto d = fault::run_device_fault(prepared,
                                         InjectorKind::MtbSramBitFlip, 11);
  EXPECT_EQ(c.verdict, d.verdict);
  ASSERT_EQ(c.records.size(), d.records.size());
  for (size_t i = 0; i < c.records.size(); ++i) {
    EXPECT_EQ(c.records[i].detail, d.records[i].detail);
  }
}

TEST(FaultCampaign, ChainDamageProducesAuditableInconclusive) {
  // A lossy-but-honest link (drops, duplicates, reorders) is not proof of
  // attack: the verdict must be Inconclusive with gaps/notes for the audit
  // trail, never a silent Accept and never a crash.
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared);
  ASSERT_GT(clean.reports.size(), 3u);

  // Drop a middle report: a gap the resync pass must map.
  auto chain = clean.reports;
  chain.erase(chain.begin() + 1);
  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  verifier.adopt_challenge(clean.chal);
  const auto result = verifier.verify(clean.chal, chain);
  EXPECT_EQ(result.verdict, Verdict::Inconclusive) << result.detail;
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].first_missing, 1u);
  EXPECT_EQ(result.gaps[0].missing_count, 1u);
  EXPECT_TRUE(result.authentic);

  // An exact duplicate retransmission resyncs with a note.
  auto dup = clean.reports;
  dup.insert(dup.begin() + 2, dup[1]);
  verify::Verifier verifier2(apps::demo_key());
  verifier2.expect_rap(prepared.rap.program, prepared.rap.manifest,
                       prepared.built.entry);
  verifier2.adopt_challenge(clean.chal);
  const auto dup_result = verifier2.verify(clean.chal, dup);
  EXPECT_NE(dup_result.verdict, Verdict::Accept);
  EXPECT_FALSE(dup_result.chain_notes.empty());

  // Equivocation — two *different* authentic reports claiming the same
  // sequence number — is terminal: Reject, not Inconclusive.
  auto equiv = clean.reports;
  equiv[1].payload.push_back(0x5a);
  equiv[1].sign(apps::demo_key());
  equiv.insert(equiv.begin() + 1, clean.reports[1]);
  verify::Verifier verifier3(apps::demo_key());
  verifier3.expect_rap(prepared.rap.program, prepared.rap.manifest,
                       prepared.built.entry);
  verifier3.adopt_challenge(clean.chal);
  const auto equiv_result = verifier3.verify(clean.chal, equiv);
  EXPECT_EQ(equiv_result.verdict, Verdict::Reject) << equiv_result.detail;
}

// -- observability: injected-vs-detected tallies must reconcile --------------

TEST(FaultMetricsInvariants, CampaignCountersReconcileWithVerdictTallies) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared);
  ASSERT_GT(clean.reports.size(), 2u);

  const obs::Snapshot before = obs::registry().scrape();
  u64 runs = 0, effective = 0, wire_rejected = 0;
  std::map<Verdict, u64> verdicts;
  const auto tally = [&](const CampaignOutcome& outcome) {
    ++runs;
    if (outcome.fault_effective) ++effective;
    if (outcome.wire_rejected) ++wire_rejected;
    ++verdicts[outcome.verdict];
  };

  tally(fault::run_clean(prepared));
  for (u64 seed = 1; seed <= 12; ++seed) {
    tally(fault::verify_mutated(prepared, clean, InjectorKind::WireBitFlip,
                                seed));
  }
  const obs::Snapshot after = obs::registry().scrape();
  const auto delta = [&](const char* name) {
    return after.value(name) - before.value(name);
  };
  EXPECT_EQ(delta("fault.runs"), runs);
  EXPECT_EQ(delta("fault.effective"), effective);
  EXPECT_EQ(delta("fault.wire_rejected"), wire_rejected);
  EXPECT_EQ(delta("fault.verdict.accept"), verdicts[Verdict::Accept]);
  EXPECT_EQ(delta("fault.verdict.reject"), verdicts[Verdict::Reject]);
  EXPECT_EQ(delta("fault.verdict.inconclusive"),
            verdicts[Verdict::Inconclusive]);
  // The verdict classes partition the campaign: no run escapes the tally.
  EXPECT_EQ(delta("fault.verdict.accept") + delta("fault.verdict.reject") +
                delta("fault.verdict.inconclusive"),
            delta("fault.runs"));
}

// Link-level plans: the campaign's mutating injectors applied at the
// datagram layer instead of the chain level. An adversarial prover that
// substitutes a mutated report for a genuine one (every mutating kind, at
// several seeds) must never reach Accept — the verifier endpoint drops the
// forgery at the MAC door, the gap never fills, and the session dies by
// bounded give-up instead of terminal verdict.
TEST(FaultLinkPlans, MutatedReportsOverTheLinkNeverYieldAccept) {
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const CampaignOptions options;
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  ASSERT_GT(clean.reports.size(), 2u);
  const auto deployment = verify::Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry);
  verify::VerifyConfig config;
  config.expected_watermark = options.watermark_bytes;

  verify::VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  net::VerifierEndpoint endpoint(farm);

  u64 runs = 0, effective = 0;
  verify::DeviceId device = 9000;
  for (const InjectorKind kind : fault::mutating_transport_injectors()) {
    for (u64 seed = 1; seed <= 4; ++seed, ++device, ++runs) {
      fault::FaultPlan plan(seed);
      plan.add(kind);
      std::vector<cfa::SignedReport> chain = clean.reports;
      // Mutate one interior report; the rest of the chain stays genuine.
      std::vector<cfa::SignedReport> victim = {chain[1]};
      fault::apply_transport_faults(plan, victim);
      if (victim.empty() || victim.front() == chain[1]) {
        continue;  // this (kind, seed) fired nothing at the link level
      }
      chain[1] = victim.front();
      ++effective;

      farm.provision(device, deployment, config);
      farm.adopt_challenge(device, clean.chal);
      net::DuplexLink link(net::LinkModel{}, net::LinkModel{}, seed);
      // Short retry budget: the unfillable gap should give up fast.
      net::ProverOptions prover_options;
      prover_options.max_retries = 3;
      net::ProverEndpoint prover(device, 1, chain, prover_options, seed);
      const net::SessionOutcome outcome =
          run_session(prover, endpoint, link);

      const std::string label = std::string(fault::injector_name(kind)) +
                                " seed " + std::to_string(seed);
      EXPECT_NE(outcome.phase, net::ProverPhase::Done) << label;
      if (outcome.verdict.has_value()) {
        EXPECT_NE(outcome.verdict->verdict, Verdict::Accept) << label;
      }
      EXPECT_GT(endpoint.stats().mac_drops + endpoint.stats().decode_drops, 0u)
          << label;
      const auto info = endpoint.session_info(device, 1);
      ASSERT_TRUE(info.has_value()) << label;
      EXPECT_FALSE(info->terminal) << label;
    }
  }
  // The sweep must actually exercise forged deliveries.
  EXPECT_GE(effective, fault::mutating_transport_injectors().size());
  EXPECT_GE(runs, 4 * fault::mutating_transport_injectors().size());
}

}  // namespace
}  // namespace raptrack
