// Differential harness for the parallel verifier farm: over a corpus of
// fuzzed report chains (clean, transport-damaged, replayed, forged — the
// PR-1 fault-campaign injectors), the farm must produce *byte-identical*
// VerificationResults to a serial Verifier sharing the same deployment
// cache and config — under 1 worker and under 8, for both decoded and
// zero-copy wire submissions. Plus the scheduling invariants: same-device
// FIFO order (a replayed chain must lose to its original deterministically)
// and bounded-queue progress under backpressure.
//
// Runs under the `concurrency` ctest label; the tsan preset builds it with
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "verify/farm.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;
using fault::AttestedRun;
using fault::FaultPlan;
using fault::InjectorKind;
using verify::Deployment;
using verify::DeviceId;
using verify::FarmOptions;
using verify::Verdict;
using verify::VerificationResult;
using verify::VerifierFarm;
using verify::VerifyConfig;

// One fuzzed verification case: a challenge and the (possibly mutated)
// chain responding to it, against a given app's deployment.
struct Case {
  size_t app = 0;  ///< index into the fixture's deployments
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  std::string label;
};

struct Corpus {
  std::vector<std::shared_ptr<const Deployment>> deployments;
  VerifyConfig config;
  std::vector<Case> cases;
};

// Build the fuzz corpus once: for each app, the clean attested chain plus
// every transport injector at several seeds (including chains whose MACs,
// sequence numbers, challenges, H_MEMs, payloads and framing are damaged).
const Corpus& corpus() {
  static const Corpus corpus = [] {
    Corpus out;
    const fault::CampaignOptions options;  // small MTB: multi-report chains
    out.config.expected_watermark = options.watermark_bytes;

    constexpr u64 kSeedsPerKind = 8;
    for (const char* name : {"gps", "temperature"}) {
      const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
      const AttestedRun clean = fault::attest_once(prepared, options);
      EXPECT_TRUE(clean.functional_ok) << name;
      EXPECT_GT(clean.reports.size(), 2u) << name;

      const size_t app = out.deployments.size();
      out.deployments.push_back(Deployment::rap(
          prepared.rap.program, prepared.rap.manifest, prepared.built.entry));

      out.cases.push_back({app, clean.chal, clean.reports,
                           std::string(name) + "/clean"});
      for (const InjectorKind kind : fault::transport_injectors()) {
        for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
          FaultPlan plan(seed);
          plan.add(kind);
          std::vector<cfa::SignedReport> chain = clean.reports;
          if (kind == InjectorKind::WireBitFlip) {
            auto survived = fault::apply_wire_fault(plan, chain);
            if (!survived.has_value()) continue;  // framing died in transit
            chain = std::move(*survived);
          } else {
            fault::apply_transport_faults(plan, chain);
          }
          out.cases.push_back({app, clean.chal, std::move(chain),
                               std::string(name) + "/" +
                                   fault::injector_name(kind) + "/" +
                                   std::to_string(seed)});
        }
      }
    }
    return out;
  }();
  return corpus;
}

// Serial ground truth for one case: a fresh single-threaded Verifier sharing
// the same deployment cache and config the farm uses.
VerificationResult serial_verdict(const Case& c) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(corpus().deployments[c.app]);
  verifier.set_expected_watermark(corpus().config.expected_watermark);
  verifier.adopt_challenge(c.chal);
  return verifier.verify(c.chal, c.chain);
}

void expect_identical(const VerificationResult& farm,
                      const VerificationResult& serial,
                      const std::string& label) {
  EXPECT_EQ(farm.verdict, serial.verdict) << label;
  EXPECT_EQ(farm.detail, serial.detail) << label;
  EXPECT_EQ(farm.authentic, serial.authentic) << label;
  EXPECT_EQ(farm.fresh, serial.fresh) << label;
  EXPECT_EQ(farm.chain_ok, serial.chain_ok) << label;
  EXPECT_EQ(farm.memory_ok, serial.memory_ok) << label;
  EXPECT_EQ(farm.reconstruction_ok, serial.reconstruction_ok) << label;
  EXPECT_EQ(farm.policy_ok, serial.policy_ok) << label;
  EXPECT_EQ(farm.partial_reconstruction, serial.partial_reconstruction)
      << label;
  EXPECT_EQ(farm.gaps, serial.gaps) << label;
  EXPECT_EQ(farm.chain_notes, serial.chain_notes) << label;
  EXPECT_EQ(farm.replay.complete, serial.replay.complete) << label;
  EXPECT_EQ(farm.replay.failure, serial.replay.failure) << label;
  ASSERT_EQ(farm.replay.events.size(), serial.replay.events.size()) << label;
  for (size_t i = 0; i < farm.replay.events.size(); ++i) {
    EXPECT_TRUE(farm.replay.events[i] == serial.replay.events[i])
        << label << " event " << i;
  }
  ASSERT_EQ(farm.replay.findings.size(), serial.replay.findings.size())
      << label;
  for (size_t i = 0; i < farm.replay.findings.size(); ++i) {
    EXPECT_EQ(farm.replay.findings[i].description,
              serial.replay.findings[i].description)
        << label << " finding " << i;
  }
  EXPECT_TRUE(farm.inputs.packets == serial.inputs.packets) << label;
  EXPECT_EQ(farm.inputs.loop_values, serial.inputs.loop_values) << label;
}

class FarmDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(FarmDifferential, MatchesSerialOnFuzzedChains) {
  const Corpus& fuzz = corpus();
  ASSERT_GE(fuzz.cases.size(), 200u)
      << "corpus shrank below the differential coverage floor";

  VerifierFarm farm(apps::demo_key(), {.workers = GetParam(), .clamp_workers = false});
  // One device per (case, submission path): challenge histories must not
  // interfere, exactly as distinct provers' sessions don't.
  std::vector<std::future<VerificationResult>> decoded;
  std::vector<std::future<VerificationResult>> wire;
  for (size_t i = 0; i < fuzz.cases.size(); ++i) {
    const Case& c = fuzz.cases[i];
    const DeviceId dev_decoded = 2 * i;
    const DeviceId dev_wire = 2 * i + 1;
    for (const DeviceId device : {dev_decoded, dev_wire}) {
      farm.provision(device, fuzz.deployments[c.app], fuzz.config);
      farm.adopt_challenge(device, c.chal);
    }
    decoded.push_back(farm.submit(dev_decoded, c.chal, c.chain));
    wire.push_back(
        farm.submit_wire(dev_wire, c.chal, cfa::encode_report_chain(c.chain)));
  }
  farm.drain();

  size_t accepts = 0, rejects = 0, inconclusives = 0;
  for (size_t i = 0; i < fuzz.cases.size(); ++i) {
    const Case& c = fuzz.cases[i];
    const VerificationResult serial = serial_verdict(c);
    switch (serial.verdict) {
      case Verdict::Accept: ++accepts; break;
      case Verdict::Reject: ++rejects; break;
      case Verdict::Inconclusive: ++inconclusives; break;
    }
    expect_identical(decoded[i].get(), serial, c.label + " [decoded]");
    expect_identical(wire[i].get(), serial, c.label + " [wire]");
  }
  // The corpus must actually exercise the whole verdict taxonomy.
  EXPECT_GT(accepts, 0u);
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(inconclusives, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, FarmDifferential, ::testing::Values(1, 8),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(FarmScheduling, SameDeviceChainsSerializeInSubmissionOrder) {
  const Corpus& fuzz = corpus();
  const Case& clean = fuzz.cases.front();
  ASSERT_EQ(clean.label, "gps/clean");

  VerifierFarm farm(apps::demo_key(), {.workers = 8, .clamp_workers = false});
  // For every device: the original chain, then the same chain replayed.
  // Same-device FIFO guarantees the original always wins the challenge and
  // the replay always rejects — any ordering race would flip verdicts.
  constexpr size_t kDevices = 64;
  std::vector<std::future<VerificationResult>> first, second;
  for (DeviceId device = 0; device < kDevices; ++device) {
    farm.provision(device, fuzz.deployments[clean.app], fuzz.config);
    farm.adopt_challenge(device, clean.chal);
    first.push_back(farm.submit(device, clean.chal, clean.chain));
    second.push_back(farm.submit(device, clean.chal, clean.chain));
  }
  for (size_t i = 0; i < kDevices; ++i) {
    EXPECT_EQ(first[i].get().verdict, Verdict::Accept) << i;
    const VerificationResult replayed = second[i].get();
    EXPECT_EQ(replayed.verdict, Verdict::Reject) << i;
    EXPECT_EQ(replayed.detail, "challenge not outstanding (replay?)") << i;
  }
}

TEST(FarmScheduling, BackpressureBoundsTheQueueWithoutDeadlock) {
  const Corpus& fuzz = corpus();
  const Case& clean = fuzz.cases.front();

  // Tiny admission window: submit blocks until workers free capacity, and
  // every job must still complete.
  VerifierFarm farm(apps::demo_key(),
                    {.workers = 2, .clamp_workers = false, .queue_capacity = 2});
  constexpr size_t kJobs = 32;
  std::vector<std::future<VerificationResult>> results;
  for (size_t i = 0; i < kJobs; ++i) {
    const DeviceId device = i;
    farm.provision(device, fuzz.deployments[clean.app], fuzz.config);
    farm.adopt_challenge(device, clean.chal);
    results.push_back(farm.submit(device, clean.chal, clean.chain));
  }
  for (auto& result : results) {
    EXPECT_EQ(result.get().verdict, Verdict::Accept);
  }
}

TEST(FarmScheduling, UnknownDeviceRejectsWithoutCrashing) {
  // Inputs: a plain farm, and a quarantining farm whose delivery layer has
  // penalized the unknown id past the strike threshold (the id a datagram
  // carries is attacker-chosen, so penalize must not provision it).
  for (const bool penalized : {false, true}) {
    SCOPED_TRACE(penalized ? "penalized past threshold" : "plain");
    FarmOptions options{.workers = 2, .clamp_workers = false};
    options.quarantine.enabled = penalized;
    VerifierFarm farm(apps::demo_key(), options);
    if (penalized) {
      farm.penalize(/*device=*/99, options.quarantine.strike_threshold + 1);
    }
    EXPECT_EQ(farm.breaker_state(99), VerifierFarm::Breaker::Closed);
    const VerificationResult result =
        farm.submit(/*device=*/99, cfa::Challenge{}, {}).get();
    EXPECT_EQ(result.verdict, Verdict::Reject);
    EXPECT_EQ(result.detail, "unknown device");
  }
}

TEST(FarmScheduling, WireFramingErrorsRejectWithParserDetail) {
  const Corpus& fuzz = corpus();
  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  farm.provision(0, fuzz.deployments[0], fuzz.config);
  const VerificationResult result =
      farm.submit_wire(0, cfa::Challenge{}, {'X', 'X', 'X', 'X'}).get();
  EXPECT_EQ(result.verdict, Verdict::Reject);
  EXPECT_EQ(result.detail, "chain framing: bad magic");
}

// -- observability: farm counters must reconcile with the FIFO scenario ------

TEST(FarmMetricsInvariants, CountersReconcileWithFifoScenario) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const Corpus& fuzz = corpus();
  const Case& clean = fuzz.cases.front();
  ASSERT_EQ(clean.label, "gps/clean");

  const obs::Snapshot before = obs::registry().scrape();
  {
    VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false, .queue_capacity = 4});
    constexpr size_t kJobs = 16;
    std::vector<std::future<VerificationResult>> results;
    for (size_t i = 0; i < kJobs; ++i) {
      const DeviceId device = i;
      farm.provision(device, fuzz.deployments[clean.app], fuzz.config);
      farm.adopt_challenge(device, clean.chal);
      results.push_back(farm.submit(device, clean.chal, clean.chain));
    }
    // One wire chain with a tampered MAC (caught by the batched HMAC check)
    // and one with broken framing (caught by the zero-copy parser).
    const DeviceId tampered_dev = 100;
    farm.provision(tampered_dev, fuzz.deployments[clean.app], fuzz.config);
    farm.adopt_challenge(tampered_dev, clean.chal);
    std::vector<cfa::SignedReport> tampered = clean.chain;
    tampered.front().mac[0] ^= 0x01;
    auto bad_mac = farm.submit_wire(tampered_dev, clean.chal,
                                    cfa::encode_report_chain(tampered));
    const DeviceId garbled_dev = 101;  // provisioned, so admission parses it
    farm.provision(garbled_dev, fuzz.deployments[clean.app], fuzz.config);
    auto bad_frame = farm.submit_wire(garbled_dev, cfa::Challenge{},
                                      {'X', 'X', 'X', 'X'});
    for (auto& result : results) {
      EXPECT_EQ(result.get().verdict, Verdict::Accept);
    }
    EXPECT_EQ(bad_mac.get().verdict, Verdict::Reject);
    EXPECT_EQ(bad_frame.get().verdict, Verdict::Reject);
  }
  const obs::Snapshot after = obs::registry().scrape();
  const auto delta = [&](const char* name) {
    return after.value(name) - before.value(name);
  };
  EXPECT_EQ(delta("farm.jobs_submitted"), 18u);
  EXPECT_EQ(delta("farm.jobs_completed"), 18u);
  EXPECT_EQ(delta("farm.wire_parse_rejects"), 1u);
  EXPECT_EQ(delta("farm.hmac_batch_rejects"), 1u);
  // Every dequeued job records exactly one mailbox-wait observation. (The
  // histogram may be unregistered in the `before` snapshot if this test runs
  // first, so treat a missing sample as zero.)
  const auto wait_count = [](const obs::Snapshot& snap) {
    const obs::Sample* sample = snap.find("farm.mailbox_wait_us");
    return sample != nullptr ? sample->count : 0u;
  };
  EXPECT_EQ(wait_count(after) - wait_count(before), 18u);
  // The high-water mark is a lifetime max: it only ratchets up, and this
  // scenario pushes at least one job through the bounded queue.
  EXPECT_GE(after.value("farm.queue_depth_hwm"), 1u);
  EXPECT_GE(after.value("farm.queue_depth_hwm"),
            before.value("farm.queue_depth_hwm"));
}

// Fault-injected regression for worker panic containment: an exception
// escaping the verification path must yield Inconclusive for that job —
// with the worker thread surviving to serve its mailbox — not a dead
// worker and a hung future. The farm's fault hook stands in for a bug in
// verify_report_chain (the hook runs inside the worker's execute path).
TEST(FarmRobustness, WorkerPanicIsContainedAndTheWorkerSurvives) {
  const Corpus& fuzz = corpus();
  const Case& clean = fuzz.cases.front();
  ASSERT_EQ(clean.label, "gps/clean");

  constexpr DeviceId kFaulty = 7;
  std::atomic<int> detonations{0};
  FarmOptions options;
  options.workers = 2;
  options.clamp_workers = false;
  options.fault_hook = [&](DeviceId device) {
    if (device == kFaulty && detonations.fetch_add(1) == 0) {
      throw std::runtime_error("injected worker fault");
    }
  };
  VerifierFarm farm(apps::demo_key(), options);

  for (const DeviceId device : {kFaulty, DeviceId{8}}) {
    farm.provision(device, fuzz.deployments[clean.app], fuzz.config);
    farm.adopt_challenge(device, clean.chal);
  }
  // First submission on the faulty device detonates inside the worker.
  const VerificationResult contained =
      farm.submit(kFaulty, clean.chal, clean.chain).get();
  EXPECT_EQ(contained.verdict, Verdict::Inconclusive);
  EXPECT_EQ(contained.detail.rfind("verifier exception contained", 0), 0u)
      << contained.detail;
  EXPECT_EQ(detonations.load(), 1);

  // The panic consumed nothing: the challenge is still outstanding, and the
  // same worker pool (no respawn machinery exists) verifies the retry and
  // an unrelated device's chain to Accept.
  EXPECT_EQ(farm.submit(kFaulty, clean.chal, clean.chain).get().verdict,
            Verdict::Accept);
  EXPECT_EQ(farm.submit(8, clean.chal, clean.chain).get().verdict,
            Verdict::Accept);
}

}  // namespace
}  // namespace raptrack
