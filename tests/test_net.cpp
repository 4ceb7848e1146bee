// Lossy-link delivery suite: datagram codec hostility, link determinism,
// the ARQ session protocol end to end (clean link, 25% loss with
// reordering and duplication, NACK gap repair), the farm-side quarantine
// breaker and flood accounting, and verifier crash recovery via
// snapshot/restore.
//
// Every lossy scenario is seeded; failing assertions print the seed, and
// re-running with it reproduces the exact datagram schedule (no wall clock
// or unseeded randomness anywhere in src/net).
//
// Runs under the `concurrency` and `soak` ctest labels; the tsan preset
// builds it with ThreadSanitizer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/crc32.hpp"
#include "fault/campaign.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "verify/farm.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;
using fault::AttestedRun;
using net::Datagram;
using net::DatagramKind;
using net::DuplexLink;
using net::LinkModel;
using net::LossyLink;
using net::ProverEndpoint;
using net::ProverPhase;
using net::SeqRange;
using net::SessionOutcome;
using net::VerdictMessage;
using net::VerifierEndpoint;
using verify::Deployment;
using verify::DeviceId;
using verify::FarmOptions;
using verify::Verdict;
using verify::VerifierFarm;
using verify::VerifyConfig;

// One clean attested run shared by every session test (the prover side of
// the protocol is the same signed chain each time; only the link differs).
struct Fixture {
  PreparedApp prepared;
  AttestedRun clean;
  std::shared_ptr<const Deployment> deployment;
  VerifyConfig config;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture out{apps::prepare_app(apps::app_by_name("gps")), {}, nullptr, {}};
    const fault::CampaignOptions options;  // small MTB: multi-report chains
    out.clean = fault::attest_once(out.prepared, options);
    EXPECT_TRUE(out.clean.functional_ok);
    EXPECT_GT(out.clean.reports.size(), 2u);
    out.deployment = Deployment::rap(out.prepared.rap.program,
                                     out.prepared.rap.manifest,
                                     out.prepared.built.entry);
    out.config.expected_watermark = options.watermark_bytes;
    return out;
  }();
  return fx;
}

void provision(VerifierFarm& farm, DeviceId device) {
  farm.provision(device, fixture().deployment, fixture().config);
  farm.adopt_challenge(device, fixture().clean.chal);
}

// Drive one full session of the fixture chain over `link`.
SessionOutcome run_fixture_session(VerifierFarm& farm,
                                   VerifierEndpoint& endpoint, DeviceId device,
                                   u64 session_id, DuplexLink& link, u64 seed,
                                   net::ProverOptions prover_options = {}) {
  provision(farm, device);
  ProverEndpoint prover(device, session_id, fixture().clean.reports,
                        prover_options, seed);
  return run_session(prover, endpoint, link);
}

/// The lossless ground-truth digest every lossy run must reproduce.
const crypto::Digest& lossless_digest() {
  static const crypto::Digest digest = [] {
    VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
    VerifierEndpoint endpoint(farm);
    DuplexLink link(LinkModel{}, LinkModel{}, /*seed=*/1);
    const SessionOutcome outcome =
        run_fixture_session(farm, endpoint, /*device=*/1, /*session=*/1, link,
                            /*seed=*/1);
    EXPECT_EQ(outcome.phase, ProverPhase::Done);
    EXPECT_TRUE(outcome.verdict.has_value());
    EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept);
    return outcome.verdict->digest;
  }();
  return digest;
}

// -- wire format -------------------------------------------------------------

TEST(NetWire, DatagramRoundTripsAllKinds) {
  for (const DatagramKind kind :
       {DatagramKind::Data, DatagramKind::Ack, DatagramKind::Verdict}) {
    Datagram dgram;
    dgram.kind = kind;
    dgram.device = 0x1122334455667788ull;
    dgram.session = 42;
    dgram.seq = 7;
    dgram.payload = {0xde, 0xad, 0xbe, 0xef};
    const auto frame = net::encode_datagram(dgram);
    const auto decoded = net::try_decode_datagram(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->device, dgram.device);
    EXPECT_EQ(decoded->session, dgram.session);
    EXPECT_EQ(decoded->seq, dgram.seq);
    EXPECT_EQ(decoded->payload, dgram.payload);
  }
}

TEST(NetWire, EveryBitFlipIsCaughtByTheCrc) {
  Datagram dgram;
  dgram.kind = DatagramKind::Data;
  dgram.device = 9;
  dgram.session = 9;
  dgram.seq = 3;
  dgram.payload = {1, 2, 3, 4, 5};
  const auto frame = net::encode_datagram(dgram);
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto damaged = frame;
    damaged[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    EXPECT_FALSE(net::try_decode_datagram(damaged).ok()) << "bit " << bit;
  }
  // Truncation at any prefix length dies too.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        net::try_decode_datagram(std::span(frame.data(), len)).ok())
        << "len " << len;
  }
}

TEST(NetWire, NackRangesRoundTripAndRejectForgedCounts) {
  const std::vector<SeqRange> ranges = {{0, 3}, {7, 1}, {100, 42}};
  const auto payload = net::encode_nack_ranges(ranges);
  const auto decoded = net::try_decode_nack_ranges(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(*decoded, ranges);

  // A forged count larger than the payload could carry must not allocate.
  std::vector<u8> forged = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(net::try_decode_nack_ranges(forged).ok());
}

TEST(NetWire, VerdictMessageRoundTrips) {
  VerdictMessage message;
  message.verdict = Verdict::Inconclusive;
  message.digest.fill(0xab);
  message.detail = "chain gap (seq 3)";
  const auto payload = net::encode_verdict(message);
  const auto decoded = net::try_decode_verdict(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_TRUE(*decoded == message);

  std::vector<u8> bad = payload;
  bad[0] = 0x7f;  // unknown verdict discriminant
  EXPECT_FALSE(net::try_decode_verdict(bad).ok());
}

// -- link model --------------------------------------------------------------

TEST(NetLink, SameSeedSameSchedule) {
  const LinkModel model = LinkModel::lossy(300);
  std::vector<std::vector<u8>> frames;
  for (u8 i = 0; i < 50; ++i) frames.push_back({i, u8(i + 1), u8(i + 2)});

  const auto play = [&](u64 seed) {
    LossyLink link(model, seed);
    std::vector<std::vector<u8>> delivered;
    for (u64 tick = 0; tick < 200; ++tick) {
      if (tick < frames.size()) link.send(tick, frames[tick]);
      for (auto& frame : link.deliver_due(tick)) {
        delivered.push_back(std::move(frame));
      }
    }
    return std::pair{delivered, link.stats()};
  };

  const auto [a, stats_a] = play(0xfeed);
  const auto [b, stats_b] = play(0xfeed);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.reordered, stats_b.reordered);

  // A different seed must actually change the schedule (the model is lossy
  // enough that identical delivery would mean the seed is ignored).
  const auto [c, stats_c] = play(0xbeef);
  EXPECT_NE(a, c);
}

TEST(NetLink, LossyModelActuallyDropsDuplicatesAndReorders) {
  LossyLink link(LinkModel::lossy(400), /*seed=*/7);
  for (u64 tick = 0; tick < 2000; ++tick) {
    link.send(tick, {1, 2, 3, 4});
    link.deliver_due(tick);
  }
  const auto& stats = link.stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
  EXPECT_EQ(stats.sent, 2000u);
}

// -- session protocol --------------------------------------------------------

TEST(NetSession, CleanLinkAcceptsFirstTry) {
  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  VerifierEndpoint endpoint(farm);
  DuplexLink link(LinkModel{}, LinkModel{}, /*seed=*/2);
  const SessionOutcome outcome = run_fixture_session(
      farm, endpoint, /*device=*/10, /*session=*/1, link, /*seed=*/2);

  ASSERT_EQ(outcome.phase, ProverPhase::Done);
  ASSERT_TRUE(outcome.verdict.has_value());
  EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept);
  EXPECT_EQ(outcome.verdict->digest, lossless_digest());
  EXPECT_EQ(endpoint.stats().repair_rounds, 0u);
  EXPECT_EQ(endpoint.stats().mac_drops, 0u);

  const auto info = endpoint.session_info(10, 1);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->terminal);
  EXPECT_TRUE(info->open_gaps.empty());
}

// The PR's acceptance scenario: 25% datagram loss with reordering and
// duplication on both directions still converges to Accept with zero chain
// gaps, and the terminal digest is byte-identical to the lossless run.
TEST(NetSession, TwentyFivePercentLossConvergesToAccept) {
  constexpr u64 kSeed = 0xc0ffee;
  SCOPED_TRACE("replay seed: 0xc0ffee");
  const LinkModel lossy = LinkModel::lossy(250);

  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  VerifierEndpoint endpoint(farm);
  DuplexLink link(lossy, lossy, kSeed);
  const SessionOutcome outcome = run_fixture_session(
      farm, endpoint, /*device=*/20, /*session=*/1, link, kSeed);

  ASSERT_EQ(outcome.phase, ProverPhase::Done) << "seed=" << kSeed;
  ASSERT_TRUE(outcome.verdict.has_value());
  EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept) << "seed=" << kSeed;
  EXPECT_EQ(outcome.verdict->digest, lossless_digest()) << "seed=" << kSeed;

  const auto info = endpoint.session_info(20, 1);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->terminal);
  EXPECT_TRUE(info->open_gaps.empty());

  // The link must actually have been hostile for this to mean anything.
  EXPECT_GT(link.to_verifier_stats().dropped +
                link.to_prover_stats().dropped,
            0u)
      << "seed=" << kSeed;
}

// Deterministic gap-repair: deliver the chain with one interior report
// withheld. The first submission is Inconclusive with exactly that gap,
// the ACK carries it as a selective NACK, and supplying the missing report
// converts the verdict to Accept — the repair path in isolation.
TEST(NetSession, NackRepairConvertsInconclusiveToAccept) {
  const auto& chain = fixture().clean.reports;
  ASSERT_GT(chain.size(), 2u);
  const size_t withheld = 1;

  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  provision(farm, /*device=*/30);
  VerifierEndpoint endpoint(farm);
  // A fixed one-tick delay delivers frames in send order, so the final
  // report lands after every interior one whatever the chain length.
  DuplexLink link(LinkModel{.delay_max_ticks = 1}, LinkModel{}, /*seed=*/3);

  const auto send_report = [&](const cfa::SignedReport& report) {
    Datagram dgram;
    dgram.kind = DatagramKind::Data;
    dgram.device = 30;
    dgram.session = 1;
    dgram.seq = report.sequence;
    dgram.payload = cfa::encode_report(report);
    link.send_to_verifier(net::encode_datagram(dgram));
  };

  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != withheld) send_report(chain[i]);
  }
  for (int tick = 0; tick < 16; ++tick) {
    endpoint.on_tick(link);
    link.advance();
  }
  // Final present, interior missing: one Inconclusive submission, NACKed.
  EXPECT_EQ(endpoint.stats().submissions, 1u);
  EXPECT_EQ(endpoint.stats().repair_rounds, 1u);
  EXPECT_GE(endpoint.stats().nack_ranges_sent, 1u);
  auto info = endpoint.session_info(30, 1);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->terminal);
  ASSERT_EQ(info->open_gaps.size(), 1u);
  EXPECT_EQ(info->open_gaps[0].first, chain[withheld].sequence);
  EXPECT_EQ(info->open_gaps[0].count, 1u);

  // Repair: the withheld report arrives; the resubmission accepts.
  send_report(chain[withheld]);
  for (int tick = 0; tick < 16; ++tick) {
    endpoint.on_tick(link);
    link.advance();
  }
  info = endpoint.session_info(30, 1);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->terminal);
  EXPECT_EQ(info->verdict.verdict, Verdict::Accept);
  EXPECT_EQ(info->verdict.digest, lossless_digest());
  EXPECT_TRUE(info->open_gaps.empty());
}

// The prover side of the same story: NACK-triggered retransmits are counted
// and a lossy-but-alive session still terminates.
TEST(NetSession, ProverRetransmitsUnderLoss) {
  constexpr u64 kSeed = 0x5eed5;
  const LinkModel lossy = LinkModel::lossy(300);
  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  VerifierEndpoint endpoint(farm);
  provision(farm, /*device=*/40);
  DuplexLink link(lossy, lossy, kSeed);
  ProverEndpoint prover(40, 1, fixture().clean.reports, {}, kSeed);
  const SessionOutcome outcome = run_session(prover, endpoint, link);

  ASSERT_EQ(outcome.phase, ProverPhase::Done) << "seed=" << kSeed;
  EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept) << "seed=" << kSeed;
  EXPECT_GT(prover.stats().retransmits_timeout + prover.stats().retransmits_nack,
            0u)
      << "seed=" << kSeed;
  EXPECT_GT(prover.stats().acks_received, 0u);
}

// A dead link (100% loss) exhausts the retry budget: bounded give-up, no
// spinning forever.
TEST(NetSession, DeadLinkGivesUpWithinBudget) {
  LinkModel dead;
  dead.drop_permille = 1000;
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  VerifierEndpoint endpoint(farm);
  DuplexLink link(dead, dead, /*seed=*/4);
  const SessionOutcome outcome = run_fixture_session(
      farm, endpoint, /*device=*/50, /*session=*/1, link, /*seed=*/4);
  EXPECT_EQ(outcome.phase, ProverPhase::GaveUp);
  EXPECT_FALSE(outcome.verdict.has_value());
  EXPECT_LT(outcome.ticks, 100'000u);
}

// -- tampering, quarantine, flood --------------------------------------------

// An in-path adversary mutating datagrams (valid CRC, forged report) never
// corrupts the outcome: forged frames die at the MAC door, strikes accrue,
// and the genuine retransmissions still converge to the lossless digest.
TEST(NetSession, InPathTamperingDiesAtTheMacDoorAndStillAccepts) {
  constexpr u64 kSeed = 0x7a3b;
  LinkModel hostile;
  hostile.tamper_permille = 200;
  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  VerifierEndpoint endpoint(farm);
  DuplexLink link(hostile, LinkModel{}, kSeed);
  const SessionOutcome outcome = run_fixture_session(
      farm, endpoint, /*device=*/60, /*session=*/1, link, kSeed);

  ASSERT_EQ(outcome.phase, ProverPhase::Done) << "seed=" << kSeed;
  EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept) << "seed=" << kSeed;
  EXPECT_EQ(outcome.verdict->digest, lossless_digest()) << "seed=" << kSeed;
  EXPECT_GT(link.to_verifier_stats().tampered, 0u) << "seed=" << kSeed;
  EXPECT_GT(endpoint.stats().mac_drops, 0u) << "seed=" << kSeed;
}

TEST(NetQuarantine, RepeatedForgeryOpensTheBreakerThenProbeReadmits) {
  FarmOptions options;
  options.workers = 1;
  options.quarantine.enabled = true;
  options.quarantine.strike_threshold = 3;
  options.quarantine.cooldown = 2;
  VerifierFarm farm(apps::demo_key(), options);
  provision(farm, /*device=*/70);

  // Forge: flip a MAC byte on every report of the clean chain.
  auto forged = fixture().clean.reports;
  for (auto& report : forged) report.mac[0] ^= 0xff;

  // Strike up to the threshold: each forged chain is a MAC-forgery reject.
  for (u32 i = 0; i < options.quarantine.strike_threshold; ++i) {
    const auto result = farm.submit(70, fixture().clean.chal, forged).get();
    EXPECT_EQ(result.verdict, Verdict::Reject);
    EXPECT_FALSE(result.authentic);
  }
  farm.drain();
  EXPECT_EQ(farm.breaker_state(70), VerifierFarm::Breaker::Open);

  // While open, the door rejects without running the verifier core.
  auto rejected = farm.submit(70, fixture().clean.chal,
                              fixture().clean.reports).get();
  EXPECT_EQ(rejected.verdict, Verdict::Reject);
  EXPECT_EQ(rejected.detail.rfind("device quarantined", 0), 0u)
      << rejected.detail;
  // That rejection consumed one cooldown unit; one more exhausts it.
  rejected = farm.submit(70, fixture().clean.chal, forged).get();
  EXPECT_EQ(rejected.detail.rfind("device quarantined", 0), 0u);

  // Cooldown spent: the next submission is admitted as the half-open probe
  // and, being clean, closes the breaker with an Accept.
  const auto probe = farm.submit(70, fixture().clean.chal,
                                 fixture().clean.reports).get();
  EXPECT_EQ(probe.verdict, Verdict::Accept) << probe.detail;
  farm.drain();
  EXPECT_EQ(farm.breaker_state(70), VerifierFarm::Breaker::Closed);
}

TEST(NetQuarantine, FailedProbeReopensWithLongerCooldown) {
  FarmOptions options;
  options.workers = 1;
  options.quarantine.enabled = true;
  options.quarantine.strike_threshold = 1;
  options.quarantine.cooldown = 1;
  options.quarantine.backoff_cap = 8;
  VerifierFarm farm(apps::demo_key(), options);
  provision(farm, /*device=*/71);

  auto forged = fixture().clean.reports;
  for (auto& report : forged) report.mac[0] ^= 0xff;

  farm.submit(71, fixture().clean.chal, forged).get();  // strike -> open
  farm.drain();
  ASSERT_EQ(farm.breaker_state(71), VerifierFarm::Breaker::Open);
  farm.submit(71, fixture().clean.chal, forged).get();  // burns cooldown
  // Probe admitted — but it is another forgery: reopen, doubled cooldown.
  farm.submit(71, fixture().clean.chal, forged).get();
  farm.drain();
  EXPECT_EQ(farm.breaker_state(71), VerifierFarm::Breaker::Open);
  // Doubled cooldown: two door rejects before the next probe is admitted.
  for (int i = 0; i < 2; ++i) {
    const auto r = farm.submit(71, fixture().clean.chal,
                               fixture().clean.reports).get();
    EXPECT_EQ(r.detail.rfind("device quarantined", 0), 0u) << r.detail;
  }
  const auto probe = farm.submit(71, fixture().clean.chal,
                                 fixture().clean.reports).get();
  EXPECT_EQ(probe.verdict, Verdict::Accept) << probe.detail;
}

TEST(NetSession, FloodBudgetStrikesTheDevice) {
  FarmOptions farm_options;
  farm_options.workers = 1;
  farm_options.quarantine.enabled = true;
  farm_options.quarantine.strike_threshold = 3;
  VerifierFarm farm(apps::demo_key(), farm_options);
  provision(farm, /*device=*/80);

  net::VerifierOptions options;
  options.flood_datagram_budget = 4;
  VerifierEndpoint endpoint(farm, options);
  DuplexLink link(LinkModel{}, LinkModel{}, /*seed=*/5);

  // Blast one report far past the budget.
  Datagram dgram;
  dgram.kind = DatagramKind::Data;
  dgram.device = 80;
  dgram.session = 1;
  dgram.seq = fixture().clean.reports[0].sequence;
  dgram.payload = cfa::encode_report(fixture().clean.reports[0]);
  const auto frame = net::encode_datagram(dgram);
  for (int i = 0; i < 16; ++i) {
    link.send_to_verifier(frame);
    endpoint.on_tick(link);
    link.advance();
  }
  for (int i = 0; i < 8; ++i) {
    endpoint.on_tick(link);
    link.advance();
  }
  EXPECT_GT(endpoint.stats().flood_strikes, 0u);
  EXPECT_EQ(farm.breaker_state(80), VerifierFarm::Breaker::Open);
}

// A CRC-valid datagram that fails the door (undecodable report, or a forged
// MAC) must not leave a session behind: otherwise every invented session id
// grows the endpoint, and its snapshots, for good.
TEST(NetSession, ForgedDatagramsUnderFreshSessionIdsLeaveNoState) {
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  provision(farm, /*device=*/85);
  VerifierEndpoint endpoint(farm);
  const std::vector<u8> empty_snapshot = endpoint.snapshot();
  DuplexLink link(LinkModel{}, LinkModel{}, /*seed=*/6);

  cfa::SignedReport forged = fixture().clean.reports[0];
  forged.mac[0] ^= 0xff;
  constexpr u64 kSessions = 32;
  for (u64 session = 1; session <= kSessions; ++session) {
    Datagram dgram;
    dgram.kind = DatagramKind::Data;
    dgram.device = 85;
    dgram.session = session;
    dgram.seq = forged.sequence;
    // Alternate the two door failures: forged MAC, garbage report bytes.
    dgram.payload = session % 2 == 0 ? cfa::encode_report(forged)
                                     : std::vector<u8>{'R', 'P', 'T', '?'};
    link.send_to_verifier(net::encode_datagram(dgram));
  }
  for (int i = 0; i < 4; ++i) {
    endpoint.on_tick(link);
    link.advance();
  }
  EXPECT_EQ(endpoint.stats().mac_drops, kSessions / 2);
  EXPECT_EQ(endpoint.stats().decode_drops, kSessions / 2);
  for (u64 session = 1; session <= kSessions; ++session) {
    EXPECT_FALSE(endpoint.session_info(85, session).has_value())
        << "session " << session;
  }
  EXPECT_EQ(endpoint.snapshot(), empty_snapshot);
}

// -- crash recovery ----------------------------------------------------------

TEST(NetRecovery, SessionStoreSerializeRoundTrips) {
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  provision(farm, /*device=*/90);
  provision(farm, /*device=*/91);
  const auto blob = farm.sessions().serialize();

  VerifierFarm fresh(apps::demo_key(), {.workers = 1});
  ASSERT_TRUE(fresh.sessions().deserialize(blob));
  EXPECT_EQ(fresh.sessions().serialize(), blob);

  // Corruption and truncation are all-or-nothing rejected.
  auto damaged = blob;
  damaged[damaged.size() / 2] ^= 0x01;
  EXPECT_FALSE(fresh.sessions().deserialize(damaged));
  EXPECT_FALSE(fresh.sessions().deserialize(
      std::span(blob.data(), blob.size() - 1)));
  // The failed loads left the previously-restored state intact.
  EXPECT_EQ(fresh.sessions().serialize(), blob);
}

// Nothing may follow the SST1 crc trailer, including bytes that look like
// the memo-cache section older snapshots appended there.
TEST(NetRecovery, SessionStoreRefusesAMemSectionTail) {
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  provision(farm, /*device=*/92);
  const auto blob = farm.sessions().serialize();

  std::vector<u8> tailed = blob;
  const std::vector<u8> mem_header = {'M', 'E', 'M', '1', 3, 0, 0, 0};
  tailed.insert(tailed.end(), mem_header.begin(), mem_header.end());
  VerifierFarm fresh(apps::demo_key(), {.workers = 1});
  EXPECT_FALSE(fresh.sessions().deserialize(tailed));
  EXPECT_EQ(fresh.sessions().outstanding_count(92), 0u) << "half-loaded";
  EXPECT_TRUE(fresh.sessions().deserialize(blob));
  EXPECT_EQ(fresh.sessions().outstanding_count(92), 1u);
}

// The acceptance scenario: kill the verifier mid-session, restore a fresh
// farm + endpoint from the snapshot, and finish to the same terminal
// verdict digest the uninterrupted run reaches.
TEST(NetRecovery, SnapshotRestoreMidSessionResumesToSameDigest) {
  constexpr u64 kSeed = 0xabcdef;
  SCOPED_TRACE("replay seed: 0xabcdef");
  const LinkModel lossy = LinkModel::lossy(250);

  // Uninterrupted baseline.
  crypto::Digest baseline;
  {
    VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
    VerifierEndpoint endpoint(farm);
    DuplexLink link(lossy, lossy, kSeed);
    const SessionOutcome outcome = run_fixture_session(
        farm, endpoint, /*device=*/100, /*session=*/1, link, kSeed);
    ASSERT_EQ(outcome.phase, ProverPhase::Done) << "seed=" << kSeed;
    ASSERT_EQ(outcome.verdict->verdict, Verdict::Accept) << "seed=" << kSeed;
    baseline = outcome.verdict->digest;
  }

  // Same seeds, but the verifier crashes mid-flight.
  VerifierFarm farm(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  provision(farm, /*device=*/100);
  auto endpoint = std::make_unique<VerifierEndpoint>(farm);
  DuplexLink link(lossy, lossy, kSeed);
  ProverEndpoint prover(100, 1, fixture().clean.reports, {}, kSeed);

  constexpr u64 kCrashTick = 40;
  for (u64 tick = 0; tick < kCrashTick; ++tick) {
    prover.on_tick(link);
    endpoint->on_tick(link);
    link.advance();
  }
  ASSERT_EQ(prover.phase(), ProverPhase::Sending)
      << "crashed after the session already finished; lower kCrashTick";
  const std::vector<u8> snapshot = endpoint->snapshot();

  // Crash: endpoint and farm die. A new farm re-provisions its deployments
  // (not part of the snapshot), then restores challenge + session state.
  endpoint.reset();
  VerifierFarm recovered(apps::demo_key(), {.workers = 2, .clamp_workers = false});
  recovered.provision(100, fixture().deployment, fixture().config);
  VerifierEndpoint restored(recovered);
  ASSERT_TRUE(restored.restore(snapshot));

  // The prover never noticed; its ARQ rides out the dead window.
  const SessionOutcome outcome = run_session(prover, restored, link);
  ASSERT_EQ(outcome.phase, ProverPhase::Done) << "seed=" << kSeed;
  ASSERT_TRUE(outcome.verdict.has_value());
  EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept) << "seed=" << kSeed;
  EXPECT_EQ(outcome.verdict->digest, baseline) << "seed=" << kSeed;
}

TEST(NetRecovery, SnapshotRejectsCorruptionTruncationAndBadMagic) {
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  provision(farm, /*device=*/110);
  VerifierEndpoint endpoint(farm);
  const auto blob = endpoint.snapshot();
  ASSERT_GT(blob.size(), 12u);

  for (size_t i = 0; i < blob.size(); ++i) {
    auto damaged = blob;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(endpoint.restore(damaged)) << "byte " << i;
  }
  EXPECT_FALSE(endpoint.restore(std::span(blob.data(), blob.size() - 1)));
  EXPECT_FALSE(endpoint.restore({}));
  // The original blob still loads after all the failed attempts.
  EXPECT_TRUE(endpoint.restore(blob));
}

// Only the version restore() writes is accepted. A v2 snapshot (the layout
// that appended per-deployment memo sections) is refused whole even with a
// valid CRC; the same fields stamped v3, without that section, restore.
TEST(NetRecovery, SnapshotRefusesVersionTwoEvenWithValidCrc) {
  VerifierFarm farm(apps::demo_key(), {.workers = 1});
  VerifierEndpoint endpoint(farm);
  const std::vector<u8> store = farm.sessions().serialize();
  const auto put_u32 = [](std::vector<u8>& out, u32 value) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<u8>(value >> (8 * i)));
    }
  };
  // "VSS1" | version | len-prefixed SST1 | session count [| section count]
  // | crc32 over everything before it.
  const auto build = [&](u32 version, bool memo_sections) {
    std::vector<u8> out = {'V', 'S', 'S', '1'};
    put_u32(out, version);
    put_u32(out, static_cast<u32>(store.size()));
    out.insert(out.end(), store.begin(), store.end());
    put_u32(out, 0);                    // delivery sessions
    if (memo_sections) put_u32(out, 0);  // per-deployment memo sections
    put_u32(out, crc32(out));
    return out;
  };
  EXPECT_FALSE(endpoint.restore(build(2, true)));
  EXPECT_TRUE(endpoint.restore(build(3, false)));
  EXPECT_EQ(build(3, false), endpoint.snapshot());
}

// -- soak --------------------------------------------------------------------

// The soak harness: 300+ seeded sessions sweeping loss 0..40%, every one
// must terminate (Accept or bounded give-up), and every Accept must carry
// the lossless digest. One farm serves all sessions, as in deployment.
TEST(NetSoak, ThreeHundredSeededSessionsAcrossTheLossSweep) {
  VerifierFarm farm(apps::demo_key(), {.workers = 4, .clamp_workers = false});
  VerifierEndpoint endpoint(farm);

  const std::vector<u32> loss_levels = {0, 50, 100, 150, 200, 250, 300, 350,
                                        400};
  constexpr u64 kSeedsPerLevel = 34;  // 9 * 34 = 306 sessions
  u64 sessions = 0, accepts = 0, gave_up = 0;
  for (size_t level = 0; level < loss_levels.size(); ++level) {
    const LinkModel model = LinkModel::lossy(loss_levels[level]);
    for (u64 s = 0; s < kSeedsPerLevel; ++s) {
      const u64 seed = 0x50a4'0000 + level * 1000 + s;
      const DeviceId device = 1000 + sessions;
      DuplexLink link(model, model, seed);
      const SessionOutcome outcome = run_fixture_session(
          farm, endpoint, device, /*session=*/1, link, seed);
      ++sessions;

      ASSERT_NE(outcome.phase, ProverPhase::Sending)
          << "unbounded session: loss=" << loss_levels[level]
          << " seed=" << seed;
      if (outcome.phase == ProverPhase::Done) {
        ++accepts;
        ASSERT_TRUE(outcome.verdict.has_value());
        EXPECT_EQ(outcome.verdict->verdict, Verdict::Accept)
            << "loss=" << loss_levels[level] << " seed=" << seed;
        EXPECT_EQ(outcome.verdict->digest, lossless_digest())
            << "loss=" << loss_levels[level] << " seed=" << seed;
      } else {
        ++gave_up;
        // Give-up is only acceptable where the link is actually brutal.
        EXPECT_GE(loss_levels[level], 300u)
            << "gave up on a mild link: seed=" << seed;
      }
    }
  }
  EXPECT_GE(sessions, 300u);
  // The sweep as a whole must overwhelmingly converge.
  EXPECT_GE(accepts * 100, sessions * 95)
      << "accepts=" << accepts << " gave_up=" << gave_up;
}

}  // namespace
}  // namespace raptrack
