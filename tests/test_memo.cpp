// Differential suite for the verified sub-path memo cache (verify/memo.*).
//
// The contract under test: memoization may change wall-clock time and the
// memo_hits/memo_misses telemetry, and NOTHING else. Every test here pins a
// memoized verification against an unmemoized one (set_memo(false)) via
// verification_digest() — a canonical SHA-256 over verdict, flags, detail,
// gaps, notes, events, findings, counters and decoded evidence — so any
// divergence, however subtle, is a byte-level failure:
//   * ~400 fuzzed transport-fault plans across two apps x {naive, TRACES}
//     (the fault-campaign injector set), cold and warm;
//   * every registry app x {naive, TRACES}, cold cache then warm cache
//     (warm must actually hit);
//   * eviction under a tiny byte budget (pressure must not corrupt results);
//   * concurrent farm workers warming one shared cache (run under the
//     `concurrency` label; the tsan preset builds this with TSan);
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "common/hex.hpp"
#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "verify/farm.hpp"
#include "verify/memo.hpp"
#include "verify/verifier.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;
using fault::AttestedRun;
using fault::FaultPlan;
using fault::InjectorKind;
using verify::Deployment;
using verify::MemoCache;
using verify::MemoOptions;
using verify::MemoSegment;
using verify::VerificationResult;
using verify::verification_digest;

std::string digest_hex(const VerificationResult& result) {
  return hex_digest(verification_digest(result));
}

// The two methods whose replays use the cache.
enum class Method { Naive, Traces };

const char* method_name(Method method) {
  return method == Method::Naive ? "naive" : "traces";
}

/// One clean attested chain under campaign-sized buffers: a small MTB and a
/// 128-byte watermark (naive), or a 128-byte Secure log (TRACES), so both
/// methods produce multi-report chains.
struct MethodChain {
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> reports;
  bool functional_ok = false;
};

constexpr u32 kChunkBytes = 128;

MethodChain attest(const PreparedApp& prepared, Method method) {
  const fault::CampaignOptions options;
  MethodChain out;
  out.chal = fault::campaign_challenge(options.app_seed);
  const sim::MachineConfig config{.mtb_buffer_bytes = options.mtb_buffer_bytes};
  const apps::MethodRun run =
      method == Method::Naive
          ? apps::run_naive(prepared, options.app_seed, config,
                            {.watermark_bytes = kChunkBytes}, out.chal)
          : apps::run_traces(prepared, options.app_seed, config,
                             {.traces_capacity_bytes = kChunkBytes}, out.chal);
  out.reports = run.attestation.reports;
  out.functional_ok = run.functional_ok;
  return out;
}

std::shared_ptr<const Deployment> deploy(const PreparedApp& prepared,
                                         Method method,
                                         const MemoOptions& memo = {}) {
  return method == Method::Naive
             ? Deployment::naive(prepared.built.program, prepared.built.entry,
                                 memo)
             : Deployment::traces(prepared.traces.program,
                                  prepared.traces.manifest,
                                  prepared.built.entry, memo);
}

/// The §IV-E watermark-shape check applies to MTB chains only.
u32 watermark_for(Method method) {
  return method == Method::Naive ? kChunkBytes : 0;
}

// Verify `chain` against `deployment` with the memo cache on or off. A
// fresh Verifier (fresh session store) per call; the memo cache itself
// lives on the shared Deployment, so warmth carries across calls.
VerificationResult run_verify(std::shared_ptr<const Deployment> deployment,
                              u32 watermark, const cfa::Challenge& chal,
                              const std::vector<cfa::SignedReport>& chain,
                              bool memo) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(std::move(deployment));
  verifier.set_expected_watermark(watermark);
  verifier.set_memo(memo);
  verifier.adopt_challenge(chal);
  return verifier.verify(chal, chain);
}

// -- MemoCache unit behavior --------------------------------------------------

MemoCache::Handle make_segment(Address entry_pc, u64 padding = 0) {
  auto seg = std::make_shared<MemoSegment>();
  seg->entry_pc = entry_pc;
  seg->exit_pc = entry_pc + 4;
  seg->steps = 1;
  seg->packets.resize(padding);  // inflate bytes() for budget tests
  return seg;
}

TEST(MemoCacheUnit, InsertLookupRefreshAndClear) {
  MemoCache cache({.shards = 4, .slots_per_shard = 64});
  MemoCache::Handle out[MemoCache::kLookupWidth];
  EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);

  cache.insert(42, make_segment(0x100));
  ASSERT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 1u);
  EXPECT_EQ(out[0]->entry_pc, 0x100u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Same key, same entry guards: refreshes in place, no duplicate.
  cache.insert(42, make_segment(0x100));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.note_hit();
  cache.note_miss();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);

  cache.clear();
  EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(MemoCacheUnit, ByteBudgetEnforcedByEviction) {
  const MemoOptions options{
      .shards = 1, .slots_per_shard = 256, .budget_bytes = 16 * 1024};
  MemoCache cache(options);
  // Distinct keys, each segment ~1.5 KiB: far past the budget in total.
  for (u64 key = 0; key < 64; ++key) {
    cache.insert(key * 0x10001, make_segment(0x100 + 4 * key, /*padding=*/128));
    EXPECT_LE(cache.stats().bytes, options.budget_bytes)
        << "budget exceeded after insert " << key;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 64u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 64u);
  // An entry bigger than one shard's whole budget is refused outright.
  cache.insert(999, make_segment(0x900, /*padding=*/4096));
  EXPECT_GT(cache.stats().rejects, 0u);
}

// The budget must hold at every instant, not just between calls: the
// `verify.memo.bytes_hwm` gauge records the maximum resident footprint any
// insert ever observed, so an accounting bug that transiently overshoots is
// caught even after eviction pulls the steady state back under. (The cache
// has a single segment tier; the name predates that.)
TEST(MemoCacheUnit, ByteHighWaterMarkStaysUnderBudgetAcrossTiers) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  // The hwm gauge is global and monotonic; zero it so this test measures
  // only its own cache.
  obs::registry().reset();
  const MemoOptions options{
      .shards = 1, .slots_per_shard = 64, .budget_bytes = 8 * 1024};
  MemoCache cache(options);
  for (u64 i = 0; i < 64; ++i) {
    cache.insert(i * 0x2001, make_segment(0x100 + 4 * i, /*padding=*/64));
    EXPECT_LE(cache.stats().bytes, options.budget_bytes)
        << "budget exceeded after insert " << i;
  }
  EXPECT_GT(cache.stats().evictions, 0u) << "pressure never evicted";
  const obs::Snapshot snap = obs::registry().scrape();
  EXPECT_GT(snap.value("verify.memo.bytes_hwm"), 0u);
  EXPECT_LE(snap.value("verify.memo.bytes_hwm"), options.budget_bytes)
      << "some insert transiently overshot the byte budget";
}

// -- fuzzed-chain differential (the fault-campaign transport injectors) ------

struct Case {
  size_t app = 0;
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  std::string label;
};

struct Corpus {
  std::vector<std::shared_ptr<const Deployment>> deployments;
  std::vector<u32> watermarks;  ///< per deployment
  std::vector<Case> cases;
};

// Same corpus shape as the farm differential, over naive and TRACES chains:
// per (app, method), the clean chain plus every transport injector at
// several seeds.
const Corpus& corpus() {
  static const Corpus corpus = [] {
    Corpus out;
    constexpr u64 kSeedsPerKind = 8;
    for (const char* name : {"gps", "temperature"}) {
      const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
      for (const Method method : {Method::Naive, Method::Traces}) {
        const std::string tag = std::string(name) + "/" + method_name(method);
        const MethodChain clean = attest(prepared, method);
        EXPECT_TRUE(clean.functional_ok) << tag;
        const size_t app = out.deployments.size();
        out.deployments.push_back(deploy(prepared, method));
        out.watermarks.push_back(watermark_for(method));
        out.cases.push_back({app, clean.chal, clean.reports, tag + "/clean"});
        for (const InjectorKind kind : fault::transport_injectors()) {
          for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
            FaultPlan plan(seed);
            plan.add(kind);
            std::vector<cfa::SignedReport> chain = clean.reports;
            if (kind == InjectorKind::WireBitFlip) {
              auto survived = fault::apply_wire_fault(plan, chain);
              if (!survived.has_value()) continue;
              chain = std::move(*survived);
            } else {
              fault::apply_transport_faults(plan, chain);
            }
            out.cases.push_back({app, clean.chal, std::move(chain),
                                 tag + "/" + fault::injector_name(kind) + "/" +
                                     std::to_string(seed)});
          }
        }
      }
    }
    return out;
  }();
  return corpus;
}

TEST(MemoDifferential, FuzzedFaultPlansMatchUnmemoizedDigests) {
  const Corpus& fuzz = corpus();
  ASSERT_GE(fuzz.cases.size(), 200u)
      << "fault-plan corpus shrank below the differential coverage floor";

  size_t accepts = 0;
  for (const Case& c : fuzz.cases) {
    const auto& deployment = fuzz.deployments[c.app];
    const u32 watermark = fuzz.watermarks[c.app];
    const VerificationResult plain =
        run_verify(deployment, watermark, c.chal, c.chain, false);
    // Twice memoized: cold-ish (whatever earlier cases warmed) and warm.
    const VerificationResult memo1 =
        run_verify(deployment, watermark, c.chal, c.chain, true);
    const VerificationResult memo2 =
        run_verify(deployment, watermark, c.chal, c.chain, true);
    EXPECT_EQ(digest_hex(memo1), digest_hex(plain)) << c.label;
    EXPECT_EQ(digest_hex(memo2), digest_hex(plain)) << c.label << " (warm)";
    if (plain.accepted()) ++accepts;
  }
  EXPECT_GT(accepts, 0u);
  u64 hits = 0;
  for (const auto& deployment : fuzz.deployments) {
    hits += deployment->memo().stats().hits;
  }
  EXPECT_GT(hits, 0u) << "the differential never exercised the hit path";
}

// RAP replays never attach the cache, even when the verifier asks for it.
TEST(MemoDifferential, RapReplaysLeaveTheCacheUntouched) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  const auto deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry);
  const VerificationResult plain = run_verify(
      deployment, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  for (int round = 0; round < 2; ++round) {
    const VerificationResult memo = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, true);
    EXPECT_EQ(digest_hex(memo), digest_hex(plain));
    EXPECT_EQ(memo.replay.memo_hits + memo.replay.memo_misses, 0u);
  }
  const verify::MemoStats stats = deployment->memo().stats();
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

// -- registry-wide app differential -------------------------------------------

TEST(MemoDifferential, EveryRegistryAppWarmCacheMatchesAndHits) {
  // Short windows cut naive chains into many segments, so the warm replay
  // splices a chain of them (digest equality holds for any window setting;
  // only traffic volume changes).
  const MemoOptions short_window{.window_packets = 4};
  for (const auto& app : apps::app_registry()) {
    const PreparedApp prepared = apps::prepare_app(app);
    for (const Method method : {Method::Naive, Method::Traces}) {
      const std::string tag = app.name + "/" + method_name(method);
      const MethodChain clean = attest(prepared, method);
      ASSERT_TRUE(clean.functional_ok) << tag;
      const auto deployment = deploy(prepared, method, short_window);
      const u32 watermark = watermark_for(method);

      const VerificationResult plain =
          run_verify(deployment, watermark, clean.chal, clean.reports, false);
      ASSERT_TRUE(plain.accepted()) << tag << ": " << plain.detail;
      const VerificationResult cold =
          run_verify(deployment, watermark, clean.chal, clean.reports, true);
      const VerificationResult warm =
          run_verify(deployment, watermark, clean.chal, clean.reports, true);
      EXPECT_EQ(digest_hex(cold), digest_hex(plain)) << tag << " cold";
      EXPECT_EQ(digest_hex(warm), digest_hex(plain)) << tag << " warm";
      EXPECT_GT(warm.replay.memo_hits, 0u)
          << tag << ": repeated replay never hit the cache";
    }
  }
}

// -- eviction under pressure --------------------------------------------------

/// The gps naive chain every single-chain test below replays.
struct GpsNaive {
  PreparedApp prepared;
  MethodChain clean;
};

const GpsNaive& gps_naive() {
  static const GpsNaive fx = [] {
    GpsNaive out{apps::prepare_app(apps::app_by_name("gps")), {}};
    out.clean = attest(out.prepared, Method::Naive);
    return out;
  }();
  return fx;
}

VerificationResult verify_gps(std::shared_ptr<const Deployment> deployment,
                              bool memo) {
  const GpsNaive& fx = gps_naive();
  return run_verify(std::move(deployment), kChunkBytes, fx.clean.chal,
                    fx.clean.reports, memo);
}

TEST(MemoEviction, TinyBudgetEvictsWithoutChangingDigests) {
  const GpsNaive& fx = gps_naive();
  ASSERT_TRUE(fx.clean.functional_ok);
  // A cache far too small for the run: short windows make many segments and
  // a ~2 KiB budget forces continuous eviction while verifying.
  const MemoOptions tiny{.shards = 1,
                         .slots_per_shard = 8,
                         .budget_bytes = 2048,
                         .window_packets = 4};
  const auto pressured = deploy(fx.prepared, Method::Naive, tiny);
  const auto roomy = deploy(fx.prepared, Method::Naive);

  const VerificationResult plain = verify_gps(roomy, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  for (int round = 0; round < 4; ++round) {
    const VerificationResult squeezed = verify_gps(pressured, true);
    EXPECT_EQ(digest_hex(squeezed), digest_hex(plain)) << "round " << round;
  }
  const auto stats = pressured->memo().stats();
  EXPECT_LE(stats.bytes, tiny.budget_bytes);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.evictions, 0u)
      << "pressure test never actually evicted (budget too roomy?)";
}

// -- concurrent farm workers sharing one cache --------------------------------

TEST(MemoConcurrency, FarmWorkersWarmOneCacheAndMatchSerial) {
  const GpsNaive& fx = gps_naive();
  ASSERT_TRUE(fx.clean.functional_ok);
  // Short windows guarantee cache traffic, which is what makes the
  // shared-cache hit/insert assertions below meaningful.
  const auto deployment =
      deploy(fx.prepared, Method::Naive, MemoOptions{.window_packets = 4});

  const VerificationResult plain = verify_gps(deployment, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  const std::string expected = digest_hex(plain);

  verify::VerifierFarm farm(apps::demo_key(),
                            {.workers = 4, .clamp_workers = false});
  verify::VerifyConfig config;
  config.expected_watermark = kChunkBytes;
  constexpr size_t kDevices = 48;
  std::vector<std::future<VerificationResult>> results;
  for (size_t device = 0; device < kDevices; ++device) {
    farm.provision(device, deployment, config);
    farm.adopt_challenge(device, fx.clean.chal);
    results.push_back(farm.submit(device, fx.clean.chal, fx.clean.reports));
  }
  farm.drain();
  for (size_t device = 0; device < kDevices; ++device) {
    const VerificationResult result = results[device].get();
    EXPECT_TRUE(result.accepted()) << "device " << device;
    EXPECT_EQ(digest_hex(result), expected) << "device " << device;
  }
  const auto stats = deployment->memo().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.inserts, 0u);
}

}  // namespace
}  // namespace raptrack
