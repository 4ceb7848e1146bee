// Differential suite for the verified sub-path memo cache (verify/memo.*).
//
// The contract under test: memoization may change wall-clock time and the
// memo_hits/memo_misses telemetry, and NOTHING else. Every test here pins a
// memoized verification against an unmemoized one (set_memo(false)) via
// verification_digest() — a canonical SHA-256 over verdict, flags, detail,
// gaps, notes, events, findings, counters and decoded evidence — so any
// divergence, however subtle, is a byte-level failure:
//   * ~200 fuzzed transport-fault plans across two apps (the fault-campaign
//     injector set), cold and warm;
//   * every registry app, cold cache then warm cache (warm must actually
//     hit);
//   * eviction under a tiny byte budget (pressure must not corrupt results);
//   * concurrent farm workers warming one shared cache (run under the
//     `concurrency` label; the tsan preset builds this with TSan);
//   * the 216-program generative grid, memo off vs on vs warm-restored;
//   * MEM1 warm-start snapshots: round-trip, corruption, version refusal.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "common/crc32.hpp"
#include "common/hex.hpp"
#include "fault/campaign.hpp"
#include "gen_corpus.hpp"
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
  if constexpr (verify::kMemoEnabled) {
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
  } else {
    EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);
  }
}

TEST(MemoCacheUnit, ForceDisableDropsTraffic) {
  MemoCache cache;
  MemoCache::Handle out[MemoCache::kLookupWidth];
  MemoCache::force_disable(true);
  cache.insert(7, make_segment(0x200));
  EXPECT_EQ(cache.lookup(7, out, MemoCache::kLookupWidth), 0u);
  MemoCache::force_disable(false);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MemoCacheUnit, ByteBudgetEnforcedByEviction) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
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
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
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

// -- fuzzed-chain differential (the ~200-plan fault campaign) -----------------

struct Case {
  size_t app = 0;
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  std::string label;
};

struct Corpus {
  std::vector<std::shared_ptr<const Deployment>> deployments;
  u32 watermark = 0;
  std::vector<Case> cases;
};

// Same corpus shape as the farm differential: per app, the clean chain plus
// every transport injector at several seeds.
const Corpus& corpus() {
  static const Corpus corpus = [] {
    Corpus out;
    const fault::CampaignOptions options;
    out.watermark = options.watermark_bytes;
    constexpr u64 kSeedsPerKind = 8;
    for (const char* name : {"gps", "temperature"}) {
      const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
      const AttestedRun clean = fault::attest_once(prepared, options);
      EXPECT_TRUE(clean.functional_ok) << name;
      const size_t app = out.deployments.size();
      out.deployments.push_back(Deployment::rap(
          prepared.rap.program, prepared.rap.manifest, prepared.built.entry));
      out.cases.push_back(
          {app, clean.chal, clean.reports, std::string(name) + "/clean"});
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

TEST(MemoDifferential, FuzzedFaultPlansMatchUnmemoizedDigests) {
  const Corpus& fuzz = corpus();
  ASSERT_GE(fuzz.cases.size(), 200u)
      << "fault-plan corpus shrank below the differential coverage floor";

  // Fresh deployments for the memoized side so this test controls its own
  // cache warmth (the corpus deployments are shared with other tests).
  size_t accepts = 0;
  for (const Case& c : fuzz.cases) {
    const VerificationResult plain = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, false);
    // Twice memoized: cold-ish (whatever earlier cases warmed) and warm.
    const VerificationResult memo1 = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, true);
    const VerificationResult memo2 = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, true);
    EXPECT_EQ(digest_hex(memo1), digest_hex(plain)) << c.label;
    EXPECT_EQ(digest_hex(memo2), digest_hex(plain)) << c.label << " (warm)";
    if (plain.accepted()) ++accepts;
  }
  EXPECT_GT(accepts, 0u);
  if constexpr (verify::kMemoEnabled) {
    u64 hits = 0;
    for (const auto& deployment : fuzz.deployments) {
      hits += deployment->memo().stats().hits;
    }
    EXPECT_GT(hits, 0u) << "the differential never exercised the hit path";
  }
}

// -- registry-wide app differential -------------------------------------------

TEST(MemoDifferential, EveryRegistryAppWarmCacheMatchesAndHits) {
  const fault::CampaignOptions options;
  // RAP replay aborts recording at every ambiguous-branch checkpoint, and
  // the futility backoff then anchors sparsely; short windows plus backoff
  // disabled keep enough abort-free stretches recordable that the warm-hit
  // assertion stays meaningful on the RAP path (digest equality holds for
  // any window/backoff setting — only traffic volume changes).
  const MemoOptions short_window{.window_packets = 4, .anchor_backoff_cap = 0};
  for (const auto& app : apps::app_registry()) {
    const PreparedApp prepared = apps::prepare_app(app);
    const AttestedRun clean = fault::attest_once(prepared, options);
    ASSERT_TRUE(clean.functional_ok) << app.name;
    const auto deployment =
        Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                        prepared.built.entry, short_window);

    const VerificationResult plain = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, false);
    ASSERT_TRUE(plain.accepted()) << app.name << ": " << plain.detail;
    const VerificationResult cold = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, true);
    const VerificationResult warm = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, true);
    EXPECT_EQ(digest_hex(cold), digest_hex(plain)) << app.name << " cold";
    EXPECT_EQ(digest_hex(warm), digest_hex(plain)) << app.name << " warm";
    if constexpr (verify::kMemoEnabled) {
      EXPECT_GT(warm.replay.memo_hits, 0u)
          << app.name << ": repeated replay never hit the cache";
    }
  }
}

// -- eviction under pressure --------------------------------------------------

TEST(MemoEviction, TinyBudgetEvictsWithoutChangingDigests) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  // A cache far too small for the run: short windows make many segments and
  // a ~2 KiB budget forces continuous eviction while verifying.
  const MemoOptions tiny{.shards = 1,
                         .slots_per_shard = 8,
                         .budget_bytes = 2048,
                         .window_packets = 4};
  const auto pressured =
      Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry, tiny);
  const auto roomy = Deployment::rap(prepared.rap.program,
                                     prepared.rap.manifest,
                                     prepared.built.entry);

  const VerificationResult plain = run_verify(
      roomy, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  for (int round = 0; round < 4; ++round) {
    const VerificationResult squeezed =
        run_verify(pressured, options.watermark_bytes, clean.chal,
                   clean.reports, true);
    EXPECT_EQ(digest_hex(squeezed), digest_hex(plain)) << "round " << round;
  }
  if constexpr (verify::kMemoEnabled) {
    const auto stats = pressured->memo().stats();
    EXPECT_LE(stats.bytes, tiny.budget_bytes);
    EXPECT_GT(stats.inserts, 0u);
    EXPECT_GT(stats.evictions, 0u)
        << "pressure test never actually evicted (budget too roomy?)";
  }
}

// -- concurrent farm workers sharing one cache --------------------------------

TEST(MemoConcurrency, FarmWorkersWarmOneCacheAndMatchSerial) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  // Short windows + no backoff for the same reason as the registry
  // differential above: they guarantee cache traffic on this
  // checkpoint-dense RAP chain, which is what makes the shared-cache
  // hit/insert assertions below meaningful.
  const auto deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry,
      MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});

  const VerificationResult plain = run_verify(
      deployment, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  const std::string expected = digest_hex(plain);

  verify::VerifierFarm farm(apps::demo_key(),
                            {.workers = 4, .clamp_workers = false});
  verify::VerifyConfig config;
  config.expected_watermark = options.watermark_bytes;
  constexpr size_t kDevices = 48;
  std::vector<std::future<VerificationResult>> results;
  for (size_t device = 0; device < kDevices; ++device) {
    farm.provision(device, deployment, config);
    farm.adopt_challenge(device, clean.chal);
    results.push_back(farm.submit(device, clean.chal, clean.reports));
  }
  farm.drain();
  for (size_t device = 0; device < kDevices; ++device) {
    const VerificationResult result = results[device].get();
    EXPECT_TRUE(result.accepted()) << "device " << device;
    EXPECT_EQ(digest_hex(result), expected) << "device " << device;
  }
  if constexpr (verify::kMemoEnabled) {
    const auto stats = deployment->memo().stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.inserts, 0u);
  }
}

// -- generative checkpoint-dense corpus (gen_corpus.hpp) ----------------------

// The generative grid runs the full prover pipeline with the bench's
// checkpoint-dense transport shape: a small MTB and a 128-byte watermark
// chop every run into many short reports, maximizing RAP-ambiguity density
// on the verifier side.
constexpr u32 kGenWatermark = 128;

struct GenChain {
  /// Stable-address App: PreparedApp keeps a pointer into it (run_* calls
  /// app->setup), so it must outlive every run and survive GenChain moves.
  std::shared_ptr<apps::App> app;
  PreparedApp prepared;
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  bool ok = false;
};

GenChain attest_gen(const gen::GenParams& p) {
  GenChain out;
  out.app = std::make_shared<apps::App>(gen::corpus_app(p));
  out.prepared = apps::prepare_app(*out.app);
  out.chal = fault::campaign_challenge(p.seed * 977 + 1);
  const apps::MethodRun run = apps::run_rap(
      out.prepared, p.seed, sim::MachineConfig{.mtb_buffer_bytes = 256},
      cfa::SessionOptions{.watermark_bytes = kGenWatermark}, out.chal);
  out.chain = run.attestation.reports;
  out.ok = run.functional_ok && !out.chain.empty();
  return out;
}

std::shared_ptr<const Deployment> gen_deployment(const GenChain& c,
                                                 const MemoOptions& options) {
  return Deployment::rap(c.prepared.rap.program, c.prepared.rap.manifest,
                         c.prepared.built.entry, options);
}

// The referee for the backtracking search under memoization: across the
// whole parameter grid (>= 200 synthesized programs), verification_digest()
// is byte-identical with {memo off}, {memo on, three warming rounds} and
// {warm restart: snapshot -> fresh deployment -> restore}. Any unsound
// splice or snapshot corruption shows up as a digest divergence on some
// grid point. Programs are independent (each owns its deployments), so the
// grid fans out across threads; under the `concurrency` label the tsan
// preset drives this as a multi-threaded differential.
TEST(MemoGenCorpus, GridDigestsInvariantAcrossMemoModes) {
  const std::vector<gen::GenParams> grid = gen::corpus_grid();
  ASSERT_GE(grid.size(), 200u)
      << "generative grid shrank below the acceptance floor";

  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  std::atomic<u64> segment_hits{0};
  const auto run_one = [&](const gen::GenParams& p) -> std::string {
    const std::string name = gen::corpus_name(p);
    const GenChain c = attest_gen(p);
    if (!c.ok) return name + ": prover run failed";
    const auto d = gen_deployment(c, dense);
    const VerificationResult plain =
        run_verify(d, kGenWatermark, c.chal, c.chain, false);
    if (!plain.accepted()) {
      return name + ": plain verify rejected: " + plain.detail;
    }
    const std::string want = digest_hex(plain);
    const auto check = [&](const VerificationResult& r,
                           const char* mode) -> std::string {
      if (digest_hex(r) != want) {
        return name + ": digest diverged under " + mode;
      }
      return {};
    };
    std::string err;
    for (int round = 0; round < 3 && err.empty(); ++round) {
      err = check(run_verify(d, kGenWatermark, c.chal, c.chain, true),
                  "memo on");
    }
    if (!err.empty()) return err;
    const auto fresh = gen_deployment(c, dense);
    if constexpr (verify::kMemoEnabled) {
      const std::vector<u8> blob = d->memo().serialize_warm();
      if (blob.empty() || !fresh->memo().restore_warm(blob)) {
        return name + ": warm snapshot did not restore";
      }
    }
    err = check(run_verify(fresh, kGenWatermark, c.chal, c.chain, true),
                "warm restart");
    if (!err.empty()) return err;
    segment_hits += d->memo().stats().hits + fresh->memo().stats().hits;
    return {};
  };

  const size_t workers = std::min<size_t>(
      std::max(std::thread::hardware_concurrency(), 2u), 8);
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::vector<std::future<std::vector<std::string>>> slices;
  for (size_t w = 0; w < workers; ++w) {
    slices.push_back(std::async(std::launch::async, [&] {
      std::vector<std::string> errors;
      for (size_t i = next.fetch_add(1); i < grid.size();
           i = next.fetch_add(1)) {
        std::string err = run_one(grid[i]);
        if (err.empty()) {
          ++completed;
        } else {
          errors.push_back(std::move(err));
        }
      }
      return errors;
    }));
  }
  std::vector<std::string> errors;
  for (auto& slice : slices) {
    for (std::string& err : slice.get()) errors.push_back(std::move(err));
  }
  for (const std::string& err : errors) ADD_FAILURE() << err;
  EXPECT_EQ(completed.load(), grid.size());
  if constexpr (verify::kMemoEnabled) {
    EXPECT_GT(segment_hits.load(), 0u)
        << "no segment ever spliced anywhere in the grid";
  }
}

// -- warm snapshot / restore --------------------------------------------------

// The acceptance criterion for persistent warm start: snapshot a warmed
// cache, "kill" it (build a fresh deployment of the same image), restore,
// and the first post-restore session must (a) produce the byte-identical
// digest and (b) reach at least 80% of the steady-state hit rate.
TEST(MemoWarmRestart, SnapshotRestoreKeepsDigestsAndHitRate) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  const auto warm_deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry,
      dense);

  const VerificationResult plain =
      run_verify(warm_deployment, options.watermark_bytes, clean.chal,
                 clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;

  // Warm up, then measure the steady-state hit deltas of one session.
  run_verify(warm_deployment, options.watermark_bytes, clean.chal,
             clean.reports, true);
  run_verify(warm_deployment, options.watermark_bytes, clean.chal,
             clean.reports, true);
  const verify::MemoStats before = warm_deployment->memo().stats();
  run_verify(warm_deployment, options.watermark_bytes, clean.chal,
             clean.reports, true);
  const verify::MemoStats after = warm_deployment->memo().stats();
  const u64 steady_hits = after.hits - before.hits;
  ASSERT_GT(steady_hits, 0u) << "steady state never hits: test is vacuous";

  const std::vector<u8> blob = warm_deployment->memo().serialize_warm();
  ASSERT_FALSE(blob.empty());

  // "Restart": a brand-new deployment of the same image, restored from the
  // snapshot, must serve the first session nearly as well as steady state.
  const auto restored = Deployment::rap(prepared.rap.program,
                                        prepared.rap.manifest,
                                        prepared.built.entry, dense);
  ASSERT_TRUE(restored->memo().restore_warm(blob));
  const VerificationResult first =
      run_verify(restored, options.watermark_bytes, clean.chal, clean.reports,
                 true);
  EXPECT_EQ(digest_hex(first), digest_hex(plain)) << "post-restore digest";
  const verify::MemoStats fresh = restored->memo().stats();
  const u64 restored_hits = fresh.hits;
  EXPECT_GE(static_cast<double>(restored_hits),
            0.8 * static_cast<double>(steady_hits))
      << "warm-restored start fell below 80% of the steady-state hit rate ("
      << restored_hits << " vs " << steady_hits << ")";
}

// A corrupt or truncated MEM1 blob must be refused atomically: the cache
// stays cold (never half-loaded) and verification stays byte-correct.
TEST(MemoWarmRestart, CorruptSnapshotDegradesToColdNeverWrongVerdict) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  const auto source = Deployment::rap(prepared.rap.program,
                                      prepared.rap.manifest,
                                      prepared.built.entry, dense);
  const VerificationResult plain = run_verify(
      source, options.watermark_bytes, clean.chal, clean.reports, false);
  run_verify(source, options.watermark_bytes, clean.chal, clean.reports, true);
  const std::vector<u8> good = source->memo().serialize_warm();
  ASSERT_GT(good.size(), 16u);

  const auto expect_cold_refusal = [&](std::vector<u8> bad,
                                       const std::string& label) {
    const auto victim = Deployment::rap(prepared.rap.program,
                                        prepared.rap.manifest,
                                        prepared.built.entry, dense);
    EXPECT_FALSE(victim->memo().restore_warm(bad)) << label;
    EXPECT_EQ(victim->memo().stats().entries, 0u) << label << ": half-loaded";
    const VerificationResult result = run_verify(
        victim, options.watermark_bytes, clean.chal, clean.reports, true);
    EXPECT_EQ(digest_hex(result), digest_hex(plain)) << label;
  };

  std::vector<u8> flipped = good;
  flipped[good.size() / 2] ^= 0x40;
  expect_cold_refusal(std::move(flipped), "bit flip mid-blob");
  expect_cold_refusal({good.begin(), good.end() - 5}, "truncated");
  expect_cold_refusal({good.begin(), good.begin() + 3}, "shorter than magic");
  std::vector<u8> wrong_magic = good;
  wrong_magic[0] = 'X';
  expect_cold_refusal(std::move(wrong_magic), "wrong magic");

  // The intact blob still restores after all the refusals.
  const auto victim = Deployment::rap(prepared.rap.program,
                                      prepared.rap.manifest,
                                      prepared.built.entry, dense);
  EXPECT_TRUE(victim->memo().restore_warm(good));
  EXPECT_GT(victim->memo().stats().entries, 0u);
}

// SST1 with a warm section: session state and cache warmth round-trip
// together; a legacy (memo-less) blob still loads; a corrupt warm section
// degrades to cold without failing the session restore.
TEST(MemoWarmRestart, SessionStoreCarriesWarmSection) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  MemoCache cache({.shards = 2});
  cache.insert(42, make_segment(0x100));

  verify::SessionStore store;
  cfa::Challenge chal{};
  chal[0] = 0xaa;
  store.issue(3, chal);
  const std::vector<u8> blob = store.serialize(&cache);

  verify::SessionStore recovered;
  MemoCache recovered_cache({.shards = 2});
  ASSERT_TRUE(recovered.deserialize(blob, &recovered_cache));
  EXPECT_EQ(recovered.state(3, chal),
            verify::SessionStore::ChallengeState::Outstanding);
  EXPECT_EQ(recovered_cache.stats().entries, 1u);

  // Legacy blob (no warm section) into a memo-aware restore: cold cache.
  verify::SessionStore legacy;
  MemoCache cold_cache;
  ASSERT_TRUE(legacy.deserialize(store.serialize(), &cold_cache));
  EXPECT_EQ(cold_cache.stats().entries, 0u);

  // Corrupt warm section: session state restores, cache stays cold.
  std::vector<u8> corrupt = blob;
  corrupt.back() ^= 0x01;  // inside the MEM1 section (its crc trailer)
  verify::SessionStore damaged;
  MemoCache damaged_cache({.shards = 2});
  ASSERT_TRUE(damaged.deserialize(corrupt, &damaged_cache));
  EXPECT_EQ(damaged.state(3, chal),
            verify::SessionStore::ChallengeState::Outstanding);
  EXPECT_EQ(damaged_cache.stats().entries, 0u);
}

// -- MEM1 v3: snapshot/restore edge cases -----------------------------------

// A restored cache must never splice against evidence its segments were not
// recorded for: warm the cache on the clean chain, restore it, then verify a
// faulted variant of the same app. Segments whose pinned evidence differs
// miss, replay falls back to live execution, and the digest equals the
// faulted chain's own memo-off digest.
TEST(MemoWarmRestart, RestoredGuardsNeverSpliceAgainstForeignEvidence) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  const Corpus& fuzz = corpus();
  const Case* faulted = nullptr;
  for (const Case& c : fuzz.cases) {
    if (c.app == 0 && c.label.find("clean") == std::string::npos) {
      faulted = &c;
      break;
    }
  }
  ASSERT_NE(faulted, nullptr);
  const Case& clean = fuzz.cases[0];
  ASSERT_EQ(clean.app, 0u);

  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  const auto warm =
      Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry, dense);
  for (int round = 0; round < 3; ++round) {
    run_verify(warm, fuzz.watermark, clean.chal, clean.chain, true);
  }
  const std::vector<u8> blob = warm->memo().serialize_warm();
  ASSERT_FALSE(blob.empty());

  const auto cold =
      Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry, dense);
  const VerificationResult want = run_verify(
      cold, fuzz.watermark, faulted->chal, faulted->chain, false);
  const auto restored =
      Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry, dense);
  ASSERT_TRUE(restored->memo().restore_warm(blob));
  const VerificationResult got = run_verify(
      restored, fuzz.watermark, faulted->chal, faulted->chain, true);
  EXPECT_EQ(digest_hex(got), digest_hex(want)) << faulted->label;
}

// A CRC-resealed version downgrade: stamping the v2 header on a v3 blob
// must be refused whole. v2 blobs carried guard, frontier and device-tag
// sections v3 dropped, so parsing one as v3 would misread them; the whole-
// blob CRC is valid, so only the version check can save us.
TEST(MemoWarmRestart, ForgedGuardSectionRefusedEvenWithValidCrc) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  MemoCache cache({.shards = 1});
  cache.insert(7, make_segment(0x100));
  const std::vector<u8> blob = cache.serialize_warm();
  ASSERT_FALSE(blob.empty());
  ASSERT_EQ(blob[4], 3u) << "MEM1 version field moved";

  const auto reseal = [](std::vector<u8>& b) {
    const u32 crc =
        crc32(std::span<const u8>(b.data(), b.size() - 4));
    for (int i = 0; i < 4; ++i) {
      b[b.size() - 4 + i] = static_cast<u8>(crc >> (8 * i));
    }
  };
  {
    // Control: resealing the untouched blob reproduces it byte-for-byte,
    // so the refusal below is structural, not a CRC artifact.
    std::vector<u8> same = blob;
    reseal(same);
    ASSERT_EQ(same, blob);
    MemoCache ok({.shards = 1});
    ASSERT_TRUE(ok.restore_warm(same));
    EXPECT_EQ(ok.stats().entries, 1u);
  }
  std::vector<u8> v2 = blob;
  v2[4] = 2;
  v2[5] = v2[6] = v2[7] = 0;
  reseal(v2);
  MemoCache victim({.shards = 1});
  EXPECT_FALSE(victim.restore_warm(v2)) << "version downgrade";
  EXPECT_EQ(victim.stats().entries, 0u);
}

}  // namespace
}  // namespace raptrack
