// Pinned verdict dump: the whole verification outcome of a fixed grid of
// attested chains, hashed to one constant.
//
// The grid is every registry app × {RAP, naive, TRACES} × {clean, one
// report dropped, one payload byte flipped and re-signed} × 10 seeds ×
// memo {off, cold, warm}: 3,510 verifications. Each result is reduced to
// verification_digest() (verdict, flags, detail, gaps, notes, replay
// completeness, failure, steps, events, findings and decoded evidence), and
// the digests are hashed in grid order. Any change to what the verifier
// decides on any of these chains — a verdict, a finding, a step count, the
// wording of a detail — moves the pinned hash. A change that means to move
// it must say why and re-pin it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/runner.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fault/campaign.hpp"
#include "verify/verifier.hpp"

namespace raptrack {
namespace {

using verify::Deployment;

enum class Method { Rap, Naive, Traces };
enum class Variant { Clean, DroppedReport, FlippedByte };

constexpr u32 kChunkBytes = 128;  ///< watermark / Secure log capacity
constexpr u64 kSeeds = 10;

/// A multi-report chain under a small MTB and a 128-byte watermark (RAP,
/// naive) or a 128-byte Secure log (TRACES).
std::vector<cfa::SignedReport> attest(const apps::PreparedApp& prepared,
                                      Method method, u64 seed,
                                      const cfa::Challenge& chal) {
  const sim::MachineConfig config{.mtb_buffer_bytes = 256};
  switch (method) {
    case Method::Rap:
      return apps::run_rap(prepared, seed, config,
                           {.watermark_bytes = kChunkBytes}, chal)
          .attestation.reports;
    case Method::Naive:
      return apps::run_naive(prepared, seed, config,
                             {.watermark_bytes = kChunkBytes}, chal)
          .attestation.reports;
    case Method::Traces:
      return apps::run_traces(prepared, seed, config,
                              {.traces_capacity_bytes = kChunkBytes}, chal)
          .attestation.reports;
  }
  return {};
}

std::shared_ptr<const Deployment> deploy(const apps::PreparedApp& prepared,
                                         Method method) {
  switch (method) {
    case Method::Rap:
      return Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                             prepared.built.entry);
    case Method::Naive:
      return Deployment::naive(prepared.built.program, prepared.built.entry);
    case Method::Traces:
      return Deployment::traces(prepared.traces.program,
                                prepared.traces.manifest, prepared.built.entry);
  }
  return nullptr;
}

/// The chain as the verifier receives it: the middle report dropped, or
/// one byte of the middle report's payload flipped and the report re-signed
/// (a legitimately keyed device reporting a path it did not take).
std::vector<cfa::SignedReport> damage(std::vector<cfa::SignedReport> chain,
                                      Variant variant, u64 seed) {
  if (variant == Variant::Clean || chain.empty()) return chain;
  const size_t mid = chain.size() / 2;
  if (variant == Variant::DroppedReport) {
    chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(mid));
    return chain;
  }
  cfa::SignedReport& report = chain[mid];
  if (!report.payload.empty()) {
    report.payload[(seed * 7919) % report.payload.size()] ^= 0x5a;
  }
  report.sign(apps::demo_key());
  return chain;
}

verify::VerificationResult verify_one(
    std::shared_ptr<const Deployment> deployment, Method method,
    const cfa::Challenge& chal, const std::vector<cfa::SignedReport>& chain,
    bool memo) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(std::move(deployment));
  verifier.set_expected_watermark(method == Method::Traces ? 0 : kChunkBytes);
  verifier.set_memo(memo);
  verifier.adopt_challenge(chal);
  return verifier.verify(chal, chain);
}

TEST(VerdictPin, DumpOfTheFullGridMatchesThePinnedDigest) {
  constexpr const char* kPinned =
      "2abfca923fb53c0a959afe70b0f113e1a78821af68e329f3a8d15f3aa3b37039";
  crypto::Sha256 dump;
  size_t results = 0;
  for (const auto& app : apps::app_registry()) {
    const apps::PreparedApp prepared = apps::prepare_app(app);
    for (const Method method : {Method::Rap, Method::Naive, Method::Traces}) {
      const auto shared = deploy(prepared, method);
      for (u64 seed = 1; seed <= kSeeds; ++seed) {
        const cfa::Challenge chal = fault::campaign_challenge(seed);
        const auto clean = attest(prepared, method, seed, chal);
        for (const Variant variant :
             {Variant::Clean, Variant::DroppedReport, Variant::FlippedByte}) {
          const auto chain = damage(clean, variant, seed);
          const auto fresh = deploy(prepared, method);  // cold memo
          const auto off = verify_one(shared, method, chal, chain, false);
          if (variant == Variant::Clean) {
            EXPECT_TRUE(off.accepted()) << app.name << " seed " << seed;
          }
          const crypto::Digest digests[] = {
              verify::verification_digest(off),
              verify::verification_digest(
                  verify_one(fresh, method, chal, chain, true)),
              verify::verification_digest(
                  verify_one(fresh, method, chal, chain, true)),
          };
          for (const auto& digest : digests) {
            dump.update(digest);
            ++results;
          }
          EXPECT_EQ(digests[1], digests[0]) << app.name << " seed " << seed;
          EXPECT_EQ(digests[2], digests[0]) << app.name << " seed " << seed;
        }
      }
    }
  }
  EXPECT_EQ(results, 3510u);
  EXPECT_EQ(hex_digest(dump.finalize()), kPinned);
}

}  // namespace
}  // namespace raptrack
