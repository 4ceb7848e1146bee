// Observability-layer tests: registry correctness (counter/gauge/histogram
// math, striped-shard aggregation, scrape-during-update under threads), span
// nesting/ordering with an injected clock, JSON-lines golden output, and the
// build-flavour differential — a canonical deterministic attestation whose
// wire bytes + verdict hash to the same hard-coded digest in RAP_OBS=ON and
// RAP_OBS=OFF builds, proving instrumentation never perturbs the protocol.
//
// Runs under the `observability` ctest label: the tsan preset includes it,
// so the striped-shard write path is TSan-checked alongside the farm tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "cfa/report.hpp"
#include "crypto/sha256.hpp"
#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/verifier.hpp"

namespace raptrack {
namespace {

using obs::Registry;
using obs::Sample;
using obs::Snapshot;
using obs::SpanTracer;

std::string hex_digest(const crypto::Digest& digest) {
  std::string out;
  char buf[3];
  for (const u8 byte : digest) {
    std::snprintf(buf, sizeof buf, "%02x", byte);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry math (local instances: independent of the global registry that
// the instrumented modules feed).

TEST(ObsRegistry, CounterAccumulatesAcrossHandlesAndScrapes) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Counter a = reg.counter("test.hits");
  obs::Counter b = reg.counter("test.hits");  // same underlying metric
  a.inc();
  a.inc(41);
  b.inc(8);
  EXPECT_EQ(reg.scrape().value("test.hits"), 50u);
  a.inc();
  EXPECT_EQ(reg.scrape().value("test.hits"), 51u);
  EXPECT_EQ(reg.scrape().value("test.never_touched"), 0u);
}

TEST(ObsRegistry, GaugeFoldsWithMax) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Gauge gauge = reg.gauge("test.hwm");
  gauge.set_max(7);
  gauge.set_max(3);  // lower: must not regress the high-water mark
  EXPECT_EQ(reg.scrape().value("test.hwm"), 7u);
  gauge.set_max(19);
  EXPECT_EQ(reg.scrape().value("test.hwm"), 19u);
}

TEST(ObsRegistry, HistogramBucketMath) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Histogram h = reg.histogram("test.latency", {10, 100, 1000});
  for (const u64 v : {0ull, 10ull, 11ull, 100ull, 500ull, 5000ull}) {
    h.observe(v);
  }
  const Snapshot snap = reg.scrape();
  const Sample* s = snap.find("test.latency");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, Sample::Kind::Histogram);
  EXPECT_EQ(s->count, 6u);
  EXPECT_EQ(s->sum, 0u + 10 + 11 + 100 + 500 + 5000);
  ASSERT_EQ(s->bounds, (std::vector<u64>{10, 100, 1000}));
  // Bounds are inclusive upper limits; 5000 overflows into +Inf.
  EXPECT_EQ(s->counts, (std::vector<u64>{2, 2, 1, 1}));
}

TEST(ObsRegistry, RegistrationConflictsThrow) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  reg.counter("test.name");
  EXPECT_THROW(reg.gauge("test.name"), Error);
  EXPECT_THROW(reg.histogram("test.name", {1}), Error);
  reg.histogram("test.h", {1, 2});
  EXPECT_THROW(reg.histogram("test.h", {1, 3}), Error);  // different bounds
  EXPECT_NO_THROW(reg.histogram("test.h", {1, 2}));      // same bounds: ok
  EXPECT_THROW(reg.histogram("test.bad", {5, 5}), Error);  // not increasing
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsHandlesLive) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Counter c = reg.counter("test.c");
  obs::Gauge g = reg.gauge("test.g");
  obs::Histogram h = reg.histogram("test.h", {10});
  c.inc(5);
  g.set_max(5);
  h.observe(5);
  reg.reset();
  Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.value("test.c"), 0u);
  EXPECT_EQ(snap.value("test.g"), 0u);
  EXPECT_EQ(snap.find("test.h")->count, 0u);
  // Old handles keep writing to the (zeroed) metric.
  c.inc(2);
  g.set_max(3);
  h.observe(1);
  snap = reg.scrape();
  EXPECT_EQ(snap.value("test.c"), 2u);
  EXPECT_EQ(snap.value("test.g"), 3u);
  EXPECT_EQ(snap.find("test.h")->count, 1u);
}

// ---------------------------------------------------------------------------
// Shard aggregation and scrape-during-update under real threads. The tsan
// preset builds this test, so the relaxed-atomic write path is TSan-checked.

TEST(ObsRegistryThreads, ConcurrentIncrementsAggregateExactly) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Counter counter = reg.counter("test.concurrent");
  obs::Histogram hist = reg.histogram("test.concurrent_h", {64, 4096});
  constexpr size_t kThreads = 8;
  constexpr u64 kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::Counter mine = reg.counter("test.concurrent");  // own handle
      for (u64 i = 0; i < kPerThread; ++i) {
        mine.inc();
        if ((i & 1023) == 0) hist.observe(t);
      }
      (void)counter;
    });
  }
  for (auto& thread : threads) thread.join();
  const Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.value("test.concurrent"), kThreads * kPerThread);
  EXPECT_EQ(snap.find("test.concurrent_h")->count,
            kThreads * ((kPerThread + 1023) / 1024));
}

TEST(ObsRegistryThreads, ScrapeDuringUpdateIsSafeAndMonotonic) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  obs::Counter counter = reg.counter("test.racing");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr size_t kWriters = 4;
  constexpr u64 kPerWriter = 50'000;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      obs::Counter mine = reg.counter("test.racing");
      for (u64 i = 0; i < kPerWriter; ++i) mine.inc();
    });
  }
  u64 last = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const u64 now = reg.scrape().value("test.racing");
    EXPECT_GE(now, last) << "counter appeared to run backwards";
    last = now;
    if (now == kWriters * kPerWriter) stop = true;
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(reg.scrape().value("test.racing"), kWriters * kPerWriter);
  (void)counter;
}

// ---------------------------------------------------------------------------
// JSON-lines golden output.

TEST(ObsSnapshot, JsonLinesGolden) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  Registry reg;
  reg.counter("zeta.count").inc(3);
  reg.gauge("alpha.level").set_max(9);
  obs::Histogram h = reg.histogram("mid.hist", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(25);
  // Snapshot sorts by name, so the golden text is fully deterministic.
  EXPECT_EQ(reg.scrape().json_lines(),
            "{\"type\":\"gauge\",\"name\":\"alpha.level\",\"value\":9}\n"
            "{\"type\":\"histogram\",\"name\":\"mid.hist\",\"count\":3,"
            "\"sum\":45,\"bounds\":[10,20],\"counts\":[1,1,1]}\n"
            "{\"type\":\"counter\",\"name\":\"zeta.count\",\"value\":3}\n");
  const std::string dump = reg.scrape().dump();
  EXPECT_NE(dump.find("alpha.level"), std::string::npos);
  EXPECT_NE(dump.find("zeta.count   3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span tracer: nesting, ordering, golden JSON with an injected clock.

u64 g_fake_clock = 0;
u64 fake_clock() { return ++g_fake_clock; }

TEST(ObsTracer, SpanNestingAndGoldenJson) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  SpanTracer tracer;
  g_fake_clock = 0;
  tracer.set_clock(&fake_clock);
  const obs::SessionId session = tracer.begin_session("attest.test");
  {
    auto outer = tracer.span(session, "app_run");  // start=1
    {
      auto inner = tracer.span(session, "log_drain");  // start=2
      inner.attr("bytes", 96);
    }  // end=3
  }  // end=4
  {
    auto tail = tracer.span(session, "sign_final");  // start=5
  }  // end=6

  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 3u);
  // Commit order: inner drain first, then its parent, then the tail span.
  EXPECT_EQ(records[0].name, "log_drain");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].name, "app_run");
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(records[2].name, "sign_final");
  EXPECT_EQ(records[2].depth, 0u);
  EXPECT_EQ(records[2].seq, 2u);
  EXPECT_EQ(records[1].start, 1u);
  EXPECT_EQ(records[1].end, 4u);

  const std::string prefix =
      "{\"type\":\"span\",\"session\":" + std::to_string(session);
  EXPECT_EQ(tracer.json_lines(),
            prefix + ",\"kind\":\"attest.test\",\"name\":\"log_drain\","
                     "\"seq\":0,\"depth\":1,\"start\":2,\"end\":3,"
                     "\"attrs\":{\"bytes\":96}}\n" +
            prefix + ",\"kind\":\"attest.test\",\"name\":\"app_run\","
                     "\"seq\":1,\"depth\":0,\"start\":1,\"end\":4}\n" +
            prefix + ",\"kind\":\"attest.test\",\"name\":\"sign_final\","
                     "\"seq\":2,\"depth\":0,\"start\":5,\"end\":6}\n");

  const std::string dump = tracer.dump();
  EXPECT_NE(dump.find("session " + std::to_string(session) + " (attest.test)"),
            std::string::npos);
  EXPECT_NE(dump.find("    log_drain"), std::string::npos);  // depth-indented
  EXPECT_NE(dump.find("bytes=96"), std::string::npos);
}

TEST(ObsTracer, SessionsInterleaveIndependently) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  SpanTracer tracer;
  tracer.set_clock(&fake_clock);
  const obs::SessionId s1 = tracer.begin_session("verify_chain");
  const obs::SessionId s2 = tracer.begin_session("verify_chain");
  ASSERT_NE(s1, s2);
  auto a = tracer.span(s1, "mac_check");
  auto b = tracer.span(s2, "mac_check");
  {
    auto c = tracer.span(s2, "replay");  // nested in s2, independent of s1
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].session, s2);
  EXPECT_EQ(records[0].depth, 1u);  // under s2's still-open mac_check only
  EXPECT_EQ(records[0].seq, 0u);
}

TEST(ObsTracer, ResetDropsOpenScopesWithoutCrashing) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  SpanTracer tracer;
  tracer.set_clock(&fake_clock);
  const obs::SessionId session = tracer.begin_session("attest.test");
  {
    auto span = tracer.span(session, "stale");
    tracer.reset();  // scope outlives the reset: must commit nowhere
  }
  EXPECT_TRUE(tracer.records().empty());
  EXPECT_EQ(tracer.json_lines(), "");
}

// ---------------------------------------------------------------------------
// Global wiring: one end-to-end attestation + verification must move the
// instrumented counters coherently.

TEST(ObsIntegration, AttestAndVerifyFeedTheGlobalRegistry)
{
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  obs::registry().reset();

  // syringe exercises the loop-condition SVC gateway, so the tz counters
  // move too (gps runs entirely without secure-world service calls).
  const apps::PreparedApp prepared =
      apps::prepare_app(apps::app_by_name("syringe"));
  const fault::CampaignOptions options;
  const fault::AttestedRun run = fault::attest_once(prepared, options);
  ASSERT_TRUE(run.functional_ok);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  verifier.set_expected_watermark(options.watermark_bytes);
  verifier.adopt_challenge(run.chal);
  const verify::VerificationResult result = verifier.verify(run.chal, run.reports);
  ASSERT_EQ(result.verdict, verify::Verdict::Accept);

  const Snapshot snap = obs::registry().scrape();
  EXPECT_EQ(snap.value("cfa.sessions.rap"), 1u);
  EXPECT_GT(snap.value("sim.instructions"), 0u);
  EXPECT_EQ(snap.value("sim.instructions"),
            snap.value("sim.fast_dispatches") +
                snap.value("sim.oracle_dispatches"));
  EXPECT_GT(snap.value("trace.cflog_entries"), 0u);
  EXPECT_EQ(snap.value("trace.cflog_bytes"),
            snap.value("trace.cflog_entries") * 8);
  EXPECT_GT(snap.value("trace.mtb_tstart_events"), 0u);
  // The §IV-E watermark fired once per partial report.
  EXPECT_EQ(snap.value("trace.watermark_events"),
            snap.value("cfa.partial_reports"));
  EXPECT_GT(snap.value("tz.svc_calls"), 0u);
  EXPECT_EQ(snap.value("tz.svc_calls"), snap.value("tz.world_switches"));
  EXPECT_EQ(snap.value("verify.chains"), 1u);
  EXPECT_EQ(snap.value("verify.verdict.accept"), 1u);
  EXPECT_EQ(snap.value("verify.verdict.reject"), 0u);
  EXPECT_GT(snap.value("verify.replay_steps"), 0u);
  // The prover's session timeline exists with the protocol phases in order.
  bool saw_h_mem = false, saw_run = false, saw_sign = false;
  for (const auto& record : obs::tracer().records()) {
    if (record.session_kind != "attest.rap") continue;
    if (record.name == "h_mem") saw_h_mem = true;
    if (record.name == "app_run") saw_run = true;
    if (record.name == "sign_final") saw_sign = true;
  }
  EXPECT_TRUE(saw_h_mem);
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_sign);
}

// ---------------------------------------------------------------------------
// Build-flavour differential: the canonical attestation below is fully
// deterministic, and this hash covers every byte the device would transmit
// (the encoded report chain = CF_Log evidence + MACs) plus the verifier's
// verdict and detail string. The constant is asserted identically in
// RAP_OBS=ON and RAP_OBS=OFF builds — if instrumentation ever perturbed
// execution, logging, or verdicts, exactly one flavour would fail.

TEST(ObsDifferential, CanonicalAttestationDigestMatchesBothBuildFlavours) {
  const apps::PreparedApp prepared =
      apps::prepare_app(apps::app_by_name("gps"));
  const fault::CampaignOptions options;
  const fault::AttestedRun run = fault::attest_once(prepared, options);
  ASSERT_TRUE(run.functional_ok);
  ASSERT_GT(run.reports.size(), 2u);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry);
  verifier.set_expected_watermark(options.watermark_bytes);
  verifier.adopt_challenge(run.chal);
  const verify::VerificationResult result =
      verifier.verify(run.chal, run.reports);
  EXPECT_EQ(result.verdict, verify::Verdict::Accept);

  std::vector<u8> transcript = cfa::encode_report_chain(run.reports);
  transcript.push_back(static_cast<u8>(result.verdict));
  transcript.insert(transcript.end(), result.detail.begin(),
                    result.detail.end());
  EXPECT_EQ(
      hex_digest(crypto::Sha256::hash(transcript)),
      "2b7345b9a4ec8000e1016041267e929ad2ed189eb881229425dc02fa54b640a6")
      << "canonical transcript drifted (RAP_OBS="
      << (obs::kEnabled ? "ON" : "OFF") << " build)";
}

}  // namespace
}  // namespace raptrack
