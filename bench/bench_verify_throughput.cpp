// Verifier-service throughput bench: report chains verified per second, off
// the wire, for the serial Verifier and the parallel VerifierFarm at 1/2/4/8
// workers, written as machine-readable JSON so CI and EXPERIMENTS.md can
// track the pipeline.
//
//   bench_verify_throughput [--quick] [--out FILE] [--metrics-out FILE]
//
// Every job starts from the same place a real verifier frontend does — the
// encoded wire bytes of one device's report chain — and runs to a terminal
// verdict. Modes per (app, attestation method, damage mix):
//
//   serial_shared  — fresh Verifier sharing one prebuilt Deployment cache:
//                    the single-thread hot path the farm runs per worker.
//                    Measured memo=off, and for naive/TRACES also memo=on
//                    (the sub-path memo; RAP replays never use it).
//   farm           — VerifierFarm::submit_wire at 1/2/4/8 *requested*
//                    workers: sharded scheduling, shared deployment+memo,
//                    batched multi-lane MACs. FarmOptions clamps requests to
//                    hardware_concurrency by default, so each row records
//                    both workers_requested and the effective worker count.
//
// Damage mixes cover the verdict taxonomy so the bench prices all three
// terminal paths: "clean" (Accept), "damaged" (dropped report →
// Inconclusive, partial reconstruction), "tampered" (MAC forgery → Reject,
// cheap early exit).
//
// Emits BENCH_verify_throughput.json with one row per (app, method, mix,
// mode, memo, workers):
//   { "app", "method", "mix", "mode", "memo", "workers",
//     "workers_requested", "chains", "reports", "wall_ns", "chains_per_s",
//     "reports_per_s", "segment_hit_rate", "efficiency" }
// plus top-level "host_cpus" (scaling efficiency is bounded by physical
// cores — on a 1-CPU host every multi-worker request clamps to one worker),
// "hmac_lanes" (SHA-256 lanes the batched MAC check dispatches to on this
// host) and "memo_enabled" (always true: the cache is always compiled in;
// the field keeps the schema of earlier baselines).
//
// Correctness tripwires, all fatal (ride the bench-smoke-verify ctest):
//   - every timed verification must reproduce the workload's probed verdict;
//   - per workload, the canonical verification digest must be byte-identical
//     memo-off vs memo-on-cold vs memo-on-warm (memoization may only change
//     wall time and cache telemetry, never the verification outcome);
//   - the emitted JSON must re-validate against the row schema.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha256_mb.hpp"
#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "verify/farm.hpp"
#include "verify/memo.hpp"

namespace {

using namespace raptrack;
using verify::Deployment;
using verify::DeviceId;
using verify::Verdict;
using verify::VerifierFarm;

struct Workload {
  std::string app;
  std::string method;  // "rap" | "naive" | "traces"
  std::string mix;     // "clean" | "damaged" | "tampered"
  std::shared_ptr<const Deployment> deployment;
  verify::VerifyConfig config;
  cfa::Challenge chal;
  std::vector<u8> wire;          ///< encoded chain, as received
  size_t reports_per_chain = 0;  ///< surviving reports in `wire`
  Verdict expected = Verdict::Accept;
};

struct Row {
  std::string app;
  std::string method;
  std::string mix;
  std::string mode;  // "serial_shared" | "farm"
  std::string memo = "off";
  size_t workers = 1;            ///< effective (post-clamp) worker count
  size_t workers_requested = 1;  ///< what FarmOptions asked for
  size_t chains = 0;
  size_t reports = 0;
  u64 wall_ns = 0;
  double chains_per_s = 0.0;
  double reports_per_s = 0.0;
  /// Segment splices / segment lookups inside the timed row. CI gates a
  /// floor on it for the repeated TRACES chain.
  double segment_hit_rate = 0.0;
  double efficiency = 1.0;     ///< farm: chains_per_s / (workers * w1 rate)
};

/// One verification of `w` against its shared deployment with memoization
/// toggled, returning the full result. Used for the probe and for the digest
/// byte-identity tripwire.
verify::VerificationResult verify_once(const Workload& w, bool memo) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(w.deployment);
  verifier.set_expected_watermark(w.config.expected_watermark);
  verifier.set_memo(memo);
  verifier.adopt_challenge(w.chal);
  const auto decoded = cfa::try_decode_report_chain(w.wire);
  if (!decoded.ok()) return {};
  return verifier.verify(w.chal, *decoded);
}

/// The reference verdict for a workload: one serial verification against its
/// shared deployment. Damage mixes are recorded against this (DropReport on
/// a multi-report chain lands Inconclusive, MacTamper lands Reject), and
/// every timed verification below must keep reproducing it.
Verdict probe(const Workload& w) { return verify_once(w, false).verdict; }

/// Memoization must be outcome-invisible: the canonical digest over the
/// verification result (verdict, findings, events, replay outcome — cache
/// telemetry excluded) has to be byte-identical with the memo off, with a
/// cold cache and with a warm cache. Fatal on divergence, so the
/// bench-smoke-verify ctest doubles as a differential check.
void check_memo_digests(const Workload& w) {
  w.deployment->memo().clear();
  const std::string off = hex_digest(verify::verification_digest(
      verify_once(w, false)));
  const std::string cold = hex_digest(verify::verification_digest(
      verify_once(w, true)));
  const std::string warm = hex_digest(verify::verification_digest(
      verify_once(w, true)));
  w.deployment->memo().clear();
  if (off != cold || off != warm) {
    std::fprintf(stderr,
                 "error: %s/%s/%s memoized digest diverged\n  off  %s\n"
                 "  cold %s\n  warm %s\n",
                 w.app.c_str(), w.method.c_str(), w.mix.c_str(), off.c_str(),
                 cold.c_str(), warm.c_str());
    std::exit(1);
  }
}

/// Build the (app x method x damage-mix) workload grid: attest each app once
/// under each method, then mutate the clean chain with the fault injectors
/// for the damage mixes.
std::vector<Workload> build_workloads(bool quick) {
  std::vector<Workload> out;
  const std::vector<std::string> names =
      quick ? std::vector<std::string>{"gps"}
            : std::vector<std::string>{"gps", "temperature"};
  for (const std::string& name : names) {
    const apps::PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
    const cfa::Challenge chal = fault::campaign_challenge(1);

    struct MethodRun {
      const char* method;
      std::shared_ptr<const Deployment> deployment;
      verify::VerifyConfig config;
      std::vector<cfa::SignedReport> chain;
    };
    std::vector<MethodRun> runs;

    {
      // Same shape as the fault campaign: small MTB, chunked chain.
      cfa::SessionOptions options;
      options.watermark_bytes = 128;
      sim::MachineConfig config;
      config.mtb_buffer_bytes = 256;
      MethodRun run{"rap",
                    Deployment::rap(prepared.rap.program,
                                    prepared.rap.manifest,
                                    prepared.built.entry),
                    {},
                    apps::run_rap(prepared, 42, config, options, chal)
                        .attestation.reports};
      run.config.expected_watermark = options.watermark_bytes;
      runs.push_back(std::move(run));
    }
    {
      cfa::SessionOptions options;
      options.watermark_bytes = 1024;
      sim::MachineConfig config;
      config.mtb_buffer_bytes = 4096;  // the paper's 4KB MTB
      runs.push_back({"naive",
                      Deployment::naive(prepared.built.program,
                                        prepared.built.entry),
                      {},
                      apps::run_naive(prepared, 42, config, options, chal)
                          .attestation.reports});
    }
    runs.push_back({"traces",
                    Deployment::traces(prepared.traces.program,
                                       prepared.traces.manifest,
                                       prepared.built.entry),
                    {},
                    apps::run_traces(prepared, 42, {}, {}, chal)
                        .attestation.reports});

    for (MethodRun& run : runs) {
      const auto push = [&](const char* mix,
                            std::vector<cfa::SignedReport> chain) {
        Workload w;
        w.app = name;
        w.method = run.method;
        w.mix = mix;
        w.deployment = run.deployment;
        w.config = run.config;
        w.chal = chal;
        w.reports_per_chain = chain.size();
        w.wire = cfa::encode_report_chain(chain);
        w.expected = probe(w);
        check_memo_digests(w);
        out.push_back(std::move(w));
      };

      push("clean", run.chain);
      if (out.back().expected != Verdict::Accept) {
        std::fprintf(stderr, "error: %s/%s clean chain does not verify\n",
                     name.c_str(), run.method);
        std::exit(1);
      }

      std::vector<cfa::SignedReport> damaged = run.chain;
      fault::FaultPlan drop(7);
      drop.add(fault::InjectorKind::DropReport);
      fault::apply_transport_faults(drop, damaged);
      push("damaged", std::move(damaged));

      std::vector<cfa::SignedReport> tampered = run.chain;
      fault::FaultPlan mac(7);
      mac.add(fault::InjectorKind::MacTamper);
      fault::apply_transport_faults(mac, tampered);
      push("tampered", std::move(tampered));
      if (out.back().expected != Verdict::Reject) {
        std::fprintf(stderr, "error: %s/%s tampered chain not rejected\n",
                     name.c_str(), run.method);
        std::exit(1);
      }
    }
  }

  return out;
}

/// Memo-lookup hit rate across a timed region, from the deployment cache's
/// counter deltas. Zero when the region issued no lookups (memo off, or a
/// RAP deployment, whose replays never use the cache).
struct MemoDelta {
  verify::MemoStats before;
  explicit MemoDelta(const Workload& w) : before(w.deployment->memo().stats()) {}
  double segment_hit_rate(const Workload& w) const {
    const verify::MemoStats after = w.deployment->memo().stats();
    const u64 hits = after.hits - before.hits;
    const u64 lookups = hits + (after.misses - before.misses);
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// One serial measurement: `chains` verifications of `w`, each starting from
/// the wire bytes with a fresh Verifier (so every chain gets an outstanding
/// challenge, exactly like distinct devices reporting in). Memo-on rows
/// start from a cleared cache, so the reported hit rate is what the repeated
/// workload itself earned.
Row measure_serial(const Workload& w, bool memo, size_t chains, int reps) {
  Row row;
  row.app = w.app;
  row.method = w.method;
  row.mix = w.mix;
  row.mode = "serial_shared";
  row.memo = memo ? "on" : "off";
  row.chains = chains;
  row.reports = chains * w.reports_per_chain;
  row.wall_ns = ~0ull;
  if (memo) w.deployment->memo().clear();
  const MemoDelta delta(w);
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < chains; ++i) {
      verify::Verifier verifier(apps::demo_key());
      verifier.expect(w.deployment);
      verifier.set_expected_watermark(w.config.expected_watermark);
      verifier.set_memo(memo);
      verifier.adopt_challenge(w.chal);
      const auto decoded = cfa::try_decode_report_chain(w.wire);
      const verify::VerificationResult result =
          decoded.ok() ? verifier.verify(w.chal, *decoded)
                       : verify::VerificationResult{};
      if (result.verdict != w.expected) {
        std::fprintf(stderr, "error: %s/%s serial verdict drifted\n",
                     w.app.c_str(), w.mix.c_str());
        std::exit(1);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    row.wall_ns = std::min(
        row.wall_ns,
        static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  }
  row.segment_hit_rate = delta.segment_hit_rate(w);
  if (row.wall_ns == 0) row.wall_ns = 1;
  row.chains_per_s = static_cast<double>(chains) * 1e9 /
                     static_cast<double>(row.wall_ns);
  row.reports_per_s = static_cast<double>(row.reports) * 1e9 /
                      static_cast<double>(row.wall_ns);
  return row;
}

/// One farm measurement: `chains` devices provisioned up front (sharing the
/// workload's Deployment and its memo cache), then every wire chain
/// submitted and drained. Timed region = submission + verification, the
/// steady-state service loop. `workers` is the *request*; the row records
/// the post-clamp count the farm actually spawned.
Row measure_farm(const Workload& w, size_t workers, size_t chains, int reps) {
  Row row;
  row.app = w.app;
  row.method = w.method;
  row.mix = w.mix;
  row.mode = "farm";
  // The farm runs the production VerifyConfig defaults: the sub-path memo
  // is on, and RAP replays never use it.
  row.memo = w.method == "rap" ? "off" : "on";
  row.workers_requested = workers;
  row.chains = chains;
  row.reports = chains * w.reports_per_chain;
  row.wall_ns = ~0ull;
  const MemoDelta delta(w);
  for (int rep = 0; rep < reps; ++rep) {
    VerifierFarm farm(apps::demo_key(), {.workers = workers});
    row.workers = farm.worker_count();
    for (DeviceId device = 0; device < chains; ++device) {
      farm.provision(device, w.deployment, w.config);
      farm.adopt_challenge(device, w.chal);
    }
    std::vector<std::future<verify::VerificationResult>> futures;
    futures.reserve(chains);
    const auto t0 = std::chrono::steady_clock::now();
    for (DeviceId device = 0; device < chains; ++device) {
      futures.push_back(farm.submit_wire(device, w.chal, w.wire));
    }
    farm.drain();
    const auto t1 = std::chrono::steady_clock::now();
    for (auto& future : futures) {
      if (future.get().verdict != w.expected) {
        std::fprintf(stderr, "error: %s/%s farm verdict drifted\n",
                     w.app.c_str(), w.mix.c_str());
        std::exit(1);
      }
    }
    row.wall_ns = std::min(
        row.wall_ns,
        static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  }
  row.segment_hit_rate = delta.segment_hit_rate(w);
  if (row.wall_ns == 0) row.wall_ns = 1;
  row.chains_per_s = static_cast<double>(chains) * 1e9 /
                     static_cast<double>(row.wall_ns);
  row.reports_per_s = static_cast<double>(row.reports) * 1e9 /
                      static_cast<double>(row.wall_ns);
  return row;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string render_json(const std::vector<Row>& rows, unsigned host_cpus,
                        bool release, bool quick) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"verify_throughput\",\n";
  os << "  \"release\": " << (release ? "true" : "false") << ",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cpus\": " << host_cpus << ",\n";
  os << "  \"hmac_lanes\": " << crypto::sha256_mb_lanes() << ",\n";
  os << "  \"memo_enabled\": " << (verify::kMemoEnabled ? "true" : "false")
     << ",\n";
  os << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"app\": \"" << json_escape(r.app) << "\", \"method\": \""
       << json_escape(r.method) << "\", \"mix\": \"" << json_escape(r.mix)
       << "\", \"mode\": \"" << r.mode << "\", \"memo\": \"" << r.memo
       << "\", \"workers\": " << r.workers
       << ", \"workers_requested\": " << r.workers_requested
       << ", \"chains\": " << r.chains
       << ", \"reports\": " << r.reports << ", \"wall_ns\": " << r.wall_ns
       << ", \"chains_per_s\": " << r.chains_per_s
       << ", \"reports_per_s\": " << r.reports_per_s
       << ", \"segment_hit_rate\": " << r.segment_hit_rate
       << ", \"efficiency\": " << r.efficiency << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal schema check over the emitted text (same drift-tripwire style as
/// bench_throughput): every row carries all fourteen keys, modes and memo
/// states are from the known sets, wall_ns is nonzero, and the top level
/// carries the bench id, host_cpus, hmac_lanes and memo_enabled.
bool validate(const std::string& text, size_t expected_rows,
              std::string& error) {
  for (const char* key :
       {"\"bench\": \"verify_throughput\"", "\"host_cpus\": ",
        "\"hmac_lanes\": ", "\"memo_enabled\": ", "\"release\": ",
        "\"quick\": ", "\"rows\": ["}) {
    if (text.find(key) == std::string::npos) {
      error = std::string("missing top-level key: ") + key;
      return false;
    }
  }
  size_t rows = 0;
  size_t at = 0;
  while ((at = text.find("{\"app\": ", at)) != std::string::npos) {
    const size_t end = text.find('}', at);
    if (end == std::string::npos) {
      error = "unterminated row object";
      return false;
    }
    const std::string row = text.substr(at, end - at + 1);
    for (const char* key :
         {"\"app\": \"", "\"method\": \"", "\"mix\": \"", "\"mode\": \"",
          "\"memo\": \"", "\"workers\": ", "\"workers_requested\": ",
          "\"chains\": ", "\"reports\": ", "\"wall_ns\": ",
          "\"chains_per_s\": ", "\"reports_per_s\": ",
          "\"segment_hit_rate\": ",
          "\"efficiency\": "}) {
      if (row.find(key) == std::string::npos) {
        error = "row " + std::to_string(rows) + " missing key " + key;
        return false;
      }
    }
    if (row.find("\"mode\": \"serial_shared\"") == std::string::npos &&
        row.find("\"mode\": \"farm\"") == std::string::npos) {
      error = "row " + std::to_string(rows) + " has an unknown mode";
      return false;
    }
    if (row.find("\"memo\": \"on\"") == std::string::npos &&
        row.find("\"memo\": \"off\"") == std::string::npos) {
      error = "row " + std::to_string(rows) + " has an unknown memo state";
      return false;
    }
    const u64 wall = std::strtoull(
        row.c_str() + row.find("\"wall_ns\": ") + strlen("\"wall_ns\": "),
        nullptr, 10);
    if (wall == 0) {
      error = "row " + std::to_string(rows) + " has wall_ns == 0";
      return false;
    }
    ++rows;
    at = end;
  }
  if (rows != expected_rows) {
    error = "expected " + std::to_string(expected_rows) + " rows, found " +
            std::to_string(rows);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_verify_throughput.json";
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--metrics-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

#ifdef RAP_RELEASE_BUILD
  const bool release = true;
#else
  const bool release = false;
  std::fprintf(stderr,
               "warning: not a RAP_RELEASE build — wall-clock numbers are "
               "not representative (use: cmake --preset release)\n");
#endif

  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const size_t chains = quick ? 16 : 256;
  const int reps = quick ? 1 : 5;
  const size_t worker_counts[] = {1, 2, 4, 8};

  std::vector<Row> all;
  for (const Workload& w : build_workloads(quick)) {
    Row shared_off = measure_serial(w, /*memo=*/false, chains, reps);
    std::printf("%-12s %-7s %-9s serial %9.0f chains/s", w.app.c_str(),
                w.method.c_str(), w.mix.c_str(), shared_off.chains_per_s);
    const double off_rate = shared_off.chains_per_s;
    all.push_back(std::move(shared_off));
    if (w.method != "rap") {
      Row shared_on = measure_serial(w, /*memo=*/true, chains, reps);
      std::printf("   memo %9.0f chains/s (%.2fx, hit %.2f)",
                  shared_on.chains_per_s, shared_on.chains_per_s / off_rate,
                  shared_on.segment_hit_rate);
      all.push_back(std::move(shared_on));
    }
    std::printf("\n");

    double w1_rate = 0.0;
    for (const size_t workers : worker_counts) {
      Row row = measure_farm(w, workers, chains, reps);
      if (workers == 1) w1_rate = row.chains_per_s;
      row.efficiency = w1_rate > 0.0 ? row.chains_per_s /
                                           (static_cast<double>(row.workers) *
                                            w1_rate)
                                     : 1.0;
      std::printf("%-12s %-7s %-9s farm w%zu (req %zu) %12.0f chains/s "
                  "%12.0f reports/s  eff %.2f  hit %.2f\n",
                  w.app.c_str(), w.method.c_str(), w.mix.c_str(), row.workers,
                  row.workers_requested, row.chains_per_s, row.reports_per_s,
                  row.efficiency, row.segment_hit_rate);
      all.push_back(std::move(row));
    }
  }
  std::printf("host cpus: %u, hmac lanes: %zu%s\n", host_cpus,
              crypto::sha256_mb_lanes(),
              host_cpus < 8 ? "  (farm worker requests above the core count "
                              "clamp to hardware_concurrency; see "
                              "workers_requested vs workers per row)"
                            : "");

  const std::string json = render_json(all, host_cpus, release, quick);
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
  }

  // Self-validate what actually landed on disk.
  std::ifstream in(out_path);
  std::stringstream readback;
  readback << in.rdbuf();
  std::string error;
  if (!validate(readback.str(), all.size(), error)) {
    std::fprintf(stderr, "error: %s failed schema validation: %s\n",
                 out_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows, schema ok)\n", out_path.c_str(),
              all.size());

  // Farm/verify counters (queue depth, mailbox waits, verdict tallies,
  // memo hits/evictions) in JSON-lines, same registry the tests assert on.
  if (!metrics_path.empty()) {
    if (!raptrack::obs::kEnabled) {
      std::fprintf(stderr,
                   "warning: --metrics-out requested but this is a "
                   "RAP_OBS=OFF build; writing an empty metrics file\n");
    }
    std::ofstream metrics(metrics_path);
    if (!metrics) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    metrics << raptrack::obs::registry().scrape().json_lines();
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
