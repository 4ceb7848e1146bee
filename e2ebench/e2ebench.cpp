// End-to-end attest -> verdict benchmark: one fleet of simulated devices
// attests, its evidence crosses to the verifier side, and every chain is
// followed to a terminal verdict.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--workers 3] [--in-flight 4] [--default-seed N]
//            [--held-out-seed N] [--trace-out DIR]
//
// One run:
//   1. set-up: prepare_app for every app the workload uses, Deployment builds
//      and farm provisioning, repeated kSetupReps times (setup_s = median);
//   2. warm-up: one untimed batch whose input seeds are not in the timed set,
//      so the deployment memo and allocator caches fill first;
//   3. timed batches until --seconds have passed (at least kFixedBatches).
//      A batch attests kBatch devices on the main thread (attest phase), then
//      hands the chains to the verifier side in a closed loop with
//      --in-flight chains outstanding: the next chain is handed over only when
//      one in flight reaches its verdict (verify phase).
//
// Every run is refereed: each attestation's golden-model check must hold,
// each verdict must match the class its chain was built for, and for the
// first chain of every (app, method, class) the farm's verdict digest must be
// byte-identical to a serial Verifier's (a divergence aborts the run).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced batches: traced batches record benchmark spans around every call
// into a layer's public function, and the per-layer metrics come from those
// spans, from the spans and counters the program records itself
// (obs::tracer(), obs::registry()), and from the layers' stats APIs. The
// untraced/traced rate difference is reported as the tracing overhead. The
// benchmark's spans are kept in memory and written to --trace-out at exit.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "apps/runner.hpp"
#include "cfa/provers.hpp"
#include "cfa/report.hpp"
#include "crypto/sha256_mb.hpp"
#include "fault/injector.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/deployment.hpp"
#include "verify/farm.hpp"
#include "verify/memo.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace raptrack;
using verify::Verdict;

#if defined(RAP_E2EBENCH_RELEASE) && defined(NDEBUG)
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

// -- fixed workload shape ------------------------------------------------------

/// Chains per batch: a multiple of 13 apps x 2 methods and of 5 apps, so
/// every batch covers each (app, method) equally.
constexpr size_t kBatch = 260;
/// Batches every run completes. The deterministic metrics
/// (device_cycles_per_attest, evidence_bytes_per_chain) and the RSS sample
/// are taken over exactly these, so they do not depend on host speed; four
/// batches also give the >= 1000 latency samples the p99 needs.
constexpr size_t kFixedBatches = 4;
/// Set-up is short (tens of ms), so it is repeated and the median reported.
constexpr size_t kSetupReps = 9;
/// Provisioned farm devices per deployed image.
constexpr u64 kDevicesPerImage = 16;
/// The paper's 4 KB MTB with a 1 KB watermark (RAP and naive MTB).
constexpr u32 kMtbBytes = 4096;
constexpr u32 kWatermarkBytes = 1024;
constexpr u32 kLinkLossPermille = 100;
constexpr u32 kLinkTamperPermille = 20;
constexpr u64 kMaxSessionTicks = 100'000;
/// Hard stop for the timed loop, far inside the 180 s run budget.
constexpr double kMaxTimedSeconds = 120.0;

enum class Method : u8 { Rap, Naive, Traces };
constexpr size_t kMethods = 3;

const char* method_name(Method method) {
  switch (method) {
    case Method::Rap: return "rap";
    case Method::Naive: return "naive";
    case Method::Traces: return "traces";
  }
  return "?";
}

/// The class a chain is built for, and so the verdict it must get.
enum class Damage : u8 { Clean, Drop, Tamper };

Verdict expected_verdict(Damage damage) {
  switch (damage) {
    case Damage::Clean: return Verdict::Accept;
    case Damage::Drop: return Verdict::Inconclusive;
    case Damage::Tamper: return Verdict::Reject;
  }
  return Verdict::Reject;
}

struct Workload {
  const char* name;
  std::vector<std::string> apps;  ///< empty = the whole registry
  std::vector<Method> methods;
  bool damage;     ///< 10% DropReport (>= 2 reports), 10% MacTamper
  u32 seed_pool;   ///< input seeds per app; 0 = a fresh seed per attestation
  bool link;       ///< deliver over ProverEndpoint / DuplexLink / endpoint
};

// Why each workload exists is recorded in e2ebench/README.md.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> list = {
      {"rap_fleet", {}, {Method::Rap}, true, 0, false},
      {"traces_naive_repeat", {}, {Method::Traces, Method::Naive}, false, 64,
       false},
      {"rap_lossy_link",
       {"ultrasonic", "geiger", "syringe", "temperature", "gps"},
       {Method::Rap},
       false,
       0,
       true},
  };
  return list;
}

// -- small helpers -------------------------------------------------------------

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

[[noreturn]] void fail(const char* fmt, ...) {
  std::fprintf(stderr, "error: ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of an already sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Independent deterministic draws: one stream per input kind, indexed by
/// the chain's position, all keyed by the workload seed.
enum Stream : u64 {
  kInputStream = 1,
  kPickStream,
  kDamageStream,
  kChalStream,
  kPlanStream,
  kLinkStream,
};

u64 draw(u64 seed, u64 stream, u64 index) {
  SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ull) ^
                 (index * 0xd1b54a32d192ed03ull));
  mix.next();
  return mix.next();
}

// -- benchmark span recorder -----------------------------------------------------

/// Spans the benchmark records around its own calls into each layer. Main
/// thread only; kept in memory and written out at exit.
enum SpanName : u8 {
  kSpanPrepareApp,
  kSpanDeployment,
  kSpanAttestation,
  kSpanMachineSetup,
  kSpanProverAttest,
  kSpanEncode,
  kSpanAttestPhase,
  kSpanVerifyPhase,
  kSpanHandover,
  kSpanProverTick,
  kSpanVerifierTick,
  kSpanNames,
};

constexpr const char* kSpanNameText[kSpanNames] = {
    "apps.prepare_app",
    "verify.Deployment",
    "attestation",
    "sim.Machine+App::setup",
    "cfa.Prover::attest",
    "cfa.encode_report_chain",
    "phase.attest",
    "phase.verify",
    "farm.submit_wire",
    "net.ProverEndpoint::on_tick",
    "net.VerifierEndpoint::on_tick",
};

class Recorder {
 public:
  struct Span {
    u8 name = 0;
    i32 parent = -1;
    u64 start = 0;
    u64 end = 0;
  };

  class Scope {
   public:
    Scope(Recorder* recorder, i32 index) : recorder_(recorder), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (recorder_ == nullptr) return;
      Span& span = recorder_->spans_[static_cast<size_t>(index_)];
      span.end = now_ns();
      recorder_->open_ = span.parent;
    }

   private:
    Recorder* recorder_;
    i32 index_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  Scope span(SpanName name) {
    if (!enabled_) return Scope(nullptr, -1);
    const i32 index = static_cast<i32>(spans_.size());
    spans_.push_back({name, open_, now_ns(), 0});
    open_ = index;
    return Scope(this, index);
  }

  /// Per-name totals: span count and summed duration.
  struct Totals {
    u64 count = 0;
    u64 total_ns = 0;
  };
  std::vector<Totals> totals() const {
    std::vector<Totals> out(kSpanNames);
    for (const Span& span : spans_) {
      ++out[span.name].count;
      out[span.name].total_ns += span.end - span.start;
    }
    return out;
  }

  void write_jsonl(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) fail("cannot write %s", path.c_str());
    out << header << "\n";
    const u64 origin = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << kSpanNameText[span.name]
          << "\",\"parent\":" << span.parent
          << ",\"start_ns\":" << span.start - origin
          << ",\"dur_ns\":" << span.end - span.start << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  i32 open_ = -1;
  std::vector<Span> spans_;
};

// -- command line ----------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  u64 seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  size_t workers = 3;
  size_t in_flight = 4;
  u64 default_seed = 1;
  u64 held_out_seed = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--workers N] [--in-flight N] [--default-seed N]\n"
               "          [--held-out-seed N] [--trace-out DIR]\n"
               "workloads:",
               argv0);
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

u64 parse_u64(const char* text, const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') usage(argv0);
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : all_workloads()) {
        if (w.name == std::string(value)) options.workload = &w;
      }
      if (options.workload == nullptr) usage(argv[0]);
    } else if (arg == "--seed") {
      options.seed = parse_u64(value, argv[0]);
      options.seed_given = true;
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value, argv[0]));
    } else if (arg == "--trace") {
      const u64 trace = parse_u64(value, argv[0]);
      if (trace > 1) usage(argv[0]);
      options.trace = trace == 1;
    } else if (arg == "--workers") {
      options.workers = parse_u64(value, argv[0]);
    } else if (arg == "--in-flight") {
      options.in_flight = parse_u64(value, argv[0]);
    } else if (arg == "--default-seed") {
      options.default_seed = parse_u64(value, argv[0]);
    } else if (arg == "--held-out-seed") {
      options.held_out_seed = parse_u64(value, argv[0]);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(argv[0]);
    }
  }
  if (options.workload == nullptr || options.workers == 0 ||
      options.in_flight == 0 || options.seconds < 1) {
    usage(argv[0]);
  }
  if (!options.seed_given) options.seed = options.default_seed;
  return options;
}

std::string environment_json(const Options& options) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %llu, "
      "\"held_out_seed\": %llu, \"nproc\": %u, \"release\": %s, "
      "\"obs_enabled\": %s, \"memo_enabled\": %s, \"sha256_mb_lanes\": %zu, "
      "\"workers\": %zu, \"in_flight\": %zu, \"batch\": %zu, \"trace\": %s}",
      options.workload->name, static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(options.default_seed),
      static_cast<unsigned long long>(options.held_out_seed),
      std::thread::hardware_concurrency(), kReleaseBuild ? "true" : "false",
      obs::kEnabled ? "true" : "false",
      verify::kMemoEnabled ? "true" : "false", crypto::sha256_mb_lanes(),
      options.workers, options.in_flight, kBatch,
      options.trace ? "true" : "false");
  return buffer;
}

// -- set-up --------------------------------------------------------------------

struct Image {
  std::shared_ptr<const verify::Deployment> deployment;
  verify::VerifyConfig config;
};

struct AppContext {
  const apps::App* app = nullptr;
  apps::PreparedApp prepared;
  std::vector<Image> images;  ///< one per workload method, same order
};

struct Fleet {
  std::vector<AppContext> apps;
  std::unique_ptr<verify::VerifierFarm> farm;
  std::unique_ptr<net::VerifierEndpoint> endpoint;  ///< link workload only
};

verify::DeviceId device_id(size_t app, size_t method, u64 slot) {
  return (app * kMethods + method) * kDevicesPerImage + slot + 1;
}

Fleet build_fleet(const Options& options, const crypto::Key& key,
                  Recorder& recorder) {
  const Workload& workload = *options.workload;
  Fleet fleet;
  std::vector<const apps::App*> chosen;
  if (workload.apps.empty()) {
    for (const apps::App& app : apps::app_registry()) chosen.push_back(&app);
  } else {
    for (const std::string& name : workload.apps) {
      chosen.push_back(&apps::app_by_name(name));
    }
  }
  for (const apps::App* app : chosen) {
    auto span = recorder.span(kSpanPrepareApp);
    fleet.apps.push_back({app, apps::prepare_app(*app), {}});
  }
  for (AppContext& ctx : fleet.apps) {
    const apps::PreparedApp& p = ctx.prepared;
    for (const Method method : workload.methods) {
      auto span = recorder.span(kSpanDeployment);
      Image image;
      switch (method) {
        case Method::Rap:
          image.deployment = verify::Deployment::rap(
              p.rap.program, p.rap.manifest, p.built.entry);
          image.config.expected_watermark = kWatermarkBytes;
          break;
        case Method::Naive:
          image.deployment =
              verify::Deployment::naive(p.built.program, p.built.entry);
          image.config.expected_watermark = kWatermarkBytes;
          break;
        case Method::Traces:
          image.deployment = verify::Deployment::traces(
              p.traces.program, p.traces.manifest, p.built.entry);
          break;
      }
      ctx.images.push_back(std::move(image));
    }
  }
  fleet.farm = std::make_unique<verify::VerifierFarm>(
      key, verify::FarmOptions{.workers = options.workers,
                               .clamp_workers = false});
  for (size_t a = 0; a < fleet.apps.size(); ++a) {
    for (size_t m = 0; m < workload.methods.size(); ++m) {
      const Image& image = fleet.apps[a].images[m];
      for (u64 slot = 0; slot < kDevicesPerImage; ++slot) {
        fleet.farm->provision(device_id(a, m, slot), image.deployment,
                              image.config);
      }
    }
  }
  if (workload.link) {
    fleet.endpoint = std::make_unique<net::VerifierEndpoint>(*fleet.farm);
  }
  return fleet;
}

// -- one chain -----------------------------------------------------------------

/// Everything the generator derives for one attestation from the seed.
struct Plan {
  size_t app = 0;
  size_t method = 0;  ///< index into the workload's method list
  Damage damage = Damage::Clean;
  verify::DeviceId device = 0;
  u64 input_seed = 0;
  cfa::Challenge chal{};
  u64 fault_seed = 0;
  u64 link_seed = 0;
  u64 session = 0;
};

Plan make_plan(const Workload& workload, size_t app_count, u64 seed,
               u64 index, bool warm) {
  // Warm-up chains draw from their own streams, so their seeds are not in
  // the timed set.
  const u64 offset = warm ? 100 : 0;
  const size_t methods = workload.methods.size();
  Plan plan;
  plan.app = index % app_count;
  plan.method = (index / app_count) % methods;
  plan.device = device_id(plan.app, plan.method,
                          (index / (app_count * methods)) % kDevicesPerImage);
  if (workload.seed_pool != 0 && !warm) {
    const u64 pick = draw(seed, kPickStream, index) % workload.seed_pool;
    plan.input_seed =
        draw(seed, kInputStream, plan.app * workload.seed_pool + pick);
  } else {
    plan.input_seed = draw(seed, kInputStream + offset, index);
  }
  if (workload.damage) {
    const u64 roll = draw(seed, kDamageStream + offset, index) % 10;
    plan.damage = roll == 0 ? Damage::Drop
                  : roll == 1 ? Damage::Tamper
                              : Damage::Clean;
  }
  for (size_t half = 0; half < 2; ++half) {
    const u64 word = draw(seed, kChalStream + offset, index * 2 + half);
    for (size_t j = 0; j < 8; ++j) {
      plan.chal[half * 8 + j] = static_cast<u8>(word >> (8 * j));
    }
  }
  plan.fault_seed = draw(seed, kPlanStream + offset, index);
  plan.link_seed = draw(seed, kLinkStream + offset, index);
  plan.session = (warm ? u64{1} << 40 : 0) + index + 1;
  return plan;
}

struct Chain {
  Plan plan;
  Verdict expected = Verdict::Accept;
  bool functional_ok = false;
  bool referee = false;   ///< checked byte-for-byte against a serial Verifier
  cfa::RunMetrics metrics;
  std::vector<cfa::SignedReport> reports;  ///< as handed to the verifier side
  std::vector<u8> wire;                    ///< encoded `reports`
  u64 wire_bytes = 0;
  std::optional<verify::VerificationResult> farm_result;  ///< referee chains
  std::optional<net::VerdictMessage> link_verdict;        ///< referee chains
};

cfa::SessionOptions session_options(Method method) {
  cfa::SessionOptions options;
  if (method != Method::Traces) options.watermark_bytes = kWatermarkBytes;
  return options;
}

sim::MachineConfig machine_config() {
  sim::MachineConfig config;
  config.mtb_buffer_bytes = kMtbBytes;
  // The ground-truth oracle is a test instrument, not part of a device.
  config.enable_oracle = false;
  return config;
}

cfa::AttestationRun prover_attest(Method method, const apps::PreparedApp& p,
                                  sim::Machine& machine,
                                  const cfa::Challenge& chal,
                                  const crypto::Key& key) {
  switch (method) {
    case Method::Rap:
      return cfa::RapProver(p.rap.program, p.rap.manifest, p.built.entry, key,
                            session_options(method))
          .attest(machine, chal);
    case Method::Naive:
      return cfa::NaiveProver(p.built.program, p.built.entry, key,
                              session_options(method))
          .attest(machine, chal);
    case Method::Traces:
      return cfa::TracesProver(p.traces.program, p.traces.manifest,
                               p.built.entry, key, session_options(method))
          .attest(machine, chal);
  }
  fail("unknown method");
}

/// Modelled device cost of one attestation. The prover already charges each
/// partial report's pause into exec_cycles, so pause_cycles is not added again.
Cycles device_cycles(const cfa::RunMetrics& m) {
  return m.exec_cycles + m.attest_setup_cycles + m.final_report_cycles;
}

// -- measurement state ---------------------------------------------------------

/// Registry counter deltas over the traced batches' phases.
struct CounterDeltas {
  u64 instructions = 0;
  u64 fused_dispatches = 0;
  u64 predecode_builds = 0;
  u64 svc_calls = 0;
  u64 hmac_rejects = 0;
  u64 mailbox_wait_count = 0;
  u64 mailbox_wait_sum_us = 0;
};

verify::MemoStats memo_totals(const Fleet& fleet) {
  verify::MemoStats sum;
  for (const AppContext& ctx : fleet.apps) {
    for (const Image& image : ctx.images) {
      const verify::MemoStats s = image.deployment->memo().stats();
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.frontier_hits += s.frontier_hits;
      sum.frontier_misses += s.frontier_misses;
    }
  }
  return sum;
}

/// What the verify phase observes per chain. The warm-up batch's samples are
/// discarded.
struct VerifySamples {
  std::vector<double> latencies_us;  ///< handover -> verdict, in batch order
  u64 replay_steps = 0;
  u64 replayed_chains = 0;
  u64 replayed_wire_bytes = 0;
  // Link workload.
  u64 sessions = 0;
  std::vector<double> session_ticks;
  u64 datagrams_sent = 0;
  u64 link_bytes_sent = 0;
  u64 session_wire_bytes = 0;
  u64 session_reports = 0;
};

struct Run {
  const Options& options;
  const crypto::Key& key;
  Fleet& fleet;
  Recorder& recorder;

  // Referee and failure accounting.
  u64 attempted = 0;
  u64 failed = 0;
  u64 attest_failures = 0;
  u64 verdict_mismatches = 0;
  u64 gave_up = 0;
  u64 refereed = 0;
  std::set<std::tuple<size_t, size_t, Damage>> refereed_keys;

  // End-to-end samples.
  std::vector<double> attest_rates[2];  ///< per batch, [untraced, traced]
  std::vector<double> verify_rates[2];
  VerifySamples samples;
  u64 fixed_cycles = 0;
  u64 fixed_evidence_bytes = 0;
  u64 fixed_attests = 0;

  // Whole-run attestation counts (timed batches).
  u64 attests = 0;
  u64 world_switches = 0;
  u64 cflog_bytes = 0;
  u64 partial_reports = 0;

  // Traced-run breakdown inputs.
  std::vector<std::pair<u64, u64>> traced_windows;  ///< [attest begin, verify end]
  u64 traced_attest_instructions = 0;
  u64 traced_attests = 0;
  u64 traced_verify_wall_ns = 0;
  u64 traced_sessions = 0;
  CounterDeltas deltas;
  verify::MemoStats memo_delta;
  net::VerifierStats endpoint_delta;
  u64 baseline_cycles[kMethods] = {0, 0, 0};
  u64 method_cycles[kMethods] = {0, 0, 0};

  double rss_at_fixed_point = 0.0;
};

void count_failure(Run& run, const char* what, const Chain& chain) {
  ++run.failed;
  if (run.failed <= 5) {
    std::fprintf(stderr, "failure: %s (app %s, %s, session %llu)\n", what,
                 run.fleet.apps[chain.plan.app].app->name.c_str(),
                 method_name(run.options.workload->methods[chain.plan.method]),
                 static_cast<unsigned long long>(chain.plan.session));
  }
}

// -- attest phase --------------------------------------------------------------

/// One device attestation: Machine construction + App::setup +
/// Prover::attest + encode_report_chain. Returns the wall time spent.
u64 attest_one(Run& run, Chain& chain) {
  const Workload& workload = *run.options.workload;
  const AppContext& ctx = run.fleet.apps[chain.plan.app];
  const Method method = workload.methods[chain.plan.method];
  const u64 start = now_ns();
  std::optional<sim::Machine> machine;
  std::shared_ptr<apps::Peripherals> periph;
  u64 elapsed = 0;
  {
    auto root = run.recorder.span(kSpanAttestation);
    {
      auto span = run.recorder.span(kSpanMachineSetup);
      machine.emplace(machine_config());
      periph = ctx.app->setup(*machine, chain.plan.input_seed);
    }
    cfa::AttestationRun attested;
    {
      auto span = run.recorder.span(kSpanProverAttest);
      attested = prover_attest(method, ctx.prepared, *machine, chain.plan.chal,
                               run.key);
    }
    {
      auto span = run.recorder.span(kSpanEncode);
      chain.wire = cfa::encode_report_chain(attested.reports);
    }
    elapsed = now_ns() - start;
    chain.reports = std::move(attested.reports);
    chain.metrics = attested.metrics;
  }
  chain.functional_ok = ctx.app->check(*machine, *periph, chain.plan.input_seed);
  return elapsed;
}

/// Transport damage for the rap_fleet classes, applied after signing.
void apply_damage(Chain& chain) {
  if (chain.plan.damage == Damage::Drop && chain.reports.size() < 2) {
    // A one-report chain holds only its final; the class needs >= 2 reports.
    chain.plan.damage = Damage::Clean;
  }
  chain.expected = expected_verdict(chain.plan.damage);
  if (chain.plan.damage == Damage::Clean) return;
  fault::FaultPlan plan(chain.plan.fault_seed);
  plan.add(chain.plan.damage == Damage::Drop ? fault::InjectorKind::DropReport
                                             : fault::InjectorKind::MacTamper);
  fault::apply_transport_faults(plan, chain.reports);
  chain.wire = cfa::encode_report_chain(chain.reports);
}

// -- verify phase --------------------------------------------------------------

void settle(Run& run, Chain& chain, verify::VerificationResult result,
            u64 latency_ns) {
  ++run.attempted;
  VerifySamples& s = run.samples;
  s.latencies_us.push_back(static_cast<double>(latency_ns) / 1e3);
  if (result.verdict != chain.expected) {
    ++run.verdict_mismatches;
    count_failure(run, "verdict differs from the expected class", chain);
  }
  if (result.authentic) {
    s.replay_steps += result.replay.steps;
    s.replayed_wire_bytes += chain.wire_bytes;
    ++s.replayed_chains;
  }
  if (chain.referee) chain.farm_result = std::move(result);
}

/// Closed loop over the farm's wire door: `in_flight` chains outstanding,
/// the next handed over only when one of them reaches its verdict.
void verify_wire(Run& run, std::vector<Chain>& chains) {
  struct Slot {
    size_t chain = 0;
    bool busy = false;
    u64 handed_over = 0;
    std::future<verify::VerificationResult> result;
  };
  std::vector<Slot> slots(run.options.in_flight);
  size_t next = 0;
  size_t done = 0;
  while (done < chains.size()) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.busy) {
        if (next == chains.size()) continue;
        Chain& chain = chains[next];
        slot.chain = next++;
        slot.busy = true;
        progressed = true;
        slot.handed_over = now_ns();
        auto span = run.recorder.span(kSpanHandover);
        slot.result = run.fleet.farm->submit_wire(
            chain.plan.device, chain.plan.chal, std::move(chain.wire));
        continue;
      }
      if (slot.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      const u64 latency = now_ns() - slot.handed_over;
      settle(run, chains[slot.chain], slot.result.get(), latency);
      slot.busy = false;
      progressed = true;
      ++done;
    }
    if (!progressed) std::this_thread::yield();
  }
}

/// Closed loop over the delivery layer: every chain gets its own
/// ProverEndpoint and DuplexLink into the one shared VerifierEndpoint;
/// `in_flight` sessions are interleaved tick by tick on this thread.
void verify_link(Run& run, std::vector<Chain>& chains) {
  net::LinkModel model = net::LinkModel::lossy(kLinkLossPermille);
  model.tamper_permille = kLinkTamperPermille;
  struct Session {
    size_t chain = 0;
    u64 started = 0;
    std::unique_ptr<net::DuplexLink> link;
    std::unique_ptr<net::ProverEndpoint> prover;
  };
  std::vector<std::optional<Session>> slots(run.options.in_flight);
  net::VerifierEndpoint& endpoint = *run.fleet.endpoint;
  size_t next = 0;
  size_t done = 0;
  while (done < chains.size()) {
    for (auto& slot : slots) {
      if (!slot) {
        if (next == chains.size()) continue;
        Chain& chain = chains[next];
        slot.emplace();
        slot->chain = next++;
        slot->link = std::make_unique<net::DuplexLink>(model, model,
                                                       chain.plan.link_seed);
        slot->prover = std::make_unique<net::ProverEndpoint>(
            chain.plan.device, chain.plan.session,
            chain.referee ? chain.reports : std::move(chain.reports),
            net::ProverOptions{}, chain.plan.link_seed ^ 0x9e3779b97f4a7c15ull);
        // Handover is the first Data datagram, sent by this first tick.
        slot->started = now_ns();
      }
      Session& session = *slot;
      {
        auto span = run.recorder.span(kSpanProverTick);
        session.prover->on_tick(*session.link);
      }
      {
        auto span = run.recorder.span(kSpanVerifierTick);
        endpoint.on_tick(*session.link);
      }
      session.link->advance();
      const bool finished =
          session.prover->phase() != net::ProverPhase::Sending ||
          session.link->now() >= kMaxSessionTicks;
      if (!finished) continue;

      Chain& chain = chains[session.chain];
      ++run.attempted;
      VerifySamples& s = run.samples;
      ++s.sessions;
      s.latencies_us.push_back(
          static_cast<double>(now_ns() - session.started) / 1e3);
      s.session_ticks.push_back(static_cast<double>(session.link->now()));
      s.datagrams_sent += session.prover->stats().datagrams_sent;
      s.link_bytes_sent += session.link->to_verifier_stats().bytes_sent;
      s.session_wire_bytes += chain.wire_bytes;
      s.session_reports += chain.metrics.partial_reports + 1;
      const auto& verdict = session.prover->verdict();
      if (session.prover->phase() != net::ProverPhase::Done ||
          !verdict.has_value()) {
        ++run.gave_up;
        count_failure(run, "link session gave up", chain);
      } else if (verdict->verdict != chain.expected) {
        ++run.verdict_mismatches;
        count_failure(run, "verdict differs from the expected class", chain);
      } else if (chain.referee) {
        chain.link_verdict = *verdict;
      }
      slot.reset();
      ++done;
    }
  }
}

/// Serial reference verification of one chain: a fresh Verifier on the same
/// deployment. The farm (or endpoint) result must match it byte for byte.
void referee(Run& run, const Chain& chain) {
  const Image& image =
      run.fleet.apps[chain.plan.app].images[chain.plan.method];
  verify::Verifier verifier(run.key);
  verifier.expect(image.deployment);
  verifier.set_expected_watermark(image.config.expected_watermark);
  verifier.adopt_challenge(chain.plan.chal);
  const verify::VerificationResult serial =
      verifier.verify(chain.plan.chal, chain.reports);
  bool same = false;
  if (chain.farm_result) {
    same = verify::verification_digest(*chain.farm_result) ==
           verify::verification_digest(serial);
  } else if (chain.link_verdict) {
    same = chain.link_verdict->digest == net::result_digest(serial);
  } else {
    return;  // already counted as a failure
  }
  if (!same) {
    fail("verdict digest of %s/%s session %llu diverges from the serial "
         "Verifier",
         run.fleet.apps[chain.plan.app].app->name.c_str(),
         method_name(run.options.workload->methods[chain.plan.method]),
         static_cast<unsigned long long>(chain.plan.session));
  }
  ++run.refereed;
}

obs::Snapshot scrape() { return obs::registry().scrape(); }

/// What a traced batch adds to the per-layer breakdown, read right after its
/// verify phase (before the referee's serial verifications touch the memo).
struct PhaseMarks {
  obs::Snapshot before_attest;
  obs::Snapshot before_verify;
  verify::MemoStats memo;
  net::VerifierStats endpoint;
  u64 attest_begin = 0;
  u64 verify_begin = 0;
  u64 verify_end = 0;
};

void record_traced_batch(Run& run, const std::vector<Chain>& chains,
                         const PhaseMarks& marks) {
  const obs::Snapshot after = scrape();
  const auto delta = [](const obs::Snapshot& a, const obs::Snapshot& b,
                        const char* name) { return b.value(name) - a.value(name); };
  CounterDeltas& d = run.deltas;
  d.instructions += delta(marks.before_attest, marks.before_verify, "sim.instructions");
  d.fused_dispatches +=
      delta(marks.before_attest, marks.before_verify, "sim.fused_dispatches");
  d.predecode_builds +=
      delta(marks.before_attest, marks.before_verify, "sim.predecode_builds");
  d.svc_calls += delta(marks.before_attest, marks.before_verify, "tz.svc_calls");
  d.hmac_rejects += delta(marks.before_verify, after, "farm.hmac_batch_rejects");
  if (const obs::Sample* h = after.find("farm.mailbox_wait_us")) {
    const obs::Sample* h0 = marks.before_verify.find("farm.mailbox_wait_us");
    d.mailbox_wait_count += h->count - (h0 ? h0->count : 0);
    d.mailbox_wait_sum_us += h->sum - (h0 ? h0->sum : 0);
  }
  const verify::MemoStats memo = memo_totals(run.fleet);
  run.memo_delta.hits += memo.hits - marks.memo.hits;
  run.memo_delta.misses += memo.misses - marks.memo.misses;
  run.memo_delta.frontier_hits += memo.frontier_hits - marks.memo.frontier_hits;
  run.memo_delta.frontier_misses +=
      memo.frontier_misses - marks.memo.frontier_misses;
  if (run.fleet.endpoint) {
    const net::VerifierStats& s = run.fleet.endpoint->stats();
    run.endpoint_delta.submissions += s.submissions - marks.endpoint.submissions;
    run.endpoint_delta.mac_drops += s.mac_drops - marks.endpoint.mac_drops;
    run.traced_sessions += chains.size();
  }
  run.traced_windows.emplace_back(marks.attest_begin, marks.verify_end);
  run.traced_attests += chains.size();
  run.traced_verify_wall_ns += marks.verify_end - marks.verify_begin;
  for (const Chain& chain : chains) {
    run.traced_attest_instructions += chain.metrics.instructions;
  }
}

/// Tracking overhead against the uninstrumented app on the same (app, seed),
/// as in the paper's Fig 8. Partial-report pauses (which the prover charges
/// into exec_cycles) are report cost, not tracking cost, and are left out;
/// device_cycles_per_attest carries them.
void record_baseline(Run& run, const std::vector<Chain>& chains) {
  for (const Chain& chain : chains) {
    const AppContext& ctx = run.fleet.apps[chain.plan.app];
    sim::Machine machine(machine_config());
    const auto periph = ctx.app->setup(machine, chain.plan.input_seed);
    const cfa::RunMetrics base =
        cfa::BaselineRunner(ctx.prepared.built.program, ctx.prepared.built.entry)
            .run(machine);
    const auto m = static_cast<size_t>(
        run.options.workload->methods[chain.plan.method]);
    run.baseline_cycles[m] += base.exec_cycles;
    run.method_cycles[m] += chain.metrics.exec_cycles - chain.metrics.pause_cycles;
  }
}

// -- one batch -----------------------------------------------------------------

void run_batch(Run& run, u64 first_index, size_t batch_number, bool warm) {
  const Workload& workload = *run.options.workload;
  const bool traced = run.options.trace && !warm && batch_number % 2 == 1;
  const bool fixed = !warm && batch_number < kFixedBatches;

  std::vector<Chain> chains(kBatch);
  for (size_t k = 0; k < kBatch; ++k) {
    chains[k].plan = make_plan(workload, run.fleet.apps.size(),
                               run.options.seed, first_index + k, warm);
    run.fleet.farm->adopt_challenge(chains[k].plan.device, chains[k].plan.chal);
  }

  // Attest phase.
  std::optional<PhaseMarks> marks;
  if (traced) marks.emplace(PhaseMarks{.before_attest = scrape(),
                                       .before_verify = obs::Snapshot({})});
  run.recorder.set_enabled(traced);
  const u64 attest_begin = now_ns();
  u64 attest_ns = 0;
  {
    auto phase = run.recorder.span(kSpanAttestPhase);
    for (Chain& chain : chains) attest_ns += attest_one(run, chain);
  }
  run.recorder.set_enabled(false);

  for (Chain& chain : chains) {
    ++run.attempted;
    if (!chain.functional_ok) {
      ++run.attest_failures;
      count_failure(run, "golden-model check failed after attestation", chain);
    }
    apply_damage(chain);
    chain.wire_bytes = chain.wire.size();
    const auto key = std::make_tuple(chain.plan.app, chain.plan.method,
                                     chain.plan.damage);
    chain.referee = !warm && run.refereed_keys.insert(key).second;
  }

  // Verify phase.
  if (traced) {
    marks->before_verify = scrape();
    marks->memo = memo_totals(run.fleet);
    if (run.fleet.endpoint) marks->endpoint = run.fleet.endpoint->stats();
  }
  run.recorder.set_enabled(traced);
  const u64 verify_begin = now_ns();
  {
    auto phase = run.recorder.span(kSpanVerifyPhase);
    if (workload.link) {
      verify_link(run, chains);
    } else {
      verify_wire(run, chains);
    }
  }
  const u64 verify_end = now_ns();
  run.recorder.set_enabled(false);

  // Untimed tail.
  if (traced) {
    marks->attest_begin = attest_begin;
    marks->verify_begin = verify_begin;
    marks->verify_end = verify_end;
    record_traced_batch(run, chains, *marks);
    if (fixed) record_baseline(run, chains);
  }
  for (const Chain& chain : chains) {
    if (chain.referee) referee(run, chain);
  }
  if (warm) return;

  run.attest_rates[traced].push_back(kBatch / (attest_ns / 1e9));
  run.verify_rates[traced].push_back(kBatch /
                                     ((verify_end - verify_begin) / 1e9));
  for (const Chain& chain : chains) {
    ++run.attests;
    run.world_switches += chain.metrics.world_switches;
    run.cflog_bytes += chain.metrics.cflog_bytes;
    run.partial_reports += chain.metrics.partial_reports;
    if (fixed) {
      ++run.fixed_attests;
      run.fixed_cycles += device_cycles(chain.metrics);
      run.fixed_evidence_bytes += chain.metrics.transmitted_evidence_bytes;
    }
  }
  if (batch_number + 1 == kFixedBatches) run.rss_at_fixed_point = peak_rss_mib();
}

// -- program spans -------------------------------------------------------------

/// Per-session aggregates of the spans the program records itself.
struct ProgramSpans {
  // attest.<method> sessions
  u64 attest_sessions = 0;
  u64 h_mem_ns = 0;
  u64 app_run_self_ns = 0;
  u64 log_drain_ns = 0;
  u64 sign_final_ns = 0;
  // farm_wire sessions
  u64 wire_sessions = 0;
  u64 parse_ns = 0;
  u64 hmac_ns = 0;
  u64 core_ns = 0;
  u64 job_ns = 0;
  // verify_chain sessions
  u64 verify_sessions = 0;
  u64 decode_ns = 0;
  u64 replay_ns = 0;
  u64 verify_extent_ns = 0;
  // net_delivery sessions
  u64 roundtrips = 0;
  u64 roundtrip_ns = 0;
  u64 records = 0;
};

ProgramSpans program_spans(const std::vector<std::pair<u64, u64>>& windows) {
  ProgramSpans out;
  const std::vector<obs::SpanRecord> records = obs::tracer().records();
  out.records = records.size();
  const auto in_window = [&](u64 t) {
    auto it = std::upper_bound(
        windows.begin(), windows.end(), t,
        [](u64 value, const std::pair<u64, u64>& w) { return value < w.first; });
    return it != windows.begin() && t <= std::prev(it)->second;
  };
  struct Session {
    std::string kind;
    u64 first = ~0ull, last = 0;
    u64 app_run = 0, drains = 0;
    u64 admission_start = 0, admission_end = 0, hmac_start = 0, hmac_end = 0;
    bool has_hmac = false;
  };
  std::unordered_map<obs::SessionId, Session> sessions;
  for (const obs::SpanRecord& r : records) {
    if (!in_window(r.start)) continue;
    Session& s = sessions[r.session];
    s.kind = r.session_kind;
    s.first = std::min(s.first, r.start);
    s.last = std::max(s.last, r.end);
    const u64 dur = r.end - r.start;
    if (r.name == "h_mem") out.h_mem_ns += dur;
    if (r.name == "app_run") s.app_run += dur;
    if (r.name == "log_drain") {
      s.drains += dur;
      out.log_drain_ns += dur;
    }
    if (r.name == "sign_final") out.sign_final_ns += dur;
    if (r.name == "admission") {
      s.admission_start = r.start;
      s.admission_end = r.end;
    }
    if (r.name == "hmac_batch") {
      s.hmac_start = r.start;
      s.hmac_end = r.end;
      s.has_hmac = true;
    }
    if (r.name == "decode") out.decode_ns += dur;
    if (r.name == "replay") out.replay_ns += dur;
    if (r.name == "farm_roundtrip") {
      ++out.roundtrips;
      out.roundtrip_ns += dur;
    }
  }
  for (const auto& [id, s] : sessions) {
    if (s.kind.rfind("attest.", 0) == 0) {
      ++out.attest_sessions;
      out.app_run_self_ns += s.app_run - std::min(s.app_run, s.drains);
    } else if (s.kind == "farm_wire" && s.admission_end != 0) {
      ++out.wire_sessions;
      out.job_ns += s.admission_end - s.admission_start;
      if (s.has_hmac) {
        out.parse_ns += s.hmac_start - s.admission_start;
        out.hmac_ns += s.hmac_end - s.hmac_start;
        out.core_ns += s.admission_end - s.hmac_end;
      }
    } else if (s.kind == "verify_chain") {
      ++out.verify_sessions;
      out.verify_extent_ns += s.last - s.first;
    }
  }
  return out;
}

// -- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const std::vector<Metric>& metrics, const Run& run,
                  const std::string& env) {
  std::printf("# env %s\n", env.c_str());
  std::printf("# %llu attempted, %llu failed (%llu attestation checks, %llu "
              "verdict mismatches, %llu link give-ups), %llu refereed chains\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attest_failures),
              static_cast<unsigned long long>(run.verdict_mismatches),
              static_cast<unsigned long long>(run.gave_up),
              static_cast<unsigned long long>(run.refereed));
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += run.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Attest-phase rate of one run: the 90th percentile of its per-batch rates.
/// The attest phase is one thread, and on a shared 4-vCPU VM interference
/// from other tenants slowed anywhere from 10% to 60% of a run's batches by
/// up to 40%, while the rest ran at one speed. The median batch jumped
/// between the two modes from run to run (IQR/median up to 0.4 over ten
/// seeds); the upper decile, the speed of the undisturbed batches, stayed
/// within 0.1. Verify-phase rates spread evenly and use the median.
double attest_rate(std::vector<double> per_batch) {
  std::sort(per_batch.begin(), per_batch.end());
  return percentile(per_batch, 0.90);
}

/// Latency percentile `q` of each segment of kFixedBatches consecutive
/// batches (>= 1000 chains, so >= 10 samples lie beyond a p99), then the
/// median over segments: a stretch of host interference moves a few
/// segments, not the reported value.
double segmented_latency(const std::vector<double>& samples, double q) {
  const size_t segment = kFixedBatches * kBatch;
  std::vector<double> per_segment;
  for (size_t begin = 0; begin + segment <= samples.size(); begin += segment) {
    std::vector<double> part(samples.begin() + begin,
                             samples.begin() + begin + segment);
    std::sort(part.begin(), part.end());
    per_segment.push_back(percentile(part, q));
  }
  return median(per_segment);
}

std::vector<Metric> end_to_end_metrics(const Run& run, double setup_s) {
  const std::vector<double>& latencies = run.samples.latencies_us;
  const double attests = static_cast<double>(std::max<u64>(run.fixed_attests, 1));
  return {
      {"setup_s", setup_s, "s"},
      {"attest_per_s", attest_rate(run.attest_rates[0]), "1/s"},
      {"verdicts_per_s", median(run.verify_rates[0]), "1/s"},
      {"verify_p50_us", segmented_latency(latencies, 0.50), "us"},
      {"verify_p99_us", segmented_latency(latencies, 0.99), "us"},
      {"device_cycles_per_attest",
       static_cast<double>(run.fixed_cycles) / attests, "cycles"},
      {"evidence_bytes_per_chain",
       static_cast<double>(run.fixed_evidence_bytes) / attests, "B"},
      {"max_rss_mb", run.rss_at_fixed_point, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run,
                                      const std::vector<Recorder::Totals>& t,
                                      const ProgramSpans& p,
                                      const obs::Snapshot& final_snapshot) {
  const auto mean_us = [](u64 ns, u64 n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
  };
  const auto per = [](u64 value, u64 n) {
    return n == 0 ? 0.0 : static_cast<double>(value) / static_cast<double>(n);
  };
  const auto overhead = [&](Method m) {
    const size_t i = static_cast<size_t>(m);
    return run.baseline_cycles[i] == 0
               ? 0.0
               : (static_cast<double>(run.method_cycles[i]) /
                      static_cast<double>(run.baseline_cycles[i]) -
                  1.0) * 100.0;
  };
  const auto overhead_pct = [](double plain, double traced) {
    return plain == 0.0 ? 0.0 : (plain - traced) / plain * 100.0;
  };
  std::vector<double> ticks = run.samples.session_ticks;
  std::sort(ticks.begin(), ticks.end());
  const u64 mac_rejects = run.deltas.hmac_rejects;
  const u64 memo_lookups = run.memo_delta.hits + run.memo_delta.misses;
  const u64 frontier_lookups =
      run.memo_delta.frontier_hits + run.memo_delta.frontier_misses;
  const bool link = run.options.workload->link;
  // Worker time inside jobs: the wire door's whole job span, or, behind the
  // endpoint's decoded submissions, the verify_chain session extent.
  const u64 worker_ns = link ? p.verify_extent_ns : p.job_ns;
  const u64 core_ns = link ? p.verify_extent_ns : p.core_ns;
  const u64 core_chains = link ? p.verify_sessions : p.wire_sessions - std::min(
                                     p.wire_sessions, mac_rejects);
  const u64 tick_sessions = std::max<u64>(run.traced_sessions, 1);
  return {
      {"apps.prepare_ms", mean_us(t[kSpanPrepareApp].total_ns,
                                  t[kSpanPrepareApp].count) / 1e3, "ms"},
      {"verify.deployment_ms", mean_us(t[kSpanDeployment].total_ns,
                                       t[kSpanDeployment].count) / 1e3, "ms"},
      {"sim.machine_setup_us", mean_us(t[kSpanMachineSetup].total_ns,
                                       t[kSpanMachineSetup].count), "us"},
      {"cfa.attest_us", mean_us(t[kSpanProverAttest].total_ns,
                                t[kSpanProverAttest].count), "us"},
      {"cpu.ns_per_instr",
       per(t[kSpanProverAttest].total_ns, run.traced_attest_instructions), "ns"},
      {"cfa.h_mem_us", mean_us(p.h_mem_ns, p.attest_sessions), "us"},
      {"cpu.app_run_us", mean_us(p.app_run_self_ns, p.attest_sessions), "us"},
      {"trace.log_drain_us", mean_us(p.log_drain_ns, p.attest_sessions), "us"},
      {"cfa.sign_us", mean_us(p.sign_final_ns, p.attest_sessions), "us"},
      {"cfa.encode_us", mean_us(t[kSpanEncode].total_ns, t[kSpanEncode].count),
       "us"},
      {"sim.instructions", per(run.deltas.instructions, run.traced_attests), "count"},
      {"sim.fused_dispatches", per(run.deltas.fused_dispatches, run.traced_attests),
       "count"},
      {"sim.predecode_builds", per(run.deltas.predecode_builds, run.traced_attests),
       "count"},
      {"tz.world_switches", per(run.world_switches, run.attests), "count"},
      {"tz.svc_calls", per(run.deltas.svc_calls, run.traced_attests), "count"},
      {"trace.cflog_bytes", per(run.cflog_bytes, run.attests), "B"},
      {"cfa.partial_reports", per(run.partial_reports, run.attests), "count"},
      {"device.overhead_pct.rap", overhead(Method::Rap), "%"},
      {"device.overhead_pct.naive", overhead(Method::Naive), "%"},
      {"device.overhead_pct.traces", overhead(Method::Traces), "%"},
      {"cfa.parse_us", mean_us(p.parse_ns, p.wire_sessions), "us"},
      {"crypto.hmac_batch_us", mean_us(p.hmac_ns, p.wire_sessions), "us"},
      {"verify.core_us", mean_us(core_ns, core_chains), "us"},
      {"verify.decode_us", mean_us(p.decode_ns, p.verify_sessions), "us"},
      {"verify.replay_us", mean_us(p.replay_ns, p.verify_sessions), "us"},
      {"verify.replay_steps", per(run.samples.replay_steps, run.samples.replayed_chains),
       "count"},
      {"verify.steps_per_evidence_byte",
       per(run.samples.replay_steps, run.samples.replayed_wire_bytes), "count/B"},
      {"verify.memo.hit_rate", per(run.memo_delta.hits, memo_lookups),
       "ratio"},
      {"verify.memo.frontier_hit_rate",
       per(run.memo_delta.frontier_hits, frontier_lookups), "ratio"},
      {"verify.memo.bytes_hwm",
       static_cast<double>(final_snapshot.value("verify.memo.bytes_hwm")), "B"},
      {"farm.queue_wait_us",
       per(run.deltas.mailbox_wait_sum_us, run.deltas.mailbox_wait_count),
       "us"},
      {"farm.busy_frac",
       ratio(static_cast<double>(worker_ns),
             static_cast<double>(run.options.workers) *
                 static_cast<double>(run.traced_verify_wall_ns)),
       "ratio"},
      {"farm.queue_depth_hwm",
       static_cast<double>(final_snapshot.value("farm.queue_depth_hwm")),
       "count"},
      {"net.prover_tick_us",
       link ? mean_us(t[kSpanProverTick].total_ns, tick_sessions) : 0.0, "us"},
      {"net.verifier_tick_us",
       link ? mean_us(t[kSpanVerifierTick].total_ns -
                          std::min(t[kSpanVerifierTick].total_ns, p.roundtrip_ns),
                      tick_sessions)
            : 0.0,
       "us"},
      {"net.farm_roundtrip_us", mean_us(p.roundtrip_ns, p.roundtrips), "us"},
      {"net.submissions_per_session",
       per(run.endpoint_delta.submissions, run.traced_sessions), "count"},
      {"net.datagrams_per_report", per(run.samples.datagrams_sent, run.samples.session_reports),
       "count"},
      {"net.goodput", per(run.samples.session_wire_bytes, run.samples.link_bytes_sent),
       "ratio"},
      {"net.mac_drops_per_session",
       per(run.endpoint_delta.mac_drops, run.traced_sessions), "count"},
      {"net.session_ticks_p50", percentile(ticks, 0.50), "ticks"},
      {"net.session_ticks_p99", percentile(ticks, 0.99), "ticks"},
      {"obs.span_records", static_cast<double>(p.records), "count"},
      {"bench.trace_overhead_pct.attest",
       overhead_pct(attest_rate(run.attest_rates[0]), attest_rate(run.attest_rates[1])), "%"},
      {"bench.trace_overhead_pct.verify",
       overhead_pct(median(run.verify_rates[0]), median(run.verify_rates[1])), "%"},
      {"bench.failed_frac", per(run.failed, run.attempted), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const std::string env = environment_json(options);
  if (!kReleaseBuild) {
    std::fprintf(stderr,
                 "error: e2ebench was not built as the release measurement "
                 "build (cmake -DCMAKE_BUILD_TYPE=Release -DRAP_RELEASE=ON); "
                 "refusing to report numbers\n");
    return 2;
  }
  const crypto::Key key = apps::demo_key();
  Recorder recorder;

  // Set-up, repeated; the last fleet is the one the run uses.
  std::vector<double> setup_times;
  Fleet fleet;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    fleet = Fleet{};
    recorder.set_enabled(options.trace);
    const u64 start = now_ns();
    fleet = build_fleet(options, key, recorder);
    setup_times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    recorder.set_enabled(false);
  }

  Run run{options, key, fleet, recorder};
  run_batch(run, 0, 0, /*warm=*/true);
  run.samples = VerifySamples{};
  const u64 timed_start = now_ns();
  for (size_t batch = 0;; ++batch) {
    const double elapsed = static_cast<double>(now_ns() - timed_start) / 1e9;
    if ((batch >= kFixedBatches && elapsed >= options.seconds) ||
        elapsed >= kMaxTimedSeconds) {
      break;
    }
    run_batch(run, batch * kBatch, batch, /*warm=*/false);
  }
  fleet.farm->drain();

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = end_to_end_metrics(run, median(setup_times));
  } else {
    const ProgramSpans program = program_spans(run.traced_windows);
    metrics = per_layer_metrics(run, recorder.totals(), program, scrape());
    if (!options.trace_out.empty()) {
      const std::string base = options.trace_out + "/" + options.workload->name;
      recorder.write_jsonl(base + ".spans.jsonl", env);
      std::ofstream counters(base + ".metrics.jsonl");
      counters << scrape().json_lines();
    }
  }
  print_result(metrics, run, env);
  return 0;
}
