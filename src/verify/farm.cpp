#include "verify/farm.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace raptrack::verify {

namespace {

VerificationResult rejection(std::string why) {
  VerificationResult result;
  result.verdict = Verdict::Reject;
  result.detail = std::move(why);
  return result;
}

u64 obs_now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// Farm-wide metric handles, registered once. Looking these up per job would
// mean a map find under the registry mutex on every submission.
struct FarmMetrics {
  obs::Counter submitted = obs::registry().counter("farm.jobs_submitted");
  obs::Counter completed = obs::registry().counter("farm.jobs_completed");
  obs::Counter hmac_rejects = obs::registry().counter("farm.hmac_batch_rejects");
  obs::Counter parse_rejects = obs::registry().counter("farm.wire_parse_rejects");
  obs::Counter worker_panics = obs::registry().counter("farm.worker_panics");
  obs::Counter quarantine_opened =
      obs::registry().counter("farm.quarantine.opened");
  obs::Counter quarantine_closed =
      obs::registry().counter("farm.quarantine.closed");
  obs::Counter quarantine_probes =
      obs::registry().counter("farm.quarantine.half_open_probes");
  obs::Counter quarantine_door_rejects =
      obs::registry().counter("farm.quarantine.door_rejects");
  obs::Gauge queue_hwm = obs::registry().gauge("farm.queue_depth_hwm");
  obs::Histogram mailbox_wait = obs::registry().histogram(
      "farm.mailbox_wait_us", {10, 100, 1000, 10'000, 100'000, 1'000'000});

  static FarmMetrics& get() {
    static FarmMetrics metrics;
    return metrics;
  }
};

}  // namespace

VerifierFarm::VerifierFarm(crypto::Key key, FarmOptions options, u64 rng_seed)
    : key_schedule_(key),
      queue_capacity_(std::max<size_t>(options.queue_capacity, 1)),
      quarantine_(options.quarantine),
      fault_hook_(std::move(options.fault_hook)),
      rng_(rng_seed) {
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  size_t count = options.workers;
  if (count == 0) {
    count = hardware;
  } else if (options.clamp_workers) {
    count = std::min(count, hardware);
  }
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

VerifierFarm::~VerifierFarm() {
  drain();
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void VerifierFarm::provision(DeviceId device,
                             std::shared_ptr<const Deployment> deployment,
                             VerifyConfig config) {
  std::lock_guard lock(mu_);
  DeviceState& state = devices_[device];
  state.deployment = std::move(deployment);
  state.config = std::move(config);
}

cfa::Challenge VerifierFarm::issue_challenge(DeviceId device) {
  cfa::Challenge chal;
  {
    std::lock_guard lock(rng_mu_);
    for (size_t i = 0; i < chal.size(); i += 8) {
      const u64 word = rng_.next();
      for (size_t j = 0; j < 8 && i + j < chal.size(); ++j) {
        chal[i + j] = static_cast<u8>(word >> (8 * j));
      }
    }
  }
  sessions_.issue(device, chal);
  return chal;
}

void VerifierFarm::adopt_challenge(DeviceId device,
                                   const cfa::Challenge& chal) {
  sessions_.issue(device, chal);
}

std::future<VerificationResult> VerifierFarm::submit(
    DeviceId device, const cfa::Challenge& chal,
    std::vector<cfa::SignedReport> reports) {
  Job job;
  job.chal = chal;
  job.reports = std::move(reports);
  return enqueue(device, std::move(job));
}

std::future<VerificationResult> VerifierFarm::submit_wire(
    DeviceId device, const cfa::Challenge& chal, std::vector<u8> wire_chain) {
  Job job;
  job.chal = chal;
  job.is_wire = true;
  job.wire = std::move(wire_chain);
  return enqueue(device, std::move(job));
}

std::future<VerificationResult> VerifierFarm::enqueue(DeviceId device,
                                                      Job job) {
  std::future<VerificationResult> future = job.promise.get_future();
  std::unique_lock lock(mu_);
  space_cv_.wait(lock,
                 [this] { return queued_ < queue_capacity_ || stopping_; });
  if (stopping_) {
    lock.unlock();
    job.promise.set_value(rejection("farm is shutting down"));
    return future;
  }
  const auto it = devices_.find(device);
  if (it == devices_.end()) {
    lock.unlock();
    job.promise.set_value(rejection("unknown device"));
    return future;
  }
  DeviceState& state = it->second;
  // Quarantine door: an open breaker rejects without spending a worker; the
  // cooldown counts these rejects down to the half-open probe admission.
  if (quarantine_.enabled && state.breaker != Breaker::Closed) {
    if (state.breaker == Breaker::HalfOpen || state.cooldown_left > 0) {
      if (state.cooldown_left > 0) --state.cooldown_left;
      lock.unlock();
      if constexpr (obs::kEnabled) {
        FarmMetrics::get().quarantine_door_rejects.inc();
      }
      job.promise.set_value(
          rejection(state.breaker == Breaker::HalfOpen
                        ? "device quarantined (probe in flight)"
                        : "device quarantined (circuit open)"));
      return future;
    }
    state.breaker = Breaker::HalfOpen;  // admit this job as the probe
    if constexpr (obs::kEnabled) FarmMetrics::get().quarantine_probes.inc();
  }
  if constexpr (obs::kEnabled) {
    job.enqueue_ns = obs_now_ns();
    FarmMetrics::get().submitted.inc();
  }
  state.mailbox.push_back(std::move(job));
  ++queued_;
  if constexpr (obs::kEnabled) FarmMetrics::get().queue_hwm.set_max(queued_);
  // Activation invariant: a device sits in ready_ exactly when its mailbox
  // is non-empty and no worker is running it. If the mailbox already had
  // jobs, the token is either in ready_ or will be re-enqueued by the
  // worker currently running the device.
  if (!state.scheduled && state.mailbox.size() == 1) {
    ready_.push_back(device);
    lock.unlock();
    work_cv_.notify_one();
  }
  return future;
}

VerificationResult VerifierFarm::execute(DeviceId device,
                                         const DeviceState& state, Job& job,
                                         bool* forgery) {
  if (fault_hook_) fault_hook_(device);
  if (!state.deployment) {
    return rejection("verifier has no expected deployment");
  }
  if (!job.is_wire) {
    std::vector<cfa::ReportView> views;
    views.reserve(job.reports.size());
    for (const auto& report : job.reports) {
      views.push_back(cfa::ReportView::of(report));
    }
    auto result =
        verify_report_chain(*state.deployment, state.config, key_schedule_,
                            sessions_, device, job.chal, views);
    // The serial MAC pass rejects with this exact wording; everything else
    // that fails before `authentic` (empty chain, operator errors) is not
    // evidence of forgery and must not trip the breaker.
    *forgery = result.verdict == Verdict::Reject && !result.authentic &&
               result.detail.rfind("report MAC invalid", 0) == 0;
    return result;
  }
  // Zero-copy wire admission: parse views over the receive buffer, then
  // batch-check every MAC off it before the protocol core runs.
  obs::SessionId obs_session = 0;
  if constexpr (obs::kEnabled) {
    obs_session = obs::tracer().begin_session("farm_wire");
  }
  auto admission_span = obs::tracer().span(obs_session, "admission");
  auto parsed = cfa::try_parse_chain_views(job.wire);
  if (!parsed.ok()) {
    if constexpr (obs::kEnabled) FarmMetrics::get().parse_rejects.inc();
    *forgery = true;  // unparseable wire bytes: corruption or an attacker
    return rejection(std::move(parsed.error));
  }
  {
    auto span = obs::tracer().span(obs_session, "hmac_batch");
    std::vector<crypto::MacClaim> claims;
    claims.reserve(parsed->size());
    for (const auto& view : *parsed) claims.push_back(view.claim());
    if (const auto bad = crypto::hmac_verify_batch(key_schedule_, claims)) {
      if constexpr (obs::kEnabled) FarmMetrics::get().hmac_rejects.inc();
      *forgery = true;
      // Identical wording to the serial MAC pass, so wire and decoded
      // submissions of the same chain yield byte-identical verdicts.
      return rejection("report MAC invalid (seq " +
                       std::to_string((*parsed)[*bad].sequence) + ")");
    }
  }
  return verify_report_chain(*state.deployment, state.config, key_schedule_,
                             sessions_, device, job.chal, *parsed,
                             /*macs_verified=*/true);
}

void VerifierFarm::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stopping_) return;
      continue;
    }
    const DeviceId device = ready_.front();
    ready_.pop_front();
    DeviceState& state = devices_.at(device);  // node refs are rehash-stable
    Job job = std::move(state.mailbox.front());
    state.mailbox.pop_front();
    state.scheduled = true;
    lock.unlock();

    if constexpr (obs::kEnabled) {
      // Mailbox wait: admission to the moment a worker picks the job up.
      FarmMetrics::get().mailbox_wait.observe(
          (obs_now_ns() - job.enqueue_ns) / 1000);
    }
    // Panic containment: verification is adversary-facing and must be total,
    // but a bug (or an injected fault) that escapes as an exception may not
    // take the worker thread — and with it every queued device — down. The
    // job resolves Inconclusive (the evidence was not adjudicated; the
    // challenge stays outstanding for a retry) and the loop continues, so
    // the device's remaining mailbox is re-queued as usual below.
    VerificationResult result;
    bool forgery = false;
    try {
      result = execute(device, state, job, &forgery);
    } catch (const std::exception& e) {
      if constexpr (obs::kEnabled) FarmMetrics::get().worker_panics.inc();
      result = VerificationResult{};
      result.verdict = Verdict::Inconclusive;
      result.detail = std::string("verifier exception contained: ") + e.what();
    } catch (...) {
      if constexpr (obs::kEnabled) FarmMetrics::get().worker_panics.inc();
      result = VerificationResult{};
      result.verdict = Verdict::Inconclusive;
      result.detail = "verifier exception contained: unknown exception";
    }
    if constexpr (obs::kEnabled) FarmMetrics::get().completed.inc();
    job.promise.set_value(std::move(result));

    lock.lock();
    if (quarantine_.enabled) update_breaker(state, forgery);
    state.scheduled = false;
    if (!state.mailbox.empty()) {
      ready_.push_back(device);
      work_cv_.notify_one();
    }
    --queued_;
    space_cv_.notify_one();
    if (queued_ == 0) drain_cv_.notify_all();
  }
}

void VerifierFarm::update_breaker(DeviceState& state, bool forgery) {
  if (!forgery) {
    state.strikes = 0;
    if (state.breaker == Breaker::HalfOpen) {
      // The probe came back clean: re-admit the device fully.
      state.breaker = Breaker::Closed;
      state.reopens = 0;
      if constexpr (obs::kEnabled) FarmMetrics::get().quarantine_closed.inc();
    }
    return;
  }
  ++state.strikes;
  const auto open_with_backoff = [&] {
    state.breaker = Breaker::Open;
    state.strikes = 0;
    const u32 factor =
        std::min<u32>(u32{1} << std::min<u32>(state.reopens, 31),
                      std::max<u32>(quarantine_.backoff_cap, 1));
    state.cooldown_left = std::max<u32>(quarantine_.cooldown, 1) * factor;
    if constexpr (obs::kEnabled) FarmMetrics::get().quarantine_opened.inc();
  };
  if (state.breaker == Breaker::HalfOpen) {
    // Probe failed: re-open with the cooldown doubled (capped).
    ++state.reopens;
    open_with_backoff();
  } else if (state.breaker == Breaker::Closed &&
             state.strikes >= std::max<u32>(quarantine_.strike_threshold, 1)) {
    open_with_backoff();
  }
}

VerifierFarm::Breaker VerifierFarm::breaker_state(DeviceId device) const {
  std::lock_guard lock(mu_);
  const auto it = devices_.find(device);
  return it == devices_.end() ? Breaker::Closed : it->second.breaker;
}

void VerifierFarm::penalize(DeviceId device, u32 strikes) {
  if (!quarantine_.enabled) return;
  std::lock_guard lock(mu_);
  // The delivery layer names whatever id a datagram carries; an id that was
  // never provisioned gets no state, so it keeps reading "unknown device".
  const auto it = devices_.find(device);
  if (it == devices_.end()) return;
  for (u32 i = 0; i < strikes; ++i) {
    update_breaker(it->second, /*forgery=*/true);
  }
}

void VerifierFarm::drain() {
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] { return queued_ == 0; });
}

}  // namespace raptrack::verify
