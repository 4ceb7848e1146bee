// Parallel verifier farm: a sharded, multi-threaded verification service
// over the shared deployment caches.
//
// A fleet Verifier adjudicates report chains from many devices at once. The
// work is embarrassingly parallel *across* devices but strictly ordered
// *within* one: challenge bookkeeping for a device must observe its chains
// in submission order (a retransmission racing its original must not
// double-consume the challenge). The farm encodes exactly that rule:
//
//   * every device has a FIFO mailbox of submitted jobs;
//   * a global ready-queue holds activation tokens — devices whose mailbox
//     is non-empty and which no worker currently runs;
//   * a worker pops one token, runs exactly one job for that device, then
//     re-enqueues the token if the mailbox is still non-empty.
//
// Same-device chains therefore serialize in FIFO order while distinct
// devices load-balance freely over the pool. Admission is bounded
// (`queue_capacity`): submit() blocks once the farm holds that many
// unfinished jobs, pushing backpressure onto the transport instead of
// buffering unboundedly.
//
// Immutable state (Deployment caches, the HMAC key schedule, per-device
// VerifyConfig) is shared read-only across workers; the only cross-thread
// mutable state is the SessionStore (internally mutex-sharded by device)
// and the queues under the farm mutex.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "verify/verifier.hpp"

namespace raptrack::verify {

/// Per-device circuit breaker for a long-lived verification service. A
/// device whose submissions keep failing authentication (MAC forgeries,
/// unparseable wire chains) — or which the delivery layer reports as
/// flooding (`penalize`) — is quarantined: further submissions are rejected
/// at the door without spending a worker. After `cooldown` door-rejected
/// admissions the breaker goes half-open and admits exactly one probe job;
/// a clean probe closes the breaker, another forgery re-opens it with the
/// cooldown doubled (capped at `cooldown * backoff_cap`).
///
/// Disabled by default: a quarantining farm is deliberately *not*
/// verdict-identical to a serial Verifier (the differential tests pin that
/// equivalence), so services opt in per FarmOptions.
struct QuarantinePolicy {
  bool enabled = false;
  /// Consecutive forgery strikes that open the breaker.
  u32 strike_threshold = 3;
  /// Door-rejected admissions while open before a half-open probe.
  u32 cooldown = 8;
  /// Cooldown growth cap across re-opens (exponential, 1x..backoff_cap x).
  u32 backoff_cap = 8;
};

struct FarmOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  size_t workers = 0;
  /// Cap an explicit `workers` request at hardware_concurrency(). Replay is
  /// CPU-bound, so oversubscribing threads onto fewer cores only buys
  /// context-switch overhead (measured: 8 workers on 1 core ran at 0.11
  /// parallel efficiency). Benchmarks that measure oversubscription on
  /// purpose opt out.
  bool clamp_workers = true;
  /// Maximum unfinished jobs admitted before submit() blocks.
  size_t queue_capacity = 1024;
  /// Per-device quarantine circuit breaker (disabled by default).
  QuarantinePolicy quarantine;
  /// Fault-injection hook, run inside the worker's containment scope just
  /// before verification. Tests install a throwing hook to prove a panic in
  /// the verify path yields Inconclusive and leaves the worker alive.
  /// Must be thread-safe; never set in production.
  std::function<void(DeviceId)> fault_hook;
};

class VerifierFarm {
 public:
  explicit VerifierFarm(crypto::Key key, FarmOptions options = {},
                        u64 rng_seed = 0x5eed'cafe);
  ~VerifierFarm();

  VerifierFarm(const VerifierFarm&) = delete;
  VerifierFarm& operator=(const VerifierFarm&) = delete;

  /// Register `device` as running `deployment` under `config`. Deployments
  /// are shared: provision any number of devices with the same pointer.
  /// Must complete before the first submit for the device.
  void provision(DeviceId device, std::shared_ptr<const Deployment> deployment,
                 VerifyConfig config = {});

  /// Issue a fresh challenge for `device` (recorded for replay-detection).
  cfa::Challenge issue_challenge(DeviceId device);
  /// Register an externally-issued challenge as outstanding for `device`.
  void adopt_challenge(DeviceId device, const cfa::Challenge& chal);

  /// Queue one decoded report chain. Blocks while the farm is at capacity.
  /// The future yields the same VerificationResult a serial Verifier with
  /// this device's deployment/config/session state would produce.
  std::future<VerificationResult> submit(DeviceId device,
                                         const cfa::Challenge& chal,
                                         std::vector<cfa::SignedReport> reports);

  /// Queue one wire-encoded report chain ("RPC1..."), verified zero-copy:
  /// the worker parses views over `wire_chain` and batch-checks every MAC
  /// straight off the buffer before the protocol core runs. Malformed
  /// framing rejects with the parser's error string.
  std::future<VerificationResult> submit_wire(DeviceId device,
                                              const cfa::Challenge& chal,
                                              std::vector<u8> wire_chain);

  /// Block until every admitted job has completed.
  void drain();

  size_t worker_count() const { return workers_.size(); }
  SessionStore& sessions() { return sessions_; }
  /// The RoT key schedule, shared with trusted delivery-layer components
  /// (the VerifierEndpoint MAC-checks datagrams at the door with it).
  const crypto::HmacKeySchedule& key_schedule() const { return key_schedule_; }

  /// Quarantine breaker state for `device` (Closed when unknown).
  enum class Breaker : u8 { Closed, Open, HalfOpen };
  Breaker breaker_state(DeviceId device) const;

  /// External abuse signal: the delivery layer counts `strikes` forgery
  /// strikes against `device` (e.g. datagrams whose report MAC fails at the
  /// endpoint door, or a session exceeding its datagram flood budget).
  /// Feeds the same circuit breaker as in-farm forgery rejects. No-op when
  /// quarantine is disabled or `device` was never provisioned.
  void penalize(DeviceId device, u32 strikes = 1);

 private:
  struct Job {
    cfa::Challenge chal{};
    bool is_wire = false;
    std::vector<cfa::SignedReport> reports;  ///< decoded submissions
    std::vector<u8> wire;                    ///< wire submissions (owned)
    std::promise<VerificationResult> promise;
    u64 enqueue_ns = 0;  ///< admission timestamp (observability builds only)
  };
  struct DeviceState {
    std::shared_ptr<const Deployment> deployment;
    VerifyConfig config;
    std::deque<Job> mailbox;
    bool scheduled = false;  ///< a worker is running a job for this device
    // Circuit breaker (see QuarantinePolicy). Guarded by the farm mutex.
    Breaker breaker = Breaker::Closed;
    u32 strikes = 0;        ///< consecutive forgery strikes
    u32 cooldown_left = 0;  ///< door rejects remaining before a probe
    u32 reopens = 0;        ///< re-open count (cooldown backoff factor)
  };

  std::future<VerificationResult> enqueue(DeviceId device, Job job);
  VerificationResult execute(DeviceId device, const DeviceState& state,
                             Job& job, bool* forgery);
  /// One breaker transition under mu_: a forgery strike or a clean result.
  void update_breaker(DeviceState& state, bool forgery);
  void worker_loop();

  crypto::HmacKeySchedule key_schedule_;
  SessionStore sessions_;

  mutable std::mutex mu_;  ///< guards devices_, ready_, queued_, stopping_
  std::condition_variable work_cv_;   ///< workers: ready_ non-empty / stop
  std::condition_variable space_cv_;  ///< submitters: capacity available
  std::condition_variable drain_cv_;  ///< drain(): queued_ reached zero
  std::unordered_map<DeviceId, DeviceState> devices_;
  std::deque<DeviceId> ready_;  ///< activation tokens (see file comment)
  size_t queued_ = 0;           ///< admitted but not yet completed jobs
  size_t queue_capacity_;
  QuarantinePolicy quarantine_;
  std::function<void(DeviceId)> fault_hook_;
  bool stopping_ = false;

  std::mutex rng_mu_;
  Xoshiro256 rng_;

  std::vector<std::thread> workers_;
};

}  // namespace raptrack::verify
