// Session protocol over the lossy link: resilient delivery of one device's
// report chain to the verifier farm.
//
// ProverEndpoint frames each SignedReport as a sequence-numbered Data
// datagram and runs a windowed ARQ sender: unacknowledged frames retransmit
// on timeout with capped exponential backoff plus deterministic seeded
// jitter; a cumulative ACK releases the retransmit buffer prefix; a
// selective NACK re-sends exactly the requested sequence ranges. Once every
// frame is ACKed the sender probes (re-sending its final frame with the
// same backoff schedule) until the terminal Verdict datagram arrives or the
// retry budget is exhausted — the bounded give-up outcome.
//
// VerifierEndpoint is the farm's front door. Per (device, session) it
// reassembles the chain from Data datagrams — CRC-checked by the wire
// layer, then MAC-checked at the door so a link-tampered report never
// enters reassembly (it costs the sender a quarantine strike instead) —
// cumulatively ACKs progress, and once the final report is present submits
// the assembled chain to the VerifierFarm. An Inconclusive verdict's gap
// list becomes a selective NACK; repaired ranges trigger resubmission,
// converting Inconclusive into Accept after repair. Terminal verdicts are
// cached and re-announced for late/duplicate datagrams, so a lost Verdict
// frame is recovered by the prover's probe.
//
// Crash recovery: snapshot() captures the farm's SessionStore (challenge
// state) plus every in-flight session's reassembly buffer, gap list and
// cached verdict under one CRC-checked blob; restore() resumes a fresh
// endpoint + farm mid-campaign to the same terminal verdict digest the
// uninterrupted run reaches.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "verify/farm.hpp"

namespace raptrack::net {

// -- prover side -------------------------------------------------------------

struct ProverOptions {
  /// Max unACKed Data frames in flight.
  u32 window = 8;
  /// First retransmission timeout, in link ticks.
  u32 initial_rto_ticks = 8;
  /// Backoff cap: rto doubles per retry up to this.
  u32 max_rto_ticks = 64;
  /// Deterministic jitter added to every deadline, drawn uniform in
  /// [0, jitter_ticks) from the endpoint's seeded generator.
  u32 jitter_ticks = 4;
  /// Per-frame retry budget; exhausting it is the bounded give-up verdict.
  u32 max_retries = 12;
};

struct ProverStats {
  u64 datagrams_sent = 0;
  u64 retransmits_timeout = 0;
  u64 retransmits_nack = 0;
  u64 acks_received = 0;
  u64 verdict_probes = 0;
  u32 max_rto_reached = 0;  ///< highest backoff the session hit
};

enum class ProverPhase : u8 {
  Sending,  ///< frames unACKed or verdict outstanding
  Done,     ///< terminal Verdict received
  GaveUp,   ///< retry budget exhausted (link presumed dead)
};

class ProverEndpoint {
 public:
  /// `chain` is the fully-signed report chain for `session` (challenge
  /// already embedded in the reports). `seed` drives the backoff jitter.
  ProverEndpoint(verify::DeviceId device, u64 session,
                 std::vector<cfa::SignedReport> chain,
                 ProverOptions options = {}, u64 seed = 0x5eed'beef);

  /// One scheduler step at the link's current tick: drain inbound ACK /
  /// NACK / Verdict datagrams, admit new frames into the window, fire
  /// retransmission timeouts.
  void on_tick(DuplexLink& link);

  ProverPhase phase() const { return phase_; }
  const std::optional<VerdictMessage>& verdict() const { return verdict_; }
  const ProverStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::vector<u8> frame;  ///< encoded Data datagram, reused verbatim
    bool sent = false;
    bool acked = false;
    u64 deadline = 0;
    u32 rto = 0;
    u32 retries = 0;
  };

  void handle(const Datagram& dgram, DuplexLink& link);
  void transmit(size_t index, DuplexLink& link);
  void arm(Slot& slot, u64 now);  ///< deadline = now + rto + jitter
  size_t in_flight() const;

  verify::DeviceId device_;
  u64 session_;
  ProverOptions options_;
  Xoshiro256 rng_;
  ProverStats stats_;
  std::vector<Slot> slots_;
  u32 cumulative_ack_ = 0;  ///< best cumulative ACK seen
  size_t next_unsent_ = 0;
  ProverPhase phase_ = ProverPhase::Sending;
  std::optional<VerdictMessage> verdict_;
  // Verdict probe (all frames ACKed, waiting for the terminal datagram).
  u64 probe_deadline_ = 0;
  u32 probe_rto_ = 0;
  u32 probe_retries_ = 0;
};

// -- verifier side -----------------------------------------------------------

struct VerifierOptions {
  /// Data datagrams a session may receive before every further one counts
  /// a flood strike against the device (0 disables). A well-behaved prover
  /// needs ~chain_length * (1 + retransmit overhead) datagrams.
  u32 flood_datagram_budget = 0;
  /// Hard cap on distinct report sequences buffered per session: bounds
  /// memory against a malicious sender inventing sequence numbers.
  u32 max_session_reports = 4096;
};

struct VerifierStats {
  u64 datagrams_received = 0;
  u64 decode_drops = 0;     ///< undecodable frame or report payload
  u64 mac_drops = 0;        ///< authentic-looking frame, forged report
  u64 duplicate_reports = 0;
  u64 acks_sent = 0;
  u64 nack_ranges_sent = 0;
  u64 submissions = 0;
  u64 repair_rounds = 0;    ///< Inconclusive submissions that NACKed gaps
  u64 verdicts_sent = 0;
  u64 flood_strikes = 0;
};

class VerifierEndpoint {
 public:
  explicit VerifierEndpoint(verify::VerifierFarm& farm,
                            VerifierOptions options = {});

  /// Drain inbound datagrams at the link's current tick: reassemble,
  /// ACK/NACK, submit completed chains to the farm, announce verdicts.
  void on_tick(DuplexLink& link);

  const VerifierStats& stats() const { return stats_; }

  /// Terminal state of one session, if it reached a verdict.
  struct SessionInfo {
    bool terminal = false;
    VerdictMessage verdict{};
    u32 repair_rounds = 0;
    std::vector<SeqRange> open_gaps;  ///< last NACKed ranges, if any
  };
  std::optional<SessionInfo> session_info(verify::DeviceId device,
                                          u64 session) const;

  // -- crash recovery --------------------------------------------------------

  /// Checksummed snapshot: the farm's SessionStore (challenge state) plus
  /// every session's reassembly buffer, gap list and cached verdict.
  /// Deployments are NOT included — a restarted verifier re-provisions its
  /// farm from the image registry before restoring.
  std::vector<u8> snapshot() const;

  /// Load a snapshot() blob into this endpoint *and* its farm's
  /// SessionStore. Returns false (state untouched) on bad magic, any other
  /// snapshot version, truncation, trailing bytes, or checksum mismatch.
  bool restore(std::span<const u8> blob);

 private:
  struct Session {
    cfa::Challenge chal{};
    bool chal_known = false;
    std::map<u32, cfa::SignedReport> received;  ///< by sequence, MAC-valid
    /// Authentic reports conflicting with `received` at the same sequence:
    /// only the key holder can produce these, so they ride along into the
    /// submission, where the core convicts the equivocation.
    std::vector<cfa::SignedReport> extras;
    u32 next_ack = 0;      ///< every sequence < next_ack is present
    bool have_final = false;
    bool dirty = false;    ///< new evidence since the last submission
    bool terminal = false;
    VerdictMessage verdict{};
    std::vector<SeqRange> open_gaps;
    u32 repair_rounds = 0;
    u64 datagrams = 0;     ///< flood accounting
  };
  using SessionKey = std::pair<u64, u64>;  ///< (device, session)

  void on_data(const Datagram& dgram, DuplexLink& link);
  void maybe_submit(const SessionKey& key, Session& session, DuplexLink& link);
  void send_ack(const SessionKey& key, const Session& session,
                DuplexLink& link);
  void send_verdict(const SessionKey& key, const Session& session,
                    DuplexLink& link);

  verify::VerifierFarm& farm_;
  VerifierOptions options_;
  VerifierStats stats_;
  std::map<SessionKey, Session> sessions_;  ///< ordered: snapshots determinize
};

// -- session pump ------------------------------------------------------------

struct SessionOutcome {
  ProverPhase phase = ProverPhase::GaveUp;
  std::optional<VerdictMessage> verdict;  ///< set when phase == Done
  u64 ticks = 0;
};

/// Drive one prover/verifier pair over `link` until the prover terminates
/// (Done or GaveUp) or `max_ticks` elapse. Each tick: prover step, verifier
/// step, clock advance — fully deterministic given the endpoint and link
/// seeds.
SessionOutcome run_session(ProverEndpoint& prover, VerifierEndpoint& verifier,
                           DuplexLink& link, u64 max_ticks = 100'000);

}  // namespace raptrack::net
