#include "net/endpoint.hpp"

#include <algorithm>
#include <utility>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace raptrack::net {

namespace {

// Endpoint-wide metric handles, registered once (same pattern as the farm).
struct NetMetrics {
  obs::Counter datagrams_sent = obs::registry().counter("net.datagrams_sent");
  obs::Counter datagrams_received =
      obs::registry().counter("net.datagrams_received");
  obs::Counter decode_drops = obs::registry().counter("net.decode_drops");
  obs::Counter mac_drops = obs::registry().counter("net.mac_drops");
  obs::Counter retransmits_timeout =
      obs::registry().counter("net.retransmits_timeout");
  obs::Counter retransmits_nack =
      obs::registry().counter("net.retransmits_nack");
  obs::Counter verdict_probes = obs::registry().counter("net.verdict_probes");
  obs::Counter submissions = obs::registry().counter("net.submissions");
  obs::Counter repair_rounds = obs::registry().counter("net.repair_rounds");
  obs::Counter verdicts_sent = obs::registry().counter("net.verdicts_sent");
  obs::Counter flood_strikes = obs::registry().counter("net.flood_strikes");
  obs::Counter sessions_accepted =
      obs::registry().counter("net.sessions.accepted");
  obs::Counter sessions_rejected =
      obs::registry().counter("net.sessions.rejected");
  obs::Histogram backoff = obs::registry().histogram(
      "net.backoff_rto_ticks", {8, 16, 32, 64, 128});

  static NetMetrics& get() {
    static NetMetrics metrics;
    return metrics;
  }
};

constexpr u8 kSnapshotMagic[4] = {'V', 'S', 'S', '1'};
// v3 holds challenge state and delivery sessions only. Earlier versions
// carried per-deployment memo-cache sections and are refused whole.
constexpr u32 kSnapshotVersion = 3;

void put_u32(std::vector<u8>& out, u32 value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(value >> (8 * i)));
}

void put_u64(std::vector<u8>& out, u64 value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(value >> (8 * i)));
}

void put_bytes(std::vector<u8>& out, std::span<const u8> bytes) {
  put_u32(out, static_cast<u32>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

struct SnapReader {
  std::span<const u8> data;
  size_t pos = 0;
  bool failed = false;

  u8 u8_value() {
    if (failed || data.size() - pos < 1) {
      failed = true;
      return 0;
    }
    return data[pos++];
  }

  u32 u32_value() {
    if (failed || data.size() - pos < 4) {
      failed = true;
      return 0;
    }
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }

  u64 u64_value() {
    if (failed || data.size() - pos < 8) {
      failed = true;
      return 0;
    }
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }

  std::span<const u8> bytes_value() {
    const u32 len = u32_value();
    if (failed || data.size() - pos < len) {
      failed = true;
      return {};
    }
    const auto result = data.subspan(pos, len);
    pos += len;
    return result;
  }

  bool done() const { return !failed && pos == data.size(); }
};

bool detail_has_prefix(const std::string& detail, const char* prefix) {
  return detail.rfind(prefix, 0) == 0;
}

}  // namespace

// -- ProverEndpoint ----------------------------------------------------------

ProverEndpoint::ProverEndpoint(verify::DeviceId device, u64 session,
                               std::vector<cfa::SignedReport> chain,
                               ProverOptions options, u64 seed)
    : device_(device), session_(session), options_(options), rng_(seed) {
  options_.window = std::max<u32>(options_.window, 1);
  options_.initial_rto_ticks = std::max<u32>(options_.initial_rto_ticks, 1);
  options_.max_rto_ticks =
      std::max(options_.max_rto_ticks, options_.initial_rto_ticks);
  slots_.reserve(chain.size());
  for (const auto& report : chain) {
    Datagram dgram;
    dgram.kind = DatagramKind::Data;
    dgram.device = device_;
    dgram.session = session_;
    dgram.seq = report.sequence;
    dgram.payload = cfa::encode_report(report);
    Slot slot;
    slot.frame = encode_datagram(dgram);
    slots_.push_back(std::move(slot));
  }
  if (slots_.empty()) phase_ = ProverPhase::GaveUp;
}

size_t ProverEndpoint::in_flight() const {
  size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot.sent && !slot.acked) ++count;
  }
  return count;
}

void ProverEndpoint::arm(Slot& slot, u64 now) {
  slot.deadline =
      now + slot.rto + rng_.next_below(std::max<u32>(options_.jitter_ticks, 1));
  stats_.max_rto_reached = std::max(stats_.max_rto_reached, slot.rto);
  NetMetrics::get().backoff.observe(slot.rto);
}

void ProverEndpoint::transmit(size_t index, DuplexLink& link) {
  Slot& slot = slots_[index];
  link.send_to_verifier(slot.frame);
  ++stats_.datagrams_sent;
  NetMetrics::get().datagrams_sent.inc();
  if (!slot.sent) {
    slot.sent = true;
    slot.rto = options_.initial_rto_ticks;
  }
  arm(slot, link.now());
}

void ProverEndpoint::handle(const Datagram& dgram, DuplexLink& link) {
  switch (dgram.kind) {
    case DatagramKind::Ack: {
      ++stats_.acks_received;
      // Cumulative: everything below the ACK leaves the retransmit set
      // (frames are kept but never re-armed; a stale reordered ACK cannot
      // regress progress because we fold with max).
      cumulative_ack_ = std::max(cumulative_ack_, dgram.seq);
      for (size_t i = 0; i < slots_.size() && i < cumulative_ack_; ++i) {
        slots_[i].acked = true;
      }
      auto ranges = try_decode_nack_ranges(dgram.payload);
      if (!ranges.ok()) return;
      // Selective NACK: re-send exactly the requested sequences, now, with
      // the slot's current backoff re-armed (loss of the repair falls back
      // to the timeout path).
      for (const auto& range : *ranges) {
        const u64 end = u64{range.first} + range.count;
        for (u64 seq = range.first; seq < end && seq < slots_.size(); ++seq) {
          Slot& slot = slots_[seq];
          if (slot.acked || !slot.sent) continue;
          ++stats_.retransmits_nack;
          NetMetrics::get().retransmits_nack.inc();
          transmit(static_cast<size_t>(seq), link);
        }
      }
      return;
    }
    case DatagramKind::Verdict: {
      auto message = try_decode_verdict(dgram.payload);
      if (!message.ok()) return;
      verdict_ = std::move(*message);
      phase_ = ProverPhase::Done;
      return;
    }
    case DatagramKind::Data:
      return;  // not expected on the prover-bound direction
  }
}

void ProverEndpoint::on_tick(DuplexLink& link) {
  for (const auto& frame : link.receive_at_prover()) {
    if (phase_ != ProverPhase::Sending) break;
    auto dgram = try_decode_datagram(frame);
    if (!dgram.ok()) continue;  // line corruption: CRC already paid for this
    if (dgram->device != device_ || dgram->session != session_) continue;
    handle(*dgram, link);
  }
  if (phase_ != ProverPhase::Sending) return;
  const u64 now = link.now();

  // Admit new frames into the window.
  while (next_unsent_ < slots_.size() && in_flight() < options_.window) {
    if (!slots_[next_unsent_].sent) transmit(next_unsent_, link);
    ++next_unsent_;
  }

  // Retransmission timeouts: capped exponential backoff per frame.
  for (size_t i = 0; i < next_unsent_; ++i) {
    Slot& slot = slots_[i];
    if (!slot.sent || slot.acked || slot.deadline > now) continue;
    if (slot.retries >= options_.max_retries) {
      phase_ = ProverPhase::GaveUp;
      return;
    }
    ++slot.retries;
    slot.rto = std::min(slot.rto * 2, options_.max_rto_ticks);
    ++stats_.retransmits_timeout;
    NetMetrics::get().retransmits_timeout.inc();
    transmit(i, link);
  }

  // Everything ACKed: probe for the (possibly lost) Verdict datagram by
  // re-sending the final frame on the same backoff schedule.
  const bool all_acked = std::all_of(slots_.begin(), slots_.end(),
                                     [](const Slot& s) { return s.acked; });
  if (all_acked && !verdict_.has_value()) {
    if (probe_deadline_ == 0) {
      probe_rto_ = options_.initial_rto_ticks;
      probe_deadline_ =
          now + probe_rto_ +
          rng_.next_below(std::max<u32>(options_.jitter_ticks, 1));
    } else if (probe_deadline_ <= now) {
      if (probe_retries_ >= options_.max_retries) {
        phase_ = ProverPhase::GaveUp;
        return;
      }
      ++probe_retries_;
      ++stats_.verdict_probes;
      NetMetrics::get().verdict_probes.inc();
      link.send_to_verifier(slots_.back().frame);
      ++stats_.datagrams_sent;
      NetMetrics::get().datagrams_sent.inc();
      probe_rto_ = std::min(probe_rto_ * 2, options_.max_rto_ticks);
      probe_deadline_ =
          now + probe_rto_ +
          rng_.next_below(std::max<u32>(options_.jitter_ticks, 1));
    }
  }
}

// -- VerifierEndpoint --------------------------------------------------------

VerifierEndpoint::VerifierEndpoint(verify::VerifierFarm& farm,
                                   VerifierOptions options)
    : farm_(farm), options_(options) {}

void VerifierEndpoint::send_ack(const SessionKey& key, const Session& session,
                                DuplexLink& link) {
  Datagram dgram;
  dgram.kind = DatagramKind::Ack;
  dgram.device = key.first;
  dgram.session = key.second;
  dgram.seq = session.next_ack;
  dgram.payload = encode_nack_ranges(session.open_gaps);
  link.send_to_prover(encode_datagram(dgram));
  ++stats_.acks_sent;
  stats_.nack_ranges_sent += session.open_gaps.size();
}

void VerifierEndpoint::send_verdict(const SessionKey& key,
                                    const Session& session, DuplexLink& link) {
  Datagram dgram;
  dgram.kind = DatagramKind::Verdict;
  dgram.device = key.first;
  dgram.session = key.second;
  dgram.seq = session.next_ack;
  dgram.payload = encode_verdict(session.verdict);
  link.send_to_prover(encode_datagram(dgram));
  ++stats_.verdicts_sent;
  NetMetrics::get().verdicts_sent.inc();
}

void VerifierEndpoint::maybe_submit(const SessionKey& key, Session& session,
                                    DuplexLink& link) {
  if (!session.have_final || !session.dirty || session.terminal) return;
  session.dirty = false;

  obs::SessionId obs_session = 0;
  if constexpr (obs::kEnabled) {
    obs_session = obs::tracer().begin_session("net_delivery");
  }
  std::vector<cfa::SignedReport> chain;
  chain.reserve(session.received.size() + session.extras.size());
  for (const auto& [seq, report] : session.received) chain.push_back(report);
  for (const auto& report : session.extras) chain.push_back(report);

  ++stats_.submissions;
  NetMetrics::get().submissions.inc();
  verify::VerificationResult result;
  {
    auto span = obs::tracer().span(obs_session, "farm_roundtrip");
    result = farm_.submit(key.first, session.chal, std::move(chain)).get();
  }

  // A quarantine door-reject is admission control, not a protocol verdict:
  // the session stays open and the evidence re-submits after re-admission.
  if (result.verdict == verify::Verdict::Reject &&
      detail_has_prefix(result.detail, "device quarantined")) {
    session.dirty = true;
    return;
  }
  if (result.verdict == verify::Verdict::Inconclusive) {
    // A contained worker panic adjudicated nothing — retry the submission
    // on the next inbound datagram (the prover's probe guarantees one).
    if (detail_has_prefix(result.detail, "verifier exception contained")) {
      session.dirty = true;
      return;
    }
    // Damaged chain: VerifyResult.gaps becomes the selective NACK, and the
    // repairs re-trigger submission. This is the Inconclusive -> Accept
    // conversion the delivery layer exists for.
    session.open_gaps.clear();
    for (const auto& gap : result.gaps) {
      session.open_gaps.push_back({gap.first_missing, gap.missing_count});
    }
    if (!session.open_gaps.empty()) {
      ++stats_.repair_rounds;
      ++session.repair_rounds;
      NetMetrics::get().repair_rounds.inc();
    }
    return;
  }
  session.terminal = true;
  session.verdict.verdict = result.verdict;
  session.verdict.digest = result_digest(result);
  session.verdict.detail = result.detail;
  session.open_gaps.clear();
  if constexpr (obs::kEnabled) {
    if (result.verdict == verify::Verdict::Accept) {
      NetMetrics::get().sessions_accepted.inc();
    } else {
      NetMetrics::get().sessions_rejected.inc();
    }
  }
  send_verdict(key, session, link);
}

void VerifierEndpoint::on_data(const Datagram& dgram, DuplexLink& link) {
  const SessionKey key{dgram.device, dgram.session};
  // Look the session up without creating it: a session starts only once a
  // report passes the MAC door, so forged datagrams under invented session
  // ids leave no state behind (and nothing in later snapshots).
  auto found = sessions_.find(key);
  if (found != sessions_.end()) {
    ++found->second.datagrams;
    if (options_.flood_datagram_budget != 0 &&
        found->second.datagrams > options_.flood_datagram_budget) {
      ++stats_.flood_strikes;
      NetMetrics::get().flood_strikes.inc();
      farm_.penalize(dgram.device);
      return;
    }
  }
  auto report = cfa::try_decode_report(dgram.payload);
  if (!report.ok()) {
    // CRC-valid frame, garbage report: that is crafted, not line noise.
    ++stats_.decode_drops;
    NetMetrics::get().decode_drops.inc();
    farm_.penalize(dgram.device);
    return;
  }
  // MAC check at the door: a link-tampered report never enters reassembly,
  // so a later genuine retransmission of the same sequence cannot be
  // mistaken for equivocation. Each forgery is a quarantine strike.
  if (!cfa::ReportView::of(*report).verify(farm_.key_schedule())) {
    ++stats_.mac_drops;
    NetMetrics::get().mac_drops.inc();
    farm_.penalize(dgram.device);
    return;
  }
  if (found == sessions_.end()) {
    found = sessions_.emplace(key, Session{}).first;
    found->second.datagrams = 1;
  }
  Session& session = found->second;
  if (session.terminal) {
    // Late or duplicated data after the verdict: re-announce it so a lost
    // Verdict frame converges via the prover's probe.
    send_verdict(key, session, link);
    return;
  }
  const auto it = session.received.find(report->sequence);
  if (it != session.received.end()) {
    if (it->second == *report) {
      ++stats_.duplicate_reports;
    } else {
      // Two *authentic* reports for one sequence: only the key holder can
      // produce that. Carry both into the submission; the protocol core
      // convicts the equivocation.
      const bool seen = std::any_of(
          session.extras.begin(), session.extras.end(),
          [&](const cfa::SignedReport& extra) { return extra == *report; });
      if (!seen) {
        session.extras.push_back(std::move(*report));
        session.dirty = true;
      }
    }
  } else if (session.received.size() + session.extras.size() <
             options_.max_session_reports) {
    if (!session.chal_known) {
      session.chal = report->chal;
      session.chal_known = true;
    }
    session.have_final |= report->final_report;
    session.received.emplace(report->sequence, std::move(*report));
    session.dirty = true;
    while (session.received.contains(session.next_ack)) ++session.next_ack;
  }
  maybe_submit(key, session, link);
  if (!session.terminal) send_ack(key, session, link);
}

void VerifierEndpoint::on_tick(DuplexLink& link) {
  for (const auto& frame : link.receive_at_verifier()) {
    auto dgram = try_decode_datagram(frame);
    if (!dgram.ok()) continue;  // line corruption, already paid for by CRC
    ++stats_.datagrams_received;
    NetMetrics::get().datagrams_received.inc();
    if (dgram->kind == DatagramKind::Data) on_data(*dgram, link);
  }
}

std::optional<VerifierEndpoint::SessionInfo> VerifierEndpoint::session_info(
    verify::DeviceId device, u64 session) const {
  const auto it = sessions_.find({device, session});
  if (it == sessions_.end()) return std::nullopt;
  SessionInfo info;
  info.terminal = it->second.terminal;
  info.verdict = it->second.verdict;
  info.repair_rounds = it->second.repair_rounds;
  info.open_gaps = it->second.open_gaps;
  return info;
}

std::vector<u8> VerifierEndpoint::snapshot() const {
  std::vector<u8> out(std::begin(kSnapshotMagic), std::end(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  put_bytes(out, farm_.sessions().serialize());
  put_u32(out, static_cast<u32>(sessions_.size()));
  for (const auto& [key, session] : sessions_) {
    put_u64(out, key.first);
    put_u64(out, key.second);
    out.insert(out.end(), session.chal.begin(), session.chal.end());
    put_u32(out, session.next_ack);
    const u8 flags = static_cast<u8>(session.chal_known) |
                     static_cast<u8>(session.have_final) << 1 |
                     static_cast<u8>(session.dirty) << 2 |
                     static_cast<u8>(session.terminal) << 3;
    out.push_back(flags);
    out.push_back(static_cast<u8>(session.verdict.verdict));
    out.insert(out.end(), session.verdict.digest.begin(),
               session.verdict.digest.end());
    put_bytes(out, std::span<const u8>(
                       reinterpret_cast<const u8*>(session.verdict.detail.data()),
                       session.verdict.detail.size()));
    put_u32(out, session.repair_rounds);
    put_u64(out, session.datagrams);
    put_u32(out, static_cast<u32>(session.open_gaps.size()));
    for (const auto& range : session.open_gaps) {
      put_u32(out, range.first);
      put_u32(out, range.count);
    }
    put_u32(out, static_cast<u32>(session.received.size()));
    for (const auto& [seq, report] : session.received) {
      put_bytes(out, cfa::encode_report(report));
    }
    put_u32(out, static_cast<u32>(session.extras.size()));
    for (const auto& report : session.extras) {
      put_bytes(out, cfa::encode_report(report));
    }
  }
  put_u32(out, crc32(out));
  return out;
}

bool VerifierEndpoint::restore(std::span<const u8> blob) {
  if (blob.size() < sizeof(kSnapshotMagic) + 8) return false;
  if (!std::equal(std::begin(kSnapshotMagic), std::end(kSnapshotMagic),
                  blob.begin())) {
    return false;
  }
  const auto body = blob.first(blob.size() - 4);
  u32 stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<u32>(blob[blob.size() - 4 + i]) << (8 * i);
  }
  if (crc32(body) != stored) return false;

  SnapReader reader{body.subspan(sizeof(kSnapshotMagic))};
  if (reader.u32_value() != kSnapshotVersion) return false;
  const auto store_blob = reader.bytes_value();

  std::map<SessionKey, Session> restored;
  const u32 session_count = reader.u32_value();
  for (u32 s = 0; s < session_count && !reader.failed; ++s) {
    const u64 device = reader.u64_value();
    const u64 session_id = reader.u64_value();
    Session session;
    for (auto& byte : session.chal) byte = reader.u8_value();
    session.next_ack = reader.u32_value();
    const u8 flags = reader.u8_value();
    session.chal_known = (flags & 1) != 0;
    session.have_final = (flags & 2) != 0;
    session.dirty = (flags & 4) != 0;
    session.terminal = (flags & 8) != 0;
    const u8 verdict = reader.u8_value();
    if (verdict > static_cast<u8>(verify::Verdict::Inconclusive)) return false;
    session.verdict.verdict = static_cast<verify::Verdict>(verdict);
    for (auto& byte : session.verdict.digest) byte = reader.u8_value();
    const auto detail = reader.bytes_value();
    session.verdict.detail.assign(detail.begin(), detail.end());
    session.repair_rounds = reader.u32_value();
    session.datagrams = reader.u64_value();
    const u32 gap_count = reader.u32_value();
    for (u32 i = 0; i < gap_count && !reader.failed; ++i) {
      SeqRange range;
      range.first = reader.u32_value();
      range.count = reader.u32_value();
      session.open_gaps.push_back(range);
    }
    const u32 received_count = reader.u32_value();
    for (u32 i = 0; i < received_count && !reader.failed; ++i) {
      auto decoded = cfa::try_decode_report(reader.bytes_value());
      if (!decoded.ok()) return false;
      session.received.emplace(decoded->sequence, std::move(*decoded));
    }
    const u32 extra_count = reader.u32_value();
    for (u32 i = 0; i < extra_count && !reader.failed; ++i) {
      auto decoded = cfa::try_decode_report(reader.bytes_value());
      if (!decoded.ok()) return false;
      session.extras.push_back(std::move(*decoded));
    }
    restored.emplace(SessionKey{device, session_id}, std::move(session));
  }
  if (!reader.done()) return false;
  if (!farm_.sessions().deserialize(store_blob)) return false;
  sessions_ = std::move(restored);
  return true;
}

// -- session pump ------------------------------------------------------------

SessionOutcome run_session(ProverEndpoint& prover, VerifierEndpoint& verifier,
                           DuplexLink& link, u64 max_ticks) {
  const u64 start = link.now();
  while (link.now() - start < max_ticks) {
    prover.on_tick(link);
    verifier.on_tick(link);
    link.advance();
    if (prover.phase() != ProverPhase::Sending) break;
  }
  SessionOutcome outcome;
  // A pump that ran out of ticks while still Sending is a give-up too: the
  // budget is part of the bounded-delivery contract.
  outcome.phase = prover.phase() == ProverPhase::Done ? ProverPhase::Done
                                                      : ProverPhase::GaveUp;
  outcome.verdict = prover.verdict();
  outcome.ticks = link.now() - start;
  return outcome;
}

}  // namespace raptrack::net
