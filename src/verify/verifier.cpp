#include "verify/verifier.hpp"

#include <algorithm>
#include <map>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace raptrack::verify {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Accept: return "ACCEPT";
    case Verdict::Reject: return "REJECT";
    case Verdict::Inconclusive: return "INCONCLUSIVE";
  }
  return "?";
}

Verifier::Verifier(crypto::Key key, u64 rng_seed)
    : key_schedule_(key), rng_(rng_seed) {}

namespace {

/// Length-prefixed, fixed-width field streaming so distinct results can
/// never collide by concatenation ambiguity.
struct DigestStream {
  crypto::Sha256 h;

  void u64le(u64 v) {
    u8 bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(v >> (8 * i));
    h.update(bytes);
  }
  void u32le(u32 v) { u64le(v); }
  void boolean(bool v) { u64le(v ? 1 : 0); }
  void str(const std::string& s) {
    u64le(s.size());
    h.update(std::span<const u8>(reinterpret_cast<const u8*>(s.data()),
                                 s.size()));
  }
};

}  // namespace

crypto::Digest verification_digest(const VerificationResult& result) {
  DigestStream out;
  out.u64le(static_cast<u64>(result.verdict));
  out.boolean(result.authentic);
  out.boolean(result.fresh);
  out.boolean(result.chain_ok);
  out.boolean(result.memory_ok);
  out.boolean(result.reconstruction_ok);
  out.boolean(result.policy_ok);
  out.boolean(result.partial_reconstruction);
  out.str(result.detail);
  out.u64le(result.gaps.size());
  for (const auto& gap : result.gaps) {
    out.u32le(gap.first_missing);
    out.u32le(gap.missing_count);
  }
  out.u64le(result.chain_notes.size());
  for (const auto& note : result.chain_notes) out.str(note);
  const ReplayResult& replay = result.replay;
  out.boolean(replay.complete);
  out.str(replay.failure);
  out.u64le(replay.steps);
  // memo_hits / memo_misses intentionally omitted: cache-warmth telemetry,
  // not part of the verification outcome.
  out.u64le(replay.events.size());
  for (const auto& event : replay.events) {
    out.u32le(event.source);
    out.u32le(event.destination);
    out.u64le(static_cast<u64>(event.kind));
  }
  out.u64le(replay.findings.size());
  for (const auto& finding : replay.findings) {
    out.u32le(finding.site);
    out.u32le(finding.expected);
    out.u32le(finding.observed);
    out.str(finding.description);
  }
  const ReplayInputs& inputs = result.inputs;
  out.u64le(inputs.packets.size());
  for (const auto& packet : inputs.packets) {
    out.u32le(packet.source);
    out.u32le(packet.destination);
    out.boolean(packet.atomic_restart);
  }
  out.u64le(inputs.loop_values.size());
  for (const u32 value : inputs.loop_values) out.u32le(value);
  out.u64le(inputs.traces_log.direction_bits.size());
  for (const bool bit : inputs.traces_log.direction_bits) out.boolean(bit);
  out.u64le(inputs.traces_log.indirect_targets.size());
  for (const Address target : inputs.traces_log.indirect_targets) {
    out.u32le(target);
  }
  out.u64le(inputs.traces_log.loop_conditions.size());
  for (const u32 value : inputs.traces_log.loop_conditions) out.u32le(value);
  return out.h.finalize();
}

void Verifier::expect_rap(const Program& program,
                          const rewrite::Manifest& manifest, Address entry) {
  deployment_ = Deployment::rap(program, manifest, entry);
}

void Verifier::expect_naive(const Program& program, Address entry) {
  deployment_ = Deployment::naive(program, entry);
}

void Verifier::expect_traces(const Program& program,
                             const instr::TracesManifest& manifest,
                             Address entry) {
  deployment_ = Deployment::traces(program, manifest, entry);
}

cfa::Challenge Verifier::fresh_challenge() {
  cfa::Challenge chal;
  for (size_t i = 0; i < chal.size(); i += 8) {
    const u64 word = rng_.next();
    for (size_t j = 0; j < 8 && i + j < chal.size(); ++j) {
      chal[i + j] = static_cast<u8>(word >> (8 * j));
    }
  }
  sessions_.issue(0, chal);
  return chal;
}

void Verifier::adopt_challenge(const cfa::Challenge& chal) {
  sessions_.issue(0, chal);
}

namespace {

/// Decode one report's payload into `inputs`. Returns an empty string on
/// success, the rejection reason otherwise. Never throws.
std::string decode_into(const cfa::ReportView& report, ReplayMode mode,
                        const cfa::SpeculationDict* speculation,
                        ReplayInputs& inputs) {
  using cfa::PayloadType;
  if (!cfa::payload_type_valid(static_cast<u8>(report.type))) {
    return "unknown payload type";
  }
  switch (report.type) {
    case PayloadType::RapPackets: {
      if (mode != ReplayMode::Rap) return "payload/mode mismatch";
      auto chunk = cfa::try_decode_packets(report.payload);
      if (!chunk.ok()) return chunk.error;
      inputs.packets.insert(inputs.packets.end(), chunk->begin(), chunk->end());
      return {};
    }
    case PayloadType::RapFinal: {
      if (mode != ReplayMode::Rap) return "payload/mode mismatch";
      auto final_payload = cfa::try_decode_rap_final(report.payload);
      if (!final_payload.ok()) return final_payload.error;
      inputs.packets.insert(inputs.packets.end(),
                            final_payload->packets.begin(),
                            final_payload->packets.end());
      inputs.loop_values = std::move(final_payload->loop_values);
      return {};
    }
    case PayloadType::NaivePackets: {
      if (mode != ReplayMode::Naive) return "payload/mode mismatch";
      auto chunk = cfa::try_decode_packets(report.payload);
      if (!chunk.ok()) return chunk.error;
      inputs.packets.insert(inputs.packets.end(), chunk->begin(), chunk->end());
      return {};
    }
    case PayloadType::RapSpecPackets: {
      if (mode != ReplayMode::Rap) return "payload/mode mismatch";
      if (speculation == nullptr) {
        return "speculated payload but no dictionary provisioned";
      }
      try {
        auto chunk = cfa::decode_speculated(report.payload, *speculation);
        inputs.packets.insert(inputs.packets.end(), chunk.begin(), chunk.end());
      } catch (const Error& e) {
        return e.what();
      }
      return {};
    }
    case PayloadType::RapSpecFinal: {
      if (mode != ReplayMode::Rap) return "payload/mode mismatch";
      if (speculation == nullptr) {
        return "speculated payload but no dictionary provisioned";
      }
      try {
        auto final_payload =
            cfa::decode_spec_final(report.payload, *speculation);
        inputs.packets.insert(inputs.packets.end(),
                              final_payload.packets.begin(),
                              final_payload.packets.end());
        inputs.loop_values = std::move(final_payload.loop_values);
      } catch (const Error& e) {
        return e.what();
      }
      return {};
    }
    case PayloadType::TracesChunk: {
      if (mode != ReplayMode::Traces) return "payload/mode mismatch";
      auto chunk = cfa::try_decode_traces_chunk(report.payload);
      if (!chunk.ok()) return chunk.error;
      auto& log = inputs.traces_log;
      log.direction_bits.insert(log.direction_bits.end(),
                                chunk->direction_bits.begin(),
                                chunk->direction_bits.end());
      log.indirect_targets.insert(log.indirect_targets.end(),
                                  chunk->indirect_targets.begin(),
                                  chunk->indirect_targets.end());
      log.loop_conditions.insert(log.loop_conditions.end(),
                                 chunk->loop_values.begin(),
                                 chunk->loop_values.end());
      return {};
    }
  }
  return "unknown payload type";
}

// Chain metric handles, registered once. Looking these up per chain would
// mean a map find under the registry mutex on every verification.
struct ChainMetrics {
  obs::Counter chains = obs::registry().counter("verify.chains");
  obs::Counter accept = obs::registry().counter("verify.verdict.accept");
  obs::Counter reject = obs::registry().counter("verify.verdict.reject");
  obs::Counter inconclusive =
      obs::registry().counter("verify.verdict.inconclusive");
  obs::Counter replay_steps = obs::registry().counter("verify.replay_steps");

  static ChainMetrics& get() {
    static ChainMetrics metrics;
    return metrics;
  }
};

// RAII observability for one verify_report_chain call: a span session for
// the phase timeline plus, on exit (any of the many return paths), verdict
// tallies and the replay step count. No-cost when RAP_OBS is off.
struct ChainObs {
  const VerificationResult* result;
  obs::SessionId session = 0;

  explicit ChainObs(const VerificationResult& r) : result(&r) {
    if constexpr (obs::kEnabled) {
      session = obs::tracer().begin_session("verify_chain");
    }
  }

  obs::SpanTracer::Scope phase(const char* name) {
    return obs::tracer().span(session, name);
  }

  ~ChainObs() {
    if constexpr (obs::kEnabled) {
      auto& metrics = ChainMetrics::get();
      metrics.chains.inc();
      switch (result->verdict) {
        case Verdict::Accept: metrics.accept.inc(); break;
        case Verdict::Reject: metrics.reject.inc(); break;
        case Verdict::Inconclusive: metrics.inconclusive.inc(); break;
      }
      metrics.replay_steps.inc(result->replay.steps);
    }
  }
};

}  // namespace

VerificationResult verify_report_chain(
    const Deployment& deployment, const VerifyConfig& config,
    const crypto::HmacKeySchedule& key, SessionStore& sessions,
    DeviceId device, const cfa::Challenge& chal,
    std::span<const cfa::ReportView> reports, bool macs_verified) {
  VerificationResult result;
  const auto reject = [&result](std::string why) -> VerificationResult& {
    result.verdict = Verdict::Reject;
    if (result.detail.empty()) result.detail = std::move(why);
    return result;
  };

  ChainObs cobs(result);
  if (reports.empty()) return reject("no reports");

  // (1) Authenticity: every report carries a valid MAC under the RoT key.
  //     An invalid MAC is positive evidence of forgery or transport
  //     corruption — reject before trusting any other field. The wire
  //     admission path batch-checks MACs straight off the receive buffer
  //     and passes macs_verified to skip the duplicate work here.
  if (!macs_verified) {
    auto span = cobs.phase("mac_check");
    // Wire-backed views expose their contiguous MAC input: feed the whole
    // chain to the multi-buffer HMAC lanes in one batch. Field-backed views
    // (no contiguous input) keep the streaming check.
    const bool batchable =
        reports.size() >= 2 &&
        std::all_of(reports.begin(), reports.end(),
                    [](const cfa::ReportView& r) { return !r.mac_input.empty(); });
    if (batchable) {
      std::vector<crypto::MacClaim> claims;
      claims.reserve(reports.size());
      for (const auto& report : reports) claims.push_back(report.claim());
      if (const auto bad = crypto::hmac_verify_batch(key, claims)) {
        // Identical wording to the serial check below, so batched and serial
        // admission of the same chain yield byte-identical verdicts.
        return reject("report MAC invalid (seq " +
                      std::to_string(reports[*bad].sequence) + ")");
      }
    } else {
      for (const auto& report : reports) {
        if (!report.verify(key)) {
          return reject("report MAC invalid (seq " +
                        std::to_string(report.sequence) + ")");
        }
      }
    }
  }
  result.authentic = true;

  // (2) Freshness: the challenge was issued by us, is not reused, and every
  //     report echoes it. The challenge is consumed only once a terminal
  //     verdict (Accept/Reject) is reached — an Inconclusive chain keeps it
  //     outstanding so the Prover can retransmit missing chunks.
  if (sessions.state(device, chal) != SessionStore::ChallengeState::Outstanding) {
    return reject("challenge not outstanding (replay?)");
  }
  for (const auto& report : reports) {
    if (report.chal != chal) {
      // Authentic evidence, but bound to some other challenge: not a
      // response to `chal` at all. Reject the pairing without burning the
      // challenge — the genuine response may still arrive.
      return reject("report echoes a different challenge");
    }
  }
  result.fresh = true;
  const auto consume_challenge = [&] { sessions.consume(device, chal); };

  // (3) Chain integrity: as received, sequence numbers must be 0..n-1 with
  //     exactly one final report in last position.
  bool strict_ok = true;
  for (size_t i = 0; i < reports.size(); ++i) {
    const bool should_be_final = (i + 1 == reports.size());
    if (reports[i].sequence != i ||
        reports[i].final_report != should_be_final) {
      strict_ok = false;
      break;
    }
  }
  result.chain_ok = strict_ok;

  // Resync pass for a damaged chain: dedupe exact retransmissions, order by
  // authenticated sequence number, and map the gaps. Equivocation (two
  // different authentic reports claiming the same sequence) is a terminal
  // tamper signal, not damage.
  std::vector<const cfa::ReportView*> usable;
  if (strict_ok) {
    for (const auto& report : reports) usable.push_back(&report);
  } else {
    auto span = cobs.phase("resync");
    std::map<u32, const cfa::ReportView*> by_sequence;
    for (const auto& report : reports) {
      auto [it, inserted] = by_sequence.emplace(report.sequence, &report);
      if (inserted) continue;
      if (it->second->same_bytes(report)) {
        result.chain_notes.push_back(
            "duplicate report seq " + std::to_string(report.sequence) +
            " dropped (identical retransmission)");
      } else {
        consume_challenge();
        return reject("equivocating reports at seq " +
                      std::to_string(report.sequence));
      }
    }
    const u32 max_seq = by_sequence.rbegin()->first;
    for (const auto& [seq, report] : by_sequence) {
      if (report->final_report && seq != max_seq) {
        consume_challenge();
        return reject("report after the final (final at seq " +
                      std::to_string(seq) + ")");
      }
    }
    if (!by_sequence.rbegin()->second->final_report) {
      result.chain_notes.push_back("final report missing (chain truncated)");
    }
    // Gap map over [0, max_seq].
    u32 expected = 0;
    for (const auto& [seq, report] : by_sequence) {
      if (seq > expected) {
        result.gaps.push_back({expected, seq - expected});
        result.chain_notes.push_back(
            "gap: reports " + std::to_string(expected) + ".." +
            std::to_string(seq - 1) + " missing");
      }
      expected = seq + 1;
    }
    if (result.gaps.empty() && by_sequence.size() == reports.size() &&
        by_sequence.rbegin()->second->final_report) {
      result.chain_notes.push_back(
          "chain arrived out of order; resynced by sequence");
    }
    // The reconstructible evidence is the contiguous prefix from seq 0.
    const u32 prefix_end =
        result.gaps.empty() ? max_seq + 1 : result.gaps.front().first_missing;
    for (const auto& [seq, report] : by_sequence) {
      if (seq >= prefix_end) break;
      usable.push_back(report);
    }
  }

  // (4) Memory integrity: H_MEM consistent and equal to the expected image.
  for (const auto& report : reports) {
    if (!crypto::digest_equal(deployment.expected_h_mem(), report.h_mem)) {
      consume_challenge();
      return reject("H_MEM does not match the expected binary");
    }
  }
  result.memory_ok = true;

  // (5) Decode + concatenate the usable evidence (typed decoders: hostile
  //     payload bytes yield a rejection, never a crash).
  const ReplayMode mode = deployment.mode();
  ReplayInputs inputs;
  {
  auto decode_span = cobs.phase("decode");
  for (const auto* report : usable) {
    const size_t packets_before = inputs.packets.size();
    const std::string error =
        decode_into(*report, mode, config.speculation, inputs);
    if (!error.empty()) {
      consume_challenge();
      return reject("payload decode failed: " + error);
    }
    // §IV-E protocol shape: with a provisioned watermark, a partial chunk is
    // exactly watermark/8 packets (the FLOW event fired) and the final chunk
    // strictly fewer. A fatter final chunk means the watermark never fired
    // on the device — a glitched FLOW register silently wrapping the buffer
    // — and the evidence, though authentically signed, is not trustworthy.
    if (config.expected_watermark != 0 && mode != ReplayMode::Traces) {
      const size_t chunk = inputs.packets.size() - packets_before;
      const size_t limit =
          config.expected_watermark / trace::BranchPacket::kBytes;
      if (!report->final_report && chunk != limit) {
        consume_challenge();
        return reject("partial report chunk (" + std::to_string(chunk) +
                      " packets) does not match the configured watermark");
      }
      if (report->final_report && chunk >= limit) {
        consume_challenge();
        return reject("final chunk (" + std::to_string(chunk) +
                      " packets) at or above the configured watermark — "
                      "FLOW event never fired (silent MTB wrap?)");
      }
    }
  }
  }

  // (6) Lossless path reconstruction + (7) attack policies.
  PathReplayer replayer(deployment);
  replayer.set_policy(config.policy);
  if (config.use_memo) replayer.set_memo(&deployment.memo());
  try {
    auto span = cobs.phase("replay");
    result.replay = replayer.replay(inputs);
  } catch (const Error& e) {
    consume_challenge();
    return reject(std::string("replay aborted: ") + e.what());
  }
  result.inputs = std::move(inputs);

  if (strict_ok) {
    result.reconstruction_ok = result.replay.complete;
    result.policy_ok = result.replay.findings.empty();
    if (!result.reconstruction_ok) {
      consume_challenge();
      return reject("reconstruction failed: " + result.replay.failure);
    }
    if (!result.policy_ok) {
      consume_challenge();
      return reject("attack detected: " +
                    result.replay.findings.front().description);
    }
    consume_challenge();
    result.verdict = Verdict::Accept;
    return result;
  }

  // Damaged chain: the prefix replay is an audit artifact, never an Accept.
  // Findings inside the surviving prefix are still positive attack evidence.
  result.partial_reconstruction = !result.replay.events.empty();
  if (!result.replay.findings.empty()) {
    consume_challenge();
    return reject("attack detected in partial reconstruction: " +
                  result.replay.findings.front().description);
  }
  result.verdict = Verdict::Inconclusive;
  result.detail =
      "chain damaged: " +
      (result.chain_notes.empty() ? std::string("sequence disorder")
                                  : result.chain_notes.front()) +
      " (" + std::to_string(result.replay.events.size()) +
      " transfers recovered from the surviving prefix)";
  return result;
}

VerificationResult Verifier::verify(
    const cfa::Challenge& chal, const std::vector<cfa::SignedReport>& reports) {
  if (!deployment_) {
    VerificationResult result;
    result.verdict = Verdict::Reject;
    result.detail = "verifier has no expected deployment";
    return result;
  }
  std::vector<cfa::ReportView> views;
  views.reserve(reports.size());
  for (const auto& report : reports) views.push_back(cfa::ReportView::of(report));
  return verify_report_chain(*deployment_, config_, key_schedule_, sessions_,
                             /*device=*/0, chal, views);
}

}  // namespace raptrack::verify
