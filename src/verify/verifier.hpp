// Protocol-level Verifier (Vrf): issues fresh challenges, authenticates the
// (partial + final) report chain, checks H_MEM against the expected deployed
// image, reconstructs the full control-flow path from CF_Log, and applies
// attack-detection policies (shadow call stack, valid indirect-call
// targets). Mirrors the §II-C/§II-D protocol and the §IV-F security
// arguments.
//
// The Verifier is adversary-facing: `verify()` must terminate with a verdict
// on *any* input — corrupted, truncated, reordered, duplicated, or forged
// report chains — and never throw or crash. Verdicts form a three-way
// taxonomy:
//   Accept        — authentic complete chain, lossless reconstruction,
//                   no policy findings.
//   Reject        — positive evidence of tampering or attack (bad MAC,
//                   replayed challenge, wrong H_MEM, equivocating reports,
//                   undecodable authenticated payload, failed reconstruction,
//                   ROP/JOP finding).
//   Inconclusive  — every surviving report is authentic but the chain is
//                   damaged (gaps, duplicates, reordering, missing final).
//                   The Verifier resyncs by sequence number, reconstructs
//                   the contiguous prefix it still has, and reports the
//                   damage as an audit trail (`gaps`, `chain_notes`).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cfa/report.hpp"
#include "cfa/speculation.hpp"
#include "common/rng.hpp"
#include "verify/deployment.hpp"
#include "verify/replayer.hpp"
#include "verify/session_store.hpp"

namespace raptrack::verify {

enum class Verdict : u8 {
  Accept,
  Reject,
  Inconclusive,
};

const char* verdict_name(Verdict verdict);

/// A hole in the partial-report chain: sequence numbers
/// [first_missing, first_missing + missing_count) never arrived.
struct ChainGap {
  u32 first_missing = 0;
  u32 missing_count = 0;

  friend bool operator==(const ChainGap&, const ChainGap&) = default;
};

struct VerificationResult {
  bool authentic = false;       ///< every report MAC valid
  bool fresh = false;           ///< challenge matches, never seen before
  bool chain_ok = false;        ///< sequence numbers contiguous, one final
  bool memory_ok = false;       ///< H_MEM matches the expected image
  bool reconstruction_ok = false;  ///< lossless path replay succeeded
  bool policy_ok = false;       ///< no ROP/JOP findings
  Verdict verdict = Verdict::Reject;
  std::string detail;           ///< first failure explanation
  std::vector<ChainGap> gaps;   ///< missing sequence ranges (resync pass)
  std::vector<std::string> chain_notes;  ///< resync audit trail
  /// Damaged-chain mode: the surviving contiguous prefix replayed into a
  /// non-empty partial path (available in `replay.events` for auditing).
  bool partial_reconstruction = false;
  ReplayResult replay;
  ReplayInputs inputs;          ///< decoded evidence (for audits/diagnostics)

  /// The overall verdict: Prv ran the expected code over an admissible path.
  bool accepted() const { return verdict == Verdict::Accept; }
};

/// Canonical digest of everything a VerificationResult *decides*: verdict,
/// flags, detail, gaps, notes, and the deterministic replay outcome (events,
/// findings, counters, decoded evidence). Deliberately excludes the memo
/// hit/miss telemetry, which depends on what other replays warmed the shared
/// cache. The differential suites pin memoized against unmemoized (and SIMD
/// against scalar) verification by comparing these digests byte-for-byte.
crypto::Digest verification_digest(const VerificationResult& result);

/// The verification core shared by the single-threaded Verifier facade and
/// the VerifierFarm workers: authenticate, freshness-check, resync, decode
/// and replay one report chain against an immutable Deployment.
///
/// All mutable protocol state (the challenge history) lives in `sessions`;
/// everything else is read-only, so any number of concurrent calls may share
/// one Deployment / key schedule / config. `macs_verified` skips the MAC
/// pass when the caller already batch-checked the chain off the wire buffer
/// (the zero-copy admission path). Total: returns a verdict for arbitrary
/// input and never throws.
VerificationResult verify_report_chain(
    const Deployment& deployment, const VerifyConfig& config,
    const crypto::HmacKeySchedule& key, SessionStore& sessions,
    DeviceId device, const cfa::Challenge& chal,
    std::span<const cfa::ReportView> reports, bool macs_verified = false);

class Verifier {
 public:
  Verifier(crypto::Key key, u64 rng_seed = 0x5eed'cafe);

  /// Provision the expected RAP-Track deployment (rewritten image +
  /// manifest, as produced by the Verifier-side offline phase). Builds a
  /// private Deployment cache — program and manifest are copied, so the
  /// arguments need not outlive the call.
  void expect_rap(const Program& program, const rewrite::Manifest& manifest,
                  Address entry);
  void expect_naive(const Program& program, Address entry);
  void expect_traces(const Program& program,
                     const instr::TracesManifest& manifest, Address entry);
  /// Share a prebuilt deployment cache (the farm/fleet provisioning path:
  /// build once, expect() everywhere).
  void expect(std::shared_ptr<const Deployment> deployment) {
    deployment_ = std::move(deployment);
  }
  std::shared_ptr<const Deployment> deployment() const { return deployment_; }

  void set_policy(ReplayPolicy policy) { config_.policy = std::move(policy); }

  /// Provision the SpecCFA-style sub-path dictionary shared with the RoT
  /// (must match the prover's, or speculated payloads fail to decode).
  void set_speculation(const cfa::SpeculationDict* dict) {
    config_.speculation = dict;
  }

  /// Provision the deployment's MTB watermark (bytes). When set, the §IV-E
  /// protocol shape is enforced: every partial report carries exactly
  /// watermark/8 packets and the final chunk strictly fewer — a final chunk
  /// at or above the watermark means the FLOW event never fired on the
  /// device (glitched watermark, silent buffer wrap) and is rejected even
  /// though the report signs valid. 0 (default) disables the check.
  void set_expected_watermark(u32 bytes) { config_.expected_watermark = bytes; }

  /// Toggle the verified sub-path memo cache (default on). The memo-off
  /// ablation path of the benches and the differential tests run through
  /// this.
  void set_memo(bool enabled) { config_.use_memo = enabled; }

  const VerifyConfig& config() const { return config_; }

  /// Issue a fresh challenge (recorded for replay-detection).
  cfa::Challenge fresh_challenge();

  /// Register an externally-issued challenge as outstanding — the
  /// replicated-deployment path where a frontend issues challenges and any
  /// verifier instance may receive the response (also used by the fault
  /// campaign to verify many mutations of one attested run).
  void adopt_challenge(const cfa::Challenge& chal);

  /// Verify a full report chain for `chal`. Total: returns a verdict for
  /// arbitrary input and never throws.
  VerificationResult verify(const cfa::Challenge& chal,
                            const std::vector<cfa::SignedReport>& reports);

 private:
  crypto::HmacKeySchedule key_schedule_;
  Xoshiro256 rng_;
  SessionStore sessions_;  ///< single implicit device (id 0)
  std::shared_ptr<const Deployment> deployment_;
  VerifyConfig config_;
};

}  // namespace raptrack::verify
