// Lossless control-flow path reconstruction (the Verifier-side core of CFA).
//
// The replayer walks the deployed binary, re-deriving every control-flow
// decision from three sources:
//   1. static knowledge  — direct branches/calls and, via a constant-
//      propagating shadow valuation, the "statically deterministic" simple
//      loops of §IV-C (MOVI-initialized counters, CMPI bounds);
//   2. the CF_Log        — MTB packets (RAP-Track / naive), or the TRACES
//      bit/target/loop streams, consumed in execution order;
//   3. a shadow call stack — BX LR leaf returns, which RAP-Track leaves
//      unmonitored because LR is provably unchanged (§IV-C.2).
//
// Between decisions it retires whole straight-line runs of data
// instructions at once, off the per-deployment step table (deployment.hpp).
//
// The result is the complete sequence of taken branches, comparable against
// the simulator's ground-truth oracle — the testable definition of
// "lossless". Every decision is read off the evidence in one greedy pass:
// the RAP rewriter makes each logged site decidable from the next packet
// alone (see SlotKind::CondBoth). Deviations between logged evidence and
// the shadow call stack (ROP) or the valid-target policy (JOP) are surfaced
// as attack findings rather than reconstruction failures: CFA's job is to
// give the Verifier visibility into the malicious path (§II-D).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "instr/traces_engine.hpp"
#include "rewrite/manifest.hpp"
#include "trace/trace_fabric.hpp"

namespace raptrack::verify {

enum class ReplayMode : u8 { Rap, Naive, Traces };

struct ReplayInputs {
  trace::PacketLog packets;           ///< Rap & Naive
  std::vector<u32> loop_values;       ///< Rap loop-condition stream
  instr::TracesLog traces_log;        ///< Traces streams
};

struct AttackFinding {
  Address site = 0;
  Address expected = 0;
  Address observed = 0;
  std::string description;
};

struct ReplayResult {
  bool complete = false;   ///< reached HLT with all evidence consumed
  std::string failure;     ///< first reconstruction failure, if any
  std::vector<trace::OracleEvent> events;  ///< reconstructed branch history
  std::vector<AttackFinding> findings;     ///< policy violations observed
  /// Instructions walked, including each instruction of a retired
  /// straight-line run (at most max_steps).
  u64 steps = 0;
  /// Memo-cache effectiveness (verified sub-path cache, memo.hpp): segment
  /// anchors spliced from a stored segment vs. anchors that missed and
  /// recorded fresh. NOT part of the verification outcome — the values
  /// depend on which other replays warmed the shared cache, so digests and
  /// result comparisons must exclude them (verification_digest does).
  u64 memo_hits = 0;
  u64 memo_misses = 0;

  bool clean() const { return complete && findings.empty(); }
};

struct ReplayPolicy {
  /// Indirect-call targets the Verifier considers legitimate (function
  /// entries discovered offline). Empty set disables the check.
  std::set<Address> valid_call_targets;
};

class Deployment;
class MemoCache;
class ReplayIndex;

class PathReplayer {
 public:
  /// Replay against a prebuilt deployment cache: program, manifests, entry
  /// and the precomputed ReplayIndex all come from `deployment`, which must
  /// outlive the replayer.
  explicit PathReplayer(const Deployment& deployment);

  void set_policy(ReplayPolicy policy) { policy_ = std::move(policy); }
  /// Attach a verified sub-path cache (normally the Deployment's). Naive and
  /// TRACES replay() then splices previously-verified segments instead of
  /// re-simulating them; verdicts, events, findings and deterministic
  /// counters are bit-identical either way (tests/test_memo enforces this).
  /// RAP replays and check_path() never consult the cache.
  void set_memo(MemoCache* memo) { memo_ = memo; }

  ReplayResult replay(const ReplayInputs& inputs, u64 max_steps = 100'000'000);

  /// Checker mode: instead of reading decisions off the evidence, follow
  /// `path` (e.g. a ground-truth oracle trace) and verify it is consistent
  /// with the evidence.
  ReplayResult check_path(const std::vector<trace::OracleEvent>& path,
                          const ReplayInputs& inputs,
                          u64 max_steps = 100'000'000);

 private:
  const ReplayIndex* index_;
  Address entry_;
  ReplayMode mode_;
  MemoCache* memo_ = nullptr;
  ReplayPolicy policy_;
};

}  // namespace raptrack::verify
