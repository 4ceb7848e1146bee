// Shared immutable deployment cache for the Verifier side.
//
// Verifying one report chain used to re-derive, per call, everything the
// offline phase already knew about the expected image: re-hash H_MEM,
// re-decode every instruction the replayer walks, and linearly re-scan the
// manifest for every slot/veneer lookup. A service-scale verifier
// adjudicates thousands of chains against the *same* deployed image, so all
// of that is hoisted here and computed exactly once:
//
//   * ReplayIndex — a dense per-pc step table: the decoded instruction, its
//     replay kind, static target, "logged" bit, the RAP site slot, the
//     RAP/TRACES veneer facts and the length of the straight-line data run
//     starting there; plus the MTBAR slot reverse map the audit needs;
//   * Deployment — an immutable, self-contained bundle of the expected
//     program, its manifest, the expected H_MEM, and the ReplayIndex.
//
// A Deployment owns copies of its program and manifest, never mutates after
// construction, and is shared via shared_ptr<const Deployment>: one instance
// serves every verification of every device running that image, across all
// farm workers concurrently, with no synchronization.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "asm/program.hpp"
#include "crypto/sha256.hpp"
#include "instr/traces_rewriter.hpp"
#include "isa/instruction.hpp"
#include "rewrite/manifest.hpp"
#include "verify/memo.hpp"
#include "verify/replayer.hpp"

namespace raptrack::cfa {
struct SpeculationDict;
}

namespace raptrack::verify {

/// What the replay engine does at one pc. BranchKind, with the data
/// instructions split from SVC gateways and the two return forms apart.
enum class StepKind : u8 {
  Undefined,     ///< the word does not decode
  Data,          ///< straight-line data instruction: valuation transfer only
  Svc,           ///< Secure-World gateway (RAP / TRACES veneers)
  Halt,          ///< HLT / BKPT
  Direct,        ///< B
  DirectCall,    ///< BL
  Conditional,   ///< BCC
  IndirectCall,  ///< BLX rm
  IndirectJump,  ///< BX rm (rm != LR), LDR pc, LDRR pc
  ReturnLr,      ///< BX LR: unmonitored leaf return (§IV-C.2)
  ReturnPop,     ///< POP {…,pc}
};

/// One pc's static replay facts, resolved once per deployment so the replay
/// loop does no classification, hashing or searching per step.
struct ReplayStep {
  /// Bits of `flags`.
  static constexpr u8 kLogged = 1;      ///< Naive, or pc inside MTBAR
  static constexpr u8 kCondVeneer = 2;  ///< TRACES: Bcc reading a direction bit
  static constexpr u8 kCallSite = 4;    ///< IndirectJump that is a call (below)
  static constexpr u8 kSvcVeneer = 8;   ///< SVC belongs to a RAP/TRACES veneer
  static constexpr u8 kSvcLoop = 16;    ///< ...that logs a loop-condition value

  isa::Instruction instr{};
  /// RAP Conditional outside MTBAR: the slot the rewriter gave this original
  /// site (first manifest record for it), or null.
  const rewrite::SlotRecord* site_slot = nullptr;
  /// Data: length of the straight-line run of Data steps starting here,
  /// this one included. 0 for every other kind.
  u32 run = 0;
  /// Direct / DirectCall / Conditional: the static taken-edge target.
  Address target = 0;
  /// kCallSite: the original call site of the RAP IndirectCall slot or
  /// TRACES indirect-call veneer this BX sits in (call-target policy).
  Address call_site = 0;
  StepKind kind = StepKind::Undefined;
  u8 flags = 0;
  /// kSvcLoop: the register the logged loop-condition value is written to.
  isa::Reg svc_iterator = isa::Reg::R0;

  bool has(u8 flag) const { return (flags & flag) != 0; }
};

/// Precomputed lookup structures over one deployed image. Built once per
/// Deployment in one linear pass; immutable after construction. All returned
/// pointers reference the backing manifest, which must outlive the index.
class ReplayIndex {
 public:
  ReplayIndex(const Program& program, ReplayMode mode,
              const rewrite::Manifest* rap,
              const instr::TracesManifest* traces);

  bool contains(Address pc) const { return pc >= base_ && pc < end_; }

  /// Step-table entry for an aligned, contained pc. Consecutive pcs are
  /// consecutive entries, so a run of `run` Data steps reads in one sweep.
  const ReplayStep& step(Address pc) const { return steps_[(pc - base_) >> 2]; }

  /// MTBAR slot containing `addr` (the audit's reverse map), or null.
  const rewrite::SlotRecord* slot_containing(Address addr) const;

 private:
  Address base_ = 0;
  Address end_ = 0;
  std::vector<ReplayStep> steps_;
  std::vector<const rewrite::SlotRecord*> slots_by_base_;  ///< sorted
};

/// Per-deployment verification configuration: small, copyable, and distinct
/// from the heavyweight Deployment so a farm can register many devices
/// sharing one image but (say) different call-target policies.
struct VerifyConfig {
  ReplayPolicy policy;
  /// SpecCFA-style sub-path dictionary shared with the RoT (must match the
  /// prover's, or speculated payloads fail to decode). Borrowed; must
  /// outlive every verification using this config.
  const cfa::SpeculationDict* speculation = nullptr;
  /// §IV-E watermark-shape check, in bytes; 0 disables.
  u32 expected_watermark = 0;
  /// Consult the deployment's verified sub-path cache during replay. Off,
  /// every replay re-simulates from scratch (the memo-off ablation leg).
  /// Verdicts are identical either way.
  bool use_memo = true;
};

/// One expected deployed image, fully preprocessed for verification.
/// Immutable and self-contained (owns its program and manifest copies);
/// share freely across threads via shared_ptr<const Deployment>.
class Deployment {
 public:
  /// RAP replays do not memoize, so a RAP deployment's memo() is an empty
  /// minimal cache and takes no MemoOptions.
  static std::shared_ptr<const Deployment> rap(Program program,
                                               rewrite::Manifest manifest,
                                               Address entry);
  static std::shared_ptr<const Deployment> naive(Program program,
                                                 Address entry,
                                                 MemoOptions memo = {});
  static std::shared_ptr<const Deployment> traces(Program program,
                                                  instr::TracesManifest manifest,
                                                  Address entry,
                                                  MemoOptions memo = {});

  ReplayMode mode() const { return mode_; }
  const Program& program() const { return program_; }
  Address entry() const { return entry_; }
  const rewrite::Manifest* rap_manifest() const {
    return rap_ ? &*rap_ : nullptr;
  }
  const instr::TracesManifest* traces_manifest() const {
    return traces_ ? &*traces_ : nullptr;
  }
  const crypto::Digest& expected_h_mem() const { return h_mem_; }
  const ReplayIndex& index() const { return index_; }
  /// Verified sub-path cache for this image, shared by every verifier and
  /// farm worker replaying against it (internally synchronized — the one
  /// mutable structure behind a const Deployment).
  MemoCache& memo() const { return *memo_; }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

 private:
  Deployment(ReplayMode mode, Program program,
             std::optional<rewrite::Manifest> rap,
             std::optional<instr::TracesManifest> traces, Address entry,
             MemoOptions memo);

  ReplayMode mode_;
  Program program_;  ///< owned copy; index_ points into it
  std::optional<rewrite::Manifest> rap_;
  std::optional<instr::TracesManifest> traces_;
  Address entry_;
  crypto::Digest h_mem_;
  /// unique_ptr (not a direct member) because the cache's shard mutexes are
  /// immovable and the factories hand the Deployment through shared_ptr.
  std::unique_ptr<MemoCache> memo_;
  ReplayIndex index_;  ///< declared last: built over the members above
};

}  // namespace raptrack::verify
