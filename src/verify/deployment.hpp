// Shared immutable deployment cache for the Verifier side.
//
// Verifying one report chain used to re-derive, per call, everything the
// offline phase already knew about the expected image: re-hash H_MEM,
// re-decode every instruction the replayer walks, and linearly re-scan the
// manifest for every slot/veneer lookup. A service-scale verifier
// adjudicates thousands of chains against the *same* deployed image, so all
// of that is hoisted here and computed exactly once:
//
//   * ReplayIndex — dense predecoded instruction array (reusing
//     isa::DecodedImage), a per-instruction static branch-target table (the
//     CFG successor map at instruction granularity), O(log n)/O(1) MTBAR
//     slot and veneer lookups, and the slot→original-site reverse map the
//     audit needs;
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
#include <unordered_map>
#include <vector>

#include "asm/program.hpp"
#include "crypto/sha256.hpp"
#include "instr/traces_rewriter.hpp"
#include "isa/decoded_image.hpp"
#include "rewrite/manifest.hpp"
#include "verify/memo.hpp"
#include "verify/replayer.hpp"

namespace raptrack::cfa {
struct SpeculationDict;
}

namespace raptrack::verify {

/// Precomputed lookup structures over one deployed image. Built once per
/// Deployment; immutable after construction. All returned pointers
/// reference the backing program and manifest, which must outlive the index.
class ReplayIndex {
 public:
  ReplayIndex(const Program& program, ReplayMode mode,
              const rewrite::Manifest* rap,
              const instr::TracesManifest* traces);

  bool contains(Address pc) const { return decoded_.contains(pc); }

  /// Predecoded instruction at an aligned, contained pc. nullptr when the
  /// word does not decode: the index is built from the deployment's own
  /// bytes with the default cycle model and never invalidated, so predecode
  /// declines nothing that Program::instruction_at would decode.
  const isa::Instruction* instruction_at(Address pc) const {
    const auto& slot = decoded_.slot(pc);
    return slot.kind == isa::SlotKind::Valid ? &slot.instr : nullptr;
  }

  /// Static successor map: the precomputed taken-edge destination of the
  /// direct / conditional / direct-call instruction at `pc` (0 for every
  /// other instruction — those kinds always have a nonzero target here).
  Address branch_target(Address pc) const {
    return targets_[(pc - decoded_.base()) >> 2];
  }

  // -- RAP manifest lookups (indexed equivalents of rewrite::Manifest) ------
  bool in_mtbar(Address addr) const {
    return has_mtbar_ && addr >= mtbar_base_ && addr <= mtbar_limit_;
  }
  const rewrite::SlotRecord* slot_containing(Address addr) const;
  const rewrite::SlotRecord* slot_for_site(Address site) const;
  const rewrite::LoopVeneerRecord* rap_veneer_at_svc(Address svc_addr) const;

  // -- TRACES manifest lookups ----------------------------------------------
  const instr::VeneerRecord* traces_veneer_containing(Address addr) const;
  const instr::VeneerRecord* traces_veneer_at_svc(Address svc_addr) const;

  /// Original-program address for a reconstructed event source: MTBAR slot
  /// sources map back to the rewritten site (the audit's reverse map).
  Address original_site(Address source) const {
    const auto* slot = slot_containing(source);
    return slot != nullptr ? slot->site : source;
  }

 private:
  isa::DecodedImage decoded_;
  std::vector<Address> targets_;  ///< per-slot static branch target (or 0)

  bool has_mtbar_ = false;
  Address mtbar_base_ = 0;
  Address mtbar_limit_ = 0;
  std::vector<const rewrite::SlotRecord*> slots_by_base_;  ///< sorted
  std::unordered_map<Address, const rewrite::SlotRecord*> slot_by_site_;
  std::unordered_map<Address, const rewrite::LoopVeneerRecord*> rap_svc_;
  std::vector<const instr::VeneerRecord*> veneers_by_base_;  ///< sorted
  std::unordered_map<Address, const instr::VeneerRecord*> traces_svc_;
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
