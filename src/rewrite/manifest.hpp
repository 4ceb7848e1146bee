// Rewrite manifest: the offline phase's output metadata. The Verifier holds
// this (it produced the deployed binary) and uses it to map MTB packets —
// whose sources are MTBAR slot addresses — back to the original program's
// control-flow decisions during lossless path reconstruction.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cfg/loop_analysis.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace raptrack::rewrite {

/// What a trampoline slot implements.
enum class SlotKind : u8 {
  IndirectCall,   ///< Fig 3: BL slot; slot ends with BX rm
  IndirectJump,   ///< Fig 4: B slot; slot ends with BX rm / LDR pc
  ReturnPop,      ///< Fig 4: B slot; slot ends with POP {…,pc}
  CondTaken,      ///< Figs 5/6: Bcc retargeted to slot; slot is B taken_target
  CondNotTaken,   ///< Fig 7: fall-through displaced; slot re-executes it and
                  ///< branches back — one packet per loop iteration
  CondBoth,       ///< site becomes B slot; slot is Bcc taken_target ; B site+4
                  ///< — one packet per dynamic instance, either direction.
                  ///< Used where either single-edge slot would be ambiguous.
};

const char* slot_kind_name(SlotKind kind);

/// One MTBAR trampoline slot.
struct SlotRecord {
  SlotKind kind = SlotKind::IndirectCall;
  Address slot_base = 0;   ///< first word of the slot (nop padding)
  Address slot_end = 0;    ///< exclusive
  Address site = 0;        ///< original branch site (the Bcc for Cond* kinds)
  isa::Instruction original;  ///< the instruction that was rewritten/displaced
  /// CondTaken/CondBoth: the original taken target. CondNotTaken: the
  /// address the slot branches back to (site + 8).
  Address continuation = 0;
};

/// One loop-optimization veneer (§IV-D): the displaced preheader instruction
/// followed by an SVC that logs the loop-condition register, then a branch
/// to the loop header.
struct LoopVeneerRecord {
  Address veneer_base = 0;   ///< address of the displaced instruction
  Address svc_addr = 0;
  Address site = 0;          ///< original preheader instruction address
  isa::Instruction displaced;
  cfg::SimpleLoop loop;
};

struct Manifest {
  Address code_begin = 0;
  Address code_end = 0;     ///< original code range (now the bulk of MTBDR)
  Address image_end = 0;    ///< end of the rewritten image
  Address mtbar_base = 0;   ///< MTBAR = [mtbar_base, mtbar_limit] inclusive
  Address mtbar_limit = 0;
  Address mtbdr_base = 0;   ///< MTBDR = [mtbdr_base, mtbdr_limit] inclusive
  Address mtbdr_limit = 0;
  u32 nop_pad = 0;          ///< nops per slot (MTB activation latency cover)

  std::vector<SlotRecord> slots;
  std::vector<LoopVeneerRecord> loop_veneers;
  /// Deterministic simple loops (no logging; Verifier resolves by constant
  /// propagation). Keyed by controlling-branch address.
  std::map<Address, cfg::SimpleLoop> deterministic_loops;

  /// Slot containing `addr` (packet sources point into slots).
  const SlotRecord* slot_containing(Address addr) const;
  /// Slot for original site `site` (at most one per site).
  const SlotRecord* slot_for_site(Address site) const;
  /// Veneer whose SVC instruction is at `svc_addr`.
  const LoopVeneerRecord* veneer_at_svc(Address svc_addr) const;
  /// Veneer installed at original site `site`.
  const LoopVeneerRecord* veneer_for_site(Address site) const;
};

}  // namespace raptrack::rewrite
