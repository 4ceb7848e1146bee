#include "rewrite/rap_rewriter.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/hex.hpp"
#include "isa/semantics.hpp"
#include "tz/secure_monitor.hpp"

namespace raptrack::rewrite {

using cfg::BccRole;
using isa::BranchKind;
using isa::Instruction;
using isa::Op;

namespace {

/// Reject program shapes the offline phase cannot handle soundly.
void validate_program(const Program& program, Address code_begin,
                      Address code_end) {
  for (Address addr = code_begin; addr < code_end; addr += 4) {
    const auto instr = program.instruction_at(addr);
    if (!instr) continue;  // inline data: never executed by convention
    if (instr->op == Op::SVC) {
      throw Error("rewrite: application code may not contain SVC (" +
                  hex32(addr) + ")");
    }
    // Explicit LR writes would break the "BX LR is deterministic" insight
    // of §IV-C.2 (the paper's compiler convention guarantees this; our
    // assembler-level applications follow it and the rewriter enforces it).
    if (isa::writes_lr(*instr)) {
      throw Error("rewrite: explicit LR write at " + hex32(addr) +
                  " violates the return-determinism convention");
    }
  }
}

/// A displaced instruction must be re-executable at a different address.
/// PC-relative instructions (direct branches) need retargeting; anything
/// else is position-independent in RT-ISA.
bool displaceable_verbatim(const Instruction& instr) {
  switch (isa::branch_kind(instr)) {
    case BranchKind::None:
      return instr.op != Op::SVC;
    default:
      return false;
  }
}

class Rewriter {
 public:
  Rewriter(const Program& original, Address entry, Address code_begin,
           Address code_end, const RewriteOptions& options)
      : result_{.program = original},
        entry_(entry),
        code_begin_(code_begin),
        code_end_(code_end),
        options_(options) {}

  RewriteResult run() {
    validate_program(result_.program, code_begin_, code_end_);
    result_.original_bytes = result_.program.size();

    const cfg::Cfg graph(result_.program, entry_, code_begin_, code_end_,
                         options_.extra_cfg_roots);
    cfg::LoopAnalysis loops = cfg::analyze_loops(graph);
    if (!options_.deterministic_loop_elision || !options_.loop_optimization) {
      // Ablation modes: demote optimized roles back to per-iteration logging.
      for (auto& [site, role] : loops.bcc_roles) {
        const bool demote_det =
            !options_.deterministic_loop_elision && role == BccRole::Deterministic;
        const bool demote_opt =
            !options_.loop_optimization && role == BccRole::LoopCondition;
        if (demote_det || demote_opt) {
          const auto& simple = loops.simple_loops.at(site);
          role = simple.forward_exit ? BccRole::LogNotTaken : BccRole::LogTaken;
        }
      }
    }

    graph_ = &graph;
    build_unlogged_graph(logged_by_role(loops));
    plan_sites(loops);
    close_residual_ambiguity();
    emit_veneers();
    emit_slots();
    patch_sites();
    finalize_manifest(loops);
    return std::move(result_);
  }

 private:
  struct PlannedSlot {
    SlotKind kind;
    Address site;
    Instruction original;
    Address continuation = 0;  // CondTaken/CondBoth: taken target;
                               // CondNotTaken: resume
  };
  struct PlannedVeneer {
    Address site;  // preheader instruction address
    Instruction displaced;
    cfg::SimpleLoop loop;
  };

  // -- silent-rejoin analysis ------------------------------------------------
  //
  // Taken-edge-only logging (Fig 5) leaves the Verifier unable to attribute
  // a slot packet to a dynamic instance when the *unlogged* direction can
  // re-reach the site without crossing any logged branch (e.g. a recursive
  // call guarded by a base-case conditional: the not-taken path re-enters
  // the function through an unlogged direct call). Where exactly one
  // direction has that property, we log the other direction instead — the
  // local parse becomes decidable while staying lossless. Sites the flip
  // cannot fix get a CondBoth slot that logs both edges
  // (close_residual_ambiguity), so every slot decision the Verifier makes
  // is certain and one greedy pass reconstructs the path.

  /// Which directions of a conditional site produce a CF_Log packet.
  struct LoggedEdges {
    bool taken = false;
    bool fallthrough = false;
  };
  using LoggedMap = std::map<Address, LoggedEdges>;

  static LoggedMap logged_by_role(const cfg::LoopAnalysis& loops) {
    LoggedMap logged;
    for (const auto& [site, role] : loops.bcc_roles) {
      if (role == BccRole::LogTaken) logged[site].taken = true;
      if (role == BccRole::LogNotTaken) logged[site].fallthrough = true;
    }
    return logged;
  }

  /// Blocks reachable from `begin` via edges that produce no CF_Log packet:
  /// fall-throughs, direct branches/calls, unlogged conditional directions,
  /// and unmonitored BX LR returns (over-approximated as edges to every
  /// call-return site).
  void build_unlogged_graph(const LoggedMap& logged) {
    const cfg::Cfg& graph = *graph_;
    unlogged_edges_.clear();
    std::vector<Address> return_sites;
    for (const auto& [begin, block] : graph.blocks()) {
      if (block.terminator == BranchKind::DirectCall &&
          block.end < code_end_) {
        return_sites.push_back(graph.block_containing(block.end).begin);
      }
    }
    for (const auto& [begin, block] : graph.blocks()) {
      auto& out = unlogged_edges_[begin];
      const auto add_block_of = [&](Address addr) {
        if (in_code(addr)) out.push_back(graph.block_containing(addr).begin);
      };
      const Address last = block.last_instr();
      const auto instr = result_.program.instruction_at(last);
      switch (block.terminator) {
        case BranchKind::None:
          add_block_of(block.end);
          break;
        case BranchKind::Direct:
          add_block_of(isa::branch_target(*instr, last));
          break;
        case BranchKind::DirectCall:
          add_block_of(isa::branch_target(*instr, last));  // into the callee
          break;
        case BranchKind::Conditional: {
          const auto it = logged.find(last);
          const LoggedEdges edges = it != logged.end() ? it->second : LoggedEdges{};
          if (!edges.taken) add_block_of(isa::branch_target(*instr, last));
          if (!edges.fallthrough) add_block_of(block.end);
          break;
        }
        case BranchKind::Return:
          if (instr->op == Op::BX) {  // unmonitored leaf return
            for (const Address site : return_sites) out.push_back(site);
          }
          break;
        default:
          break;  // indirect jumps/calls and POP returns are logged
      }
    }
  }

  bool in_code(Address addr) const {
    return addr >= code_begin_ && addr < code_end_;
  }

  /// Can the block holding `from` re-reach the block holding `site`
  /// through unlogged edges?
  bool silently_reaches(Address from, Address site) const {
    if (!in_code(from)) return false;
    const Address site_block = graph_->block_containing(site).begin;
    std::vector<Address> worklist{graph_->block_containing(from).begin};
    std::set<Address> seen;
    while (!worklist.empty()) {
      const Address block = worklist.back();
      worklist.pop_back();
      if (!seen.insert(block).second) continue;
      if (block == site_block) return true;
      const auto it = unlogged_edges_.find(block);
      if (it == unlogged_edges_.end()) continue;
      for (const Address next : it->second) worklist.push_back(next);
    }
    return false;
  }

  void plan_sites(const cfg::LoopAnalysis& loops) {
    const Program& program = result_.program;
    for (Address addr = code_begin_; addr < code_end_; addr += 4) {
      const auto decoded = program.instruction_at(addr);
      if (!decoded) continue;
      const Instruction instr = *decoded;
      switch (isa::branch_kind(instr)) {
        case BranchKind::IndirectCall:
          planned_slots_.push_back({SlotKind::IndirectCall, addr, instr, 0});
          break;
        case BranchKind::IndirectJump:
          planned_slots_.push_back({SlotKind::IndirectJump, addr, instr, 0});
          break;
        case BranchKind::Return:
          // BX LR stays unmonitored (§IV-C.2); POP {…,pc} is monitored.
          if (instr.op == Op::POP) {
            planned_slots_.push_back({SlotKind::ReturnPop, addr, instr, 0});
          }
          break;
        case BranchKind::Conditional:
          plan_conditional(addr, instr, loops);
          break;
        default:
          break;
      }
    }
  }

  void plan_conditional(Address site, const Instruction& bcc,
                        const cfg::LoopAnalysis& loops) {
    const BccRole role = loops.bcc_roles.at(site);
    switch (role) {
      case BccRole::Deterministic:
        return;  // §IV-C: statically reconstructible, no logging
      case BccRole::LoopCondition: {
        const auto& simple = loops.simple_loops.at(site);
        const auto displaced =
            result_.program.instruction_at(simple.preheader_instr);
        if (displaced && displaceable_verbatim(*displaced)) {
          planned_veneers_.push_back({simple.preheader_instr, *displaced, simple});
          return;
        }
        // Preheader not displaceable: fall back to per-iteration logging.
        break;
      }
      case BccRole::LogTaken:
      case BccRole::LogNotTaken:
        break;
    }

    if (role == BccRole::LogNotTaken ||
        (role == BccRole::LoopCondition &&
         loops.simple_loops.at(site).forward_exit)) {
      // Fig 7: displace the first fall-through instruction.
      const Address fallthrough = site + 4;
      const auto displaced =
          fallthrough < code_end_ ? result_.program.instruction_at(fallthrough)
                                  : std::nullopt;
      if (displaced && displaceable_verbatim(*displaced)) {
        planned_slots_.push_back(
            {SlotKind::CondNotTaken, site, *displaced, site + 8});
        return;
      }
      // Fall-through not displaceable: log the taken edge instead (still
      // lossless; slightly different packet pattern).
    }
    // Figs 5/6 default: retarget the taken edge through a slot. For forward
    // if/else sites whose fall-through silently rejoins the site while the
    // taken path does not (see build_unlogged_graph), log the not-taken
    // edge instead so the Verifier's parse stays locally decidable.
    const Address taken_target = isa::branch_target(bcc, site);
    if (role == BccRole::LogTaken && taken_target > site &&
        site + 4 < code_end_) {
      const bool fallthrough_rejoins = silently_reaches(site + 4, site);
      const bool taken_rejoins = silently_reaches(taken_target, site);
      if (fallthrough_rejoins && !taken_rejoins) {
        const auto displaced = result_.program.instruction_at(site + 4);
        if (displaced && displaceable_verbatim(*displaced)) {
          planned_slots_.push_back(
              {SlotKind::CondNotTaken, site, *displaced, site + 8});
          return;
        }
      }
    }
    planned_slots_.push_back({SlotKind::CondTaken, site, bcc, taken_target});
  }

  /// Re-derive the unlogged graph from the slot kinds actually planned
  /// (fallbacks and flips moved some logged directions) and give every
  /// conditional slot whose unlogged direction still silently re-reaches
  /// its own site a CondBoth slot. Converting a slot only removes unlogged
  /// edges, so no decision here can create a new ambiguity: one pass over
  /// the planned graph is enough.
  void close_residual_ambiguity() {
    LoggedMap logged;
    for (const auto& slot : planned_slots_) {
      if (slot.kind == SlotKind::CondTaken) logged[slot.site].taken = true;
      if (slot.kind == SlotKind::CondNotTaken) {
        logged[slot.site].fallthrough = true;
      }
    }
    build_unlogged_graph(logged);
    for (PlannedSlot& slot : planned_slots_) {
      if (slot.kind != SlotKind::CondTaken &&
          slot.kind != SlotKind::CondNotTaken) {
        continue;
      }
      const Instruction bcc = *result_.program.instruction_at(slot.site);
      const Address taken_target = isa::branch_target(bcc, slot.site);
      const Address unlogged =
          slot.kind == SlotKind::CondTaken ? slot.site + 4 : taken_target;
      if (silently_reaches(unlogged, slot.site)) {
        slot = {SlotKind::CondBoth, slot.site, bcc, taken_target};
      }
    }
  }

  void emit_veneers() {
    Program& program = result_.program;
    for (const auto& planned : planned_veneers_) {
      // Veneer layout (MTBDR): displaced-instr; SVC log-loop; B header.
      const Address veneer_base = program.end();
      std::vector<u32> words;
      words.push_back(isa::encode(planned.displaced));
      const Address svc_addr = veneer_base + 4;
      words.push_back(isa::encode(isa::make_svc(
          static_cast<u8>(tz::Service::kRapLogLoopCondition))));
      const Address branch_addr = veneer_base + 8;
      words.push_back(isa::encode(isa::make_branch(
          Op::B, isa::branch_offset(branch_addr, planned.loop.header))));
      program.append_words(words);

      LoopVeneerRecord record;
      record.veneer_base = veneer_base;
      record.svc_addr = svc_addr;
      record.site = planned.site;
      record.displaced = planned.displaced;
      record.loop = planned.loop;
      result_.manifest.loop_veneers.push_back(record);
    }
    result_.veneer_count = static_cast<u32>(planned_veneers_.size());
  }

  void emit_slots() {
    Program& program = result_.program;
    // MTBAR starts after the veneer area, aligned for readability.
    while (program.end() % 16 != 0) {
      const u32 nop = isa::encode(isa::make_nop());
      program.append_words(std::span<const u32>(&nop, 1));
    }
    result_.manifest.mtbar_base = program.end();

    for (const auto& planned : planned_slots_) {
      const Address slot_base = program.end();
      std::vector<u32> words;
      for (u32 i = 0; i < options_.nop_pad; ++i) {
        words.push_back(isa::encode(isa::make_nop()));
      }
      const Address body = slot_base + 4 * options_.nop_pad;
      switch (planned.kind) {
        case SlotKind::IndirectCall:
          // BX rm completes the call (LR was set by the BL at the site).
          words.push_back(
              isa::encode(isa::make_reg_branch(Op::BX, planned.original.rm)));
          break;
        case SlotKind::IndirectJump:
        case SlotKind::ReturnPop:
          // Re-execute the original instruction (BX rm / LDR pc / POP {…,pc});
          // none of these are PC-relative, so verbatim relocation is sound.
          words.push_back(isa::encode(planned.original));
          break;
        case SlotKind::CondTaken:
          words.push_back(isa::encode(isa::make_branch(
              Op::B, isa::branch_offset(body, planned.continuation))));
          break;
        case SlotKind::CondNotTaken: {
          words.push_back(isa::encode(planned.original));  // displaced instr
          const Address back = body + 4;
          words.push_back(isa::encode(isa::make_branch(
              Op::B, isa::branch_offset(back, planned.continuation))));
          break;
        }
        case SlotKind::CondBoth: {
          // Bcc taken_target ; B site+4 — whichever way the condition goes,
          // the branch that leaves the slot is recorded.
          Instruction bcc = planned.original;
          bcc.imm = isa::branch_offset(body, planned.continuation);
          words.push_back(isa::encode(bcc));
          words.push_back(isa::encode(isa::make_branch(
              Op::B, isa::branch_offset(body + 4, planned.site + 4))));
          break;
        }
      }
      program.append_words(words);

      SlotRecord record;
      record.kind = planned.kind;
      record.slot_base = slot_base;
      record.slot_end = program.end();
      record.site = planned.site;
      record.original = planned.original;
      record.continuation = planned.continuation;
      result_.manifest.slots.push_back(record);
    }
    result_.slot_count = static_cast<u32>(planned_slots_.size());
  }

  void patch_sites() {
    Program& program = result_.program;
    // Each flash word may be rewritten at most once; overlapping plans
    // (e.g. a displaced fall-through that is also a loop preheader) would
    // corrupt the image.
    std::vector<Address> patched;
    const auto claim = [&](Address addr) {
      if (std::find(patched.begin(), patched.end(), addr) != patched.end()) {
        throw Error("rewrite: conflicting patches at " + hex32(addr));
      }
      patched.push_back(addr);
    };
    for (const auto& slot : result_.manifest.slots) {
      claim(slot.kind == SlotKind::CondNotTaken ? slot.site + 4 : slot.site);
    }
    for (const auto& veneer : result_.manifest.loop_veneers) claim(veneer.site);

    for (const auto& slot : result_.manifest.slots) {
      switch (slot.kind) {
        case SlotKind::IndirectCall:
          program.set_instruction(
              slot.site, isa::make_branch(Op::BL, isa::branch_offset(slot.site,
                                                                     slot.slot_base)));
          break;
        case SlotKind::IndirectJump:
        case SlotKind::ReturnPop:
        case SlotKind::CondBoth:
          program.set_instruction(
              slot.site, isa::make_branch(Op::B, isa::branch_offset(slot.site,
                                                                    slot.slot_base)));
          break;
        case SlotKind::CondTaken: {
          // Keep the condition, retarget to the slot.
          Instruction patched = slot.original;
          patched.imm = isa::branch_offset(slot.site, slot.slot_base);
          program.set_instruction(slot.site, patched);
          break;
        }
        case SlotKind::CondNotTaken:
          // The Bcc stays; the fall-through instruction becomes B slot.
          program.set_instruction(
              slot.site + 4,
              isa::make_branch(Op::B, isa::branch_offset(slot.site + 4,
                                                         slot.slot_base)));
          break;
      }
    }
    for (const auto& veneer : result_.manifest.loop_veneers) {
      program.set_instruction(
          veneer.site, isa::make_branch(Op::B, isa::branch_offset(
                                                   veneer.site, veneer.veneer_base)));
    }
  }

  void finalize_manifest(const cfg::LoopAnalysis& loops) {
    Manifest& manifest = result_.manifest;
    manifest.code_begin = code_begin_;
    manifest.code_end = code_end_;
    manifest.image_end = result_.program.end();
    manifest.nop_pad = options_.nop_pad;
    manifest.mtbdr_base = code_begin_;
    // MTBDR covers original code, data, and loop veneers — everything below
    // the MTBAR. Empty MTBAR (no slots) keeps a one-word range for DWT.
    if (manifest.mtbar_base == 0) manifest.mtbar_base = result_.program.end();
    manifest.mtbdr_limit = manifest.mtbar_base - 4;
    manifest.mtbar_limit =
        std::max(manifest.mtbar_base, result_.program.end() - 4);
    for (const auto& [site, simple] : loops.simple_loops) {
      if (loops.bcc_roles.at(site) == BccRole::Deterministic) {
        manifest.deterministic_loops[site] = simple;
      }
    }
    result_.rewritten_bytes = result_.program.size();
  }

  RewriteResult result_;
  const cfg::Cfg* graph_ = nullptr;
  std::map<Address, std::vector<Address>> unlogged_edges_;
  Address entry_;
  Address code_begin_;
  Address code_end_;
  RewriteOptions options_;
  std::vector<PlannedSlot> planned_slots_;
  std::vector<PlannedVeneer> planned_veneers_;
};

}  // namespace

RewriteResult rewrite_for_rap_track(const Program& original, Address entry,
                                    Address code_begin, Address code_end,
                                    const RewriteOptions& options) {
  return Rewriter(original, entry, code_begin, code_end, options).run();
}

}  // namespace raptrack::rewrite
